//! `fault_campaign`: the R1 reliability campaign on light-load TUTMAC —
//! the five `SWEEP_BERS` points at 5 s simulated each, every point
//! composed from the profiling pipeline's public calls under a
//! `FaultPlan` seeded from `--seed`.

use tut_bench::faultsweep::SWEEP_BERS;
use tut_faults::{FaultConfig, FaultPlan};
use tut_profile::SystemModel;
use tut_profiling::{analyze::analyze_log, groups::parse_model_xml, ProfilingReport};
use tut_sim::{SimConfig, SimLog, Simulation};
use tut_trace::{perf, HostProf, NoopSink};
use tutmac::TutmacConfig;

use crate::layers::{report_fingerprint, sim_rows};
use crate::measure::{timed, Fnv, SplitMix};
use crate::{Iteration, Output, SetupCost, Workload};

/// Simulated horizon of each point.
pub const HORIZON_NS: u64 = 5_000_000_000;

/// One point's outputs, kept to check later campaigns against the first.
#[derive(PartialEq)]
struct Point {
    log: SimLog,
    steps: u64,
    report: ProfilingReport,
}

impl Point {
    fn count(&self, counter: &str) -> i64 {
        self.report.counter_total(counter)
    }

    fn delivery_ratio(&self) -> f64 {
        self.count("arq.acked") as f64 / self.count("arq.tx").max(1) as f64
    }
}

pub struct FaultCampaign {
    system: SystemModel,
    /// Fingerprint of the model's XML, naming the input in the report.
    input_fp: u64,
    fault_seed: u64,
    reference: Option<Vec<Point>>,
}

impl FaultCampaign {
    pub fn set_up(seed: u64) -> (FaultCampaign, SetupCost) {
        let (system, build_ns) = timed(|| {
            tutmac::build_tutmac_system(&TutmacConfig::light_load()).expect("TUTMAC builds")
        });
        let (xml, xml_ns) = timed(|| system.to_xml());
        let campaign = FaultCampaign {
            system,
            input_fp: Fnv::new().str(&xml).finish(),
            fault_seed: SplitMix::new(seed).next_u64(),
            reference: None,
        };
        let cost = SetupCost {
            total_ns: build_ns + xml_ns,
            build_ns,
            xml_ns,
        };
        (campaign, cost)
    }

    /// R1's reliability shape: delivery never improves and retries never
    /// fall as the bit-error rate rises; the error-free point sees no
    /// injected fault.
    fn is_sound(points: &[Point]) -> bool {
        let monotone = points.windows(2).all(|w| {
            w[1].delivery_ratio() <= w[0].delivery_ratio()
                && w[1].count("arq.retries") >= w[0].count("arq.retries")
        });
        let clean = points[0].report.faults.injected() == 0;
        points.len() == SWEEP_BERS.len() && monotone && clean && points[0].count("arq.tx") > 0
    }
}

impl Workload for FaultCampaign {
    fn iterate(&mut self, traced: bool) -> Iteration {
        let mut layers: Vec<(&'static str, u64)> = Vec::with_capacity(5);
        let mut add = |name: &'static str, ns: u64| match layers.iter_mut().find(|l| l.0 == name) {
            Some(l) => l.1 += ns,
            None => layers.push((name, ns)),
        };
        if traced {
            perf::reset();
            perf::enable();
        }
        let config = SimConfig::with_horizon_ns(HORIZON_NS);
        let (points, total_ns) = timed(|| {
            let mut points = Vec::with_capacity(SWEEP_BERS.len());
            for &ber in &SWEEP_BERS {
                let mut plan = FaultPlan::new(FaultConfig::with_ber(self.fault_seed, ber));
                let (xml, t) = timed(|| self.system.to_xml());
                add("uml.to_xml_ms", t);
                let (groups, t) = timed(|| parse_model_xml(&xml));
                add("profiling.parse_groups_ms", t);
                let (sim, t) = timed(|| Simulation::from_system(&self.system, config.clone()));
                add("sim.setup_ms", t);
                let (run, t) = timed(|| {
                    let sim = sim.ok()?;
                    if traced {
                        sim.run_with_faults_prof(&mut plan, &mut NoopSink, HostProf)
                            .ok()
                    } else {
                        sim.run_with_faults(&mut plan, &mut NoopSink).ok()
                    }
                });
                add("sim.run_ms", t);
                let (run, groups) = (run?, groups.ok()?);
                let (report, t) = timed(|| analyze_log(&groups, &run.log));
                add("profiling.analyze_ms", t);
                points.push(Point {
                    log: run.log,
                    steps: run.total_steps,
                    report,
                });
            }
            Some(points)
        });
        let mut inner = Vec::new();
        if traced {
            perf::disable();
            inner = sim_rows(&perf::drain());
        }
        let ok = match points {
            None => false,
            Some(points) => match &self.reference {
                Some(reference) => *reference == points,
                None => {
                    let sound = FaultCampaign::is_sound(&points);
                    self.reference = Some(points);
                    sound
                }
            },
        };
        Iteration {
            total_ns,
            layers,
            inner,
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    fn finish(&self, out: &mut Output) {
        out.line(format!(
            "inputs: TutmacConfig::light_load() (model XML {:016x}), {} points x {} ms simulated, \
             BER {:?}, fault seed {:#018x}",
            self.input_fp,
            SWEEP_BERS.len(),
            HORIZON_NS / 1_000_000,
            SWEEP_BERS,
            self.fault_seed
        ));
        let Some(points) = &self.reference else {
            out.line("fingerprint: none (the first campaign failed)".into());
            return;
        };
        let sum = |f: &dyn Fn(&Point) -> f64| points.iter().map(f).sum::<f64>();
        let tx = sum(&|p| p.count("arq.tx") as f64);
        let acked = sum(&|p| p.count("arq.acked") as f64);
        out.set("sim.records", sum(&|p| p.log.len() as f64));
        out.set("sim.steps", sum(&|p| p.steps as f64));
        out.set(
            "faults.corrupted",
            sum(&|p| p.report.faults.corrupted as f64),
        );
        out.set("faults.dropped", sum(&|p| p.report.faults.dropped as f64));
        out.set("arq.tx", tx);
        out.set("arq.acked", acked);
        out.set("arq.retries", sum(&|p| p.count("arq.retries") as f64));
        out.set("arq.delivery_ratio", acked / tx.max(1.0));
        let mut all = Fnv::new();
        for (ber, p) in SWEEP_BERS.iter().zip(points) {
            let log_fp = Fnv::new().str(&p.log.to_text()).finish();
            let report_fp = report_fingerprint(&p.report);
            all = all
                .bytes(&log_fp.to_le_bytes())
                .bytes(&report_fp.to_le_bytes());
            out.line(format!(
                "exact: ber={ber:e} records={} steps={} tx={} acked={} retries={} gave_up={} \
                 corrupted={} dropped={} delivery={:.4} log={log_fp:016x} report={report_fp:016x}",
                p.log.len(),
                p.steps,
                p.count("arq.tx"),
                p.count("arq.acked"),
                p.count("arq.retries"),
                p.count("arq.gave_up"),
                p.report.faults.corrupted,
                p.report.faults.dropped,
                p.delivery_ratio(),
            ));
        }
        out.line(format!("fingerprint: campaign={:016x}", all.finish()));
    }

    fn iteration_alias(&self) -> (&'static str, f64) {
        ("campaign_s", 1e-9)
    }
}
