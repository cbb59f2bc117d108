//! `paper_flow`: one full Figure-2 design iteration on the
//! paper-calibrated TUTMAC at 1 s simulated — cold check, codegen, XML,
//! group parse, sim setup, simulate, analyse, then exploration (partition
//! seeded from `--seed`, then mapping search).

use tut_bench::incremental::{CheckOutcome, Checker};
use tut_codegen::project::GeneratedFile;
use tut_explore::{CommGraph, GroupingOptions, GroupingSolution, MappingOptions, MappingSolution};
use tut_faults::NoFaults;
use tut_profile::SystemModel;
use tut_profiling::{analyze::analyze_log, groups::parse_model_xml, ProfilingReport};
use tut_sim::{SimConfig, SimLog, Simulation};
use tut_trace::{perf, HostProf, NoopSink};
use tutmac::TutmacConfig;

use crate::layers::{report_fingerprint, sim_rows, stage_counts};
use crate::measure::{median, ms, timed, Fnv, SplitMix};
use crate::{Iteration, Output, SetupCost, Workload};

/// Simulated horizon of one iteration.
pub const HORIZON_NS: u64 = 1_000_000_000;
const NAME: &str = "paper-system.xml";

/// Everything one iteration produces, kept to check later iterations
/// against the first.
#[derive(PartialEq)]
struct Outputs {
    check: CheckOutcome,
    files: Vec<GeneratedFile>,
    log: SimLog,
    steps: u64,
    report: ProfilingReport,
    grouping: GroupingSolution,
    mapping: MappingSolution,
}

pub struct PaperFlow {
    system: SystemModel,
    xml: String,
    accelerator: tut_uml::ids::PropertyId,
    grouping_seed: u64,
    reference: Option<Outputs>,
    /// Query counters of one cold check (identical every iteration).
    check_stats: Option<tut_query::CacheStats>,
    cold_check_ns: Vec<u64>,
}

impl PaperFlow {
    pub fn set_up(seed: u64) -> (PaperFlow, SetupCost) {
        let ((system, handles), build_ns) = timed(|| {
            tutmac::model::build_with_handles(&TutmacConfig::default()).expect("TUTMAC builds")
        });
        let (xml, xml_ns) = timed(|| system.to_xml());
        let grouping_seed = SplitMix::new(seed).next_u64();
        let flow = PaperFlow {
            system,
            xml,
            accelerator: handles.accelerator,
            grouping_seed,
            reference: None,
            check_stats: None,
            cold_check_ns: Vec::new(),
        };
        let cost = SetupCost {
            total_ns: build_ns + xml_ns,
            build_ns,
            xml_ns,
        };
        (flow, cost)
    }

    /// Checks the properties the first iteration's outputs must have.
    fn first_is_sound(&self, o: &Outputs, graph_nodes: usize, groups: usize) -> bool {
        let share = |name: &str| o.report.group(name).map_or(-1.0, |g| g.proportion);
        let (g1, g2, g3, g4) = (
            share("group1"),
            share("group2"),
            share("group3"),
            share("group4"),
        );
        // Table 4 shape, with the bands the repository's own Table-4 test uses.
        let shape = g1 > 0.80
            && g2 > g3
            && g3 > g4
            && (0.0..0.04).contains(&g4)
            && share("Environment") == 0.0;
        let partition_full = o.grouping.assignment.len() == graph_nodes
            && o.grouping.assignment.iter().all(|&g| g < 5);
        let mapping_full = o.mapping.assignment.len() == groups;
        !o.check.has_errors && shape && partition_full && mapping_full && !o.log.is_empty()
    }
}

impl Workload for PaperFlow {
    fn iterate(&mut self, traced: bool) -> Iteration {
        let mut layers = Vec::with_capacity(9);
        if traced {
            perf::reset();
            perf::enable();
        }
        let config = SimConfig::with_horizon_ns(HORIZON_NS);
        let (result, total_ns) = timed(|| {
            let (check, t) = timed(|| {
                let mut checker = Checker::new();
                let out = checker.check(NAME, &self.xml);
                (out, checker.stats())
            });
            layers.push(("query.check_ms", t));
            let (files, t) = timed(|| tut_codegen::generate_project(&self.system));
            layers.push(("codegen.generate_ms", t));
            let (xml, t) = timed(|| self.system.to_xml());
            layers.push(("uml.to_xml_ms", t));
            let (groups, t) = timed(|| parse_model_xml(&xml));
            layers.push(("profiling.parse_groups_ms", t));
            let (sim, t) = timed(|| Simulation::from_system(&self.system, config));
            layers.push(("sim.setup_ms", t));
            let (run, t) = timed(|| {
                let sim = sim.ok()?;
                if traced {
                    sim.run_with_faults_prof(&mut NoFaults, &mut NoopSink, HostProf)
                        .ok()
                } else {
                    sim.run().ok()
                }
            });
            layers.push(("sim.run_ms", t));
            let run = run?;
            let groups = groups.ok()?;
            let (report, t) = timed(|| analyze_log(&groups, &run.log));
            layers.push(("profiling.analyze_ms", t));
            let graph = CommGraph::from_report(&report);
            let pinned: Vec<(usize, usize)> = graph
                .nodes()
                .iter()
                .enumerate()
                .filter(|(_, n)| n.as_str() == "user" || n.as_str() == "channel")
                .map(|(i, _)| (i, 4))
                .collect();
            let options = GroupingOptions {
                groups: 5,
                balance_weight: 0.0,
                pinned,
                seed: self.grouping_seed,
                ..Default::default()
            };
            let (grouping, t) = timed(|| tut_explore::partition(&graph, &options));
            layers.push(("explore.partition_ms", t));
            let (problem, _, instances) =
                tut_explore::mapping::problem_from_system(&self.system, &report).ok()?;
            let acc = instances.iter().position(|&p| p == self.accelerator)?;
            let options = MappingOptions {
                pinned: vec![(3, acc)],
                ..Default::default()
            };
            let (mapping, t) = timed(|| tut_explore::optimise_mapping(&problem, &options));
            layers.push(("explore.mapping_ms", t));
            let outputs = Outputs {
                check: check.0,
                files: files.ok()?,
                log: run.log,
                steps: run.total_steps,
                report,
                grouping,
                mapping,
            };
            Some((
                outputs,
                check.1,
                graph.nodes().len(),
                problem.group_names.len(),
            ))
        });
        let mut inner = Vec::new();
        if traced {
            perf::disable();
            inner = sim_rows(&perf::drain());
        }
        // Latency samples come from untraced iterations after the warm-up.
        if self.reference.is_some() && !traced {
            self.cold_check_ns.push(layers[0].1);
        }
        let ok = match result {
            None => false,
            Some((outputs, stats, nodes, groups)) => match &self.reference {
                Some(reference) => *reference == outputs,
                None => {
                    let sound = self.first_is_sound(&outputs, nodes, groups);
                    self.reference = Some(outputs);
                    self.check_stats = Some(stats);
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
        out.set("query.cold_ms", ms(median(&self.cold_check_ns)));
        let Some(o) = &self.reference else {
            out.line("fingerprint: none (the first iteration failed)".into());
            return;
        };
        out.line(format!(
            "inputs: TutmacConfig::default() (model XML {:016x}), horizon {} ms simulated, \
             grouping seed {:#018x}",
            Fnv::new().str(&self.xml).finish(),
            HORIZON_NS / 1_000_000,
            self.grouping_seed
        ));
        if let Some(stats) = &self.check_stats {
            stage_counts(out, stats);
        }
        let bytes: usize = o.files.iter().map(|f| f.contents.len()).sum();
        out.set("codegen.bytes", bytes as f64);
        out.set("sim.records", o.log.len() as f64);
        out.set("sim.steps", o.steps as f64);
        let log_fp = Fnv::new().str(&o.log.to_text()).finish();
        let report_fp = report_fingerprint(&o.report);
        let mut code = Fnv::new();
        for f in &o.files {
            code = code.str(&f.name).str(&f.contents);
        }
        out.line(format!(
            "exact: sim.records={} sim.steps={} codegen.files={} codegen.bytes={bytes} \
             partition.cut={} mapping={:?}",
            o.log.len(),
            o.steps,
            o.files.len(),
            o.grouping.cut_weight,
            o.mapping.assignment
        ));
        out.line(format!(
            "fingerprint: log={log_fp:016x} report={report_fp:016x} check={:016x} codegen={:016x}",
            Fnv::new().str(&o.check.text).str(&o.check.json).finish(),
            code.finish()
        ));
        out.line(
            tut_profiling::render_table4(&o.report)
                .trim_end()
                .to_owned(),
        );
    }

    fn iteration_alias(&self) -> (&'static str, f64) {
        ("flow_s", 1e-9)
    }
}
