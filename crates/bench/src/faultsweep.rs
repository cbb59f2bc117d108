//! The fault-injection reliability campaign: sweep the channel bit-error
//! rate over the TUTMAC case study and measure what the ARQ machinery
//! delivers (experiment R1 in `EXPERIMENTS.md`).
//!
//! Each point runs the full profiling pipeline under a seeded
//! [`FaultPlan`], so every figure below comes out of the same log-file
//! boundary the paper's tooling used: `arq.*` counters are `CNT` records
//! counted by the `rca` process itself, fault totals are `FAULT` records
//! written by the engine.

use tut_faults::{FaultConfig, FaultPlan};
use tut_profiling::{ProfilingError, ProfilingReport};
use tut_sim::SimConfig;
use tut_trace::perf;

/// The BER points of the full sweep, weakest to strongest.
pub const SWEEP_BERS: [f64; 5] = [0.0, 1e-6, 1e-5, 1e-4, 1e-3];

/// The seed every reproduction run uses (the campaign is deterministic:
/// same seed + same BER = same table).
pub const SWEEP_SEED: u64 = 0x7071;

/// One row of the reliability table.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SweepPoint {
    /// Channel bit-error rate of this run.
    pub ber: f64,
    /// Frames the ARQ sender transmitted (`arq.tx`).
    pub tx: i64,
    /// Frames acknowledged by the receiving terminal (`arq.acked`).
    pub acked: i64,
    /// Retransmissions (`arq.retries`).
    pub retries: i64,
    /// Frames abandoned after the retry cap (`arq.gave_up`).
    pub gave_up: i64,
    /// Transfers the fault model corrupted in flight.
    pub corrupted: u64,
    /// Simulated horizon of the run (ns).
    pub horizon_ns: u64,
    /// Acknowledged payload bytes (delivered fragments × fragment size).
    pub goodput_bytes: u64,
}

impl SweepPoint {
    /// Fraction of transmitted frames that were acknowledged.
    pub fn delivery_ratio(&self) -> f64 {
        if self.tx == 0 {
            0.0
        } else {
            self.acked as f64 / self.tx as f64
        }
    }

    /// Mean retransmissions per transmitted frame.
    pub fn mean_retries(&self) -> f64 {
        if self.tx == 0 {
            0.0
        } else {
            self.retries as f64 / self.tx as f64
        }
    }

    /// Acknowledged payload throughput in Mbit/s of simulated time.
    pub fn goodput_mbps(&self) -> f64 {
        if self.horizon_ns == 0 {
            0.0
        } else {
            (self.goodput_bytes as f64 * 8.0) / (self.horizon_ns as f64 / 1000.0)
        }
    }
}

/// Extracts a [`SweepPoint`] from a profiling report.
fn point_from_report(ber: f64, fragment_bytes: i64, report: &ProfilingReport) -> SweepPoint {
    let acked = report.counter_total("arq.acked");
    SweepPoint {
        ber,
        tx: report.counter_total("arq.tx"),
        acked,
        retries: report.counter_total("arq.retries"),
        gave_up: report.counter_total("arq.gave_up"),
        corrupted: report.faults.corrupted,
        horizon_ns: report.horizon_ns,
        goodput_bytes: (acked.max(0) as u64) * (fragment_bytes.max(0) as u64),
    }
}

/// Runs one BER point of the campaign on the paper system.
///
/// # Errors
///
/// Propagates any failure of the profiling pipeline; a broken case-study
/// model surfaces as [`ProfilingError::Model`].
pub fn run_point(ber: f64, seed: u64, config: SimConfig) -> Result<SweepPoint, ProfilingError> {
    let _point_span = perf::enter_named("fault_sweep.point");
    let tutmac_config = tutmac::TutmacConfig::default();
    let system = tutmac::build_tutmac_system(&tutmac_config)
        .map_err(|e| ProfilingError::Model(format!("tutmac case study failed to build: {e}")))?;
    let mut plan = FaultPlan::new(FaultConfig::with_ber(seed, ber));
    let report = tut_profiling::profile_system_prof(
        &system,
        config,
        &mut plan,
        &mut tut_trace::NoopSink,
        perf::NoProf,
    )?;
    Ok(point_from_report(
        ber,
        tutmac_config.fragment_bytes,
        &report,
    ))
}

/// Runs the full campaign over [`SWEEP_BERS`], one point after the
/// other. Every BER point is a `fault_sweep.point` self-profiler frame.
///
/// # Errors
///
/// Propagates the first failed point (in BER order).
pub fn run_sweep(config: &SimConfig) -> Result<Vec<SweepPoint>, ProfilingError> {
    SWEEP_BERS
        .iter()
        .map(|&ber| run_point(ber, SWEEP_SEED, config.clone()))
        .collect()
}

/// Renders the reliability table.
pub fn render(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "BER      | tx     | acked  | delivery | retries | mean r/f | gave up | corrupted | goodput\n",
    );
    out.push_str(
        "---------+--------+--------+----------+---------+----------+---------+-----------+--------\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<8} | {:>6} | {:>6} | {:>7.1} % | {:>7} | {:>8.3} | {:>7} | {:>9} | {:>5.2} Mbit/s\n",
            format!("{:.0e}", p.ber),
            p.tx,
            p.acked,
            p.delivery_ratio() * 100.0,
            p.retries,
            p.mean_retries(),
            p.gave_up,
            p.corrupted,
            p.goodput_mbps(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_arithmetic() {
        let p = SweepPoint {
            ber: 1e-4,
            tx: 100,
            acked: 90,
            retries: 25,
            gave_up: 4,
            corrupted: 30,
            horizon_ns: 10_000_000,
            goodput_bytes: 90 * 256,
        };
        assert!((p.delivery_ratio() - 0.9).abs() < 1e-12);
        assert!((p.mean_retries() - 0.25).abs() < 1e-12);
        assert!(p.goodput_mbps() > 0.0);

        let empty = SweepPoint {
            tx: 0,
            acked: 0,
            retries: 0,
            gave_up: 0,
            corrupted: 0,
            horizon_ns: 0,
            goodput_bytes: 0,
            ber: 0.0,
        };
        assert_eq!(empty.delivery_ratio(), 0.0);
        assert_eq!(empty.mean_retries(), 0.0);
        assert_eq!(empty.goodput_mbps(), 0.0);
    }

    #[test]
    fn render_lists_every_point() {
        let points = vec![
            SweepPoint {
                ber: 0.0,
                tx: 10,
                acked: 10,
                retries: 0,
                gave_up: 0,
                corrupted: 0,
                horizon_ns: 1_000_000,
                goodput_bytes: 2560,
            },
            SweepPoint {
                ber: 1e-3,
                tx: 10,
                acked: 5,
                retries: 20,
                gave_up: 5,
                corrupted: 25,
                horizon_ns: 1_000_000,
                goodput_bytes: 1280,
            },
        ];
        let text = render(&points);
        assert!(text.contains("delivery"));
        assert_eq!(text.lines().count(), 4, "header + rule + 2 rows");
    }
}
