//! The `repro profile` driver: run a workload under the host-side
//! self-profiler ([`tut_trace::perf`]) and render where the tool's own
//! wall-clock time went.
//!
//! ```text
//! repro profile                  # full flow, top-20 hotspot table
//! repro profile --top 5          # shorter table
//! repro profile --folded         # collapsed stacks (inferno/flamegraph)
//! repro profile --json           # Chrome trace-event JSON (Perfetto)
//! repro profile explore          # profile the exploration drivers
//! repro profile fault-sweep      # profile the reliability campaign
//! repro profile bench --quick    # throughput floor WITH profiling on
//! ```
//!
//! Only the requested rendering goes to stdout; every status line goes to
//! stderr, so `--folded`/`--json` output pipes clean into flamegraph
//! tooling (pinned by `crates/bench/tests/progress.rs`).

use tut_faults::NoFaults;
use tut_sim::{SimConfig, Simulation};
use tut_trace::{perf, HostProf, NoopSink, Progress};

use crate::faultsweep;

/// Throughput of one timed TUTMAC simulation.
#[derive(Clone, Copy, PartialEq, Debug)]
struct EventRate {
    /// Log records the run produced.
    records: u64,
    /// Wall-clock time of the run (seconds).
    wall_s: f64,
}

impl EventRate {
    /// Log records produced per wall-clock second (the events/sec figure
    /// of experiment P1).
    fn events_per_sec(&self) -> f64 {
        if self.wall_s <= 0.0 {
            0.0
        } else {
            self.records as f64 / self.wall_s
        }
    }
}

/// Generous events/sec floor for `repro profile bench --quick`: an order
/// of magnitude below the measured release-build throughput on a single
/// container core, so only a gross (>5x) regression can trip it while
/// machine noise cannot.
const QUICK_FLOOR_EVENTS_PER_SEC: f64 = 50_000.0;

/// Parsed `repro profile` flags (the shared `repro` flags that apply).
pub struct ProfileFlags {
    /// Shorter horizons / fewer iterations.
    pub quick: bool,
    /// Emit the Chrome trace-event JSON instead of the hotspot table.
    pub json: bool,
    /// Emit collapsed (flamegraph) stacks instead of the hotspot table.
    pub folded: bool,
    /// Hotspot table length (default 20).
    pub top: Option<usize>,
    /// Worker threads for the parallel workloads.
    pub threads: usize,
}

/// Runs `repro profile` over `items` (at most one workload name; empty
/// means `flow`). Returns the process exit code.
pub fn run_profile(items: &[String], flags: &ProfileFlags) -> i32 {
    let item = match items {
        [] => "flow",
        [one] => one.as_str(),
        _ => {
            eprintln!("profile takes at most one item");
            return 2;
        }
    };
    perf::reset();
    perf::enable();
    let exit = match item {
        "flow" => {
            profile_flow(flags);
            0
        }
        "explore" => {
            profile_explore(flags);
            0
        }
        "fault-sweep" => {
            profile_fault_sweep(flags);
            0
        }
        "bench" => profile_bench(flags),
        other => {
            perf::disable();
            perf::reset();
            eprintln!("unknown profile item `{other}`; known: flow, explore, fault-sweep, bench");
            return 2;
        }
    };
    perf::disable();
    let report = perf::drain();
    if report.is_empty() {
        eprintln!("[profile] empty profile: no spans recorded");
        return 1;
    }
    eprintln!(
        "[profile] item `{item}`: {} call-tree nodes, {} raw spans dropped",
        report.nodes.len(),
        report.dropped_spans
    );
    if flags.json {
        print!("{}", report.to_chrome());
    } else if flags.folded {
        print!("{}", report.to_folded());
    } else {
        print!("{}", report.render_top(flags.top.unwrap_or(20)));
    }
    exit
}

/// The full Figure 2 pipeline: front-end checks (parse → XMI → profile
/// apply → rules → codegen) plus the profiled simulation flow
/// (serialise → parse groups → sim setup → simulate → analyse).
///
/// The check stage runs through the incremental [`Checker`] twice — a
/// cold pass and a warm re-check after a behaviour edit — so the
/// hotspot table carries `query.<stage>` frames for exactly the queries
/// each pass executed, and the cache-effectiveness line shows what the
/// edit invalidated.
fn profile_flow(flags: &ProfileFlags) {
    let xml = crate::paper_system().to_xml();
    let mut checker = crate::incremental::Checker::new();
    let cold = checker.check("paper-system.xml", &xml);
    eprintln!(
        "[profile] check stage (cold): {}",
        cold.text.lines().last().unwrap_or("")
    );
    let before = checker.stats();
    if let Some(edited) = crate::benchcheck::edit_behavior(&xml, 1) {
        checker.check("paper-system.xml", &edited);
        let warm = checker.stats().since(&before);
        eprintln!(
            "[profile] check stage (warm re-check): {}",
            warm.render().lines().next().unwrap_or("")
        );
    }
    let system = crate::paper_system();
    let config = if flags.quick {
        SimConfig::with_horizon_ns(5_000_000)
    } else {
        crate::table4_config()
    };
    let profiled =
        tut_profiling::profile_system_prof(&system, config, &mut NoFaults, &mut NoopSink, HostProf)
            .expect("profiled pipeline run");
    eprintln!(
        "[profile] flow stage: {} groups over {} ms simulated",
        profiled.group_exec.len(),
        profiled.horizon_ns / 1_000_000
    );
}

/// The §4.5 exploration loop: grouping restarts + mapping search.
fn profile_explore(flags: &ProfileFlags) {
    let (system, handles) = crate::paper_system_with_handles();
    let report = crate::profile(&system);
    let graph = tut_explore::CommGraph::from_report(&report);
    let pinned: Vec<(usize, usize)> = graph
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.as_str() == "user" || n.as_str() == "channel")
        .map(|(i, _)| (i, 4))
        .collect();
    let grouping = tut_explore::partition_observed(
        &graph,
        &tut_explore::GroupingOptions {
            groups: 5,
            balance_weight: 0.0,
            pinned,
            threads: flags.threads,
            annealing_iterations: if flags.quick { 2_000 } else { 20_000 },
            ..Default::default()
        },
        &mut NoopSink,
        &Progress::disabled(),
    );
    let (problem, _, instances) =
        tut_explore::mapping::problem_from_system(&system, &report).expect("mapping problem");
    let acc_index = instances
        .iter()
        .position(|&p| p == handles.accelerator)
        .expect("accelerator instance");
    let mapping = tut_explore::optimise_mapping_observed(
        &problem,
        &tut_explore::MappingOptions {
            pinned: vec![(3, acc_index)],
            threads: flags.threads,
            ..Default::default()
        },
        &mut NoopSink,
        &Progress::disabled(),
    );
    eprintln!(
        "[profile] explore stage: grouping objective {:.1}, mapping cost {:.1}",
        grouping.objective, mapping.cost
    );
}

/// The R1 reliability campaign across every BER point.
fn profile_fault_sweep(flags: &ProfileFlags) {
    let config = if flags.quick {
        SimConfig::with_horizon_ns(2_000_000)
    } else {
        crate::table4_config()
    };
    let points = faultsweep::run_sweep_observed(&config, flags.threads, &Progress::disabled())
        .expect("fault-sweep stage");
    eprintln!("[profile] fault-sweep stage: {} points", points.len());
}

/// The P1 throughput measurement with the sim hot loop profiled (the
/// engine runs via `run_with_faults_prof(HostProf)`, so per-process and
/// per-event-kind frames carry real cost). With `--quick` the events/sec
/// regression floor must hold *with profiling enabled* — this is the
/// overhead budget `scripts/verify.sh` pins.
fn profile_bench(flags: &ProfileFlags) -> i32 {
    let (horizon_ns, repeats) = if flags.quick {
        (5_000_000, 3)
    } else {
        (20_000_000, 5)
    };
    let system = crate::paper_system();
    let mut best: Option<EventRate> = None;
    for _ in 0..repeats {
        let _repeat_span = perf::enter_named("bench.repeat");
        let sim = Simulation::from_system(&system, SimConfig::with_horizon_ns(horizon_ns))
            .expect("sim builds");
        let started = std::time::Instant::now();
        let report = sim
            .run_with_faults_prof(&mut NoFaults, &mut NoopSink, HostProf)
            .expect("sim runs");
        let rate = EventRate {
            records: report.log.len() as u64,
            wall_s: started.elapsed().as_secs_f64(),
        };
        best = Some(match best {
            Some(b) if b.wall_s <= rate.wall_s => b,
            _ => rate,
        });
    }
    let rate = best.expect("at least one repeat ran");
    eprintln!(
        "[profile] bench stage: {:.0} events/sec with profiling enabled",
        rate.events_per_sec()
    );
    if flags.quick {
        let floor = QUICK_FLOOR_EVENTS_PER_SEC;
        if rate.events_per_sec() < floor {
            eprintln!(
                "[profile bench --quick] {:.0} events/sec below regression floor {floor:.0} \
                 (profiling overhead too high)",
                rate.events_per_sec()
            );
            return 1;
        }
        eprintln!(
            "[profile bench --quick] {:.0} events/sec clears regression floor {floor:.0}",
            rate.events_per_sec()
        );
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_rate_arithmetic() {
        let r = EventRate {
            records: 500,
            wall_s: 0.25,
        };
        assert!((r.events_per_sec() - 2000.0).abs() < 1e-9);
        let zero = EventRate { wall_s: 0.0, ..r };
        assert_eq!(zero.events_per_sec(), 0.0);
    }
}
