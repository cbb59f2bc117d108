//! Integration tests for the host-side self-profiler: the
//! zero-perturbation contract (a profiled simulation's log is
//! byte-identical to an unprofiled one), the disabled-profiler no-op
//! contract, and the renderings (folded stacks, hotspot table).
//!
//! The profiler records on the thread that opens its frames, but its
//! enabled flag is process-global, so every test that enables it or
//! drains it serialises on one shared lock — `cargo test` runs
//! integration tests on a thread pool.

use std::sync::{Mutex, MutexGuard};

use tut_faults::NoFaults;
use tut_sim::{SimConfig, SimReport, Simulation};
use tut_trace::perf::{self, HostProf, NoProf, Prof};
use tut_trace::NoopSink;
use tutmac::TutmacConfig;

fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tutmac_run<P: Prof>(prof: P) -> SimReport {
    let system = tutmac::build_tutmac_system(&TutmacConfig::default()).expect("tutmac builds");
    Simulation::from_system(&system, SimConfig::with_horizon_ns(2_000_000))
        .expect("sim builds")
        .run_with_faults_prof(&mut NoFaults, &mut NoopSink, prof)
        .expect("sim runs")
}

/// The tentpole discipline: profiling is observation only. The simulated
/// behaviour — every log record, byte for byte — must be identical with
/// the profiler recording and without.
#[test]
fn profiled_simulation_log_is_byte_identical_to_unprofiled() {
    let _g = guard();
    let baseline = tutmac_run(NoProf);

    perf::reset();
    perf::enable();
    let profiled = tutmac_run(HostProf);
    perf::disable();
    let report = perf::drain();

    assert_eq!(
        baseline.log.to_text(),
        profiled.log.to_text(),
        "profiling must not perturb the simulation"
    );
    assert_eq!(baseline.total_steps, profiled.total_steps);
    assert!(!report.is_empty(), "the profiled run must record frames");
}

/// With the profiler disabled, instrumented code runs but nothing is
/// recorded — `drain` returns an empty report.
#[test]
fn disabled_profiler_records_nothing_across_the_pipeline() {
    let _g = guard();
    perf::disable();
    perf::reset();
    let _ = tutmac_run(HostProf); // HostProf, but the global flag is off
    let report = perf::drain();
    assert!(report.is_empty());
    assert_eq!(report.to_folded(), "");
    assert_eq!(report.hotspots().len(), 0);
}

/// The profiled sim run produces the advertised frames: the `sim.run`
/// root, per-event-kind frames, and per-process attribution.
#[test]
fn sim_frames_carry_event_kinds_and_processes() {
    let _g = guard();
    perf::reset();
    perf::enable();
    let _ = tutmac_run(HostProf);
    perf::disable();
    let report = perf::drain();
    let labels: Vec<&str> = report.nodes.iter().map(|n| n.label.as_str()).collect();
    assert!(labels.contains(&"sim.run"), "labels: {labels:?}");
    assert!(labels.contains(&"sim.event.deliver"), "labels: {labels:?}");
    assert!(
        labels.iter().any(|l| l.starts_with("proc/")),
        "per-process frames missing: {labels:?}"
    );
    // Per-process frames nest under an event kind, which nests under the
    // run root.
    let proc_node = report
        .nodes
        .iter()
        .find(|n| n.label.starts_with("proc/"))
        .expect("a process frame");
    let parent = &report.nodes[proc_node.parent.expect("process frames have parents")];
    assert!(parent.label.starts_with("sim.event."), "{}", parent.label);
}

/// The folded rendering is valid flamegraph input: every line is
/// `frame(;frame)* value` with a positive integer value, and nested
/// frames produce at least one `parent;child` line.
#[test]
fn folded_output_parses_as_collapsed_stacks() {
    let _g = guard();
    perf::reset();
    perf::enable();
    let _ = tutmac_run(HostProf);
    perf::disable();
    let folded = perf::drain().to_folded();
    assert!(!folded.is_empty());
    let mut nested = false;
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("`frames value` shape");
        let value: u64 = value.parse().expect("numeric sample value");
        assert!(value > 0, "zero-weight line: {line}");
        assert!(!stack.is_empty());
        for frame in stack.split(';') {
            assert!(!frame.is_empty(), "empty frame in: {line}");
            assert!(!frame.contains(' '), "space inside frame name: {line}");
        }
        nested |= stack.contains(';');
    }
    assert!(nested, "no parent;child line in:\n{folded}");
}

/// The hotspot table and Chrome export render from the same report.
#[test]
fn hotspot_table_and_chrome_export_render() {
    let _g = guard();
    perf::reset();
    perf::enable();
    let _ = tutmac_run(HostProf);
    perf::disable();
    let report = perf::drain();
    let table = report.render_top(10);
    assert!(table.contains("sim.run"), "{table}");
    let chrome = report.to_chrome();
    let doc = tut_trace::json::parse(&chrome).expect("valid Chrome JSON");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    assert!(
        events
            .iter()
            .any(|e| { e.get("name").and_then(tut_trace::json::Json::as_str) == Some("sim.run") }),
        "sim.run span missing from the Chrome export"
    );
}

/// The profiled full pipeline (`profile_system_prof`) produces the same
/// report as the unprofiled one and leaves pipeline-phase frames behind.
#[test]
fn profiled_pipeline_report_matches_unprofiled() {
    let _g = guard();
    let system = tutmac::build_tutmac_system(&TutmacConfig::default()).expect("tutmac builds");
    let config = SimConfig::with_horizon_ns(2_000_000);
    let baseline = tut_profiling::profile_system(&system, config.clone()).expect("baseline");

    perf::reset();
    perf::enable();
    let profiled =
        tut_profiling::profile_system_prof(&system, config, &mut NoFaults, &mut NoopSink, HostProf)
            .expect("profiled");
    perf::disable();
    let report = perf::drain();

    assert_eq!(baseline.group_exec, profiled.group_exec);
    assert_eq!(baseline.horizon_ns, profiled.horizon_ns);
    let labels: Vec<&str> = report.nodes.iter().map(|n| n.label.as_str()).collect();
    for phase in [
        "pipeline.profile",
        "pipeline.serialise_xml",
        "pipeline.parse_groups",
        "pipeline.sim_setup",
        "pipeline.analyze",
    ] {
        assert!(labels.contains(&phase), "{phase} missing from {labels:?}");
    }
}
