//! End-to-end convenience: the full Figure 2 loop in one call.

use tut_faults::{FaultModel, NoFaults};
use tut_profile::SystemModel;
use tut_sim::{SimConfig, Simulation};
use tut_trace::perf::{NoProf, Prof};
use tut_trace::{Clock, NoopSink, TraceSink};

use crate::analyze::analyze_log;
use crate::error::ProfilingError;
use crate::groups::parse_model_xml;
use crate::report::ProfilingReport;

/// Runs the complete design-and-profiling pipeline on a system model:
///
/// 1. serialise the model to XML and parse the process-group information
///    back out of the text (stage 1 of §4.4),
/// 2. simulate the system with `tut-sim`, producing the simulation log,
/// 3. combine and analyse (stage 3 of §4.4).
///
/// The model crosses the honest XML text boundary exactly like the
/// paper's TCL tooling; the simulation log is analysed in memory (its
/// text rendering is a lossless round-trip, so the result is identical
/// to re-parsing the log-file).
///
/// # Errors
///
/// Returns [`ProfilingError`] when any stage fails.
pub fn profile_system(
    system: &SystemModel,
    config: SimConfig,
) -> Result<ProfilingReport, ProfilingError> {
    profile_system_prof(system, config, &mut NoFaults, &mut NoopSink, NoProf)
}

/// [`profile_system`] with every hook: a deterministic fault model, a
/// trace sink and a host self-profiler.
///
/// - The simulation stage runs via [`Simulation::run_with_faults_prof`],
///   so injected corruption/drops flow through the log-file into the
///   report's fault tallies and per-group protocol counters. With an
///   inactive model (e.g. [`NoFaults`]) the report is identical to
///   [`profile_system`].
/// - Each pipeline stage (serialise, parse groups, build, simulate,
///   analyse) becomes a host-clock span on the `tool/profiling` track,
///   and the simulation itself runs traced.
/// - Each pipeline phase becomes a self-profiler frame under
///   `pipeline.profile`, and host time inside the simulation is
///   attributed per process and per event kind. Drain with
///   [`tut_trace::perf::drain`].
///
/// Tracing and self-profiling are observation only: the report (and the
/// simulation log inside it) is byte-identical with [`NoopSink`] and
/// [`NoProf`].
///
/// # Errors
///
/// Returns [`ProfilingError`] when any stage fails, including a
/// [`tut_sim::SimError::WatchdogExpired`] surfaced from an armed
/// watchdog.
pub fn profile_system_prof<F: FaultModel, T: TraceSink, P: Prof>(
    system: &SystemModel,
    config: SimConfig,
    faults: &mut F,
    tracer: &mut T,
    prof: P,
) -> Result<ProfilingReport, ProfilingError> {
    let _pipeline_span = prof.enter_named("pipeline.profile");
    let track = tracer.track("tool/profiling", Clock::Host);
    let mut stage_start = tracer.host_now_ns();
    let mut stage = |tracer: &mut T, name: &str| {
        let now = tracer.host_now_ns();
        tracer.span(track, name, stage_start, now.saturating_sub(stage_start));
        stage_start = now;
    };

    let xml = {
        let _s = prof.enter_named("pipeline.serialise_xml");
        system.to_xml()
    };
    stage(tracer, "serialise_xml");
    let groups = {
        let _s = prof.enter_named("pipeline.parse_groups");
        parse_model_xml(&xml)?
    };
    stage(tracer, "parse_groups");

    let simulation = {
        let _s = prof.enter_named("pipeline.sim_setup");
        Simulation::from_system(system, config)
            .map_err(|e| ProfilingError::Simulation(e.to_string()))?
    };
    stage(tracer, "build_simulation");
    let report = simulation
        .run_with_faults_prof(faults, tracer, prof)
        .map_err(|e| ProfilingError::Simulation(e.to_string()))?;
    stage(tracer, "simulate");

    // Analyse the in-memory log directly: rendering to text and parsing
    // it back is a lossless round-trip (covered by tests), so the
    // double conversion the text boundary used to cost is skipped here.
    // `analyze` stays available for externally produced log-files.
    let result = {
        let _s = prof.enter_named("pipeline.analyze");
        Ok(analyze_log(&groups, &report.log))
    };
    stage(tracer, "analyze");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_profile::application::ProcessType;
    use tut_uml::action::{CostClass, Expr, Statement};
    use tut_uml::statemachine::{StateMachine, Trigger};

    /// A single self-driving process in one group: it computes on a
    /// timer tick a few times.
    fn ticking_system() -> SystemModel {
        let mut s = SystemModel::new("Tick");
        let top = s.model.add_class("Top");
        s.apply(top, |t| t.application).unwrap();
        let comp = s.model.add_class("Ticker");
        s.apply(comp, |t| t.application_component).unwrap();
        let mut sm = StateMachine::new("B");
        let run = sm.add_state_with_entry(
            "Run",
            vec![Statement::SetTimer {
                name: "tick".into(),
                duration: Expr::int(1000),
            }],
        );
        sm.set_initial(run);
        sm.add_transition(
            run,
            run,
            Trigger::Timer("tick".into()),
            None,
            vec![
                Statement::Compute {
                    class: CostClass::Control,
                    amount: Expr::int(100),
                },
                Statement::SetTimer {
                    name: "tick".into(),
                    duration: Expr::int(1000),
                },
            ],
        );
        s.model.add_state_machine(comp, sm);
        let part = s.model.add_part(top, "ticker", comp);
        s.apply(part, |t| t.application_process).unwrap();
        let g = s.add_process_group("group1", false, ProcessType::General);
        s.assign_to_group(part, g);
        s
    }

    #[test]
    fn end_to_end_pipeline_produces_table4() {
        let system = ticking_system();
        let config = SimConfig::with_horizon_ns(50_000);
        let report = profile_system(&system, config).unwrap();
        // The single (unmapped-platform) group runs on the environment?
        // No: grouped processes without a platform mapping still execute
        // on the environment element, but they are *grouped*, so their
        // cycles are zero only if on the env PE. The group label must be
        // present either way.
        assert!(report.group("group1").is_some());
        assert!(report.horizon_ns > 0);
    }

    #[test]
    fn report_attributes_cycles_when_mapped() {
        use tut_profile::platform::ComponentKind;
        let mut system = ticking_system();
        let platform = system.model.add_class("Plat");
        system.apply(platform, |t| t.platform).unwrap();
        let nios = system.add_platform_component("Nios", ComponentKind::General, 50, 1.0, 0.1);
        let cpu = system.add_platform_instance(platform, "cpu1", nios, 1, 0);
        let group = system.model.find_class("group1").unwrap();
        system.map_group(group, cpu, false);

        let report = profile_system(&system, SimConfig::with_horizon_ns(50_000)).unwrap();
        let g1 = report.group("group1").unwrap();
        assert!(g1.cycles > 0, "mapped group must accumulate cycles");
        assert!((g1.proportion - 1.0).abs() < 1e-9, "only group running");
    }
}
