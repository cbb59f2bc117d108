//! Observability integration through the facade crate: attaching a
//! [`Recorder`] must not perturb the simulation (observer effect), the
//! exporters must emit artefacts the in-tree validators accept for a
//! tiny two-process model, and the traced paper-system run must export
//! the same bytes on every run.

use tut_profile_suite::faults::NoFaults;
use tut_profile_suite::profile::application::ProcessType;
use tut_profile_suite::profile::platform::ComponentKind;
use tut_profile_suite::profile::SystemModel;
use tut_profile_suite::profile_core::TagValue;
use tut_profile_suite::profiling::profile_system_prof;
use tut_profile_suite::sim::{SimConfig, Simulation};
use tut_profile_suite::trace::{chrome, json, prom, vcd, EventKind, NoProf, Recorder};
use tut_profile_suite::uml::action::{BinOp, CostClass, Expr, Statement};
use tut_profile_suite::uml::model::ConnectorEnd;
use tut_profile_suite::uml::statemachine::{StateMachine, Trigger};
use tut_profile_suite::uml::value::DataType;

/// A minimal two-process system: `pinger` and `ponger` exchange a
/// counter signal across two CPUs joined by one HIBI segment.
fn tiny_system(rounds: i64) -> SystemModel {
    let mut s = SystemModel::new("Tiny");
    let top = s.model.add_class("Top");
    s.apply(top, |t| t.application).unwrap();

    let ping_sig = s.model.add_signal("Ping");
    s.model.signal_mut(ping_sig).add_param("n", DataType::Int);
    let pong_sig = s.model.add_signal("Pong");
    s.model.signal_mut(pong_sig).add_param("n", DataType::Int);

    let pinger = s.model.add_class("Pinger");
    s.apply(pinger, |t| t.application_component).unwrap();
    let p_out = s.model.add_port(pinger, "out");
    let p_in = s.model.add_port(pinger, "in");
    s.model.port_mut(p_out).add_required(ping_sig);
    s.model.port_mut(p_in).add_provided(pong_sig);
    let mut sm = StateMachine::new("PingerB");
    let idle = sm.add_state_with_entry(
        "Idle",
        vec![Statement::Send {
            port: "out".into(),
            signal: ping_sig,
            args: vec![Expr::int(rounds)],
        }],
    );
    let wait = sm.add_state("Wait");
    sm.set_initial(idle);
    sm.add_transition(idle, wait, Trigger::Completion, None, vec![]);
    sm.add_transition(
        wait,
        wait,
        Trigger::Signal(pong_sig),
        Some(Expr::param("n").bin(BinOp::Gt, Expr::int(0))),
        vec![
            Statement::Compute {
                class: CostClass::Control,
                amount: Expr::int(10),
            },
            Statement::Send {
                port: "out".into(),
                signal: ping_sig,
                args: vec![Expr::param("n")],
            },
        ],
    );
    s.model.add_state_machine(pinger, sm);

    let ponger = s.model.add_class("Ponger");
    s.apply(ponger, |t| t.application_component).unwrap();
    let q_in = s.model.add_port(ponger, "in");
    let q_out = s.model.add_port(ponger, "out");
    s.model.port_mut(q_in).add_provided(ping_sig);
    s.model.port_mut(q_out).add_required(pong_sig);
    let mut sm = StateMachine::new("PongerB");
    let st = sm.add_state("S");
    sm.set_initial(st);
    sm.add_transition(
        st,
        st,
        Trigger::Signal(ping_sig),
        None,
        vec![
            Statement::Compute {
                class: CostClass::Control,
                amount: Expr::int(50),
            },
            Statement::Send {
                port: "out".into(),
                signal: pong_sig,
                args: vec![Expr::param("n").bin(BinOp::Sub, Expr::int(1))],
            },
        ],
    );
    s.model.add_state_machine(ponger, sm);

    let ping_part = s.model.add_part(top, "pinger", pinger);
    let pong_part = s.model.add_part(top, "ponger", ponger);
    for part in [ping_part, pong_part] {
        s.apply(part, |t| t.application_process).unwrap();
    }
    s.model.add_connector(
        top,
        "ping_wire",
        ConnectorEnd {
            part: Some(ping_part),
            port: p_out,
        },
        ConnectorEnd {
            part: Some(pong_part),
            port: q_in,
        },
    );
    s.model.add_connector(
        top,
        "pong_wire",
        ConnectorEnd {
            part: Some(pong_part),
            port: q_out,
        },
        ConnectorEnd {
            part: Some(ping_part),
            port: p_in,
        },
    );

    let g1 = s.add_process_group("group1", false, ProcessType::General);
    let g2 = s.add_process_group("group2", false, ProcessType::General);
    s.assign_to_group(ping_part, g1);
    s.assign_to_group(pong_part, g2);

    let platform = s.model.add_class("Platform");
    s.apply(platform, |t| t.platform).unwrap();
    let nios = s.add_platform_component("Nios", ComponentKind::General, 50, 2.0, 0.5);
    let cpu1 = s.add_platform_instance(platform, "cpu1", nios, 1, 0);
    let cpu2 = s.add_platform_instance(platform, "cpu2", nios, 2, 0);

    let seg_class = s.model.add_class("Seg");
    s.apply(seg_class, |t| t.hibi_segment).unwrap();
    let wrap1 = s.model.add_class("Wrap1");
    s.apply_with(wrap1, |t| t.hibi_wrapper, [("Address", TagValue::Int(16))])
        .unwrap();
    let wrap2 = s.model.add_class("Wrap2");
    s.apply_with(wrap2, |t| t.hibi_wrapper, [("Address", TagValue::Int(32))])
        .unwrap();
    let seg = s.model.add_part(platform, "seg", seg_class);
    let seg_port = s.model.add_port(seg_class, "agents");
    let nios_port = s.model.add_port(nios, "hibi");
    for (cpu, wrap_class, name) in [(cpu1, wrap1, "w1"), (cpu2, wrap2, "w2")] {
        let wp = s.model.add_port(wrap_class, "pe");
        let wb = s.model.add_port(wrap_class, "bus");
        let w = s.model.add_part(platform, name, wrap_class);
        s.model.add_connector(
            platform,
            format!("{name}_pe"),
            ConnectorEnd {
                part: Some(w),
                port: wp,
            },
            ConnectorEnd {
                part: Some(cpu),
                port: nios_port,
            },
        );
        s.model.add_connector(
            platform,
            format!("{name}_bus"),
            ConnectorEnd {
                part: Some(w),
                port: wb,
            },
            ConnectorEnd {
                part: Some(seg),
                port: seg_port,
            },
        );
    }

    s.map_group(g1, cpu1, false);
    s.map_group(g2, cpu2, false);
    s
}

fn traced_run(rounds: i64) -> (tut_profile_suite::sim::SimReport, Recorder) {
    let mut recorder = Recorder::new();
    let report = Simulation::from_system(&tiny_system(rounds), SimConfig::default())
        .expect("sim builds")
        .run_with_faults(&mut NoFaults, &mut recorder)
        .expect("sim runs");
    (report, recorder)
}

/// Observer effect: a traced run must produce a byte-identical report
/// and log — trace data lives only in the external sink.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let untraced = Simulation::from_system(&tiny_system(8), SimConfig::default())
        .expect("sim builds")
        .run()
        .expect("sim runs");
    let (traced, recorder) = traced_run(8);

    assert_eq!(untraced, traced, "SimReport must not depend on tracing");
    assert_eq!(
        untraced.log.to_text(),
        traced.log.to_text(),
        "log text must be byte-identical"
    );
    assert!(!recorder.is_empty(), "the traced run did record events");
}

/// Trace content is deterministic across runs: every timestamp a
/// recorder holds is simulated time.
#[test]
fn traced_runs_are_deterministic() {
    let (_, a) = traced_run(6);
    let (_, b) = traced_run(6);
    assert_eq!(a.tracks(), b.tracks());
    assert_eq!(a.events(), b.events());
}

/// Golden structure test: the tiny model's Chrome trace parses with the
/// in-tree JSON parser and carries the expected tracks and event kinds.
#[test]
fn tiny_model_emits_valid_chrome_trace() {
    let (report, recorder) = traced_run(5);

    // One simulated-clock track per processing element and segment,
    // plus the event-queue track.
    for name in ["pe/cpu1", "pe/cpu2", "hibi/seg", "sim/events"] {
        assert!(
            recorder.tracks().iter().any(|t| t.name == name),
            "track `{name}` missing"
        );
    }

    let text = chrome::to_chrome_json(&recorder);
    let doc = json::parse(&text).expect("export is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Thread-name metadata announces every track to the viewer.
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(json::Json::as_str) == Some("M"))
        .filter(|e| e.get("name").and_then(json::Json::as_str) == Some("thread_name"))
        .filter_map(|e| e.get("args")?.get("name")?.as_str())
        .collect();
    for name in ["pe/cpu1", "pe/cpu2", "hibi/seg"] {
        assert!(thread_names.contains(&name), "no thread_name for {name}");
    }

    // Spans and counters both survive the round trip, and every
    // non-metadata event carries a numeric timestamp.
    let mut spans = 0usize;
    let mut counters = 0usize;
    for event in events {
        match event.get("ph").and_then(json::Json::as_str) {
            Some("X") => {
                spans += 1;
                assert!(event.get("ts").and_then(json::Json::as_f64).is_some());
                assert!(event.get("dur").and_then(json::Json::as_f64).is_some());
            }
            Some("C") => {
                counters += 1;
                assert!(event.get("args").and_then(|a| a.get("value")).is_some());
            }
            _ => {}
        }
    }
    assert!(spans > 0, "no span events exported");
    assert!(counters > 0, "no counter events exported");

    // The recorder saw every delivered signal and executed step.
    let signals = report
        .log
        .iter()
        .filter(|r| matches!(r, tut_profile_suite::sim::RecordRef::Sig { .. }))
        .count() as u64;
    assert_eq!(
        recorder.metrics.counter("sim.signals_delivered"),
        Some(signals)
    );
    assert_eq!(
        recorder
            .metrics
            .histogram("sim.signal_latency_ns")
            .map(|h| h.count()),
        Some(signals)
    );
    let pe_spans = recorder
        .events()
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::Span { .. })
                && recorder.tracks()[e.track.index()].name.starts_with("pe/")
        })
        .count();
    assert!(pe_spans > 0, "processing-element spans missing");
}

/// The VCD exporter produces a waveform the in-tree validator accepts,
/// with one busy wire for the HIBI segment.
#[test]
fn vcd_export_validates_and_covers_the_bus() {
    let (_, recorder) = traced_run(5);
    let text = vcd::to_vcd(&recorder, "hibi/");
    vcd::validate_vcd(&text).expect("VCD validates");
    assert!(text.contains("$var"), "wire declarations missing");
    assert!(text.contains("hibi_seg"), "segment wire missing:\n{text}");
}

/// The Prometheus exposition lists the core engine and bus metrics.
#[test]
fn prometheus_export_lists_the_core_metrics() {
    let (_, recorder) = traced_run(5);
    let text = prom::to_prometheus(&recorder.metrics);
    for metric in [
        "sim_steps",
        "sim_signals_delivered",
        "sim_step_duration_ns",
        "sim_signal_latency_ns",
        "pe_cpu1_busy_ns",
        "hibi_seg_busy_ns",
    ] {
        assert!(text.contains(metric), "`{metric}` missing from:\n{text}");
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The `repro --trace --vcd --prom` run (the paper system under the
/// Table 4 configuration) writes byte-identical Chrome, VCD and
/// Prometheus exports on every run, pinned by FNV-1a hash. A host-time
/// value in any export would break both assertions.
#[test]
fn traced_paper_system_exports_are_pinned() {
    let exports = || {
        let mut recorder = Recorder::new();
        profile_system_prof(
            &tut_bench::paper_system(),
            tut_bench::table4_config(),
            &mut NoFaults,
            &mut recorder,
            NoProf,
        )
        .expect("traced profiling run");
        [
            chrome::to_chrome_json(&recorder),
            vcd::to_vcd(&recorder, "hibi/"),
            prom::to_prometheus(&recorder.metrics),
        ]
    };
    let first = exports();
    assert!(first == exports(), "a traced re-run exported other bytes");
    let hashes = first.map(|text| (text.len(), fnv1a(text.as_bytes())));
    assert_eq!(
        hashes,
        [
            (232_932, 0xD148_E02B_DD36_1024),
            (23_958, 0x52F6_2544_F8A7_FBBF),
            (3_166, 0xF968_CA5F_E573_52C7),
        ],
        "export bytes changed: (length, fnv1a) of Chrome, VCD, Prometheus"
    );
}
