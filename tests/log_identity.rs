//! Log-identity pins for the paper's default load and a faulted light
//! load.
//!
//! The simulated cost of an action comes from the static
//! `Expr::weight()` and `Compute` statements, never from how fast the
//! interpreter runs. A change that only speeds the interpreter up must
//! therefore leave the simulation log byte-identical. 200 ms of
//! `TutmacConfig::default()` is long enough for `frag`'s backlog to build,
//! so buffer append, pop and CRC all run on large values. One second of
//! `TutmacConfig::light_load()` at a bit-error rate of 1e-4 corrupts a
//! few hundred payloads in flight, so the corrupted bytes, the CRC
//! checks that catch them and the ARQ retries are pinned too. A third,
//! hand-built system pins the step paths TUTMAC never takes (see
//! `edge`).

use tut_profile_suite::faults::{FaultConfig, FaultPlan};
use tut_profile_suite::sim::{SimConfig, Simulation};
use tut_profile_suite::trace::NoopSink;
use tut_profile_suite::tutmac::{build_tutmac_system, TutmacConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[test]
fn default_load_log_is_pinned() {
    let system = build_tutmac_system(&TutmacConfig::default()).expect("build");
    let report = Simulation::from_system(&system, SimConfig::with_horizon_ns(200_000_000))
        .expect("sim builds")
        .run()
        .expect("sim runs");
    let text = report.log.to_text();
    let got = (report.log.len(), report.total_steps, fnv1a(text.as_bytes()));
    assert_eq!(
        got,
        (13_546, 6_141, 0x6C82_B030_746D_62B4),
        "default-load log changed: (records, steps, fnv1a)"
    );
}

#[test]
fn faulted_light_load_log_is_pinned() {
    let system = build_tutmac_system(&TutmacConfig::light_load()).expect("build");
    let mut plan = FaultPlan::new(FaultConfig::with_ber(0x7071, 1e-4));
    let report = Simulation::from_system(&system, SimConfig::with_horizon_ns(1_000_000_000))
        .expect("sim builds")
        .run_with_faults(&mut plan, &mut NoopSink)
        .expect("sim runs");
    assert_eq!(report.faults.corrupted, 329, "payloads corrupted in flight");
    let text = report.log.to_text();
    let got = (report.log.len(), report.total_steps, fnv1a(text.as_bytes()));
    assert_eq!(
        got,
        (15_482, 7_227, 0xADBE_B96B_FB6A_D1C2),
        "faulted light-load log changed: (records, steps, fnv1a)"
    );
}

mod edge {
    //! A hand-built system whose run reaches the step paths the TUTMAC
    //! pins miss: discarded inputs, sends through unconnected or unknown
    //! ports, completion transitions, entry actions reading the
    //! trigger's parameters, cancelled and re-armed timers, guards that
    //! fail to evaluate, multicast, and `log`/`count` records.

    use tut_profile_suite::profile::application::ProcessType;
    use tut_profile_suite::profile::platform::ComponentKind;
    use tut_profile_suite::profile::SystemModel;
    use tut_profile_suite::profile_core::TagValue;
    use tut_profile_suite::uml::ids::{ClassId, PortId, PropertyId};
    use tut_profile_suite::uml::model::ConnectorEnd;
    use tut_profile_suite::uml::statemachine::{StateMachine, Trigger};
    use tut_profile_suite::uml::textual::{parse_expr, parse_statements};
    use tut_profile_suite::uml::value::DataType;
    use tut_profile_suite::uml::{Model, Value};

    fn code(model: &Model, text: &str) -> Vec<tut_profile_suite::uml::action::Statement> {
        parse_statements(text, model).unwrap_or_else(|e| panic!("`{text}`: {e}"))
    }

    fn wire(
        s: &mut SystemModel,
        top: ClassId,
        name: &str,
        from: (PropertyId, PortId),
        to: (PropertyId, PortId),
    ) {
        s.model.add_connector(
            top,
            name,
            ConnectorEnd {
                part: Some(from.0),
                port: from.1,
            },
            ConnectorEnd {
                part: Some(to.0),
                port: to.1,
            },
        );
    }

    /// `src` (on `cpu1`) multicasts `Data` and `Pair` to `near` (also on
    /// `cpu1`) and `far` (on `cpu2`, across the HIBI segment); both
    /// sinks report to `monitor`, which runs on the environment element.
    pub fn system() -> SystemModel {
        let mut s = SystemModel::new("Edges");
        let top = s.model.add_class("Top");
        s.apply(top, |t| t.application).unwrap();
        let data = s.model.add_signal("Data");
        s.model.signal_mut(data).add_param("n", DataType::Int);
        s.model
            .signal_mut(data)
            .add_param("payload", DataType::Bytes);
        // `n` sits at position 1 here but at position 0 in `Data`.
        let pair = s.model.add_signal("Pair");
        s.model.signal_mut(pair).add_param("m", DataType::Int);
        s.model.signal_mut(pair).add_param("n", DataType::Int);
        let ack = s.model.add_signal("Ack");
        s.model.signal_mut(ack).add_param("n", DataType::Int);
        let stat = s.model.add_signal("Stat");
        s.model.signal_mut(stat).add_param("total", DataType::Int);

        // ---- Source ----------------------------------------------------
        let source = s.model.add_class("Source");
        s.apply(source, |t| t.application_component).unwrap();
        let out = s.model.add_port(source, "out");
        s.model.port_mut(out).add_required(data);
        s.model.port_mut(out).add_required(pair);
        let back = s.model.add_port(source, "back");
        s.model.port_mut(back).add_provided(ack);
        let dead = s.model.add_port(source, "dead");
        s.model.port_mut(dead).add_required(data);
        let mut sm = StateMachine::new("SourceB");
        sm.add_variable("seq", DataType::Int, Value::Int(0));
        sm.add_variable("buf", DataType::Bytes, Value::from(vec![0x5A; 4]));
        let m = &s.model;
        let boot = sm.add_state_with_entry(
            "Boot",
            code(
                m,
                "set_timer tick, 1000; set_timer retry, 5000; cancel_timer retry; \
                 set_timer retry, 3000;",
            ),
        );
        let run = sm.add_state("Run");
        sm.set_initial(boot);
        sm.add_transition(
            boot,
            run,
            Trigger::Completion,
            None,
            code(m, "log \"booted {} {}\", seq, len(buf);"),
        );
        sm.add_transition(
            run,
            run,
            Trigger::Timer("tick".into()),
            Some(parse_expr("seq < 24").unwrap()),
            code(
                m,
                "seq := seq + 1; buf := buf + pack_int(seq, 2); \
                 send out.Data(seq, buf); send out.Pair(seq * 3, seq); \
                 if seq % 5 == 0 { send dead.Data(seq, buf); send nowhere.Data(seq, buf); } \
                 count src.sent, 2; set_timer tick, 1000 + (seq % 3) * 250;",
            ),
        );
        sm.add_transition(
            run,
            run,
            Trigger::Timer("retry".into()),
            None,
            code(
                m,
                "log \"retry at {}\", seq; cancel_timer retry; \
                 if seq < 20 { set_timer retry, 4000; }",
            ),
        );
        s.model.add_state_machine(source, sm);

        // ---- Sink ------------------------------------------------------
        let sink = s.model.add_class("Sink");
        s.apply(sink, |t| t.application_component).unwrap();
        let inp = s.model.add_port(sink, "in");
        s.model.port_mut(inp).add_provided(data);
        s.model.port_mut(inp).add_provided(pair);
        let reply = s.model.add_port(sink, "reply");
        s.model.port_mut(reply).add_required(ack);
        let report = s.model.add_port(sink, "report");
        s.model.port_mut(report).add_required(stat);
        let mut sm = StateMachine::new("SinkB");
        sm.add_variable("hist", DataType::Bytes, Value::from(Vec::<u8>::new()));
        let m = &s.model;
        let idle = sm.add_state("Idle");
        // Shared by both incoming signals: reads `$n`, which sits at a
        // different position in each; `last` is assigned only.
        let got = sm.add_state_with_entry(
            "Got",
            code(
                m,
                "last := $n * 10; if $n % 4 == 0 { log \"got {} hist {}\", $n, len(hist); }",
            ),
        );
        sm.set_initial(idle);
        // The guard reads a parameter `Data` does not carry: it fails to
        // evaluate, so the transition is not enabled and the next one in
        // declaration order fires.
        sm.add_transition(
            idle,
            got,
            Trigger::Signal(data),
            Some(parse_expr("$m > 0").unwrap()),
            code(m, "log \"unreachable\";"),
        );
        sm.add_transition(
            idle,
            got,
            Trigger::Signal(data),
            None,
            code(
                m,
                "hist := hist + slice($payload, len($payload) - 1, len($payload)); \
                 compute bit len($payload); send reply.Ack($n);",
            ),
        );
        // Only every other `Pair` is enabled; the rest are discarded.
        sm.add_transition(
            idle,
            got,
            Trigger::Signal(pair),
            Some(parse_expr("$m % 2 == 0").unwrap()),
            vec![],
        );
        sm.add_transition(
            got,
            idle,
            Trigger::Completion,
            Some(parse_expr("last % 30 == 0").unwrap()),
            code(m, "count sink.thirds, 1; send report.Stat(last);"),
        );
        sm.add_transition(got, idle, Trigger::Completion, None, vec![]);
        s.model.add_state_machine(sink, sm);

        // ---- Monitor (environment) ---------------------------------------
        let monitor = s.model.add_class("Monitor");
        s.apply(monitor, |t| t.application_component).unwrap();
        let watch = s.model.add_port(monitor, "watch");
        s.model.port_mut(watch).add_provided(stat);
        let mut sm = StateMachine::new("MonitorB");
        sm.add_variable("sum", DataType::Int, Value::Int(0));
        let m = &s.model;
        let st = sm.add_state("Watch");
        sm.set_initial(st);
        sm.add_transition(
            st,
            st,
            Trigger::Signal(stat),
            None,
            code(m, "sum := sum + $total; log \"sum {}\", sum;"),
        );
        s.model.add_state_machine(monitor, sm);

        // ---- Structure -------------------------------------------------
        let src = s.model.add_part(top, "src", source);
        let near = s.model.add_part(top, "near", sink);
        let far = s.model.add_part(top, "far", sink);
        let mon = s.model.add_part(top, "monitor", monitor);
        for part in [src, near, far, mon] {
            s.apply(part, |t| t.application_process).unwrap();
        }
        wire(&mut s, top, "to_near", (src, out), (near, inp));
        wire(&mut s, top, "to_far", (src, out), (far, inp));
        wire(&mut s, top, "near_ack", (near, reply), (src, back));
        wire(&mut s, top, "far_ack", (far, reply), (src, back));
        wire(&mut s, top, "near_stat", (near, report), (mon, watch));
        wire(&mut s, top, "far_stat", (far, report), (mon, watch));

        // ---- Platform: two CPUs behind wrappers on one segment ---------
        let g1 = s.add_process_group("group1", false, ProcessType::General);
        let g2 = s.add_process_group("group2", false, ProcessType::General);
        s.assign_to_group(src, g1);
        s.assign_to_group(near, g1);
        s.assign_to_group(far, g2);
        let platform = s.model.add_class("Platform");
        s.apply(platform, |t| t.platform).unwrap();
        let nios = s.add_platform_component("Nios", ComponentKind::General, 50, 2.0, 0.5);
        let cpu1 = s.add_platform_instance(platform, "cpu1", nios, 1, 0);
        let cpu2 = s.add_platform_instance(platform, "cpu2", nios, 2, 0);
        let seg_class = s.model.add_class("Seg");
        s.apply(seg_class, |t| t.hibi_segment).unwrap();
        let seg = s.model.add_part(platform, "seg", seg_class);
        let seg_port = s.model.add_port(seg_class, "agents");
        let nios_port = s.model.add_port(nios, "hibi");
        for (cpu, name, address) in [(cpu1, "w1", 16), (cpu2, "w2", 32)] {
            let wc = s.model.add_class(format!("Wrap{name}"));
            s.apply_with(
                wc,
                |t| t.hibi_wrapper,
                [("Address", TagValue::Int(address))],
            )
            .unwrap();
            let wp = s.model.add_port(wc, "pe");
            let wb = s.model.add_port(wc, "bus");
            let w = s.model.add_part(platform, name, wc);
            wire(
                &mut s,
                platform,
                &format!("{name}_pe"),
                (w, wp),
                (cpu, nios_port),
            );
            wire(
                &mut s,
                platform,
                &format!("{name}_bus"),
                (w, wb),
                (seg, seg_port),
            );
        }
        s.map_group(g1, cpu1, false);
        s.map_group(g2, cpu2, false);
        s
    }
}

#[test]
fn edge_paths_log_is_pinned() {
    use tut_profile_suite::sim::RecordRef;
    let report = Simulation::from_system(&edge::system(), SimConfig::with_horizon_ns(60_000_000))
        .expect("sim builds")
        .run()
        .expect("sim runs");
    let text = report.log.to_text();
    let kinds =
        |pred: &dyn Fn(&RecordRef<'_>) -> bool| report.log.iter().filter(|r| pred(r)).count();
    let drops = kinds(&|r| matches!(r, RecordRef::Drop { .. }));
    let lost = kinds(&|r| matches!(r, RecordRef::Lost { .. }));
    let users = kinds(&|r| matches!(r, RecordRef::User { .. }));
    let counts = kinds(&|r| matches!(r, RecordRef::Count { .. }));
    let sigs = kinds(&|r| matches!(r, RecordRef::Sig { .. }));
    // The start step runs `Boot`'s entry, then the completion into `Run`.
    let boot = kinds(&|r| {
        matches!(
            r,
            RecordRef::Exec {
                from_state: "Boot",
                to_state: "Run",
                trigger: "start",
                ..
            }
        )
    });
    assert_eq!(
        (drops, lost, users, counts, sigs, boot),
        (73, 8, 67, 48, 168, 1),
        "record kinds: (DROP, LOST, USER, CNT, SIG, Boot->Run start steps)"
    );
    let got = (report.log.len(), report.total_steps, fnv1a(text.as_bytes()));
    assert_eq!(
        got,
        (579, 215, 0x0281_B861_4625_CD90),
        "edge-path log changed: (records, steps, fnv1a)"
    );
}
