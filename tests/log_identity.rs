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
//! `edge`), and a fourth pins the order of simultaneous events (see
//! `clustered`).

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

mod clustered {
    //! `clusters` ping-pong pairs, each on two CPUs behind a private HIBI
    //! segment, kicked by one ungrouped environment generator that sends
    //! every cluster its `Kick` at the same tick. Those kicks, and the
    //! steps they start, share timestamps, so the run exercises the event
    //! queue's `(time, seq)` tie-break.

    use tut_profile_suite::profile::application::ProcessType;
    use tut_profile_suite::profile::platform::ComponentKind;
    use tut_profile_suite::profile::SystemModel;
    use tut_profile_suite::profile_core::TagValue;
    use tut_profile_suite::uml::action::{CostClass, Expr, Statement};
    use tut_profile_suite::uml::ids::{ClassId, PortId, PropertyId};
    use tut_profile_suite::uml::model::ConnectorEnd;
    use tut_profile_suite::uml::statemachine::{StateMachine, Trigger};

    pub fn system(clusters: usize) -> SystemModel {
        let mut s = SystemModel::new("Clusters");
        let top = s.model.add_class("Top");
        s.apply(top, |t| t.application).unwrap();
        let ping = s.model.add_signal("Ping");
        let kick = s.model.add_signal("Kick");

        let platform = s.model.add_class("Plat");
        s.apply(platform, |t| t.platform).unwrap();
        let cpu_class = s.add_platform_component("Cpu", ComponentKind::General, 50, 1.0, 0.1);
        let cpu_port = s.model.add_port(cpu_class, "hibi");
        let seg_class = s.model.add_class("Seg");
        s.apply_with(
            seg_class,
            |t| t.hibi_segment,
            [
                ("DataWidth", TagValue::Int(32)),
                ("Frequency", TagValue::Int(100)),
                ("Arbitration", TagValue::Enum("priority".into())),
            ],
        )
        .unwrap();
        let seg_port = s.model.add_port(seg_class, "agents");

        // Environment generator: one output port per cluster, periodic kicks.
        let gen_class = s.model.add_class("Gen");
        s.apply(gen_class, |t| t.application_component).unwrap();
        let mut gen_ports = Vec::new();
        for c in 0..clusters {
            let port = s.model.add_port(gen_class, format!("out{c}"));
            s.model.port_mut(port).add_required(kick);
            gen_ports.push(port);
        }
        let mut gen_sm = StateMachine::new("GenB");
        let tick = |duration: i64| Statement::SetTimer {
            name: "tick".into(),
            duration: Expr::int(duration),
        };
        let run = gen_sm.add_state_with_entry("Run", vec![tick(50_000)]);
        gen_sm.set_initial(run);
        let mut on_tick: Vec<Statement> = (0..clusters)
            .map(|c| Statement::Send {
                port: format!("out{c}"),
                signal: kick,
                args: vec![Expr::int(c as i64)],
            })
            .collect();
        on_tick.push(tick(50_000));
        gen_sm.add_transition(run, run, Trigger::Timer("tick".into()), None, on_tick);
        s.model.add_state_machine(gen_class, gen_sm);
        let gen = s.model.add_part(top, "gen", gen_class);
        s.apply(gen, |t| t.application_process).unwrap();
        // `gen` stays ungrouped: it is the environment.

        // One HIBI wrapper per CPU attachment.
        let attach = |s: &mut SystemModel,
                      pe: PropertyId,
                      segment: PropertyId,
                      name: String,
                      address: i64| {
            let wrapper_class = s.model.add_class(format!("Wrap_{name}"));
            s.apply_with(
                wrapper_class,
                |t| t.hibi_wrapper,
                [
                    ("Address", TagValue::Int(address)),
                    ("BufferSize", TagValue::Int(16)),
                    ("MaxTime", TagValue::Int(16)),
                ],
            )
            .unwrap();
            let wrapper_pe = s.model.add_port(wrapper_class, "pe");
            let wrapper_bus = s.model.add_port(wrapper_class, "bus");
            let wrapper = s.model.add_part(platform, name.clone(), wrapper_class);
            s.model.add_connector(
                platform,
                format!("{name}_pe"),
                ConnectorEnd {
                    part: Some(wrapper),
                    port: wrapper_pe,
                },
                ConnectorEnd {
                    part: Some(pe),
                    port: cpu_port,
                },
            );
            s.model.add_connector(
                platform,
                format!("{name}_bus"),
                ConnectorEnd {
                    part: Some(wrapper),
                    port: wrapper_bus,
                },
                ConnectorEnd {
                    part: Some(segment),
                    port: seg_port,
                },
            );
        };

        // A ping-pong worker component; `opener` reacts to the environment
        // kick by starting a bout.
        type Worker = (ClassId, PortId, PortId, Option<PortId>);
        let worker = |s: &mut SystemModel, name: String, opener: bool| -> Worker {
            let class = s.model.add_class(name.clone());
            s.apply(class, |t| t.application_component).unwrap();
            let input = s.model.add_port(class, "in");
            s.model.port_mut(input).add_provided(ping);
            let output = s.model.add_port(class, "out");
            s.model.port_mut(output).add_required(ping);
            let mut sm = StateMachine::new(format!("{name}B"));
            let idle = sm.add_state("Idle");
            sm.set_initial(idle);
            let mut kick_port = None;
            if opener {
                let kick_in = s.model.add_port(class, "kick");
                s.model.port_mut(kick_in).add_provided(kick);
                kick_port = Some(kick_in);
                sm.add_transition(
                    idle,
                    idle,
                    Trigger::Signal(kick),
                    None,
                    vec![
                        Statement::Compute {
                            class: CostClass::Control,
                            amount: Expr::int(400),
                        },
                        Statement::Send {
                            port: "out".into(),
                            signal: ping,
                            args: vec![Expr::int(1)],
                        },
                    ],
                );
                sm.add_transition(
                    idle,
                    idle,
                    Trigger::Signal(ping),
                    None,
                    vec![Statement::Compute {
                        class: CostClass::Control,
                        amount: Expr::int(300),
                    }],
                );
            } else {
                sm.add_transition(
                    idle,
                    idle,
                    Trigger::Signal(ping),
                    None,
                    vec![
                        Statement::Compute {
                            class: CostClass::Control,
                            amount: Expr::int(500),
                        },
                        Statement::Send {
                            port: "out".into(),
                            signal: ping,
                            args: vec![Expr::int(2)],
                        },
                    ],
                );
            }
            s.model.add_state_machine(class, sm);
            (class, input, output, kick_port)
        };

        for (c, &gen_port) in gen_ports.iter().enumerate() {
            let (a_class, a_in, a_out, a_kick) = worker(&mut s, format!("A{c}"), true);
            let (b_class, b_in, b_out, _) = worker(&mut s, format!("B{c}"), false);
            let a = s.model.add_part(top, format!("a{c}"), a_class);
            let b = s.model.add_part(top, format!("b{c}"), b_class);
            s.apply(a, |t| t.application_process).unwrap();
            s.apply(b, |t| t.application_process).unwrap();
            let kick_port = a_kick.expect("opener has a kick port");
            s.model.add_connector(
                top,
                format!("kick{c}"),
                ConnectorEnd {
                    part: Some(gen),
                    port: gen_port,
                },
                ConnectorEnd {
                    part: Some(a),
                    port: kick_port,
                },
            );
            s.model.add_connector(
                top,
                format!("ab{c}"),
                ConnectorEnd {
                    part: Some(a),
                    port: a_out,
                },
                ConnectorEnd {
                    part: Some(b),
                    port: b_in,
                },
            );
            s.model.add_connector(
                top,
                format!("ba{c}"),
                ConnectorEnd {
                    part: Some(b),
                    port: b_out,
                },
                ConnectorEnd {
                    part: Some(a),
                    port: a_in,
                },
            );

            // Private segment, one CPU per worker.
            let seg = s.model.add_part(platform, format!("seg{c}"), seg_class);
            let cpu_a = s.add_platform_instance(
                platform,
                &format!("cpu{c}a"),
                cpu_class,
                (2 * c + 1) as i64,
                1,
            );
            let cpu_b = s.add_platform_instance(
                platform,
                &format!("cpu{c}b"),
                cpu_class,
                (2 * c + 2) as i64,
                2,
            );
            attach(&mut s, cpu_a, seg, format!("w{c}a"), (0x10 + 2 * c) as i64);
            attach(&mut s, cpu_b, seg, format!("w{c}b"), (0x11 + 2 * c) as i64);
            let ga = s.add_process_group(&format!("g{c}a"), false, ProcessType::General);
            let gb = s.add_process_group(&format!("g{c}b"), false, ProcessType::General);
            s.assign_to_group(a, ga);
            s.assign_to_group(b, gb);
            s.map_group(ga, cpu_a, false);
            s.map_group(gb, cpu_b, false);
        }
        s
    }
}

#[test]
fn simultaneous_events_log_is_pinned() {
    let report =
        Simulation::from_system(&clustered::system(2), SimConfig::with_horizon_ns(2_000_000))
            .expect("sim builds")
            .run()
            .expect("sim runs");
    let mut times: Vec<u64> = report.log.iter().map(|r| r.time_ns()).collect();
    times.sort_unstable();
    assert!(
        times.windows(2).any(|w| w[0] == w[1]),
        "no two records share a timestamp; the tie-break is untested"
    );
    let text = report.log.to_text();
    let got = (report.log.len(), report.total_steps, fnv1a(text.as_bytes()));
    assert_eq!(
        got,
        (513, 279, 0x8F1A_681F_A634_6775),
        "simultaneous-event log changed: (records, steps, fnv1a)"
    );
}
