//! The EFSM behaviours of every TUTMAC functional component (§4.1: the
//! behaviour "is described using statechart diagrams combined with the
//! UML 2.0 textual notation", modelled "as asynchronous communicating
//! Extended Finite State Machines").

use tut_uml::action::{BinOp, Builtin, CostClass, Expr, Statement, UnaryOp};
use tut_uml::statemachine::{StateMachine, Trigger};
use tut_uml::value::{Bytes, DataType, Value};

use crate::config::TutmacConfig;
use crate::signals::Signals;

fn not(e: Expr) -> Expr {
    Expr::Unary(UnaryOp::Not, Box::new(e))
}

fn len(e: Expr) -> Expr {
    Expr::call(Builtin::Len, vec![e])
}

fn slice(buf: Expr, from: Expr, to: Expr) -> Expr {
    Expr::call(Builtin::Slice, vec![buf, from, to])
}

fn fill(byte: i64, count: Expr) -> Expr {
    Expr::call(Builtin::Fill, vec![Expr::int(byte), count])
}

fn crc32(e: Expr) -> Expr {
    Expr::call(Builtin::Crc32, vec![e])
}

fn pack(value: Expr, width: i64) -> Expr {
    Expr::call(Builtin::PackInt, vec![value, Expr::int(width)])
}

fn unpack(e: Expr) -> Expr {
    Expr::call(Builtin::UnpackInt, vec![e])
}

fn assign(var: &str, expr: Expr) -> Statement {
    Statement::Assign {
        var: var.into(),
        expr,
    }
}

fn compute(class: CostClass, amount: Expr) -> Statement {
    Statement::Compute { class, amount }
}

fn send(port: &str, signal: tut_uml::SignalId, args: Vec<Expr>) -> Statement {
    Statement::Send {
        port: port.into(),
        signal,
        args,
    }
}

fn set_timer(name: &str, duration: i64) -> Statement {
    Statement::SetTimer {
        name: name.into(),
        duration: Expr::int(duration),
    }
}

fn set_timer_expr(name: &str, duration: Expr) -> Statement {
    Statement::SetTimer {
        name: name.into(),
        duration,
    }
}

fn count(counter: &str, amount: i64) -> Statement {
    Statement::Count {
        counter: counter.into(),
        amount: Expr::int(amount),
    }
}

/// `msduRec` (UserInterface): accepts user MSDUs and hands them to
/// fragmentation.
pub(crate) fn msdu_rec(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let mut sm = StateMachine::new("MsduRecBehavior");
    sm.add_variable("accepted", DataType::Int, Value::Int(0));
    let run = sm.add_state("Run");
    sm.set_initial(run);
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.msdu_req),
        None,
        vec![
            compute(CostClass::Control, Expr::int(config.ui_control)),
            compute(
                CostClass::Mem,
                len(Expr::param("payload")).bin(BinOp::Div, Expr::int(16)),
            ),
            assign(
                "accepted",
                Expr::var("accepted").bin(BinOp::Add, Expr::int(1)),
            ),
            send("pDp", signals.msdu, vec![Expr::param("payload")]),
        ],
    );
    sm
}

/// `msduDel` (UserInterface): delivers reassembled MSDUs to the user.
pub(crate) fn msdu_del(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let mut sm = StateMachine::new("MsduDelBehavior");
    sm.add_variable("delivered", DataType::Int, Value::Int(0));
    let run = sm.add_state("Run");
    sm.set_initial(run);
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.msdu_out),
        None,
        vec![
            compute(CostClass::Control, Expr::int(config.ui_control)),
            assign(
                "delivered",
                Expr::var("delivered").bin(BinOp::Add, Expr::int(1)),
            ),
            send("pUser", signals.msdu_ind, vec![Expr::param("payload")]),
        ],
    );
    sm
}

/// The statement list that slices the next fragment off `current` and
/// sends it to the CRC engine.
fn emit_fragment(config: &TutmacConfig, signals: &Signals) -> Vec<Statement> {
    vec![
        assign(
            "piece",
            slice(
                Expr::var("current"),
                Expr::int(0),
                Expr::call(
                    Builtin::Min,
                    vec![Expr::int(config.fragment_bytes), len(Expr::var("current"))],
                ),
            ),
        ),
        assign(
            "current",
            slice(
                Expr::var("current"),
                Expr::int(config.fragment_bytes),
                len(Expr::var("current")),
            ),
        ),
        compute(CostClass::Mem, Expr::int(config.dp_mem)),
        send(
            "pCrc",
            signals.tx_pdu,
            vec![Expr::var("piece"), Expr::var("seq")],
        ),
        assign("seq", Expr::var("seq").bin(BinOp::Add, Expr::int(1))),
    ]
}

/// `frag` (DataProcessing): splits MSDUs into fragments with a
/// stop-and-wait handshake towards the channel access (one fragment in
/// flight; further MSDUs queue in a length-prefixed byte backlog).
pub fn frag(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let mut sm = StateMachine::new("FragBehavior");
    sm.add_variable("backlog", DataType::Bytes, Value::Bytes(Bytes::new()));
    sm.add_variable("current", DataType::Bytes, Value::Bytes(Bytes::new()));
    sm.add_variable("piece", DataType::Bytes, Value::Bytes(Bytes::new()));
    sm.add_variable("seq", DataType::Int, Value::Int(0));
    sm.add_variable("busy", DataType::Bool, Value::Bool(false));
    let run = sm.add_state("Run");
    sm.set_initial(run);

    // New MSDU while idle: start fragmenting immediately.
    let mut actions = vec![
        assign("busy", Expr::bool(true)),
        assign("current", Expr::param("payload")),
    ];
    actions.extend(emit_fragment(config, signals));
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.msdu),
        Some(not(Expr::var("busy"))),
        actions,
    );

    // New MSDU while busy: append to the backlog (2-byte length prefix).
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.msdu),
        Some(Expr::var("busy")),
        vec![
            compute(CostClass::Mem, Expr::int(config.dp_mem)),
            assign(
                "backlog",
                Expr::var("backlog")
                    .bin(BinOp::Add, pack(len(Expr::param("payload")), 2))
                    .bin(BinOp::Add, Expr::param("payload")),
            ),
        ],
    );

    // Fragment completed: continue the current MSDU, pop the backlog, or
    // go idle.
    let continue_current = emit_fragment(config, signals);
    let mut pop_backlog = vec![
        assign(
            "current",
            slice(
                Expr::var("backlog"),
                Expr::int(2),
                Expr::int(2).bin(
                    BinOp::Add,
                    unpack(slice(Expr::var("backlog"), Expr::int(0), Expr::int(2))),
                ),
            ),
        ),
        assign(
            "backlog",
            slice(
                Expr::var("backlog"),
                Expr::int(2).bin(
                    BinOp::Add,
                    unpack(slice(Expr::var("backlog"), Expr::int(0), Expr::int(2))),
                ),
                len(Expr::var("backlog")),
            ),
        ),
    ];
    // `current` was just set from the backlog; emit_fragment slices it.
    pop_backlog.extend(emit_fragment(config, signals));
    let done_actions = vec![Statement::If {
        cond: len(Expr::var("current")).bin(BinOp::Gt, Expr::int(0)),
        then_branch: continue_current,
        else_branch: vec![Statement::If {
            cond: len(Expr::var("backlog")).bin(BinOp::Gt, Expr::int(0)),
            then_branch: pop_backlog,
            else_branch: vec![assign("busy", Expr::bool(false))],
        }],
    }];
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.pdu_done),
        None,
        done_actions,
    );
    sm
}

/// `defrag` (DataProcessing): reassembles received payloads (remote
/// frames arrive unfragmented, so this is a verify-and-forward stage with
/// memory work).
pub fn defrag(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let mut sm = StateMachine::new("DefragBehavior");
    sm.add_variable("received", DataType::Int, Value::Int(0));
    let run = sm.add_state("Run");
    sm.set_initial(run);
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.rx_pdu),
        None,
        vec![
            compute(CostClass::Mem, Expr::int(config.dp_mem)),
            assign(
                "received",
                Expr::var("received").bin(BinOp::Add, Expr::int(1)),
            ),
            send("pOut", signals.msdu_out, vec![Expr::param("payload")]),
        ],
    );
    sm
}

/// `crc` (DataProcessing): generates CRC-32 on the transmit path and
/// checks it on the receive path — the process the paper maps to the
/// hardware accelerator (`group4` → `accelerator1`).
pub fn crc(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let per_unit = config.crc_bytes_per_unit.max(1);
    let mut sm = StateMachine::new("CrcBehavior");
    sm.add_variable("data", DataType::Bytes, Value::Bytes(Bytes::new()));
    sm.add_variable("errors", DataType::Int, Value::Int(0));
    let run = sm.add_state("Run");
    sm.set_initial(run);

    // Transmit: append the CRC.
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.tx_pdu),
        None,
        vec![
            compute(
                CostClass::Bit,
                len(Expr::param("payload"))
                    .bin(BinOp::Div, Expr::int(per_unit))
                    .bin(BinOp::Add, Expr::int(1)),
            ),
            send(
                "pOut",
                signals.tx_frame,
                vec![
                    Expr::param("payload").bin(BinOp::Add, pack(crc32(Expr::param("payload")), 4)),
                    Expr::param("seq"),
                ],
            ),
        ],
    );

    // Receive: strip and verify.
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.rx_frame),
        None,
        vec![
            assign(
                "data",
                slice(
                    Expr::param("frame"),
                    Expr::int(0),
                    len(Expr::param("frame")).bin(BinOp::Sub, Expr::int(4)),
                ),
            ),
            compute(
                CostClass::Bit,
                len(Expr::param("frame"))
                    .bin(BinOp::Div, Expr::int(per_unit))
                    .bin(BinOp::Add, Expr::int(1)),
            ),
            Statement::If {
                cond: crc32(Expr::var("data")).bin(
                    BinOp::Eq,
                    unpack(slice(
                        Expr::param("frame"),
                        len(Expr::param("frame")).bin(BinOp::Sub, Expr::int(4)),
                        len(Expr::param("frame")),
                    )),
                ),
                then_branch: vec![send("pOut", signals.rx_pdu, vec![Expr::var("data")])],
                else_branch: vec![
                    assign("errors", Expr::var("errors").bin(BinOp::Add, Expr::int(1))),
                    Statement::Log {
                        message: "crc error, frame discarded ({} total)".into(),
                        args: vec![Expr::var("errors")],
                    },
                ],
            },
        ],
    );
    sm
}

/// `rca` (RadioChannelAccess): channel access with stop-and-wait ARQ and
/// exponential backoff — the dominant workload of Table 4(a).
///
/// Every frame attempt is tallied through `count` statements
/// (`arq.tx`/`arq.acked`/`arq.retries`/`arq.gave_up`), so the profiling
/// report's per-group counters expose the protocol's reliability figures.
pub fn rca(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let mut sm = StateMachine::new("RcaBehavior");
    sm.add_variable("buf", DataType::Bytes, Value::Bytes(Bytes::new()));
    sm.add_variable("cur_seq", DataType::Int, Value::Int(-1));
    sm.add_variable("retries", DataType::Int, Value::Int(0));
    sm.add_variable(
        "backoff",
        DataType::Int,
        Value::Int(config.ack_timeout_ns.max(1)),
    );
    let idle = sm.add_state("Idle");
    let wait_ack = sm.add_state("WaitAck");
    sm.set_initial(idle);

    let tx_work = |config: &TutmacConfig| {
        vec![
            compute(CostClass::Control, Expr::int(config.rca_tx_control)),
            compute(CostClass::Bit, Expr::int(config.rca_tx_bit)),
        ]
    };

    // Idle + TxFrame: transmit and wait for the ack.
    let mut actions = vec![
        assign("buf", Expr::param("frame")),
        assign("cur_seq", Expr::param("seq")),
        assign("retries", Expr::int(0)),
        assign("backoff", Expr::int(config.ack_timeout_ns.max(1))),
        count("arq.tx", 1),
    ];
    actions.extend(tx_work(config));
    actions.push(send(
        "pPhy",
        signals.air_frame,
        vec![Expr::var("buf"), Expr::var("cur_seq")],
    ));
    actions.push(set_timer_expr("ackT", Expr::var("backoff")));
    sm.add_transition(
        idle,
        wait_ack,
        Trigger::Signal(signals.tx_frame),
        None,
        actions,
    );

    // WaitAck + matching Ack: done, request the next fragment.
    sm.add_transition(
        wait_ack,
        idle,
        Trigger::Signal(signals.ack),
        Some(Expr::param("seq").bin(BinOp::Eq, Expr::var("cur_seq"))),
        vec![
            Statement::CancelTimer {
                name: "ackT".into(),
            },
            count("arq.acked", 1),
            compute(CostClass::Control, Expr::int(config.rca_ack_control)),
            send("pDp", signals.pdu_done, vec![Expr::var("cur_seq")]),
        ],
    );

    // WaitAck + timeout, retries left: retransmit with doubled backoff
    // (capped at max_backoff_ns).
    let mut retry = vec![
        assign(
            "retries",
            Expr::var("retries").bin(BinOp::Add, Expr::int(1)),
        ),
        assign(
            "backoff",
            Expr::call(
                Builtin::Min,
                vec![
                    Expr::var("backoff").bin(BinOp::Mul, Expr::int(2)),
                    Expr::int(config.max_backoff_ns.max(1)),
                ],
            ),
        ),
        count("arq.retries", 1),
    ];
    retry.extend(tx_work(config));
    retry.push(send(
        "pPhy",
        signals.air_frame,
        vec![Expr::var("buf"), Expr::var("cur_seq")],
    ));
    retry.push(set_timer_expr("ackT", Expr::var("backoff")));
    sm.add_transition(
        wait_ack,
        wait_ack,
        Trigger::Timer("ackT".into()),
        Some(Expr::var("retries").bin(BinOp::Lt, Expr::int(config.max_retries))),
        retry,
    );

    // WaitAck + timeout, out of retries: give up.
    sm.add_transition(
        wait_ack,
        idle,
        Trigger::Timer("ackT".into()),
        Some(Expr::var("retries").bin(BinOp::Ge, Expr::int(config.max_retries))),
        vec![
            count("arq.gave_up", 1),
            Statement::Log {
                message: "fragment {} dropped after retries".into(),
                args: vec![Expr::var("cur_seq")],
            },
            send("pDp", signals.pdu_done, vec![Expr::var("cur_seq")]),
        ],
    );

    // Beacons are broadcast without acknowledgement, in either state.
    for state in [idle, wait_ack] {
        sm.add_transition(
            state,
            state,
            Trigger::Signal(signals.beacon_req),
            None,
            vec![
                compute(CostClass::Control, Expr::int(config.rca_beacon_control)),
                send(
                    "pPhy",
                    signals.air_frame,
                    vec![Expr::param("frame"), Expr::int(-1)],
                ),
            ],
        );
        // Received frames are processed in either state.
        sm.add_transition(
            state,
            state,
            Trigger::Signal(signals.air_rx),
            None,
            vec![
                compute(CostClass::Control, Expr::int(config.rca_rx_control)),
                send("pDp", signals.rx_frame, vec![Expr::param("frame")]),
            ],
        );
    }
    sm
}

/// `mng` (Management): periodic beacon generation.
pub fn mng(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let mut sm = StateMachine::new("MngBehavior");
    sm.add_variable("beacons", DataType::Int, Value::Int(0));
    let run = sm.add_state_with_entry("Run", vec![set_timer("beaconT", config.beacon_period_ns)]);
    sm.set_initial(run);
    sm.add_transition(
        run,
        run,
        Trigger::Timer("beaconT".into()),
        None,
        vec![
            compute(CostClass::Control, Expr::int(config.mng_beacon_control)),
            assign(
                "beacons",
                Expr::var("beacons").bin(BinOp::Add, Expr::int(1)),
            ),
            send(
                "pRca",
                signals.beacon_req,
                vec![fill(0x10, Expr::int(config.beacon_bytes))],
            ),
            set_timer("beaconT", config.beacon_period_ns),
        ],
    );
    sm
}

/// `rmng` (RadioManagement): periodic link-quality estimation plus
/// processing of channel-quality indications.
pub fn rmng(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let mut sm = StateMachine::new("RmngBehavior");
    sm.add_variable("rssi", DataType::Int, Value::Int(0));
    let run = sm.add_state_with_entry("Run", vec![set_timer("measT", config.rmng_period_ns)]);
    sm.set_initial(run);
    sm.add_transition(
        run,
        run,
        Trigger::Timer("measT".into()),
        None,
        vec![
            compute(CostClass::Dsp, Expr::int(config.rmng_dsp)),
            set_timer("measT", config.rmng_period_ns),
        ],
    );
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.quality_ind),
        None,
        vec![
            assign("rssi", Expr::param("rssi")),
            compute(CostClass::Dsp, Expr::int(config.rmng_dsp / 2)),
        ],
    );
    sm
}

/// `user` (environment): the traffic source and sink.
pub fn user(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let mut sm = StateMachine::new("UserBehavior");
    sm.add_variable("sent", DataType::Int, Value::Int(0));
    sm.add_variable("delivered", DataType::Int, Value::Int(0));
    let run = sm.add_state_with_entry("Run", vec![set_timer("txT", config.msdu_period_ns)]);
    sm.set_initial(run);
    sm.add_transition(
        run,
        run,
        Trigger::Timer("txT".into()),
        None,
        vec![
            assign("sent", Expr::var("sent").bin(BinOp::Add, Expr::int(1))),
            send(
                "pUi",
                signals.msdu_req,
                vec![fill(0x42, Expr::int(config.msdu_bytes))],
            ),
            set_timer("txT", config.msdu_period_ns),
        ],
    );
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.msdu_ind),
        None,
        vec![assign(
            "delivered",
            Expr::var("delivered").bin(BinOp::Add, Expr::int(1)),
        )],
    );
    sm
}

/// `channel` (environment): the radio channel — acknowledges data frames
/// (deterministically losing every `loss_modulus`-th one), generates
/// remote-terminal traffic, corrupting every fifth frame's CRC, and emits
/// link-quality indications.
pub fn channel(config: &TutmacConfig, signals: &Signals) -> StateMachine {
    let mut sm = StateMachine::new("ChannelBehavior");
    sm.add_variable("count", DataType::Int, Value::Int(0));
    sm.add_variable("rxn", DataType::Int, Value::Int(0));
    sm.add_variable("data", DataType::Bytes, Value::Bytes(Bytes::new()));
    let run = sm.add_state_with_entry(
        "Run",
        vec![
            set_timer("rxT", config.rx_period_ns),
            set_timer("qualT", config.rmng_period_ns),
        ],
    );
    sm.set_initial(run);

    // Acknowledge data frames (seq >= 0); beacons pass unacked. The
    // receiving terminal verifies the frame check sequence first: a frame
    // corrupted in flight fails the FCS and its acknowledgement is
    // withheld, which is what drives the sender's ARQ retransmissions.
    let fcs_ok = crc32(slice(
        Expr::param("frame"),
        Expr::int(0),
        len(Expr::param("frame")).bin(BinOp::Sub, Expr::int(4)),
    ))
    .bin(
        BinOp::Eq,
        unpack(slice(
            Expr::param("frame"),
            len(Expr::param("frame")).bin(BinOp::Sub, Expr::int(4)),
            len(Expr::param("frame")),
        )),
    );
    let ack_logic = Statement::If {
        cond: Expr::param("seq").bin(BinOp::Ge, Expr::int(0)),
        then_branch: vec![Statement::If {
            cond: fcs_ok,
            then_branch: vec![
                assign("count", Expr::var("count").bin(BinOp::Add, Expr::int(1))),
                if config.loss_modulus > 0 {
                    Statement::If {
                        cond: Expr::var("count")
                            .bin(BinOp::Mod, Expr::int(config.loss_modulus))
                            .bin(BinOp::Ne, Expr::int(0)),
                        then_branch: vec![send("pRca", signals.ack, vec![Expr::param("seq")])],
                        else_branch: vec![Statement::Log {
                            message: "channel lost frame {}".into(),
                            args: vec![Expr::param("seq")],
                        }],
                    }
                } else {
                    send("pRca", signals.ack, vec![Expr::param("seq")])
                },
            ],
            else_branch: vec![
                count("chan.bad_fcs", 1),
                Statement::Log {
                    message: "channel: bad FCS, ack withheld for frame {}".into(),
                    args: vec![Expr::param("seq")],
                },
            ],
        }],
        else_branch: vec![],
    };
    sm.add_transition(
        run,
        run,
        Trigger::Signal(signals.air_frame),
        None,
        vec![ack_logic],
    );

    // Remote traffic: a CRC-protected frame every rx period; every fifth
    // frame arrives corrupted.
    sm.add_transition(
        run,
        run,
        Trigger::Timer("rxT".into()),
        None,
        vec![
            assign("rxn", Expr::var("rxn").bin(BinOp::Add, Expr::int(1))),
            assign("data", fill(0x55, Expr::int(config.rx_frame_bytes))),
            Statement::If {
                cond: Expr::var("rxn")
                    .bin(BinOp::Mod, Expr::int(5))
                    .bin(BinOp::Eq, Expr::int(0)),
                then_branch: vec![send(
                    "pRca",
                    signals.air_rx,
                    vec![Expr::var("data").bin(
                        BinOp::Add,
                        pack(crc32(Expr::var("data")).bin(BinOp::Add, Expr::int(1)), 4),
                    )],
                )],
                else_branch: vec![send(
                    "pRca",
                    signals.air_rx,
                    vec![Expr::var("data").bin(BinOp::Add, pack(crc32(Expr::var("data")), 4))],
                )],
            },
            set_timer("rxT", config.rx_period_ns),
        ],
    );

    // Link quality indications for RadioManagement.
    sm.add_transition(
        run,
        run,
        Trigger::Timer("qualT".into()),
        None,
        vec![
            send("pRmng", signals.quality_ind, vec![Expr::int(42)]),
            set_timer("qualT", config.rmng_period_ns),
        ],
    );
    sm
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_uml::Model;

    fn all_machines() -> Vec<StateMachine> {
        let mut m = Model::new("T");
        let signals = Signals::declare(&mut m);
        let config = TutmacConfig::default();
        vec![
            msdu_rec(&config, &signals),
            msdu_del(&config, &signals),
            frag(&config, &signals),
            defrag(&config, &signals),
            crc(&config, &signals),
            rca(&config, &signals),
            mng(&config, &signals),
            rmng(&config, &signals),
            user(&config, &signals),
            channel(&config, &signals),
        ]
    }

    #[test]
    fn every_machine_is_well_formed() {
        for sm in all_machines() {
            assert!(sm.check().is_ok(), "machine {} failed check", sm.name());
        }
    }

    #[test]
    fn rca_has_two_states_and_arq_transitions() {
        let mut m = Model::new("T");
        let signals = Signals::declare(&mut m);
        let sm = rca(&TutmacConfig::default(), &signals);
        assert_eq!(sm.state_count(), 2);
        // Two timer transitions (retry + give up).
        let timer_transitions = sm
            .transitions()
            .filter(|(_, t)| matches!(t.trigger(), Trigger::Timer(_)))
            .count();
        assert_eq!(timer_transitions, 2);
    }

    #[test]
    fn frag_handles_busy_and_idle_msdus() {
        let mut m = Model::new("T");
        let signals = Signals::declare(&mut m);
        let sm = frag(&TutmacConfig::default(), &signals);
        let msdu_transitions = sm
            .transitions()
            .filter(|(_, t)| t.trigger() == &Trigger::Signal(signals.msdu))
            .count();
        assert_eq!(msdu_transitions, 2, "idle and busy variants");
    }

    #[test]
    fn machines_use_expected_timers() {
        let mut m = Model::new("T");
        let signals = Signals::declare(&mut m);
        let config = TutmacConfig::default();
        let mng_machine = mng(&config, &signals);
        assert!(mng_machine
            .transitions()
            .any(|(_, t)| t.trigger() == &Trigger::Timer("beaconT".into())));
        let channel_machine = channel(&config, &signals);
        assert!(channel_machine
            .transitions()
            .any(|(_, t)| t.trigger() == &Trigger::Timer("rxT".into())));
    }
}
