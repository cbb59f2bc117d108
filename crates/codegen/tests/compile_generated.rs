//! End-to-end check of the generated C project: write it to a temp
//! directory, compile it with the host C compiler, run the binary, and
//! parse the log it prints. Skipped (with a note) when no compiler is
//! available.

use std::collections::BTreeMap;
use std::process::Command;

use tut_codegen::generate_project;
use tut_profile::SystemModel;
use tut_sim::{SimConfig, Simulation};
use tut_uml::action::{BinOp, CostClass, Expr, Statement};
use tut_uml::statemachine::{StateMachine, Trigger};
use tut_uml::value::{DataType, Value};

fn cc_available() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// A counting ping-pong that exercises sends, guards, computes, variables,
/// byte builtins, and timers.
fn sample_system() -> SystemModel {
    let mut s = SystemModel::new("CompileCheck");
    let top = s.model.add_class("Top");
    s.apply(top, |t| t.application).unwrap();

    let ping = s.model.add_signal("Ping");
    s.model.signal_mut(ping).add_param("n", DataType::Int);
    s.model
        .signal_mut(ping)
        .add_param("payload", DataType::Bytes);
    let pong = s.model.add_signal("Pong");
    s.model.signal_mut(pong).add_param("n", DataType::Int);

    // Driver: kicks off and counts down on Pong.
    let driver = s.model.add_class("Driver");
    s.apply(driver, |t| t.application_component).unwrap();
    let d_out = s.model.add_port(driver, "out");
    let d_in = s.model.add_port(driver, "in");
    s.model.port_mut(d_out).add_required(ping);
    s.model.port_mut(d_in).add_provided(pong);
    let mut sm = StateMachine::new("DriverB");
    sm.add_variable("n", DataType::Int, Value::Int(3));
    let start = sm.add_state_with_entry(
        "Start",
        vec![Statement::Send {
            port: "out".into(),
            signal: ping,
            args: vec![
                Expr::var("n"),
                Expr::call(
                    tut_uml::action::Builtin::Fill,
                    vec![Expr::int(0xAB), Expr::int(16)],
                ),
            ],
        }],
    );
    let wait = sm.add_state("Wait");
    sm.set_initial(start);
    sm.add_transition(start, wait, Trigger::Completion, None, vec![]);
    sm.add_transition(
        wait,
        wait,
        Trigger::Signal(pong),
        Some(Expr::param("n").bin(BinOp::Gt, Expr::int(0))),
        vec![
            Statement::Assign {
                var: "n".into(),
                expr: Expr::param("n"),
            },
            Statement::Send {
                port: "out".into(),
                signal: ping,
                args: vec![
                    Expr::var("n"),
                    Expr::call(
                        tut_uml::action::Builtin::Fill,
                        vec![Expr::int(0xCD), Expr::int(8)],
                    ),
                ],
            },
        ],
    );
    let done = sm.add_state_with_entry(
        "Done",
        vec![Statement::Log {
            message: "driver finished".into(),
            args: vec![Expr::var("n")],
        }],
    );
    sm.add_transition(
        wait,
        done,
        Trigger::Signal(pong),
        Some(Expr::param("n").bin(BinOp::Le, Expr::int(0))),
        vec![],
    );
    s.model.add_state_machine(driver, sm);

    // Responder: checks the CRC of the payload, replies with n-1.
    let responder = s.model.add_class("Responder");
    s.apply(responder, |t| t.application_component).unwrap();
    let r_in = s.model.add_port(responder, "in");
    let r_out = s.model.add_port(responder, "out");
    s.model.port_mut(r_in).add_provided(ping);
    s.model.port_mut(r_out).add_required(pong);
    let mut sm = StateMachine::new("ResponderB");
    sm.add_variable("crc", DataType::Int, Value::Int(0));
    let st = sm.add_state("S");
    sm.set_initial(st);
    sm.add_transition(
        st,
        st,
        Trigger::Signal(ping),
        None,
        vec![
            Statement::Assign {
                var: "crc".into(),
                expr: Expr::call(
                    tut_uml::action::Builtin::Crc32,
                    vec![Expr::param("payload")],
                ),
            },
            Statement::Compute {
                class: CostClass::Bit,
                amount: Expr::call(tut_uml::action::Builtin::Len, vec![Expr::param("payload")]),
            },
            Statement::Send {
                port: "out".into(),
                signal: pong,
                args: vec![Expr::param("n").bin(BinOp::Sub, Expr::int(1))],
            },
        ],
    );
    s.model.add_state_machine(responder, sm);

    let d_part = s.model.add_part(top, "driver", driver);
    let r_part = s.model.add_part(top, "responder", responder);
    for part in [d_part, r_part] {
        s.apply(part, |t| t.application_process).unwrap();
    }
    s.model.add_connector(
        top,
        "ping_wire",
        tut_uml::model::ConnectorEnd {
            part: Some(d_part),
            port: d_out,
        },
        tut_uml::model::ConnectorEnd {
            part: Some(r_part),
            port: r_in,
        },
    );
    s.model.add_connector(
        top,
        "pong_wire",
        tut_uml::model::ConnectorEnd {
            part: Some(r_part),
            port: r_out,
        },
        tut_uml::model::ConnectorEnd {
            part: Some(d_part),
            port: d_in,
        },
    );
    s
}

/// Writes the generated project for `system` to a temp directory,
/// compiles it under `-Werror`, runs the binary and returns its log.
/// `None` (with a note) when no C compiler is available.
fn compile_and_run(system: &SystemModel, tag: &str) -> Option<String> {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return None;
    }
    let files = generate_project(system).expect("generate");

    let dir = std::env::temp_dir().join(format!("tut_codegen_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let mut sources = Vec::new();
    for file in &files {
        let path = dir.join(&file.name);
        std::fs::write(&path, &file.contents).expect("write generated file");
        if file.name.ends_with(".c") {
            sources.push(path);
        }
    }

    let binary = dir.join("app");
    let output = Command::new("cc")
        .arg("-std=c99")
        .arg("-Wall")
        .arg("-Wextra")
        .arg("-Werror")
        // Generated code legitimately leaves some helpers unused.
        .arg("-Wno-unused-function")
        .arg("-Wno-unused-parameter")
        .arg("-o")
        .arg(&binary)
        .args(&sources)
        .output()
        .expect("run cc");
    assert!(
        output.status.success(),
        "cc failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let run = Command::new(&binary).output().expect("run generated app");
    assert!(run.status.success());
    std::fs::remove_dir_all(&dir).ok();
    Some(String::from_utf8_lossy(&run.stdout).into_owned())
}

#[test]
fn generated_project_compiles_and_runs() {
    let Some(log) = compile_and_run(&sample_system(), "test") else {
        return;
    };
    // 4 pings (n=3,3,2,1... actually n counts down via responder) and the
    // final USER record prove the full loop ran.
    assert!(log.contains("SIG"), "log:\n{log}");
    assert!(log.contains("Ping"), "log:\n{log}");
    assert!(log.contains("Pong"), "log:\n{log}");
    assert!(log.contains("driver finished"), "log:\n{log}");

    // The log text is parseable by the simulator's log parser (same
    // format as the Rust-side simulation log-file).
    let parsed = tut_sim::SimLog::parse(&log);
    assert!(parsed.is_ok(), "unparseable log: {parsed:?}\n{log}");
}

/// One process whose only state has a timer self-loop and a guarded
/// completion self-loop. The state's entry action logs `entered` and arms
/// the timer; each loop logs its own message.
fn self_loop_system() -> SystemModel {
    let mut s = SystemModel::new("SelfLoops");
    let top = s.model.add_class("Top");
    s.apply(top, |t| t.application).unwrap();
    let class = s.model.add_class("Looper");
    s.apply(class, |t| t.application_component).unwrap();
    let log = |message: &str| Statement::Log {
        message: message.into(),
        args: vec![],
    };
    let arm = || Statement::SetTimer {
        name: "tick".into(),
        duration: Expr::int(1000),
    };
    let bump = |var: &str| Statement::Assign {
        var: var.into(),
        expr: Expr::var(var).bin(BinOp::Add, Expr::int(1)),
    };
    let mut sm = StateMachine::new("LooperB");
    sm.add_variable("ticks", DataType::Int, Value::Int(0));
    sm.add_variable("spins", DataType::Int, Value::Int(0));
    let run = sm.add_state_with_entry("Run", vec![log("entered"), arm()]);
    sm.set_initial(run);
    sm.add_transition(
        run,
        run,
        Trigger::Timer("tick".into()),
        Some(Expr::var("ticks").bin(BinOp::Lt, Expr::int(3))),
        vec![bump("ticks"), log("tick"), arm()],
    );
    sm.add_transition(
        run,
        run,
        Trigger::Completion,
        Some(Expr::var("spins").bin(BinOp::Lt, Expr::int(2))),
        vec![bump("spins"), log("spin")],
    );
    s.model.add_state_machine(class, sm);
    let part = s.model.add_part(top, "looper", class);
    s.apply(part, |t| t.application_process).unwrap();
    s
}

/// How many `USER` records of a log carry each message.
fn user_counts(log: &tut_sim::SimLog) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for record in log.iter() {
        if let tut_sim::RecordRef::User { message, .. } = record {
            *counts.entry(message.to_owned()).or_default() += 1;
        }
    }
    counts
}

/// A self-transition runs no entry action, and a completion self-loop
/// fires once per step: the C binary logs each message as often as the
/// simulator does.
#[test]
fn self_loops_run_no_entry_action_in_c_as_in_the_simulator() {
    let system = self_loop_system();
    let simulated = Simulation::from_system(&system, SimConfig::with_horizon_ns(1_000_000))
        .expect("build")
        .run()
        .expect("run");
    let expected = user_counts(&simulated.log);
    assert_eq!(expected.get("entered"), Some(&1), "{expected:?}");
    let Some(log) = compile_and_run(&system, "self_loops") else {
        return;
    };
    let parsed = tut_sim::SimLog::parse(&log).expect("C log parses");
    assert_eq!(user_counts(&parsed), expected, "C log:\n{log}");
}
