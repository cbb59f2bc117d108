//! Randomised tests on the cross-crate invariants: random models
//! survive the XMI round trip, random expressions survive the structural
//! encoding, random logs survive the text round trip — driven by a
//! seeded in-tree generator (deterministic, no external dependencies).

use tut_profile_suite::sim::{LogRecord, SimLog};
use tut_profile_suite::uml::action::{BinOp, Builtin, Expr, Statement, UnaryOp};
use tut_profile_suite::uml::lower::MachineCode;
use tut_profile_suite::uml::statemachine::StateMachine;
use tut_profile_suite::uml::value::{DataType, Value};
use tut_profile_suite::uml::xmi;
use tut_profile_suite::uml::Model;
use tut_trace::SplitMix64;

const CASES: usize = 64;

fn rand_ident(rng: &mut SplitMix64) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let mut out = String::new();
    out.push(FIRST[rng.next_index(FIRST.len())] as char);
    for _ in 0..rng.next_index(8) {
        out.push(REST[rng.next_index(REST.len())] as char);
    }
    out
}

fn rand_text(rng: &mut SplitMix64) -> String {
    // Includes XML-delicate characters on purpose.
    const CHARS: &[u8] = b"abcXYZ019 <>&'\"";
    (0..rng.next_index(24))
        .map(|_| CHARS[rng.next_index(CHARS.len())] as char)
        .collect()
}

fn rand_value(rng: &mut SplitMix64) -> Value {
    match rng.next_index(4) {
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::Bool(rng.next_index(2) == 0),
        2 => {
            let mut bytes = vec![0u8; rng.next_index(32)];
            rng.fill_bytes(&mut bytes);
            Value::from(bytes)
        }
        _ => Value::Str(rand_text(rng)),
    }
}

fn rand_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    if depth == 0 || rng.next_index(3) == 0 {
        return match rng.next_index(3) {
            0 => Expr::Lit(rand_value(rng)),
            1 => Expr::Var(rand_ident(rng)),
            _ => Expr::Param(rand_ident(rng)),
        };
    }
    match rng.next_index(6) {
        0 => rand_expr(rng, depth - 1).bin(BinOp::Add, rand_expr(rng, depth - 1)),
        1 => rand_expr(rng, depth - 1).bin(BinOp::Shl, rand_expr(rng, depth - 1)),
        2 => rand_expr(rng, depth - 1).bin(BinOp::Lt, rand_expr(rng, depth - 1)),
        3 => Expr::Unary(UnaryOp::Not, Box::new(rand_expr(rng, depth - 1))),
        4 => Expr::call(Builtin::Len, vec![rand_expr(rng, depth - 1)]),
        _ => Expr::call(
            Builtin::Min,
            vec![rand_expr(rng, depth - 1), rand_expr(rng, depth - 1)],
        ),
    }
}

/// Expressions restricted to forms whose `Display` output is valid
/// textual-notation input (byte/string literals print as summaries, so
/// they are excluded here and covered by the structural round trip).
fn rand_textual_expr(rng: &mut SplitMix64, depth: usize) -> Expr {
    if depth == 0 || rng.next_index(3) == 0 {
        return match rng.next_index(4) {
            0 => Expr::int(rng.next_index(1_000_000) as i64),
            1 => Expr::bool(rng.next_index(2) == 0),
            2 => Expr::Var(rand_ident(rng)),
            _ => Expr::Param(rand_ident(rng)),
        };
    }
    const OPS: [BinOp; 8] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Lt,
        BinOp::Eq,
        BinOp::And,
        BinOp::BitAnd,
        BinOp::Shl,
    ];
    match rng.next_index(3) {
        0 => {
            let op = OPS[rng.next_index(OPS.len())];
            rand_textual_expr(rng, depth - 1).bin(op, rand_textual_expr(rng, depth - 1))
        }
        1 => Expr::Unary(UnaryOp::Not, Box::new(rand_textual_expr(rng, depth - 1))),
        _ => Expr::call(
            Builtin::Max,
            vec![
                rand_textual_expr(rng, depth - 1),
                rand_textual_expr(rng, depth - 1),
            ],
        ),
    }
}

#[test]
fn expressions_round_trip_structurally() {
    let mut rng = SplitMix64::new(0x0E17_0001);
    for _ in 0..CASES {
        let expr = rand_expr(&mut rng, 4);
        let node = xmi::encode_expr(&expr);
        let decoded = xmi::decode_expr(&node).expect("decode");
        assert_eq!(decoded, expr);
    }
}

#[test]
fn random_models_round_trip_through_xmi() {
    let mut rng = SplitMix64::new(0x0E17_0002);
    for _ in 0..CASES {
        let class_count = 1 + rng.next_index(7);
        let signal_count = 1 + rng.next_index(4);
        let mut model = Model::new("Random");
        let signals: Vec<_> = (0..signal_count)
            .map(|i| {
                let s = model.add_signal(format!("Sig{i}"));
                model.signal_mut(s).add_param("payload", DataType::Bytes);
                s
            })
            .collect();
        let classes: Vec<_> = (0..class_count)
            .map(|i| model.add_class(format!("C{i}")))
            .collect();
        for (i, &class) in classes.iter().enumerate() {
            let port = model.add_port(class, format!("p{i}"));
            model
                .port_mut(port)
                .add_provided(signals[rng.next_index(signals.len())]);
            if i > 0 && rng.next_index(2) == 0 {
                let parent = classes[rng.next_index(i)];
                // Only parts towards earlier classes: keeps composition acyclic.
                model.add_part(class, format!("part{i}"), parent);
            }
        }
        let text = xmi::to_xml(&model);
        let parsed = xmi::from_xml(&text).expect("parse");
        assert_eq!(parsed, model);
    }
}

#[test]
fn log_records_round_trip_as_text() {
    let mut rng = SplitMix64::new(0x0E17_0003);
    for _ in 0..CASES {
        let time = rng.next_u64();
        let cycles = rng.next_u64();
        let process = rand_ident(&mut rng);
        let signal = rand_text(&mut rng);
        let bytes = rng.next_u64();
        let mut log = SimLog::new();
        log.push(LogRecord::Exec {
            time_ns: time,
            process: process.clone(),
            cycles,
            duration_ns: cycles / 2,
            from_state: "A".into(),
            to_state: "B".into(),
            trigger: signal.clone(),
        });
        log.push(LogRecord::Sig {
            time_ns: time,
            sender: process.clone(),
            receiver: process,
            signal,
            bytes,
            latency_ns: 7,
        });
        let parsed = SimLog::parse(&log.to_text()).expect("parse");
        assert_eq!(parsed, log);
    }
}

#[test]
fn eval_never_panics() {
    let mut rng = SplitMix64::new(0x0E17_0004);
    for _ in 0..CASES {
        // Arbitrary expressions may fail to evaluate (unbound variables,
        // type errors) but must never panic.
        // The expression runs as the simulator runs it: lowered, as the
        // argument of a `send` in an entry action, with `a` and `b`
        // declared machine variables.
        let expr = rand_expr(&mut rng, 4);
        let mut model = Model::new("M");
        let out = model.add_signal("Out");
        let mut machine = StateMachine::new("B");
        machine.add_variable("a", DataType::Int, Value::Int(1));
        machine.add_variable("b", DataType::Bytes, Value::from(vec![1u8, 2, 3]));
        let send = Statement::Send {
            port: "p".into(),
            signal: out,
            args: vec![expr],
        };
        let state = machine.add_state_with_entry("S", vec![send]);
        machine.set_initial(state);
        let code = MachineCode::lower(&model, &machine);
        let mut vars = code.initial_vars();
        let (mut emitted, mut weight) = (Vec::new(), 0);
        let _ = code
            .entry(state)
            .run(&mut code.frame(&mut vars), &mut emitted, &mut weight);
    }
}

#[test]
fn display_form_reparses_to_the_same_ast() {
    let mut rng = SplitMix64::new(0x0E17_0005);
    for _ in 0..CASES {
        // `Display` prints fully parenthesised text; the textual parser
        // must read it back to the identical AST.
        let expr = rand_textual_expr(&mut rng, 4);
        let text = expr.to_string();
        let reparsed = tut_profile_suite::uml::textual::parse_expr(&text)
            .unwrap_or_else(|e| panic!("`{text}` failed to reparse: {e}"));
        assert_eq!(reparsed, expr);
    }
}

#[test]
fn crc_implementations_agree() {
    let mut rng = SplitMix64::new(0x0E17_0006);
    let acc = tut_profile_suite::platform::Crc32Accelerator::new();
    for _ in 0..CASES {
        let mut data = vec![0u8; rng.next_index(1024)];
        rng.fill_bytes(&mut data);
        assert_eq!(
            acc.compute(&data),
            tut_profile_suite::uml::action::crc32_bitwise(&data)
        );
    }
}
