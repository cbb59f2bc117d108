//! Randomised tests on the cross-crate invariants: random models
//! survive the XMI round trip, random expressions survive the structural
//! encoding, random logs survive the text round trip, and damaged model
//! XML fails with a registered code — driven by a seeded in-tree
//! generator (deterministic, no external dependencies).

use tut_bench::check::check_source;
use tut_bench::incremental::Checker;
use tut_profile_suite::diag::{DiagnosticBag, Span};
use tut_profile_suite::sim::{LogRecord, SimLog};
use tut_profile_suite::uml::action::{BinOp, Builtin, Expr, Statement, UnaryOp};
use tut_profile_suite::uml::error::{Error, E_XML_SYNTAX};
use tut_profile_suite::uml::lower::MachineCode;
use tut_profile_suite::uml::outline::Outline;
use tut_profile_suite::uml::statemachine::StateMachine;
use tut_profile_suite::uml::value::{DataType, Value};
use tut_profile_suite::uml::xmi::{self, E_XMI_STRUCTURE};
use tut_profile_suite::uml::xml::XmlNode;
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

/// `len` pseudo-random bytes: each successive 8-byte chunk is the
/// little-endian form of the next `u64` draw.
fn rand_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    for chunk in bytes.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
    }
    bytes
}

fn rand_value(rng: &mut SplitMix64) -> Value {
    match rng.next_index(4) {
        0 => Value::Int(rng.next_u64() as i64),
        1 => Value::Bool(rng.next_index(2) == 0),
        2 => {
            let len = rng.next_index(32);
            Value::from(rand_bytes(rng, len))
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
    use tut_profile_suite::uml::action::{crc32, crc32_bitwise};
    let mut rng = SplitMix64::new(0x0E17_0006);
    for _ in 0..CASES {
        let len = rng.next_index(1024);
        let data = rand_bytes(&mut rng, len);
        assert_eq!(crc32(&data), crc32_bitwise(&data));
    }
}

/// One generated element: its source text and, for it and each
/// descendant in pre-order, the text the parser must report.
fn rand_mixed_element(rng: &mut SplitMix64, depth: usize, expected: &mut Vec<String>) -> String {
    // (source, what it unescapes to): literal text, whitespace in every
    // form the documents carry (CRLF included, and a non-ASCII space),
    // and entities, two of which expand to whitespace.
    const PIECES: &[(&str, &str)] = &[
        ("ab", "ab"),
        ("x y", "x y"),
        ("é", "é"),
        (" ", " "),
        ("\t", "\t"),
        ("\n", "\n"),
        ("\r\n", "\r\n"),
        ("\u{a0}", "\u{a0}"),
        ("&amp;", "&"),
        ("&lt;", "<"),
        ("&#65;", "A"),
        ("&#x20;", " "),
        ("&#10;", "\n"),
    ];
    const WHITESPACE: &[&str] = &[" ", "\n", "\r\n", "\t", "\n    "];
    let name = rand_ident(rng);
    let slot = expected.len();
    expected.push(String::new());
    let mut source = format!("<{name}>");
    let mut runs = String::new();
    for _ in 0..rng.next_index(12) {
        match rng.next_index(4) {
            0 => {
                for _ in 0..1 + rng.next_index(4) {
                    let (raw, unescaped) = PIECES[rng.next_index(PIECES.len())];
                    source.push_str(raw);
                    runs.push_str(unescaped);
                }
            }
            1 => {
                let ws = WHITESPACE[rng.next_index(WHITESPACE.len())];
                source.push_str(ws);
                runs.push_str(ws);
            }
            2 => source.push_str("<!-- a comment -->"),
            _ if depth > 0 => source.push_str(&rand_mixed_element(rng, depth - 1, expected)),
            _ => {}
        }
    }
    expected[slot] = runs.trim().to_owned();
    source.push_str(&format!("</{name}>"));
    source
}

/// A parsed element's `text` is its character data — every text run
/// directly inside it, unescaped, concatenated across children and
/// comments — with surrounding whitespace trimmed.
#[test]
fn xml_text_is_the_trimmed_concatenation_of_unescaped_runs() {
    fn pre_order<'a>(node: &'a XmlNode, out: &mut Vec<&'a str>) {
        out.push(&node.text);
        for child in &node.children {
            pre_order(child, out);
        }
    }
    let mut rng = SplitMix64::new(0x0E17_0007);
    for _ in 0..4 * CASES {
        let mut expected = Vec::new();
        let doc = rand_mixed_element(&mut rng, 3, &mut expected);
        let parsed =
            XmlNode::parse(&doc).unwrap_or_else(|e| panic!("`{doc:?}` failed to parse: {e}"));
        let mut texts = Vec::new();
        pre_order(&parsed, &mut texts);
        assert_eq!(texts, expected, "document {doc:?}");
    }
}

/// The parser holds open elements on the heap, so a document nested far
/// past its bound fails with a syntax error on a default test thread
/// instead of overflowing the stack.
#[test]
fn xml_nesting_past_the_bound_is_a_syntax_error() {
    let depth = 100_000;
    let doc = "<a>".repeat(depth) + &"</a>".repeat(depth);
    match XmlNode::parse(&doc) {
        Err(Error::XmlSyntax { offset, .. }) => assert_eq!(offset, 1024 * "<a>".len()),
        other => panic!("expected a syntax error, got {other:?}"),
    }
}

/// Reads `doc` as the first two stages of `repro check` do. `None` when
/// it reads, else the code the check driver reports for the failure.
fn read_failure_code(doc: &str) -> Option<String> {
    let root = match XmlNode::parse(doc) {
        Ok(root) => root,
        Err(Error::XmlSyntax { .. }) => return Some(E_XML_SYNTAX.to_owned()),
        Err(other) => return Some(format!("parse: {other}")),
    };
    match xmi::read_model(&root, &mut DiagnosticBag::new()) {
        Ok(_) => None,
        Err(Error::XmiStructure(_)) => Some(E_XMI_STRUCTURE.to_owned()),
        Err(other) => Some(format!("decode: {other}")),
    }
}

/// One seeded mutant of `base`: a markup byte swapped for another, a
/// truncation, or a top-level `packagedElement` segment duplicated or
/// dropped. Returns what was done and the mutated text.
fn mutate(
    rng: &mut SplitMix64,
    base: &str,
    markup: &[usize],
    segments: &[Span],
) -> (String, String) {
    const MARKUP: &[u8] = b"<>\"/=&";
    match rng.next_index(4) {
        0 => {
            let at = markup[rng.next_index(markup.len())];
            let old = base.as_bytes()[at];
            let others: Vec<u8> = MARKUP.iter().copied().filter(|&b| b != old).collect();
            let new = others[rng.next_index(others.len())] as char;
            let doc = format!("{}{new}{}", &base[..at], &base[at + 1..]);
            (format!("byte {at} `{}` -> `{new}`", old as char), doc)
        }
        1 => {
            let mut at = rng.next_index(base.len());
            while !base.is_char_boundary(at) {
                at -= 1;
            }
            (format!("truncated at {at}"), base[..at].to_owned())
        }
        kind => {
            let i = rng.next_index(segments.len());
            let r = segments[i];
            let (what, doc) = if kind == 2 {
                let seg = &base[r.start..r.end];
                (
                    "duplicated",
                    format!("{}{seg}{}", &base[..r.end], &base[r.end..]),
                )
            } else {
                ("dropped", format!("{}{}", &base[..r.start], &base[r.end..]))
            };
            (format!("segment {i} {what}"), doc)
        }
    }
}

/// Seeded mutants of the TUTMAC XML each read, or fail with `E0101`
/// (syntax) or `E0102` (structure), without a panic. On a bounded
/// subset a fresh warm `Checker` reports byte-identically to the cold
/// `check_source`.
#[test]
fn mutated_model_xml_reads_or_fails_with_a_registered_code() {
    const MUTANTS: usize = 300;
    const CHECK_EVERY: usize = 25;
    const NAME: &str = "mutant.xml";
    let base = tut_bench::paper_system().to_xml();
    let markup: Vec<usize> = base
        .bytes()
        .enumerate()
        .filter(|(_, b)| b"<>\"/=&".contains(b))
        .map(|(i, _)| i)
        .collect();
    let segments: Vec<Span> = Outline::of_tree(&XmlNode::parse(&base).unwrap())
        .segments
        .iter()
        .map(|s| s.range)
        .collect();
    let mut rng = SplitMix64::new(0x0E17_0033);
    for n in 0..MUTANTS {
        let (what, doc) = mutate(&mut rng, &base, &markup, &segments);
        let code = std::panic::catch_unwind(|| read_failure_code(&doc))
            .unwrap_or_else(|_| panic!("mutant {n} ({what}) panicked while reading"));
        assert!(
            code.as_deref()
                .is_none_or(|c| c == E_XML_SYNTAX || c == E_XMI_STRUCTURE),
            "mutant {n} ({what}) failed with {code:?}"
        );
        if n % CHECK_EVERY == 0 {
            let cold = check_source(NAME, &doc).render_text();
            let warm = Checker::new().check(NAME, &doc);
            assert_eq!(warm.text, cold, "mutant {n} ({what})");
        }
    }
}
