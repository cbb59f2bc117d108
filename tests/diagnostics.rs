//! Golden tests for the diagnostics engine: parser error recovery over a
//! fixture with several distinct syntax errors, and snapshot tests for
//! the text and JSON renderers.

use tut_profile_suite::diag::{
    render_bag_json, render_bag_text, Diagnostic, DiagnosticBag, SourceMap, Span,
};
use tut_profile_suite::uml::textual;

/// A program with three distinct broken statements interleaved with good
/// ones. Recovery must surface every failure and keep every survivor.
const BROKEN_PROGRAM: &str = "\
seq := seq + 1;
count := ;
send radio.Nope(seq);
flag := 1 $;
log \"still alive\";
";

#[test]
fn recovery_surfaces_every_error_with_stable_codes_and_spans() {
    let parsed = textual::parse_program(BROKEN_PROGRAM, None);

    // Three broken statements → three diagnostics; two good ones survive.
    assert_eq!(parsed.diagnostics.len(), 3, "{}", parsed.diagnostics);
    assert_eq!(parsed.statements.len(), 2);

    let source = SourceMap::new("broken.act", BROKEN_PROGRAM);
    let mut seen_lines = Vec::new();
    for d in parsed.diagnostics.iter() {
        assert!(
            d.code == textual::E_SYNTAX
                || d.code == textual::E_UNKNOWN_NAME
                || d.code == textual::E_LITERAL,
            "unexpected code {}",
            d.code
        );
        let span = d.span.expect("every recovery diagnostic is spanned");
        seen_lines.push(source.locate(span.start).line);
    }
    // One failure per broken line, in order.
    assert_eq!(seen_lines, vec![2, 3, 4]);
}

#[test]
fn recovered_diagnostics_render_with_source_excerpts() {
    let parsed = textual::parse_program(BROKEN_PROGRAM, None);
    let source = SourceMap::new("broken.act", BROKEN_PROGRAM);
    let text = render_bag_text(&parsed.diagnostics, Some(&source));

    assert!(text.contains("broken.act:2:"), "{text}");
    assert!(text.contains("count := ;"), "{text}");
    assert!(text.contains("3 errors"), "{text}");
}

fn snapshot_bag() -> (SourceMap, DiagnosticBag) {
    let source_text = "x := 1\nsend reply(y)\n";
    let source = SourceMap::new("model.act", source_text);
    let mut bag = DiagnosticBag::new();
    bag.push(
        Diagnostic::error("E0316", "variable `y` is never assigned")
            .with_span(Span::new(18, 19))
            .with_note("assign it before use")
            .with_help("did you mean `x`?"),
    );
    bag.push(Diagnostic::warning(
        "W0207",
        "process `p` is not in any process group",
    ));
    bag.sort();
    (source, bag)
}

#[test]
fn text_renderer_snapshot() {
    let (source, bag) = snapshot_bag();
    let rendered = render_bag_text(&bag, Some(&source));
    let expected = "\
error[E0316]: variable `y` is never assigned
 --> model.act:2:12
  |
2 | send reply(y)
  |            ^
  = note: assign it before use
  = help: did you mean `x`?

warning[W0207]: process `p` is not in any process group

1 error, 1 warning
";
    assert_eq!(rendered, expected);
}

#[test]
fn json_renderer_snapshot() {
    let (source, bag) = snapshot_bag();
    let rendered = render_bag_json(&bag, Some(&source));
    let expected = concat!(
        "{\"summary\":{\"errors\":1,\"warnings\":1,\"total\":2},\"diagnostics\":[",
        "{\"severity\":\"error\",\"code\":\"E0316\",",
        "\"message\":\"variable `y` is never assigned\",\"element\":null,",
        "\"span\":{\"start\":18,\"end\":19,\"line\":2,\"column\":12},",
        "\"labels\":[],\"notes\":[\"assign it before use\"],",
        "\"help\":\"did you mean `x`?\"},",
        "{\"severity\":\"warning\",\"code\":\"W0207\",",
        "\"message\":\"process `p` is not in any process group\",",
        "\"element\":null,\"span\":null,\"labels\":[],\"notes\":[],\"help\":null}",
        "]}"
    );
    assert_eq!(rendered, expected);
}

/// SplitMix64, so the random-edit sweep below reproduces bit for bit.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A random offset into `text` on a `char` boundary.
    fn offset_in(&mut self, text: &str) -> usize {
        let mut at = self.below(text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        at
    }
}

/// Applies one edit to both the carried map and the plain text, then
/// requires the map to agree with a fresh index of the new text on the
/// line count, every offset's position and every line's text.
fn edit_and_compare(
    map: &mut SourceMap,
    text: &mut String,
    range: std::ops::Range<usize>,
    with: &str,
) {
    let what = format!("{range:?} -> {with:?} on {text:?}");
    map.replace_range(range.clone(), with);
    text.replace_range(range, with);
    let fresh = SourceMap::new("edited.xml", text.as_str());
    assert_eq!(map.text(), text.as_str(), "{what}");
    assert_eq!(map.line_count(), fresh.line_count(), "{what}");
    for offset in 0..=text.len() + 1 {
        assert_eq!(
            map.locate(offset),
            fresh.locate(offset),
            "offset {offset}: {what}"
        );
    }
    for line in 0..=fresh.line_count() + 1 {
        assert_eq!(map.line(line), fresh.line(line), "line {line}: {what}");
    }
}

/// Property: a line index updated edit by edit equals the index built
/// from scratch on the edited text, for inserted and deleted `\n` and
/// `\r\n`, edits at offset 0 and at the end, emptied text, and joined
/// and split lines.
#[test]
fn line_index_updated_by_edits_matches_a_fresh_index() {
    let mut text = String::from("<a>\r\n  <b x=\"1\"/>\n\n  é\r\n</a>\n");
    let mut map = SourceMap::new("edited.xml", text.as_str());
    let pieces = [
        "", "x", "\n", "\r\n", "\n\n", "\r", "é", "ab\ncd", "y\r\nz\n", "  <c/>\n",
    ];
    let mut rng = SplitMix(0x5eed_11ae);
    for round in 0..600 {
        if round % 50 == 49 {
            // Empty the text now and then.
            let end = text.len();
            edit_and_compare(&mut map, &mut text, 0..end, "");
            continue;
        }
        let with = pieces[rng.below(pieces.len())];
        let (start, end) = match rng.below(6) {
            // Edit at offset 0, and at the end.
            0 => (0, rng.offset_in(&text)),
            1 => (rng.offset_in(&text), text.len()),
            // Join two lines: delete a newline with its `\r`, if any.
            2 => {
                let from = rng.offset_in(&text);
                match text[from..].find('\n').map(|i| from + i) {
                    Some(nl) if text[..nl].ends_with('\r') => (nl - 1, nl + 1),
                    Some(nl) => (nl, nl + 1),
                    None => (from, from),
                }
            }
            // Split a line at a random offset.
            3 => {
                let at = rng.offset_in(&text);
                let split = if rng.below(2) == 0 { "\n" } else { "\r\n" };
                edit_and_compare(&mut map, &mut text, at..at, split);
                continue;
            }
            _ => {
                let a = rng.offset_in(&text);
                let b = rng.offset_in(&text);
                (a.min(b), a.max(b))
            }
        };
        edit_and_compare(&mut map, &mut text, start..end, with);
        if text.len() > 400 {
            let mut cut = rng.below(200);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            let end = text.len();
            edit_and_compare(&mut map, &mut text, cut..end, "");
        }
    }
}
