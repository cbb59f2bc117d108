//! Rendering a [`DiagnosticBag`] for humans (text) and tools (JSON).

use std::fmt::Write as _;

use crate::bag::DiagnosticBag;
use crate::diagnostic::Diagnostic;
use crate::source::SourceMap;
use crate::span::Span;

/// Renders the bag in rustc-style plain text.
///
/// Each diagnostic prints as
///
/// ```text
/// error[E0110]: expected `;`
///  --> model.xml:4:17
///   |
/// 4 |   send reply(x)
///   |                ^
///   = note: statements are `;`-terminated
///   = help: insert `;`
/// ```
///
/// followed by a final summary line (`"2 errors, 1 warning"`). Spans are
/// resolved against `source` when one is supplied; without a source map
/// (or for span-less findings) the location and excerpt lines are omitted.
/// A source line longer than [`EXCERPT_WIDTH`] bytes is cut to a window
/// around the span, with `…` at each cut end.
pub fn render_bag_text(bag: &DiagnosticBag, source: Option<&SourceMap>) -> String {
    let mut out = String::new();
    for d in bag {
        render_one_text(&mut out, d, source);
        out.push('\n');
    }
    let _ = writeln!(out, "{}", bag.summary());
    out
}

fn render_one_text(out: &mut String, d: &Diagnostic, source: Option<&SourceMap>) {
    let _ = write!(out, "{}[{}]: {}", d.severity, d.code, d.message);
    if let Some(element) = &d.element {
        let _ = write!(out, " ({element})");
    }
    out.push('\n');
    if let (Some(span), Some(sm)) = (d.span, source) {
        render_excerpt(out, span, sm);
    }
    for note in &d.notes {
        let _ = writeln!(out, "  = note: {note}");
    }
    if let Some(help) = &d.help {
        let _ = writeln!(out, "  = help: {help}");
    }
}

/// The widest source line, in bytes, that an excerpt prints whole. A
/// longer line (a minified or generated document) is cut to a window of
/// about this many bytes around the span.
pub const EXCERPT_WIDTH: usize = 160;

/// Writes the ` --> file:line:col` pointer and the underlined source line.
fn render_excerpt(out: &mut String, span: Span, sm: &SourceMap) {
    let at = sm.locate(span.start);
    let _ = writeln!(out, " --> {}:{}", sm.name(), at);
    let Some(line_text) = sm.line(at.line) else {
        return;
    };
    let gutter = at.line.to_string();
    let pad = " ".repeat(gutter.len());
    let _ = writeln!(out, "{pad} |");
    // Underline the part of the span that falls on the excerpted line.
    let end = sm.locate(span.end);
    let width = if end.line == at.line && end.column > at.column {
        end.column - at.column
    } else {
        1
    };
    let width = width
        .min(line_text.len().saturating_sub(at.column - 1))
        .max(1);
    if line_text.len() <= EXCERPT_WIDTH {
        let _ = writeln!(out, "{gutter} | {line_text}");
        let _ = writeln!(
            out,
            "{pad} | {}{}",
            " ".repeat(at.column - 1),
            "^".repeat(width)
        );
    } else {
        let (excerpt, underline) = windowed(line_text, at.column - 1, width);
        let _ = writeln!(out, "{gutter} | {excerpt}");
        let _ = writeln!(out, "{pad} | {underline}");
    }
}

/// Cuts `line` (longer than [`EXCERPT_WIDTH`]) to a window of about
/// `EXCERPT_WIDTH` bytes around the caret at byte `caret`, which
/// underlines `width` bytes. Both cuts fall on `char` boundaries and each
/// cut end shows `…`. The underline counts `char`s, so the caret stays
/// under the same character after the leading `…`.
fn windowed(line: &str, caret: usize, width: usize) -> (String, String) {
    let floor = |mut i: usize| {
        while !line.is_char_boundary(i) {
            i -= 1;
        }
        i
    };
    let ceil = |mut i: usize| {
        while !line.is_char_boundary(i) {
            i += 1;
        }
        i
    };
    let caret = floor(caret.min(line.len()));
    let start = floor(
        caret
            .saturating_sub(EXCERPT_WIDTH / 2)
            .min(line.len() - EXCERPT_WIDTH),
    );
    let end = ceil((start + EXCERPT_WIDTH).max(caret));
    let mark_end = ceil((caret + width).min(end));
    let lead = if start > 0 { "…" } else { "" };
    let tail = if end < line.len() { "…" } else { "" };
    let excerpt = format!("{lead}{}{tail}", &line[start..end]);
    let indent = lead.chars().count() + line[start..caret].chars().count();
    let marks = line[caret..mark_end].chars().count().max(1);
    let underline = format!("{}{}", " ".repeat(indent), "^".repeat(marks));
    (excerpt, underline)
}

/// Renders the bag as machine-readable JSON.
///
/// The shape is stable:
///
/// ```text
/// {
///   "summary": {"errors": 2, "warnings": 1, "total": 3},
///   "diagnostics": [
///     {"severity": "error", "code": "E0110", "message": "...",
///      "element": "class3" | null,
///      "span": {"start": 4, "end": 5, "line": 1, "column": 5} | null,
///      "labels": [],
///      "notes": ["..."], "help": "..." | null}
///   ]
/// }
/// ```
///
/// `line`/`column` appear inside `span` only when a [`SourceMap`] is
/// supplied. `labels` is always empty: no finding carries a secondary
/// span, and the key stays so the shape tools parse does not change. The
/// output is a single line of minified JSON.
pub fn render_bag_json(bag: &DiagnosticBag, source: Option<&SourceMap>) -> String {
    let mut out = String::new();
    out.push_str("{\"summary\":{");
    let _ = write!(
        out,
        "\"errors\":{},\"warnings\":{},\"total\":{}",
        bag.error_count(),
        bag.warning_count(),
        bag.len()
    );
    out.push_str("},\"diagnostics\":[");
    for (i, d) in bag.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_one_json(&mut out, d, source);
    }
    out.push_str("]}");
    out
}

fn render_one_json(out: &mut String, d: &Diagnostic, source: Option<&SourceMap>) {
    out.push('{');
    let _ = write!(out, "\"severity\":{}", json_string(d.severity.name()));
    let _ = write!(out, ",\"code\":{}", json_string(d.code));
    let _ = write!(out, ",\"message\":{}", json_string(&d.message));
    match &d.element {
        Some(e) => {
            let _ = write!(out, ",\"element\":{}", json_string(e));
        }
        None => out.push_str(",\"element\":null"),
    }
    match d.span {
        Some(span) => {
            let _ = write!(
                out,
                ",\"span\":{{\"start\":{},\"end\":{}",
                span.start, span.end
            );
            if let Some(sm) = source {
                let at = sm.locate(span.start);
                let _ = write!(out, ",\"line\":{},\"column\":{}", at.line, at.column);
            }
            out.push('}');
        }
        None => out.push_str(",\"span\":null"),
    }
    out.push_str(",\"labels\":[],\"notes\":[");
    for (i, note) in d.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(note));
    }
    out.push(']');
    match &d.help {
        Some(h) => {
            let _ = write!(out, ",\"help\":{}", json_string(h));
        }
        None => out.push_str(",\"help\":null"),
    }
    out.push('}');
}

/// Escapes a string per RFC 8259 and wraps it in quotes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::Diagnostic;

    fn sample() -> (DiagnosticBag, SourceMap) {
        let sm = SourceMap::new("model.act", "x := 1\nsend reply(x)\n");
        let mut bag = DiagnosticBag::new();
        let mut error = Diagnostic::error("E0110", "expected `;`")
            .with_span(Span::new(20, 21))
            .with_note("statements are `;`-terminated");
        error.help = Some("insert `;`".into());
        bag.push(error);
        bag.push(Diagnostic::warning("W0207", "process ungrouped").with_element("class2"));
        (bag, sm)
    }

    #[test]
    fn text_renderer_shows_location_excerpt_and_summary() {
        let (bag, sm) = sample();
        let text = render_bag_text(&bag, Some(&sm));
        assert!(text.contains("error[E0110]: expected `;`"), "{text}");
        assert!(text.contains(" --> model.act:2:14"), "{text}");
        assert!(text.contains("2 | send reply(x)"), "{text}");
        assert!(
            text.contains("  = note: statements are `;`-terminated"),
            "{text}"
        );
        assert!(text.contains("  = help: insert `;`"), "{text}");
        assert!(
            text.contains("warning[W0207]: process ungrouped (class2)"),
            "{text}"
        );
        assert!(text.ends_with("1 error, 1 warning\n"), "{text}");
    }

    #[test]
    fn text_renderer_without_source_map_omits_excerpts() {
        let (bag, _) = sample();
        let text = render_bag_text(&bag, None);
        assert!(!text.contains("-->"), "{text}");
        assert!(text.contains("error[E0110]"), "{text}");
    }

    #[test]
    fn caret_is_placed_under_the_offending_column() {
        let sm = SourceMap::new("f", "abcdef\n");
        let mut bag = DiagnosticBag::new();
        bag.push(Diagnostic::error("E1", "bad").with_span(Span::new(2, 5)));
        let text = render_bag_text(&bag, Some(&sm));
        assert!(text.contains("1 | abcdef\n  |   ^^^\n"), "{text}");
    }

    /// Renders one error spanning `span` of a one-line source.
    fn excerpt_of(line: &str, span: Span) -> String {
        let sm = SourceMap::new("f", line);
        let mut bag = DiagnosticBag::new();
        bag.push(Diagnostic::error("E1", "bad").with_span(span));
        render_bag_text(&bag, Some(&sm))
    }

    #[test]
    fn long_line_excerpt_is_a_window_around_the_span() {
        let mut line = "a".repeat(100_000);
        line.replace_range(50_000..50_003, "XYZ");
        let text = excerpt_of(&line, Span::new(50_000, 50_003));
        assert!(text.len() < 2 * EXCERPT_WIDTH + 100, "{} bytes", text.len());
        let lines: Vec<&str> = text.lines().collect();
        let (excerpt, underline) = (lines[3], lines[4]);
        let excerpt = excerpt.strip_prefix("1 | ").expect("gutter");
        assert!(
            excerpt.starts_with('…') && excerpt.ends_with('…'),
            "{excerpt}"
        );
        let underline = underline.strip_prefix("  | ").expect("gutter");
        let col = underline.find('^').expect("caret");
        assert_eq!(underline[col..].trim_end(), "^^^");
        let shown: Vec<char> = excerpt.chars().collect();
        assert_eq!(shown[col..col + 3].iter().collect::<String>(), "XYZ");
        // The caret line and the location still name the real column.
        assert!(text.contains(" --> f:1:50001"), "{text}");
    }

    #[test]
    fn long_line_window_cuts_on_char_boundaries() {
        // Two-byte characters throughout: every odd byte offset lies inside
        // one, so the window's edges must move to a boundary. The span is
        // near the end, so the window's left edge is computed from the end.
        let line = "é".repeat(200);
        let caret = line.len() - 2;
        let text = excerpt_of(&line, Span::new(caret, line.len()));
        let lines: Vec<&str> = text.lines().collect();
        let excerpt = lines[3].strip_prefix("1 | ").expect("gutter");
        assert!(
            excerpt.starts_with('…') && !excerpt.ends_with('…'),
            "{excerpt}"
        );
        assert!(excerpt.chars().skip(1).all(|c| c == 'é'), "{excerpt}");
        let underline = lines[4].strip_prefix("  | ").expect("gutter");
        // The caret sits under the last character of the excerpt.
        assert_eq!(underline.chars().count(), excerpt.chars().count());
        assert!(underline.ends_with(" ^"), "{underline}");
        // Spans at both edges of an odd-length cut never split a char.
        for at in [0, 1, 161, 201, line.len() - 1] {
            excerpt_of(&line, Span::new(at, at + 1));
        }
    }

    #[test]
    fn line_at_the_bound_prints_whole() {
        let line = "b".repeat(EXCERPT_WIDTH);
        let text = excerpt_of(&line, Span::new(10, 11));
        assert!(text.contains(&format!("1 | {line}\n")), "{text}");
    }

    #[test]
    fn json_renderer_is_stable_and_escaped() {
        let (bag, sm) = sample();
        let json = render_bag_json(&bag, Some(&sm));
        assert!(json.starts_with("{\"summary\":{\"errors\":1,\"warnings\":1,\"total\":2}"));
        assert!(json.contains("\"code\":\"E0110\""), "{json}");
        assert!(json.contains("\"span\":{\"start\":20,\"end\":21,\"line\":2,\"column\":14}"));
        assert!(json.contains("\"element\":\"class2\""), "{json}");
        assert!(json.contains("\"message\":\"expected `;`\""), "{json}");
        assert!(json.contains("\"help\":\"insert `;`\""), "{json}");
        // Escaping round-trip for quotes, backslashes, and control bytes.
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn json_without_source_map_has_offsets_only() {
        let (bag, _) = sample();
        let json = render_bag_json(&bag, None);
        assert!(
            json.contains("\"span\":{\"start\":20,\"end\":21}"),
            "{json}"
        );
        assert!(json.contains("\"span\":null"), "{json}");
    }
}
