//! Mapping byte offsets to human line:column positions.

use std::fmt;
use std::ops::Range;

use crate::span::Span;

/// A 1-based line and column position.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LineCol {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (in bytes within the line; the sources this
    /// suite handles are ASCII-dominated, so byte == display column).
    pub column: usize,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// A named source text with a precomputed line index.
///
/// Construction is `O(len)`; every [`SourceMap::locate`] afterwards is a
/// binary search over line starts. The renderer uses [`SourceMap::line`]
/// to excerpt the offending line under a diagnostic. A map kept across
/// edits follows each one with [`SourceMap::replace_range`], which
/// rescans only the replacement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceMap {
    name: String,
    text: String,
    line_starts: Vec<usize>,
}

impl SourceMap {
    /// Indexes `text` under the given display `name` (usually a file path).
    pub fn new(name: impl Into<String>, text: impl Into<String>) -> SourceMap {
        let text = text.into();
        let mut line_starts = vec![0];
        line_starts.extend(line_starts_in(&text, 0));
        SourceMap {
            name: name.into(),
            text,
            line_starts,
        }
    }

    /// Replaces `range` of the text with `with` and updates the line
    /// index from the edit alone: line starts up to `range.start` stay,
    /// the newlines of `with` are scanned, and line starts after
    /// `range.end` shift by the length delta. The result equals
    /// [`SourceMap::new`] on the edited text.
    ///
    /// # Panics
    ///
    /// As [`String::replace_range`]: when `range` is out of bounds or
    /// does not lie on `char` boundaries.
    pub fn replace_range(&mut self, range: Range<usize>, with: &str) {
        let Range { start, end } = range;
        // Grow to the exact length: a map kept across edits should hold
        // no more than its text, not an amortised doubling of it.
        self.text
            .reserve_exact(with.len().saturating_sub(end.saturating_sub(start)));
        self.text.replace_range(start..end, with);
        // A newline at offset `i` opens the line starting at `i + 1`, so
        // the starts the replaced bytes opened are those in
        // `start + 1..=end`.
        let first = self.line_starts.partition_point(|&s| s <= start);
        let after = self.line_starts.partition_point(|&s| s <= end);
        for s in &mut self.line_starts[after..] {
            *s = *s - end + start + with.len();
        }
        self.line_starts
            .splice(first..after, line_starts_in(with, start));
    }

    /// The display name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full source text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Resolves a byte offset to its 1-based line and column. Offsets past
    /// the end of the text resolve to one past the final character.
    pub fn locate(&self, offset: usize) -> LineCol {
        let offset = offset.min(self.text.len());
        let line_index = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_index + 1,
            column: offset - self.line_starts[line_index] + 1,
        }
    }

    /// Resolves a span's start position.
    pub fn locate_span(&self, span: Span) -> LineCol {
        self.locate(span.start)
    }

    /// Returns the text of a 1-based line, without its trailing newline.
    pub fn line(&self, line: usize) -> Option<&str> {
        let start = *self.line_starts.get(line.checked_sub(1)?)?;
        let end = self
            .line_starts
            .get(line)
            .map(|&next| next - 1)
            .unwrap_or(self.text.len());
        Some(self.text[start..end].trim_end_matches('\r'))
    }

    /// Number of lines in the source (a trailing newline does not open a
    /// new line unless followed by text — but the index keeps it, matching
    /// editor conventions).
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }
}

/// The line starts opened by the newlines of `text`, a slice placed at
/// offset `base` of its document: the one newline scan behind both
/// [`SourceMap::new`] and [`SourceMap::replace_range`].
fn line_starts_in(text: &str, base: usize) -> impl Iterator<Item = usize> + '_ {
    text.bytes()
        .enumerate()
        .filter(|&(_, b)| b == b'\n')
        .map(move |(i, _)| base + i + 1)
}

/// Resolves a byte offset to line:column with a single forward scan and
/// no allocation, for error paths that need one position out of a text
/// they do not own (a [`SourceMap`] would clone and index the whole
/// document for that single lookup). Agrees with [`SourceMap::locate`]
/// on every offset.
pub fn locate_in(text: &str, offset: usize) -> LineCol {
    let offset = offset.min(text.len());
    let mut line = 1;
    let mut line_start = 0;
    for (i, b) in text.bytes().enumerate().take(offset) {
        if b == b'\n' {
            line += 1;
            line_start = i + 1;
        }
    }
    LineCol {
        line,
        column: offset - line_start + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locates_offsets_across_lines() {
        let sm = SourceMap::new("f", "ab\ncd\n\nxyz");
        assert_eq!(sm.locate(0), LineCol { line: 1, column: 1 });
        assert_eq!(sm.locate(1), LineCol { line: 1, column: 2 });
        assert_eq!(sm.locate(3), LineCol { line: 2, column: 1 });
        assert_eq!(sm.locate(6), LineCol { line: 3, column: 1 });
        assert_eq!(sm.locate(7), LineCol { line: 4, column: 1 });
        assert_eq!(sm.locate(9), LineCol { line: 4, column: 3 });
        // Past the end clamps to one past the final character.
        assert_eq!(sm.locate(1000), LineCol { line: 4, column: 4 });
        assert_eq!(sm.locate(0).to_string(), "1:1");
    }

    #[test]
    fn extracts_lines() {
        let sm = SourceMap::new("f", "ab\ncd\r\nlast");
        assert_eq!(sm.line(1), Some("ab"));
        assert_eq!(sm.line(2), Some("cd"), "carriage return stripped");
        assert_eq!(sm.line(3), Some("last"));
        assert_eq!(sm.line(4), None);
        assert_eq!(sm.line(0), None);
        assert_eq!(sm.line_count(), 3);
    }

    #[test]
    fn empty_source() {
        let sm = SourceMap::new("empty", "");
        assert_eq!(sm.locate(0), LineCol { line: 1, column: 1 });
        assert_eq!(sm.line(1), Some(""));
    }

    /// The binary-search index and the scan-free helper must agree on a
    /// multi-line fixture at every byte offset, including past-the-end.
    #[test]
    fn locate_agrees_with_locate_in_on_multiline_fixture() {
        let fixture = "<?xml version=\"1.0\"?>\n<model name=\"tutmac\">\n\n  <class name=\"A\"/>\n  <class name=\"B\">\n  </class>\n</model>\n";
        let sm = SourceMap::new("fixture.xml", fixture);
        for offset in 0..=fixture.len() + 2 {
            assert_eq!(
                sm.locate(offset),
                locate_in(fixture, offset),
                "offset {offset}"
            );
        }
        // Spot checks pinning absolute positions on the fixture.
        let class_a = fixture.find("<class").unwrap();
        assert_eq!(sm.locate(class_a), LineCol { line: 4, column: 3 });
        assert_eq!(sm.locate(fixture.len()), LineCol { line: 8, column: 1 });
    }

    #[test]
    fn locate_in_handles_crlf_and_blank_lines() {
        let fixture = "a\r\nbb\r\n\r\nccc";
        assert_eq!(locate_in(fixture, 0), LineCol { line: 1, column: 1 });
        // The '\r' belongs to line 1; only '\n' opens a new line.
        assert_eq!(locate_in(fixture, 1), LineCol { line: 1, column: 2 });
        assert_eq!(locate_in(fixture, 3), LineCol { line: 2, column: 1 });
        assert_eq!(locate_in(fixture, 7), LineCol { line: 3, column: 1 });
        assert_eq!(locate_in(fixture, 9), LineCol { line: 4, column: 1 });
        assert_eq!(locate_in(fixture, 11), LineCol { line: 4, column: 3 });
        let sm = SourceMap::new("crlf", fixture);
        for offset in 0..=fixture.len() {
            assert_eq!(sm.locate(offset), locate_in(fixture, offset));
        }
    }
}
