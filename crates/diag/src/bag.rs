//! Multi-error accumulation.

use std::fmt;

use crate::diagnostic::{Diagnostic, Severity};

/// An ordered collection of [`Diagnostic`]s.
///
/// Front-end passes push into one bag instead of failing fast, so a single
/// run over a model reports every problem at once. [`DiagnosticBag::sort`]
/// orders the report most-severe-first (then by source position), which is
/// the order the renderers present.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DiagnosticBag {
    diagnostics: Vec<Diagnostic>,
}

impl DiagnosticBag {
    /// Creates an empty bag.
    pub fn new() -> DiagnosticBag {
        DiagnosticBag::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Moves every diagnostic of `other` into this bag.
    pub fn merge(&mut self, other: DiagnosticBag) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Merges a cached fragment whose spans are relative to a
    /// sub-document starting at byte `base`, rebasing every span on the
    /// way in. With `base == 0` this appends the fragment verbatim, so
    /// a warm replay of cached fragments is byte-identical to the cold
    /// pass that produced them.
    pub fn merge_fragment(&mut self, fragment: &[Diagnostic], base: usize) {
        self.diagnostics
            .extend(fragment.iter().map(|d| d.rebased(base)));
    }

    /// Number of diagnostics collected.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// True when nothing was reported.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when at least one error-severity diagnostic was reported.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(Diagnostic::is_error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.is_error()).count()
    }

    /// Number of warning-severity diagnostics.
    pub(crate) fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Iterates in current order.
    pub fn iter(&self) -> std::slice::Iter<'_, Diagnostic> {
        self.diagnostics.iter()
    }

    /// Mutable iteration, used by drivers to attach spans after the fact.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Diagnostic> {
        self.diagnostics.iter_mut()
    }

    /// Consumes the bag, returning the diagnostics.
    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.diagnostics
    }

    /// Sorts the report: errors first, then warnings; within a severity by source position (spanned findings before span-less
    /// ones), then by code. The sort is stable, so insertion order breaks
    /// remaining ties.
    pub fn sort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| span_key(a).cmp(&span_key(b)))
                .then_with(|| a.code.cmp(b.code))
        });
    }

    /// The first diagnostic, if any (useful after [`DiagnosticBag::sort`]
    /// to surface the most severe finding).
    pub fn first(&self) -> Option<&Diagnostic> {
        self.diagnostics.first()
    }

    /// A one-line tally such as `"2 errors, 1 warning"`.
    pub fn summary(&self) -> String {
        fn plural(n: usize, word: &str) -> String {
            format!("{n} {word}{}", if n == 1 { "" } else { "s" })
        }
        let errors = self.error_count();
        let warnings = self.warning_count();
        match (errors, warnings) {
            (0, 0) => "no findings".to_owned(),
            (0, w) => plural(w, "warning"),
            (e, 0) => plural(e, "error"),
            (e, w) => format!("{}, {}", plural(e, "error"), plural(w, "warning")),
        }
    }
}

fn span_key(d: &Diagnostic) -> (usize, usize) {
    match d.span {
        Some(s) => (s.start, s.end),
        None => (usize::MAX, usize::MAX),
    }
}

impl Extend<Diagnostic> for DiagnosticBag {
    fn extend<T: IntoIterator<Item = Diagnostic>>(&mut self, iter: T) {
        self.diagnostics.extend(iter);
    }
}

impl FromIterator<Diagnostic> for DiagnosticBag {
    fn from_iter<T: IntoIterator<Item = Diagnostic>>(iter: T) -> DiagnosticBag {
        DiagnosticBag {
            diagnostics: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for DiagnosticBag {
    type Item = Diagnostic;
    type IntoIter = std::vec::IntoIter<Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diagnostics.into_iter()
    }
}

impl<'a> IntoIterator for &'a DiagnosticBag {
    type Item = &'a Diagnostic;
    type IntoIter = std::slice::Iter<'a, Diagnostic>;
    fn into_iter(self) -> Self::IntoIter {
        self.diagnostics.iter()
    }
}

impl fmt::Display for DiagnosticBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Span;

    #[test]
    fn tallies_and_summary() {
        let mut bag = DiagnosticBag::new();
        assert!(bag.is_empty());
        assert_eq!(bag.summary(), "no findings");
        bag.push(Diagnostic::warning("W0207", "w1"));
        bag.push(Diagnostic::error("E0110", "e1"));
        bag.push(Diagnostic::error("E0301", "e2"));
        assert_eq!(bag.len(), 3);
        assert!(bag.has_errors());
        assert_eq!(bag.error_count(), 2);
        assert_eq!(bag.warning_count(), 1);
        assert_eq!(bag.summary(), "2 errors, 1 warning");
    }

    #[test]
    fn sort_orders_by_severity_then_position() {
        let mut bag = DiagnosticBag::new();
        bag.push(Diagnostic::warning("W0001", "early warning").with_span(Span::new(0, 1)));
        bag.push(Diagnostic::error("E0002", "late error").with_span(Span::new(50, 51)));
        bag.push(Diagnostic::error("E0001", "spanless error"));
        bag.push(Diagnostic::error("E0003", "early error").with_span(Span::new(2, 3)));
        bag.sort();
        let codes: Vec<_> = bag.iter().map(|d| d.code).collect();
        assert_eq!(codes, ["E0003", "E0002", "E0001", "W0001"]);
        assert_eq!(bag.first().unwrap().code, "E0003");
    }

    #[test]
    fn merge_and_collect() {
        let mut a: DiagnosticBag = [Diagnostic::error("E1", "x")].into_iter().collect();
        let mut b = DiagnosticBag::new();
        b.push(Diagnostic::warning("W1", "y"));
        a.merge(b);
        assert_eq!(a.len(), 2);
        a.extend([Diagnostic::warning("W2", "z")]);
        assert_eq!(a.into_vec().len(), 3);
    }

    #[test]
    fn display_lists_compact_lines() {
        let mut bag = DiagnosticBag::new();
        bag.push(Diagnostic::error("E1", "one"));
        bag.push(Diagnostic::warning("W1", "two"));
        assert_eq!(bag.to_string(), "error[E1]: one\nwarning[W1]: two");
    }
}
