//! The [`Diagnostic`] type: one finding with a stable code.

use std::fmt;

use crate::span::Span;

/// How serious a diagnostic is.
///
/// The ordering is semantic: `Warning < Error`, and a sorted report lists
/// errors first. This is the *single* severity model shared by UML
/// well-formedness
/// checking, the TUT-Profile design rules, the action-language front end,
/// and code generation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Advisory: the model is usable but suspicious.
    Warning,
    /// The model violates a rule and must be fixed before code
    /// generation / simulation.
    Error,
}

impl Severity {
    /// The lowercase renderer keyword (`"error"`, `"warning"`).
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a stable code, a severity, a message, and optional
/// location/context attachments.
///
/// Codes are short stable identifiers (`E0101`, `W0207`) listed in the
/// crate-level registry; tooling keys on them, so they must not change
/// meaning across releases.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Severity of the finding.
    pub severity: Severity,
    /// Stable diagnostic code, e.g. `"E0110"`.
    pub code: &'static str,
    /// Human-readable, lowercase, single-sentence description.
    pub message: String,
    /// Primary source span, when the finding is attributable to text.
    pub span: Option<Span>,
    /// Free-form notes appended to the rendering.
    pub notes: Vec<String>,
    /// A concrete suggestion for fixing the problem.
    pub help: Option<String>,
    /// The model element at fault, in its display form (e.g. `"class3"`),
    /// for findings about model structure rather than text. Drivers that
    /// know where each element was declared (the XMI reader's span index)
    /// use this to attach a [`Span`] after the fact.
    pub element: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with the given severity.
    pub fn new(severity: Severity, code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            message: message.into(),
            span: None,
            notes: Vec::new(),
            help: None,
            element: None,
        }
    }

    /// An error-severity diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Error, code, message)
    }

    /// A warning-severity diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic::new(Severity::Warning, code, message)
    }

    /// Attaches the primary span.
    pub fn with_span(mut self, span: Span) -> Diagnostic {
        self.span = Some(span);
        self
    }

    /// Appends a note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Diagnostic {
        self.notes.push(note.into());
        self
    }

    /// Attaches the offending model element (display form).
    pub fn with_element(mut self, element: impl Into<String>) -> Diagnostic {
        self.element = Some(element.into());
        self
    }

    /// True for error severity.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }

    /// Returns a copy with the primary span shifted by `base` bytes, mapping a fragment-relative diagnostic (cached
    /// against a sub-document) back into the enclosing document.
    /// [`Span::NONE`] spans stay `NONE` — they mark "no location", not
    /// offset zero.
    pub fn rebased(&self, base: usize) -> Diagnostic {
        let mut out = self.clone();
        if let Some(span) = out.span {
            if span != Span::NONE {
                out.span = Some(span.offset(base));
            }
        }
        out
    }
}

/// `Display` renders the compact one-line form (no source excerpt):
/// `error[E0110]: expected `;` (class3)`.
impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(element) = &self.element {
            write!(f, " ({element})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_semantically() {
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.to_string(), "error");
    }

    #[test]
    fn builder_and_display() {
        let d = Diagnostic::error("E0110", "expected `;`")
            .with_span(Span::new(4, 5))
            .with_note("statements are `;`-terminated")
            .with_element("class3");
        assert!(d.is_error());
        assert_eq!(d.span, Some(Span::new(4, 5)));
        assert_eq!(d.notes.len(), 1);
        assert_eq!(d.to_string(), "error[E0110]: expected `;` (class3)");
        let w = Diagnostic::warning("W0207", "ungrouped");
        assert!(!w.is_error());
        assert_eq!(w.to_string(), "warning[W0207]: ungrouped");
    }
}
