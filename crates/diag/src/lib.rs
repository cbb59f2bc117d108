//! Compiler-grade spanned diagnostics for the TUT-Profile model front end.
//!
//! The paper's tool flow (§3, Figure 2) starts from UML model parsing and
//! feeds results back to the designer; the quality of that feedback is what
//! makes a UML flow productive. This crate is the shared diagnostics
//! substrate every front-end layer reports through:
//!
//! * [`Span`] — a byte range into a source text.
//! * [`SourceMap`] — resolves byte offsets to line:column and renders
//!   source excerpts.
//! * [`Diagnostic`] — one finding: a stable code (`E0101`, `W0207`, …), a
//!   [`Severity`], a message, an optional span, notes, and an optional
//!   help suggestion.
//! * [`DiagnosticBag`] — multi-error accumulation, severity sorting, and
//!   error/warning tallies, so one pass over a model reports everything.
//! * [`render`] — a rustc-style text renderer with source excerpts (a long
//!   line is cut to a window around the span) and a machine-readable JSON
//!   renderer.
//!
//! # Diagnostic code registry
//!
//! Codes are stable across releases; renderers and tests key on them.
//! `E` codes are errors, `W` codes warnings. The authoritative copy of
//! this table lives in `DESIGN.md` (section "Diagnostics").
//!
//! | Range | Layer | Meaning |
//! |-------|-------|---------|
//! | E0101 | `tut-uml::xml` | XML syntax error |
//! | E0102 | `tut-uml::xmi` | XMI structure error |
//! | E0103 | `tut-profile-core::interchange` | profile-application decoding error |
//! | E0110 | `tut-uml::textual` | action-language syntax error |
//! | E0111 | `tut-uml::textual` | unknown name (signal, builtin, cost class) |
//! | E0112 | `tut-uml::textual` | malformed literal / arity in the parser |
//! | E0201–E0215, W0204–W0214 | `tut-profile::rules` | TUT-Profile design rules |
//! | E0301–E0315 | `tut-uml::validate` | model well-formedness |
//! | E0316–E0318 | `tut-uml::action` | action type-check |
//! | E0401–E0402 | `tut-codegen` | code-generation dry run |
//!
//! # Example
//!
//! ```
//! use tut_diag::{Diagnostic, DiagnosticBag, SourceMap, Span};
//!
//! let source = SourceMap::new("guard.act", "len($p) > \n");
//! let mut bag = DiagnosticBag::new();
//! bag.push(
//!     Diagnostic::error("E0110", "expected an expression")
//!         .with_span(Span::point(10))
//!         .with_note("binary operators need a right-hand side"),
//! );
//! assert!(bag.has_errors());
//! let text = tut_diag::render::render_bag_text(&bag, Some(&source));
//! assert!(text.contains("error[E0110]"));
//! assert!(text.contains("guard.act:1:11"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bag;
pub mod diagnostic;
pub mod render;
pub mod source;
pub mod span;

pub use bag::DiagnosticBag;
pub use diagnostic::{Diagnostic, Severity};
pub use render::{render_bag_json, render_bag_text};
pub use source::{locate_in, LineCol, SourceMap};
pub use span::Span;
