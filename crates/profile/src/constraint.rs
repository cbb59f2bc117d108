//! Design-rule framework: constraints evaluated over a model and its
//! stereotype applications.
//!
//! The paper's profile comes with "strict rules how to use" the
//! stereotypes (§2.2). Those rules are values of types implementing
//! [`Constraint`], grouped into a [`ConstraintSet`]; the TUT-Profile rule
//! catalogue lives in the `tut-profile` crate.
//!
//! Rule findings are ordinary [`tut_diag::Diagnostic`]s — the same
//! currency the UML well-formedness checker and the action-language type
//! checker use — so one report can mix all three. By convention a rule's
//! finding carries a stable `E02xx`/`W02xx` code, the offending element's
//! display form in [`tut_diag::Diagnostic::element`], and the rule name as
//! a note.

use std::fmt;

use tut_diag::DiagnosticBag;
use tut_uml::Model;

use crate::apply::Applications;
use crate::profile::Profile;

/// A profile design rule.
pub trait Constraint: Send + Sync {
    /// Stable rule name, e.g. `"process-instantiates-component"`.
    fn name(&self) -> &str;

    /// Short description of what the rule enforces.
    fn description(&self) -> &str;

    /// Evaluates the rule, appending findings to `out`.
    fn check(
        &self,
        model: &Model,
        profile: &Profile,
        applications: &Applications,
        out: &mut DiagnosticBag,
    );
}

/// An ordered collection of constraints evaluated together.
#[derive(Default)]
pub struct ConstraintSet {
    constraints: Vec<Box<dyn Constraint>>,
}

impl ConstraintSet {
    /// Creates an empty set.
    pub fn new() -> ConstraintSet {
        ConstraintSet::default()
    }

    /// Adds a constraint.
    pub fn push(&mut self, constraint: impl Constraint + 'static) -> &mut Self {
        self.constraints.push(Box::new(constraint));
        self
    }

    /// Number of constraints in the set.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Iterates over the constraints.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Constraint> + '_ {
        self.constraints.iter().map(Box::as_ref)
    }

    /// Runs every constraint and returns all findings, in rule order.
    pub fn check_all(
        &self,
        model: &Model,
        profile: &Profile,
        applications: &Applications,
    ) -> DiagnosticBag {
        let mut out = DiagnosticBag::new();
        for c in &self.constraints {
            c.check(model, profile, applications, &mut out);
        }
        out
    }
}

impl fmt::Debug for ConstraintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConstraintSet")
            .field(
                "rules",
                &self
                    .constraints
                    .iter()
                    .map(|c| c.name())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// A constraint built from a closure; handy for one-off rules and tests.
pub struct FnConstraint<F> {
    name: String,
    description: String,
    check: F,
}

impl<F> FnConstraint<F>
where
    F: Fn(&Model, &Profile, &Applications, &mut DiagnosticBag) + Send + Sync,
{
    /// Wraps a closure as a [`Constraint`].
    pub fn new(name: impl Into<String>, description: impl Into<String>, check: F) -> Self {
        FnConstraint {
            name: name.into(),
            description: description.into(),
            check,
        }
    }
}

impl<F> Constraint for FnConstraint<F>
where
    F: Fn(&Model, &Profile, &Applications, &mut DiagnosticBag) + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn description(&self) -> &str {
        &self.description
    }

    fn check(
        &self,
        model: &Model,
        profile: &Profile,
        applications: &Applications,
        out: &mut DiagnosticBag,
    ) {
        (self.check)(model, profile, applications, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_diag::Diagnostic;

    fn no_empty_model_rule() -> impl Constraint {
        FnConstraint::new(
            "non-empty-model",
            "models must declare at least one class",
            |model: &Model, _p: &Profile, _a: &Applications, out: &mut DiagnosticBag| {
                if model.classes().count() == 0 {
                    out.push(
                        Diagnostic::error("E0999", "model has no classes")
                            .with_note("rule: non-empty-model"),
                    );
                }
            },
        )
    }

    #[test]
    fn constraint_set_collects_findings() {
        let mut set = ConstraintSet::new();
        set.push(no_empty_model_rule());
        let model = Model::new("Empty");
        let profile = Profile::new("P");
        let apps = Applications::new();
        let findings = set.check_all(&model, &profile, &apps);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings.first().unwrap().code, "E0999");
        assert!(findings
            .first()
            .unwrap()
            .notes
            .iter()
            .any(|n| n.contains("non-empty-model")));
        assert!(findings.has_errors());
    }

    #[test]
    fn debug_lists_rule_names() {
        let mut set = ConstraintSet::new();
        set.push(no_empty_model_rule());
        assert!(format!("{set:?}").contains("non-empty-model"));
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
    }
}
