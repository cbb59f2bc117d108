//! Model well-formedness checking.
//!
//! [`check_model`] verifies the structural invariants that every model must
//! satisfy regardless of profile (profile-specific design rules live in the
//! `tut-profile` crate). Findings are collected into a
//! [`DiagnosticBag`] rather than failing fast, so a designer sees every
//! problem at once, and each carries a stable `E03xx` code plus the display
//! form of the offending element (drivers that know where elements were
//! declared use it to attach source spans).

use std::collections::HashSet;

use tut_diag::{Diagnostic, DiagnosticBag};

use crate::ids::{ClassId, ElementRef};
use crate::model::Model;

/// Duplicate class name.
pub const E_DUP_CLASS: &str = "E0301";
/// Duplicate signal name.
pub const E_DUP_SIGNAL: &str = "E0302";
/// Duplicate package name.
pub const E_DUP_PACKAGE: &str = "E0303";
/// Duplicate part role name within one class.
pub const E_DUP_PART: &str = "E0304";
/// Part with multiplicity zero.
pub const E_ZERO_MULTIPLICITY: &str = "E0305";
/// Duplicate port name on one class.
pub const E_DUP_PORT: &str = "E0306";
/// Connector references a part owned by another class.
pub const E_CONNECTOR_FOREIGN_PART: &str = "E0307";
/// Connector end port is not a port of the part's type.
pub const E_CONNECTOR_BAD_PORT: &str = "E0308";
/// Delegation end port is not on the owning class.
pub const E_DELEGATION_BAD_PORT: &str = "E0309";
/// Assembly connector carries no signal.
pub const E_CONNECTOR_NO_SIGNAL: &str = "E0310";
/// Composition cycle.
pub const E_COMPOSITION_CYCLE: &str = "E0311";
/// State machine failed its structural check.
pub const E_BAD_STATE_MACHINE: &str = "E0312";
/// Behaviour consumes a signal no port provides.
pub const E_UNPROVIDED_TRIGGER: &str = "E0313";
/// Active class without classifier behaviour.
pub const E_ACTIVE_NO_BEHAVIOUR: &str = "E0314";
/// Generalisation cycle.
pub const E_GENERALISATION_CYCLE: &str = "E0315";

fn violation(code: &'static str, element: impl Into<ElementRef>, message: String) -> Diagnostic {
    Diagnostic::error(code, message).with_element(element.into().to_string())
}

/// Checks every structural invariant of `model` and returns all findings
/// (empty when the model is well-formed). Includes the flow-insensitive
/// action type-check over every behaviour.
///
/// Checked invariants:
///
/// 1. Names of classes, signals, and packages are unique
///    (`E0301`–`E0303`).
/// 2. Part role names are unique within their owner and have nonzero
///    multiplicity (`E0304`, `E0305`).
/// 3. Port names are unique within their owner (`E0306`).
/// 4. Connector ends reference ports that exist on the referenced part's
///    type (or on the owner itself for delegation ends), and the parts
///    belong to the connector's owner (`E0307`–`E0309`).
/// 5. Connected port pairs are compatible: every signal required by one end
///    is provided by the other (delegation ends pass signals through)
///    (`E0310`).
/// 6. Composition is acyclic (`E0311`).
/// 7. Every active class has a behaviour and it passes
///    [`crate::statemachine::StateMachine::check`]; signal triggers refer to
///    signals the class's ports provide; the behaviour's action programs
///    type-check (`E0312`–`E0314`, `E0316`–`E0318`).
/// 8. Generalisation is acyclic (`E0315`).
pub fn check_model(model: &Model) -> DiagnosticBag {
    let mut bag = DiagnosticBag::new();
    check_unique_names(model, &mut bag);
    check_parts_and_ports(model, &mut bag);
    check_connectors(model, &mut bag);
    check_composition_cycles(model, &mut bag);
    check_behaviors(model, &mut bag);
    check_generalisation_cycles(model, &mut bag);
    bag
}

/// Pass 1: unique class/signal/package names (`E0301`–`E0303`).
///
/// The passes below are public so the incremental front end can cache
/// the behaviour pass per class apart from the others; [`check_model`]
/// composes them in a fixed order and whole-model callers should keep
/// using it.
pub fn check_unique_names(model: &Model, bag: &mut DiagnosticBag) {
    let mut seen: HashSet<&str> = HashSet::new();
    for (id, class) in model.classes() {
        if !seen.insert(class.name()) {
            bag.push(violation(
                E_DUP_CLASS,
                id,
                format!("duplicate class name `{}`", class.name()),
            ));
        }
    }
    let mut seen: HashSet<&str> = HashSet::new();
    for (id, sig) in model.signals() {
        if !seen.insert(sig.name()) {
            bag.push(violation(
                E_DUP_SIGNAL,
                id,
                format!("duplicate signal name `{}`", sig.name()),
            ));
        }
    }
    let mut seen: HashSet<&str> = HashSet::new();
    for (id, pkg) in model.packages() {
        if !seen.insert(pkg.name()) {
            bag.push(violation(
                E_DUP_PACKAGE,
                id,
                format!("duplicate package name `{}`", pkg.name()),
            ));
        }
    }
}

/// Pass 2: part/port invariants (`E0304`–`E0306`) for every class, in
/// class order.
pub fn check_parts_and_ports(model: &Model, bag: &mut DiagnosticBag) {
    for (id, _) in model.classes() {
        check_parts_and_ports_of(model, id, bag);
    }
}

/// Pass 2 restricted to one class: duplicate part names, zero
/// multiplicity, duplicate port names.
fn check_parts_and_ports_of(model: &Model, class_id: ClassId, bag: &mut DiagnosticBag) {
    let class = model.class(class_id);
    {
        let mut seen: HashSet<&str> = HashSet::new();
        for &part in class.parts() {
            let p = model.property(part);
            if !seen.insert(p.name()) {
                bag.push(violation(
                    E_DUP_PART,
                    part,
                    format!(
                        "duplicate part name `{}` in class `{}`",
                        p.name(),
                        class.name()
                    ),
                ));
            }
            if p.multiplicity() == 0 {
                bag.push(violation(
                    E_ZERO_MULTIPLICITY,
                    part,
                    format!("part `{}` has multiplicity 0", p.name()),
                ));
            }
        }
    }
    let mut seen: HashSet<&str> = HashSet::new();
    for &port in class.ports() {
        let p = model.port(port);
        if !seen.insert(p.name()) {
            bag.push(violation(
                E_DUP_PORT,
                port,
                format!(
                    "duplicate port name `{}` on class `{}`",
                    p.name(),
                    class.name()
                ),
            ));
        }
    }
}

/// Pass 3: connector end/compatibility invariants (`E0307`–`E0310`).
pub fn check_connectors(model: &Model, bag: &mut DiagnosticBag) {
    for (conn_id, conn) in model.connectors() {
        let owner = conn.owner();
        let mut end_signals: Vec<(HashSet<_>, HashSet<_>)> = Vec::new();
        for end in conn.ends() {
            let port = model.port(end.port);
            match end.part {
                Some(part) => {
                    let p = model.property(part);
                    if p.owner() != owner {
                        bag.push(violation(
                            E_CONNECTOR_FOREIGN_PART,
                            conn_id,
                            format!(
                                "connector `{}` references part `{}` that belongs to another class",
                                conn.name(),
                                p.name()
                            ),
                        ));
                    }
                    if port.owner() != p.type_() {
                        bag.push(violation(
                            E_CONNECTOR_BAD_PORT,
                            conn_id,
                            format!(
                                "connector `{}` end port `{}` is not a port of part type `{}`",
                                conn.name(),
                                port.name(),
                                model.class(p.type_()).name()
                            ),
                        ));
                    }
                }
                None => {
                    if port.owner() != owner {
                        bag.push(violation(
                            E_DELEGATION_BAD_PORT,
                            conn_id,
                            format!(
                                "connector `{}` delegation end port `{}` is not on the owning class",
                                conn.name(),
                                port.name()
                            ),
                        ));
                    }
                }
            }
            end_signals.push((
                port.required().iter().copied().collect(),
                port.provided().iter().copied().collect(),
            ));
        }
        // Assembly compatibility (skip for delegation connectors, which
        // relay rather than terminate signals). Ports may serve several
        // connectors, each carrying a subset of the port's signals, so the
        // rule is: the connector must carry at least one signal — some
        // signal required by one end is provided by the other.
        let is_delegation = conn.ends().iter().any(|e| e.part.is_none());
        if !is_delegation {
            let (req_a, prov_a) = &end_signals[0];
            let (req_b, prov_b) = &end_signals[1];
            let carries_ab = req_a.intersection(prov_b).count();
            let carries_ba = req_b.intersection(prov_a).count();
            let any_required = !req_a.is_empty() || !req_b.is_empty();
            if any_required && carries_ab + carries_ba == 0 {
                bag.push(violation(
                    E_CONNECTOR_NO_SIGNAL,
                    conn_id,
                    format!(
                        "connector `{}` carries no signal: nothing required by one end is provided by the other",
                        conn.name()
                    ),
                ));
            }
        }
    }
}

/// Pass 4: composition acyclicity (`E0311`).
pub fn check_composition_cycles(model: &Model, bag: &mut DiagnosticBag) {
    // DFS over the "contains a part of type" relation.
    fn visit(
        model: &Model,
        class: ClassId,
        stack: &mut Vec<ClassId>,
        done: &mut HashSet<ClassId>,
        bag: &mut DiagnosticBag,
    ) {
        if done.contains(&class) {
            return;
        }
        if stack.contains(&class) {
            bag.push(violation(
                E_COMPOSITION_CYCLE,
                class,
                format!(
                    "composition cycle: class `{}` transitively contains itself",
                    model.class(class).name()
                ),
            ));
            return;
        }
        stack.push(class);
        for &part in model.class(class).parts() {
            visit(model, model.property(part).type_(), stack, done, bag);
        }
        stack.pop();
        done.insert(class);
    }
    let mut done = HashSet::new();
    for (id, _) in model.classes() {
        visit(model, id, &mut Vec::new(), &mut done, bag);
    }
}

/// Pass 5: behaviour invariants (`E0312`–`E0314`, plus the action
/// type-check's `E0316`–`E0318`) for every class, in class order.
pub(crate) fn check_behaviors(model: &Model, bag: &mut DiagnosticBag) {
    for (class_id, _) in model.classes() {
        check_behavior_of(model, class_id, bag);
    }
}

/// Pass 5 restricted to one class: structural state-machine check,
/// trigger/port coverage, and the flow-insensitive action type-check.
/// Reads the class, its ports, its own state machine, and the signal
/// table, so the incremental front end caches it per class keyed on the
/// class's behaviour segment.
pub fn check_behavior_of(model: &Model, class_id: ClassId, bag: &mut DiagnosticBag) {
    let class = model.class(class_id);
    match class.behavior() {
        Some(sm_id) => {
            let sm = model.state_machine(sm_id);
            if let Err(err) = sm.check() {
                bag.push(violation(E_BAD_STATE_MACHINE, class_id, err.to_string()));
            }
            // Signal triggers must be receivable through some port.
            let provided: HashSet<_> = class
                .ports()
                .iter()
                .flat_map(|&p| model.port(p).provided().iter().copied())
                .collect();
            for sig in sm.input_alphabet() {
                if !provided.contains(&sig) {
                    bag.push(violation(
                        E_UNPROVIDED_TRIGGER,
                        class_id,
                        format!(
                            "behaviour of `{}` consumes signal `{}` that no port provides",
                            class.name(),
                            model.signal(sig).name()
                        ),
                    ));
                }
            }
            // Flow-insensitive action type-check (E0316–E0318),
            // attributed to the owning class.
            let element = ElementRef::from(class_id).to_string();
            for mut diag in crate::action::type_check(model, sm) {
                diag.element = Some(element.clone());
                bag.push(diag);
            }
        }
        None => {
            if class.is_active() {
                bag.push(violation(
                    E_ACTIVE_NO_BEHAVIOUR,
                    class_id,
                    format!(
                        "active class `{}` has no classifier behaviour",
                        class.name()
                    ),
                ));
            }
        }
    }
}

/// Pass 6: generalisation acyclicity (`E0315`).
pub fn check_generalisation_cycles(model: &Model, bag: &mut DiagnosticBag) {
    for (id, _) in model.classes() {
        let mut slow = id;
        let mut fast = id;
        loop {
            fast = match model.class(fast).general() {
                Some(g) => g,
                None => break,
            };
            fast = match model.class(fast).general() {
                Some(g) => g,
                None => break,
            };
            slow = model.class(slow).general().expect("slow lags fast");
            if slow == fast {
                bag.push(violation(
                    E_GENERALISATION_CYCLE,
                    id,
                    format!(
                        "generalisation cycle involving class `{}`",
                        model.class(id).name()
                    ),
                ));
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ConnectorEnd;
    use crate::statemachine::{StateMachine, Trigger};

    #[test]
    fn clean_model_has_no_violations() {
        let mut m = Model::new("M");
        let top = m.add_class("Top");
        let worker = m.add_class("Worker");
        let part = m.add_part(top, "w", worker);
        let sig = m.add_signal("S");
        let pin = m.add_port(worker, "in");
        let pout = m.add_port(top, "out");
        m.port_mut(pin).add_provided(sig);
        m.port_mut(pout).add_required(sig);
        m.add_connector(
            top,
            "c",
            ConnectorEnd {
                part: None,
                port: pout,
            },
            ConnectorEnd {
                part: Some(part),
                port: pin,
            },
        );
        let mut sm = StateMachine::new("B");
        let s = sm.add_state("S0");
        sm.set_initial(s);
        sm.add_transition(s, s, Trigger::Signal(sig), None, vec![]);
        m.add_state_machine(worker, sm);
        let bag = check_model(&m);
        assert!(bag.is_empty(), "{bag}");
    }

    #[test]
    fn duplicate_names_reported() {
        let mut m = Model::new("M");
        m.add_class("Same");
        m.add_class("Same");
        m.add_signal("S");
        m.add_signal("S");
        let bag = check_model(&m);
        assert_eq!(bag.len(), 2);
        let codes: Vec<_> = bag.iter().map(|d| d.code).collect();
        assert_eq!(codes, [E_DUP_CLASS, E_DUP_SIGNAL]);
        assert!(bag.iter().all(|d| d.element.is_some()));
    }

    #[test]
    fn incompatible_connector_reported() {
        let mut m = Model::new("M");
        let top = m.add_class("Top");
        let a = m.add_class("A");
        let b = m.add_class("B");
        let pa = m.add_part(top, "a", a);
        let pb = m.add_part(top, "b", b);
        let sig = m.add_signal("S");
        let out = m.add_port(a, "out");
        let inp = m.add_port(b, "in");
        m.port_mut(out).add_required(sig);
        // `in` does not provide S.
        m.add_connector(
            top,
            "c",
            ConnectorEnd {
                part: Some(pa),
                port: out,
            },
            ConnectorEnd {
                part: Some(pb),
                port: inp,
            },
        );
        let bag = check_model(&m);
        assert!(bag.iter().any(|d| d.code == E_CONNECTOR_NO_SIGNAL), "{bag}");

        // Providing the signal fixes it.
        m.port_mut(inp).add_provided(sig);
        assert!(check_model(&m).is_empty());
    }

    #[test]
    fn connector_port_on_wrong_class_reported() {
        let mut m = Model::new("M");
        let top = m.add_class("Top");
        let a = m.add_class("A");
        let part = m.add_part(top, "a", a);
        let stray = m.add_class("Stray");
        let stray_port = m.add_port(stray, "p");
        m.add_connector(
            top,
            "c",
            ConnectorEnd {
                part: Some(part),
                port: stray_port,
            },
            ConnectorEnd {
                part: Some(part),
                port: stray_port,
            },
        );
        let bag = check_model(&m);
        assert!(bag.iter().any(|d| d.code == E_CONNECTOR_BAD_PORT), "{bag}");
    }

    #[test]
    fn composition_cycle_reported() {
        let mut m = Model::new("M");
        let a = m.add_class("A");
        let b = m.add_class("B");
        m.add_part(a, "b", b);
        m.add_part(b, "a", a);
        let bag = check_model(&m);
        assert!(bag.iter().any(|d| d.code == E_COMPOSITION_CYCLE), "{bag}");
    }

    #[test]
    fn behaviour_consuming_unprovided_signal_reported() {
        let mut m = Model::new("M");
        let c = m.add_class("C");
        let sig = m.add_signal("S");
        let mut sm = StateMachine::new("B");
        let s = sm.add_state("S0");
        sm.set_initial(s);
        sm.add_transition(s, s, Trigger::Signal(sig), None, vec![]);
        m.add_state_machine(c, sm);
        let bag = check_model(&m);
        assert!(bag.iter().any(|d| d.code == E_UNPROVIDED_TRIGGER), "{bag}");
    }

    #[test]
    fn generalisation_cycle_reported() {
        let mut m = Model::new("M");
        let a = m.add_class("A");
        let b = m.add_class("B");
        m.class_mut(a).set_general(Some(b));
        m.class_mut(b).set_general(Some(a));
        let bag = check_model(&m);
        assert!(
            bag.iter().any(|d| d.code == E_GENERALISATION_CYCLE),
            "{bag}"
        );
    }

    #[test]
    fn active_class_without_behaviour_reported() {
        let mut m = Model::new("M");
        let c = m.add_class("C");
        m.class_mut(c).set_active(true);
        let bag = check_model(&m);
        assert!(bag.iter().any(|d| d.code == E_ACTIVE_NO_BEHAVIOUR), "{bag}");
    }

    #[test]
    fn action_type_errors_surface_with_class_attribution() {
        use crate::action::{Expr, Statement, E_UNBOUND_VAR};
        let mut m = Model::new("M");
        let c = m.add_class("C");
        let mut sm = StateMachine::new("B");
        let s = sm.add_state("S0");
        sm.set_initial(s);
        sm.add_transition(
            s,
            s,
            Trigger::Completion,
            None,
            vec![Statement::Assign {
                var: "x".into(),
                expr: Expr::var("ghost"),
            }],
        );
        m.add_state_machine(c, sm);
        let bag = check_model(&m);
        let finding = bag
            .iter()
            .find(|d| d.code == E_UNBOUND_VAR)
            .unwrap_or_else(|| panic!("no unbound-var finding in {bag}"));
        assert_eq!(
            finding.element.as_deref(),
            Some(ElementRef::from(c).to_string().as_str())
        );
    }
}
