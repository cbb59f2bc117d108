//! EFSM statecharts: the classifier behaviour of active classes.
//!
//! The paper (§4.1) models functional components as "asynchronous
//! communicating Extended Finite State Machines". A [`StateMachine`] here is
//! exactly that: a set of named states, an initial state, typed variables,
//! and transitions with signal/timer/completion triggers, guards, and
//! action-language effect lists.
//!
//! Execution semantics (implemented in `tut-sim`):
//!
//! * Each process (instance of an active class) has its own input queue and
//!   executes run-to-completion steps.
//! * A step consumes one queue entry (signal or expired timer), picks the
//!   first enabled transition out of the current state in declaration
//!   order, executes its actions, and enters the target state.
//! * After entering a state, *completion* transitions (no trigger) whose
//!   guard holds fire immediately, still within the same step.
//! * Signals with no matching transition in the current state are dropped
//!   (logged as discarded), as in SDL/TAU semantics.

use crate::action::{Expr, Statement};
use crate::error::{Error, Result};
use crate::ids::{SignalId, StateId, TransitionId};
use crate::value::{DataType, Value};

/// The event that triggers a transition.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Trigger {
    /// The arrival of a signal of the given type.
    Signal(SignalId),
    /// Expiry of a named timer armed with `SetTimer`.
    Timer(String),
    /// A completion transition: fires as soon as the source state is
    /// entered (subject to its guard).
    Completion,
}

/// A typed variable of the state machine (the "extended" part of EFSM).
#[derive(Clone, PartialEq, Debug)]
pub struct Variable {
    /// Variable name.
    pub name: String,
    /// Variable type.
    pub data_type: DataType,
    /// Initial value (must match `data_type`).
    pub init: Value,
}

/// A state of the machine.
#[derive(Clone, PartialEq, Debug)]
pub struct State {
    name: String,
    entry: Vec<Statement>,
}

impl State {
    /// The state name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Entry actions executed whenever the state is entered.
    pub fn entry(&self) -> &[Statement] {
        &self.entry
    }
}

/// A transition between two states.
#[derive(Clone, PartialEq, Debug)]
pub struct Transition {
    source: StateId,
    target: StateId,
    trigger: Trigger,
    guard: Option<Expr>,
    actions: Vec<Statement>,
}

impl Transition {
    /// Source state.
    pub fn source(&self) -> StateId {
        self.source
    }

    /// Target state.
    pub fn target(&self) -> StateId {
        self.target
    }

    /// The triggering event.
    pub fn trigger(&self) -> &Trigger {
        &self.trigger
    }

    /// The guard expression, if any.
    pub fn guard(&self) -> Option<&Expr> {
        self.guard.as_ref()
    }

    /// The effect list executed when the transition fires.
    pub fn actions(&self) -> &[Statement] {
        &self.actions
    }
}

/// An extended finite state machine.
///
/// # Example
///
/// ```
/// use tut_uml::statemachine::{StateMachine, Trigger};
/// use tut_uml::action::{Expr, Statement};
/// use tut_uml::value::{DataType, Value};
/// use tut_uml::ids::SignalId;
///
/// let ping = SignalId::from_index(0);
/// let mut sm = StateMachine::new("Echo");
/// sm.add_variable("count", DataType::Int, Value::Int(0));
/// let idle = sm.add_state("Idle");
/// sm.set_initial(idle);
/// sm.add_transition(
///     idle,
///     idle,
///     Trigger::Signal(ping),
///     None,
///     vec![Statement::Assign {
///         var: "count".into(),
///         expr: Expr::var("count").bin(tut_uml::action::BinOp::Add, Expr::int(1)),
///     }],
/// );
/// assert!(sm.check().is_ok());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct StateMachine {
    name: String,
    variables: Vec<Variable>,
    states: Vec<State>,
    initial: Option<StateId>,
    transitions: Vec<Transition>,
}

impl StateMachine {
    /// Creates an empty machine with the given name.
    pub fn new(name: impl Into<String>) -> StateMachine {
        StateMachine {
            name: name.into(),
            variables: Vec::new(),
            states: Vec::new(),
            initial: None,
            transitions: Vec::new(),
        }
    }

    /// The machine name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a variable with an initial value.
    pub fn add_variable(&mut self, name: impl Into<String>, data_type: DataType, init: Value) {
        debug_assert_eq!(init.data_type(), data_type, "initial value type mismatch");
        self.variables.push(Variable {
            name: name.into(),
            data_type,
            init,
        });
    }

    /// The declared variables.
    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    /// Adds a state.
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        self.add_state_with_entry(name, Vec::new())
    }

    /// Adds a state with entry actions.
    pub fn add_state_with_entry(
        &mut self,
        name: impl Into<String>,
        entry: Vec<Statement>,
    ) -> StateId {
        let id = StateId::from_index(self.states.len());
        self.states.push(State {
            name: name.into(),
            entry,
        });
        id
    }

    /// Returns a state by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this machine.
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id.index()]
    }

    /// Iterates over all states with ids.
    pub fn states(&self) -> impl Iterator<Item = (StateId, &State)> + '_ {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (StateId::from_index(i), s))
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Sets the initial state.
    pub fn set_initial(&mut self, state: StateId) {
        self.initial = Some(state);
    }

    /// The initial state, if set.
    pub fn initial(&self) -> Option<StateId> {
        self.initial
    }

    /// Adds a transition. Transitions out of the same state are tried in
    /// the order they were added.
    pub fn add_transition(
        &mut self,
        source: StateId,
        target: StateId,
        trigger: Trigger,
        guard: Option<Expr>,
        actions: Vec<Statement>,
    ) -> TransitionId {
        let id = TransitionId::from_index(self.transitions.len());
        self.transitions.push(Transition {
            source,
            target,
            trigger,
            guard,
            actions,
        });
        id
    }

    /// Returns a transition by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this machine.
    pub fn transition(&self, id: TransitionId) -> &Transition {
        &self.transitions[id.index()]
    }

    /// Iterates over all transitions with ids.
    pub fn transitions(&self) -> impl Iterator<Item = (TransitionId, &Transition)> + '_ {
        self.transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (TransitionId::from_index(i), t))
    }

    /// Transitions leaving `state`, in declaration (priority) order.
    pub fn transitions_from(
        &self,
        state: StateId,
    ) -> impl Iterator<Item = (TransitionId, &Transition)> + '_ {
        self.transitions().filter(move |(_, t)| t.source == state)
    }

    /// The set of signal types this machine can consume (its input
    /// alphabet), used by validation and static analysis.
    pub(crate) fn input_alphabet(&self) -> Vec<SignalId> {
        let mut sigs: Vec<SignalId> = self
            .transitions
            .iter()
            .filter_map(|t| match &t.trigger {
                Trigger::Signal(s) => Some(*s),
                _ => None,
            })
            .collect();
        sigs.sort();
        sigs.dedup();
        sigs
    }

    /// Checks machine-local well-formedness.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WellFormedness`] when the machine has no states, no
    /// initial state, a transition referencing an out-of-range state, or a
    /// state unreachable from the initial state.
    pub fn check(&self) -> Result<()> {
        if self.states.is_empty() {
            return Err(Error::WellFormedness(format!(
                "state machine `{}` has no states",
                self.name
            )));
        }
        let initial = self.initial.ok_or_else(|| {
            Error::WellFormedness(format!(
                "state machine `{}` has no initial state",
                self.name
            ))
        })?;
        if initial.index() >= self.states.len() {
            return Err(Error::WellFormedness(format!(
                "state machine `{}` initial state {initial} is out of range",
                self.name
            )));
        }
        for (id, t) in self.transitions() {
            for endpoint in [t.source, t.target] {
                if endpoint.index() >= self.states.len() {
                    return Err(Error::WellFormedness(format!(
                        "state machine `{}` transition {id} references missing state {endpoint}",
                        self.name
                    )));
                }
            }
        }
        // Reachability from the initial state.
        let mut reachable = vec![false; self.states.len()];
        let mut stack = vec![initial];
        while let Some(s) = stack.pop() {
            if std::mem::replace(&mut reachable[s.index()], true) {
                continue;
            }
            for (_, t) in self.transitions_from(s) {
                stack.push(t.target);
            }
        }
        if let Some(unreachable) = reachable.iter().position(|r| !r) {
            return Err(Error::WellFormedness(format!(
                "state machine `{}`: state `{}` is unreachable from the initial state",
                self.name,
                self.states[unreachable].name()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::BinOp;

    fn two_state_machine() -> (StateMachine, StateId, StateId, SignalId) {
        let sig = SignalId::from_index(0);
        let mut sm = StateMachine::new("M");
        let a = sm.add_state("A");
        let b = sm.add_state("B");
        sm.set_initial(a);
        sm.add_transition(a, b, Trigger::Signal(sig), None, vec![]);
        sm.add_transition(b, a, Trigger::Completion, None, vec![]);
        (sm, a, b, sig)
    }

    #[test]
    fn check_accepts_well_formed_machine() {
        let (sm, ..) = two_state_machine();
        assert!(sm.check().is_ok());
    }

    #[test]
    fn check_rejects_empty_and_initial_less() {
        let sm = StateMachine::new("E");
        assert!(sm.check().is_err());
        let mut sm = StateMachine::new("N");
        sm.add_state("only");
        assert!(sm.check().unwrap_err().to_string().contains("initial"));
    }

    #[test]
    fn check_rejects_unreachable_states() {
        let (mut sm, _a, _b, _sig) = two_state_machine();
        sm.add_state("Island");
        let err = sm.check().unwrap_err();
        assert!(err.to_string().contains("unreachable"));
    }

    #[test]
    fn check_rejects_dangling_transition_states() {
        let sig = SignalId::from_index(0);
        let mut sm = StateMachine::new("D");
        let a = sm.add_state("A");
        sm.set_initial(a);
        sm.add_transition(
            a,
            StateId::from_index(9),
            Trigger::Signal(sig),
            None,
            vec![],
        );
        assert!(sm.check().is_err());
    }

    #[test]
    fn transitions_from_preserves_declaration_order() {
        let sig = SignalId::from_index(0);
        let mut sm = StateMachine::new("P");
        let a = sm.add_state("A");
        let b = sm.add_state("B");
        sm.set_initial(a);
        let first = sm.add_transition(
            a,
            b,
            Trigger::Signal(sig),
            Some(Expr::var("x").bin(BinOp::Gt, Expr::int(0))),
            vec![],
        );
        let second = sm.add_transition(a, b, Trigger::Signal(sig), None, vec![]);
        let order: Vec<_> = sm.transitions_from(a).map(|(id, _)| id).collect();
        assert_eq!(order, vec![first, second]);
    }

    #[test]
    fn input_alphabet_dedupes() {
        let s0 = SignalId::from_index(0);
        let s1 = SignalId::from_index(1);
        let mut sm = StateMachine::new("A");
        let a = sm.add_state("A");
        sm.set_initial(a);
        sm.add_transition(a, a, Trigger::Signal(s1), None, vec![]);
        sm.add_transition(a, a, Trigger::Signal(s0), None, vec![]);
        sm.add_transition(a, a, Trigger::Signal(s1), None, vec![]);
        sm.add_transition(a, a, Trigger::Timer("t".into()), None, vec![]);
        assert_eq!(sm.input_alphabet(), vec![s0, s1]);
    }

    #[test]
    fn variables_carry_initial_values() {
        let mut sm = StateMachine::new("V");
        sm.add_variable("n", DataType::Int, Value::Int(42));
        assert_eq!(sm.variables()[0].init, Value::Int(42));
    }
}
