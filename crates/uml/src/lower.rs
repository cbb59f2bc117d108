//! The action language lowered to slots: the one evaluator.
//!
//! A [`Statement`] names what it reads and writes: variables, signal
//! parameters, ports, timers and counters are all strings. Looking those
//! names up on every execution is what an interpreter of the AST pays
//! for; the names are fixed when the model is built. Lowering resolves
//! them once:
//!
//! * variables become dense **slots** (declared variables first, in
//!   declaration order, then every other name in order of first
//!   mention); a slot holds `None` until its first write and reads as
//!   ``unbound variable `x` `` until then;
//! * a signal parameter `$p` becomes a machine-wide **parameter slot**;
//!   a [`ParamMap`] per signal maps it to its position in that signal's
//!   payload, so the delivered `Vec<Value>` is the parameter frame
//!   itself. Parameters are resolved per signal, not per transition,
//!   because entry actions run with the trigger's parameters still
//!   bound and one entry action may be reached by several signals;
//! * `send`, `set_timer`/`cancel_timer` and `count` carry a send-site,
//!   timer or counter index;
//! * every statement carries its static weight ([`Expr::weight`]) and
//!   every assignment its self-append flag, computed once.
//!
//! [`MachineCode`] is a whole state machine in this form, with its
//! transitions grouped by source state and trigger. The name-based
//! [`Expr::eval`] and [`crate::action::execute`] are thin wrappers that
//! lower against an [`Env`]'s names and run this same code.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::action::{
    arity_error, eval_binary, eval_builtin, int_operands_error, BinOp, Builtin, CostClass, Effect,
    Env, Expr, Statement, UnaryOp, ARG_UNSET, MAX_ARITY,
};
use crate::error::{Error, Result};
use crate::ids::{SignalId, StateId};
use crate::model::Model;
use crate::statemachine::{StateMachine, Trigger};
use crate::value::{Bytes, DataType, Value};

/// A lowered expression.
#[derive(Clone, Debug)]
enum Node {
    Lit(Value),
    /// Variable slot.
    Var(u32),
    /// Parameter slot (see [`ParamMap`]).
    Param(u32),
    Unary(UnaryOp, Box<Node>),
    Binary(BinOp, Box<Node>, Box<Node>),
    Call(Builtin, Box<[Node]>),
}

/// A lowered statement. `weight` is the statement's static execution
/// weight: 1 plus the weight of every expression it evaluates (for
/// `while`, the condition's weight is charged per check instead).
#[derive(Clone, Debug)]
enum Op {
    Assign {
        slot: u32,
        expr: Node,
        /// `slot := slot + e1 + … + en` with `slot` in no `ei`.
        append: bool,
        weight: u64,
    },
    Send {
        site: u32,
        args: Box<[Node]>,
        weight: u64,
    },
    If {
        cond: Node,
        weight: u64,
        then_branch: Block,
        else_branch: Block,
    },
    While {
        cond: Node,
        cond_weight: u64,
        body: Block,
        max_iter: u32,
    },
    Compute {
        class: CostClass,
        amount: Node,
        weight: u64,
    },
    /// `head` followed by each interpolated argument and the literal
    /// text after it; placeholders without an argument stay literal and
    /// arguments without a placeholder are dropped (never evaluated).
    Log {
        head: Box<str>,
        parts: Box<[(Node, Box<str>)]>,
        /// The message template's length: the rendered line's initial
        /// capacity.
        capacity: usize,
        weight: u64,
    },
    SetTimer {
        timer: u32,
        duration: Node,
        weight: u64,
    },
    CancelTimer {
        timer: u32,
    },
    Count {
        counter: u32,
        amount: Node,
        weight: u64,
    },
}

/// A lowered statement list.
#[derive(Clone, Debug, Default)]
pub struct Block(Box<[Op]>);

/// An effect of running lowered code: [`Effect`] with its names
/// resolved to the indexes of the owning program's tables
/// ([`MachineCode::sends`], [`MachineCode::timers`],
/// [`MachineCode::counters`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Emit {
    /// A signal emission through send site `site`.
    Send {
        /// Send-site index.
        site: u32,
        /// Evaluated payload values.
        values: Vec<Value>,
    },
    /// Computational work of `units` in `class`.
    Compute {
        /// Workload class.
        class: CostClass,
        /// Work units (non-negative).
        units: u64,
    },
    /// A log line.
    Log(String),
    /// Timer `timer` was armed.
    SetTimer {
        /// Timer slot.
        timer: u32,
        /// Duration in simulation time units.
        duration: u64,
    },
    /// Timer `timer` was cancelled.
    CancelTimer {
        /// Timer slot.
        timer: u32,
    },
    /// Counter `counter` was incremented.
    Count {
        /// Counter index.
        counter: u32,
        /// Signed increment.
        amount: i64,
    },
}

/// Marks an absent position or parameter slot in a [`ParamMap`].
const NONE: u32 = u32::MAX;

/// Where each parameter slot of a program sits in one signal's payload.
#[derive(Clone, Debug)]
pub struct ParamMap {
    /// Parameter slot -> position of the last parameter of that name, or
    /// [`NONE`].
    pos: Vec<u32>,
    /// Position -> parameter slot, or [`NONE`] for a name no program
    /// reads.
    slot_at: Vec<u32>,
}

/// The map of a context with no parameters bound: every `$p` is
/// unbound.
static NO_PARAMS: ParamMap = ParamMap {
    pos: Vec::new(),
    slot_at: Vec::new(),
};

impl ParamMap {
    /// Maps the parameter slots named by `slots` onto a payload whose
    /// parameters are `names`, in order.
    fn new<'n>(slots: &[Box<str>], names: impl Iterator<Item = &'n str>) -> ParamMap {
        let slot_at: Vec<u32> = names
            .map(|name| {
                slots
                    .iter()
                    .position(|s| &**s == name)
                    .map_or(NONE, |i| i as u32)
            })
            .collect();
        let mut pos = vec![NONE; slots.len()];
        for (i, &slot) in slot_at.iter().enumerate() {
            if slot != NONE {
                pos[slot as usize] = i as u32;
            }
        }
        ParamMap { pos, slot_at }
    }

    /// The value parameter slot `slot` reads from `values`: the last
    /// parameter of that name among those delivered, as when binding
    /// parameters by name in order.
    fn get<'v>(&self, slot: u32, values: &'v [Value]) -> Option<&'v Value> {
        let pos = *self.pos.get(slot as usize)? as usize;
        match values.get(pos) {
            Some(v) => Some(v),
            // Fewer values than parameters: an earlier parameter of the
            // same name may still be bound.
            None if pos != NONE as usize => {
                let delivered = &self.slot_at[..values.len().min(self.slot_at.len())];
                delivered
                    .iter()
                    .rposition(|&s| s == slot)
                    .map(|i| &values[i])
            }
            None => None,
        }
    }
}

/// Slot names of a program, for error messages.
#[derive(Clone, Debug, Default)]
struct SlotNames {
    vars: Box<[Box<str>]>,
    params: Box<[Box<str>]>,
}

/// What lowered code runs against: the variable slots and the parameter
/// frame of the triggering signal.
pub struct Frame<'a> {
    vars: &'a mut [Option<Value>],
    params: Vec<Value>,
    map: &'a ParamMap,
    names: &'a SlotNames,
    /// Slots in order of their first write, when the caller needs that
    /// order (the [`Env`] wrappers keep [`crate::action::Scope`]'s
    /// insertion order).
    fresh: Option<&'a mut Vec<u32>>,
}

impl<'a> Frame<'a> {
    /// Binds the payload of a signal delivery as the parameter frame;
    /// `map` is [`MachineCode::params`] of its signal.
    pub fn bind(&mut self, values: Vec<Value>, map: &'a ParamMap) {
        self.params = values;
        self.map = map;
    }

    /// Unbinds the parameter frame, dropping the payload.
    pub fn unbind(&mut self) {
        self.params = Vec::new();
        self.map = &NO_PARAMS;
    }

    fn set(&mut self, slot: u32, value: Value) {
        let cell = &mut self.vars[slot as usize];
        if cell.is_none() {
            if let Some(fresh) = self.fresh.as_deref_mut() {
                fresh.push(slot);
            }
        }
        *cell = Some(value);
    }

    fn unbound_var(&self, slot: u32) -> Error {
        Error::Action(format!(
            "unbound variable `{}`",
            self.names.vars[slot as usize]
        ))
    }

    fn unbound_param(&self, slot: u32) -> Error {
        Error::Action(format!(
            "unbound signal parameter `{}`",
            self.names.params[slot as usize]
        ))
    }
}

impl Node {
    /// Evaluates without copying what is only read: literals, variables
    /// and parameters are borrowed from the code and the frame; only
    /// computed results (operators, builtins) are owned.
    fn eval<'v>(&'v self, f: &'v Frame<'_>) -> Result<Cow<'v, Value>> {
        match self {
            Node::Lit(v) => Ok(Cow::Borrowed(v)),
            Node::Var(slot) => f.vars[*slot as usize]
                .as_ref()
                .map(Cow::Borrowed)
                .ok_or_else(|| f.unbound_var(*slot)),
            Node::Param(slot) => f
                .map
                .get(*slot, &f.params)
                .map(Cow::Borrowed)
                .ok_or_else(|| f.unbound_param(*slot)),
            Node::Unary(op, e) => {
                let v = e.eval(f)?;
                match op {
                    UnaryOp::Not => Ok(Cow::Owned(Value::Bool(!v.is_truthy()))),
                    UnaryOp::Neg => match *v {
                        Value::Int(i) => Ok(Cow::Owned(Value::Int(i.wrapping_neg()))),
                        ref other => Err(Error::Action(format!(
                            "cannot negate {} value",
                            other.data_type()
                        ))),
                    },
                }
            }
            Node::Binary(op, lhs, rhs) => {
                // Short-circuit logical ops before evaluating the rhs.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let l = lhs.eval(f)?.is_truthy();
                    let v = match (op, l) {
                        (BinOp::And, false) => false,
                        (BinOp::Or, true) => true,
                        _ => rhs.eval(f)?.is_truthy(),
                    };
                    return Ok(Cow::Owned(Value::Bool(v)));
                }
                let l = lhs.eval(f)?;
                let r = rhs.eval(f)?;
                eval_binary(*op, l, r).map(Cow::Owned)
            }
            Node::Call(builtin, args) => {
                // Arity is at most `MAX_ARITY`, so the arguments fit a
                // stack array.
                let mut vals = [ARG_UNSET; MAX_ARITY];
                for (i, a) in args.iter().enumerate() {
                    let v = a.eval(f)?;
                    if let Some(slot) = vals.get_mut(i) {
                        *slot = v;
                    }
                }
                if args.len() > MAX_ARITY {
                    return Err(arity_error(*builtin, args.len()));
                }
                eval_builtin(*builtin, &vals[..args.len()]).map(Cow::Owned)
            }
        }
    }

    fn eval_int(&self, f: &Frame<'_>, what: &str) -> Result<i64> {
        self.eval(f)?
            .as_int()
            .ok_or_else(|| Error::Action(format!("{what} must evaluate to Int")))
    }
}

impl Block {
    /// Runs the statements against `f`, pushing effects into `out` and
    /// adding each executed statement's weight to `weight` (the
    /// simulator converts weight to cycles).
    ///
    /// # Errors
    ///
    /// Propagates expression-evaluation errors and reports loops
    /// exceeding their `max_iter` bound.
    pub fn run(&self, f: &mut Frame<'_>, out: &mut Vec<Emit>, weight: &mut u64) -> Result<()> {
        for op in self.0.iter() {
            op.run(f, out, weight)?;
        }
        Ok(())
    }
}

impl Op {
    fn run(&self, f: &mut Frame<'_>, out: &mut Vec<Emit>, weight: &mut u64) -> Result<()> {
        match self {
            Op::Assign {
                slot,
                expr,
                append,
                weight: w,
            } => {
                *weight += w;
                let acc = match (*append, &mut f.vars[*slot as usize]) {
                    (true, Some(Value::Bytes(acc))) => Some(std::mem::take(acc)),
                    _ => None,
                };
                let v = match acc {
                    Some(acc) => Value::Bytes(append_in_place(*slot, acc, expr, f)?),
                    None => expr.eval(f)?.into_owned(),
                };
                f.set(*slot, v);
            }
            Op::Send {
                site,
                args,
                weight: w,
            } => {
                *weight += w;
                let mut values = Vec::with_capacity(args.len());
                for a in args.iter() {
                    values.push(a.eval(f)?.into_owned());
                }
                out.push(Emit::Send {
                    site: *site,
                    values,
                });
            }
            Op::If {
                cond,
                weight: w,
                then_branch,
                else_branch,
            } => {
                *weight += w;
                if cond.eval(f)?.is_truthy() {
                    then_branch.run(f, out, weight)?;
                } else {
                    else_branch.run(f, out, weight)?;
                }
            }
            Op::While {
                cond,
                cond_weight,
                body,
                max_iter,
            } => {
                *weight += 1;
                let mut iterations = 0u32;
                loop {
                    *weight += cond_weight;
                    if !cond.eval(f)?.is_truthy() {
                        break;
                    }
                    if iterations >= *max_iter {
                        return Err(Error::Action(format!(
                            "while loop exceeded its bound of {max_iter} iterations"
                        )));
                    }
                    iterations += 1;
                    body.run(f, out, weight)?;
                }
            }
            Op::Compute {
                class,
                amount,
                weight: w,
            } => {
                *weight += w;
                let units = amount.eval_int(f, "compute amount")?;
                out.push(Emit::Compute {
                    class: *class,
                    units: units.max(0) as u64,
                });
            }
            Op::Log {
                head,
                parts,
                capacity,
                weight: w,
            } => {
                *weight += w;
                let mut rendered = String::with_capacity(*capacity);
                rendered.push_str(head);
                for (arg, text) in parts.iter() {
                    let v = arg.eval(f)?;
                    write!(rendered, "{v}").expect("writing to a String cannot fail");
                    rendered.push_str(text);
                }
                out.push(Emit::Log(rendered));
            }
            Op::SetTimer {
                timer,
                duration,
                weight: w,
            } => {
                *weight += w;
                let d = duration.eval_int(f, "timer duration")?;
                out.push(Emit::SetTimer {
                    timer: *timer,
                    duration: d.max(0) as u64,
                });
            }
            Op::CancelTimer { timer } => {
                *weight += 1;
                out.push(Emit::CancelTimer { timer: *timer });
            }
            Op::Count {
                counter,
                amount,
                weight: w,
            } => {
                *weight += w;
                let n = amount.eval_int(f, "count amount")?;
                out.push(Emit::Count {
                    counter: *counter,
                    amount: n,
                });
            }
        }
        Ok(())
    }
}

/// Evaluates the self-append `expr` (see [`is_self_append`]) with the
/// variable's value moved out of its slot into `acc`, so each `+ ei`
/// extends `acc` in place whenever no other value shares its buffer. On
/// error the variable is put back unchanged.
fn append_in_place(slot: u32, mut acc: Bytes, expr: &Node, f: &mut Frame<'_>) -> Result<Bytes> {
    fn extend(acc: &mut Bytes, expr: &Node, f: &Frame<'_>) -> Result<()> {
        let Node::Binary(_, lhs, rhs) = expr else {
            return Ok(());
        };
        extend(acc, lhs, f)?;
        match &*rhs.eval(f)? {
            Value::Bytes(b) => acc.extend_from_slice(b),
            other => {
                return Err(int_operands_error(
                    BinOp::Add,
                    DataType::Bytes,
                    other.data_type(),
                ))
            }
        }
        Ok(())
    }
    let len = acc.len();
    match extend(&mut acc, expr, f) {
        Ok(()) => Ok(acc),
        Err(e) => {
            f.vars[slot as usize] = Some(Value::Bytes(acc.slice(0..len)));
            Err(e)
        }
    }
}

/// True when the variable `name` occurs anywhere in the expression.
fn mentions_var(expr: &Expr, name: &str) -> bool {
    match expr {
        Expr::Var(v) => v == name,
        Expr::Lit(_) | Expr::Param(_) => false,
        Expr::Unary(_, e) => mentions_var(e, name),
        Expr::Binary(_, l, r) => mentions_var(l, name) || mentions_var(r, name),
        Expr::Call(_, args) => args.iter().any(|a| mentions_var(a, name)),
    }
}

/// True when `expr` is `var + e1 + … + en` (n ≥ 1) with `var` in none of
/// the `ei`: the append that runs on `var`'s own buffer.
fn is_self_append(var: &str, expr: &Expr) -> bool {
    match expr {
        Expr::Binary(BinOp::Add, lhs, rhs) => {
            !mentions_var(rhs, var)
                && (matches!(&**lhs, Expr::Var(v) if v == var) || is_self_append(var, lhs))
        }
        _ => false,
    }
}

/// The index of `item` in `table`, appending it when absent.
fn intern<T: PartialEq>(table: &mut Vec<T>, item: T) -> u32 {
    match table.iter().position(|t| *t == item) {
        Some(i) => i as u32,
        None => {
            table.push(item);
            (table.len() - 1) as u32
        }
    }
}

/// Resolves names to slots and indexes while lowering. Port, timer and
/// counter names are borrowed from the statements.
#[derive(Default)]
struct Lowerer<'a> {
    vars: Vec<Box<str>>,
    params: Vec<Box<str>>,
    sites: Vec<(&'a str, SignalId)>,
    timers: Vec<&'a str>,
    counters: Vec<&'a str>,
}

impl<'a> Lowerer<'a> {
    fn var(&mut self, name: &str) -> u32 {
        intern(&mut self.vars, name.into())
    }

    fn param(&mut self, name: &str) -> u32 {
        intern(&mut self.params, name.into())
    }

    fn timer(&mut self, name: &'a str) -> u32 {
        intern(&mut self.timers, name)
    }

    fn expr(&mut self, expr: &Expr) -> Node {
        match expr {
            Expr::Lit(v) => Node::Lit(v.clone()),
            Expr::Var(name) => Node::Var(self.var(name)),
            Expr::Param(name) => Node::Param(self.param(name)),
            Expr::Unary(op, e) => Node::Unary(*op, Box::new(self.expr(e))),
            Expr::Binary(op, l, r) => {
                Node::Binary(*op, Box::new(self.expr(l)), Box::new(self.expr(r)))
            }
            Expr::Call(builtin, args) => {
                Node::Call(*builtin, args.iter().map(|a| self.expr(a)).collect())
            }
        }
    }

    fn block(&mut self, statements: &'a [Statement]) -> Block {
        Block(statements.iter().map(|s| self.statement(s)).collect())
    }

    fn statement(&mut self, statement: &'a Statement) -> Op {
        match statement {
            Statement::Assign { var, expr } => Op::Assign {
                slot: self.var(var),
                append: is_self_append(var, expr),
                weight: 1 + expr.weight(),
                expr: self.expr(expr),
            },
            Statement::Send { port, signal, args } => Op::Send {
                site: intern(&mut self.sites, (port.as_str(), *signal)),
                weight: 1 + args.iter().map(Expr::weight).sum::<u64>(),
                args: args.iter().map(|a| self.expr(a)).collect(),
            },
            Statement::If {
                cond,
                then_branch,
                else_branch,
            } => Op::If {
                weight: 1 + cond.weight(),
                cond: self.expr(cond),
                then_branch: self.block(then_branch),
                else_branch: self.block(else_branch),
            },
            Statement::While {
                cond,
                body,
                max_iter,
            } => Op::While {
                cond_weight: cond.weight(),
                cond: self.expr(cond),
                body: self.block(body),
                max_iter: *max_iter,
            },
            Statement::Compute { class, amount } => Op::Compute {
                class: *class,
                weight: 1 + amount.weight(),
                amount: self.expr(amount),
            },
            Statement::Log { message, args } => {
                let mut texts = message.split("{}");
                let mut head = String::from(texts.next().unwrap_or(""));
                let mut parts: Vec<(Node, String)> = Vec::new();
                let mut args = args.iter();
                let mut weight = 1;
                for text in texts {
                    match args.next() {
                        Some(arg) => {
                            weight += arg.weight();
                            parts.push((self.expr(arg), text.to_owned()));
                        }
                        None => {
                            let last = parts.last_mut().map_or(&mut head, |(_, t)| t);
                            last.push_str("{}");
                            last.push_str(text);
                        }
                    }
                }
                Op::Log {
                    head: head.into(),
                    parts: parts.into_iter().map(|(n, t)| (n, t.into())).collect(),
                    capacity: message.len(),
                    weight,
                }
            }
            Statement::SetTimer { name, duration } => Op::SetTimer {
                timer: self.timer(name),
                weight: 1 + duration.weight(),
                duration: self.expr(duration),
            },
            Statement::CancelTimer { name } => Op::CancelTimer {
                timer: self.timer(name),
            },
            Statement::Count { counter, amount } => Op::Count {
                counter: intern(&mut self.counters, counter.as_str()),
                weight: 1 + amount.weight(),
                amount: self.expr(amount),
            },
        }
    }

    fn names(&mut self) -> SlotNames {
        SlotNames {
            vars: std::mem::take(&mut self.vars).into(),
            params: std::mem::take(&mut self.params).into(),
        }
    }
}

/// A transition guard: a lowered expression that enables its transition
/// when it evaluates to a truthy value.
#[derive(Clone, Debug)]
struct Guard(Node);

impl Guard {
    /// A guard that fails to evaluate (an unbound parameter, a type
    /// error) does not hold.
    fn holds(&self, f: &Frame<'_>) -> bool {
        self.0.eval(f).map(|v| v.is_truthy()).unwrap_or(false)
    }
}

/// One lowered transition.
#[derive(Clone, Debug)]
pub struct TransitionCode {
    guard: Option<Guard>,
    actions: Block,
    target: StateId,
}

impl TransitionCode {
    /// The transition's actions.
    pub fn actions(&self) -> &Block {
        &self.actions
    }

    /// The state the transition enters.
    pub fn target(&self) -> StateId {
        self.target
    }
}

/// What a step consumes, in lowered form.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Input {
    /// A completion (triggerless) transition.
    Completion,
    /// Expiry of the timer in slot `.0` of [`MachineCode::timers`].
    Timer(u32),
    /// Arrival of a signal.
    Signal(SignalId),
}

/// A state machine lowered once for execution: variable slots with their
/// initial values, entry actions per state, transitions grouped by
/// source state and trigger in declaration order, one [`ParamMap`] per
/// signal of the model, and the send-site, timer and counter tables the
/// code's [`Emit`]s index.
#[derive(Clone, Debug)]
pub struct MachineCode {
    names: SlotNames,
    init: Box<[Option<Value>]>,
    entries: Box<[Block]>,
    /// `(state, input)` buckets, `state * inputs + input index`, where
    /// the input index is 0 for completion, `1 + t` for timer `t` and
    /// `1 + timers + s` for signal `s`.
    buckets: Box<[Box<[TransitionCode]>]>,
    inputs: usize,
    signal_params: Box<[ParamMap]>,
    sends: Box<[(Box<str>, SignalId)]>,
    timers: Box<[Box<str>]>,
    counters: Box<[Box<str>]>,
}

impl MachineCode {
    /// Lowers `machine`, whose signals are `model`'s.
    ///
    /// Timers are numbered in order of first mention: entry actions of
    /// every state first, then each transition's trigger and actions.
    pub fn lower(model: &Model, machine: &StateMachine) -> MachineCode {
        let mut lw = Lowerer::default();
        let mut init: Vec<Option<Value>> = Vec::new();
        for v in machine.variables() {
            let slot = lw.var(&v.name) as usize;
            if slot == init.len() {
                init.push(None);
            }
            // A repeated declaration re-initialises the same slot.
            init[slot] = Some(v.init.clone());
        }
        let entries: Box<[Block]> = machine
            .states()
            .map(|(_, state)| lw.block(state.entry()))
            .collect();
        let mut lowered = Vec::new();
        for (_, t) in machine.transitions() {
            let input = match t.trigger() {
                Trigger::Completion => Input::Completion,
                Trigger::Timer(name) => Input::Timer(lw.timer(name)),
                Trigger::Signal(s) => Input::Signal(*s),
            };
            let code = TransitionCode {
                guard: t.guard().map(|g| Guard(lw.expr(g))),
                actions: lw.block(t.actions()),
                target: t.target(),
            };
            lowered.push((t.source(), input, code));
        }
        init.resize(lw.vars.len(), None);

        let signals = model.signals().count();
        let states = entries.len();
        let mut code = MachineCode {
            names: SlotNames::default(),
            init: init.into(),
            entries,
            buckets: Box::default(),
            inputs: 1 + lw.timers.len() + signals,
            signal_params: Box::default(),
            sends: lw.sites.iter().map(|&(p, s)| (p.into(), s)).collect(),
            timers: lw.timers.iter().map(|&t| t.into()).collect(),
            counters: lw.counters.iter().map(|&c| c.into()).collect(),
        };
        let mut buckets: Vec<Vec<TransitionCode>> = vec![Vec::new(); states * code.inputs];
        for (source, input, transition) in lowered {
            // A transition from an unknown state or on an unknown signal
            // can never fire.
            if source.index() < states {
                if let Some(key) = code.key(source, input) {
                    buckets[key].push(transition);
                }
            }
        }
        code.buckets = buckets.into_iter().map(Vec::into_boxed_slice).collect();
        code.signal_params = model
            .signals()
            .map(|(_, signal)| {
                ParamMap::new(&lw.params, signal.params().iter().map(|p| p.name.as_str()))
            })
            .collect();
        code.names = lw.names();
        code
    }

    fn key(&self, state: StateId, input: Input) -> Option<usize> {
        let timers = self.timers.len();
        let index = match input {
            Input::Completion => 0,
            Input::Timer(t) if (t as usize) < timers => 1 + t as usize,
            Input::Signal(s) if 1 + timers + s.index() < self.inputs => 1 + timers + s.index(),
            _ => return None,
        };
        Some(state.index() * self.inputs + index)
    }

    /// Fresh variable slots: declared variables at their initial values,
    /// every other name unbound.
    pub fn initial_vars(&self) -> Vec<Option<Value>> {
        self.init.to_vec()
    }

    /// A frame over `vars` with no parameters bound.
    pub fn frame<'a>(&'a self, vars: &'a mut [Option<Value>]) -> Frame<'a> {
        Frame {
            vars,
            params: Vec::new(),
            map: &NO_PARAMS,
            names: &self.names,
            fresh: None,
        }
    }

    /// Where `signal`'s payload places each parameter this machine reads.
    pub fn params(&self, signal: SignalId) -> &ParamMap {
        self.signal_params.get(signal.index()).unwrap_or(&NO_PARAMS)
    }

    /// The entry actions of `state`.
    pub fn entry(&self, state: StateId) -> &Block {
        &self.entries[state.index()]
    }

    /// The first transition out of `state` on `input`, in declaration
    /// order, whose guard holds in `f`.
    pub fn fire(&self, state: StateId, input: Input, f: &Frame<'_>) -> Option<&TransitionCode> {
        let bucket = self.buckets.get(self.key(state, input)?)?;
        bucket
            .iter()
            .find(|t| t.guard.as_ref().is_none_or(|g| g.holds(f)))
    }

    /// Send sites: the `(port, signal)` pair each [`Emit::Send`] `site`
    /// indexes.
    pub fn sends(&self) -> &[(Box<str>, SignalId)] {
        &self.sends
    }

    /// Timer names by slot.
    pub fn timers(&self) -> &[Box<str>] {
        &self.timers
    }

    /// Counter names by index.
    pub fn counters(&self) -> &[Box<str>] {
        &self.counters
    }
}

/// The variable slots of `env` moved (or, for a shared `env`, cloned)
/// out, followed by an unbound slot per name the lowered code adds.
fn env_slots(env_vars: impl Iterator<Item = Value>, slots: usize) -> Vec<Option<Value>> {
    let mut vars: Vec<Option<Value>> = env_vars.map(Some).collect();
    vars.resize(slots, None);
    vars
}

/// A lowerer whose variable slots start with `env`'s bindings, in order.
fn env_lowerer<'a>(env: &Env) -> Lowerer<'a> {
    Lowerer {
        vars: env.vars.iter().map(|(name, _)| name.into()).collect(),
        ..Lowerer::default()
    }
}

/// [`Expr::eval`]: lowers `expr` against `env`'s names and evaluates it.
pub(crate) fn eval_in(expr: &Expr, env: &Env) -> Result<Value> {
    let mut lw = env_lowerer(env);
    let node = lw.expr(expr);
    let map = ParamMap::new(&lw.params, env.params.iter().map(|(name, _)| name));
    let names = lw.names();
    let mut vars = env_slots(env.vars.iter().map(|(_, v)| v.clone()), names.vars.len());
    let f = Frame {
        vars: &mut vars,
        params: env.params.iter().map(|(_, v)| v.clone()).collect(),
        map: &map,
        names: &names,
        fresh: None,
    };
    node.eval(&f).map(Cow::into_owned)
}

/// [`crate::action::execute`]: lowers `statements` against `env`'s
/// names, runs them with `env`'s variables moved into slots, and moves
/// the variables back, new ones in order of first write.
pub(crate) fn execute_in<'a>(
    statements: &'a [Statement],
    env: &mut Env,
    effects: &mut Vec<Effect<'a>>,
    weight: &mut u64,
) -> Result<()> {
    let mut lw = env_lowerer(env);
    let block = lw.block(statements);
    let map = ParamMap::new(&lw.params, env.params.iter().map(|(name, _)| name));
    let names = lw.names();
    let bound = env.vars.len();
    let mut vars = env_slots(env.vars.take_values(), names.vars.len());
    let mut fresh = Vec::new();
    let mut out = Vec::new();
    let result = block.run(
        &mut Frame {
            vars: &mut vars,
            params: env.params.iter().map(|(_, v)| v.clone()).collect(),
            map: &map,
            names: &names,
            fresh: Some(&mut fresh),
        },
        &mut out,
        weight,
    );
    let mut rest = vars.split_off(bound);
    env.vars.restore_values(
        vars.into_iter()
            .map(|v| v.expect("assignment never unbinds a slot")),
    );
    for slot in fresh {
        if let Some(v) = rest[slot as usize - bound].take() {
            env.vars.set(&names.vars[slot as usize], v);
        }
    }
    effects.extend(out.into_iter().map(|emit| match emit {
        Emit::Send { site, values } => {
            let (port, signal) = lw.sites[site as usize];
            Effect::Send {
                port,
                signal,
                values,
            }
        }
        Emit::Compute { class, units } => Effect::Compute { class, units },
        Emit::Log(message) => Effect::Log(message),
        Emit::SetTimer { timer, duration } => Effect::SetTimer {
            name: lw.timers[timer as usize],
            duration,
        },
        Emit::CancelTimer { timer } => Effect::CancelTimer {
            name: lw.timers[timer as usize],
        },
        Emit::Count { counter, amount } => Effect::Count {
            counter: lw.counters[counter as usize],
            amount,
        },
    }));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textual::{parse_expr, parse_statements};

    /// `Data(n, payload)` and `Pair(m, n)`: `n` sits at a different
    /// position in each.
    fn model() -> (Model, SignalId, SignalId) {
        let mut model = Model::new("M");
        let data = model.add_signal("Data");
        model.signal_mut(data).add_param("n", DataType::Int);
        model.signal_mut(data).add_param("payload", DataType::Bytes);
        let pair = model.add_signal("Pair");
        model.signal_mut(pair).add_param("m", DataType::Int);
        model.signal_mut(pair).add_param("n", DataType::Int);
        (model, data, pair)
    }

    fn code(model: &Model, text: &str) -> Vec<Statement> {
        parse_statements(text, model).unwrap()
    }

    /// Runs `block` on `vars` with `values` of `signal` bound (or no
    /// parameters), returning the effects.
    fn run(
        mc: &MachineCode,
        block: &Block,
        vars: &mut [Option<Value>],
        bind: Option<(SignalId, Vec<Value>)>,
    ) -> Result<Vec<Emit>> {
        let mut f = mc.frame(vars);
        if let Some((signal, values)) = bind {
            f.bind(values, mc.params(signal));
        }
        let (mut out, mut w) = (Vec::new(), 0);
        block.run(&mut f, &mut out, &mut w)?;
        Ok(out)
    }

    fn logs(out: &[Emit]) -> Vec<&str> {
        out.iter()
            .filter_map(|e| match e {
                Emit::Log(m) => Some(m.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn assigned_only_variable_reads_unbound_until_first_write() {
        let (model, _, _) = model();
        let mut sm = StateMachine::new("B");
        let s = sm.add_state_with_entry("S", code(&model, "log \"{}\", x; x := 1;"));
        sm.set_initial(s);
        let mc = MachineCode::lower(&model, &sm);
        let mut vars = mc.initial_vars();
        assert_eq!(vars, vec![None], "`x` has a slot, unbound");
        let err = run(&mc, mc.entry(s), &mut vars, None).unwrap_err();
        assert_eq!(
            err.to_string(),
            Error::Action("unbound variable `x`".into()).to_string()
        );
        // After its first write the slot reads normally.
        vars[0] = Some(Value::Int(7));
        let out = run(&mc, mc.entry(s), &mut vars, None).unwrap();
        assert_eq!(logs(&out), ["7"]);
        // The name-based wrapper reports the same text.
        let err = Expr::var("x").eval(&Env::new()).unwrap_err();
        assert_eq!(
            err.to_string(),
            Error::Action("unbound variable `x`".into()).to_string()
        );
    }

    #[test]
    fn undelivered_parameter_reads_unbound() {
        let (model, data, pair) = model();
        let mut sm = StateMachine::new("B");
        let s = sm.add_state_with_entry("S", code(&model, "log \"{}\", len($payload);"));
        sm.set_initial(s);
        let mc = MachineCode::lower(&model, &sm);
        let unbound = Error::Action("unbound signal parameter `payload`".into()).to_string();
        let mut vars = mc.initial_vars();
        // `Data` declares `payload` but only `n` was delivered.
        let err = run(
            &mc,
            mc.entry(s),
            &mut vars,
            Some((data, vec![Value::Int(1)])),
        );
        assert_eq!(err.unwrap_err().to_string(), unbound);
        // `Pair` does not declare it at all.
        let pair_values = vec![Value::Int(1), Value::Int(2)];
        let err = run(&mc, mc.entry(s), &mut vars, Some((pair, pair_values)));
        assert_eq!(err.unwrap_err().to_string(), unbound);
        // No signal bound (a timer or completion step).
        let err = run(&mc, mc.entry(s), &mut vars, None);
        assert_eq!(err.unwrap_err().to_string(), unbound);
        let both = vec![Value::Int(1), Value::from(vec![9u8])];
        let out = run(&mc, mc.entry(s), &mut vars, Some((data, both))).unwrap();
        assert_eq!(logs(&out), ["1"]);
        // Completion steps run after the frame is unbound: the last
        // signal's payload is gone.
        let mut f = mc.frame(&mut vars);
        f.bind(vec![Value::Int(1), Value::from(vec![9u8])], mc.params(data));
        f.unbind();
        let (mut out, mut w) = (Vec::new(), 0);
        let err = mc.entry(s).run(&mut f, &mut out, &mut w).unwrap_err();
        assert_eq!(err.to_string(), unbound);
    }

    #[test]
    fn repeated_parameter_name_binds_the_last_delivered() {
        let mut model = Model::new("M");
        let sig = model.add_signal("Twice");
        model.signal_mut(sig).add_param("p", DataType::Int);
        model.signal_mut(sig).add_param("q", DataType::Int);
        model.signal_mut(sig).add_param("p", DataType::Int);
        let mut sm = StateMachine::new("B");
        let s = sm.add_state_with_entry("S", code(&model, "log \"{}\", $p;"));
        sm.set_initial(s);
        let mc = MachineCode::lower(&model, &sm);
        let mut vars = mc.initial_vars();
        let all = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        let out = run(&mc, mc.entry(s), &mut vars, Some((sig, all))).unwrap();
        assert_eq!(logs(&out), ["3"]);
        let short = vec![Value::Int(1), Value::Int(2)];
        let out = run(&mc, mc.entry(s), &mut vars, Some((sig, short))).unwrap();
        assert_eq!(logs(&out), ["1"], "the second `p` was not delivered");
    }

    /// Two transitions on one trigger: the first erroring guard counts
    /// as not enabled, and the first enabled one in declaration order
    /// fires.
    #[test]
    fn first_enabled_transition_in_declaration_order_fires() {
        let (model, data, _) = model();
        let mut sm = StateMachine::new("B");
        sm.add_variable("k", DataType::Int, Value::Int(0));
        let s = sm.add_state("S");
        let [a, b, c, d] = ["A", "B", "C", "D"].map(|n| sm.add_state(n));
        sm.set_initial(s);
        let guard = |text| Some(parse_expr(text).unwrap());
        // Reads a parameter `Data` lacks: fails to evaluate.
        sm.add_transition(s, a, Trigger::Signal(data), guard("$m > 0"), vec![]);
        // Fails on a type error.
        sm.add_transition(s, a, Trigger::Signal(data), guard("-true"), vec![]);
        sm.add_transition(s, b, Trigger::Signal(data), guard("k > 0"), vec![]);
        sm.add_transition(s, c, Trigger::Signal(data), guard("$n > 0"), vec![]);
        sm.add_transition(s, d, Trigger::Signal(data), None, vec![]);
        sm.add_transition(s, a, Trigger::Completion, guard("k == 0"), vec![]);
        let mc = MachineCode::lower(&model, &sm);
        let target = |k: i64, n: i64| {
            let mut vars = vec![Some(Value::Int(k))];
            let mut f = mc.frame(&mut vars);
            f.bind(vec![Value::Int(n), Value::from(vec![])], mc.params(data));
            mc.fire(s, Input::Signal(data), &f)
                .map(TransitionCode::target)
        };
        assert_eq!(target(1, 1), Some(b), "b before c, both enabled");
        assert_eq!(target(0, 1), Some(c));
        assert_eq!(target(0, 0), Some(d));
        let mut vars = mc.initial_vars();
        let f = mc.frame(&mut vars);
        assert_eq!(
            mc.fire(s, Input::Completion, &f)
                .map(TransitionCode::target),
            Some(a)
        );
        assert!(mc.fire(a, Input::Signal(data), &f).is_none());
    }

    /// An entry action reached by two signals reads `$n` from whichever
    /// position the triggering signal carries it at.
    #[test]
    fn shared_entry_reads_each_signals_parameter_position() {
        let (model, data, pair) = model();
        let mut sm = StateMachine::new("B");
        let idle = sm.add_state("Idle");
        let got = sm.add_state_with_entry("Got", code(&model, "log \"n={}\", $n;"));
        sm.set_initial(idle);
        sm.add_transition(idle, got, Trigger::Signal(data), None, vec![]);
        sm.add_transition(idle, got, Trigger::Signal(pair), None, vec![]);
        let mc = MachineCode::lower(&model, &sm);
        let mut vars = mc.initial_vars();
        let data_values = vec![Value::Int(5), Value::from(vec![1u8])];
        let out = run(&mc, mc.entry(got), &mut vars, Some((data, data_values))).unwrap();
        assert_eq!(logs(&out), ["n=5"]);
        let pair_values = vec![Value::Int(8), Value::Int(6)];
        let out = run(&mc, mc.entry(got), &mut vars, Some((pair, pair_values))).unwrap();
        assert_eq!(logs(&out), ["n=6"]);
    }

    /// Sites, timers and counters are numbered by first mention; timers
    /// from entry actions come before those of transitions.
    #[test]
    fn names_resolve_to_tables() {
        let (model, data, _) = model();
        let mut sm = StateMachine::new("B");
        let s = sm.add_state("S");
        let t = sm.add_state_with_entry("T", code(&model, "set_timer late, 5; count c.x, 1;"));
        sm.set_initial(s);
        sm.add_transition(
            s,
            t,
            Trigger::Timer("early".into()),
            None,
            code(
                &model,
                "send out.Data(1, x\"00\"); cancel_timer late; send out.Data(2, x\"\"); \
                 send other.Data(3, x\"\"); count c.y, 2; count c.x, 3;",
            ),
        );
        let mc = MachineCode::lower(&model, &sm);
        assert_eq!(&*mc.timers()[0], "late");
        assert_eq!(&*mc.timers()[1], "early");
        let sends: Vec<(&str, SignalId)> = mc.sends().iter().map(|(p, s)| (&**p, *s)).collect();
        assert_eq!(sends, [("out", data), ("other", data)]);
        let counters: Vec<&str> = mc.counters().iter().map(|c| &**c).collect();
        assert_eq!(counters, ["c.x", "c.y"]);
        let mut vars = mc.initial_vars();
        let f = mc.frame(&mut vars);
        let fired = mc.fire(s, Input::Timer(1), &f).expect("`early` is slot 1");
        let out = run(&mc, fired.actions(), &mut vars, None).unwrap();
        let sites: Vec<u32> = out
            .iter()
            .filter_map(|e| match e {
                Emit::Send { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(sites, [0, 0, 1]);
        assert!(out.contains(&Emit::CancelTimer { timer: 0 }));
        assert!(out.contains(&Emit::Count {
            counter: 1,
            amount: 2
        }));
    }

    /// Lowered weights equal the per-run `Expr::weight` walks they
    /// replace: 1 per statement plus every evaluated expression.
    #[test]
    fn static_weights_match_expression_weights() {
        let (model, _, _) = model();
        let prog = code(
            &model,
            "i := 0; while i < 3 { i := i + 1; } if i == 3 { compute bit i * 2; } \
             log \"{} {} {}\", i, crc32(x\"01\"), len(x\"\"); set_timer t, i; \
             cancel_timer t; count n, i;",
        );
        let mut env = Env::new();
        let (mut fx, mut w) = (Vec::new(), 0);
        crate::action::execute(&prog, &mut env, &mut fx, &mut w).unwrap();
        let e = |text| parse_expr(text).unwrap().weight();
        let expected = (1 + e("0"))
            + (1 + 4 * e("i < 3") + 3 * (1 + e("i + 1")))
            + (1 + e("i == 3") + 1 + e("i * 2"))
            + (1 + e("i") + e("crc32(x\"01\")") + e("len(x\"\")"))
            + (1 + e("i"))
            + 1
            + (1 + e("i"));
        assert_eq!(w, expected);
    }

    /// Names first bound by a wrapped `execute` join the scope in order
    /// of first write, not of first mention.
    #[test]
    fn wrapper_binds_new_names_in_write_order() {
        let model = Model::new("M");
        let prog = code(&model, "if false { b := 1; } a := 2; b := 3;");
        let mut env = Env::new().with_var("z", 0i64);
        let (mut fx, mut w) = (Vec::new(), 0);
        crate::action::execute(&prog, &mut env, &mut fx, &mut w).unwrap();
        let names: Vec<&str> = env.vars.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["z", "a", "b"]);
    }

    #[test]
    fn self_append_detection() {
        let x = || Expr::var("x");
        let lit = || Expr::Lit(vec![9u8].into());
        assert!(is_self_append("x", &x().bin(BinOp::Add, lit())));
        assert!(is_self_append(
            "x",
            &x().bin(BinOp::Add, Expr::param("p")).bin(BinOp::Add, lit())
        ));
        assert!(!is_self_append("x", &x()), "no append");
        assert!(!is_self_append("x", &x().bin(BinOp::Add, x())), "x + x");
        assert!(
            !is_self_append("x", &Expr::var("y").bin(BinOp::Add, x())),
            "y + x"
        );
        assert!(
            !is_self_append("x", &lit().bin(BinOp::Add, x())),
            "x not leftmost"
        );
        assert!(!is_self_append("x", &x().bin(BinOp::Sub, lit())));
        let len_x = Expr::call(Builtin::Len, vec![x()]);
        let packed = Expr::call(Builtin::PackInt, vec![len_x, Expr::int(2)]);
        assert!(
            !is_self_append("x", &x().bin(BinOp::Add, packed)),
            "x read inside a term"
        );
    }
}
