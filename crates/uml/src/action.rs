//! The action language used inside EFSM transitions.
//!
//! The paper models behaviour with "statechart diagrams combined with the
//! UML 2.0 textual notation" (§4.1). This module is our textual notation: a
//! small, deterministic, side-effect-explicit language of expressions and
//! statements. The same AST is
//!
//! * lowered to slots ([`crate::lower`]) and run by the discrete-event
//!   simulator (`tut-sim`),
//! * translated to C by the code generator (`tut-codegen`), and
//! * serialised structurally into the XMI form (`crate::xmi`).
//!
//! Expressions are pure; all effects (sending signals, logging, timers) are
//! statements whose lowered code reports [`crate::lower::Emit`]s to the
//! caller, so the simulator stays in control of time and communication.

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

use tut_diag::{Diagnostic, DiagnosticBag};

use crate::error::{Error, Result};
use crate::ids::SignalId;
use crate::value::{Bytes, DataType, Value};

/// Binary operators of the action language.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// `+` (also byte/string concatenation when both operands are buffers).
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/` (integer division; division by zero is an error).
    Div,
    /// `%`.
    Mod,
    /// `==`.
    Eq,
    /// `!=`.
    Ne,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// Logical `&&` (operands coerced with [`Value::is_truthy`]).
    And,
    /// Logical `||`.
    Or,
    /// Bitwise `&`.
    BitAnd,
    /// Bitwise `|`.
    BitOr,
    /// Bitwise `^`.
    BitXor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    Shr,
}

impl BinOp {
    /// The operator token, as written in source and in generated C.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

/// Built-in functions available to expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Builtin {
    /// `len(bytes|str) -> int`.
    Len,
    /// `slice(bytes, from, to) -> bytes` (clamped to the buffer).
    Slice,
    /// `concat(bytes, bytes) -> bytes`.
    Concat,
    /// `byte_at(bytes, index) -> int` (out of range is an error).
    ByteAt,
    /// `pack_int(value, width_bytes) -> bytes`, big-endian.
    PackInt,
    /// `unpack_int(bytes) -> int`, big-endian over at most 8 bytes.
    UnpackInt,
    /// `crc32(bytes) -> int` — the slice-by-8 CRC-32 [`crc32`] (IEEE
    /// 802.3 polynomial), bit-exact with the bitwise reference
    /// [`crc32_bitwise`] and with the hardware accelerator in
    /// `tut-platform`.
    Crc32,
    /// `min(int, int) -> int`.
    Min,
    /// `max(int, int) -> int`.
    Max,
    /// `fill(byte, count) -> bytes`.
    Fill,
}

impl Builtin {
    /// The source-level function name.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Len => "len",
            Builtin::Slice => "slice",
            Builtin::Concat => "concat",
            Builtin::ByteAt => "byte_at",
            Builtin::PackInt => "pack_int",
            Builtin::UnpackInt => "unpack_int",
            Builtin::Crc32 => "crc32",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Fill => "fill",
        }
    }

    /// Number of arguments the builtin expects.
    pub const fn arity(self) -> usize {
        match self {
            Builtin::Len | Builtin::Crc32 | Builtin::UnpackInt => 1,
            Builtin::Concat
            | Builtin::ByteAt
            | Builtin::PackInt
            | Builtin::Min
            | Builtin::Max
            | Builtin::Fill => 2,
            Builtin::Slice => 3,
        }
    }

    /// Every builtin.
    const ALL: [Builtin; 10] = [
        Builtin::Len,
        Builtin::Slice,
        Builtin::Concat,
        Builtin::ByteAt,
        Builtin::PackInt,
        Builtin::UnpackInt,
        Builtin::Crc32,
        Builtin::Min,
        Builtin::Max,
        Builtin::Fill,
    ];

    /// Parses a builtin from its source name.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Builtin::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// An expression of the action language. Expressions are pure.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// A process-local variable reference.
    Var(String),
    /// A parameter of the signal that triggered the transition.
    Param(String),
    /// Unary operation.
    Unary(UnaryOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Builtin function call.
    Call(Builtin, Vec<Expr>),
}

impl Expr {
    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int(v))
    }

    /// Convenience constructor for a boolean literal.
    pub fn bool(v: bool) -> Expr {
        Expr::Lit(Value::Bool(v))
    }

    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Convenience constructor for a signal-parameter reference.
    pub fn param(name: impl Into<String>) -> Expr {
        Expr::Param(name.into())
    }

    /// Builds `self <op> rhs`.
    pub fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// Builds a builtin call, checking arity.
    ///
    /// # Panics
    ///
    /// Panics if `args.len()` differs from the builtin's arity; this is a
    /// model-construction bug, not a runtime condition.
    pub fn call(builtin: Builtin, args: Vec<Expr>) -> Expr {
        assert_eq!(
            args.len(),
            builtin.arity(),
            "builtin {} expects {} args",
            builtin.name(),
            builtin.arity()
        );
        Expr::Call(builtin, args)
    }

    /// A rough static weight of the expression: number of AST nodes. The
    /// simulator uses this as the base execution cost of evaluating the
    /// expression on a processing element.
    pub fn weight(&self) -> u64 {
        match self {
            Expr::Lit(_) | Expr::Var(_) | Expr::Param(_) => 1,
            Expr::Unary(_, e) => 1 + e.weight(),
            Expr::Binary(_, l, r) => 1 + l.weight() + r.weight(),
            Expr::Call(b, args) => {
                let base = match b {
                    // Data-touching builtins are weighted heavier; the real
                    // data-size-dependent cost is added by Compute statements.
                    Builtin::Crc32 => 8,
                    Builtin::Concat | Builtin::Slice | Builtin::Fill => 4,
                    _ => 2,
                };
                base + args.iter().map(Expr::weight).sum::<u64>()
            }
        }
    }
}

pub(crate) fn eval_binary(op: BinOp, l: Cow<'_, Value>, r: Cow<'_, Value>) -> Result<Value> {
    use BinOp::*;
    match op {
        Eq => return Ok(Value::Bool(l == r)),
        Ne => return Ok(Value::Bool(l != r)),
        _ => {}
    }
    // `+` on two buffers/strings concatenates by extending the left
    // operand in place: an owned one (a previous `+`'s result) is reused,
    // a borrowed one is copied once.
    if op == Add {
        match (&*l, &*r) {
            (Value::Bytes(_), Value::Bytes(b)) => {
                let Value::Bytes(mut out) = l.into_owned() else {
                    unreachable!("matched Bytes above")
                };
                out.extend_from_slice(b);
                return Ok(Value::Bytes(out));
            }
            (Value::Str(_), Value::Str(b)) => {
                let Value::Str(mut out) = l.into_owned() else {
                    unreachable!("matched Str above")
                };
                out.push_str(b);
                return Ok(Value::Str(out));
            }
            _ => {}
        }
    }
    let (a, b) = match (l.as_int(), r.as_int()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Err(int_operands_error(op, l.data_type(), r.data_type())),
    };
    let v = match op {
        Add => Value::Int(a.wrapping_add(b)),
        Sub => Value::Int(a.wrapping_sub(b)),
        Mul => Value::Int(a.wrapping_mul(b)),
        Div => {
            if b == 0 {
                return Err(Error::Action("division by zero".into()));
            }
            Value::Int(a.wrapping_div(b))
        }
        Mod => {
            if b == 0 {
                return Err(Error::Action("modulo by zero".into()));
            }
            Value::Int(a.wrapping_rem(b))
        }
        Lt => Value::Bool(a < b),
        Le => Value::Bool(a <= b),
        Gt => Value::Bool(a > b),
        Ge => Value::Bool(a >= b),
        BitAnd => Value::Int(a & b),
        BitOr => Value::Int(a | b),
        BitXor => Value::Int(a ^ b),
        Shl => Value::Int(a.wrapping_shl(b as u32 & 63)),
        Shr => Value::Int(a.wrapping_shr(b as u32 & 63)),
        Eq | Ne | And | Or => unreachable!("handled above"),
    };
    Ok(v)
}

pub(crate) fn int_operands_error(op: BinOp, l: DataType, r: DataType) -> Error {
    Error::Action(format!(
        "operator `{}` requires integer operands, got {l} and {r}",
        op.token()
    ))
}

/// Reference software CRC-32 (IEEE 802.3, reflected, init/xorout `!0`).
///
/// This bitwise implementation is the *functional specification*; the
/// table-driven [`crc32`] (used by the `crc32` builtin and by the
/// hardware-accelerator model in `tut-platform`) must agree with it
/// bit-for-bit (checked by property tests here and there).
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The byte-at-a-time CRC-32 lookup table, built at compile time from
/// the same polynomial as [`crc32_bitwise`].
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// The slice-by-8 tables for [`crc32`], built at compile time from
/// [`CRC32_TABLE`]: entry `i` of table `k` is the CRC register after
/// feeding byte `i` followed by `k` zero bytes, so table `k` advances a
/// byte that sits `k` positions before the end of an 8-byte block.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [CRC32_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC32_TABLE[(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Slice-by-8 CRC-32, bit-exact with [`crc32_bitwise`]: eight table
/// lookups fold each 8-byte block into the register at once, and the
/// tail of fewer than 8 bytes goes through [`CRC32_TABLE`] one byte at a
/// time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = !0;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// The largest [`Builtin::arity`]: the length of a call's argument array.
pub(crate) const MAX_ARITY: usize = {
    let mut max = 0;
    let mut i = 0;
    while i < Builtin::ALL.len() {
        if Builtin::ALL[i].arity() > max {
            max = Builtin::ALL[i].arity();
        }
        i += 1;
    }
    max
};

/// Filler for the unused tail of a builtin's argument array.
pub(crate) const ARG_UNSET: Cow<'static, Value> = Cow::Borrowed(&Value::Int(0));

pub(crate) fn arity_error(builtin: Builtin, got: usize) -> Error {
    Error::Action(format!(
        "builtin `{}` expects {} arguments, got {got}",
        builtin.name(),
        builtin.arity(),
    ))
}

pub(crate) fn eval_builtin(builtin: Builtin, args: &[Cow<'_, Value>]) -> Result<Value> {
    if args.len() != builtin.arity() {
        return Err(arity_error(builtin, args.len()));
    }
    let int_arg = |i: usize| -> Result<i64> {
        args[i].as_int().ok_or_else(|| {
            Error::Action(format!(
                "builtin `{}` argument {} must be Int, got {}",
                builtin.name(),
                i,
                args[i].data_type()
            ))
        })
    };
    let bytes_arg = |i: usize| -> Result<&Bytes> {
        match &*args[i] {
            Value::Bytes(b) => Ok(b),
            other => Err(Error::Action(format!(
                "builtin `{}` argument {} must be Bytes, got {}",
                builtin.name(),
                i,
                other.data_type()
            ))),
        }
    };
    match builtin {
        Builtin::Len => match &*args[0] {
            Value::Bytes(b) => Ok(Value::Int(b.len() as i64)),
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            other => Err(Error::Action(format!(
                "len() requires Bytes or Str, got {}",
                other.data_type()
            ))),
        },
        Builtin::Slice => {
            let b = bytes_arg(0)?;
            let from = int_arg(1)?.clamp(0, b.len() as i64) as usize;
            let to = int_arg(2)?.clamp(from as i64, b.len() as i64) as usize;
            Ok(Value::Bytes(b.slice(from..to)))
        }
        Builtin::Concat => {
            let mut out = bytes_arg(0)?.to_vec();
            out.extend_from_slice(bytes_arg(1)?);
            Ok(Value::from(out))
        }
        Builtin::ByteAt => {
            let b = bytes_arg(0)?;
            let i = int_arg(1)?;
            if i < 0 || i as usize >= b.len() {
                return Err(Error::Action(format!(
                    "byte_at index {i} out of range for buffer of {} bytes",
                    b.len()
                )));
            }
            Ok(Value::Int(i64::from(b[i as usize])))
        }
        Builtin::PackInt => {
            let v = int_arg(0)?;
            let width = int_arg(1)?;
            if !(1..=8).contains(&width) {
                return Err(Error::Action(format!(
                    "pack_int width must be 1..=8, got {width}"
                )));
            }
            let be = v.to_be_bytes();
            Ok(Value::from(be[8 - width as usize..].to_vec()))
        }
        Builtin::UnpackInt => {
            let b = bytes_arg(0)?;
            if b.len() > 8 {
                return Err(Error::Action(format!(
                    "unpack_int buffer too long ({} bytes)",
                    b.len()
                )));
            }
            let mut v: i64 = 0;
            for &byte in b.iter() {
                v = (v << 8) | i64::from(byte);
            }
            Ok(Value::Int(v))
        }
        Builtin::Crc32 => Ok(Value::Int(i64::from(crc32(bytes_arg(0)?)))),
        Builtin::Min => Ok(Value::Int(int_arg(0)?.min(int_arg(1)?))),
        Builtin::Max => Ok(Value::Int(int_arg(0)?.max(int_arg(1)?))),
        Builtin::Fill => {
            let byte = int_arg(0)?;
            let count = int_arg(1)?;
            if !(0..=255).contains(&byte) {
                return Err(Error::Action(format!("fill byte {byte} out of range")));
            }
            if !(0..=1 << 20).contains(&count) {
                return Err(Error::Action(format!("fill count {count} out of range")));
            }
            Ok(Value::from(vec![byte as u8; count as usize]))
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Var(n) => write!(f, "{n}"),
            Expr::Param(n) => write!(f, "${n}"),
            Expr::Unary(UnaryOp::Not, e) => write!(f, "!({e})"),
            Expr::Unary(UnaryOp::Neg, e) => write!(f, "-({e})"),
            Expr::Binary(op, l, r) => write!(f, "({l} {} {r})", op.token()),
            Expr::Call(b, args) => {
                write!(f, "{}(", b.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Workload classes for [`Statement::Compute`] annotations.
///
/// These correspond to the `ProcessType` tagged value of
/// `«ApplicationProcess»` (general / dsp / hardware, Table 2): a platform
/// component executes a matching class cheaply and a mismatching class with
/// a penalty; "hardware" workloads (bit-level processing such as CRC) are
/// what the paper offloads to the CRC accelerator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CostClass {
    /// Control-flow-dominated general-purpose processing.
    Control,
    /// Signal-processing (streaming arithmetic) workload.
    Dsp,
    /// Bit-level processing (CRC, scrambling) suited to hardware.
    Bit,
    /// Memory-movement workload (copies, queue management).
    Mem,
}

impl CostClass {
    /// Stable name for serialisation and reports.
    pub fn name(self) -> &'static str {
        match self {
            CostClass::Control => "control",
            CostClass::Dsp => "dsp",
            CostClass::Bit => "bit",
            CostClass::Mem => "mem",
        }
    }

    /// Parses from the stable name.
    pub fn from_name(name: &str) -> Option<CostClass> {
        match name {
            "control" => Some(CostClass::Control),
            "dsp" => Some(CostClass::Dsp),
            "bit" => Some(CostClass::Bit),
            "mem" => Some(CostClass::Mem),
            _ => None,
        }
    }
}

impl fmt::Display for CostClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A statement of the action language.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Statement {
    /// `var := expr` — assigns a process-local variable.
    Assign {
        /// Variable name.
        var: String,
        /// Right-hand side.
        expr: Expr,
    },
    /// `send port.Signal(args…)` — emits a signal through a port.
    Send {
        /// Port name on the owning class.
        port: String,
        /// Signal type to send.
        signal: SignalId,
        /// Payload expressions, matched positionally to signal parameters.
        args: Vec<Expr>,
    },
    /// `if cond { … } else { … }`.
    If {
        /// Condition (coerced with [`Value::is_truthy`]).
        cond: Expr,
        /// Statements executed when the condition holds.
        then_branch: Vec<Statement>,
        /// Statements executed otherwise.
        else_branch: Vec<Statement>,
    },
    /// `while cond { … }` with a mandatory iteration bound so model bugs
    /// cannot hang the simulator.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Statement>,
        /// Maximum number of iterations before [`Error::Action`] is raised.
        max_iter: u32,
    },
    /// Declares `amount` units of computational work of a given class; the
    /// platform's cost model converts units to cycles.
    Compute {
        /// Workload class.
        class: CostClass,
        /// Work amount (evaluated to an `Int`, clamped at zero).
        amount: Expr,
    },
    /// Writes a line to the simulation log (the paper's "custom C
    /// functions" instrumentation).
    Log {
        /// Message template; `{}` placeholders are replaced by `args`.
        message: String,
        /// Values interpolated into the message.
        args: Vec<Expr>,
    },
    /// Arms a named timer to fire after `duration` time units.
    SetTimer {
        /// Timer name, scoped to the process.
        name: String,
        /// Duration expression (evaluated to a non-negative `Int`).
        duration: Expr,
    },
    /// Cancels a named timer; cancelling an unarmed timer is a no-op.
    CancelTimer {
        /// Timer name.
        name: String,
    },
    /// `count name, amount` — adds `amount` to a named per-process counter
    /// in the simulation log (a `CNT` record), so protocol-level tallies
    /// (frames sent, retries, give-ups) flow through the log-file boundary
    /// into the profiling reports.
    Count {
        /// Counter name, scoped to the process.
        counter: String,
        /// Increment expression (evaluated to an `Int`).
        amount: Expr,
    },
}

/// Infers the static data type of an expression where possible (literals
/// and builtins have known types; variables/parameters are `None`).
pub fn static_type(expr: &Expr) -> Option<DataType> {
    match expr {
        Expr::Lit(v) => Some(v.data_type()),
        Expr::Var(_) | Expr::Param(_) => None,
        Expr::Unary(UnaryOp::Not, _) => Some(DataType::Bool),
        Expr::Unary(UnaryOp::Neg, _) => Some(DataType::Int),
        Expr::Binary(op, l, r) => match op {
            BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or => Some(DataType::Bool),
            BinOp::Add => match (static_type(l), static_type(r)) {
                (Some(DataType::Bytes), _) | (_, Some(DataType::Bytes)) => Some(DataType::Bytes),
                (Some(DataType::Str), _) | (_, Some(DataType::Str)) => Some(DataType::Str),
                (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
                _ => None,
            },
            _ => Some(DataType::Int),
        },
        Expr::Call(b, _) => Some(match b {
            Builtin::Len
            | Builtin::ByteAt
            | Builtin::UnpackInt
            | Builtin::Crc32
            | Builtin::Min
            | Builtin::Max => DataType::Int,
            Builtin::Slice | Builtin::Concat | Builtin::PackInt | Builtin::Fill => DataType::Bytes,
        }),
    }
}

/// Stable code: a variable is read but never assigned anywhere in the
/// behaviour and is not a machine variable.
pub const E_UNBOUND_VAR: &str = "E0316";
/// Stable code: `send` argument count differs from the signal's parameter
/// list.
pub const E_SEND_ARITY: &str = "E0317";
/// Stable code: statically-known type mismatch (a non-Bool guard or
/// condition, or a non-Int operand of an arithmetic operator).
pub const E_TYPE_MISMATCH: &str = "E0318";

/// Flow-insensitively type-checks every program of a state machine: entry
/// actions, transition actions, and guards.
///
/// The check is deliberately conservative — it only reports what must fail
/// at runtime regardless of control flow:
///
/// * **E0316** — a variable read that no statement anywhere in the
///   behaviour assigns and that is not a declared machine variable. Signal
///   parameters (`$x`) are exempt: their binding depends on the triggering
///   signal.
/// * **E0317** — a `send` whose argument count differs from the signal's
///   declared parameter list.
/// * **E0318** — an `if`/`while` condition or transition guard whose
///   static type is known and is not `Bool`, or an arithmetic operand
///   whose static type is known and is not `Int`.
///
/// Diagnostics carry no element attribution; callers (the well-formedness
/// checker) attach the owning class.
pub fn type_check(
    model: &crate::model::Model,
    machine: &crate::statemachine::StateMachine,
) -> DiagnosticBag {
    let mut bag = DiagnosticBag::new();
    let mut programs: Vec<&[Statement]> = Vec::new();
    for (_, state) in machine.states() {
        programs.push(state.entry());
    }
    let mut guards: Vec<&Expr> = Vec::new();
    for (_, transition) in machine.transitions() {
        programs.push(transition.actions());
        if let Some(guard) = transition.guard() {
            guards.push(guard);
        }
    }
    // The flow-insensitive binding set: declared machine variables plus
    // every name any statement assigns, anywhere in the behaviour.
    let mut bound: HashSet<&str> = machine
        .variables()
        .iter()
        .map(|v| v.name.as_str())
        .collect();
    for program in &programs {
        collect_assigned(program, &mut bound);
    }
    let cx = CheckCx {
        model,
        machine_name: machine.name(),
        bound,
    };
    for program in &programs {
        cx.check_statements(program, &mut bag);
    }
    for guard in guards {
        cx.check_expr(guard, &mut bag);
        if let Some(t) = static_type(guard) {
            if t != DataType::Bool {
                bag.push(Diagnostic::error(
                    E_TYPE_MISMATCH,
                    format!(
                        "guard `{guard}` in behaviour `{}` has type {t:?}, expected Bool",
                        cx.machine_name
                    ),
                ));
            }
        }
    }
    bag
}

fn collect_assigned<'a>(program: &'a [Statement], bound: &mut HashSet<&'a str>) {
    for statement in program {
        match statement {
            Statement::Assign { var, .. } => {
                bound.insert(var.as_str());
            }
            Statement::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_assigned(then_branch, bound);
                collect_assigned(else_branch, bound);
            }
            Statement::While { body, .. } => collect_assigned(body, bound),
            _ => {}
        }
    }
}

struct CheckCx<'a> {
    model: &'a crate::model::Model,
    machine_name: &'a str,
    bound: HashSet<&'a str>,
}

impl CheckCx<'_> {
    fn check_statements(&self, program: &[Statement], bag: &mut DiagnosticBag) {
        for statement in program {
            match statement {
                Statement::Assign { expr, .. } => self.check_expr(expr, bag),
                Statement::Send { signal, args, .. } => {
                    let sig = self.model.signal(*signal);
                    if args.len() != sig.params().len() {
                        bag.push(Diagnostic::error(
                            E_SEND_ARITY,
                            format!(
                                "send of `{}` in behaviour `{}` passes {} arguments, signal declares {}",
                                sig.name(),
                                self.machine_name,
                                args.len(),
                                sig.params().len()
                            ),
                        ));
                    }
                    for arg in args {
                        self.check_expr(arg, bag);
                    }
                }
                Statement::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    self.check_condition(cond, "if", bag);
                    self.check_statements(then_branch, bag);
                    self.check_statements(else_branch, bag);
                }
                Statement::While { cond, body, .. } => {
                    self.check_condition(cond, "while", bag);
                    self.check_statements(body, bag);
                }
                Statement::Compute { amount, .. } => self.check_expr(amount, bag),
                Statement::Log { args, .. } => {
                    for arg in args {
                        self.check_expr(arg, bag);
                    }
                }
                Statement::SetTimer { duration, .. } => self.check_expr(duration, bag),
                Statement::CancelTimer { .. } => {}
                Statement::Count { amount, .. } => self.check_expr(amount, bag),
            }
        }
    }

    fn check_condition(&self, cond: &Expr, keyword: &str, bag: &mut DiagnosticBag) {
        self.check_expr(cond, bag);
        if let Some(t) = static_type(cond) {
            if t != DataType::Bool {
                bag.push(Diagnostic::error(
                    E_TYPE_MISMATCH,
                    format!(
                        "`{keyword}` condition `{cond}` in behaviour `{}` has type {t:?}, expected Bool",
                        self.machine_name
                    ),
                ));
            }
        }
    }

    fn check_expr(&self, expr: &Expr, bag: &mut DiagnosticBag) {
        match expr {
            Expr::Lit(_) | Expr::Param(_) => {}
            Expr::Var(name) => {
                if !self.bound.contains(name.as_str()) {
                    bag.push(Diagnostic::error(
                        E_UNBOUND_VAR,
                        format!(
                            "variable `{name}` in behaviour `{}` is never assigned and is not a machine variable",
                            self.machine_name
                        ),
                    ));
                }
            }
            Expr::Unary(op, inner) => {
                self.check_expr(inner, bag);
                let expected = match op {
                    UnaryOp::Not => DataType::Bool,
                    UnaryOp::Neg => DataType::Int,
                };
                if let Some(t) = static_type(inner) {
                    if t != expected {
                        bag.push(Diagnostic::error(
                            E_TYPE_MISMATCH,
                            format!(
                                "operand of `{}` in behaviour `{}` has type {t:?}, expected {expected:?}",
                                if *op == UnaryOp::Not { "!" } else { "-" },
                                self.machine_name
                            ),
                        ));
                    }
                }
            }
            Expr::Binary(op, lhs, rhs) => {
                self.check_expr(lhs, bag);
                self.check_expr(rhs, bag);
                // Arithmetic/bitwise operators need Int operands (Add also
                // concatenates strings and byte buffers, so it is exempt).
                let needs_int = matches!(
                    op,
                    BinOp::Sub
                        | BinOp::Mul
                        | BinOp::Div
                        | BinOp::Mod
                        | BinOp::BitAnd
                        | BinOp::BitOr
                        | BinOp::BitXor
                        | BinOp::Shl
                        | BinOp::Shr
                );
                if needs_int {
                    for side in [lhs, rhs] {
                        if let Some(t) = static_type(side) {
                            if t != DataType::Int {
                                bag.push(Diagnostic::error(
                                    E_TYPE_MISMATCH,
                                    format!(
                                        "operand `{side}` of `{}` in behaviour `{}` has type {t:?}, expected Int",
                                        op.token(),
                                        self.machine_name
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            Expr::Call(_, args) => {
                for arg in args {
                    self.check_expr(arg, bag);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{self, Emit, Harness};
    use tut_trace::SplitMix64;

    fn eval(expr: &Expr) -> Value {
        lower::eval(expr, &[], &[]).expect("eval")
    }

    #[test]
    fn arithmetic() {
        let e = Expr::int(2)
            .bin(BinOp::Add, Expr::int(3))
            .bin(BinOp::Mul, Expr::int(4));
        assert_eq!(eval(&e), Value::Int(20));
        let e = Expr::int(7).bin(BinOp::Mod, Expr::int(3));
        assert_eq!(eval(&e), Value::Int(1));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = Expr::int(1).bin(BinOp::Div, Expr::int(0));
        assert!(lower::eval(&e, &[], &[]).is_err());
    }

    #[test]
    fn comparisons_and_logic() {
        let e = Expr::int(1)
            .bin(BinOp::Lt, Expr::int(2))
            .bin(BinOp::And, Expr::bool(true));
        assert_eq!(eval(&e), Value::Bool(true));
        // Short-circuit: rhs would divide by zero.
        let e = Expr::bool(false).bin(BinOp::And, Expr::int(1).bin(BinOp::Div, Expr::int(0)));
        assert_eq!(eval(&e), Value::Bool(false));
    }

    #[test]
    fn variables_and_params() {
        let vars = [("x", Value::Int(10))];
        let params = [("len", Value::Int(4))];
        let e = Expr::var("x").bin(BinOp::Add, Expr::param("len"));
        assert_eq!(lower::eval(&e, &vars, &params).unwrap(), Value::Int(14));
        assert!(lower::eval(&Expr::var("missing"), &vars, &params).is_err());
    }

    #[test]
    fn bytes_builtins() {
        let vars = [("buf", Value::from(vec![1u8, 2, 3, 4, 5]))];
        let len = Expr::call(Builtin::Len, vec![Expr::var("buf")]);
        assert_eq!(lower::eval(&len, &vars, &[]).unwrap(), Value::Int(5));
        let sl = Expr::call(
            Builtin::Slice,
            vec![Expr::var("buf"), Expr::int(1), Expr::int(3)],
        );
        assert_eq!(
            lower::eval(&sl, &vars, &[]).unwrap(),
            Value::Bytes(vec![2, 3].into())
        );
        // Slice clamps out-of-range bounds.
        let sl = Expr::call(
            Builtin::Slice,
            vec![Expr::var("buf"), Expr::int(3), Expr::int(99)],
        );
        assert_eq!(
            lower::eval(&sl, &vars, &[]).unwrap(),
            Value::Bytes(vec![4, 5].into())
        );
    }

    #[test]
    fn pack_unpack_round_trip() {
        let packed = Expr::call(Builtin::PackInt, vec![Expr::int(0xABCD), Expr::int(2)]);
        let v = eval(&packed);
        assert_eq!(v, Value::Bytes(vec![0xAB, 0xCD].into()));
        let unpacked = Expr::call(Builtin::UnpackInt, vec![Expr::Lit(v)]);
        assert_eq!(eval(&unpacked), Value::Int(0xABCD));
    }

    #[test]
    fn crc32_known_answer() {
        // CRC-32 of "123456789" is the classic check value 0xCBF43926.
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The `crc32` builtin (table-driven) equals the bitwise reference on
    /// random buffers.
    #[test]
    fn crc32_builtin_matches_bitwise_reference() {
        let mut rng = SplitMix64::new(0xC4C3_2003);
        let expr = Expr::call(Builtin::Crc32, vec![Expr::var("buf")]);
        for _ in 0..128 {
            let mut data = vec![0u8; rng.next_index(2049)];
            rng.fill_bytes(&mut data);
            let expected = i64::from(crc32_bitwise(&data));
            let vars = [("buf", Value::from(data))];
            assert_eq!(
                lower::eval(&expr, &vars, &[]).unwrap(),
                Value::Int(expected)
            );
        }
    }

    /// Every tail length (0..8 bytes after the last full block) and every
    /// start offset goes through the slice-by-8 loop correctly.
    #[test]
    fn slice_by_8_matches_bitwise_at_every_length_and_offset() {
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5A).collect();
        for start in 0..8 {
            for end in start..=data.len() {
                let part = &data[start..end];
                assert_eq!(crc32(part), crc32_bitwise(part), "bytes {start}..{end}");
            }
        }
    }

    #[test]
    fn fill_rejects_bytes_above_255() {
        let fill = |byte| Expr::call(Builtin::Fill, vec![Expr::int(byte), Expr::int(1)]);
        assert_eq!(eval(&fill(255)), Value::Bytes(vec![0xFF].into()));
        let err = lower::eval(&fill(256), &[], &[]).unwrap_err();
        assert!(matches!(err, Error::Action(_)), "{err:?}");
    }

    #[test]
    fn bytes_concat_via_plus() {
        let e = Expr::Lit(Value::Bytes(vec![1].into()))
            .bin(BinOp::Add, Expr::Lit(Value::Bytes(vec![2].into())));
        assert_eq!(eval(&e), Value::Bytes(vec![1, 2].into()));
        let e =
            Expr::Lit(Value::Str("ab".into())).bin(BinOp::Add, Expr::Lit(Value::Str("c".into())));
        assert_eq!(eval(&e), Value::Str("abc".into()));
    }

    /// `send result.In(expr)`: the program [`lower::eval`] runs.
    fn send(expr: Expr) -> Statement {
        Statement::Send {
            port: "result".into(),
            signal: SignalId::from_index(0),
            args: vec![expr],
        }
    }

    /// Evaluates `expr` twice in one frame, checks both results agree
    /// and that evaluation left the variables untouched.
    fn eval_twice(expr: &Expr, vars: &[(&str, Value)], params: &[(&str, Value)]) -> Value {
        let mut h = Harness::new(vec![send(expr.clone())], vars, params);
        let before = h.vars.clone();
        let (first, _) = h.run().unwrap();
        assert_eq!(h.run().unwrap().0, first, "second eval of {expr}");
        assert_eq!(h.vars, before, "eval mutated the variables for {expr}");
        match &first[..] {
            [Emit::Send { values, .. }] => values[0].clone(),
            other => panic!("expected the send, got {other:?}"),
        }
    }

    #[test]
    fn concat_never_writes_through_a_borrowed_operand() {
        let vars = [("buf", Value::from(vec![3u8, 4]))];
        let twice = Expr::var("buf").bin(BinOp::Add, Expr::var("buf"));
        assert_eq!(
            eval_twice(&twice, &vars, &[]),
            Value::Bytes(vec![3, 4, 3, 4].into())
        );
        let lit = Expr::Lit(Value::Bytes(vec![1, 2].into())).bin(BinOp::Add, Expr::var("buf"));
        assert_eq!(
            eval_twice(&lit, &vars, &[]),
            Value::Bytes(vec![1, 2, 3, 4].into())
        );
        // An owned left operand (the inner `+`'s result) is extended.
        let chain = lit.bin(BinOp::Add, Expr::var("buf"));
        assert_eq!(
            eval_twice(&chain, &vars, &[]),
            Value::Bytes(vec![1, 2, 3, 4, 3, 4].into())
        );
    }

    #[test]
    fn borrowed_reads_match_owned_results() {
        let vars = [("buf", Value::from(vec![0x01u8, 0x02, 0xAA, 0xBB]))];
        let params = [("pdu", Value::from(vec![0x01u8, 0x02, 0xAA, 0xBB]))];
        let len = Expr::call(Builtin::Len, vec![Expr::var("buf")]);
        assert_eq!(eval_twice(&len, &vars, &params), Value::Int(4));
        let head = Expr::call(
            Builtin::Slice,
            vec![Expr::var("buf"), Expr::int(0), Expr::int(2)],
        );
        let unpack = Expr::call(Builtin::UnpackInt, vec![head]);
        assert_eq!(eval_twice(&unpack, &vars, &params), Value::Int(0x0102));
        let eq = Expr::var("buf").bin(BinOp::Eq, Expr::param("pdu"));
        assert_eq!(eval_twice(&eq, &vars, &params), Value::Bool(true));
        let ne = Expr::var("buf").bin(BinOp::Ne, Expr::Lit(Value::Bytes(vec![1].into())));
        assert_eq!(eval_twice(&ne, &vars, &params), Value::Bool(true));
        let byte = Expr::call(Builtin::ByteAt, vec![Expr::param("pdu"), Expr::int(3)]);
        assert_eq!(eval_twice(&byte, &vars, &params), Value::Int(0xBB));
    }

    #[test]
    fn self_slice_assignment_pops_the_prefix() {
        let prog = vec![Statement::Assign {
            var: "buf".into(),
            expr: Expr::call(
                Builtin::Slice,
                vec![
                    Expr::var("buf"),
                    Expr::int(2),
                    Expr::call(Builtin::Len, vec![Expr::var("buf")]),
                ],
            ),
        }];
        let start = [("buf", Value::from(vec![1u8, 2, 3, 4, 5]))];
        let run = || {
            let mut h = Harness::new(prog.clone(), &start, &[]);
            h.run().unwrap();
            h.var("buf").cloned()
        };
        let first = run();
        assert_eq!(first, Some(Value::Bytes(vec![3, 4, 5].into())));
        assert_eq!(run(), first);
        assert_eq!(start[0].1, Value::Bytes(vec![1, 2, 3, 4, 5].into()));
    }

    fn assign(var: &str, expr: Expr) -> Statement {
        Statement::Assign {
            var: var.into(),
            expr,
        }
    }

    fn data_ptr(h: &Harness, var: &str) -> *const u8 {
        h.var(var)
            .and_then(Value::as_bytes)
            .expect("Bytes")
            .as_ptr()
    }

    /// `x = x + e1 + e2` appends to `x`'s own buffer when nothing else
    /// shares it, with the same result and weight as the general path.
    #[test]
    fn self_append_reuses_the_sole_owners_buffer() {
        let mut spare = Vec::with_capacity(64);
        spare.extend_from_slice(&[1u8, 2]);
        let params = [("p", Value::from(vec![3u8]))];
        let expr = Expr::var("x")
            .bin(BinOp::Add, Expr::param("p"))
            .bin(BinOp::Add, Expr::Lit(vec![4u8].into()));
        let expected = lower::eval(&expr, &[("x", Value::from(vec![1u8, 2]))], &params).unwrap();
        let mut h = Harness::new(vec![assign("x", expr.clone())], &[], &params);
        h.set("x", Value::Bytes(spare.into()));
        let before = data_ptr(&h, "x");
        let (_, w) = h.run().unwrap();
        assert_eq!(h.var("x"), Some(&expected));
        assert_eq!(h.var("x"), Some(&Value::from(vec![1, 2, 3, 4])));
        assert_eq!(data_ptr(&h, "x"), before, "appended in place");
        assert_eq!(w, 1 + expr.weight(), "weight is unchanged");
    }

    #[test]
    fn self_append_never_writes_through_an_alias() {
        let mut spare = Vec::with_capacity(64);
        spare.extend_from_slice(&[1u8, 2]);
        let prog = vec![
            assign("b", Expr::var("a")),
            assign(
                "a",
                Expr::var("a").bin(BinOp::Add, Expr::Lit(vec![3u8].into())),
            ),
        ];
        let mut h = Harness::new(prog, &[], &[]);
        h.set("a", Value::Bytes(spare.into()));
        h.run().unwrap();
        assert_eq!(h.var("a"), Some(&Value::from(vec![1, 2, 3])));
        assert_eq!(
            h.var("b"),
            Some(&Value::from(vec![1, 2])),
            "b = a; a = a + x"
        );
    }

    #[test]
    fn appends_that_read_x_take_the_general_path() {
        let y = Value::from(vec![7u8]);
        let x_plus_x = assign("x", Expr::var("x").bin(BinOp::Add, Expr::var("x")));
        let vars = [("x", Value::from(vec![1u8, 2])), ("y", y.clone())];
        let mut h = Harness::new(vec![x_plus_x], &vars, &[]);
        h.run().unwrap();
        let x = h.var("x").cloned().expect("x is bound");
        assert_eq!(x, Value::from(vec![1, 2, 1, 2]), "x = x + x");
        let y_plus_x = assign("x", Expr::var("y").bin(BinOp::Add, Expr::var("x")));
        let mut h = Harness::new(vec![y_plus_x], &[("x", x), ("y", y)], &[]);
        h.run().unwrap();
        assert_eq!(
            h.var("x"),
            Some(&Value::from(vec![7, 1, 2, 1, 2])),
            "x = y + x"
        );
        assert_eq!(h.var("y"), Some(&Value::from(vec![7])), "y is unchanged");
    }

    /// A failing self-append reports the general path's error and leaves
    /// `x` as it was; an unbound `x` reports the usual message.
    #[test]
    fn self_append_errors_match_the_general_path() {
        let unbound = assign(
            "x",
            Expr::var("x").bin(BinOp::Add, Expr::Lit(vec![1u8].into())),
        );
        let err = Harness::new(vec![unbound], &[], &[]).run().unwrap_err();
        assert_eq!(
            err.to_string(),
            Error::Action("unbound variable `x`".into()).to_string()
        );

        let start = [("x", Value::from(vec![1u8, 2]))];
        let cases = [
            Expr::var("x").bin(BinOp::Add, Expr::int(5)),
            Expr::var("x")
                .bin(BinOp::Add, Expr::Lit(vec![3u8].into()))
                .bin(BinOp::Add, Expr::param("missing")),
        ];
        for expr in cases {
            let general = lower::eval(&expr, &start, &[]).unwrap_err().to_string();
            let mut h = Harness::new(vec![assign("x", expr)], &start, &[]);
            let err = h.run().unwrap_err();
            assert_eq!(err.to_string(), general);
            assert_eq!(h.var("x"), Some(&Value::from(vec![1, 2])), "x is unchanged");
        }
    }

    #[test]
    fn execute_assign_and_send() {
        let sig = SignalId::from_index(0);
        let prog = vec![
            Statement::Assign {
                var: "n".into(),
                expr: Expr::int(3),
            },
            Statement::Send {
                port: "pOut".into(),
                signal: sig,
                args: vec![Expr::var("n")],
            },
        ];
        let mut h = Harness::new(prog, &[], &[]);
        let (out, weight) = h.run().unwrap();
        assert_eq!(h.var("n"), Some(&Value::Int(3)));
        assert_eq!(
            out,
            vec![Emit::Send {
                site: 0,
                values: vec![Value::Int(3)],
            }]
        );
        assert_eq!(h.code.sends(), [("pOut".into(), sig)]);
        assert!(weight > 0);
    }

    #[test]
    fn execute_if_else() {
        let prog = vec![Statement::If {
            cond: Expr::var("flag"),
            then_branch: vec![Statement::Assign {
                var: "out".into(),
                expr: Expr::int(1),
            }],
            else_branch: vec![Statement::Assign {
                var: "out".into(),
                expr: Expr::int(2),
            }],
        }];
        let mut h = Harness::new(prog, &[("flag", Value::Bool(false))], &[]);
        h.run().unwrap();
        assert_eq!(h.var("out"), Some(&Value::Int(2)));
    }

    #[test]
    fn while_loop_runs_and_bounds() {
        let prog = vec![Statement::While {
            cond: Expr::var("i").bin(BinOp::Lt, Expr::int(5)),
            body: vec![Statement::Assign {
                var: "i".into(),
                expr: Expr::var("i").bin(BinOp::Add, Expr::int(1)),
            }],
            max_iter: 100,
        }];
        let mut h = Harness::new(prog, &[("i", Value::Int(0))], &[]);
        h.run().unwrap();
        assert_eq!(h.var("i"), Some(&Value::Int(5)));

        // Unbounded loop trips the iteration guard instead of hanging.
        let prog = vec![Statement::While {
            cond: Expr::bool(true),
            body: vec![],
            max_iter: 10,
        }];
        let err = Harness::new(prog, &[], &[]).run().unwrap_err();
        assert!(err.to_string().contains("bound"));
    }

    #[test]
    fn compute_and_timers() {
        let prog = vec![
            Statement::Compute {
                class: CostClass::Bit,
                amount: Expr::int(128),
            },
            Statement::SetTimer {
                name: "beacon".into(),
                duration: Expr::int(1000),
            },
            Statement::CancelTimer {
                name: "beacon".into(),
            },
        ];
        let mut h = Harness::new(prog, &[], &[]);
        let (out, _) = h.run().unwrap();
        assert_eq!(
            out,
            vec![
                Emit::Compute {
                    class: CostClass::Bit,
                    units: 128
                },
                Emit::SetTimer {
                    timer: 0,
                    duration: 1000
                },
                Emit::CancelTimer { timer: 0 },
            ]
        );
        assert_eq!(h.code.timers(), ["beacon".into()]);
    }

    #[test]
    fn count_evaluates_amount_in_env() {
        let prog = vec![Statement::Count {
            counter: "arq.retries".into(),
            amount: Expr::var("n").bin(BinOp::Add, Expr::int(1)),
        }];
        let mut h = Harness::new(prog, &[("n", Value::Int(2))], &[]);
        let (out, w) = h.run().unwrap();
        assert_eq!(
            out,
            vec![Emit::Count {
                counter: 0,
                amount: 3,
            }]
        );
        assert_eq!(h.code.counters(), ["arq.retries".into()]);
        assert!(w > 1, "counting charges expression weight");
    }

    #[test]
    fn call_with_too_many_arguments_fails_cleanly() {
        // A call built around `Expr::call`'s arity check overflows the
        // argument array: it fails with the arity error, after its
        // arguments evaluate.
        let four = Expr::Call(Builtin::Min, vec![Expr::int(1); 4]);
        let err = lower::eval(&four, &[], &[]).unwrap_err().to_string();
        assert!(err.contains("expects 2 arguments, got 4"), "{err}");
        let bad_arg = Expr::Call(Builtin::Min, vec![Expr::var("nope"); 4]);
        let err = lower::eval(&bad_arg, &[], &[]).unwrap_err().to_string();
        assert!(err.contains("unbound variable"), "{err}");
    }

    #[test]
    fn guard_after_unbind_sees_parameters_unbound() {
        // An unbound parameter frame binds nothing: a guard reading a
        // parameter must fail to evaluate (and so not fire), never see
        // the last value bound.
        let guard = Expr::param("n").bin(BinOp::Gt, Expr::int(0));
        let mut h = Harness::new(vec![send(guard)], &[], &[("n", Value::Int(5))]);
        let entry = h.code.entry(h.state);
        let mut f = h.code.frame(&mut h.vars);
        f.bind(h.params.clone(), h.code.params(h.signal));
        let (mut out, mut w) = (Vec::new(), 0);
        entry.run(&mut f, &mut out, &mut w).unwrap();
        assert_eq!(
            out,
            [Emit::Send {
                site: 0,
                values: vec![Value::Bool(true)]
            }]
        );
        f.unbind();
        let err = entry.run(&mut f, &mut out, &mut w).unwrap_err().to_string();
        assert!(err.contains("unbound signal parameter `n`"), "{err}");
    }

    #[test]
    fn log_interpolation() {
        let prog = vec![Statement::Log {
            message: "sent {} frames of {} bytes".into(),
            args: vec![Expr::int(3), Expr::int(512)],
        }];
        let (out, _) = Harness::new(prog, &[], &[]).run().unwrap();
        assert_eq!(out, vec![Emit::Log("sent 3 frames of 512 bytes".into())]);
    }

    #[test]
    fn display_forms() {
        let e = Expr::var("x").bin(BinOp::Add, Expr::int(1));
        assert_eq!(e.to_string(), "(x + 1)");
        let e = Expr::call(Builtin::Crc32, vec![Expr::param("pdu")]);
        assert_eq!(e.to_string(), "crc32($pdu)");
    }

    #[test]
    fn static_types() {
        assert_eq!(static_type(&Expr::int(1)), Some(DataType::Int));
        assert_eq!(
            static_type(&Expr::int(1).bin(BinOp::Lt, Expr::int(2))),
            Some(DataType::Bool)
        );
        assert_eq!(
            static_type(&Expr::call(Builtin::Fill, vec![Expr::int(0), Expr::int(4)])),
            Some(DataType::Bytes)
        );
        assert_eq!(static_type(&Expr::var("x")), None);
    }

    #[test]
    fn builtin_names_round_trip() {
        for b in [
            Builtin::Len,
            Builtin::Slice,
            Builtin::Concat,
            Builtin::ByteAt,
            Builtin::PackInt,
            Builtin::UnpackInt,
            Builtin::Crc32,
            Builtin::Min,
            Builtin::Max,
            Builtin::Fill,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
    }

    #[test]
    fn cost_class_names_round_trip() {
        for c in [
            CostClass::Control,
            CostClass::Dsp,
            CostClass::Bit,
            CostClass::Mem,
        ] {
            assert_eq!(CostClass::from_name(c.name()), Some(c));
        }
    }

    mod type_checking {
        use super::super::*;
        use crate::model::Model;
        use crate::statemachine::{StateMachine, Trigger};

        fn machine_with(actions: Vec<Statement>, guard: Option<Expr>) -> (Model, StateMachine) {
            let model = Model::new("M");
            let mut sm = StateMachine::new("B");
            let s = sm.add_state("S0");
            sm.set_initial(s);
            sm.add_transition(s, s, Trigger::Completion, guard, actions);
            (model, sm)
        }

        #[test]
        fn clean_behaviour_passes() {
            let (model, mut sm) = machine_with(
                vec![
                    Statement::Assign {
                        var: "n".into(),
                        expr: Expr::var("n").bin(BinOp::Add, Expr::int(1)),
                    },
                    Statement::If {
                        cond: Expr::var("n").bin(BinOp::Lt, Expr::var("limit")),
                        then_branch: vec![],
                        else_branch: vec![],
                    },
                ],
                Some(Expr::bool(true)),
            );
            sm.add_variable("limit", DataType::Int, Value::Int(10));
            let bag = type_check(&model, &sm);
            assert!(bag.is_empty(), "{bag}");
        }

        #[test]
        fn unbound_variable_flagged() {
            let (model, sm) = machine_with(
                vec![Statement::Assign {
                    var: "x".into(),
                    expr: Expr::var("never_set"),
                }],
                None,
            );
            let bag = type_check(&model, &sm);
            assert_eq!(bag.len(), 1, "{bag}");
            assert_eq!(bag.first().unwrap().code, E_UNBOUND_VAR);
        }

        #[test]
        fn signal_params_are_exempt() {
            let (model, sm) = machine_with(
                vec![Statement::Assign {
                    var: "x".into(),
                    expr: Expr::param("payload"),
                }],
                None,
            );
            assert!(type_check(&model, &sm).is_empty());
        }

        #[test]
        fn send_arity_mismatch_flagged() {
            let mut model = Model::new("M");
            let sig = model.add_signal("Ping"); // zero parameters
            let mut sm = StateMachine::new("B");
            let s = sm.add_state("S0");
            sm.set_initial(s);
            sm.add_transition(
                s,
                s,
                Trigger::Completion,
                None,
                vec![Statement::Send {
                    port: "p".into(),
                    signal: sig,
                    args: vec![Expr::int(1)],
                }],
            );
            let bag = type_check(&model, &sm);
            assert_eq!(bag.len(), 1, "{bag}");
            assert_eq!(bag.first().unwrap().code, E_SEND_ARITY);
        }

        #[test]
        fn non_bool_condition_and_guard_flagged() {
            let (model, sm) = machine_with(
                vec![Statement::If {
                    cond: Expr::int(1),
                    then_branch: vec![],
                    else_branch: vec![],
                }],
                Some(Expr::int(2).bin(BinOp::Add, Expr::int(2))),
            );
            let bag = type_check(&model, &sm);
            assert_eq!(bag.error_count(), 2, "{bag}");
            assert!(bag.iter().all(|d| d.code == E_TYPE_MISMATCH));
        }

        #[test]
        fn arithmetic_on_bool_literal_flagged() {
            let (model, sm) = machine_with(
                vec![Statement::Assign {
                    var: "x".into(),
                    expr: Expr::bool(true).bin(BinOp::Mul, Expr::int(2)),
                }],
                None,
            );
            let bag = type_check(&model, &sm);
            assert_eq!(bag.len(), 1, "{bag}");
            assert_eq!(bag.first().unwrap().code, E_TYPE_MISMATCH);
        }

        #[test]
        fn unknown_condition_types_are_not_flagged() {
            // `$p` and bare variables have unknown static type; the checker
            // must stay quiet rather than guess.
            let (model, sm) = machine_with(
                vec![
                    Statement::Assign {
                        var: "flag".into(),
                        expr: Expr::int(0),
                    },
                    Statement::While {
                        cond: Expr::var("flag"),
                        body: vec![],
                        max_iter: 8,
                    },
                ],
                Some(Expr::param("ready")),
            );
            assert!(type_check(&model, &sm).is_empty());
        }
    }
}
