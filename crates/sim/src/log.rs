//! The simulation log-file: line-oriented records.
//!
//! The paper's flow passes a *log file* from the simulation to the
//! profiling tool (§4.4: "the automatically generated application code is
//! complemented with custom C functions to create simulation log-file
//! during simulations"). To keep that tool boundary honest, the log has a
//! canonical **text form**; external consumers parse the text, not the
//! in-memory structs.
//!
//! Record lines (whitespace-separated, one record per line):
//!
//! ```text
//! EXEC  <time_ns> <process> <cycles> <duration_ns> <from_state> <to_state> <trigger>
//! SIG   <time_ns> <sender> <receiver> <signal> <bytes> <latency_ns>
//! DROP  <time_ns> <process> <signal>
//! LOST  <time_ns> <process> <port> <signal>
//! USER  <time_ns> <process> <message…>
//! FAULT <time_ns> <process> <kind> <signal>
//! CNT   <time_ns> <process> <counter> <amount>
//! ```
//!
//! Name fields and messages are **escaped** so embedded whitespace
//! cannot shift field boundaries: `\` → `\\`, space → `\s`, tab → `\t`,
//! newline → `\n`, carriage return → `\r`, and the empty string → `\e`.
//! Parsing reverses the escapes, so `to_text` → `parse` is lossless for
//! arbitrary model-provided names and messages.
//!
//! Internally a [`SimLog`] stores **interned** records: every name field
//! is a [`Sym`] into the log's [`Interner`], so the simulation hot path
//! appends `Copy`-cheap structs and strings are resolved only when the
//! text form is rendered. One generic [`Record`] serves every form:
//! [`SimLog::records`] exposes the interned `Record<Sym>`s,
//! [`SimLog::iter`] yields [`RecordRef`]s (borrowed string slices), and
//! [`LogRecord`] (owned strings) remains the type for single-line
//! parsing and construction.

use std::fmt;

use crate::intern::{Interner, Sym};

/// Escapes one whitespace-separated field of a log line.
pub(crate) fn escape_field(text: &str) -> String {
    if text.is_empty() {
        return "\\e".to_owned();
    }
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape_field`]. Unknown escapes keep the escaped
/// character, and a trailing backslash stays literal, so hand-written
/// logs without escapes still parse.
fn unescape_field(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('e') => {}
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// One record of the simulation log, generic over how its name fields
/// (process, state, signal, trigger, counter…) are held:
///
/// * [`LogRecord`] owns `String`s: the type for construction and
///   single-line parsing;
/// * [`RecordRef`] borrows `&str`s resolved from a log
///   ([`SimLog::iter`]);
/// * `Record<Sym>` is the interned storage form ([`SimLog::records`]):
///   `Copy`, so the simulation hot path appends without allocating and
///   readers can key tables by [`Sym`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Record<N> {
    /// A run-to-completion step executed.
    Exec {
        /// Step start time (ns).
        time_ns: u64,
        /// Process instance name (dotted path, e.g. `ui.msduRec`).
        process: N,
        /// Cycles charged on the processing element.
        cycles: u64,
        /// Wall-clock duration on the element (ns).
        duration_ns: u64,
        /// State before the step.
        from_state: N,
        /// State after the step.
        to_state: N,
        /// What triggered the step (signal name, `timer:<name>`, or
        /// `start`).
        trigger: N,
    },
    /// A signal was delivered from one process to another.
    Sig {
        /// Delivery time (ns).
        time_ns: u64,
        /// Sending process instance name.
        sender: N,
        /// Receiving process instance name.
        receiver: N,
        /// Signal type name.
        signal: N,
        /// Payload bytes (including header).
        bytes: u64,
        /// End-to-end latency from send to delivery (ns).
        latency_ns: u64,
    },
    /// A delivered signal found no enabled transition and was discarded.
    Drop {
        /// Time of the discard (ns).
        time_ns: u64,
        /// The discarding process.
        process: N,
        /// The discarded signal.
        signal: N,
    },
    /// A sent signal had no connected receiver.
    Lost {
        /// Send time (ns).
        time_ns: u64,
        /// The sending process.
        process: N,
        /// The port it was sent through.
        port: N,
        /// The signal type name.
        signal: N,
    },
    /// A `Log` action emitted by the model itself.
    User {
        /// Emission time (ns).
        time_ns: u64,
        /// The emitting process.
        process: N,
        /// The rendered message.
        message: N,
    },
    /// A fault was injected (or a platform-model defect surfaced): a
    /// transfer was corrupted or dropped by the fault model, or a
    /// transfer found no route.
    Fault {
        /// Injection time (ns).
        time_ns: u64,
        /// The sending process whose transfer was hit.
        process: N,
        /// Fault kind: `corrupt`, `drop`, or `unroutable`.
        kind: N,
        /// The signal type name of the affected transfer.
        signal: N,
    },
    /// A `count` action: a named per-process counter was incremented.
    Count {
        /// Emission time (ns).
        time_ns: u64,
        /// The counting process.
        process: N,
        /// The counter name (dotted names group related tallies).
        counter: N,
        /// Signed increment.
        amount: i64,
    },
}

/// One record with owned strings (construction and single-line parsing).
pub type LogRecord = Record<String>;

/// One record borrowing its strings from a [`SimLog`]'s symbol table.
pub type RecordRef<'a> = Record<&'a str>;

impl<N> Record<N> {
    /// The record's timestamp.
    pub fn time_ns(&self) -> u64 {
        match self {
            Record::Exec { time_ns, .. }
            | Record::Sig { time_ns, .. }
            | Record::Drop { time_ns, .. }
            | Record::Lost { time_ns, .. }
            | Record::User { time_ns, .. }
            | Record::Fault { time_ns, .. }
            | Record::Count { time_ns, .. } => *time_ns,
        }
    }

    /// The same record with every name field mapped through `f`, called
    /// in field order.
    pub(crate) fn map_names<M>(&self, mut f: impl FnMut(&N) -> M) -> Record<M> {
        match self {
            Record::Exec {
                time_ns,
                process,
                cycles,
                duration_ns,
                from_state,
                to_state,
                trigger,
            } => Record::Exec {
                time_ns: *time_ns,
                process: f(process),
                cycles: *cycles,
                duration_ns: *duration_ns,
                from_state: f(from_state),
                to_state: f(to_state),
                trigger: f(trigger),
            },
            Record::Sig {
                time_ns,
                sender,
                receiver,
                signal,
                bytes,
                latency_ns,
            } => Record::Sig {
                time_ns: *time_ns,
                sender: f(sender),
                receiver: f(receiver),
                signal: f(signal),
                bytes: *bytes,
                latency_ns: *latency_ns,
            },
            Record::Drop {
                time_ns,
                process,
                signal,
            } => Record::Drop {
                time_ns: *time_ns,
                process: f(process),
                signal: f(signal),
            },
            Record::Lost {
                time_ns,
                process,
                port,
                signal,
            } => Record::Lost {
                time_ns: *time_ns,
                process: f(process),
                port: f(port),
                signal: f(signal),
            },
            Record::User {
                time_ns,
                process,
                message,
            } => Record::User {
                time_ns: *time_ns,
                process: f(process),
                message: f(message),
            },
            Record::Fault {
                time_ns,
                process,
                kind,
                signal,
            } => Record::Fault {
                time_ns: *time_ns,
                process: f(process),
                kind: f(kind),
                signal: f(signal),
            },
            Record::Count {
                time_ns,
                process,
                counter,
                amount,
            } => Record::Count {
                time_ns: *time_ns,
                process: f(process),
                counter: f(counter),
                amount: *amount,
            },
        }
    }

    /// Writes the record's text line (no newline), rendering each name
    /// field through `field` (which must escape it).
    fn write_line<D: fmt::Display>(
        &self,
        out: &mut impl fmt::Write,
        field: impl Fn(&N) -> D,
    ) -> fmt::Result {
        match self {
            Record::Exec {
                time_ns,
                process,
                cycles,
                duration_ns,
                from_state,
                to_state,
                trigger,
            } => write!(
                out,
                "EXEC {time_ns} {} {cycles} {duration_ns} {} {} {}",
                field(process),
                field(from_state),
                field(to_state),
                field(trigger)
            ),
            Record::Sig {
                time_ns,
                sender,
                receiver,
                signal,
                bytes,
                latency_ns,
            } => write!(
                out,
                "SIG {time_ns} {} {} {} {bytes} {latency_ns}",
                field(sender),
                field(receiver),
                field(signal)
            ),
            Record::Drop {
                time_ns,
                process,
                signal,
            } => write!(out, "DROP {time_ns} {} {}", field(process), field(signal)),
            Record::Lost {
                time_ns,
                process,
                port,
                signal,
            } => write!(
                out,
                "LOST {time_ns} {} {} {}",
                field(process),
                field(port),
                field(signal)
            ),
            Record::User {
                time_ns,
                process,
                message,
            } => write!(out, "USER {time_ns} {} {}", field(process), field(message)),
            Record::Fault {
                time_ns,
                process,
                kind,
                signal,
            } => write!(
                out,
                "FAULT {time_ns} {} {} {}",
                field(process),
                field(kind),
                field(signal)
            ),
            Record::Count {
                time_ns,
                process,
                counter,
                amount,
            } => write!(
                out,
                "CNT {time_ns} {} {} {amount}",
                field(process),
                field(counter)
            ),
        }
    }
}

impl LogRecord {
    /// Parses one log line.
    ///
    /// Returns `None` for blank lines and lines starting with `#`
    /// (comments); malformed records produce an error string naming the
    /// problem.
    pub(crate) fn parse_line(line: &str) -> Result<Option<LogRecord>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut fields = line.split_whitespace();
        let kind = fields.next().expect("non-empty line has a first field");
        let mut next = |what: &str| -> Result<&str, String> {
            fields
                .next()
                .ok_or_else(|| format!("{kind} record is missing its {what} field"))
        };
        let parse_u64 = |text: &str, what: &str| -> Result<u64, String> {
            text.parse()
                .map_err(|_| format!("bad {what} value `{text}` in {kind} record"))
        };
        let record = match kind {
            "EXEC" => {
                let time_ns = parse_u64(next("time")?, "time")?;
                let process = unescape_field(next("process")?);
                let cycles = parse_u64(next("cycles")?, "cycles")?;
                let duration_ns = parse_u64(next("duration")?, "duration")?;
                let from_state = unescape_field(next("from_state")?);
                let to_state = unescape_field(next("to_state")?);
                let trigger = unescape_field(next("trigger")?);
                LogRecord::Exec {
                    time_ns,
                    process,
                    cycles,
                    duration_ns,
                    from_state,
                    to_state,
                    trigger,
                }
            }
            "SIG" => {
                let time_ns = parse_u64(next("time")?, "time")?;
                let sender = unescape_field(next("sender")?);
                let receiver = unescape_field(next("receiver")?);
                let signal = unescape_field(next("signal")?);
                let bytes = parse_u64(next("bytes")?, "bytes")?;
                let latency_ns = parse_u64(next("latency")?, "latency")?;
                LogRecord::Sig {
                    time_ns,
                    sender,
                    receiver,
                    signal,
                    bytes,
                    latency_ns,
                }
            }
            "DROP" => LogRecord::Drop {
                time_ns: parse_u64(next("time")?, "time")?,
                process: unescape_field(next("process")?),
                signal: unescape_field(next("signal")?),
            },
            "LOST" => LogRecord::Lost {
                time_ns: parse_u64(next("time")?, "time")?,
                process: unescape_field(next("process")?),
                port: unescape_field(next("port")?),
                signal: unescape_field(next("signal")?),
            },
            "USER" => {
                let time_ns = parse_u64(next("time")?, "time")?;
                let process = unescape_field(next("process")?);
                // Canonical logs escape the message into one field;
                // hand-written logs may leave it as plain words.
                let message = fields.map(unescape_field).collect::<Vec<_>>().join(" ");
                LogRecord::User {
                    time_ns,
                    process,
                    message,
                }
            }
            "FAULT" => LogRecord::Fault {
                time_ns: parse_u64(next("time")?, "time")?,
                process: unescape_field(next("process")?),
                kind: unescape_field(next("kind")?),
                signal: unescape_field(next("signal")?),
            },
            "CNT" => {
                let time_ns = parse_u64(next("time")?, "time")?;
                let process = unescape_field(next("process")?);
                let counter = unescape_field(next("counter")?);
                let amount_text = next("amount")?;
                let amount = amount_text
                    .parse()
                    .map_err(|_| format!("bad amount value `{amount_text}` in CNT record"))?;
                LogRecord::Count {
                    time_ns,
                    process,
                    counter,
                    amount,
                }
            }
            other => return Err(format!("unknown log record kind `{other}`")),
        };
        Ok(Some(record))
    }
}

impl fmt::Display for LogRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_line(f, |s| escape_field(s))
    }
}

impl RecordRef<'_> {
    /// Copies the record into its owned form.
    pub fn to_owned(&self) -> LogRecord {
        self.map_names(|s| (*s).to_owned())
    }
}

/// The header line of every rendered log file.
const HEADER: &str = "# TUT-Profile simulation log-file v1\n";

/// The full simulation log: interned records plus the symbol table that
/// resolves them, with per-counter tallies accumulated at push time.
#[derive(Clone, Debug, Default)]
pub struct SimLog {
    interner: Interner,
    records: Vec<Record<Sym>>,
    /// `CNT` totals accumulated at push time, so report queries never
    /// rescan the log: `(counter, total)` pairs in first-use order, summed
    /// over every process. A run counts under a handful of names, so the
    /// pair scan hashes nothing.
    counters: Vec<(Sym, i64)>,
}

/// Decimal digit count of a `u64` (every value prints at least one).
fn digits(mut n: u64) -> usize {
    let mut count = 1;
    while n >= 10 {
        n /= 10;
        count += 1;
    }
    count
}

/// Decimal width of an `i64` including a possible sign.
fn digits_i64(n: i64) -> usize {
    if n < 0 {
        1 + digits(n.unsigned_abs())
    } else {
        digits(n as u64)
    }
}

impl SimLog {
    /// An empty log.
    pub fn new() -> SimLog {
        SimLog::default()
    }

    /// Interns `text` into this log's symbol table.
    pub fn intern(&mut self, text: &str) -> Sym {
        self.interner.intern(text)
    }

    /// Resolves a symbol produced by [`SimLog::intern`].
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// The exact rendered line length of `record`, newline included.
    fn line_len(&self, record: &Record<Sym>) -> usize {
        let esc = |s: &Sym| self.interner.escaped(*s).len();
        match record {
            Record::Exec {
                time_ns,
                process,
                cycles,
                duration_ns,
                from_state,
                to_state,
                trigger,
            } => {
                // "EXEC" + 7 space-separated fields + newline.
                4 + 8
                    + digits(*time_ns)
                    + esc(process)
                    + digits(*cycles)
                    + digits(*duration_ns)
                    + esc(from_state)
                    + esc(to_state)
                    + esc(trigger)
            }
            Record::Sig {
                time_ns,
                sender,
                receiver,
                signal,
                bytes,
                latency_ns,
            } => {
                3 + 7
                    + digits(*time_ns)
                    + esc(sender)
                    + esc(receiver)
                    + esc(signal)
                    + digits(*bytes)
                    + digits(*latency_ns)
            }
            Record::Drop {
                time_ns,
                process,
                signal,
            } => 4 + 4 + digits(*time_ns) + esc(process) + esc(signal),
            Record::Lost {
                time_ns,
                process,
                port,
                signal,
            } => 4 + 5 + digits(*time_ns) + esc(process) + esc(port) + esc(signal),
            Record::User {
                time_ns,
                process,
                message,
            } => 4 + 4 + digits(*time_ns) + esc(process) + esc(message),
            Record::Fault {
                time_ns,
                process,
                kind,
                signal,
            } => 5 + 5 + digits(*time_ns) + esc(process) + esc(kind) + esc(signal),
            Record::Count {
                time_ns,
                process,
                counter,
                amount,
            } => 3 + 5 + digits(*time_ns) + esc(process) + esc(counter) + digits_i64(*amount),
        }
    }

    /// Appends one interned record, maintaining the counter tallies.
    fn push_compact(&mut self, record: Record<Sym>) {
        if let Record::Count {
            counter, amount, ..
        } = record
        {
            match self.counters.iter_mut().find(|(c, _)| *c == counter) {
                Some((_, total)) => *total += amount,
                None => self.counters.push((counter, amount)),
            }
        }
        self.records.push(record);
    }

    /// Appends a record, interning its string fields.
    pub fn push(&mut self, record: LogRecord) {
        let compact = record.map_names(|name| self.interner.intern(name));
        self.push_compact(compact);
    }

    /// Appends an `EXEC` record from pre-interned symbols (hot path).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn push_exec(
        &mut self,
        time_ns: u64,
        process: Sym,
        cycles: u64,
        duration_ns: u64,
        from_state: Sym,
        to_state: Sym,
        trigger: Sym,
    ) {
        self.push_compact(Record::Exec {
            time_ns,
            process,
            cycles,
            duration_ns,
            from_state,
            to_state,
            trigger,
        });
    }

    /// Appends a `SIG` record from pre-interned symbols (hot path).
    pub(crate) fn push_sig(
        &mut self,
        time_ns: u64,
        sender: Sym,
        receiver: Sym,
        signal: Sym,
        bytes: u64,
        latency_ns: u64,
    ) {
        self.push_compact(Record::Sig {
            time_ns,
            sender,
            receiver,
            signal,
            bytes,
            latency_ns,
        });
    }

    /// Appends a `DROP` record from pre-interned symbols (hot path).
    pub(crate) fn push_drop(&mut self, time_ns: u64, process: Sym, signal: Sym) {
        self.push_compact(Record::Drop {
            time_ns,
            process,
            signal,
        });
    }

    /// Appends a `LOST` record from pre-interned symbols.
    pub(crate) fn push_lost(&mut self, time_ns: u64, process: Sym, port: Sym, signal: Sym) {
        self.push_compact(Record::Lost {
            time_ns,
            process,
            port,
            signal,
        });
    }

    /// Appends a `USER` record; the message is interned on first use.
    pub(crate) fn push_user(&mut self, time_ns: u64, process: Sym, message: &str) {
        let message = self.interner.intern(message);
        self.push_compact(Record::User {
            time_ns,
            process,
            message,
        });
    }

    /// Appends a `FAULT` record from pre-interned symbols.
    pub(crate) fn push_fault(&mut self, time_ns: u64, process: Sym, kind: Sym, signal: Sym) {
        self.push_compact(Record::Fault {
            time_ns,
            process,
            kind,
            signal,
        });
    }

    /// Appends a `CNT` record from pre-interned symbols (hot path).
    pub(crate) fn push_count(&mut self, time_ns: u64, process: Sym, counter: Sym, amount: i64) {
        self.push_compact(Record::Count {
            time_ns,
            process,
            counter,
            amount,
        });
    }

    /// Borrowed view of one record by index.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.len()`.
    pub fn get(&self, index: usize) -> RecordRef<'_> {
        self.records[index].map_names(|&sym| self.interner.resolve(sym))
    }

    /// Iterates over the records as borrowed [`RecordRef`]s.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RecordRef<'_>> + '_ {
        (0..self.records.len()).map(|i| self.get(i))
    }

    /// Exact rendered length of the records (every line incl. its
    /// newline, header excluded), summed when the log is rendered.
    fn text_len(&self) -> usize {
        self.records.iter().map(|r| self.line_len(r)).sum()
    }

    /// Renders the whole log as its canonical text form, streaming every
    /// record into one exactly-sized buffer.
    pub fn to_text(&self) -> String {
        let len = HEADER.len() + self.text_len();
        let mut out = String::with_capacity(len);
        out.push_str(HEADER);
        for record in &self.records {
            let _ = record.write_line(&mut out, |&sym| self.interner.escaped(sym));
            out.push('\n');
        }
        debug_assert_eq!(out.len(), len, "the summed text length must be exact");
        out
    }

    /// Parses a log from its text form.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line's error, prefixed with its line
    /// number.
    pub fn parse(text: &str) -> Result<SimLog, String> {
        let mut log = SimLog::new();
        for (number, line) in text.lines().enumerate() {
            match LogRecord::parse_line(line) {
                Ok(Some(record)) => log.push(record),
                Ok(None) => {}
                Err(err) => return Err(format!("line {}: {err}", number + 1)),
            }
        }
        Ok(log)
    }

    /// The records in their interned form, for readers that aggregate
    /// by symbol (see [`SimLog::symbol_count`]) and resolve names only
    /// for their output.
    pub fn records(&self) -> &[Record<Sym>] {
        &self.records
    }

    /// Number of distinct symbols: every [`Sym`] in [`SimLog::records`]
    /// has an [`index`](Sym::index) below this, so tables indexed by
    /// symbol can be sized once.
    pub fn symbol_count(&self) -> usize {
        self.interner.len()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total of one named counter across all processes, from the tallies
    /// accumulated at push time (`CNT` records).
    pub fn counter_total(&self, counter: &str) -> i64 {
        let Some(counter) = self.interner.lookup(counter) else {
            return 0;
        };
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map_or(0, |(_, total)| *total)
    }
}

// Equality compares resolved record content: two logs with different
// interning orders (e.g. engine-built vs parsed) are equal when every
// record reads the same.
impl PartialEq for SimLog {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}
impl Eq for SimLog {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Exec {
                time_ns: 100,
                process: "ui.msduRec".into(),
                cycles: 420,
                duration_ns: 8400,
                from_state: "Idle".into(),
                to_state: "Busy".into(),
                trigger: "MsduRequest".into(),
            },
            LogRecord::Sig {
                time_ns: 8600,
                sender: "ui.msduRec".into(),
                receiver: "dp.frag".into(),
                signal: "Msdu".into(),
                bytes: 1508,
                latency_ns: 200,
            },
            LogRecord::Drop {
                time_ns: 9000,
                process: "mng".into(),
                signal: "Beacon".into(),
            },
            LogRecord::Lost {
                time_ns: 9100,
                process: "rca".into(),
                port: "pPhy".into(),
                signal: "TxFrame".into(),
            },
            LogRecord::User {
                time_ns: 9200,
                process: "rca".into(),
                message: "sent 3 frames".into(),
            },
            LogRecord::Fault {
                time_ns: 9300,
                process: "rca".into(),
                kind: "corrupt".into(),
                signal: "TxFrame".into(),
            },
            LogRecord::Count {
                time_ns: 9400,
                process: "rca".into(),
                counter: "arq.retries".into(),
                amount: -2,
            },
        ]
    }

    #[test]
    fn round_trip_text() {
        let mut log = SimLog::new();
        for r in sample_records() {
            log.push(r);
        }
        let text = log.to_text();
        let parsed = SimLog::parse(&text).unwrap();
        assert_eq!(parsed, log);
    }

    #[test]
    fn parse_skips_comments_and_blanks() {
        let log = SimLog::parse("# header\n\nDROP 5 p S\n").unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = SimLog::parse("DROP 5 p S\nEXEC nonsense\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(LogRecord::parse_line("WAT 1 2 3").is_err());
    }

    #[test]
    fn user_messages_keep_spaces_and_newlines() {
        let record = LogRecord::User {
            time_ns: 1,
            process: "p".into(),
            message: "hello embedded\nworld".into(),
        };
        let line = record.to_string();
        assert!(!line.contains('\n'), "record stays one line: {line}");
        let parsed = LogRecord::parse_line(&line).unwrap().unwrap();
        assert_eq!(parsed, record, "message survives exactly");
    }

    #[test]
    fn unescaped_user_messages_still_parse() {
        let parsed = LogRecord::parse_line("USER 7 p three plain words")
            .unwrap()
            .unwrap();
        match parsed {
            LogRecord::User { message, .. } => assert_eq!(message, "three plain words"),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Adversarial field contents: whitespace, backslashes, escape-like
    /// sequences, and empty strings must survive the text round trip
    /// without shifting field boundaries.
    #[test]
    fn adversarial_fields_round_trip() {
        let nasty = [
            "plain",
            "two words",
            " lead",
            "trail ",
            "tab\there",
            "line\nbreak",
            "cr\rhere",
            "back\\slash",
            "looks\\slike\\san\\sescape",
            "\\e",
            "",
            "  \t \n ",
        ];
        let mut log = SimLog::new();
        for (i, a) in nasty.iter().enumerate() {
            for b in &nasty {
                log.push(LogRecord::Exec {
                    time_ns: i as u64,
                    process: (*a).to_owned(),
                    cycles: 1,
                    duration_ns: 2,
                    from_state: (*b).to_owned(),
                    to_state: format!("{a}{b}"),
                    trigger: (*b).to_owned(),
                });
                log.push(LogRecord::Sig {
                    time_ns: i as u64,
                    sender: (*a).to_owned(),
                    receiver: (*b).to_owned(),
                    signal: format!("{b}{a}"),
                    bytes: 3,
                    latency_ns: 4,
                });
                log.push(LogRecord::Lost {
                    time_ns: i as u64,
                    process: (*a).to_owned(),
                    port: (*b).to_owned(),
                    signal: (*a).to_owned(),
                });
                log.push(LogRecord::User {
                    time_ns: i as u64,
                    process: (*a).to_owned(),
                    message: format!("{a} {b}"),
                });
            }
        }
        let text = log.to_text();
        for line in text.lines() {
            assert_eq!(line.trim(), line, "no stray leading/trailing whitespace");
        }
        let parsed = SimLog::parse(&text).expect("canonical text parses");
        assert_eq!(parsed, log);
    }

    #[test]
    fn escape_examples() {
        assert_eq!(escape_field("a b"), "a\\sb");
        assert_eq!(escape_field(""), "\\e");
        assert_eq!(escape_field("\\"), "\\\\");
        assert_eq!(unescape_field("a\\sb"), "a b");
        assert_eq!(unescape_field("\\e"), "");
        assert_eq!(unescape_field("\\q"), "q", "unknown escape is lenient");
        assert_eq!(
            unescape_field("oops\\"),
            "oops\\",
            "trailing backslash kept"
        );
    }

    #[test]
    fn timestamps_accessible() {
        for r in sample_records() {
            assert!(r.time_ns() > 0);
        }
    }

    /// Satellite property: `parse_line(to_line(r)) == r` for every
    /// variant, including whitespace-laden fields and `u64::MAX`
    /// timestamps.
    #[test]
    fn every_variant_round_trips_line_by_line() {
        let fields = ["plain", "two words", "", "tab\tand\nnewline", "\\e", " x "];
        let mut cases: Vec<LogRecord> = Vec::new();
        for f in fields {
            for time_ns in [0, 7, u64::MAX] {
                let f = f.to_owned();
                cases.extend([
                    LogRecord::Exec {
                        time_ns,
                        process: f.clone(),
                        cycles: u64::MAX,
                        duration_ns: u64::MAX,
                        from_state: f.clone(),
                        to_state: f.clone(),
                        trigger: f.clone(),
                    },
                    LogRecord::Sig {
                        time_ns,
                        sender: f.clone(),
                        receiver: f.clone(),
                        signal: f.clone(),
                        bytes: u64::MAX,
                        latency_ns: 0,
                    },
                    LogRecord::Drop {
                        time_ns,
                        process: f.clone(),
                        signal: f.clone(),
                    },
                    LogRecord::Lost {
                        time_ns,
                        process: f.clone(),
                        port: f.clone(),
                        signal: f.clone(),
                    },
                    LogRecord::User {
                        time_ns,
                        process: f.clone(),
                        message: f.clone(),
                    },
                    LogRecord::Fault {
                        time_ns,
                        process: f.clone(),
                        kind: f.clone(),
                        signal: f.clone(),
                    },
                    LogRecord::Count {
                        time_ns,
                        process: f.clone(),
                        counter: f.clone(),
                        amount: i64::MIN,
                    },
                    LogRecord::Count {
                        time_ns,
                        process: f,
                        counter: "c".into(),
                        amount: i64::MAX,
                    },
                ]);
            }
        }
        for record in cases {
            let line = record.to_string();
            let parsed = LogRecord::parse_line(&line)
                .unwrap_or_else(|e| panic!("`{line}` failed: {e}"))
                .unwrap();
            assert_eq!(parsed, record, "line `{line}`");
        }
    }

    /// The render-time text length is exact: `to_text` never
    /// reallocates, for any field content.
    #[test]
    fn to_text_capacity_is_exact() {
        let mut log = SimLog::new();
        for r in sample_records() {
            log.push(r);
        }
        log.push(LogRecord::Count {
            time_ns: u64::MAX,
            process: "two words".into(),
            counter: "".into(),
            amount: i64::MIN,
        });
        let text = log.to_text();
        assert_eq!(text.len(), HEADER.len() + log.text_len());
        assert_eq!(text.capacity(), text.len(), "one exactly-sized buffer");
    }

    /// Typed (pre-interned) pushes and owned-record pushes render
    /// byte-identically: the interner is a storage detail, not a format
    /// change.
    #[test]
    fn interned_pushes_render_identically_to_owned_pushes() {
        let mut owned = SimLog::new();
        for r in sample_records() {
            owned.push(r);
        }
        let mut interned = SimLog::new();
        // Intern in a scrambled order to prove order does not matter.
        let rca = interned.intern("rca");
        let busy = interned.intern("Busy");
        let ui = interned.intern("ui.msduRec");
        let idle = interned.intern("Idle");
        let msdu_req = interned.intern("MsduRequest");
        let frag = interned.intern("dp.frag");
        let msdu = interned.intern("Msdu");
        let mng = interned.intern("mng");
        let beacon = interned.intern("Beacon");
        let p_phy = interned.intern("pPhy");
        let tx_frame = interned.intern("TxFrame");
        let corrupt = interned.intern("corrupt");
        interned.push_exec(100, ui, 420, 8400, idle, busy, msdu_req);
        interned.push_sig(8600, ui, frag, msdu, 1508, 200);
        interned.push_drop(9000, mng, beacon);
        interned.push_lost(9100, rca, p_phy, tx_frame);
        interned.push_user(9200, rca, "sent 3 frames");
        interned.push_fault(9300, rca, corrupt, tx_frame);
        let retries = interned.intern("arq.retries");
        interned.push_count(9400, rca, retries, -2);
        assert_eq!(interned.to_text(), owned.to_text());
        assert_eq!(interned, owned);
    }

    #[test]
    fn counter_tallies_accumulate_at_push_time() {
        let mut log = SimLog::new();
        let p1 = log.intern("p1");
        let p2 = log.intern("p2");
        let tx = log.intern("arq.tx");
        let acked = log.intern("arq.acked");
        log.push_count(1, p1, tx, 2);
        log.push_count(2, p1, tx, 3);
        log.push_count(3, p2, tx, 10);
        log.push_count(4, p1, acked, 4);
        assert_eq!(log.counter_total("arq.tx"), 15);
        assert_eq!(log.counter_total("arq.acked"), 4);
        assert_eq!(log.counter_total("nope"), 0);
    }
}
