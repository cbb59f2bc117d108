//! Discrete-event hardware/software co-simulation of TUT-Profile systems.
//!
//! This crate is the "Simulation" stage of the paper's Figure 2 flow: it
//! executes the application's EFSMs (asynchronous communicating extended
//! finite state machines, §4.1) on the parameterised platform — "the
//! execution of application processes is guided with the properties of the
//! platform components" (§3.2) — and produces the **simulation log-file**
//! the profiling tool consumes.
//!
//! Semantics:
//!
//! * Every `«ApplicationProcess»` instance runs its component's state
//!   machine with run-to-completion steps and a private input queue.
//! * Each process executes on the processing element its group is mapped
//!   to; steps on one element are serialised and picked by process
//!   priority. Ungrouped/unmapped processes form the **environment**: they
//!   execute in zero time and contribute zero cycles (the `Environment`
//!   row of Table 4), but their signals are counted.
//! * Step cost = dispatch overhead + action-language weight + `Compute`
//!   workload priced by the [`tut_platform::CostModel`] for the element's
//!   kind, converted to time by the element's clock frequency.
//! * Signals between processes on different elements travel through the
//!   HIBI network ([`tut_hibi`]), paying arbitration, queueing, burst and
//!   bridge costs; same-element signals use the local queue.
//!
//! # Example
//!
//! See `examples/quickstart.rs` at the repository root, or the `tutmac`
//! crate for the full paper case study.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod error;
pub mod intern;
pub mod log;
mod queue;
pub mod report;

pub use config::{SimConfig, Watchdog};
pub use engine::{setup_diagnostic, Simulation};
pub use error::{SimError, E_PARAM_RANGE};
pub use intern::{Interner, Sym};
pub use log::{LogRecord, Record, RecordRef, SimLog};
pub use report::{FaultTally, SimReport};
