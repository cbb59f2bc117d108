//! The TUT-Profile profiling tool (§4.4 of the paper).
//!
//! The paper's tool "contains three main stages that are implemented as
//! TCL scripts":
//!
//! 1. "the XML presentation of the UML 2.0 model is parsed to gather
//!    process group information" — [`groups::parse_model_xml`];
//! 2. the generated code is instrumented to write the simulation
//!    log-file — done by `tut-sim` (Rust path) / `tut-codegen` (C path);
//! 3. "the profiling data in the simulation log-file and the process
//!    group information are combined and analyzed. The results are
//!    gathered to a profiling report" — [`analyze::analyze`] producing a
//!    [`report::ProfilingReport`].
//!
//! The report reproduces **Table 4** of the paper: (a) execution time per
//! process group with proportions, and (b) the matrix of signal counts
//! between groups, plus the per-process transfer metrics the paper
//! mentions as "also available". [`report::render_table4`] prints it in
//! the paper's layout.
//!
//! Both tool boundaries are honest: stage 1 parses the *XML text* of the
//! model (not in-memory structs) and stage 3 parses the *log-file text*.
//!
//! The whole pipeline has two entry points: [`profile_system`], and
//! [`profile_system_prof`], which takes a fault model, a trace sink and a
//! host self-profiler as explicit arguments.
//!
//! # Example
//!
//! `repro fig2`, `repro table4` and `repro transfers` run the complete
//! Figure 2 pipeline on the TUTMAC case study; `examples/quickstart.rs`
//! runs it on the smallest complete system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod error;
pub mod groups;
pub mod pipeline;
pub mod report;
pub mod suggest;

pub use analyze::analyze;
pub use error::ProfilingError;
pub use groups::{GroupEntry, ProcessGroupInfo};
pub use pipeline::{profile_system, profile_system_prof};
pub use report::{render_counters, render_table4, ProfilingReport};
