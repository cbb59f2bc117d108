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
//! # Example
//!
//! See `examples/tutmac_flow.rs` at the repository root for the complete
//! Figure 2 pipeline.

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
pub use pipeline::{
    profile_system, profile_system_prof, profile_system_with, profile_system_with_faults,
};
pub use report::{render_counters, render_table4, ProfilingReport};
