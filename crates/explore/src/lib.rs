//! Architecture exploration: grouping and mapping optimisation.
//!
//! The paper uses grouping and mapping as *the* performance levers: "The
//! objective in grouping has been to minimize the communication between
//! process groups, which enhances the performance if groups are mapped to
//! different processing elements" (§4.1), and "The process groups and
//! mapping are modified to improve performance" (§4.4). §3.1 promises
//! "tools for automatic grouping according to the profiling information"
//! as future work — this crate is that tool:
//!
//! * [`commgraph`] — the weighted process-communication graph, built from
//!   a profiling report (dynamic) or from the model's routing structure
//!   (static), the two analysis paths of §3.1.
//! * [`grouping`] — graph partitioning that minimises inter-group
//!   communication: greedy agglomeration, Kernighan–Lin-style refinement,
//!   and seeded simulated annealing, honouring `Fixed` groups.
//! * [`mapping`] — group→element assignment search minimising an
//!   estimated makespan (computation + bus communication), with exhaustive
//!   search for small systems and annealing beyond, evaluated statically
//!   or by re-simulation.
//! * [`apply`] — rewriting a [`tut_profile::SystemModel`] with a new
//!   grouping/mapping while respecting `Fixed` tagged values (§3.3: fixed
//!   mappings "cannot be changed automatically by profiling tools").
//! * [`objective`] — the grouping objective, maintained incrementally so
//!   a candidate single-node move costs O(degree) instead of O(E), with a
//!   debug-mode cross-check against the full recompute.
//!
//! Each optimiser has one entry point, [`partition`] and
//! [`optimise_mapping`]; both run serially and are deterministic (the
//! annealing seeds derive from [`GroupingOptions::seed`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apply;
pub mod commgraph;
pub mod grouping;
pub mod mapping;
pub mod objective;

pub use commgraph::CommGraph;
pub use grouping::{partition, refine, GroupingOptions, GroupingSolution};
pub use mapping::{optimise_mapping, MappingOptions, MappingSolution};
pub use objective::{full_objective, ObjectiveState};
