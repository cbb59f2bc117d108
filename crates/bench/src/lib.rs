//! The table/figure reproduction binary (`repro`) and the code it
//! shares with the flow benchmark (`perfbench/`): the cold and warm
//! checkers, the exploration loop, the fault sweep and the self-profiler
//! commands.
//!
//! See `DESIGN.md` §4 for the experiment index: every table and figure of
//! the paper maps to a `repro` subcommand here, every ablation question
//! to the test that pins its outcome, and every timing to `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use tut_explore::{CommGraph, GroupingOptions, GroupingSolution, MappingOptions, MappingSolution};
use tut_profile::SystemModel;
use tut_profiling::ProfilingReport;
use tut_sim::SimConfig;
use tutmac::{TutmacConfig, TutmacHandles};

/// Builds the paper's case-study system with default calibration.
///
/// # Panics
///
/// Panics if the builder fails (a bug, covered by the tutmac tests).
pub fn paper_system() -> SystemModel {
    tutmac::build_tutmac_system(&TutmacConfig::default()).expect("tutmac builds")
}

/// Builds the paper system together with its element handles.
///
/// # Panics
///
/// Panics if the builder fails.
pub fn paper_system_with_handles() -> (SystemModel, TutmacHandles) {
    tutmac::model::build_with_handles(&TutmacConfig::default()).expect("tutmac builds")
}

/// The simulation horizon used by the Table 4 reproduction (20 ms of
/// protocol time).
pub fn table4_config() -> SimConfig {
    SimConfig::with_horizon_ns(20_000_000)
}

/// Profiles a system with the Table 4 horizon.
///
/// # Panics
///
/// Panics if the pipeline fails.
pub fn profile(system: &SystemModel) -> ProfilingReport {
    tut_profiling::profile_system(system, table4_config()).expect("profiling pipeline")
}

/// What [`explore_paper_system`] found.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Nodes (processes) of the partitioned communication graph.
    pub nodes: usize,
    /// The five-group partition of the communication graph.
    pub grouping: GroupingSolution,
    /// Host time of [`tut_explore::partition`].
    pub grouping_time: Duration,
    /// The mapping problem's group names, in assignment order.
    pub group_names: Vec<String>,
    /// Processing elements the mapping search chose from.
    pub pes: usize,
    /// The cost-minimal group→element mapping.
    pub mapping: MappingSolution,
    /// Host time of [`tut_explore::optimise_mapping`].
    pub mapping_time: Duration,
}

/// Runs the automated exploration loop of §4.5 on the paper system, as
/// `repro explore` and `repro profile explore` do: profile the Table 4
/// run, partition its communication graph into 5 groups with `user` and
/// `channel` pinned to group 4, then search the group→element mapping
/// with group4 pinned to the accelerator.
///
/// # Panics
///
/// Panics if the case study fails to build or profile, or has no
/// accelerator instance.
pub fn explore_paper_system() -> Exploration {
    let (system, handles) = paper_system_with_handles();
    let report = profile(&system);

    let graph = CommGraph::from_report(&report);
    let pinned: Vec<(usize, usize)> = graph
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, n)| n.as_str() == "user" || n.as_str() == "channel")
        .map(|(i, _)| (i, 4))
        .collect();
    let options = GroupingOptions {
        groups: 5,
        balance_weight: 0.0,
        pinned,
        ..Default::default()
    };
    let started = Instant::now();
    let grouping = tut_explore::partition(&graph, &options);
    let grouping_time = started.elapsed();

    let (problem, _, instances) =
        tut_explore::mapping::problem_from_system(&system, &report).expect("mapping problem");
    let acc_index = instances
        .iter()
        .position(|&p| p == handles.accelerator)
        .expect("accelerator instance");
    let options = MappingOptions {
        pinned: vec![(3, acc_index)],
        ..Default::default()
    };
    let started = Instant::now();
    let mapping = tut_explore::optimise_mapping(&problem, &options);
    let mapping_time = started.elapsed();

    Exploration {
        nodes: graph.len(),
        grouping,
        grouping_time,
        group_names: problem.group_names,
        pes: problem.pes.len(),
        mapping,
        mapping_time,
    }
}

pub mod benchcheck;
pub mod check;
pub mod faultsweep;
pub mod figures;
pub mod incremental;
pub mod profile_cmd;
pub mod watch;
