//! Shared harness code for the benchmark suite and the table/figure
//! reproduction binary (`repro`).
//!
//! See `DESIGN.md` §4 for the experiment index: every table and figure of
//! the paper maps to a `repro` subcommand here, and every
//! performance-bearing question to a Criterion bench under `benches/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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

/// Mapping variants compared by the mapping-exploration experiment (A3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MappingVariant {
    /// The paper's Figure 8 mapping (as built).
    Paper,
    /// Everything (including the CRC group) on `processor1`.
    AllOnProcessor1,
    /// The assignment found by `tut-explore`'s exhaustive search.
    Optimised,
}

impl MappingVariant {
    /// All variants in report order.
    pub const ALL: [MappingVariant; 3] = [
        MappingVariant::Paper,
        MappingVariant::AllOnProcessor1,
        MappingVariant::Optimised,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            MappingVariant::Paper => "paper (fig. 8)",
            MappingVariant::AllOnProcessor1 => "all-on-processor1",
            MappingVariant::Optimised => "explore-optimised",
        }
    }
}

/// Returns the paper system remapped according to `variant`.
///
/// # Panics
///
/// Panics on internal pipeline failures (covered by tests).
pub fn system_with_mapping(variant: MappingVariant) -> SystemModel {
    let (mut system, handles) = paper_system_with_handles();
    match variant {
        MappingVariant::Paper => system,
        MappingVariant::AllOnProcessor1 => {
            // group4's mapping is fixed (accelerator); the rest moves.
            let groups = [
                handles.groups[0],
                handles.groups[1],
                handles.groups[2],
                handles.groups[3],
            ];
            let instances = vec![
                handles.processors[0],
                handles.processors[1],
                handles.processors[2],
                handles.accelerator,
            ];
            tut_explore::apply::apply_mapping(&mut system, &groups, &instances, &[0, 0, 0, 0]);
            system
        }
        MappingVariant::Optimised => {
            let report = tut_profiling::profile_system(&system, table4_config()).expect("profile");
            let (problem, groups, instances) =
                tut_explore::mapping::problem_from_system(&system, &report).expect("problem");
            // Pin group4 where its Fixed mapping already holds it.
            let acc_index = instances
                .iter()
                .position(|&p| p == handles.accelerator)
                .expect("accelerator instance present");
            let options = tut_explore::mapping::MappingOptions {
                pinned: vec![(3, acc_index)],
                ..Default::default()
            };
            let solution = tut_explore::optimise_mapping(&problem, &options);
            tut_explore::apply::apply_mapping(
                &mut system,
                &groups,
                &instances,
                &solution.assignment,
            );
            system
        }
    }
}

/// Profiles a system with the Table 4 horizon.
///
/// # Panics
///
/// Panics if the pipeline fails.
pub fn profile(system: &SystemModel) -> ProfilingReport {
    tut_profiling::profile_system(system, table4_config()).expect("profiling pipeline")
}

/// The bottleneck processing-element busy time of a simulation — the
/// makespan-style score the mapping experiment compares.
///
/// # Panics
///
/// Panics if the simulation fails.
pub fn bottleneck_busy_ns(system: &SystemModel, config: SimConfig) -> u64 {
    let report = tut_sim::Simulation::from_system(system, config)
        .expect("simulation builds")
        .run()
        .expect("simulation runs");
    report
        .pes
        .iter()
        .filter(|(_, s)| !s.is_env)
        .map(|(_, s)| s.busy_ns)
        .max()
        .unwrap_or(0)
}

pub mod benchcheck;
pub mod check;
pub mod faultsweep;
pub mod figures;
pub mod incremental;
pub mod jobs;
pub mod microbench;
pub mod profile_cmd;
pub mod watch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_variants_build_and_differ() {
        let paper = system_with_mapping(MappingVariant::Paper);
        let all_one = system_with_mapping(MappingVariant::AllOnProcessor1);
        assert_ne!(paper.apps, all_one.apps);
    }

    #[test]
    fn optimised_mapping_is_no_worse_than_all_on_one() {
        let config = SimConfig::with_horizon_ns(5_000_000);
        let all_one = bottleneck_busy_ns(
            &system_with_mapping(MappingVariant::AllOnProcessor1),
            config.clone(),
        );
        let optimised = bottleneck_busy_ns(&system_with_mapping(MappingVariant::Optimised), config);
        assert!(
            optimised <= all_one,
            "optimised {optimised} should not exceed all-on-one {all_one}"
        );
    }
}
