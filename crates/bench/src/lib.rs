//! The table/figure reproduction binary (`repro`) and the front-end
//! drivers it shares with the flow benchmark (`perfbench/`): the cold
//! and warm checkers, the fault sweep and the self-profiler commands.
//!
//! See `DESIGN.md` §4 for the experiment index: every table and figure of
//! the paper maps to a `repro` subcommand here, every ablation question
//! to the test that pins its outcome, and every timing to `perfbench/`.

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

/// Profiles a system with the Table 4 horizon.
///
/// # Panics
///
/// Panics if the pipeline fails.
pub fn profile(system: &SystemModel) -> ProfilingReport {
    tut_profiling::profile_system(system, table4_config()).expect("profiling pipeline")
}

pub mod benchcheck;
pub mod check;
pub mod faultsweep;
pub mod figures;
pub mod incremental;
pub mod jobs;
pub mod profile_cmd;
pub mod watch;
