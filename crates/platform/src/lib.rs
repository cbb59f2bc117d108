//! The platform models the co-simulation reads: processing-element
//! descriptors and the execution cost model.
//!
//! The paper's platform is "Altera Stratix FPGA with soft processor cores"
//! plus "implementations of some time critical algorithms, such as Cyclic
//! Redundancy Check (CRC), that can be used for hardware acceleration"
//! (§4). This crate provides the simulation-side equivalents:
//!
//! * [`pe::PeDescriptor`] — a parameterised processing element (kind and
//!   frequency), built from the Table 3 tagged values;
//! * [`cost::CostModel`] — converts action-language execution weight and
//!   `Compute` workload units into cycles, with a kind-vs-workload match
//!   matrix (a DSP runs `dsp` work fast, a CPU runs `bit` work slowly,
//!   the accelerator runs `bit` work very fast and anything else not at
//!   all well). The CRC accelerator is a processing element of kind
//!   [`PeKind::HwAccelerator`]; its cost, like every element's, comes
//!   from this table.
//!
//! No other platform tagged value reaches a descriptor: the memory ones
//! (`IntMemory`, `CodeMemory`, `DataMemory`) reach only profile rule
//! E0215 `instance-memory-fits`, and `Area`, `Power` and the instance
//! `Priority` reach no output (DESIGN §2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod pe;

pub use cost::CostModel;
pub use pe::{PeDescriptor, PeKind};
