//! A timing model of the HIBI v2 on-chip interconnection network.
//!
//! The paper's platform communicates over the HIBI bus (Salminen et al.,
//! "HIBI v.2 Interconnection for System-on-Chip" — reference 5 of the
//! paper): processing elements attach to *segments* through *wrappers*,
//! segments join into a hierarchical bus through *bridges*, and each
//! segment arbitrates its agents by priority, round-robin, or a TDMA
//! schedule — exactly the `«CommunicationSegment»` /
//! `«CommunicationWrapper»` parameters of Table 3.
//!
//! [`topology`] builds the network and [`transfer`] times it during
//! co-simulation: a reservation-based timing model that routes each
//! transfer across the segment graph and accounts arbitration overhead,
//! burst splitting (`MaxTime`), bridge store-and-forward and per-segment
//! utilisation. It is the only bus model; the simulator calls
//! [`Network::transfer`] for every signal between processing elements.
//!
//! # Example
//!
//! ```
//! use tut_hibi::topology::{NetworkBuilder, SegmentConfig, WrapperConfig};
//!
//! let mut b = NetworkBuilder::new();
//! let seg = b.add_segment("seg0", SegmentConfig::default());
//! let a0 = b.add_agent(seg, WrapperConfig::new(0x10));
//! let a1 = b.add_agent(seg, WrapperConfig::new(0x20));
//! let mut network = b.build()?;
//! let done = network.transfer(a0, a1, 64, 0, &mut tut_trace::NoopSink);
//! assert!(done.completion_ns > 0);
//! # Ok::<(), tut_hibi::HibiError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod stats;
pub mod topology;
pub mod transfer;

pub use error::HibiError;
pub use topology::{
    AgentId, Arbitration, Network, NetworkBuilder, SegmentConfig, SegmentId, WrapperConfig,
};
pub use transfer::TransferResult;
