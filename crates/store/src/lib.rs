//! Durable, crash-recoverable results storage for long-running campaign
//! jobs (`explore`, `fault-sweep`).
//!
//! The paper's Figure-2 flow is iterative: architecture exploration and
//! reliability sweeps re-run the mapping/simulation loop over large
//! candidate spaces. A killed ten-hour campaign must *resume*, not
//! restart — this crate is the durability layer that makes that true,
//! built std-only like the rest of the workspace:
//!
//! * [`journal`] — an append-only, file-backed record journal:
//!   length-prefixed records, per-record CRC32, a header carrying magic /
//!   version / job hash, fsync'd commits, and torn-tail recovery that
//!   truncates to the last valid record instead of refusing to open.
//! * [`job`] — the job layer: content-addressed open (a stale journal
//!   whose job hash no longer matches degrades into a `tut-diag` warning
//!   and a fresh start, never a panic) and the in-order writer loop that
//!   workers feed through a channel, giving byte-identical journals at
//!   any thread count.
//! * [`hash`] — FNV-1a job hashing: a job is content-addressed by a
//!   stable hash of everything result-relevant (model, configuration,
//!   sweep parameters, seeds, codec version).
//! * [`kill`] — the in-tree kill-injection harness: `kill_point(site)`
//!   markers at every durability boundary, armed by tests (panic with a
//!   [`kill::StorePanic`] payload) or via the `TUT_STORE_KILL`
//!   environment variable (abort, approximating `kill -9`), driving the
//!   crash-at-every-boundary recovery property tests.
//! * [`crc`] — the CRC32 (IEEE 802.3) the journal frames carry.
//! * [`atomic`] — crash-safe whole-file replacement (write a temp file in
//!   the same directory, fsync, rename) for non-append artefacts such as
//!   the `repro --trace`/`--vcd`/`--prom` export files.
//!
//! See `DESIGN.md` §12 for the record format and the recovery rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atomic;
pub mod crc;
pub mod hash;
pub mod job;
pub mod journal;
pub mod kill;

pub use atomic::write_atomic;
pub use crc::crc32;
pub use hash::JobHasher;
pub use job::{open_job, writer_loop, JobOpen, W_STALE_JOB, W_TORN_TAIL};
pub use journal::{Journal, Recovery, StoreError};
pub use kill::{KillMode, StorePanic};
