//! Durable results storage for the incremental checker's disk report
//! cache (`repro check|watch --store`) and the crash-safe export writes
//! (`repro --trace`/`--vcd`/`--prom`), built std-only like the rest of
//! the workspace:
//!
//! * [`journal`] — an append-only, file-backed record journal:
//!   length-prefixed records, per-record CRC32, a header carrying magic /
//!   version / format hash, fsync'd commits, and torn-tail recovery that
//!   truncates to the last valid record instead of refusing to open.
//! * [`hash`] — FNV-1a hashing, stable across processes and platforms:
//!   the query engine's fingerprints and the cache's format hash.
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
pub mod journal;

pub use atomic::write_atomic;
pub use crc::crc32;
pub use hash::JobHasher;
pub use journal::{Journal, Recovery, StoreError};
