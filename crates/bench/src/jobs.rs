//! Durable, crash-resumable campaign jobs: the fault sweep and the
//! exploration loop, checkpointed through `tut-store` journals.
//!
//! Each job is content-addressed: its journal header carries a stable
//! hash over everything result-relevant (the case-study model, the
//! simulation configuration, the sweep/search parameters, the seeds,
//! and the record codec version) — deliberately **excluding** the
//! worker-thread count, so a campaign started on one machine shape
//! resumes correctly on another. A journal whose hash no longer matches
//! is stale: the job restarts from scratch with a `W0501` warning
//! instead of resuming into wrong results.
//!
//! Workers checkpoint each completed unit (BER point, annealing restart,
//! mapping shard) through an `mpsc` channel to a single writer thread
//! ([`tut_store::writer_loop`]), which appends strictly in unit order
//! and group-commits with one fsync per drained batch. The on-disk
//! record set is therefore always a *prefix* of the unit list, and a
//! resumed run — replaying that prefix and computing the rest — is
//! bit-identical to an uninterrupted run at any thread count.

use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc::{self, Sender};
use std::sync::Mutex;

use tut_diag::Diagnostic;
use tut_explore::{
    ExploreCheckpoint, GroupingOptions, GroupingSolution, MappingOptions, MappingSolution,
    RestartOutcome, ShardBest,
};
use tut_profiling::ProfilingError;
use tut_sim::SimConfig;
use tut_store::{open_job, writer_loop, JobHasher, StoreError};
use tut_trace::{NoopSink, Progress};

use crate::faultsweep::{self, SweepPoint};

/// Version of the record codecs below, folded into every job hash; bump
/// on any shape change so old journals go stale instead of misdecoding.
const CODEC_VERSION: u64 = 1;

/// Journal file name of the fault-sweep job inside the store directory.
pub const SWEEP_JOURNAL: &str = "fault-sweep.journal";
/// Journal file name of the exploration grouping stage.
pub const GROUPING_JOURNAL: &str = "explore-grouping.journal";
/// Journal file name of the exploration mapping stage.
pub const MAPPING_JOURNAL: &str = "explore-mapping.journal";

/// Errors of a durable job: the store layer or the computation itself.
#[derive(Debug)]
pub enum JobError {
    /// The journal failed (filesystem error, or a replayed record that
    /// no longer decodes).
    Store(StoreError),
    /// A work unit's computation failed.
    Profiling(ProfilingError),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Store(e) => write!(f, "results store: {e}"),
            JobError::Profiling(e) => write!(f, "campaign run: {e}"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Store(e) => Some(e),
            JobError::Profiling(e) => Some(e),
        }
    }
}

impl From<StoreError> for JobError {
    fn from(e: StoreError) -> JobError {
        JobError::Store(e)
    }
}

impl From<ProfilingError> for JobError {
    fn from(e: ProfilingError) -> JobError {
        JobError::Profiling(e)
    }
}

fn decode_err(reason: impl Into<String>) -> StoreError {
    StoreError::Decode {
        reason: reason.into(),
    }
}

fn ensure_dir(dir: &Path) -> Result<(), StoreError> {
    std::fs::create_dir_all(dir).map_err(|source| StoreError::Io {
        path: dir.to_path_buf(),
        op: "create store directory",
        source,
    })
}

// ---------------------------------------------------------------------
// Record codecs (all integers little-endian, floats by bit pattern)
// ---------------------------------------------------------------------

fn take<const N: usize>(payload: &[u8], at: &mut usize) -> Result<[u8; N], StoreError> {
    let bytes = payload
        .get(*at..*at + N)
        .ok_or_else(|| decode_err(format!("record truncated at byte {}", *at)))?;
    *at += N;
    Ok(bytes.try_into().expect("slice length checked"))
}

/// One sweep point: `u32 index | f64 ber | i64 tx, acked, retries,
/// gave_up | u64 corrupted, horizon_ns, goodput_bytes` (68 bytes).
fn encode_point(index: u32, p: &SweepPoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(68);
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&p.ber.to_bits().to_le_bytes());
    for v in [p.tx, p.acked, p.retries, p.gave_up] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for v in [p.corrupted, p.horizon_ns, p.goodput_bytes] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_point(payload: &[u8]) -> Result<(u32, SweepPoint), StoreError> {
    let mut at = 0;
    let index = u32::from_le_bytes(take(payload, &mut at)?);
    let ber = f64::from_bits(u64::from_le_bytes(take(payload, &mut at)?));
    let tx = i64::from_le_bytes(take(payload, &mut at)?);
    let acked = i64::from_le_bytes(take(payload, &mut at)?);
    let retries = i64::from_le_bytes(take(payload, &mut at)?);
    let gave_up = i64::from_le_bytes(take(payload, &mut at)?);
    let corrupted = u64::from_le_bytes(take(payload, &mut at)?);
    let horizon_ns = u64::from_le_bytes(take(payload, &mut at)?);
    let goodput_bytes = u64::from_le_bytes(take(payload, &mut at)?);
    if at != payload.len() {
        return Err(decode_err("sweep record has trailing bytes"));
    }
    Ok((
        index,
        SweepPoint {
            ber,
            tx,
            acked,
            retries,
            gave_up,
            corrupted,
            horizon_ns,
            goodput_bytes,
        },
    ))
}

/// One grouping restart: `u32 restart | f64 objective | u32 n | n × u32
/// group assignments`.
fn encode_restart(restart: u32, outcome: &RestartOutcome) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 4 * outcome.assignment.len());
    out.extend_from_slice(&restart.to_le_bytes());
    out.extend_from_slice(&outcome.objective.to_bits().to_le_bytes());
    out.extend_from_slice(&(outcome.assignment.len() as u32).to_le_bytes());
    for &group in &outcome.assignment {
        out.extend_from_slice(&(group as u32).to_le_bytes());
    }
    out
}

fn decode_restart(payload: &[u8]) -> Result<(u32, RestartOutcome), StoreError> {
    let mut at = 0;
    let restart = u32::from_le_bytes(take(payload, &mut at)?);
    let objective = f64::from_bits(u64::from_le_bytes(take(payload, &mut at)?));
    let n = u32::from_le_bytes(take(payload, &mut at)?) as usize;
    let mut assignment = Vec::with_capacity(n);
    for _ in 0..n {
        assignment.push(u32::from_le_bytes(take(payload, &mut at)?) as usize);
    }
    if at != payload.len() {
        return Err(decode_err("restart record has trailing bytes"));
    }
    Ok((
        restart,
        RestartOutcome {
            objective,
            assignment,
        },
    ))
}

/// One mapping shard: `u32 shard | u8 tag | (f64 cost | u64 candidate)`
/// when the shard was non-empty.
fn encode_shard(shard: u32, best: &ShardBest) -> Vec<u8> {
    let mut out = Vec::with_capacity(21);
    out.extend_from_slice(&shard.to_le_bytes());
    match best {
        Some((cost, index)) => {
            out.push(1);
            out.extend_from_slice(&cost.to_bits().to_le_bytes());
            out.extend_from_slice(&index.to_le_bytes());
        }
        None => out.push(0),
    }
    out
}

fn decode_shard(payload: &[u8]) -> Result<(u32, ShardBest), StoreError> {
    let mut at = 0;
    let shard = u32::from_le_bytes(take(payload, &mut at)?);
    let tag = u8::from_le_bytes(take(payload, &mut at)?);
    let best = match tag {
        0 => None,
        1 => {
            let cost = f64::from_bits(u64::from_le_bytes(take(payload, &mut at)?));
            let index = u64::from_le_bytes(take(payload, &mut at)?);
            Some((cost, index))
        }
        other => return Err(decode_err(format!("unknown shard record tag {other}"))),
    };
    if at != payload.len() {
        return Err(decode_err("shard record has trailing bytes"));
    }
    Ok((shard, best))
}

// ---------------------------------------------------------------------
// The durable fault sweep
// ---------------------------------------------------------------------

/// Job hash of a fault sweep: everything that determines the table.
/// The thread budget is deliberately absent — the journal is valid at
/// any worker count.
fn sweep_job_hash(config: &SimConfig, seed: u64) -> u64 {
    let mut hasher = JobHasher::new();
    hasher
        .write_u64(CODEC_VERSION)
        .write_str("fault-sweep")
        .write_str(&format!("{config:?}"))
        .write_str(&format!("{:?}", tutmac::TutmacConfig::default()))
        .write_u64(seed);
    for &ber in &faultsweep::SWEEP_BERS {
        hasher.write_f64(ber);
    }
    hasher.finish()
}

/// The result of a durable sweep run.
#[derive(Debug)]
pub struct DurableSweep {
    /// The full table, in [`faultsweep::SWEEP_BERS`] order.
    pub points: Vec<SweepPoint>,
    /// Points replayed from the journal rather than computed.
    pub resumed: u64,
    /// Recovery findings (stale restart, torn tail) from opening the
    /// journal.
    pub warnings: Vec<Diagnostic>,
}

/// Runs the full reliability campaign with durable checkpoints in
/// `dir`: each finished BER point lands in `fault-sweep.journal` before
/// the next commit boundary, and with `resume` the journal's completed
/// prefix is replayed instead of recomputed. The resumed table is
/// bit-identical to an uninterrupted run at any thread count.
///
/// # Errors
///
/// Store failures ([`JobError::Store`]) and the first failed point in
/// BER order ([`JobError::Profiling`]). A later point that finished
/// before an earlier one failed is *not* persisted — the journal only
/// ever holds a gap-free prefix.
pub fn run_sweep_durable(
    config: &SimConfig,
    threads: usize,
    progress: &Progress,
    dir: &Path,
    resume: bool,
) -> Result<DurableSweep, JobError> {
    ensure_dir(dir)?;
    let path = dir.join(SWEEP_JOURNAL);
    let open = open_job(
        &path,
        sweep_job_hash(config, faultsweep::SWEEP_SEED),
        resume,
    )?;
    let mut journal = open.journal;
    let warnings = open.warnings;

    let mut points: Vec<SweepPoint> = Vec::with_capacity(faultsweep::SWEEP_BERS.len());
    for (i, payload) in open.records.iter().enumerate() {
        let (index, point) = decode_point(payload)?;
        if index as usize != i || i >= faultsweep::SWEEP_BERS.len() {
            return Err(decode_err(format!("unexpected sweep record index {index}")).into());
        }
        points.push(point);
    }
    let completed = points.len();
    progress.set_resumed(completed as u64);

    let todo = &faultsweep::SWEEP_BERS[completed..];
    if !todo.is_empty() {
        // Up to one point worker per remaining point, as in the plain
        // sweep.
        let budget = tut_explore::parallel::resolve_threads(threads);
        let outer = budget.min(todo.len()).max(1);
        let ranges = tut_explore::parallel::shard_ranges(todo.len() as u64, outer);
        let mut results: Vec<Option<Result<SweepPoint, ProfilingError>>> =
            (0..todo.len()).map(|_| None).collect();
        let (tx, rx) = mpsc::channel::<(u64, Vec<u8>)>();
        let journal = &mut journal;
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || writer_loop(journal, completed as u64, &rx));
            let mut rest = results.as_mut_slice();
            for range in &ranges {
                let len = (range.end - range.start) as usize;
                let (chunk, tail) = rest.split_at_mut(len);
                rest = tail;
                let start = range.start as usize;
                let tx = tx.clone();
                scope.spawn(move || {
                    for (offset, slot) in chunk.iter_mut().enumerate() {
                        let index = completed + start + offset;
                        let result = faultsweep::run_point(
                            faultsweep::SWEEP_BERS[index],
                            faultsweep::SWEEP_SEED,
                            config.clone(),
                        );
                        if let Ok(point) = &result {
                            // A send after the writer died is harmless:
                            // the run still fails via the writer error.
                            let _ = tx.send((index as u64, encode_point(index as u32, point)));
                        }
                        *slot = Some(result);
                        progress.tick();
                    }
                });
            }
            drop(tx);
            match writer.join() {
                Ok(result) => result.map(|_| ()),
                // Preserve injected StorePanic payloads for the
                // crash-at-every-boundary tests.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })?;
        for result in results {
            points.push(result.expect("every shard fills its slots")?);
        }
    }
    Ok(DurableSweep {
        points,
        resumed: completed as u64,
        warnings,
    })
}

// ---------------------------------------------------------------------
// The durable exploration loop
// ---------------------------------------------------------------------

/// The journal-backed [`ExploreCheckpoint`]: replays the prefix decoded
/// from a recovered journal and forwards fresh units to the writer
/// thread. The sender sits behind a mutex ([`Sender`] is not `Sync`);
/// sends are one-per-finished-unit, so contention is negligible.
struct JournalCheckpoint {
    replay_restarts: HashMap<usize, RestartOutcome>,
    replay_shards: HashMap<usize, ShardBest>,
    tx: Mutex<Sender<(u64, Vec<u8>)>>,
}

impl JournalCheckpoint {
    fn new(tx: Sender<(u64, Vec<u8>)>) -> JournalCheckpoint {
        JournalCheckpoint {
            replay_restarts: HashMap::new(),
            replay_shards: HashMap::new(),
            tx: Mutex::new(tx),
        }
    }

    fn send(&self, index: u64, payload: Vec<u8>) {
        let _ = self
            .tx
            .lock()
            .expect("checkpoint sender poisoned")
            .send((index, payload));
    }
}

impl ExploreCheckpoint for JournalCheckpoint {
    fn replay_restart(&self, restart: usize) -> Option<RestartOutcome> {
        self.replay_restarts.get(&restart).cloned()
    }
    fn restart_done(&self, restart: usize, outcome: &RestartOutcome) {
        self.send(restart as u64, encode_restart(restart as u32, outcome));
    }
    fn replay_mapping_shard(&self, shard: usize) -> Option<ShardBest> {
        self.replay_shards.get(&shard).copied()
    }
    fn mapping_shard_done(&self, shard: usize, best: &ShardBest) {
        self.send(shard as u64, encode_shard(shard as u32, best));
    }
}

/// The result of a durable exploration run.
#[derive(Debug)]
pub struct DurableExplore {
    /// The grouping solution (identical to the plain exploration).
    pub grouping: GroupingSolution,
    /// The mapping solution (identical to the plain exploration).
    pub mapping: MappingSolution,
    /// Group names in mapping-problem order, for reporting.
    pub group_names: Vec<String>,
    /// Candidate element count.
    pub pes: usize,
    /// Communication-graph node count.
    pub nodes: usize,
    /// Work units (restarts + shards) replayed rather than computed.
    pub resumed: u64,
    /// Total work units of the job.
    pub total_units: u64,
    /// Recovery findings from opening the two journals.
    pub warnings: Vec<Diagnostic>,
}

/// Replays a recovered journal's records through `decode`, enforcing
/// the gap-free prefix invariant, into an index-keyed map.
fn replay_prefix<V>(
    records: &[Vec<u8>],
    what: &str,
    decode: impl Fn(&[u8]) -> Result<(u32, V), StoreError>,
) -> Result<HashMap<usize, V>, StoreError> {
    let mut map = HashMap::with_capacity(records.len());
    for (i, payload) in records.iter().enumerate() {
        let (index, value) = decode(payload)?;
        if index as usize != i {
            return Err(decode_err(format!(
                "{what} record {i} carries index {index}; journal is not a prefix"
            )));
        }
        map.insert(index as usize, value);
    }
    Ok(map)
}

/// Runs one checkpointed stage: spawns the writer thread over `journal`,
/// runs `stage` with the checkpoint, then joins the writer (preserving
/// injected panic payloads) and propagates its error.
fn run_stage<R>(
    journal: &mut tut_store::Journal,
    start_index: u64,
    checkpoint: JournalCheckpoint,
    stage: impl FnOnce(&JournalCheckpoint) -> R,
) -> Result<R, JobError> {
    let (result, writer) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(u64, Vec<u8>)>();
        let checkpoint = JournalCheckpoint {
            tx: Mutex::new(tx),
            ..checkpoint
        };
        let writer = scope.spawn(move || writer_loop(journal, start_index, &rx));
        let result = stage(&checkpoint);
        drop(checkpoint); // hang up the channel so the writer drains out
        let writer = match writer.join() {
            Ok(outcome) => outcome,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        (result, writer)
    });
    writer?;
    Ok(result)
}

/// Runs the §4.5 exploration loop (grouping then mapping, the same
/// problem and options as `repro explore`) with durable checkpoints in
/// `dir`: every annealing restart lands in `explore-grouping.journal`
/// and every mapping shard in `explore-mapping.journal`. With `resume`,
/// completed units are replayed; the resumed solutions are bit-identical
/// to an uninterrupted run at any thread count.
///
/// `progress` enables per-stage stderr heartbeats; their totals (restart
/// and candidate counts) are only known here, after the problem is
/// built, which is why this function owns the meters.
///
/// # Errors
///
/// Store failures only — the exploration itself is infallible once the
/// case-study system builds (which is covered by [`crate::paper_system`]).
pub fn run_explore_durable(
    threads: usize,
    dir: &Path,
    resume: bool,
    progress: bool,
) -> Result<DurableExplore, JobError> {
    ensure_dir(dir)?;
    let (system, handles) = crate::paper_system_with_handles();
    let report = crate::profile(&system);
    let graph = tut_explore::CommGraph::from_report(&report);
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
        threads,
        ..Default::default()
    };
    let mut warnings = Vec::new();

    // ---- grouping stage -------------------------------------------------
    // Hash with the thread knob normalised out: the journal must resume
    // at any worker count.
    let grouping_hash = JobHasher::new()
        .write_u64(CODEC_VERSION)
        .write_str("explore-grouping")
        .write_str(&format!("{graph:?}"))
        .write_str(&format!(
            "{:?}",
            GroupingOptions {
                threads: 0,
                ..options.clone()
            }
        ))
        .finish();
    let open = open_job(&dir.join(GROUPING_JOURNAL), grouping_hash, resume)?;
    warnings.extend(open.warnings);
    let mut journal = open.journal;
    let replay_restarts = replay_prefix(&open.records, "grouping", decode_restart)?;
    let resumed_restarts = replay_restarts.len() as u64;
    let grouping_progress = if progress {
        Progress::new("explore.grouping", u64::from(options.restarts))
    } else {
        Progress::disabled()
    };
    grouping_progress.set_resumed(resumed_restarts);
    let (dummy_tx, _dummy_rx) = mpsc::channel();
    let mut checkpoint = JournalCheckpoint::new(dummy_tx);
    checkpoint.replay_restarts = replay_restarts;
    let grouping = run_stage(&mut journal, resumed_restarts, checkpoint, |ckpt| {
        tut_explore::partition_checkpointed(
            &graph,
            &options,
            &mut NoopSink,
            &grouping_progress,
            ckpt,
        )
    })?;
    grouping_progress.finish();

    // ---- mapping stage --------------------------------------------------
    let (problem, _, instances) = tut_explore::mapping::problem_from_system(&system, &report)
        .expect("mapping problem builds from the paper system");
    let acc_index = instances
        .iter()
        .position(|&p| p == handles.accelerator)
        .expect("accelerator instance");
    let mapping_options = MappingOptions {
        pinned: vec![(3, acc_index)],
        threads,
        ..Default::default()
    };
    let mapping_hash = JobHasher::new()
        .write_u64(CODEC_VERSION)
        .write_str("explore-mapping")
        .write_str(&format!("{problem:?}"))
        .write_str(&format!(
            "{:?}",
            MappingOptions {
                threads: 0,
                ..mapping_options.clone()
            }
        ))
        .write_u64(tut_explore::mapping::CHECKPOINT_SHARDS as u64)
        .finish();
    let open = open_job(&dir.join(MAPPING_JOURNAL), mapping_hash, resume)?;
    warnings.extend(open.warnings);
    let mut journal = open.journal;
    let replay_shards = replay_prefix(&open.records, "mapping", decode_shard)?;
    let resumed_shards = replay_shards.len() as u64;
    // Progress for mapping is in candidates, so translate replayed
    // shards into the candidate count they cover.
    let candidates = (problem.pes.len() as u64)
        .pow((problem.group_names.len() - mapping_options.pinned.len()) as u32);
    let shard_ranges =
        tut_explore::parallel::shard_ranges(candidates, tut_explore::mapping::CHECKPOINT_SHARDS);
    let resumed_candidates: u64 = shard_ranges
        .iter()
        .take(resumed_shards as usize)
        .map(|r| r.end - r.start)
        .sum();
    let mapping_progress = if progress {
        Progress::new("explore.mapping", candidates)
    } else {
        Progress::disabled()
    };
    mapping_progress.set_resumed(resumed_candidates);
    let (dummy_tx, _dummy_rx) = mpsc::channel();
    let mut checkpoint = JournalCheckpoint::new(dummy_tx);
    checkpoint.replay_shards = replay_shards;
    let mapping = run_stage(&mut journal, resumed_shards, checkpoint, |ckpt| {
        tut_explore::optimise_mapping_checkpointed(
            &problem,
            &mapping_options,
            &mut NoopSink,
            &mapping_progress,
            ckpt,
        )
    })?;
    mapping_progress.finish();

    Ok(DurableExplore {
        grouping,
        mapping,
        group_names: problem.group_names.clone(),
        pes: problem.pes.len(),
        nodes: graph.len(),
        resumed: resumed_restarts + resumed_shards,
        total_units: u64::from(options.restarts) + shard_ranges.len() as u64,
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_codec_roundtrips() {
        let point = SweepPoint {
            ber: 1e-4,
            tx: 123,
            acked: -7,
            retries: 45,
            gave_up: 6,
            corrupted: 78,
            horizon_ns: 9_000_000,
            goodput_bytes: 10_240,
        };
        let payload = encode_point(3, &point);
        assert_eq!(payload.len(), 68);
        let (index, decoded) = decode_point(&payload).expect("decodes");
        assert_eq!(index, 3);
        assert_eq!(decoded, point);
        assert!(decode_point(&payload[..payload.len() - 1]).is_err());
        let mut extended = payload.clone();
        extended.push(0);
        assert!(decode_point(&extended).is_err());
    }

    #[test]
    fn restart_codec_roundtrips() {
        let outcome = RestartOutcome {
            objective: 17.25,
            assignment: vec![0, 3, 1, 1, 2],
        };
        let (restart, decoded) = decode_restart(&encode_restart(9, &outcome)).expect("decodes");
        assert_eq!(restart, 9);
        assert_eq!(decoded, outcome);
    }

    #[test]
    fn shard_codec_roundtrips_both_tags() {
        let (shard, best) = decode_shard(&encode_shard(4, &Some((2.5, 77)))).expect("decodes");
        assert_eq!(shard, 4);
        assert_eq!(best, Some((2.5, 77)));
        let (shard, best) = decode_shard(&encode_shard(5, &None)).expect("decodes");
        assert_eq!((shard, best), (5, None));
        assert!(decode_shard(&[1, 0, 0, 0, 9]).is_err(), "unknown tag");
    }

    #[test]
    fn replay_prefix_rejects_gaps() {
        let records = vec![encode_shard(0, &None), encode_shard(2, &None)];
        let err = replay_prefix(&records, "mapping", decode_shard).expect_err("gap");
        assert!(err.to_string().contains("not a prefix"), "{err}");
    }

    /// The job hash must not depend on the worker-thread budget (a
    /// campaign resumes on any machine shape) but must change when the
    /// configuration does (a stale journal must not resume).
    #[test]
    fn sweep_job_hash_ignores_threads_but_tracks_config() {
        let a = sweep_job_hash(&SimConfig::with_horizon_ns(1_000_000), 7);
        let b = sweep_job_hash(&SimConfig::with_horizon_ns(1_000_000), 7);
        assert_eq!(a, b, "stable across invocations");
        let other_horizon = sweep_job_hash(&SimConfig::with_horizon_ns(2_000_000), 7);
        assert_ne!(a, other_horizon);
        let other_seed = sweep_job_hash(&SimConfig::with_horizon_ns(1_000_000), 8);
        assert_ne!(a, other_seed);
    }
}
