//! Demand-driven memoized query engine for the TUT-Profile front end.
//!
//! The paper's Figure-2 flow (UML model → profile application →
//! well-formedness → profile rules → code generation → simulation setup)
//! is decomposed into *queries*: pure functions keyed by an FNV-1a
//! content fingerprint of their inputs. A [`QueryDb`] memoizes query
//! results in memory, counts hits/misses/recomputes per stage, emits
//! `query.<stage>` frames into the `tut-trace` self-profiler whenever a
//! query actually executes, and can persist byte-valued results to disk
//! through `tut-store`'s checksummed journal so a fresh process can warm
//! itself from a previous run.
//!
//! Keys are *content* hashes, never identities: two documents with the
//! same bytes share every cached result, and an edit that is later
//! reverted falls back onto the original cache entries.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::rc::Rc;

use tut_store::journal::MAX_RECORD_LEN;
use tut_store::Journal;
use tut_trace::perf;

/// A 64-bit content fingerprint used as a query key component.
///
/// Every fingerprint in the engine — document and segment texts
/// ([`Fp::of_bytes`]), composed keys ([`FpBuilder`]), stage names and
/// the disk format hash — runs through one word-at-a-time FNV-1a
/// variant: eight input bytes per multiply, a length prefix per field,
/// and a final avalanche. It is stable across processes and platforms,
/// which the disk cache needs because its keys outlive the process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Fp(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one 64-bit word into the running hash.
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Folds one length-prefixed field into the running hash, eight bytes
/// per multiply. The length prefix disambiguates trailing-zero padding
/// in the final partial word and the boundary between consecutive
/// fields.
fn absorb(mut h: u64, bytes: &[u8]) -> u64 {
    h = mix(h, bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().unwrap()));
    }
    let mut tail = 0u64;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        tail |= u64::from(b) << (8 * i);
    }
    mix(h, tail)
}

/// Final avalanche so low-entropy tails still spread over all 64 bits
/// (the multiply alone mixes upward only).
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

impl Fp {
    /// Fingerprint reserved for "input absent" (e.g. a model without a
    /// `profileApplication` element).
    pub const ABSENT: Fp = Fp(0);

    /// Fingerprints a string.
    pub fn of_str(text: &str) -> Fp {
        Fp::of_bytes(text.as_bytes())
    }

    /// Fingerprints raw bytes.
    pub fn of_bytes(bytes: &[u8]) -> Fp {
        Fp(avalanche(absorb(FNV_OFFSET, bytes)))
    }
}

/// Incremental builder for heterogeneous query keys.
pub struct FpBuilder(u64);

impl FpBuilder {
    pub fn new() -> FpBuilder {
        FpBuilder(FNV_OFFSET)
    }

    /// Adds a length-prefixed string field.
    pub fn str(self, s: &str) -> FpBuilder {
        FpBuilder(absorb(self.0, s.as_bytes()))
    }

    pub fn u64(self, v: u64) -> FpBuilder {
        FpBuilder(mix(self.0, v))
    }

    pub fn fp(self, f: Fp) -> FpBuilder {
        self.u64(f.0)
    }

    pub fn finish(self) -> Fp {
        Fp(avalanche(self.0))
    }
}

impl Default for FpBuilder {
    fn default() -> Self {
        FpBuilder::new()
    }
}

/// Interned handle for a pipeline stage (`parse_xml`, `wf_behavior`, …).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StageId(u32);

/// Hit/miss/recompute counters for one stage.
#[derive(Clone, Debug, Default)]
pub struct StageStats {
    pub name: String,
    /// Lookups answered from the memo table or the disk layer.
    pub hits: u64,
    /// Lookups that had to execute the query.
    pub misses: u64,
    /// The subset of misses where the stage had already executed in an
    /// earlier run (or for this exact key before): downstream work that
    /// an edit genuinely invalidated.
    pub recomputes: u64,
}

/// A snapshot of all per-stage counters.
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    pub stages: Vec<StageStats>,
}

impl CacheStats {
    pub fn total_hits(&self) -> u64 {
        self.stages.iter().map(|s| s.hits).sum()
    }

    pub fn total_misses(&self) -> u64 {
        self.stages.iter().map(|s| s.misses).sum()
    }

    pub fn total_recomputes(&self) -> u64 {
        self.stages.iter().map(|s| s.recomputes).sum()
    }

    /// Hit percentage over all lookups (100.0 when nothing was looked
    /// up, which only happens before the first query runs).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.total_hits();
        let total = hits + self.total_misses();
        if total == 0 {
            100.0
        } else {
            hits as f64 * 100.0 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot of the same database.
    ///
    /// Stages are matched positionally; stages interned after the
    /// earlier snapshot diff against zero.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        let stages = self
            .stages
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (h0, m0, r0) = earlier
                    .stages
                    .get(i)
                    .map(|e| (e.hits, e.misses, e.recomputes))
                    .unwrap_or((0, 0, 0));
                StageStats {
                    name: s.name.clone(),
                    hits: s.hits - h0,
                    misses: s.misses - m0,
                    recomputes: s.recomputes - r0,
                }
            })
            .collect();
        CacheStats { stages }
    }

    /// Multi-line human rendering; the first line carries the totals and
    /// the `hit rate NN.N%` figure scripts grep for.
    pub fn render(&self) -> String {
        let mut out = format!(
            "cache stats: {} hits, {} misses ({} recomputed), hit rate {:.1}%\n",
            self.total_hits(),
            self.total_misses(),
            self.total_recomputes(),
            self.hit_rate()
        );
        let width = self
            .stages
            .iter()
            .filter(|s| s.hits + s.misses > 0)
            .map(|s| s.name.len())
            .max()
            .unwrap_or(0);
        for s in &self.stages {
            if s.hits + s.misses == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:w$}  {:>5} hits  {:>5} misses  {:>5} recomputed\n",
                s.name,
                s.hits,
                s.misses,
                s.recomputes,
                w = width
            ));
        }
        out
    }
}

struct StageData {
    name: &'static str,
    name_fp: u64,
    label: perf::Label,
    hits: u64,
    misses: u64,
    recomputes: u64,
    /// Whether this stage executed in a generation before the current
    /// one (used to classify misses as recomputes).
    ran_before: Option<u64>,
    /// Every key this stage has ever executed for.
    seen: HashSet<u64>,
}

struct Entry {
    value: Rc<dyn Any>,
    touched: u64,
}

/// Journal-backed persistent layer for byte-valued queries.
struct DiskCache {
    journal: Journal,
    map: HashMap<(u64, u64), Rc<Vec<u8>>>,
    broken: bool,
}

/// Hash the disk format version into the journal header so stale caches
/// from an incompatible layout are discarded wholesale.
fn disk_format_hash() -> u64 {
    Fp::of_str("tut-query disk cache v3").0
}

/// The memo database: interned stages, an in-memory memo table, stats,
/// and an optional journal-backed disk layer for byte-valued results.
pub struct QueryDb {
    stages: Vec<StageData>,
    by_name: HashMap<&'static str, u32>,
    memo: HashMap<(u32, u64), Entry>,
    generation: u64,
    disk: Option<DiskCache>,
}

impl QueryDb {
    pub fn new() -> QueryDb {
        QueryDb {
            stages: Vec::new(),
            by_name: HashMap::new(),
            memo: HashMap::new(),
            generation: 0,
            disk: None,
        }
    }

    /// Interns a stage name, creating its `query.<name>` profiler label
    /// on first use.
    pub fn stage(&mut self, name: &'static str) -> StageId {
        if let Some(&id) = self.by_name.get(name) {
            return StageId(id);
        }
        let id = self.stages.len() as u32;
        self.stages.push(StageData {
            name,
            name_fp: Fp::of_str(name).0,
            label: perf::label(&format!("query.{name}")),
            hits: 0,
            misses: 0,
            recomputes: 0,
            ran_before: None,
            seen: HashSet::new(),
        });
        self.by_name.insert(name, id);
        StageId(id)
    }

    /// Marks the start of a new top-level run (one `check` invocation or
    /// one `watch` iteration). Needed for recompute classification and
    /// generation-based eviction.
    pub fn begin_run(&mut self) {
        self.generation += 1;
    }

    /// Opens (or creates) the on-disk layer at `path`. Replays every
    /// record of a compatible journal into the lookup map; an absent,
    /// corrupt, or format-incompatible journal is recreated empty.
    pub fn open_disk(&mut self, path: &Path) -> Result<usize, String> {
        let format = disk_format_hash();
        let mut replayed: HashMap<(u64, u64), Rc<Vec<u8>>> = HashMap::new();
        let journal = match Journal::open(path) {
            Ok(rec) if rec.job_hash == format => {
                for payload in &rec.records {
                    if payload.len() < 16 {
                        continue;
                    }
                    let stage = u64::from_le_bytes(payload[0..8].try_into().unwrap());
                    let key = u64::from_le_bytes(payload[8..16].try_into().unwrap());
                    replayed.insert((stage, key), Rc::new(payload[16..].to_vec()));
                }
                rec.journal
            }
            _ => Journal::create(path, format).map_err(|e| e.to_string())?,
        };
        let n = replayed.len();
        self.disk = Some(DiskCache {
            journal,
            map: replayed,
            broken: false,
        });
        Ok(n)
    }

    /// Whether a disk layer is attached and healthy.
    pub fn disk_ok(&self) -> bool {
        self.disk.as_ref().is_some_and(|d| !d.broken)
    }

    /// Memoized query execution. On a hit the cached `Rc` is returned;
    /// on a miss `compute` runs under a `query.<stage>` profiler frame
    /// (it may recursively issue further queries through the `&mut
    /// QueryDb` it receives).
    pub fn memo<T, F>(&mut self, stage: StageId, key: Fp, compute: F) -> Rc<T>
    where
        T: 'static,
        F: FnOnce(&mut QueryDb) -> T,
    {
        if let Some(entry) = self.memo.get_mut(&(stage.0, key.0)) {
            entry.touched = self.generation;
            if let Ok(v) = entry.value.clone().downcast::<T>() {
                self.count_hit(stage);
                return v;
            }
        }
        self.count_miss(stage, key);
        let value = {
            let _span = perf::enter(self.stages[stage.0 as usize].label);
            Rc::new(compute(self))
        };
        self.memo.insert(
            (stage.0, key.0),
            Entry {
                value: value.clone(),
                touched: self.generation,
            },
        );
        value
    }

    /// Memoized byte-valued query with disk persistence: consults the
    /// in-memory table, then the disk layer, then computes and writes
    /// through to both.
    pub fn memo_bytes<F>(&mut self, stage: StageId, key: Fp, compute: F) -> Rc<Vec<u8>>
    where
        F: FnOnce(&mut QueryDb) -> Vec<u8>,
    {
        if let Some(entry) = self.memo.get_mut(&(stage.0, key.0)) {
            entry.touched = self.generation;
            if let Ok(v) = entry.value.clone().downcast::<Vec<u8>>() {
                self.count_hit(stage);
                return v;
            }
        }
        let name_fp = self.stages[stage.0 as usize].name_fp;
        if let Some(disk) = &self.disk {
            if let Some(bytes) = disk.map.get(&(name_fp, key.0)) {
                let value = bytes.clone();
                self.count_hit(stage);
                self.memo.insert(
                    (stage.0, key.0),
                    Entry {
                        value: value.clone(),
                        touched: self.generation,
                    },
                );
                return value;
            }
        }
        self.count_miss(stage, key);
        let value = {
            let _span = perf::enter(self.stages[stage.0 as usize].label);
            Rc::new(compute(self))
        };
        self.persist(name_fp, key, &value);
        self.memo.insert(
            (stage.0, key.0),
            Entry {
                value: value.clone(),
                touched: self.generation,
            },
        );
        value
    }

    fn persist(&mut self, name_fp: u64, key: Fp, payload: &[u8]) {
        let Some(disk) = &mut self.disk else {
            return;
        };
        if disk.broken || payload.len() + 16 > MAX_RECORD_LEN as usize {
            return;
        }
        let mut record = Vec::with_capacity(payload.len() + 16);
        record.extend_from_slice(&name_fp.to_le_bytes());
        record.extend_from_slice(&key.0.to_le_bytes());
        record.extend_from_slice(payload);
        if disk.journal.append(&record).is_err() || disk.journal.commit().is_err() {
            disk.broken = true;
            return;
        }
        disk.map.insert((name_fp, key.0), Rc::new(payload.to_vec()));
    }

    fn count_hit(&mut self, stage: StageId) {
        self.stages[stage.0 as usize].hits += 1;
    }

    fn count_miss(&mut self, stage: StageId, key: Fp) {
        let generation = self.generation;
        let s = &mut self.stages[stage.0 as usize];
        s.misses += 1;
        let executed_earlier = s.ran_before.is_some_and(|g| g < generation);
        if executed_earlier || s.seen.contains(&key.0) {
            s.recomputes += 1;
        }
        s.seen.insert(key.0);
        s.ran_before = Some(generation);
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            stages: self
                .stages
                .iter()
                .map(|s| StageStats {
                    name: s.name.to_string(),
                    hits: s.hits,
                    misses: s.misses,
                    recomputes: s.recomputes,
                })
                .collect(),
        }
    }

    /// Number of live memo entries.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Evicts memo entries not touched in the last `keep` generations
    /// (long-running `watch` sessions call this to bound memory).
    pub fn evict_older_than(&mut self, keep: u64) {
        let generation = self.generation;
        self.memo.retain(|_, e| e.touched + keep >= generation);
    }
}

impl Default for QueryDb {
    fn default() -> Self {
        QueryDb::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "tut-query-test-{}-{}.tutj",
            std::process::id(),
            tag
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn memo_caches_and_counts() {
        let mut db = QueryDb::new();
        let stage = db.stage("double");
        db.begin_run();
        let mut calls = 0;
        let v = db.memo(stage, Fp(21), |_| {
            calls += 1;
            42u64
        });
        assert_eq!(*v, 42);
        let v2 = db.memo(stage, Fp(21), |_| {
            calls += 1;
            0u64
        });
        assert_eq!(*v2, 42);
        assert_eq!(calls, 1);
        let st = db.stats();
        assert_eq!(st.stages[0].hits, 1);
        assert_eq!(st.stages[0].misses, 1);
        assert_eq!(st.stages[0].recomputes, 0);
    }

    #[test]
    fn nested_queries_share_the_db() {
        let mut db = QueryDb::new();
        let inner = db.stage("inner");
        let outer = db.stage("outer");
        db.begin_run();
        let v = db.memo(outer, Fp(1), |db| {
            let a = db.memo(inner, Fp(2), |_| 10u64);
            *a + 1
        });
        assert_eq!(*v, 11);
        assert_eq!(db.stats().total_misses(), 2);
    }

    #[test]
    fn miss_after_earlier_run_counts_as_recompute() {
        let mut db = QueryDb::new();
        let stage = db.stage("wf");
        db.begin_run();
        db.memo(stage, Fp(1), |_| 1u64);
        db.begin_run();
        // Same stage, new key: the input changed, so this is downstream
        // recomputation, not first-time work.
        db.memo(stage, Fp(2), |_| 2u64);
        let st = db.stats();
        assert_eq!(st.stages[0].misses, 2);
        assert_eq!(st.stages[0].recomputes, 1);
    }

    #[test]
    fn two_misses_in_first_run_are_not_recomputes() {
        let mut db = QueryDb::new();
        let stage = db.stage("per_class");
        db.begin_run();
        db.memo(stage, Fp(1), |_| 1u64);
        db.memo(stage, Fp(2), |_| 2u64);
        assert_eq!(db.stats().stages[0].recomputes, 0);
    }

    #[test]
    fn eviction_then_recompute_is_counted() {
        let mut db = QueryDb::new();
        let stage = db.stage("s");
        db.begin_run();
        db.memo(stage, Fp(1), |_| 1u64);
        db.begin_run();
        db.begin_run();
        db.evict_older_than(1);
        assert_eq!(db.memo_len(), 0);
        db.memo(stage, Fp(1), |_| 1u64);
        assert_eq!(db.stats().stages[0].recomputes, 1);
    }

    #[test]
    fn stats_since_subtracts() {
        let mut db = QueryDb::new();
        let stage = db.stage("s");
        db.begin_run();
        db.memo(stage, Fp(1), |_| 1u64);
        let before = db.stats();
        db.begin_run();
        db.memo(stage, Fp(1), |_| 1u64);
        db.memo(stage, Fp(2), |_| 2u64);
        let delta = db.stats().since(&before);
        assert_eq!(delta.stages[0].hits, 1);
        assert_eq!(delta.stages[0].misses, 1);
        assert_eq!(delta.hit_rate(), 50.0);
    }

    #[test]
    fn render_carries_hit_rate_line() {
        let mut db = QueryDb::new();
        let stage = db.stage("s");
        db.begin_run();
        db.memo(stage, Fp(1), |_| 1u64);
        db.memo(stage, Fp(1), |_| 1u64);
        let text = db.stats().render();
        assert!(text.contains("hit rate 50.0%"), "{text}");
    }

    #[test]
    fn fp_is_length_prefixed() {
        // "ab" + "c" must not collide with "a" + "bc".
        let a = FpBuilder::new().str("ab").str("c").finish();
        let b = FpBuilder::new().str("a").str("bc").finish();
        assert_ne!(a, b);
        assert_eq!(Fp::of_str("x"), Fp::of_str("x"));
        // One hasher core: a single-field key is the field's fingerprint.
        assert_eq!(FpBuilder::new().str("abc").finish(), Fp::of_str("abc"));
    }

    #[test]
    fn disk_layer_round_trips_across_processes() {
        let path = temp_path("roundtrip");
        let key = Fp::of_str("payload-key");
        {
            let mut db = QueryDb::new();
            let stage = db.stage("report");
            db.open_disk(&path).unwrap();
            db.begin_run();
            let v = db.memo_bytes(stage, key, |_| b"hello".to_vec());
            assert_eq!(&**v, b"hello");
            assert_eq!(db.stats().total_misses(), 1);
        }
        {
            // Fresh database: the memo table is empty but the journal
            // replays, so the lookup is a hit and never recomputes.
            let mut db = QueryDb::new();
            let stage = db.stage("report");
            assert_eq!(db.open_disk(&path).unwrap(), 1);
            db.begin_run();
            let v = db.memo_bytes(stage, key, |_| panic!("must not recompute"));
            assert_eq!(&**v, b"hello");
            let st = db.stats();
            assert_eq!(st.total_hits(), 1);
            assert_eq!(st.hit_rate(), 100.0);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incompatible_disk_format_is_discarded() {
        let path = temp_path("stale");
        {
            let mut j = Journal::create(&path, 0xDEAD).unwrap();
            j.append(b"0123456789abcdef-payload").unwrap();
            j.commit().unwrap();
        }
        let mut db = QueryDb::new();
        assert_eq!(db.open_disk(&path).unwrap(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn query_frames_reach_the_profiler() {
        let mut db = QueryDb::new();
        let stage = db.stage("frame_test");
        perf::reset();
        perf::enable();
        db.begin_run();
        db.memo(stage, Fp(7), |_| 7u64);
        db.memo(stage, Fp(7), |_| 7u64); // hit: no second frame
        perf::disable();
        let report = perf::drain();
        let folded = report.to_folded();
        assert_eq!(
            folded
                .lines()
                .filter(|l| l.contains("query.frame_test"))
                .count(),
            1,
            "{folded}"
        );
    }
}
