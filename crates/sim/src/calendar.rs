//! Event scheduling structures for the engine's future-event set.
//!
//! The engine needs one operation pair — `push(time, seq, event)` /
//! `pop() -> earliest (time, seq)` — with a **total** order: earliest
//! `time_ns` first, ties broken by insertion `seq`. That tie-break is the
//! determinism contract of the whole simulator (and of the parallel
//! kernel's merge), so both implementations here reproduce it exactly:
//!
//! * [`QueueKind::Heap`] — the classic `BinaryHeap<Reverse<_>>`:
//!   O(log n) per operation, no tuning, the reference implementation.
//! * [`QueueKind::Calendar`] — a calendar queue (R. Brown, CACM 1988):
//!   events hash into time-ordered buckets ("days") of width
//!   `width_ns`; popping scans the current day and wraps around the
//!   "year". With the width adapted to the inter-event gap the expected
//!   cost is O(1) per operation. Payloads move in and out of the
//!   buckets; the queue never clones one.
//!
//! The calendar's buckets are **structure-of-arrays**: a dense `times`
//! vector searched on its own cache lines, with a parallel `(seq, event)`
//! deque carrying the tie-break and the payload, both sorted ascending
//! by `(time, seq)` behind a `head` cursor. The hot hold pattern — push a
//! little ahead of now, pop the minimum — then appends at the tail and
//! pops at the head in O(1), and a search never drags payload bytes
//! through the cache. Width adaptation is incremental: every pop feeds an
//! EWMA of the observed inter-event gap, and both the periodic resizes
//! and the bucket-skew trigger (a burst that piles into one bucket) reuse
//! that estimate instead of re-sampling the whole queue.
//!
//! Both kinds pop the *identical* sequence for the same pushes — pinned
//! by tests and by the engine's byte-identical-log property tests.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Which future-event-set implementation a simulation uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueKind {
    /// Calendar queue with structure-of-arrays buckets (default: O(1)
    /// amortised hold operations on the simulation hot path).
    #[default]
    Calendar,
    /// Binary min-heap (`BinaryHeap<Reverse<_>>`), the reference
    /// implementation.
    Heap,
}

impl QueueKind {
    /// Stable lower-case name (used by benches and reports).
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Calendar => "calendar",
            QueueKind::Heap => "heap",
        }
    }
}

/// One heap element: ordered by `(time_ns, seq)` only, the payload is
/// carried along.
#[derive(Clone, Debug)]
struct HeapEntry<T> {
    time_ns: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time_ns == other.time_ns && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time_ns, self.seq).cmp(&(other.time_ns, other.seq))
    }
}

/// One calendar bucket: a contiguous `times` vector searched on its own
/// cache lines, with a parallel `(seq, payload)` deque, both sorted
/// **ascending** by `(time, seq)` behind a `head` cursor. The hold
/// pattern's monotone pushes append at the tail in O(1) — including a
/// same-timestamp burst, whose rising seqs are always the bucket tail —
/// the minimum pops in O(1) by advancing `head`, and a push below the
/// minimum reuses the dead slot in front of `head` in O(1). Only a
/// genuine mid-bucket insert pays a memmove, and the dead prefix is
/// compacted amortised-O(1) once it dominates the vector.
#[derive(Clone, Debug)]
struct Bucket<T> {
    /// Index of the bucket minimum in `times`; everything before it is
    /// dead.
    head: usize,
    times: Vec<u64>,
    /// `(seq, payload)` of the live entries only: `entries[i]` belongs to
    /// `times[head + i]`, and a pop moves the payload out of the front.
    entries: VecDeque<(u64, T)>,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            head: 0,
            times: Vec::new(),
            entries: VecDeque::new(),
        }
    }
}

impl<T> Bucket<T> {
    #[inline]
    fn live(&self) -> usize {
        self.times.len() - self.head
    }

    /// Minimum `(time, seq)` key, if any.
    #[inline]
    fn first_key(&self) -> Option<(u64, u64)> {
        self.times.get(self.head).map(|&t| (t, self.entries[0].0))
    }

    /// Inserts keeping ascending `(time, seq)` order; returns how many
    /// entries had to shift (0 for the tail-append and head-slot paths).
    fn insert(&mut self, time_ns: u64, seq: u64, item: T) -> usize {
        let len = self.times.len();
        if len == self.head {
            // Live part empty: drop any dead prefix and start over.
            self.times.clear();
            self.head = 0;
            self.times.push(time_ns);
            self.entries.push_back((seq, item));
            return 0;
        }
        // Hold-pattern fast path: not earlier than the current tail.
        let tail_seq = self.entries.back().expect("live bucket").0;
        if (self.times[len - 1], tail_seq) < (time_ns, seq) {
            self.times.push(time_ns);
            self.entries.push_back((seq, item));
            return 0;
        }
        let mut pos = self.head + self.times[self.head..].partition_point(|&t| t < time_ns);
        while pos < len && self.times[pos] == time_ns && self.entries[pos - self.head].0 < seq {
            pos += 1;
        }
        if pos == self.head && self.head > 0 {
            // New bucket minimum: reuse the dead slot in front of head.
            self.head -= 1;
            self.times[self.head] = time_ns;
            self.entries.push_front((seq, item));
            return 0;
        }
        self.times.insert(pos, time_ns);
        self.entries.insert(pos - self.head, (seq, item));
        len - pos
    }

    /// Removes and returns the minimum by advancing the head cursor; the
    /// payload is moved out, not cloned.
    fn pop_min(&mut self) -> (u64, u64, T) {
        let time_ns = self.times[self.head];
        let (seq, item) = self.entries.pop_front().expect("live bucket");
        self.head += 1;
        if self.head == self.times.len() {
            self.times.clear();
            self.head = 0;
        } else if self.head >= 32 && 2 * self.head >= self.times.len() {
            // Dead prefix dominates: compact (amortised O(1) per pop).
            self.times.drain(..self.head);
            self.head = 0;
        }
        (time_ns, seq, item)
    }

    /// Moves every live entry out, clearing the bucket.
    fn drain_into(&mut self, out: &mut Vec<(u64, u64, T)>) {
        for (time_ns, (seq, item)) in self.times.drain(self.head..).zip(self.entries.drain(..)) {
            out.push((time_ns, seq, item));
        }
        self.times.clear();
        self.head = 0;
    }
}

/// A calendar queue with SoA buckets and inline payloads.
///
/// The cursor walks "virtual bucket numbers" (`time / width`), so events
/// pushed behind the cursor (same simulated time, later insertion)
/// simply pull the cursor back — order stays exact.
#[derive(Clone, Debug)]
pub struct CalendarQueue<T> {
    /// Power-of-two bucket array.
    buckets: Vec<Bucket<T>>,
    /// `buckets.len() - 1`.
    mask: u64,
    /// Bucket ("day") width as a power-of-two shift: a day spans
    /// `1 << width_shift` ns, so the day of a timestamp is a shift, not
    /// a division, on the hot path.
    width_shift: u32,
    /// Virtual bucket number the pop cursor is on (`time / width`).
    vcur: u64,
    len: usize,
    /// Smoothed inter-event gap observed at pops (ns, >= 1); the
    /// incremental signal the width adaptation feeds on. Measured as the
    /// mean over [`GAP_WINDOW`]-pop windows — pop times are globally
    /// nondecreasing, so a window mean is one subtraction, and unlike a
    /// per-pop EWMA it cannot be dragged to zero by a run of ties.
    gap_ewma_ns: u64,
    /// Pops observed in the current measurement window.
    gap_window_pops: u32,
    /// Pop time that opened the current measurement window.
    gap_window_start_ns: u64,
    /// Operations since the last resize; re-adaptations are rationed to
    /// at most one per population's worth of traffic so resize work
    /// stays amortised O(1).
    ops_since_resize: u64,
    /// Total entry shifts paid by mid-bucket inserts (the linear-scan
    /// pathology this structure is designed to avoid); pinned by the
    /// same-timestamp regression test.
    shift_ops: u64,
    /// Total geometry rebuilds (diagnostics; resizes must stay rare).
    resizes: u64,
    /// Reused drain buffer for resizes (no allocation at steady state).
    scratch: Vec<(u64, u64, T)>,
}

const MIN_BUCKETS: usize = 4;

/// Pops per inter-event-gap measurement window.
const GAP_WINDOW: u32 = 32;

/// Target mean entries per bucket after a resize. A handful per bucket
/// (rather than Brown's ~1) keeps the bucket array — and its resident
/// cache footprint — 4x smaller, while a mid-bucket insert still only
/// memmoves a few 16-byte entries.
const ENTRIES_PER_BUCKET: usize = 4;

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> CalendarQueue<T> {
    /// An empty queue with the initial bucket geometry.
    pub fn new() -> CalendarQueue<T> {
        CalendarQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::default()).collect(),
            mask: MIN_BUCKETS as u64 - 1,
            width_shift: 10,
            vcur: 0,
            len: 0,
            gap_ewma_ns: 0,
            gap_window_pops: 0,
            gap_window_start_ns: 0,
            ops_since_resize: 0,
            shift_ops: 0,
            resizes: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total entry shifts mid-bucket inserts have paid so far — the
    /// work a same-timestamp burst would degrade into without skew
    /// re-adaptation. Exposed for regression tests and benches.
    pub fn shift_ops(&self) -> u64 {
        self.shift_ops
    }

    /// Total geometry rebuilds so far. Resizes are rationed by the
    /// ops-since-resize cooldown, so this must stay far below the
    /// operation count; exposed for regression tests and benches.
    pub fn resizes(&self) -> u64 {
        self.resizes
    }

    #[inline]
    fn bucket_of(&self, time_ns: u64) -> usize {
        ((time_ns >> self.width_shift) & self.mask) as usize
    }

    /// End of virtual day `vb`, saturating at the top of the range.
    #[inline]
    fn day_end(&self, vb: u64) -> u64 {
        let next = vb + 1;
        if next > (u64::MAX >> self.width_shift) {
            u64::MAX
        } else {
            next << self.width_shift
        }
    }

    /// Inserts an event. `(time_ns, seq)` pairs must be unique (the
    /// engine's global insertion sequence guarantees it).
    pub fn push(&mut self, time_ns: u64, seq: u64, item: T) {
        let index = self.bucket_of(time_ns);
        let shifted = self.buckets[index].insert(time_ns, seq, item);
        self.shift_ops += shifted as u64;
        self.len += 1;
        self.ops_since_resize += 1;
        // An event earlier than the cursor's day pulls the cursor back.
        let vb = time_ns >> self.width_shift;
        if vb < self.vcur {
            self.vcur = vb;
        }
        if self.len > 2 * ENTRIES_PER_BUCKET * self.buckets.len() {
            self.resize();
        } else if shifted > 8 && self.skewed(index) {
            // A burst piled into one bucket and mid-bucket inserts are
            // paying linear shifts: re-adapt the geometry now instead of
            // waiting for the next population threshold.
            self.resize();
        }
    }

    /// Whether `index` holds an outsized share of the population and
    /// enough traffic has passed since the last resize (the cooldown
    /// keeps an un-splittable burst — identical timestamps — from
    /// resizing on every push).
    fn skewed(&self, index: usize) -> bool {
        let live = self.buckets[index].live();
        live >= 8 * ENTRIES_PER_BUCKET
            && live * self.buckets.len() >= 4 * self.len
            && self.ops_since_resize >= self.len as u64 / 2
    }

    /// Whether the incrementally observed inter-event gap has drifted
    /// far enough from the current day width that the geometry is stale
    /// (a steady-state population never crosses the len thresholds, so
    /// this is what keeps the width honest after the warm-up spread).
    fn width_stale(&self) -> bool {
        if self.gap_ewma_ns == 0 || self.ops_since_resize < self.len as u64 {
            return false;
        }
        let width = 1u64 << self.width_shift;
        let target = self.width_target();
        width > 4 * target || 4 * width < target
    }

    /// Ideal day width from the gap estimate: a day should hold about
    /// [`ENTRIES_PER_BUCKET`] gap-sized strides (min 1 ns). Both
    /// [`Self::resize`] and the staleness check use this, so they can
    /// never disagree about the geometry they want.
    fn width_target(&self) -> u64 {
        (2 * ENTRIES_PER_BUCKET as u64 * self.gap_ewma_ns).max(1)
    }

    /// Removes and returns the earliest event by `(time_ns, seq)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            self.gap_window_pops = 0;
            return None;
        }
        let nbuckets = self.buckets.len() as u64;
        for vb in self.vcur..=self.vcur.saturating_add(nbuckets) {
            let index = (vb & self.mask) as usize;
            if let Some((time_ns, _)) = self.buckets[index].first_key() {
                // Within this bucket's current "day"?
                if time_ns < self.day_end(vb) {
                    self.vcur = vb;
                    let (t, s, item) = self.buckets[index].pop_min();
                    return Some(self.note_pop(t, s, item));
                }
            }
        }
        // A full year passed with no event in its day: the set is sparse
        // relative to the current geometry. Find the global minimum
        // directly (each bucket's minimum is its head) and jump to it.
        let (index, _) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.first_key().map(|key| (i, key)))
            .min_by_key(|&(_, key)| key)
            .expect("len > 0 means some bucket is non-empty");
        let (t, s, item) = self.buckets[index].pop_min();
        self.vcur = t >> self.width_shift;
        Some(self.note_pop(t, s, item))
    }

    fn note_pop(&mut self, time_ns: u64, seq: u64, item: T) -> (u64, u64, T) {
        self.len -= 1;
        // Incremental width signal: windowed mean of the head's gap.
        if self.gap_window_pops == 0 {
            self.gap_window_start_ns = time_ns;
        }
        self.gap_window_pops += 1;
        if self.gap_window_pops > GAP_WINDOW {
            let mean = ((time_ns - self.gap_window_start_ns) / GAP_WINDOW as u64).max(1);
            self.gap_ewma_ns = if self.gap_ewma_ns == 0 {
                mean
            } else {
                (self.gap_ewma_ns + mean) / 2
            };
            self.gap_window_pops = 0;
        }
        self.ops_since_resize += 1;
        if (self.len < self.buckets.len() && self.buckets.len() > MIN_BUCKETS) || self.width_stale()
        {
            self.resize();
        }
        (time_ns, seq, item)
    }

    /// Rebuilds the calendar with a bucket count proportional to the
    /// population and a day width from the incremental gap estimate
    /// (falling back to a deterministic span sample when no pops have
    /// been observed yet) — Brown's adaptation without the re-sampling
    /// pass on the hot path. Entries move through a reused scratch
    /// buffer and are re-sorted per destination bucket (a handful of
    /// entries each), never globally.
    fn resize(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for bucket in &mut self.buckets {
            bucket.drain_into(&mut scratch);
        }

        let nbuckets = (self.len / ENTRIES_PER_BUCKET)
            .next_power_of_two()
            .max(MIN_BUCKETS);
        // Day width from the incremental gap estimate, rounded up to a
        // power of two so day lookups stay shifts; before any pops have
        // been observed, fall back to the population's observed span.
        let target_ns = if self.gap_ewma_ns > 0 {
            self.width_target()
        } else if scratch.len() >= 2 {
            let min = scratch.iter().map(|e| e.0).min().expect("non-empty");
            let max = scratch.iter().map(|e| e.0).max().expect("non-empty");
            (2 * ENTRIES_PER_BUCKET as u64 * (max - min) / scratch.len() as u64).max(1)
        } else {
            1u64 << self.width_shift
        };
        let width_shift = 63 - target_ns.next_power_of_two().min(1 << 62).leading_zeros();

        if self.buckets.len() != nbuckets {
            self.buckets = (0..nbuckets).map(|_| Bucket::default()).collect();
            self.mask = nbuckets as u64 - 1;
        }
        self.width_shift = width_shift;
        self.vcur = scratch
            .iter()
            .map(|e| e.0 >> width_shift)
            .min()
            .unwrap_or(0);
        self.ops_since_resize = 0;
        self.resizes += 1;
        // Each destination bucket re-sorts its handful of entries via
        // ordered insert; resize shuffling is not a hot-path shift, so
        // it stays out of `shift_ops`.
        for (time_ns, seq, item) in scratch.drain(..) {
            let index = ((time_ns >> width_shift) & self.mask) as usize;
            self.buckets[index].insert(time_ns, seq, item);
        }
        self.scratch = scratch;
    }
}

/// The engine's future event set: one of the two [`QueueKind`]s behind a
/// common `(time, seq)`-ordered push/pop interface.
#[derive(Clone, Debug)]
pub struct EventQueue<T> {
    inner: Inner<T>,
}

#[derive(Clone, Debug)]
enum Inner<T> {
    Heap(BinaryHeap<Reverse<HeapEntry<T>>>),
    Calendar(CalendarQueue<T>),
}

impl<T> EventQueue<T> {
    /// An empty queue of the requested kind.
    pub fn new(kind: QueueKind) -> EventQueue<T> {
        let inner = match kind {
            QueueKind::Heap => Inner::Heap(BinaryHeap::new()),
            QueueKind::Calendar => Inner::Calendar(CalendarQueue::new()),
        };
        EventQueue { inner }
    }

    /// Which implementation this is.
    pub fn kind(&self) -> QueueKind {
        match &self.inner {
            Inner::Heap(_) => QueueKind::Heap,
            Inner::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Inserts an event under its `(time_ns, seq)` key.
    pub fn push(&mut self, time_ns: u64, seq: u64, item: T) {
        match &mut self.inner {
            Inner::Heap(heap) => heap.push(Reverse(HeapEntry { time_ns, seq, item })),
            Inner::Calendar(cal) => cal.push(time_ns, seq, item),
        }
    }

    /// Removes and returns the earliest event by `(time_ns, seq)`.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        match &mut self.inner {
            Inner::Heap(heap) => heap.pop().map(|Reverse(e)| (e.time_ns, e.seq, e.item)),
            Inner::Calendar(cal) => cal.pop(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Inner::Heap(heap) => heap.len(),
            Inner::Calendar(cal) => cal.len(),
        }
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_trace::SplitMix64;

    #[test]
    fn pops_in_time_then_seq_order() {
        for kind in [QueueKind::Heap, QueueKind::Calendar] {
            let mut q: EventQueue<&'static str> = EventQueue::new(kind);
            // Three simultaneous events pushed out of seq order, plus
            // earlier and later neighbours.
            q.push(5, 2, "pe_free");
            q.push(5, 0, "deliver");
            q.push(7, 3, "late");
            q.push(5, 1, "timer");
            q.push(2, 4, "early");
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(
                order,
                vec![
                    (2, 4, "early"),
                    (5, 0, "deliver"),
                    (5, 1, "timer"),
                    (5, 2, "pe_free"),
                    (7, 3, "late"),
                ],
                "{} queue broke the (time, seq) order",
                kind.name()
            );
        }
    }

    /// Drives both kinds with an identical randomised hold pattern
    /// (interleaved pushes and pops, clustered times, deliberate ties)
    /// and requires the exact same pop sequence.
    #[test]
    fn calendar_matches_heap_on_randomised_hold_pattern() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xCA1E_0000 + seed);
            let mut heap: EventQueue<u64> = EventQueue::new(QueueKind::Heap);
            let mut cal: EventQueue<u64> = EventQueue::new(QueueKind::Calendar);
            let mut seq = 0u64;
            let mut now = 0u64;
            for _ in 0..5_000 {
                let burst = 1 + rng.next_below(4);
                for _ in 0..burst {
                    // Clustered around `now`, with exact ties ~1/4 of
                    // the time.
                    let dt = if rng.next_below(4) == 0 {
                        0
                    } else {
                        rng.next_below(5_000)
                    };
                    let t = now + dt;
                    heap.push(t, seq, seq);
                    cal.push(t, seq, seq);
                    seq += 1;
                }
                let pops = 1 + rng.next_below(burst + 1);
                for _ in 0..pops {
                    let a = heap.pop();
                    let b = cal.pop();
                    assert_eq!(a, b, "seed {seed} diverged at seq {seq}");
                    if let Some((t, _, _)) = a {
                        now = t;
                    }
                }
            }
            // Drain both completely.
            loop {
                let a = heap.pop();
                let b = cal.pop();
                assert_eq!(a, b, "seed {seed} diverged during drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn resize_preserves_content_and_order() {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        // Push far more than the initial geometry holds, with a huge
        // spread, then a tight cluster: forces grows and width changes.
        for i in 0..1_000u64 {
            cal.push(i * 1_000_000, i, i);
        }
        for i in 1_000..2_000u64 {
            cal.push(500, i, i);
        }
        let mut prev = None;
        let mut count = 0;
        while let Some((t, s, _)) = cal.pop() {
            if let Some(p) = prev {
                assert!((t, s) > p, "order violated: {:?} then {:?}", p, (t, s));
            }
            prev = Some((t, s));
            count += 1;
        }
        assert_eq!(count, 2_000);
        assert!(cal.is_empty());
    }

    #[test]
    fn sparse_times_trigger_direct_search() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        // Two events much further apart than nbuckets * width: the
        // year-scan gives up and the direct search must find the second.
        cal.push(10, 0, 1);
        cal.push(10_000_000_000, 1, 2);
        assert_eq!(cal.pop(), Some((10, 0, 1)));
        assert_eq!(cal.pop(), Some((10_000_000_000, 1, 2)));
        assert_eq!(cal.pop(), None);
    }

    /// A payload that counts how often it is cloned.
    #[derive(Debug)]
    struct Counted(u64, std::rc::Rc<std::cell::Cell<u64>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.1.set(self.1.get() + 1);
            Counted(self.0, self.1.clone())
        }
    }

    /// Push (tail appends, head-slot reuse, mid-bucket inserts), pop and
    /// resize all move payloads: none is ever cloned, and the pop order
    /// is still `(time, seq)`.
    #[test]
    fn payloads_are_moved_never_cloned() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut cal: CalendarQueue<Counted> = CalendarQueue::new();
        let mut reference: EventQueue<u64> = EventQueue::new(QueueKind::Heap);
        let mut rng = SplitMix64::new(0xC10E);
        let mut now = 0;
        let pop_both = |cal: &mut CalendarQueue<Counted>, reference: &mut EventQueue<u64>| {
            let got = cal.pop().map(|(t, s, item)| (t, s, item.0));
            assert_eq!(got, reference.pop(), "pop order changed");
            got
        };
        for seq in 0..6_000u64 {
            let t = now + rng.next_below(20_000);
            cal.push(t, seq, Counted(seq, clones.clone()));
            reference.push(t, seq, seq);
            if seq % 3 == 2 {
                now = pop_both(&mut cal, &mut reference).expect("non-empty").0;
            }
        }
        assert!(cal.resizes() > 0, "the population must force resizes");
        while pop_both(&mut cal, &mut reference).is_some() {}
        assert_eq!(clones.get(), 0, "the queue cloned a payload");
    }

    #[test]
    fn bucket_storage_stays_bounded_across_hold_rounds() {
        let mut cal: CalendarQueue<u32> = CalendarQueue::new();
        for round in 0..1_000u64 {
            for i in 0..8u64 {
                cal.push(round * 100 + i, round * 8 + i, i as u32);
            }
            for _ in 0..8 {
                cal.pop().unwrap();
            }
        }
        // 8 live events at a time -> the geometry and its allocations
        // must not grow with the number of rounds.
        assert!(
            cal.buckets.len() <= 64,
            "bucket array grew to {}",
            cal.buckets.len()
        );
        let capacity: usize = cal.buckets.iter().map(|b| b.times.capacity()).sum();
        assert!(capacity <= 4_096, "bucket capacity grew to {capacity}");
    }

    /// The resize pathology the skew trigger fixes: a burst of events at
    /// one timestamp, pushed *behind* an existing spread that shares its
    /// bucket, used to pay a linear shift per insert. With skew-triggered
    /// re-adaptation the total shift work stays near-constant instead of
    /// quadratic in the burst size.
    #[test]
    fn same_timestamp_burst_does_not_degrade_to_linear_scans() {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut seq = 0u64;
        // A spread population that fixes a wide day geometry.
        for i in 0..256u64 {
            cal.push(i * 10_000, seq, seq);
            seq += 1;
        }
        // Now a same-timestamp burst early in the range: every entry maps
        // to one bucket, behind later-day entries sharing it.
        for _ in 0..2_000u64 {
            cal.push(5_000, seq, seq);
            seq += 1;
        }
        let shifts = cal.shift_ops();
        // Quadratic degradation would pay ~2M shifts here; the skew
        // trigger keeps it around the cost of a couple of re-adaptations.
        assert!(
            shifts < 50_000,
            "same-timestamp burst paid {shifts} entry shifts"
        );
        // And the order contract still holds through the pathology.
        let mut heap: EventQueue<u64> = EventQueue::new(QueueKind::Heap);
        let mut expect = 0u64;
        for i in 0..256u64 {
            heap.push(i * 10_000, expect, expect);
            expect += 1;
        }
        for _ in 0..2_000u64 {
            heap.push(5_000, expect, expect);
            expect += 1;
        }
        loop {
            let a = heap.pop();
            let b = cal.pop();
            assert_eq!(a, b, "burst pattern diverged from heap order");
            if a.is_none() {
                break;
            }
        }
    }

    /// The incremental gap estimate steers resizes: a steady hold
    /// pattern settles the day width near twice the observed gap rather
    /// than whatever the initial geometry guessed.
    #[test]
    fn width_tracks_observed_gap() {
        let mut cal: CalendarQueue<u64> = CalendarQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..64u64 {
            cal.push(now + 7_000, seq, seq);
            seq += 1;
            now = cal.pop().expect("queued").0;
        }
        // Keep enough population to force a resize after the gap signal
        // exists.
        for i in 0..64u64 {
            cal.push(now + 7_000 * (i + 1), seq, seq);
            seq += 1;
        }
        assert!(cal.gap_ewma_ns > 0, "pops should have fed the gap estimate");
        // Target width is ~2 * ENTRIES_PER_BUCKET gap strides, rounded
        // up to a power of two: within [gap, 16 * gap].
        let width_ns = 1u64 << cal.width_shift;
        assert!(
            width_ns >= cal.gap_ewma_ns && width_ns <= 16 * cal.gap_ewma_ns.max(1),
            "width {} should track the gap estimate {}",
            width_ns,
            cal.gap_ewma_ns
        );
    }
}
