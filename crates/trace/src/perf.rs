//! Host-side hierarchical self-profiler.
//!
//! [`crate::recorder::Recorder`] observes *simulated* time; this module
//! observes the tool itself: where host wall-clock time goes across the
//! whole pipeline (parse → XMI → profile apply → checks → codegen → sim
//! setup → simulation → analysis) and inside the exploration and
//! fault-sweep drivers.
//!
//! Design:
//!
//! * **Interned labels** — [`label`] resolves a frame name to a [`Label`]
//!   (a `u32`) through a global table. Hot paths intern once at setup
//!   time and pass `Copy` ids afterwards.
//! * **Thread-local span stacks** — [`enter`] pushes a frame onto the
//!   current thread's stack and returns a scope guard; dropping the guard
//!   pops the frame and charges its elapsed time to a call-tree node
//!   keyed by the full stack path. No lock is taken on enter/exit: each
//!   thread aggregates into its own buffer.
//! * **Merged at drain** — a thread's buffer is flushed into a global
//!   pool whenever its outermost span closes, so a scoped worker's frames
//!   are pooled before the worker's closure returns and therefore before
//!   its scope ends (a thread-local destructor flushes any remainder at
//!   thread exit, but may run after the scope has returned); [`drain`]
//!   flushes the calling thread too, merges every buffered call tree by
//!   path, and returns a [`PerfReport`].
//! * **Zero cost when off** — the [`Prof`] trait mirrors the
//!   `TraceSink`/`FaultModel` discipline: instrumented code is generic
//!   over it, [`NoProf`] monomorphises to nothing (`ACTIVE = false`
//!   statically removes even the enabled-flag load), and [`HostProf`]
//!   routes into the thread-local machinery. Observation must never
//!   perturb behaviour: a profiled simulation's log is byte-identical to
//!   an unprofiled one (pinned by `tests/profiler.rs`).
//!
//! The report renders three ways: a top-N hotspot table
//! ([`PerfReport::render_top`]), collapsed stacks in the
//! inferno/flamegraph `parent;child value` format
//! ([`PerfReport::to_folded`]), and a Chrome trace-event timeline reusing
//! the [`crate::chrome`] exporter ([`PerfReport::to_chrome`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::recorder::Recorder;
use crate::sink::{Clock, TraceSink};

/// An interned frame label, valid process-wide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(u32);

/// Whether spans are currently recorded.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The host-clock epoch all span timestamps are relative to (set when
/// profiling is first enabled, so timelines across threads share a zero).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// label text ↔ id table. Interning takes this lock; hot paths intern
/// once and reuse the `Label`.
static LABELS: OnceLock<Mutex<LabelTable>> = OnceLock::new();

/// Flushed per-thread buffers awaiting [`drain`].
static POOL: OnceLock<Mutex<Vec<ThreadDump>>> = OnceLock::new();

/// Raw timeline spans kept per thread for the Chrome export. Aggregation
/// (the call tree) is unbounded-safe; the raw timeline is capped so a
/// long simulation cannot exhaust memory — overflow is counted and
/// surfaced in the report.
const RAW_SPAN_CAP: usize = 1 << 20;

#[derive(Default)]
struct LabelTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

fn labels() -> &'static Mutex<LabelTable> {
    LABELS.get_or_init(|| Mutex::new(LabelTable::default()))
}

fn pool() -> &'static Mutex<Vec<ThreadDump>> {
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Interns `name`, returning its process-wide [`Label`]. Takes a global
/// lock — call at setup time for hot paths, not per event.
pub fn label(name: &str) -> Label {
    let mut table = labels().lock().expect("label table poisoned");
    if let Some(&id) = table.by_name.get(name) {
        return Label(id);
    }
    let id = u32::try_from(table.names.len()).expect("label table overflow");
    table.names.push(name.to_owned());
    table.by_name.insert(name.to_owned(), id);
    Label(id)
}

/// Turns span recording on. The first call fixes the shared host-clock
/// epoch.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off (buffered data stays until [`drain`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True while span recording is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One frame on a thread's span stack.
struct Frame {
    /// Call-tree node this frame aggregates into.
    node: u32,
    start: Instant,
    /// Nanoseconds spent in already-closed children (to compute self
    /// time on exit).
    child_ns: u64,
}

/// One call-tree node of a thread's aggregation buffer.
#[derive(Clone, Copy, Debug)]
struct NodeAgg {
    parent: u32,
    label: u32,
    self_ns: u64,
    total_ns: u64,
    count: u64,
}

/// One raw timeline span (for the Chrome export).
#[derive(Clone, Copy, Debug)]
struct RawSpan {
    label: u32,
    start_ns: u64,
    dur_ns: u64,
}

/// A thread's flushed profiling buffer.
struct ThreadDump {
    thread: String,
    /// Node 0 is the synthetic root.
    nodes: Vec<NodeAgg>,
    raw: Vec<RawSpan>,
    dropped: u64,
}

struct ThreadState {
    thread: String,
    stack: Vec<Frame>,
    nodes: Vec<NodeAgg>,
    children: HashMap<(u32, u32), u32>,
    raw: Vec<RawSpan>,
    dropped: u64,
}

impl ThreadState {
    fn new() -> ThreadState {
        static NEXT_ID: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let thread = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{id}"));
        ThreadState {
            thread,
            stack: Vec::new(),
            nodes: vec![NodeAgg {
                parent: 0,
                label: u32::MAX,
                self_ns: 0,
                total_ns: 0,
                count: 0,
            }],
            children: HashMap::new(),
            raw: Vec::new(),
            dropped: 0,
        }
    }

    fn child_node(&mut self, parent: u32, label: u32) -> u32 {
        if let Some(&node) = self.children.get(&(parent, label)) {
            return node;
        }
        let node = u32::try_from(self.nodes.len()).expect("perf node overflow");
        self.nodes.push(NodeAgg {
            parent,
            label,
            self_ns: 0,
            total_ns: 0,
            count: 0,
        });
        self.children.insert((parent, label), node);
        node
    }

    fn begin(&mut self, label: Label) {
        let parent = self.stack.last().map(|f| f.node).unwrap_or(0);
        let node = self.child_node(parent, label.0);
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    fn end(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return; // unbalanced guard (e.g. drained mid-span): ignore
        };
        let total_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let node = &mut self.nodes[frame.node as usize];
        node.total_ns += total_ns;
        node.self_ns += total_ns.saturating_sub(frame.child_ns);
        node.count += 1;
        let label = node.label;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += total_ns;
        }
        if self.raw.len() < RAW_SPAN_CAP {
            let start_ns =
                u64::try_from(frame.start.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX);
            self.raw.push(RawSpan {
                label,
                start_ns,
                dur_ns: total_ns,
            });
        } else {
            self.dropped += 1;
        }
        if self.stack.is_empty() {
            // The outermost span closed: pool the buffer while the thread
            // is certainly still running (see the module docs).
            self.flush();
        }
    }

    /// Moves the buffered data into the global pool.
    fn flush(&mut self) {
        if let Some(dump) = self.take_dump() {
            if let Ok(mut pool) = pool().lock() {
                pool.push(dump);
            }
        }
    }

    /// Moves the buffered data out as a [`ThreadDump`], leaving the state
    /// empty but reusable. Open frames stay on the stack (their time is
    /// charged when their guards drop).
    fn take_dump(&mut self) -> Option<ThreadDump> {
        if self.nodes.len() <= 1 && self.raw.is_empty() {
            return None;
        }
        let nodes = std::mem::replace(
            &mut self.nodes,
            vec![NodeAgg {
                parent: 0,
                label: u32::MAX,
                self_ns: 0,
                total_ns: 0,
                count: 0,
            }],
        );
        self.children.clear();
        // Re-anchor any frames still open onto the fresh root so their
        // eventual exits do not index into the flushed table.
        for frame in &mut self.stack {
            frame.node = 0;
        }
        Some(ThreadDump {
            thread: self.thread.clone(),
            nodes,
            raw: std::mem::take(&mut self.raw),
            dropped: std::mem::take(&mut self.dropped),
        })
    }
}

/// Thread-local wrapper whose drop flushes the buffer into the global
/// pool, so scoped worker threads contribute automatically.
struct TlsState(RefCell<ThreadState>);

impl Drop for TlsState {
    fn drop(&mut self) {
        self.0.borrow_mut().flush();
    }
}

thread_local! {
    static TLS: TlsState = TlsState(RefCell::new(ThreadState::new()));
}

/// Scope guard of one profiled span; created by [`enter`], pops its
/// frame when dropped.
#[must_use = "a PerfSpan measures until it is dropped"]
pub struct PerfSpan {
    active: bool,
}

impl PerfSpan {
    /// A guard that does nothing on drop.
    pub const fn inactive() -> PerfSpan {
        PerfSpan { active: false }
    }

    /// Ends this span and opens a sibling named `name` in its place —
    /// the sequential-stage idiom:
    /// `let span = span.then_named("stage2");`.
    pub fn then_named(self, name: &str) -> PerfSpan {
        drop(self);
        enter_named(name)
    }
}

impl Drop for PerfSpan {
    fn drop(&mut self) {
        if self.active {
            // `try_with`: guards may drop during thread teardown.
            let _ = TLS.try_with(|tls| tls.0.borrow_mut().end());
        }
    }
}

/// Opens a span labelled `label` on the current thread (no-op while
/// profiling is off).
#[inline]
pub fn enter(label: Label) -> PerfSpan {
    if !enabled() {
        return PerfSpan::inactive();
    }
    let ok = TLS.try_with(|tls| tls.0.borrow_mut().begin(label)).is_ok();
    PerfSpan { active: ok }
}

/// [`enter`] for cold paths: interns `name` only when profiling is on.
#[inline]
pub fn enter_named(name: &str) -> PerfSpan {
    if !enabled() {
        return PerfSpan::inactive();
    }
    enter(label(name))
}

/// Statically-dispatched profiling capability, mirroring the
/// `TraceSink`/`FaultModel` discipline: hot code is generic over `P:
/// Prof`, so the [`NoProf`] build compiles the instrumentation away
/// entirely (branch on [`Prof::ACTIVE`], a constant).
pub trait Prof: Copy {
    /// `false` statically removes every instrumentation site.
    const ACTIVE: bool;

    /// True when spans are actually recorded right now.
    fn enabled(self) -> bool;

    /// Opens a span (see [`enter`]).
    fn enter(self, label: Label) -> PerfSpan;

    /// Opens a span by name (see [`enter_named`]).
    fn enter_named(self, name: &str) -> PerfSpan;
}

/// The do-nothing profiler: all methods compile away.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NoProf;

impl Prof for NoProf {
    const ACTIVE: bool = false;

    #[inline]
    fn enabled(self) -> bool {
        false
    }
    #[inline]
    fn enter(self, _label: Label) -> PerfSpan {
        PerfSpan::inactive()
    }
    #[inline]
    fn enter_named(self, _name: &str) -> PerfSpan {
        PerfSpan::inactive()
    }
}

/// The recording profiler: routes into the thread-local machinery (still
/// gated on the global [`enabled`] flag).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HostProf;

impl Prof for HostProf {
    const ACTIVE: bool = true;

    #[inline]
    fn enabled(self) -> bool {
        enabled()
    }
    #[inline]
    fn enter(self, label: Label) -> PerfSpan {
        enter(label)
    }
    #[inline]
    fn enter_named(self, name: &str) -> PerfSpan {
        enter_named(name)
    }
}

/// One node of the merged call tree.
#[derive(Clone, PartialEq, Debug)]
pub struct PerfNode {
    /// Frame name.
    pub label: String,
    /// Index of the parent node in [`PerfReport::nodes`] (`None` for
    /// top-level frames).
    pub parent: Option<usize>,
    /// Nanoseconds spent in this frame excluding child frames.
    pub self_ns: u64,
    /// Nanoseconds spent in this frame including child frames.
    pub total_ns: u64,
    /// Times the frame was entered.
    pub count: u64,
}

/// One label's aggregate across the whole tree (the hotspot table row).
#[derive(Clone, PartialEq, Debug)]
pub struct Hotspot {
    /// Frame name.
    pub label: String,
    /// Self time summed over every tree node with this label.
    pub self_ns: u64,
    /// Total time summed over every tree node with this label.
    pub total_ns: u64,
    /// Enter count summed over every tree node with this label.
    pub count: u64,
}

/// One thread's raw span timeline (drives the Chrome export).
struct Timeline {
    thread: String,
    raw: Vec<RawSpan>,
}

/// The merged self-profiling result of one [`drain`].
pub struct PerfReport {
    /// The merged call tree in depth-first order (parents precede
    /// children).
    pub nodes: Vec<PerfNode>,
    /// Raw timeline spans dropped because a thread hit the in-memory cap.
    pub dropped_spans: u64,
    timelines: Vec<Timeline>,
}

/// Flushes the calling thread's buffer and merges every flushed buffer
/// into a [`PerfReport`], leaving the pool empty. The enabled flag is
/// untouched.
pub fn drain() -> PerfReport {
    let _ = TLS.try_with(|tls| tls.0.borrow_mut().flush());
    let dumps: Vec<ThreadDump> = std::mem::take(&mut *pool().lock().expect("perf pool poisoned"));
    let names: Vec<String> = labels().lock().expect("label table poisoned").names.clone();
    merge(dumps, &names)
}

/// Discards all buffered data (calling thread + pool).
pub fn reset() {
    let _ = drain();
}

/// Merge key trie node during [`merge`].
struct MergeNode {
    label: u32,
    parent: usize, // index into merged, usize::MAX for root
    self_ns: u64,
    total_ns: u64,
    count: u64,
    children: Vec<usize>,
}

fn merge(dumps: Vec<ThreadDump>, names: &[String]) -> PerfReport {
    let mut merged: Vec<MergeNode> = Vec::new();
    let mut index: HashMap<(usize, u32), usize> = HashMap::new();
    let mut dropped = 0u64;
    let mut timelines = Vec::new();
    for dump in dumps {
        dropped += dump.dropped;
        // Map this dump's node ids to merged ids, parents first (node
        // ids are allocated in discovery order, so a parent always has a
        // smaller id than its children).
        let mut map: Vec<usize> = vec![usize::MAX; dump.nodes.len()];
        for (id, node) in dump.nodes.iter().enumerate() {
            if id == 0 {
                continue; // synthetic root
            }
            let parent = if node.parent == 0 {
                usize::MAX
            } else {
                map[node.parent as usize]
            };
            let slot = *index.entry((parent, node.label)).or_insert_with(|| {
                merged.push(MergeNode {
                    label: node.label,
                    parent,
                    self_ns: 0,
                    total_ns: 0,
                    count: 0,
                    children: Vec::new(),
                });
                let slot = merged.len() - 1;
                if parent != usize::MAX {
                    merged[parent].children.push(slot);
                }
                slot
            });
            merged[slot].self_ns += node.self_ns;
            merged[slot].total_ns += node.total_ns;
            merged[slot].count += node.count;
            map[id] = slot;
        }
        if !dump.raw.is_empty() {
            timelines.push(Timeline {
                thread: dump.thread,
                raw: dump.raw,
            });
        }
    }
    // Deterministic order: threads by name, roots and children by label.
    timelines.sort_by(|a, b| a.thread.cmp(&b.thread));
    let resolve = |l: u32| names.get(l as usize).map(String::as_str).unwrap_or("?");
    // Emit depth-first with children sorted by descending total time.
    let mut roots: Vec<usize> = (0..merged.len())
        .filter(|&i| merged[i].parent == usize::MAX)
        .collect();
    roots.sort_by(|&a, &b| {
        merged[b]
            .total_ns
            .cmp(&merged[a].total_ns)
            .then_with(|| resolve(merged[a].label).cmp(resolve(merged[b].label)))
    });
    let mut nodes = Vec::with_capacity(merged.len());
    let mut remap: Vec<usize> = vec![usize::MAX; merged.len()];
    let mut stack: Vec<usize> = roots.into_iter().rev().collect();
    while let Some(i) = stack.pop() {
        let node = &merged[i];
        let out = nodes.len();
        remap[i] = out;
        nodes.push(PerfNode {
            label: resolve(node.label).to_owned(),
            parent: if node.parent == usize::MAX {
                None
            } else {
                Some(remap[node.parent])
            },
            self_ns: node.self_ns,
            total_ns: node.total_ns,
            count: node.count,
        });
        let mut kids = node.children.clone();
        kids.sort_by(|&a, &b| {
            merged[b]
                .total_ns
                .cmp(&merged[a].total_ns)
                .then_with(|| resolve(merged[a].label).cmp(resolve(merged[b].label)))
        });
        stack.extend(kids.into_iter().rev());
    }
    PerfReport {
        nodes,
        dropped_spans: dropped,
        timelines,
    }
}

impl PerfReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Per-label aggregates over the whole tree, sorted by descending
    /// self time. Note a recursive label's `total_ns` counts each nesting
    /// level once (self time is never double-counted).
    pub fn hotspots(&self) -> Vec<Hotspot> {
        let mut by_label: HashMap<&str, Hotspot> = HashMap::new();
        for node in &self.nodes {
            let entry = by_label.entry(&node.label).or_insert_with(|| Hotspot {
                label: node.label.clone(),
                self_ns: 0,
                total_ns: 0,
                count: 0,
            });
            entry.self_ns += node.self_ns;
            entry.total_ns += node.total_ns;
            entry.count += node.count;
        }
        let mut spots: Vec<Hotspot> = by_label.into_values().collect();
        spots.sort_by(|a, b| {
            b.self_ns
                .cmp(&a.self_ns)
                .then_with(|| a.label.cmp(&b.label))
        });
        spots
    }

    /// Renders the top-`n` hotspot table (self/total time, counts, and
    /// the self-time share of the profiled wall-clock).
    pub fn render_top(&self, n: usize) -> String {
        let spots = self.hotspots();
        let wall: u64 = spots.iter().map(|s| s.self_ns).sum();
        let mut out = String::from(
            "frame                            |  self (ms) | total (ms) |    calls |  self %\n",
        );
        out.push_str(
            "---------------------------------+------------+------------+----------+--------\n",
        );
        for spot in spots.iter().take(n) {
            let share = if wall == 0 {
                0.0
            } else {
                spot.self_ns as f64 * 100.0 / wall as f64
            };
            out.push_str(&format!(
                "{:<32} | {:>10.3} | {:>10.3} | {:>8} | {:>5.1} %\n",
                spot.label,
                spot.self_ns as f64 / 1e6,
                spot.total_ns as f64 / 1e6,
                spot.count,
                share,
            ));
        }
        if self.dropped_spans > 0 {
            out.push_str(&format!(
                "(timeline capped: {} raw spans dropped; aggregates above are exact)\n",
                self.dropped_spans
            ));
        }
        out
    }

    /// Collapsed-stack (inferno/flamegraph) rendering: one
    /// `frame;frame;frame value` line per tree node with non-zero self
    /// time, value in nanoseconds.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        let mut path: Vec<String> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            // Reconstruct the path by walking parents (cheap: trees are
            // small — labels, not samples).
            path.clear();
            let mut cursor = Some(i);
            while let Some(c) = cursor {
                path.push(self.nodes[c].label.clone());
                cursor = self.nodes[c].parent;
            }
            path.reverse();
            if node.self_ns > 0 {
                out.push_str(&path.join(";"));
                out.push(' ');
                out.push_str(&node.self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Chrome trace-event rendering of the raw per-thread timelines,
    /// through the [`crate::chrome`] exporter: one host-clock track per
    /// profiled thread, so Perfetto shows named profiler threads next to
    /// the simulated-clock tracks.
    pub fn to_chrome(&self) -> String {
        let mut recorder = Recorder::new();
        for timeline in &self.timelines {
            let track = recorder.track(&format!("profiler/{}", timeline.thread), Clock::Host);
            let names: Vec<String> = {
                let table = labels().lock().expect("label table poisoned");
                table.names.clone()
            };
            for span in &timeline.raw {
                let name = names
                    .get(span.label as usize)
                    .map(String::as_str)
                    .unwrap_or("?");
                recorder.span(track, name, span.start_ns, span.dur_ns);
            }
        }
        crate::chrome::to_chrome_json(&recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profiler state is process-global; tests that touch it serialise on
    /// this lock so `cargo test`'s thread pool cannot interleave them.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _g = guard();
        disable();
        reset();
        {
            let _a = enter_named("dead.a");
            let _b = enter_named("dead.b");
        }
        let report = drain();
        assert!(report.is_empty());
        assert_eq!(report.to_folded(), "");
    }

    #[test]
    fn nested_spans_build_a_tree_with_self_and_total() {
        let _g = guard();
        reset();
        enable();
        {
            let _p = enter_named("parent");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _c = enter_named("child");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        disable();
        let report = drain();
        let parent = report
            .nodes
            .iter()
            .find(|n| n.label == "parent")
            .expect("parent node");
        let child = report
            .nodes
            .iter()
            .find(|n| n.label == "child")
            .expect("child node");
        assert!(child.parent.is_some());
        assert_eq!(report.nodes[child.parent.unwrap()].label, "parent");
        assert!(parent.total_ns >= child.total_ns);
        assert!(parent.self_ns <= parent.total_ns - child.total_ns + 1_000_000);
        let folded = report.to_folded();
        assert!(folded.contains("parent;child "), "folded: {folded}");
    }

    #[test]
    fn worker_thread_buffers_merge_at_drain() {
        let _g = guard();
        let shard = label("shard");
        // A worker's frames must be pooled by the time its scope ends;
        // a late flush loses them here or leaks them into the next
        // round, so one round in a hundred going wrong fails the test.
        for round in 0..100 {
            reset();
            enable();
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        let _s = enter(shard);
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    });
                }
            });
            disable();
            let report = drain();
            let count = report
                .hotspots()
                .into_iter()
                .find(|h| h.label == "shard")
                .map_or(0, |h| h.count);
            assert_eq!(count, 2, "round {round}: both workers' frames merged");
        }
    }

    #[test]
    fn labels_are_interned_once() {
        let a = label("same");
        let b = label("same");
        let c = label("other");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn chrome_export_is_valid_json_with_thread_tracks() {
        let _g = guard();
        reset();
        enable();
        {
            let _s = enter_named("export.me");
        }
        disable();
        let report = drain();
        let text = report.to_chrome();
        let doc = crate::json::parse(&text).expect("valid chrome JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events
            .iter()
            .any(|e| { e.get("name").and_then(crate::json::Json::as_str) == Some("thread_name") }));
        assert!(events
            .iter()
            .any(|e| { e.get("name").and_then(crate::json::Json::as_str) == Some("export.me") }));
    }

    #[test]
    fn render_top_lists_hotspots() {
        let _g = guard();
        reset();
        enable();
        {
            let _s = enter_named("hot.frame");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        disable();
        let report = drain();
        let table = report.render_top(10);
        assert!(table.contains("hot.frame"), "{table}");
        assert!(table.contains("self (ms)"));
    }
}
