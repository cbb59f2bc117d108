//! Host-side hierarchical self-profiler.
//!
//! [`crate::recorder::Recorder`] observes *simulated* time; this module
//! observes the tool itself, and is the workspace's one host-time
//! instrument: where host wall-clock time goes across the whole
//! pipeline (parse → XMI → profile apply → checks → codegen → sim setup
//! → simulation → analysis) and inside the exploration and fault-sweep
//! drivers.
//!
//! Design:
//!
//! * **Interned labels** — [`label`] resolves a frame name to a [`Label`]
//!   (a `u32`) through a global table. Hot paths intern once at setup
//!   time and pass `Copy` ids afterwards.
//! * **One span stack, one call tree** — [`enter`] pushes a frame onto
//!   the profiler's stack and returns a scope guard; dropping the guard
//!   pops the frame, charges its elapsed time to a call-tree node keyed
//!   by the full stack path, and appends it to a capped raw timeline.
//!   The profiler is single-threaded: its state belongs to the thread
//!   that opens the frames, and [`drain`] returns that thread's call
//!   tree as a [`PerfReport`]. Every profiled flow runs on one thread.
//! * **Drain closes what is open** — a frame still open at [`drain`] is
//!   closed there and reported with the time it has run so far; its
//!   guard then closes nothing, so no time leaks into the next report.
//! * **Zero cost when off** — the [`Prof`] trait mirrors the
//!   `TraceSink`/`FaultModel` discipline: instrumented code is generic
//!   over it, [`NoProf`] monomorphises to nothing (`ACTIVE = false`
//!   statically removes even the enabled-flag load), and [`HostProf`]
//!   routes into the profiler state. Observation must never perturb
//!   behaviour: a profiled simulation's log is byte-identical to an
//!   unprofiled one (pinned by `tests/profiler.rs`).
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
use crate::sink::TraceSink;

/// An interned frame label, valid process-wide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(u32);

/// Whether spans are currently recorded.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// label text ↔ id table. Interning takes this lock; hot paths intern
/// once and reuse the `Label`.
static LABELS: OnceLock<Mutex<LabelTable>> = OnceLock::new();

/// Raw timeline spans kept for the Chrome export. Aggregation (the call
/// tree) is unbounded-safe; the raw timeline is capped so a long
/// simulation cannot exhaust memory — overflow is counted and surfaced
/// in the report.
const RAW_SPAN_CAP: usize = 1 << 20;

#[derive(Default)]
struct LabelTable {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

fn labels() -> &'static Mutex<LabelTable> {
    LABELS.get_or_init(|| Mutex::new(LabelTable::default()))
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

/// Turns span recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns span recording off (recorded data stays until [`drain`]).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True while span recording is on.
#[inline]
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// One frame on the span stack.
struct Frame {
    /// Call-tree node this frame aggregates into.
    node: u32,
    start: Instant,
    /// Nanoseconds spent in already-closed children (to compute self
    /// time on exit).
    child_ns: u64,
}

/// One call-tree node.
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

/// Everything recorded since the last [`drain`]: the span stack, the
/// call tree and the capped raw timeline.
struct State {
    /// Zero of the raw timeline's timestamps.
    epoch: Instant,
    stack: Vec<Frame>,
    /// Node 0 is the synthetic root.
    nodes: Vec<NodeAgg>,
    children: HashMap<(u32, u32), u32>,
    raw: Vec<RawSpan>,
    dropped: u64,
}

impl State {
    fn new() -> State {
        State {
            epoch: Instant::now(),
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
            return; // the frame was already closed by `drain`
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
            let start_ns = u64::try_from(frame.start.duration_since(self.epoch).as_nanos())
                .unwrap_or(u64::MAX);
            self.raw.push(RawSpan {
                label,
                start_ns,
                dur_ns: total_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// The call tree in depth-first order, siblings by descending total
    /// time (then by label, so equal times order deterministically).
    fn into_report(self) -> PerfReport {
        let table = labels().lock().expect("label table poisoned");
        let name = |node: &NodeAgg| table.names[node.label as usize].as_str();
        let order = |a: &usize, b: &usize| {
            let (a, b) = (&self.nodes[*a], &self.nodes[*b]);
            b.total_ns
                .cmp(&a.total_ns)
                .then_with(|| name(a).cmp(name(b)))
        };
        let mut kids: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate().skip(1) {
            kids[node.parent as usize].push(id);
        }
        let mut nodes: Vec<PerfNode> = Vec::with_capacity(self.nodes.len() - 1);
        // (tree node, its parent's index in `nodes`); node 0 is the root.
        let mut pending: Vec<(usize, Option<usize>)> = vec![(0, None)];
        while let Some((id, parent)) = pending.pop() {
            let here = if id == 0 {
                None
            } else {
                let node = &self.nodes[id];
                nodes.push(PerfNode {
                    label: name(node).to_owned(),
                    parent,
                    self_ns: node.self_ns,
                    total_ns: node.total_ns,
                    count: node.count,
                });
                Some(nodes.len() - 1)
            };
            let mut children = std::mem::take(&mut kids[id]);
            children.sort_by(order);
            pending.extend(children.into_iter().rev().map(|child| (child, here)));
        }
        PerfReport {
            nodes,
            dropped_spans: self.dropped,
            raw: self.raw,
        }
    }
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::new());
}

/// Scope guard of one profiled span; created by [`enter`], pops its
/// frame when dropped.
#[must_use = "a PerfSpan measures until it is dropped"]
pub struct PerfSpan {
    active: bool,
}

impl PerfSpan {
    /// A guard that does nothing on drop.
    const fn inactive() -> PerfSpan {
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
            let _ = STATE.try_with(|state| state.borrow_mut().end());
        }
    }
}

/// Opens a span labelled `label` (no-op while profiling is off).
#[inline]
pub fn enter(label: Label) -> PerfSpan {
    if !enabled() {
        return PerfSpan::inactive();
    }
    STATE.with(|state| state.borrow_mut().begin(label));
    PerfSpan { active: true }
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

/// The recording profiler: routes into the profiler state (still
/// gated on the global flag that [`enable`] and [`disable`] set).
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

/// One node of the reported call tree.
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

/// The self-profiling result of one [`drain`].
pub struct PerfReport {
    /// The call tree in depth-first order (parents precede children).
    pub nodes: Vec<PerfNode>,
    /// Raw timeline spans dropped because the timeline hit its cap.
    pub dropped_spans: u64,
    raw: Vec<RawSpan>,
}

/// Closes every frame still open, then returns what the calling thread
/// recorded since the last drain as a [`PerfReport`], leaving the
/// profiler empty. The enabled flag is untouched.
pub fn drain() -> PerfReport {
    STATE
        .with(|state| {
            let mut state = state.borrow_mut();
            while !state.stack.is_empty() {
                state.end();
            }
            std::mem::replace(&mut *state, State::new())
        })
        .into_report()
}

/// Discards everything recorded since the last [`drain`].
pub fn reset() {
    let _ = drain();
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

    /// Chrome trace-event rendering of the raw timeline through the
    /// [`crate::chrome`] exporter: one `profiler` track whose timestamps
    /// are host nanoseconds since the profiler was last drained.
    pub fn to_chrome(&self) -> String {
        let mut recorder = Recorder::new();
        let track = recorder.track("profiler");
        let table = labels().lock().expect("label table poisoned");
        for span in &self.raw {
            let name = &table.names[span.label as usize];
            recorder.span(track, name, span.start_ns, span.dur_ns);
        }
        crate::chrome::to_chrome_json(&recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The enabled flag is process-global; tests that touch it serialise
    /// on this lock so `cargo test`'s thread pool cannot interleave them.
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

    /// A frame still open at `drain` is closed there, once: the report
    /// holds it with one call and its span, and its guard closing later
    /// records nothing, so the next report is empty and exports no
    /// span (no unnamed root span, no zero-call node).
    #[test]
    fn frame_open_at_drain_is_closed_there_once() {
        let _g = guard();
        reset();
        enable();
        let open = enter_named("still.open");
        let first = drain();
        drop(open);
        let second = drain();
        disable();
        let spans = |report: &PerfReport| -> Vec<String> {
            let doc = crate::json::parse(&report.to_chrome()).expect("valid chrome JSON");
            let events = doc.get("traceEvents").unwrap().as_array().unwrap();
            events
                .iter()
                .filter(|e| e.get("ph").and_then(crate::json::Json::as_str) == Some("X"))
                .map(|e| e.get("name").unwrap().as_str().unwrap().to_owned())
                .collect()
        };
        assert_eq!(first.nodes.len(), 1);
        assert_eq!(first.nodes[0].label, "still.open");
        assert_eq!(first.nodes[0].count, 1);
        assert_eq!(spans(&first), vec!["still.open".to_owned()]);
        assert!(second.is_empty());
        assert!(spans(&second).is_empty(), "closed frame exported again");
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
