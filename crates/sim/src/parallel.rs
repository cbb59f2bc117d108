//! Conservative parallel discrete-event kernel.
//!
//! The simulation is partitioned into **logical processes** (LPs) along
//! the platform mapping: every set of HIBI segments that can exchange
//! traffic forms one LP, and the environment plus all unattached
//! elements form LP 0. Cross-LP signals never ride the bus (routable
//! pairs are merged into one LP), so the minimum cross-LP delivery
//! latency — the engine's fixed local/environment latencies — is a
//! sound **lookahead** bound.
//!
//! LPs are grouped into contiguous **shards**, one per worker thread.
//! Inside a shard the worker runs its LPs like a miniature serial
//! engine: it always executes the earliest `(time, key)` event across
//! all of its LP queues, and a cross-LP creation whose home LP lives in
//! the same shard is forwarded directly into the sibling queue — no
//! barrier needed. Only creations that cross a *shard* boundary become
//! exports. A key is either a globally-finalised sequence number
//! (`Final`) or a shard-monotone creation ordinal (`Fresh`); every
//! fresh event was created after every finalised one it can tie with,
//! so `Final < Fresh` is exactly the serial tie-break, and fresh
//! ordinals are assigned in shard execution order, which matches the
//! order the replay below assigns real sequence numbers.
//!
//! Each round the coordinator grants every shard an **adaptive safe
//! window**: shard `s` may run up to `min` over the other shards of
//! their earliest pending event time, plus the lookahead. When the stub
//! heap is sparse this coalesces what a fixed `lookahead_ns` march
//! would split into thousands of windows into a handful. Conservatism
//! is preserved because any event another shard can ever send here is
//! at least lookahead later than that shard's earliest pending work,
//! and a shard that *exports* clamps its own window to `export time +
//! lookahead`, the earliest instant the rest of the system could react
//! back. The limit case is a single worker: its one shard owns every
//! LP, the grant covers the whole horizon in one window, and the
//! shard's miniature serial engine *is* the serial engine — so the
//! kernel runs it directly, with no LP split, replay or merge, and the
//! only residual cost is the window tally.
//!
//! After each round the coordinator **replays the skeleton** of what
//! the serial engine would have done: it pops its stub heap in global
//! `(time, seq)` order, matches each stub against the owning LP's event
//! record, assigns real sequence numbers to that event's creations in
//! creation order, and appends the event's log extent to the merge
//! plan. Shards may legitimately run *ahead* of the replay (their
//! records simply wait in per-LP carryover buffers until the global
//! order catches up), and the replay stops at the first stub whose
//! shard has not yet covered it. This reproduces the serial engine's
//! sequence numbering — and therefore its log — exactly, which is what
//! makes the merged [`crate::SimLog`] bit-identical to a serial run at
//! any thread count.
//!
//! Workers exchange one message per shard per window — a `Vec`-backed
//! batch of event records, creations and cross-shard exports whose
//! buffers are recycled through a free-list — and the coordinator skips
//! dispatching shards that can make no progress this round.
//!
//! Whenever the conservative contract cannot be kept cheaply (armed
//! watchdog, step budget exhausted mid-replay, a runtime error inside
//! an LP, or a replay mismatch), the kernel discards the parallel
//! attempt and reruns the pristine simulation serially, so callers
//! always observe exact serial semantics.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::mpsc;
use std::sync::Arc;

use tut_faults::{FaultModel, NoFaults};
use tut_trace::{perf, NoopSink};

use crate::engine::{EventKind, Simulation};
use crate::error::SimError;
use crate::intern::Sym;
use crate::report::{FaultTally, PeStats, SimReport};

/// Event ordering key inside one LP queue.
///
/// Variant order is load-bearing: `Final` (a globally-assigned sequence
/// number from the replay or the initial build) always compares before
/// `Fresh` (a shard-monotone creation ordinal), because every fresh
/// event was created after every finalised one, and two fresh events
/// compare by creation order — exactly the relative order of the
/// sequence numbers the replay will eventually assign them.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum LpKey {
    Final(u64),
    Fresh(u64),
}

/// One pending event inside an LP's queue.
#[derive(Clone, Debug)]
struct LpEvent {
    time_ns: u64,
    key: LpKey,
    kind: EventKind,
}

impl PartialEq for LpEvent {
    fn eq(&self, other: &LpEvent) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for LpEvent {}

impl PartialOrd for LpEvent {
    fn partial_cmp(&self, other: &LpEvent) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LpEvent {
    fn cmp(&self, other: &LpEvent) -> std::cmp::Ordering {
        (self.time_ns, self.key).cmp(&(other.time_ns, other.key))
    }
}

/// Per-processed-event bookkeeping an LP hands to the coordinator.
#[derive(Clone, Copy, Debug)]
struct EventRecord {
    time_ns: u64,
    /// Events this one scheduled (children), in creation order.
    children: u32,
    /// Log records this event appended.
    log_records: u32,
    /// Run-to-completion steps this event executed.
    steps: u32,
}

/// A cross-shard creation whose payload must be shipped to its home LP.
#[derive(Clone, Debug)]
struct Export {
    /// Run-cumulative creation index of the creating LP; the event time
    /// lives in that LP's `children` entry at this index.
    created: u64,
    kind: EventKind,
}

/// Everything one LP produced in one window, drained at the barrier.
/// The inner buffers travel coordinator → worker → coordinator and are
/// recycled through a free-list, so steady-state windows allocate
/// nothing.
#[derive(Default, Debug)]
struct WindowOut {
    records: Vec<EventRecord>,
    /// `(home LP, event time)` of every creation, in creation order.
    children: Vec<(u32, u64)>,
    exports: Vec<Export>,
}

/// The LP context attached to a [`Simulation`] clone while it acts as
/// one logical process of a parallel run. [`Simulation::schedule`]
/// diverts into [`LpCtx::schedule`]; the shard executor drains the
/// queue through [`LpCtx::peek_key`] / [`Simulation::lp_step`].
#[derive(Clone, Debug)]
pub(crate) struct LpCtx {
    my_lp: u32,
    my_shard: u32,
    lp_of_proc: Arc<Vec<u32>>,
    lp_of_pe: Arc<Vec<u32>>,
    shard_of_lp: Arc<Vec<u32>>,
    heap: BinaryHeap<Reverse<LpEvent>>,
    /// Next fresh creation ordinal; shard-monotone, synced by the shard
    /// executor around every event so ordinals order creations across
    /// the whole shard.
    next_fresh: u64,
    /// `(home LP, time)` of every event scheduled this window.
    children: Vec<(u32, u64)>,
    /// Creations drained in previous windows; `children_base + i` is
    /// the run-cumulative index of window-local creation `i`.
    children_base: u64,
    /// Cross-LP creations staying inside this shard, delivered into the
    /// sibling queue by the executor after the event completes:
    /// `(home LP, time, fresh ordinal, payload)`.
    outbox: Vec<(u32, u64, u64, EventKind)>,
    exports: Vec<Export>,
    records: Vec<EventRecord>,
}

impl LpCtx {
    fn new(
        my_lp: u32,
        my_shard: u32,
        lp_of_proc: Arc<Vec<u32>>,
        lp_of_pe: Arc<Vec<u32>>,
        shard_of_lp: Arc<Vec<u32>>,
    ) -> LpCtx {
        LpCtx {
            my_lp,
            my_shard,
            lp_of_proc,
            lp_of_pe,
            shard_of_lp,
            heap: BinaryHeap::new(),
            next_fresh: 0,
            children: Vec::new(),
            children_base: 0,
            outbox: Vec::new(),
            exports: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Seeds an already-finalised event (initial queue or import).
    fn push_final(&mut self, time_ns: u64, seq: u64, kind: EventKind) {
        self.heap.push(Reverse(LpEvent {
            time_ns,
            key: LpKey::Final(seq),
            kind,
        }));
    }

    /// Delivers a same-shard forward from a sibling LP.
    fn push_fresh(&mut self, time_ns: u64, ord: u64, kind: EventKind) {
        self.heap.push(Reverse(LpEvent {
            time_ns,
            key: LpKey::Fresh(ord),
            kind,
        }));
    }

    /// Records a creation: same-LP events join the queue under a
    /// tentative `Fresh` key, same-shard cross-LP events go to the
    /// outbox for local forwarding, cross-shard events become exports.
    pub(crate) fn schedule(&mut self, time_ns: u64, kind: EventKind) {
        let home = kind.home_lp(&self.lp_of_proc, &self.lp_of_pe);
        let created = self.children_base + self.children.len() as u64;
        self.children.push((home, time_ns));
        let ord = self.next_fresh;
        self.next_fresh += 1;
        if home == self.my_lp {
            self.push_fresh(time_ns, ord, kind);
        } else if self.shard_of_lp[home as usize] == self.my_shard {
            self.outbox.push((home, time_ns, ord, kind));
        } else {
            self.exports.push(Export { created, kind });
        }
    }

    /// `(time, key)` of the next queued event, if any.
    fn peek_key(&self) -> Option<(u64, LpKey)> {
        self.heap.peek().map(|entry| (entry.0.time_ns, entry.0.key))
    }

    /// Pops the next queued event in `(time, key)` order.
    pub(crate) fn pop_next(&mut self) -> Option<(u64, EventKind)> {
        self.heap.pop().map(|entry| (entry.0.time_ns, entry.0.kind))
    }

    /// Number of creations recorded so far this window (the mark taken
    /// before an event is handled).
    pub(crate) fn creations(&self) -> usize {
        self.children.len()
    }

    /// Closes the bookkeeping of one processed event.
    pub(crate) fn record_processed(
        &mut self,
        time_ns: u64,
        children_mark: usize,
        log_records: u32,
        steps: u32,
    ) {
        self.records.push(EventRecord {
            time_ns,
            children: (self.children.len() - children_mark) as u32,
            log_records,
            steps,
        });
    }

    /// Drains the window's bookkeeping into a recycled shell and
    /// advances the cumulative creation base.
    fn take_window(&mut self, mut shell: WindowOut) -> WindowOut {
        self.children_base += self.children.len() as u64;
        std::mem::swap(&mut self.records, &mut shell.records);
        std::mem::swap(&mut self.children, &mut shell.children);
        std::mem::swap(&mut self.exports, &mut shell.exports);
        shell
    }

    /// Rewrites `Fresh` keys the coordinator has since finalised to
    /// their assigned global sequence numbers.
    fn patch_fresh(&mut self, finalize: impl Fn(u64) -> Option<u64>) {
        let patched: Vec<Reverse<LpEvent>> = self
            .heap
            .drain()
            .map(|Reverse(mut event)| {
                if let LpKey::Fresh(ord) = event.key {
                    if let Some(seq) = finalize(ord) {
                        event.key = LpKey::Final(seq);
                    }
                }
                Reverse(event)
            })
            .collect();
        self.heap = BinaryHeap::from(patched);
    }
}

/// Union-find with path halving; used to merge HIBI segments into LPs.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            self.parent[hi] = lo;
        }
    }
}

/// The LP decomposition of one built simulation.
pub(crate) struct Partition {
    pub(crate) lp_of_proc: Arc<Vec<u32>>,
    pub(crate) lp_of_pe: Arc<Vec<u32>>,
    pub(crate) n_lps: usize,
    /// LPs that own at least one process (the effective parallelism).
    pub(crate) occupied_lps: usize,
    /// Minimum cross-LP delivery latency; `u64::MAX` when no two LPs
    /// communicate at all.
    pub(crate) lookahead_ns: u64,
}

/// Partitions a simulation into LPs along the platform mapping.
///
/// * Attached elements whose segments can route to each other share an
///   LP (they contend for the same bus state).
/// * Attached elements that *communicate* without a route are also
///   merged: the engine delivers such transfers with zero latency,
///   which would break any positive lookahead.
/// * The environment and all unattached elements form LP 0; their
///   deliveries pay the fixed environment/local latency, which bounds
///   the lookahead.
pub(crate) fn build_partition(sim: &Simulation) -> Partition {
    let segments = sim.network.segment_count();

    // One representative agent per segment, for routability probes.
    let mut rep = vec![None; segments];
    for pe in &sim.pes {
        if let Some(agent) = pe.agent {
            let seg = sim.network.segment_of(agent).index();
            rep[seg].get_or_insert(agent);
        }
    }

    // Merge segments that can exchange bus traffic.
    let mut uf = UnionFind::new(segments.max(1));
    for a in 0..segments {
        for b in (a + 1)..segments {
            if let (Some(ra), Some(rb)) = (rep[a], rep[b]) {
                if sim.network.route(ra, rb).is_ok() {
                    uf.union(a, b);
                }
            }
        }
    }

    // Communicating processing-element pairs, from the signal routing
    // table (the application's static communication graph).
    let mut pe_pairs: Vec<(usize, usize)> = Vec::new();
    for (&(instance, _port, _signal), receivers) in sim.routing.iter() {
        let Some(sender) = sim.proc_of_instance[instance] else {
            continue;
        };
        for endpoint in receivers {
            let Some(receiver) = sim.proc_of_instance[endpoint.instance] else {
                continue;
            };
            let (pa, pb) = (sim.processes[sender].pe, sim.processes[receiver].pe);
            if pa != pb {
                pe_pairs.push((pa, pb));
            }
        }
    }

    // Merge segment components forced together by unroutable traffic.
    for &(a, b) in &pe_pairs {
        if let (Some(aa), Some(ab)) = (sim.pes[a].agent, sim.pes[b].agent) {
            uf.union(
                sim.network.segment_of(aa).index(),
                sim.network.segment_of(ab).index(),
            );
        }
    }

    // Number the LPs: 0 is the environment/unattached LP, 1.. one per
    // surviving segment component.
    let mut component_lp: HashMap<usize, u32> = HashMap::new();
    let mut lp_of_pe = vec![0u32; sim.pes.len()];
    let mut n_lps = 1usize;
    for (index, pe) in sim.pes.iter().enumerate() {
        if pe.is_env {
            continue;
        }
        if let Some(agent) = pe.agent {
            let root = uf.find(sim.network.segment_of(agent).index());
            let lp = *component_lp.entry(root).or_insert_with(|| {
                let id = n_lps as u32;
                n_lps += 1;
                id
            });
            lp_of_pe[index] = lp;
        }
    }
    let lp_of_proc: Vec<u32> = sim
        .processes
        .iter()
        .map(|process| lp_of_pe[process.pe])
        .collect();

    // Lookahead: the minimum latency of any cross-LP delivery. After
    // the merges above a cross-LP pair never rides the bus, so it pays
    // either the environment latency (an env endpoint) or the fixed
    // local fallback latency.
    let mut lookahead_ns = u64::MAX;
    for &(a, b) in &pe_pairs {
        if lp_of_pe[a] == lp_of_pe[b] {
            continue;
        }
        let latency = if sim.pes[a].is_env || sim.pes[b].is_env {
            sim.config.env_latency_ns
        } else {
            sim.config.local_latency_ns
        };
        lookahead_ns = lookahead_ns.min(latency);
    }

    let mut occupied = vec![false; n_lps];
    for process in &sim.processes {
        occupied[lp_of_pe[process.pe] as usize] = true;
    }
    let occupied_lps = occupied.iter().filter(|o| **o).count();

    Partition {
        lp_of_proc: Arc::new(lp_of_proc),
        lp_of_pe: Arc::new(lp_of_pe),
        n_lps,
        occupied_lps,
        lookahead_ns,
    }
}

/// Resolves a thread-count request: `0` means one thread per available
/// logical CPU.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// What the coordinator sends a worker each round.
enum WorkerCmd {
    Window {
        /// Exclusive horizon the shard may run to.
        grant_ns: u64,
        /// One inbox per LP of the worker's shard, in shard order.
        inbox: Vec<LpInbox>,
        /// Drained batch shells going back onto the worker's free-list.
        recycle: Vec<WindowOut>,
    },
    Done,
}

/// The barrier patch one LP receives before its next window.
#[derive(Default)]
struct LpInbox {
    /// Newly assigned sequence numbers: `(run-cumulative creation
    /// index, sequence)` of this LP's creations the replay finalised.
    finalized: Vec<(u64, u64)>,
    /// Imported cross-shard events: `(time, seq, kind)`.
    imports: Vec<(u64, u64, EventKind)>,
}

/// One worker's answer to a window command.
struct WindowReply {
    /// Exclusive horizon the shard actually covered (its grant, maybe
    /// clamped by its own cross-shard exports). Everything strictly
    /// below is processed and recorded.
    achieved_ns: u64,
    /// Earliest event still pending in the shard's queues.
    frontier_ns: u64,
    outs: Vec<(usize, WindowOut)>,
}

/// One shard of the parallel run: a slice of LPs executed cooperatively
/// by a single worker, plus the shard-level creation registry.
struct ShardWorker {
    /// `(LP id, its simulation clone)` in shard order.
    slots: Vec<(usize, Simulation)>,
    /// Shard slot of each LP (`None` for LPs of other shards).
    slot_of_lp: Vec<Option<usize>>,
    /// Fresh ordinal → `(creating slot, run-cumulative creation
    /// index)`; the ordinal is the index into this vector.
    births: Vec<(u32, u64)>,
    /// Free-list of drained window batches.
    pool: Vec<WindowOut>,
    outbox_scratch: Vec<(u32, u64, u64, EventKind)>,
    max_time_ns: u64,
    lookahead_ns: u64,
    perf_label: String,
}

impl ShardWorker {
    /// Applies the coordinator's patches and runs one safe window.
    fn window<F: FaultModel>(
        &mut self,
        grant_ns: u64,
        inbox: Vec<LpInbox>,
        recycle: Vec<WindowOut>,
        faults: &mut F,
    ) -> Result<WindowReply, SimError> {
        let _shard_span = perf::enter_named(&self.perf_label);
        self.pool.extend(recycle);
        // Rewrite tentative Fresh keys the replay has since finalised.
        // A heap may hold fresh events created by a sibling LP, so the
        // rewrite runs over every slot whenever anything finalised.
        if inbox.iter().any(|entry| !entry.finalized.is_empty()) {
            let maps: Vec<HashMap<u64, u64>> = inbox
                .iter()
                .map(|entry| entry.finalized.iter().copied().collect())
                .collect();
            let births = &self.births;
            for (_, sim) in &mut self.slots {
                let ctx = sim.lp.as_mut().expect("worker sims carry LP contexts");
                ctx.patch_fresh(|ord| {
                    let (slot, created) = births[ord as usize];
                    maps[slot as usize].get(&created).copied()
                });
            }
        }
        for (slot, entry) in inbox.into_iter().enumerate() {
            let ctx = self.slots[slot].1.lp.as_mut().expect("lp context");
            for (time_ns, seq, kind) in entry.imports {
                ctx.push_final(time_ns, seq, kind);
            }
        }
        self.run_window(grant_ns, faults)
    }

    /// The shard executor: repeatedly runs the earliest `(time, key)`
    /// event across the shard's LP queues, forwarding same-shard
    /// creations locally and clamping the window on cross-shard
    /// exports.
    fn run_window<F: FaultModel>(
        &mut self,
        grant_ns: u64,
        faults: &mut F,
    ) -> Result<WindowReply, SimError> {
        let mut limit = grant_ns;
        loop {
            let mut best: Option<(u64, LpKey, usize)> = None;
            for (slot, (_, sim)) in self.slots.iter().enumerate() {
                if let Some((time_ns, key)) = sim.lp.as_ref().expect("lp context").peek_key() {
                    if best.is_none_or(|(bt, bk, _)| (time_ns, key) < (bt, bk)) {
                        best = Some((time_ns, key, slot));
                    }
                }
            }
            let Some((time_ns, _, slot)) = best else {
                break;
            };
            if time_ns >= limit || time_ns > self.max_time_ns {
                break;
            }
            let (children_mark, children_base, exports_mark);
            {
                let ctx = self.slots[slot].1.lp.as_mut().expect("lp context");
                ctx.next_fresh = self.births.len() as u64;
                children_mark = ctx.children.len();
                children_base = ctx.children_base;
                exports_mark = ctx.exports.len();
            }
            self.slots[slot].1.lp_step(faults)?;
            {
                let ctx = self.slots[slot].1.lp.as_mut().expect("lp context");
                for index in children_mark..ctx.children.len() {
                    self.births
                        .push((slot as u32, children_base + index as u64));
                }
                // A cross-shard export means the rest of the system can
                // react from `child time + lookahead` on; running past
                // that would race the reply.
                for export in &ctx.exports[exports_mark..] {
                    let child = (export.created - children_base) as usize;
                    let child_time = ctx.children[child].1;
                    limit = limit.min(child_time.saturating_add(self.lookahead_ns));
                }
                std::mem::swap(&mut ctx.outbox, &mut self.outbox_scratch);
            }
            // Same-shard forwards land in the sibling queue immediately.
            let mut outbox = std::mem::take(&mut self.outbox_scratch);
            for (home, child_time, ord, kind) in outbox.drain(..) {
                let home_slot = self.slot_of_lp[home as usize].expect("forward stays in shard");
                self.slots[home_slot]
                    .1
                    .lp
                    .as_mut()
                    .expect("lp context")
                    .push_fresh(child_time, ord, kind);
            }
            self.outbox_scratch = outbox;
        }
        let mut frontier_ns = u64::MAX;
        let mut outs = Vec::with_capacity(self.slots.len());
        for (lp, sim) in &mut self.slots {
            let ctx = sim.lp.as_mut().expect("lp context");
            if let Some((time_ns, _)) = ctx.peek_key() {
                frontier_ns = frontier_ns.min(time_ns);
            }
            let shell = self.pool.pop().unwrap_or_default();
            outs.push((*lp, ctx.take_window(shell)));
        }
        Ok(WindowReply {
            achieved_ns: limit,
            frontier_ns,
            outs,
        })
    }
}

/// Channel endpoints of the scoped worker threads, one per shard.
/// (A single-worker run never gets here — it degenerates to the serial
/// engine in [`Simulation::run_parallel_stats_with_faults`].)
struct WorkerPool<'scope> {
    cmd_txs: Vec<mpsc::Sender<WorkerCmd>>,
    out_rxs: Vec<mpsc::Receiver<Result<WindowReply, SimError>>>,
    handles: Vec<std::thread::ScopedJoinHandle<'scope, ShardWorker>>,
}

impl WorkerPool<'_> {
    /// Sends one window command; returns `false` on a dead worker.
    fn dispatch(
        &mut self,
        worker: usize,
        grant_ns: u64,
        inbox: Vec<LpInbox>,
        recycle: Vec<WindowOut>,
    ) -> bool {
        self.cmd_txs[worker]
            .send(WorkerCmd::Window {
                grant_ns,
                inbox,
                recycle,
            })
            .is_ok()
    }

    /// Collects the reply of a previously dispatched window.
    fn collect(&mut self, worker: usize) -> Option<Result<WindowReply, SimError>> {
        self.out_rxs[worker].recv().ok()
    }

    /// Shuts the pool down and returns every LP's final simulation.
    fn finish(self, n_lps: usize) -> (Vec<Option<Simulation>>, bool) {
        let mut finals: Vec<Option<Simulation>> = (0..n_lps).map(|_| None).collect();
        let mut failed = false;
        for cmd_tx in &self.cmd_txs {
            let _ = cmd_tx.send(WorkerCmd::Done);
        }
        for handle in self.handles {
            match handle.join() {
                Ok(shard) => {
                    for (lp, sim) in shard.slots {
                        finals[lp] = Some(sim);
                    }
                }
                Err(_) => failed = true,
            }
        }
        (finals, failed)
    }
}

/// Per-LP carryover state on the coordinator: everything the LP has
/// reported, with cursors marking how far the global replay has
/// consumed it. Buffers outlive windows because a shard may run ahead
/// of the replay.
#[derive(Default)]
struct LpBuf {
    records: Vec<EventRecord>,
    rec_cursor: usize,
    children: Vec<(u32, u64)>,
    child_cursor: usize,
    exports: Vec<Export>,
    export_cursor: usize,
}

impl LpBuf {
    fn fully_replayed(&self) -> bool {
        self.rec_cursor == self.records.len()
            && self.child_cursor == self.children.len()
            && self.export_cursor == self.exports.len()
    }
}

/// Static facts about the LP decomposition of a built simulation —
/// what [`Simulation::run_parallel`] would work with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ParallelPlan {
    /// Total logical processes (including the environment LP 0, even
    /// when empty).
    pub lps: usize,
    /// LPs that own at least one process — the effective parallelism.
    pub occupied_lps: usize,
    /// Safe-window width: the minimum cross-LP delivery latency, in
    /// nanoseconds (`u64::MAX` when no two LPs communicate).
    pub lookahead_ns: u64,
}

impl ParallelPlan {
    /// Whether [`Simulation::run_parallel`] would actually use the
    /// parallel kernel rather than falling back to the serial engine.
    pub fn parallelizable(&self) -> bool {
        self.occupied_lps > 1 && self.lookahead_ns > 0
    }
}

/// What one [`Simulation::run_parallel_stats`] run actually did — the
/// observability side of the kernel, reported alongside the result so
/// benches and tests can pin window coalescing and batching behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ParallelStats {
    /// Whether the parallel kernel produced the result (`false` means a
    /// serial run did, see [`ParallelStats::fallback`]).
    pub used_parallel: bool,
    /// Why the kernel fell back to the serial engine, when it did.
    pub fallback: Option<&'static str>,
    /// Worker threads the run actually used.
    pub workers: usize,
    /// Coordinator rounds (adaptive safe windows) taken.
    pub windows: u64,
    /// Window batches exchanged with workers (dispatches actually sent;
    /// idle shards are skipped).
    pub batches: u64,
    /// Safe windows a fixed `lookahead_ns` march over the same event
    /// stream would have taken — the coalescing baseline.
    pub windows_fixed_step: u64,
    /// Events the coordinator replayed (the global event count).
    pub replayed_events: u64,
}

impl ParallelStats {
    fn serial(reason: &'static str) -> ParallelStats {
        ParallelStats {
            fallback: Some(reason),
            ..ParallelStats::default()
        }
    }

    /// `windows_fixed_step / windows`: how many fixed-lookahead windows
    /// one adaptive window replaced on average.
    pub fn coalescing_factor(&self) -> f64 {
        if self.windows == 0 {
            1.0
        } else {
            self.windows_fixed_step as f64 / self.windows as f64
        }
    }
}

impl Simulation {
    /// The LP decomposition this simulation's platform mapping yields.
    pub fn parallel_plan(&self) -> ParallelPlan {
        let partition = build_partition(self);
        ParallelPlan {
            lps: partition.n_lps,
            occupied_lps: partition.occupied_lps,
            lookahead_ns: partition.lookahead_ns,
        }
    }

    /// Runs the simulation on the conservative parallel kernel and
    /// returns a report whose [`SimLog`](crate::SimLog) is
    /// **bit-identical** to [`Simulation::run`] at any thread count.
    ///
    /// `threads = 0` uses one thread per available logical CPU. The
    /// kernel falls back to the serial engine whenever parallelism
    /// cannot help or exactness cannot be kept cheaply: a single
    /// occupied LP, zero lookahead, an armed watchdog (its event budget
    /// is a global pop count), a step budget exhausted mid-window, or a
    /// runtime error inside a logical process.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::run`]; errors are always reported
    /// with exact serial semantics (the failing parallel attempt is
    /// discarded and the run repeated serially).
    pub fn run_parallel(self, threads: usize) -> Result<SimReport, SimError> {
        self.run_parallel_with_faults(threads, &NoFaults)
    }

    /// [`Simulation::run_parallel`] with deterministic fault injection.
    ///
    /// The fault model is cloned into every worker; the [`FaultModel`]
    /// contract (every decision a pure function of its `(now, salt)`
    /// key) makes the injected fault stream identical to a serial
    /// [`Simulation::run_with_faults`] run with the same model.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::run_with_faults`].
    pub fn run_parallel_with_faults<F>(
        self,
        threads: usize,
        faults: &F,
    ) -> Result<SimReport, SimError>
    where
        F: FaultModel + Clone + Send,
    {
        self.run_parallel_stats_with_faults(threads, faults)
            .map(|(report, _)| report)
    }

    /// [`Simulation::run_parallel`] plus kernel observability: how many
    /// adaptive windows the run took, the fixed-step baseline they
    /// coalesced, and whether (and why) the kernel fell back to the
    /// serial engine.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::run_parallel`].
    pub fn run_parallel_stats(
        self,
        threads: usize,
    ) -> Result<(SimReport, ParallelStats), SimError> {
        self.run_parallel_stats_with_faults(threads, &NoFaults)
    }

    /// [`Simulation::run_parallel_stats`] with deterministic fault
    /// injection.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::run_parallel_with_faults`].
    pub fn run_parallel_stats_with_faults<F>(
        self,
        threads: usize,
        faults: &F,
    ) -> Result<(SimReport, ParallelStats), SimError>
    where
        F: FaultModel + Clone + Send,
    {
        let threads = resolve_threads(threads);
        // The watchdog's event budget counts global pops in serial
        // order; honouring it exactly needs the serial engine.
        if self.config.watchdog.is_armed() {
            let stats = ParallelStats::serial("watchdog");
            return self.run_serially(faults).map(|report| (report, stats));
        }
        let partition = build_partition(&self);
        if partition.occupied_lps <= 1 {
            let stats = ParallelStats::serial("single-lp");
            return self.run_serially(faults).map(|report| (report, stats));
        }
        if partition.lookahead_ns == 0 {
            let stats = ParallelStats::serial("zero-lookahead");
            return self.run_serially(faults).map(|report| (report, stats));
        }
        let mut stats = ParallelStats::default();
        if threads.min(partition.n_lps).max(1) == 1 {
            // One shard would own every LP: the adaptive grant covers
            // the whole horizon in a single window, and the shard's
            // "miniature serial engine" over all of its LPs is the
            // serial engine itself. Run it directly — no LP split, no
            // replay, no merge — keeping only the window tallies the
            // coalescing stats need.
            let _kernel_span = perf::enter_named("sim.run_parallel");
            stats.used_parallel = true;
            stats.workers = 1;
            stats.windows = 1;
            stats.batches = 1;
            let (report, events, fixed_windows) =
                self.run_counting_windows(&mut faults.clone(), partition.lookahead_ns)?;
            stats.replayed_events = events;
            stats.windows_fixed_step = fixed_windows;
            return Ok((report, stats));
        }
        match run_conservative(&self, &partition, threads, faults, &mut stats) {
            Some(report) => Ok((report, stats)),
            // Exactness could not be kept (step budget crossed
            // mid-window, runtime error, or replay mismatch): rerun the
            // pristine simulation serially for exact semantics.
            None => {
                let stats = ParallelStats::serial("replay-abort");
                self.run_serially(faults).map(|report| (report, stats))
            }
        }
    }

    fn run_serially<F: FaultModel + Clone>(self, faults: &F) -> Result<SimReport, SimError> {
        self.run_with_faults(&mut faults.clone(), &mut NoopSink)
    }
}

/// One conservative parallel run. Returns `None` when the attempt must
/// be discarded in favour of a serial rerun.
fn run_conservative<F>(
    base: &Simulation,
    partition: &Partition,
    threads: usize,
    faults: &F,
    stats: &mut ParallelStats,
) -> Option<SimReport>
where
    F: FaultModel + Clone + Send,
{
    let _kernel_span = perf::enter_named("sim.run_parallel");
    let n_lps = partition.n_lps;
    let max_time_ns = base.config.max_time_ns;
    let max_steps = base.config.max_steps;
    let lookahead_ns = partition.lookahead_ns;
    // The caller routes single-worker runs to the degenerate serial
    // path, so at least two shards exist here.
    let workers = threads.min(n_lps).max(1);
    debug_assert!(workers >= 2, "single-worker runs bypass the coordinator");
    stats.workers = workers;

    // Contiguous LP → shard assignment, one shard per worker.
    let shard_of_lp: Arc<Vec<u32>> =
        Arc::new((0..n_lps).map(|lp| (lp * workers / n_lps) as u32).collect());
    let shard_lps: Vec<Vec<usize>> = (0..workers)
        .map(|shard| {
            (0..n_lps)
                .filter(|&lp| shard_of_lp[lp] as usize == shard)
                .collect()
        })
        .collect();

    // Coordinator stub heap `(time, seq, lp)`, seeded from the initial
    // event set — the skeleton of the global serial order — plus a
    // per-shard mirror of `(time, seq)` for the window grants.
    let mut stub_heap: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
    let mut shard_stubs: Vec<BinaryHeap<Reverse<(u64, u64)>>> =
        (0..workers).map(|_| BinaryHeap::new()).collect();
    {
        let mut queue = base.events.clone();
        while let Some((time_ns, seq, kind)) = queue.pop() {
            let home = kind.home_lp(&partition.lp_of_proc, &partition.lp_of_pe);
            stub_heap.push(Reverse((time_ns, seq, home)));
            shard_stubs[shard_of_lp[home as usize] as usize].push(Reverse((time_ns, seq)));
        }
    }

    // One simulation clone per LP, each seeing only its own events,
    // grouped into per-worker shards.
    let mut shards: Vec<ShardWorker> = (0..workers)
        .map(|shard| {
            let mut slot_of_lp = vec![None; n_lps];
            for (slot, &lp) in shard_lps[shard].iter().enumerate() {
                slot_of_lp[lp] = Some(slot);
            }
            ShardWorker {
                slots: Vec::with_capacity(shard_lps[shard].len()),
                slot_of_lp,
                births: Vec::new(),
                pool: Vec::new(),
                outbox_scratch: Vec::new(),
                max_time_ns,
                lookahead_ns,
                perf_label: format!("shard/{shard}"),
            }
        })
        .collect();
    for lp in 0..n_lps {
        let mut sim = base.clone();
        let mut ctx = LpCtx::new(
            lp as u32,
            shard_of_lp[lp],
            Arc::clone(&partition.lp_of_proc),
            Arc::clone(&partition.lp_of_pe),
            Arc::clone(&shard_of_lp),
        );
        while let Some((time_ns, seq, kind)) = sim.events.pop() {
            if kind.home_lp(&partition.lp_of_proc, &partition.lp_of_pe) == lp as u32 {
                ctx.push_final(time_ns, seq, kind);
            }
        }
        sim.lp = Some(Box::new(ctx));
        shards[shard_of_lp[lp] as usize].slots.push((lp, sim));
    }

    let mut next_seq = base.next_seq;
    let mut total_steps: u64 = 0;
    let mut end_time_ns: u64 = 0;
    // `(lp, log record count)` per replayed same-LP stretch, in
    // global order.
    let mut merge_plan: Vec<(u32, u64)> = Vec::new();
    let mut pending: Vec<LpInbox> = (0..n_lps).map(|_| LpInbox::default()).collect();
    let mut bufs: Vec<LpBuf> = (0..n_lps).map(|_| LpBuf::default()).collect();
    // Exclusive horizon each shard has fully covered so far.
    let mut achieved: Vec<u64> = vec![0; workers];
    // Earliest event still queued inside each shard (from its last
    // reply; before the first window every event is still a stub).
    let mut frontier: Vec<u64> = shard_stubs
        .iter()
        .map(|heap| heap.peek().map_or(u64::MAX, |entry| entry.0 .0))
        .collect();
    let mut recycle: Vec<Vec<WindowOut>> = (0..workers).map(|_| Vec::new()).collect();
    let mut failed = false;
    // Fixed-step window accounting over the replayed stream — what the
    // pre-coalescing kernel (one `lookahead_ns` window per march) would
    // have paid for the same run.
    let mut fixed_end: u64 = 0;

    let finals: Vec<Option<Simulation>> = std::thread::scope(|scope| {
        let mut pool = {
            let mut cmd_txs = Vec::with_capacity(workers);
            let mut out_rxs = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for mut shard in shards {
                let (cmd_tx, cmd_rx) = mpsc::channel::<WorkerCmd>();
                let (out_tx, out_rx) = mpsc::channel::<Result<WindowReply, SimError>>();
                let mut worker_faults = faults.clone();
                handles.push(scope.spawn(move || {
                    while let Ok(cmd) = cmd_rx.recv() {
                        let WorkerCmd::Window {
                            grant_ns,
                            inbox,
                            recycle,
                        } = cmd
                        else {
                            break;
                        };
                        let reply = shard.window(grant_ns, inbox, recycle, &mut worker_faults);
                        if out_tx.send(reply).is_err() {
                            break;
                        }
                    }
                    shard
                }));
                cmd_txs.push(cmd_tx);
                out_rxs.push(out_rx);
            }
            WorkerPool {
                cmd_txs,
                out_rxs,
                handles,
            }
        };

        // Coordinator rounds: grant every shard an adaptive safe
        // window, collect the batches, then replay the global order as
        // far as the shards have covered it.
        let mut dispatched = vec![false; workers];
        'rounds: while let Some(&Reverse((top_time, _, _))) = stub_heap.peek() {
            if top_time > max_time_ns {
                break;
            }
            stats.windows += 1;

            // Per-shard grants: everything another shard can ever send
            // here is at least `lookahead` later than that shard's
            // earliest pending work.
            for shard in 0..workers {
                let mut others_min = u64::MAX;
                for (other, heap) in shard_stubs.iter().enumerate() {
                    if other != shard {
                        if let Some(&Reverse((time_ns, _))) = heap.peek() {
                            others_min = others_min.min(time_ns);
                        }
                    }
                }
                let grant = others_min
                    .saturating_add(lookahead_ns)
                    .min(max_time_ns.saturating_add(1));
                let has_imports = shard_lps[shard]
                    .iter()
                    .any(|&lp| !pending[lp].imports.is_empty());
                // Skip shards that can make no progress this round:
                // nothing new is allowed (`grant` not past what they
                // already covered) or nothing of theirs is pending
                // below the grant and no imports are waiting. Deferred
                // key finalisations stay queued in `pending`.
                if !has_imports && (grant <= achieved[shard] || frontier[shard] >= grant) {
                    achieved[shard] = achieved[shard].max(grant);
                    dispatched[shard] = false;
                    continue;
                }
                let inbox: Vec<LpInbox> = shard_lps[shard]
                    .iter()
                    .map(|&lp| std::mem::take(&mut pending[lp]))
                    .collect();
                let shells = std::mem::take(&mut recycle[shard]);
                if !pool.dispatch(shard, grant, inbox, shells) {
                    failed = true;
                    break 'rounds;
                }
                dispatched[shard] = true;
                stats.batches += 1;
            }
            let mut any_dispatched = false;
            for shard in 0..workers {
                if !dispatched[shard] {
                    continue;
                }
                any_dispatched = true;
                match pool.collect(shard) {
                    Some(Ok(reply)) => {
                        achieved[shard] = achieved[shard].max(reply.achieved_ns);
                        frontier[shard] = reply.frontier_ns;
                        for (lp, mut out) in reply.outs {
                            let buf = &mut bufs[lp];
                            buf.records.extend_from_slice(&out.records);
                            buf.children.extend_from_slice(&out.children);
                            buf.exports.append(&mut out.exports);
                            out.records.clear();
                            out.children.clear();
                            recycle[shard].push(out);
                        }
                    }
                    _ => {
                        failed = true;
                        break 'rounds;
                    }
                }
            }

            // Skeleton replay: reproduce the serial engine's pop order
            // and sequence numbering as far as the shards have covered
            // the global order; the rest stays buffered for later
            // rounds.
            let replayed_before = stats.replayed_events;
            while let Some(&Reverse((time_ns, _seq, lp))) = stub_heap.peek() {
                if time_ns > max_time_ns {
                    break;
                }
                let shard = shard_of_lp[lp as usize] as usize;
                if time_ns >= achieved[shard] {
                    break;
                }
                if total_steps >= max_steps {
                    // The serial engine would stop here, but the LPs
                    // already ran past the cut: discard and rerun.
                    failed = true;
                    break 'rounds;
                }
                stub_heap.pop();
                let mirrored = shard_stubs[shard].pop();
                debug_assert_eq!(
                    mirrored.map(|entry| entry.0 .0),
                    Some(time_ns),
                    "shard stub mirror out of sync"
                );
                stats.replayed_events += 1;
                if time_ns >= fixed_end {
                    stats.windows_fixed_step += 1;
                    fixed_end = time_ns.saturating_add(lookahead_ns);
                }
                let lp = lp as usize;
                let buf = &mut bufs[lp];
                let Some(&record) = buf.records.get(buf.rec_cursor) else {
                    failed = true;
                    break 'rounds;
                };
                if record.time_ns != time_ns {
                    failed = true;
                    break 'rounds;
                }
                buf.rec_cursor += 1;
                total_steps += u64::from(record.steps);
                end_time_ns = time_ns;
                // Consecutive same-LP events have contiguous log
                // extents; coalescing them makes the final merge one
                // `extend_remapped` per LP stretch instead of per
                // event.
                match merge_plan.last_mut() {
                    Some((last_lp, count)) if *last_lp == lp as u32 => {
                        *count += u64::from(record.log_records);
                    }
                    _ => merge_plan.push((lp as u32, u64::from(record.log_records))),
                }
                // Assign global sequence numbers to this event's
                // creations, in creation order — exactly what the
                // serial engine's `schedule` would have drawn.
                for _ in 0..record.children {
                    let created = buf.child_cursor;
                    buf.child_cursor += 1;
                    let (home, child_time_ns) = buf.children[created];
                    let seq = next_seq;
                    next_seq += 1;
                    pending[lp].finalized.push((created as u64, seq));
                    stub_heap.push(Reverse((child_time_ns, seq, home)));
                    shard_stubs[shard_of_lp[home as usize] as usize]
                        .push(Reverse((child_time_ns, seq)));
                    if let Some(export) = buf.exports.get(buf.export_cursor) {
                        if export.created == created as u64 {
                            pending[home as usize].imports.push((
                                child_time_ns,
                                seq,
                                export.kind.clone(),
                            ));
                            buf.export_cursor += 1;
                        }
                    }
                }
            }
            // A round that neither ran a shard nor replayed a stub can
            // never make progress again; bail out to the serial rerun
            // rather than spin.
            if !any_dispatched && stats.replayed_events == replayed_before {
                failed = true;
                break;
            }
        }
        // Conservative invariant: on a clean exit everything every LP
        // did must have been replayed.
        if !failed && !bufs.iter().all(LpBuf::fully_replayed) {
            failed = true;
        }

        let (finals, join_failed) = pool.finish(n_lps);
        failed = failed || join_failed;
        finals
    });
    if failed || finals.iter().any(Option::is_none) {
        return None;
    }
    stats.used_parallel = true;

    // Merge the per-LP logs in global replay order. Each LP clone
    // started with a copy of the base log, so its own records begin
    // after that prefix.
    let mut log = base.log.clone();
    let base_records = base.log.len();
    let mut remaps: Vec<Vec<Option<Sym>>> = (0..n_lps).map(|_| Vec::new()).collect();
    let mut log_cursor = vec![base_records; n_lps];
    for &(lp, count) in &merge_plan {
        let lp = lp as usize;
        let source = &finals[lp].as_ref().expect("checked above").log;
        let start = log_cursor[lp];
        log.extend_remapped(source, start, start + count as usize, &mut remaps[lp]);
        log_cursor[lp] += count as usize;
    }

    // Assemble the report from each entity's owning LP (the only LP
    // whose clone ever mutated it).
    let mut faults_tally = FaultTally::default();
    for sim in finals.iter().flatten() {
        faults_tally.corrupted += sim.fault_tally.corrupted;
        faults_tally.dropped += sim.fault_tally.dropped;
        faults_tally.unroutable += sim.network.unroutable_transfers();
    }
    let mut report = SimReport {
        end_time_ns,
        total_steps,
        log,
        processes: Vec::new(),
        pes: Vec::new(),
        faults: faults_tally,
    };
    for index in 0..base.processes.len() {
        let owner = partition.lp_of_proc[index] as usize;
        let process = &finals[owner].as_ref().expect("checked above").processes[index];
        report.processes.push((process.name.clone(), process.stats));
    }
    for index in 0..base.pes.len() {
        let owner = partition.lp_of_pe[index] as usize;
        let pe = &finals[owner].as_ref().expect("checked above").pes[index];
        report.pes.push((
            pe.descriptor.name.clone(),
            PeStats {
                busy_ns: pe.busy_ns,
                busy_cycles: pe.busy_cycles,
                is_env: pe.is_env,
            },
        ));
    }
    Some(report)
}
