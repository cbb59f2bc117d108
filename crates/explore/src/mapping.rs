//! Mapping optimisation: assign process groups to platform instances.

use tut_profile::application::ProcessType;
use tut_profile::platform::ComponentKind;
use tut_profile::SystemModel;
use tut_profiling::ProfilingReport;
use tut_trace::perf;
use tut_trace::{Clock, NoopSink, Progress, TraceSink};
use tut_uml::ids::{ClassId, PropertyId};

use crate::checkpoint::{ExploreCheckpoint, NoCheckpoint};
use crate::parallel;

/// Shard count of the mapping search ([`optimise_mapping_checkpointed`]).
///
/// Deliberately **fixed** rather than derived from `options.threads`:
/// the shard boundaries define the checkpoint units persisted in a
/// journal, so they must be identical no matter how many workers the
/// original or the resumed run had. 32 shards keep every shard coarse
/// enough to be worth a checkpoint yet plenty to feed any realistic
/// worker count.
pub const CHECKPOINT_SHARDS: usize = 32;

/// One processing element as the optimiser sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeInfo {
    /// Clock frequency in MHz.
    pub frequency_mhz: u64,
    /// Element kind.
    pub kind: ComponentKind,
}

/// The abstract mapping problem: group workloads, group kinds, the
/// inter-group communication matrix, the elements, and their pairwise
/// communication distances.
#[derive(Clone, PartialEq, Debug)]
pub struct MappingProblem {
    /// Group names (for reports).
    pub group_names: Vec<String>,
    /// Per-group computation in cycles (measured on the reference run).
    pub group_cycles: Vec<u64>,
    /// Per-group declared `ProcessType`.
    pub group_kinds: Vec<ProcessType>,
    /// Symmetric inter-group signal counts.
    pub comm: Vec<Vec<u64>>,
    /// The candidate elements.
    pub pes: Vec<PeInfo>,
    /// `distance[a][b]`: abstract bus cost between elements (0 on the
    /// same element, 1 on a shared segment, +1 per bridge hop).
    pub distance: Vec<Vec<u64>>,
}

/// Options for [`optimise_mapping`].
#[derive(Clone, PartialEq, Debug)]
pub struct MappingOptions {
    /// Weight of a communication unit against a computation time unit.
    pub comm_weight: f64,
    /// Pinned assignments (`Fixed` mappings): `(group, element)`.
    pub pinned: Vec<(usize, usize)>,
    /// Worker threads for the search: 1 = serial, 0 = use
    /// `std::thread::available_parallelism`. The solution is bit-identical
    /// at every thread count.
    pub threads: usize,
}

impl Default for MappingOptions {
    fn default() -> Self {
        MappingOptions {
            // One signal crossing one segment costs about two
            // cycles/MHz time units — calibrated against the TUTMAC
            // co-simulation so the static estimate and the simulated
            // bottleneck agree on the winner.
            comm_weight: 2.0,
            pinned: Vec::new(),
            threads: 1,
        }
    }
}

/// A mapping result.
#[derive(Clone, PartialEq, Debug)]
pub struct MappingSolution {
    /// `assignment[group] = element`.
    pub assignment: Vec<usize>,
    /// The estimated cost (bottleneck time + weighted communication).
    pub cost: f64,
}

/// How much slower `kind` work runs on a `pe` of the given kind, relative
/// to its natural element (mirrors [`tut_platform::CostModel`]).
fn kind_penalty(group: ProcessType, pe: ComponentKind) -> f64 {
    match (group, pe) {
        (ProcessType::General, ComponentKind::General) => 1.0,
        (ProcessType::General, ComponentKind::Dsp) => 2.0,
        (ProcessType::General, ComponentKind::HwAccelerator) => 32.0,
        (ProcessType::Dsp, ComponentKind::Dsp) => 0.25,
        (ProcessType::Dsp, ComponentKind::General) => 1.0,
        (ProcessType::Dsp, ComponentKind::HwAccelerator) => 32.0,
        (ProcessType::Hardware, ComponentKind::HwAccelerator) => 1.0 / 16.0,
        (ProcessType::Hardware, _) => 1.0,
    }
}

/// The cost of one assignment: bottleneck computation time plus weighted
/// communication distance.
pub fn mapping_cost(
    problem: &MappingProblem,
    assignment: &[usize],
    options: &MappingOptions,
) -> f64 {
    cost_into(problem, assignment, options, &mut Vec::new())
}

/// [`mapping_cost`] with a caller-owned scratch buffer so the inner
/// search loop does not allocate per candidate.
fn cost_into(
    problem: &MappingProblem,
    assignment: &[usize],
    options: &MappingOptions,
    loads: &mut Vec<f64>,
) -> f64 {
    loads.clear();
    loads.resize(problem.pes.len(), 0.0);
    for (group, &pe) in assignment.iter().enumerate() {
        let penalty = kind_penalty(problem.group_kinds[group], problem.pes[pe].kind);
        let time = problem.group_cycles[group] as f64 * penalty
            / problem.pes[pe].frequency_mhz.max(1) as f64;
        loads[pe] += time;
    }
    let bottleneck = loads.iter().cloned().fold(0.0, f64::max);
    // A light total-load term: placements that waste cycles below the
    // bottleneck (e.g. general code parked on the accelerator) still pay.
    let total: f64 = loads.iter().sum();
    let mut comm = 0.0;
    for g in 0..assignment.len() {
        for h in (g + 1)..assignment.len() {
            let signals = problem.comm[g][h] + problem.comm[h][g];
            if signals == 0 {
                continue;
            }
            let distance = problem.distance[assignment[g]][assignment[h]] as f64;
            comm += signals as f64 * distance * options.comm_weight;
        }
    }
    bottleneck + 0.2 * total + comm
}

/// Precomputed, order-preserving evaluation tables for the exhaustive
/// search's inner loop. Three folds are hoisted out of the per-candidate
/// cost: the `(group, PE)` time matrix (penalty lookup plus multiply and
/// divide), the non-zero communication pairs as an ordered term list
/// (skipping the `O(groups²)` zero scan), and the per-PE load fold over
/// the *pinned prefix* — every group below the lowest index the odometer
/// can touch contributes a constant load, summed once.
///
/// Evaluation replays exactly [`cost_into`]'s float operations in
/// exactly its order (same values, same accumulation sequence, same
/// parenthesisation), so every candidate cost is **bit-identical** to
/// the reference — pinned by `hoisted_eval_is_bit_identical_to_cost_into`.
struct CostTables<'a> {
    problem: &'a MappingProblem,
    pes: usize,
    /// `time[group * pes + pe]`: load contribution of `group` on `pe`.
    time: Vec<f64>,
    /// `(g, h, signals)` for `g < h` with any traffic, in pair order.
    comm_terms: Vec<(usize, usize, f64)>,
    comm_weight: f64,
    /// First group index the search may reassign; groups below it are
    /// folded into `prefix_loads`.
    lo: usize,
    prefix_loads: Vec<f64>,
}

impl<'a> CostTables<'a> {
    fn new(
        problem: &'a MappingProblem,
        options: &MappingOptions,
        base: &[usize],
        free: &[usize],
    ) -> CostTables<'a> {
        let pes = problem.pes.len();
        let groups = problem.group_cycles.len();
        let mut time = vec![0.0; groups * pes];
        for group in 0..groups {
            for pe in 0..pes {
                let penalty = kind_penalty(problem.group_kinds[group], problem.pes[pe].kind);
                time[group * pes + pe] = problem.group_cycles[group] as f64 * penalty
                    / problem.pes[pe].frequency_mhz.max(1) as f64;
            }
        }
        let mut comm_terms = Vec::new();
        for g in 0..groups {
            for h in (g + 1)..groups {
                let signals = problem.comm[g][h] + problem.comm[h][g];
                if signals != 0 {
                    comm_terms.push((g, h, signals as f64));
                }
            }
        }
        let lo = free.iter().copied().min().unwrap_or(groups);
        let mut prefix_loads = vec![0.0; pes];
        for (group, &pe) in base.iter().enumerate().take(lo) {
            prefix_loads[pe] += time[group * pes + pe];
        }
        CostTables {
            problem,
            pes,
            time,
            comm_terms,
            comm_weight: options.comm_weight,
            lo,
            prefix_loads,
        }
    }

    /// [`cost_into`], replayed from the tables.
    fn eval(&self, assignment: &[usize], loads: &mut Vec<f64>) -> f64 {
        loads.clear();
        loads.extend_from_slice(&self.prefix_loads);
        for (group, &pe) in assignment.iter().enumerate().skip(self.lo) {
            loads[pe] += self.time[group * self.pes + pe];
        }
        let bottleneck = loads.iter().cloned().fold(0.0, f64::max);
        let total: f64 = loads.iter().sum();
        let mut comm = 0.0;
        for &(g, h, signals) in &self.comm_terms {
            let distance = self.problem.distance[assignment[g]][assignment[h]] as f64;
            comm += signals * distance * self.comm_weight;
        }
        bottleneck + 0.2 * total + comm
    }
}

/// Finds the cost-minimal assignment by exhaustive search. Pinned groups
/// are collapsed out of the enumeration, so the space is
/// `pes^free_groups` (the paper's case is `4^4 = 256` unpinned, `4^3`
/// with the accelerator pin). For larger systems use a coarser group
/// count first.
///
/// The enumeration is cut into [`CHECKPOINT_SHARDS`] fixed shards that
/// run on up to `options.threads` scoped workers; the reduction keeps the
/// first strict minimum in enumeration order, so the result is
/// bit-identical at every thread count.
///
/// # Panics
///
/// Panics if the problem is inconsistent (mismatched lengths, pins out of
/// range) or the pin-collapsed search space exceeds `10^7` candidates.
pub fn optimise_mapping(problem: &MappingProblem, options: &MappingOptions) -> MappingSolution {
    optimise_mapping_checkpointed(
        problem,
        options,
        &mut NoopSink,
        &Progress::disabled(),
        &NoCheckpoint,
    )
}

/// [`optimise_mapping`] with every hook:
///
/// - `tracer`: the search becomes a host-clock span on the
///   `tool/explore.mapping` track, and the candidate count is recorded
///   as the `explore.mapping.candidates` counter metric.
/// - `progress`: every finished shard ticks it by its candidate count
///   and reports its shard-best cost. The search and each shard are also
///   self-profiler frames (see [`tut_trace::perf`]).
/// - `checkpoint`: each finished shard's best is reported to it, and
///   shards a previous run completed are replayed instead of rescanned.
///   The shards are fixed (thread-count independent), so the checkpoint
///   units of an interrupted run line up with the resumed one.
///
/// Each shard's best is a pure function of the problem and the shard
/// range, so observation, replay and thread count never change the
/// solution.
pub fn optimise_mapping_checkpointed<T: TraceSink, C: ExploreCheckpoint>(
    problem: &MappingProblem,
    options: &MappingOptions,
    tracer: &mut T,
    progress: &Progress,
    checkpoint: &C,
) -> MappingSolution {
    let _search_span = perf::enter_named("explore.mapping.search");
    let track = tracer.track("tool/explore.mapping", Clock::Host);
    let search_start = tracer.host_now_ns();
    let (base, free, total) = pin_collapse(problem, options);
    let tables = CostTables::new(problem, options, &base, &free);

    let shards = parallel::shard_ranges(total, CHECKPOINT_SHARDS);
    let per_shard = parallel::map_ordered(shards.len(), options.threads, |shard| {
        if let Some(prev) = checkpoint.replay_mapping_shard(shard) {
            return prev; // no progress tick: the driver pre-accounts replays
        }
        let best = scan_shard(&tables, &base, &free, shards[shard].clone(), progress);
        checkpoint.mapping_shard_done(shard, &best);
        best
    });
    // Deterministic reduction: shards are in enumeration order and each
    // carries its first strict minimum, so keeping the first shard that
    // strictly improves reproduces a serial scan.
    let mut best: Option<(f64, u64)> = None;
    for candidate in per_shard.into_iter().flatten() {
        if best.map(|(cost, _)| candidate.0 < cost).unwrap_or(true) {
            best = Some(candidate);
        }
    }
    let (cost, winner) = best.expect("at least one assignment is feasible");

    let mut assignment = base;
    decode_candidate(winner, problem.pes.len(), &free, &mut assignment);
    let now = tracer.host_now_ns();
    tracer.span(
        track,
        "search",
        search_start,
        now.saturating_sub(search_start),
    );
    tracer.add("explore.mapping.candidates", total);
    MappingSolution { assignment, cost }
}

/// Validates the problem, collapses pins out of the enumeration, and
/// returns `(base assignment, free group indices, candidate count)`.
///
/// # Panics
///
/// Panics if the problem is inconsistent (mismatched lengths, pins out
/// of range) or the pin-collapsed space exceeds `10^7` candidates.
fn pin_collapse(
    problem: &MappingProblem,
    options: &MappingOptions,
) -> (Vec<usize>, Vec<usize>, u64) {
    let groups = problem.group_cycles.len();
    assert_eq!(problem.group_kinds.len(), groups);
    assert_eq!(problem.comm.len(), groups);
    let pes = problem.pes.len();
    assert!(pes > 0, "need at least one element");

    let mut pinned: Vec<Option<usize>> = vec![None; groups];
    for &(group, pe) in &options.pinned {
        assert!(group < groups && pe < pes, "pin out of range");
        pinned[group] = Some(pe);
    }
    // Collapse pins out of the odometer: enumerate only the free groups.
    let base: Vec<usize> = pinned.iter().map(|pin| pin.unwrap_or(0)).collect();
    let free: Vec<usize> = (0..groups).filter(|&g| pinned[g].is_none()).collect();
    let space = (pes as f64).powi(free.len() as i32);
    assert!(space <= 1e7, "search space too large: {space}");
    let total = (pes as u64).pow(free.len() as u32);
    (base, free, total)
}

/// Writes candidate `index` into `assignment`: free group `free[j]` gets
/// digit `j` of `index` in base `pes` (digit 0 varies fastest, matching
/// the odometer).
fn decode_candidate(index: u64, pes: usize, free: &[usize], assignment: &mut [usize]) {
    let mut rem = index;
    for &group in free {
        assignment[group] = (rem % pes as u64) as usize;
        rem /= pes as u64;
    }
}

/// [`best_in_range`] as one observed worker shard: a self-profiler frame
/// plus a progress tick (by candidate count) and shard-best report.
fn scan_shard(
    tables: &CostTables<'_>,
    base: &[usize],
    free: &[usize],
    range: std::ops::Range<u64>,
    progress: &Progress,
) -> Option<(f64, u64)> {
    let _shard_span = perf::enter_named("explore.mapping.shard");
    let candidates = range.end.saturating_sub(range.start);
    let best = best_in_range(tables, base, free, range);
    if let Some((cost, _)) = best {
        progress.record_best(cost);
    }
    progress.tick_n(candidates);
    best
}

/// Scans candidates `range` (a contiguous slice of the pin-collapsed
/// enumeration) and returns the first strict minimum as
/// `(cost, candidate index)`.
fn best_in_range(
    tables: &CostTables<'_>,
    base: &[usize],
    free: &[usize],
    range: std::ops::Range<u64>,
) -> Option<(f64, u64)> {
    let pes = tables.pes;
    let mut assignment = base.to_vec();
    decode_candidate(range.start, pes, free, &mut assignment);
    let mut loads = Vec::new();
    let mut best: Option<(f64, u64)> = None;
    for index in range {
        let cost = tables.eval(&assignment, &mut loads);
        if best.map(|(c, _)| cost < c).unwrap_or(true) {
            best = Some((cost, index));
        }
        // Odometer increment over the free digits, digit 0 fastest.
        for &group in free {
            assignment[group] += 1;
            if assignment[group] < pes {
                break;
            }
            assignment[group] = 0;
        }
    }
    best
}

/// Builds a [`MappingProblem`] from a system and its profiling report:
/// group cycles and communication from the report (Table 4), elements and
/// distances from the platform view.
///
/// Returns the problem plus the group classes and instance parts in
/// problem order, so a solution can be applied back with
/// [`crate::apply::apply_mapping`].
///
/// # Errors
///
/// Returns a message when the system has no groups or platform instances.
pub fn problem_from_system(
    system: &SystemModel,
    report: &ProfilingReport,
) -> Result<(MappingProblem, Vec<ClassId>, Vec<PropertyId>), String> {
    let app = system.application();
    let platform = system.platform();
    let groups = app.groups();
    if groups.is_empty() {
        return Err("system has no process groups".into());
    }
    let instances = platform.instances();
    if instances.is_empty() {
        return Err("platform has no component instances".into());
    }

    let group_names: Vec<String> = groups.iter().map(|g| g.name.clone()).collect();
    let group_cycles: Vec<u64> = group_names
        .iter()
        .map(|name| report.group(name).map(|g| g.cycles).unwrap_or(0))
        .collect();
    let group_kinds: Vec<ProcessType> = groups.iter().map(|g| g.process_type).collect();

    let n = group_names.len();
    let mut comm = vec![vec![0u64; n]; n];
    for (i, a) in group_names.iter().enumerate() {
        for (j, b) in group_names.iter().enumerate() {
            comm[i][j] = report.signal_matrix.between(a, b).unwrap_or(0);
        }
    }

    let pes: Vec<PeInfo> = instances
        .iter()
        .map(|i| PeInfo {
            frequency_mhz: i.frequency.max(1) as u64,
            kind: i.kind,
        })
        .collect();

    // Segment distances: BFS over the bridge graph.
    let segments: Vec<PropertyId> = platform.segments().iter().map(|s| s.part).collect();
    let seg_index = |part: PropertyId| segments.iter().position(|&s| s == part);
    let mut seg_adjacent = vec![Vec::new(); segments.len()];
    for bridge in platform.bridges() {
        if let (Some(a), Some(b)) = (seg_index(bridge.a), seg_index(bridge.b)) {
            seg_adjacent[a].push(b);
            seg_adjacent[b].push(a);
        }
    }
    let seg_distance = |from: usize, to: usize| -> u64 {
        if from == to {
            return 1;
        }
        let mut dist = vec![u64::MAX; segments.len()];
        dist[from] = 1;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(s) = queue.pop_front() {
            for &next in &seg_adjacent[s] {
                if dist[next] == u64::MAX {
                    dist[next] = dist[s] + 1;
                    queue.push_back(next);
                }
            }
        }
        if dist[to] == u64::MAX {
            8 // disconnected: strongly discourage
        } else {
            dist[to]
        }
    };

    let pe_segment: Vec<Option<usize>> = instances
        .iter()
        .map(|i| platform.segment_of(i.part).and_then(seg_index))
        .collect();
    let mut distance = vec![vec![0u64; pes.len()]; pes.len()];
    for a in 0..pes.len() {
        for b in 0..pes.len() {
            if a == b {
                continue;
            }
            distance[a][b] = match (pe_segment[a], pe_segment[b]) {
                (Some(sa), Some(sb)) => seg_distance(sa, sb),
                _ => 8,
            };
        }
    }

    let group_classes: Vec<ClassId> = groups.iter().map(|g| g.class).collect();
    let instance_parts: Vec<PropertyId> = instances.iter().map(|i| i.part).collect();
    Ok((
        MappingProblem {
            group_names,
            group_cycles,
            group_kinds,
            comm,
            pes,
            distance,
        },
        group_classes,
        instance_parts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> MappingProblem {
        MappingProblem {
            group_names: vec!["g1".into(), "g2".into(), "hw".into()],
            group_cycles: vec![1000, 900, 50],
            group_kinds: vec![
                ProcessType::General,
                ProcessType::General,
                ProcessType::Hardware,
            ],
            comm: vec![vec![0, 100, 5], vec![100, 0, 0], vec![5, 0, 0]],
            pes: vec![
                PeInfo {
                    frequency_mhz: 50,
                    kind: ComponentKind::General,
                },
                PeInfo {
                    frequency_mhz: 50,
                    kind: ComponentKind::General,
                },
                PeInfo {
                    frequency_mhz: 100,
                    kind: ComponentKind::HwAccelerator,
                },
            ],
            distance: vec![vec![0, 1, 2], vec![1, 0, 2], vec![2, 2, 0]],
        }
    }

    #[test]
    fn hardware_group_lands_on_the_accelerator() {
        // Make the hardware workload heavy and communication-free so the
        // accelerator's 16x compute advantage decides the placement.
        let mut problem = small_problem();
        problem.group_cycles[2] = 20_000;
        problem.comm[0][2] = 0;
        problem.comm[2][0] = 0;
        let solution = optimise_mapping(&problem, &MappingOptions::default());
        assert_eq!(solution.assignment[2], 2, "hw group -> accelerator");
    }

    #[test]
    fn light_chatty_hardware_group_colocates_instead() {
        // The paper-scale case: tiny CRC workload, frequent signals. The
        // optimiser correctly prefers co-location over the accelerator
        // when communication dominates.
        let solution = optimise_mapping(&small_problem(), &MappingOptions::default());
        assert_eq!(
            solution.assignment[2], solution.assignment[0],
            "chatty light group follows its peer"
        );
    }

    #[test]
    fn heavy_communicators_colocate_when_comm_dominates() {
        let options = MappingOptions {
            comm_weight: 1000.0,
            ..MappingOptions::default()
        };
        let solution = optimise_mapping(&small_problem(), &options);
        assert_eq!(
            solution.assignment[0], solution.assignment[1],
            "g1/g2 exchange 200 signals; with heavy comm weight they co-locate"
        );
    }

    #[test]
    fn load_balances_when_comm_is_free() {
        let options = MappingOptions {
            comm_weight: 0.0,
            ..MappingOptions::default()
        };
        let solution = optimise_mapping(&small_problem(), &options);
        assert_ne!(
            solution.assignment[0], solution.assignment[1],
            "with free communication the two heavy groups split"
        );
    }

    #[test]
    fn pins_are_respected() {
        let options = MappingOptions {
            pinned: vec![(0, 1)],
            ..MappingOptions::default()
        };
        let solution = optimise_mapping(&small_problem(), &options);
        assert_eq!(solution.assignment[0], 1);
    }

    #[test]
    fn cost_penalises_general_work_on_the_accelerator() {
        let problem = small_problem();
        let options = MappingOptions::default();
        let on_cpu = mapping_cost(&problem, &[0, 1, 2], &options);
        let on_acc = mapping_cost(&problem, &[2, 1, 2], &options);
        assert!(on_acc > on_cpu);
    }

    /// The hoisted evaluation tables must reproduce the reference
    /// [`cost_into`] bit-for-bit on every assignment, for every pin set
    /// (which moves the folded prefix boundary) and at a non-trivial
    /// comm weight (which exercises the ordered term list).
    #[test]
    fn hoisted_eval_is_bit_identical_to_cost_into() {
        let mut problem = small_problem();
        problem.comm[1][2] = 37; // extra asymmetric traffic in the term list
        let options = MappingOptions {
            comm_weight: 0.73,
            ..MappingOptions::default()
        };
        let groups = problem.group_cycles.len();
        let pes = problem.pes.len();
        let mut seed = 0x2bad_f00du64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for free in [vec![0, 1, 2], vec![1, 2], vec![2], vec![]] {
            let mut base: Vec<usize> = (0..groups).map(|g| g % pes).collect();
            let tables = CostTables::new(&problem, &options, &base, &free);
            let mut loads = Vec::new();
            let mut reference = Vec::new();
            for _ in 0..200 {
                for &g in &free {
                    base[g] = rng() % pes;
                }
                let hoisted = tables.eval(&base, &mut loads);
                let plain = cost_into(&problem, &base, &options, &mut reference);
                assert_eq!(
                    hoisted.to_bits(),
                    plain.to_bits(),
                    "free {free:?}, assignment {base:?}: {hoisted} vs {plain}"
                );
            }
        }
    }

    #[test]
    fn parallel_search_is_bit_identical_to_serial() {
        let problem = small_problem();
        for pinned in [vec![], vec![(2usize, 2usize)], vec![(0, 1), (2, 2)]] {
            let serial = optimise_mapping(
                &problem,
                &MappingOptions {
                    pinned: pinned.clone(),
                    threads: 1,
                    ..MappingOptions::default()
                },
            );
            for threads in [2usize, 4] {
                let parallel = optimise_mapping(
                    &problem,
                    &MappingOptions {
                        pinned: pinned.clone(),
                        threads,
                        ..MappingOptions::default()
                    },
                );
                assert_eq!(serial.assignment, parallel.assignment);
                assert_eq!(
                    serial.cost.to_bits(),
                    parallel.cost.to_bits(),
                    "cost must be bit-identical at {threads} threads (pins {pinned:?})"
                );
            }
        }
    }

    #[test]
    fn pin_collapse_shrinks_the_enumerated_space() {
        let problem = small_problem();
        let mut tracer = tut_trace::Recorder::new();
        optimise_mapping_checkpointed(
            &problem,
            &MappingOptions {
                pinned: vec![(2, 2)],
                ..MappingOptions::default()
            },
            &mut tracer,
            &Progress::disabled(),
            &NoCheckpoint,
        );
        assert_eq!(
            tracer.metrics.counter("explore.mapping.candidates"),
            Some(9),
            "3 pes ^ 2 free groups — the pinned group is out of the odometer"
        );
    }
}
