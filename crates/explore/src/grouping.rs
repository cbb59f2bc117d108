//! Grouping optimisation: partition the communication graph into K
//! groups minimising inter-group communication.
//!
//! The paper lists the grouping criteria (§3.1): "preliminary scheduling
//! …, workload distribution, communication between process groups,
//! dependencies between process groups, and size of a process group". The
//! objective here combines the two quantitative ones: cut weight
//! (communication) plus a load-imbalance penalty (workload distribution).
//!
//! The inner loops evaluate candidate single-node moves through the
//! incremental [`ObjectiveState`], so a move costs O(degree + groups)
//! instead of the O(E) full recompute (which survives as the debug-mode
//! cross-check). The annealing phase is multi-start: `restarts`
//! independent runs with distinct SplitMix64 seeds, reduced in restart
//! order.

use tut_trace::perf;
use tut_trace::SplitMix64;

use crate::commgraph::CommGraph;
use crate::objective::ObjectiveState;

/// Options for [`partition`].
#[derive(Clone, PartialEq, Debug)]
pub struct GroupingOptions {
    /// Number of groups to form.
    pub groups: usize,
    /// Relative weight of the load-imbalance penalty against the cut
    /// weight (0 = communication only).
    pub balance_weight: f64,
    /// Nodes pinned to a group (`Fixed` processes): `(node index, group)`.
    pub pinned: Vec<(usize, usize)>,
    /// Simulated-annealing iterations per restart (0 disables the
    /// annealing pass).
    pub annealing_iterations: u32,
    /// RNG seed for the annealing pass (runs are reproducible). Each
    /// restart derives its own independent SplitMix64 stream from this.
    pub seed: u64,
    /// Independent annealing restarts; the best result wins (ties go to
    /// the lowest restart index). 0 disables the annealing pass.
    pub restarts: u32,
}

impl Default for GroupingOptions {
    fn default() -> Self {
        GroupingOptions {
            groups: 4,
            balance_weight: 0.2,
            pinned: Vec::new(),
            annealing_iterations: 20_000,
            seed: 0x7075_7475,
            restarts: 4,
        }
    }
}

/// A grouping result.
#[derive(Clone, PartialEq, Debug)]
pub struct GroupingSolution {
    /// `assignment[node] = group`.
    pub assignment: Vec<usize>,
    /// The solution's cut weight (inter-group communication).
    pub cut_weight: u64,
    /// The solution's combined objective value.
    pub objective: f64,
}

/// Partitions the graph into `options.groups` groups.
///
/// Three phases:
/// 1. **Greedy agglomeration** — start with every node alone, repeatedly
///    merge the cluster pair joined by the heaviest inter-cluster weight
///    until `groups` clusters remain (respecting pins: clusters pinned to
///    different groups never merge).
/// 2. **Refinement** — single-node moves while they improve the
///    objective (a Kernighan–Lin-style pass).
/// 3. **Annealing** — `restarts` seeded simulated-annealing runs over
///    single-node moves, keeping the best solution seen across all of
///    them.
///
/// Each phase is a self-profiler frame (see [`tut_trace::perf`]).
///
/// # Panics
///
/// Panics if `options.groups` is 0, a pin is out of range, or two pins
/// contradict each other.
pub fn partition(graph: &CommGraph, options: &GroupingOptions) -> GroupingSolution {
    assert!(options.groups > 0, "need at least one group");
    let n = graph.len();
    if n == 0 {
        return GroupingSolution {
            assignment: Vec::new(),
            cut_weight: 0,
            objective: 0.0,
        };
    }

    let pinned = pin_table(n, options);

    // ---- Phase 1: greedy agglomeration ---------------------------------
    let perf_span = perf::enter_named("explore.grouping.agglomerate");
    let assignment = agglomerate(graph, options, &pinned);

    // ---- Phase 2: greedy single-node refinement -------------------------
    let perf_span = perf_span.then_named("explore.grouping.refine");
    let adjacency = graph.adjacency();
    let mut state = ObjectiveState::new(
        graph,
        &adjacency,
        assignment,
        options.groups,
        options.balance_weight,
    );
    let current = refine_state(&mut state, &pinned);

    // ---- Phase 3: multi-start simulated annealing ------------------------
    let _perf_span = perf_span.then_named("explore.grouping.anneal");
    let refined: Vec<usize> = state.assignment().to_vec();
    let mut best_assignment = refined.clone();
    let mut best = current;
    if options.annealing_iterations > 0 && options.restarts > 0 && n > 1 && options.groups > 1 {
        // Independent seed per restart, derived from the option seed.
        let mut seeder = SplitMix64::new(options.seed);
        for _ in 0..options.restarts {
            let outcome = anneal_run(
                graph,
                &adjacency,
                options,
                &pinned,
                &refined,
                current,
                seeder.next_u64(),
            );
            // Strict improvement only, so ties go to the lowest restart.
            if outcome.objective < best {
                best = outcome.objective;
                best_assignment = outcome.assignment;
            }
        }
    }

    GroupingSolution {
        cut_weight: graph.cut_weight(&best_assignment),
        objective: best,
        assignment: best_assignment,
    }
}

/// Runs the greedy single-node refinement pass (phase 2 of [`partition`])
/// in place, returning the resulting objective value. Exposed so the
/// refinement cost can be benchmarked against a full-recompute baseline.
pub fn refine(graph: &CommGraph, assignment: &mut Vec<usize>, options: &GroupingOptions) -> f64 {
    let pinned = pin_table(graph.len(), options);
    let adjacency = graph.adjacency();
    let mut state = ObjectiveState::new(
        graph,
        &adjacency,
        std::mem::take(assignment),
        options.groups,
        options.balance_weight,
    );
    let value = refine_state(&mut state, &pinned);
    *assignment = state.assignment().to_vec();
    value
}

/// Builds the node → pinned-group table, validating the pins.
fn pin_table(n: usize, options: &GroupingOptions) -> Vec<Option<usize>> {
    let mut pinned: Vec<Option<usize>> = vec![None; n];
    for &(node, group) in &options.pinned {
        assert!(node < n, "pinned node out of range");
        assert!(group < options.groups, "pinned group out of range");
        assert!(
            pinned[node].is_none() || pinned[node] == Some(group),
            "contradictory pins for node {node}"
        );
        pinned[node] = Some(group);
    }
    pinned
}

/// Phase 1: greedy agglomeration down to `options.groups` clusters,
/// normalised to group indices honouring the pins.
fn agglomerate(
    graph: &CommGraph,
    options: &GroupingOptions,
    pinned: &[Option<usize>],
) -> Vec<usize> {
    let n = graph.len();
    // cluster id per node; clusters carry an optional pinned group.
    let mut cluster: Vec<usize> = (0..n).collect();
    let mut cluster_pin: Vec<Option<usize>> = pinned.to_vec();
    let mut cluster_count = n;
    while cluster_count > options.groups {
        // Heaviest inter-cluster edge whose clusters may merge.
        let mut best: Option<(usize, usize, u64)> = None;
        for (a, b, w) in graph.edges() {
            let (ca, cb) = (cluster[a], cluster[b]);
            if ca == cb {
                continue;
            }
            let compatible = match (cluster_pin[ca], cluster_pin[cb]) {
                (Some(x), Some(y)) => x == y,
                _ => true,
            };
            if compatible && w > best.map(|(_, _, bw)| bw).unwrap_or(0) {
                best = Some((ca, cb, w));
            }
        }
        let (ca, cb) = match best {
            Some((ca, cb, _)) => (ca, cb),
            None => {
                // No weighted merge available: merge two arbitrary
                // compatible clusters (unconnected components).
                let mut ids: Vec<usize> = cluster.clone();
                ids.sort_unstable();
                ids.dedup();
                let mut found = None;
                'outer: for (i, &ca) in ids.iter().enumerate() {
                    for &cb in &ids[i + 1..] {
                        let ok = match (cluster_pin[ca], cluster_pin[cb]) {
                            (Some(x), Some(y)) => x == y,
                            _ => true,
                        };
                        if ok {
                            found = Some((ca, cb));
                            break 'outer;
                        }
                    }
                }
                match found {
                    Some(pair) => pair,
                    None => break, // only mutually-pinned clusters remain
                }
            }
        };
        let merged_pin = cluster_pin[ca].or(cluster_pin[cb]);
        for c in cluster.iter_mut() {
            if *c == cb {
                *c = ca;
            }
        }
        cluster_pin[ca] = merged_pin;
        cluster_count -= 1;
    }

    // Normalise cluster ids to 0..groups, honouring pins.
    let mut ids: Vec<usize> = cluster.clone();
    ids.sort_unstable();
    ids.dedup();
    let mut id_to_group: std::collections::HashMap<usize, usize> = Default::default();
    let mut used = vec![false; options.groups];
    for &id in &ids {
        if let Some(g) = cluster_pin[id] {
            id_to_group.insert(id, g);
            used[g] = true;
        }
    }
    let mut next_free = 0usize;
    for &id in &ids {
        if id_to_group.contains_key(&id) {
            continue;
        }
        while next_free < options.groups && used[next_free] {
            next_free += 1;
        }
        let g = if next_free < options.groups {
            used[next_free] = true;
            next_free
        } else {
            // More clusters than groups (pin deadlock): overflow into
            // group 0.
            0
        };
        id_to_group.insert(id, g);
    }
    cluster.iter().map(|c| id_to_group[c]).collect()
}

/// Phase 2: single-node moves while they improve the objective, priced
/// incrementally. Returns the final objective value.
fn refine_state(state: &mut ObjectiveState<'_>, pinned: &[Option<usize>]) -> f64 {
    let groups = state.groups();
    let mut current = state.value();
    let mut improved = true;
    while improved {
        improved = false;
        for (node, pin) in pinned.iter().enumerate() {
            if pin.is_some() {
                continue;
            }
            for group in 0..groups {
                if group == state.group_of(node) {
                    continue;
                }
                let candidate = state.peek_move(node, group);
                if candidate < current {
                    state.apply_move(node, group);
                    current = candidate;
                    improved = true;
                }
            }
        }
    }
    current
}

/// One annealing restart's result.
struct AnnealOutcome {
    assignment: Vec<usize>,
    objective: f64,
    /// Temperature after the last iteration — cooling runs once per
    /// iteration unconditionally, so this depends only on the iteration
    /// count, never on pin density or group count. Observed by the
    /// cooling-schedule regression test.
    #[cfg_attr(not(test), allow(dead_code))]
    final_temperature: f64,
}

/// One seeded simulated-annealing run from the refined assignment.
///
/// RNG discipline: exactly two index draws per iteration (node, group)
/// plus one float draw for uphill candidates, and the temperature cools
/// exactly once per iteration — pinned samples and same-group samples
/// skip only the move, not the cooling, so the effective schedule is
/// identical regardless of pin density.
fn anneal_run(
    graph: &CommGraph,
    adjacency: &[Vec<(usize, u64)>],
    options: &GroupingOptions,
    pinned: &[Option<usize>],
    start: &[usize],
    start_objective: f64,
    seed: u64,
) -> AnnealOutcome {
    // One self-profiler frame per restart: counts and per-restart host
    // time aggregate under `explore.grouping.anneal`.
    let _restart_span = perf::enter_named("explore.grouping.restart");
    let n = graph.len();
    let mut state = ObjectiveState::new(
        graph,
        adjacency,
        start.to_vec(),
        options.groups,
        options.balance_weight,
    );
    let mut current = start_objective;
    let mut best = current;
    let mut best_assignment = start.to_vec();
    let mut rng = SplitMix64::new(seed);
    let mut temperature = (start_objective / n as f64).max(1.0);
    for _ in 0..options.annealing_iterations {
        let node = rng.next_index(n);
        let group = rng.next_index(options.groups);
        if pinned[node].is_none() && group != state.group_of(node) {
            let candidate = state.peek_move(node, group);
            let accept = candidate <= current
                || rng.next_f64() < ((current - candidate) / temperature).exp();
            if accept {
                state.apply_move(node, group);
                current = candidate;
                if candidate < best {
                    best = candidate;
                    best_assignment = state.assignment().to_vec();
                }
            }
        }
        // Cool once per iteration, unconditionally: the schedule must not
        // depend on how many samples hit pinned nodes or no-op moves.
        temperature = (temperature * 0.9997).max(0.01);
    }
    AnnealOutcome {
        assignment: best_assignment,
        objective: best,
        final_temperature: temperature,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 3-cliques joined by one light edge.
    fn two_communities() -> CommGraph {
        let mut g = CommGraph::default();
        for name in ["a0", "a1", "a2", "b0", "b1", "b2"] {
            g.intern(name);
        }
        g.add_edge(0, 1, 10);
        g.add_edge(1, 2, 10);
        g.add_edge(0, 2, 10);
        g.add_edge(3, 4, 10);
        g.add_edge(4, 5, 10);
        g.add_edge(3, 5, 10);
        g.add_edge(2, 3, 1);
        g
    }

    #[test]
    fn partition_finds_the_natural_cut() {
        let g = two_communities();
        let solution = partition(
            &g,
            &GroupingOptions {
                groups: 2,
                balance_weight: 0.0,
                ..GroupingOptions::default()
            },
        );
        assert_eq!(solution.cut_weight, 1, "only the bridge edge crosses");
        assert_eq!(solution.assignment[0], solution.assignment[1]);
        assert_eq!(solution.assignment[0], solution.assignment[2]);
        assert_eq!(solution.assignment[3], solution.assignment[4]);
        assert_ne!(solution.assignment[0], solution.assignment[3]);
    }

    #[test]
    fn pins_are_respected() {
        let g = two_communities();
        let solution = partition(
            &g,
            &GroupingOptions {
                groups: 2,
                balance_weight: 0.0,
                pinned: vec![(0, 1), (3, 0)],
                ..GroupingOptions::default()
            },
        );
        assert_eq!(solution.assignment[0], 1);
        assert_eq!(solution.assignment[3], 0);
    }

    #[test]
    fn single_group_collapses_everything() {
        let g = two_communities();
        let solution = partition(
            &g,
            &GroupingOptions {
                groups: 1,
                ..GroupingOptions::default()
            },
        );
        assert!(solution.assignment.iter().all(|&g| g == 0));
        assert_eq!(solution.cut_weight, 0);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let g = two_communities();
        let options = GroupingOptions::default();
        assert_eq!(partition(&g, &options), partition(&g, &options));
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = CommGraph::default();
        let solution = partition(&g, &GroupingOptions::default());
        assert!(solution.assignment.is_empty());
    }

    /// Regression for the cooling bug: the annealing temperature schedule
    /// must depend only on the iteration count, not on how many sampled
    /// moves were skipped because the node was pinned.
    #[test]
    fn cooling_schedule_is_pin_independent() {
        let g = two_communities();
        let adjacency = g.adjacency();
        let mut options = GroupingOptions {
            groups: 2,
            balance_weight: 0.0,
            annealing_iterations: 500,
            ..GroupingOptions::default()
        };
        let start = vec![0, 0, 0, 1, 1, 1];
        let free = anneal_run(&g, &adjacency, &options, &[None; 6], &start, 1.0, 42);
        // Pin five of the six nodes: most iterations sample a pinned node.
        options.pinned = vec![(0, 0), (1, 0), (2, 0), (3, 1), (4, 1)];
        let pinned_table = pin_table(6, &options);
        let pinned = anneal_run(&g, &adjacency, &options, &pinned_table, &start, 1.0, 42);
        assert_eq!(
            free.final_temperature.to_bits(),
            pinned.final_temperature.to_bits(),
            "pins must not change the number of cooling steps"
        );
    }
}
