//! The grouping objective, evaluated two ways: a full O(E) recompute and
//! an incremental O(degree) state machine.
//!
//! The partitioner's inner loops (refinement, annealing) evaluate the
//! objective once per candidate single-node move. Recomputing the cut
//! weight from scratch makes every move cost O(E); `ObjectiveState`
//! instead maintains the cut weight and per-group loads so a move costs
//! O(degree + groups). The two evaluations are **bit-identical**: the cut
//! is carried as an exact `u64` and the imbalance term is recomputed with
//! the same float expression over the same integer loads, so
//! `ObjectiveState::value` equals [`full_objective`] on every reachable
//! state (cross-checked by a debug assertion on every applied move).

use crate::commgraph::CommGraph;

/// The full O(E) objective recompute: cut weight plus a load-imbalance
/// penalty (`balance_weight` = 0 means communication only). This is the
/// reference implementation the incremental state is checked against.
pub fn full_objective(
    graph: &CommGraph,
    assignment: &[usize],
    groups: usize,
    balance_weight: f64,
) -> f64 {
    let cut = graph.cut_weight(assignment) as f64;
    if balance_weight == 0.0 {
        return cut;
    }
    let mut loads = vec![0u64; groups];
    for (node, &group) in assignment.iter().enumerate() {
        // Unknown loads fall back to 1 so balance still means "node
        // count" for static graphs.
        loads[group] += graph.loads()[node].max(1);
    }
    cut + balance_weight * imbalance(&loads)
}

/// The mean absolute deviation of the group loads — identical float
/// expression in the full and incremental paths.
fn imbalance(loads: &[u64]) -> f64 {
    let total: u64 = loads.iter().sum();
    let mean = total as f64 / loads.len() as f64;
    loads.iter().map(|&l| (l as f64 - mean).abs()).sum::<f64>() / loads.len() as f64
}

/// Incrementally maintained objective for single-node moves.
///
/// Holds the current assignment, the exact cut weight, and per-group
/// loads. [`ObjectiveState::peek_move`] prices a candidate move in
/// O(degree + groups) without mutating; [`ObjectiveState::apply_move`]
/// commits it and (in debug builds) cross-checks the incremental value
/// against [`full_objective`].
#[derive(Clone, Debug)]
pub(crate) struct ObjectiveState<'g> {
    graph: &'g CommGraph,
    adjacency: &'g [Vec<(usize, u64)>],
    groups: usize,
    balance_weight: f64,
    assignment: Vec<usize>,
    group_loads: Vec<u64>,
    cut: u64,
}

impl<'g> ObjectiveState<'g> {
    /// Builds the state for `assignment` (one O(E + n) pass).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` length differs from the graph, `groups` is
    /// 0, or an assignment is out of range.
    pub(crate) fn new(
        graph: &'g CommGraph,
        adjacency: &'g [Vec<(usize, u64)>],
        assignment: Vec<usize>,
        groups: usize,
        balance_weight: f64,
    ) -> ObjectiveState<'g> {
        assert_eq!(assignment.len(), graph.len(), "one assignment per node");
        assert!(groups > 0, "need at least one group");
        let mut group_loads = vec![0u64; groups];
        for (node, &group) in assignment.iter().enumerate() {
            assert!(group < groups, "assignment out of range");
            group_loads[group] += graph.loads()[node].max(1);
        }
        let cut = graph.cut_weight(&assignment);
        ObjectiveState {
            graph,
            adjacency,
            groups,
            balance_weight,
            assignment,
            group_loads,
            cut,
        }
    }

    /// The current assignment.
    pub(crate) fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The group `node` currently belongs to.
    pub(crate) fn group_of(&self, node: usize) -> usize {
        self.assignment[node]
    }

    /// The number of groups this state was built with.
    pub(crate) fn groups(&self) -> usize {
        self.groups
    }

    /// The current objective value (bit-identical to
    /// [`full_objective`] on the current assignment).
    pub(crate) fn value(&self) -> f64 {
        let cut = self.cut as f64;
        if self.balance_weight == 0.0 {
            return cut;
        }
        cut + self.balance_weight * imbalance(&self.group_loads)
    }

    /// The external edge weight from `node` into each of the two groups
    /// involved in a move: `(to current group, to target group)`.
    fn external_weights(&self, node: usize, to: usize) -> (u64, u64) {
        let from = self.assignment[node];
        let (mut w_from, mut w_to) = (0u64, 0u64);
        for &(peer, w) in &self.adjacency[node] {
            let g = self.assignment[peer];
            if g == from {
                w_from += w;
            } else if g == to {
                w_to += w;
            }
        }
        (w_from, w_to)
    }

    /// The objective value the state would have after moving `node` to
    /// group `to`, computed in O(degree + groups) without mutating.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `to` is out of range.
    pub(crate) fn peek_move(&self, node: usize, to: usize) -> f64 {
        let from = self.assignment[node];
        if to == from {
            return self.value();
        }
        let (w_from, w_to) = self.external_weights(node, to);
        // Edges into the old group become cut, edges into the new group
        // become internal; everything else is unchanged.
        let cut = (self.cut + w_from - w_to) as f64;
        if self.balance_weight == 0.0 {
            return cut;
        }
        let load = self.graph.loads()[node].max(1);
        let adjusted = |group: usize| {
            let l = self.group_loads[group];
            if group == from {
                l - load
            } else if group == to {
                l + load
            } else {
                l
            }
        };
        // Same summation order as `imbalance` so the result is
        // bit-identical to a post-move recompute.
        let total: u64 = (0..self.groups).map(&adjusted).sum();
        let mean = total as f64 / self.groups as f64;
        let imbalance = (0..self.groups)
            .map(|g| (adjusted(g) as f64 - mean).abs())
            .sum::<f64>()
            / self.groups as f64;
        cut + self.balance_weight * imbalance
    }

    /// Commits the move of `node` to group `to`. In debug builds the
    /// incrementally maintained value is cross-checked (bit-exactly)
    /// against the full recompute.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `to` is out of range.
    pub(crate) fn apply_move(&mut self, node: usize, to: usize) {
        let from = self.assignment[node];
        if to == from {
            return;
        }
        let (w_from, w_to) = self.external_weights(node, to);
        self.cut = self.cut + w_from - w_to;
        let load = self.graph.loads()[node].max(1);
        self.group_loads[from] -= load;
        self.group_loads[to] += load;
        self.assignment[node] = to;
        debug_assert_eq!(
            self.value().to_bits(),
            full_objective(
                self.graph,
                &self.assignment,
                self.groups,
                self.balance_weight
            )
            .to_bits(),
            "incremental objective diverged from the full recompute"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tut_trace::SplitMix64;

    fn random_graph(rng: &mut SplitMix64, nodes: usize) -> CommGraph {
        let mut g = CommGraph::default();
        for i in 0..nodes {
            let index = g.intern(&format!("n{i}"));
            g.loads[index] = rng.next_below(50);
        }
        for _ in 0..nodes * 3 {
            let a = rng.next_index(nodes);
            let b = rng.next_index(nodes);
            g.add_edge(a, b, 1 + rng.next_below(20));
        }
        g
    }

    #[test]
    fn incremental_matches_full_under_random_moves() {
        let mut rng = SplitMix64::new(0xC0FFEE);
        for case in 0..20 {
            let nodes = 4 + rng.next_index(10);
            let groups = 2 + rng.next_index(3);
            let graph = random_graph(&mut rng, nodes);
            let adjacency = graph.adjacency();
            let balance = if case % 2 == 0 { 0.0 } else { 0.3 };
            let assignment: Vec<usize> = (0..nodes).map(|_| rng.next_index(groups)).collect();
            let mut state = ObjectiveState::new(&graph, &adjacency, assignment, groups, balance);
            for _ in 0..100 {
                let node = rng.next_index(nodes);
                let to = rng.next_index(groups);
                let peeked = state.peek_move(node, to);
                state.apply_move(node, to);
                // peek == value after apply, bit for bit.
                assert_eq!(peeked.to_bits(), state.value().to_bits());
                assert_eq!(
                    state.value().to_bits(),
                    full_objective(&graph, state.assignment(), groups, balance).to_bits()
                );
                assert_eq!(state.cut, graph.cut_weight(state.assignment()));
            }
        }
    }

    #[test]
    fn peek_on_same_group_is_identity() {
        let mut rng = SplitMix64::new(7);
        let graph = random_graph(&mut rng, 6);
        let adjacency = graph.adjacency();
        let state = ObjectiveState::new(&graph, &adjacency, vec![0, 1, 0, 1, 0, 1], 2, 0.2);
        assert_eq!(
            state.peek_move(3, 1).to_bits(),
            state.value().to_bits(),
            "moving a node to its own group changes nothing"
        );
    }
}
