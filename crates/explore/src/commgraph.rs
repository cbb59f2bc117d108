//! The weighted process-communication graph.

use std::collections::BTreeMap;

use tut_profiling::ProfilingReport;

/// An undirected weighted graph over process instances (by dotted name).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CommGraph {
    nodes: Vec<String>,
    /// Upper-triangle edge weights: `(min_index, max_index) -> weight`.
    edges: BTreeMap<(usize, usize), u64>,
    /// Per-node computation weight (cycles), when known.
    pub(crate) loads: Vec<u64>,
}

impl CommGraph {
    /// Builds the graph from a profiling report: edge weights are signal
    /// counts between processes, node loads are per-process cycles.
    pub fn from_report(report: &ProfilingReport) -> CommGraph {
        let mut graph = CommGraph::default();
        for (process, cycles) in &report.process_cycles {
            let index = graph.intern(process);
            graph.loads[index] = *cycles;
        }
        for transfer in &report.process_transfers {
            let a = graph.intern(&transfer.sender);
            let b = graph.intern(&transfer.receiver);
            graph.add_edge(a, b, transfer.count);
        }
        graph
    }

    /// Returns the index of `name`, adding the node if absent.
    pub fn intern(&mut self, name: &str) -> usize {
        if let Some(index) = self.nodes.iter().position(|n| n == name) {
            return index;
        }
        self.nodes.push(name.to_owned());
        self.loads.push(0);
        self.nodes.len() - 1
    }

    /// Adds weight to the undirected edge between two node indices
    /// (self-edges are ignored).
    pub fn add_edge(&mut self, a: usize, b: usize, weight: u64) {
        if a == b {
            return;
        }
        let key = (a.min(b), a.max(b));
        *self.edges.entry(key).or_default() += weight;
    }

    /// Node names in index order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Node computation loads (cycles; 0 when unknown).
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// The weight between two nodes (0 when unconnected).
    pub fn weight(&self, a: usize, b: usize) -> u64 {
        if a == b {
            return 0;
        }
        self.edges.get(&(a.min(b), a.max(b))).copied().unwrap_or(0)
    }

    /// Iterates `(a, b, weight)` over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.edges.iter().map(|(&(a, b), &w)| (a, b, w))
    }

    /// Per-node adjacency lists: `adjacency()[a]` holds `(b, weight)` for
    /// every edge incident to `a`. Built once by the optimisers so a
    /// single-node move can be evaluated in O(degree) instead of O(E).
    pub fn adjacency(&self) -> Vec<Vec<(usize, u64)>> {
        let mut adjacency = vec![Vec::new(); self.len()];
        for (a, b, w) in self.edges() {
            adjacency[a].push((b, w));
            adjacency[b].push((a, w));
        }
        adjacency
    }

    /// Total weight crossing a partition: the sum of weights of edges
    /// whose endpoints are in different parts.
    pub fn cut_weight(&self, assignment: &[usize]) -> u64 {
        self.edges()
            .filter(|&(a, b, _)| assignment[a] != assignment[b])
            .map(|(_, _, w)| w)
            .sum()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CommGraph {
        let mut g = CommGraph::default();
        let a = g.intern("a");
        let b = g.intern("b");
        let c = g.intern("c");
        let d = g.intern("d");
        g.add_edge(a, b, 10);
        g.add_edge(b, c, 1);
        g.add_edge(c, d, 10);
        g.add_edge(a, d, 1);
        g
    }

    #[test]
    fn edges_accumulate_symmetrically() {
        let mut g = CommGraph::default();
        let a = g.intern("a");
        let b = g.intern("b");
        g.add_edge(a, b, 3);
        g.add_edge(b, a, 4);
        assert_eq!(g.weight(a, b), 7);
        assert_eq!(g.weight(b, a), 7);
        g.add_edge(a, a, 99);
        assert_eq!(g.weight(a, a), 0, "self edges ignored");
    }

    #[test]
    fn cut_weight_counts_crossings() {
        let g = diamond();
        // {a,b} | {c,d}: crossing edges bc (1) and ad (1).
        assert_eq!(g.cut_weight(&[0, 0, 1, 1]), 2);
        // {a,d} | {b,c}: crossing ab (10) and cd (10).
        assert_eq!(g.cut_weight(&[0, 1, 1, 0]), 20);
        // everything together: nothing crosses.
        assert_eq!(g.cut_weight(&[0, 0, 0, 0]), 0);
    }
}
