//! The qubit interaction graph of a circuit.
//!
//! The Program Communication feature (paper Eq. 1) is the normalized average
//! degree of this graph: vertices are qubits, with an edge between every
//! pair of qubits that interact through a multi-qubit operation.

use crate::circuit::Circuit;
use std::collections::BTreeSet;

/// Undirected interaction graph over the qubits of a circuit.
///
/// # Example
///
/// ```
/// use supermarq_circuit::{Circuit, InteractionGraph};
///
/// let mut c = Circuit::new(3);
/// c.cx(0, 1).cx(1, 2).cx(1, 2); // repeated edge counted once
/// let g = InteractionGraph::of(&c);
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(2, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InteractionGraph {
    num_qubits: usize,
    /// Sorted, deduplicated edge set with `a < b`.
    edges: BTreeSet<(usize, usize)>,
}

impl InteractionGraph {
    /// Builds the interaction graph of `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let mut edges = BTreeSet::new();
        for instr in circuit.iter() {
            if instr.is_two_qubit() {
                let (a, b) = (instr.qubits[0], instr.qubits[1]);
                edges.insert((a.min(b), a.max(b)));
            }
        }
        InteractionGraph {
            num_qubits: circuit.num_qubits(),
            edges,
        }
    }

    /// Constructs a graph directly from an edge list (used in tests and by
    /// topology code).
    pub fn from_edges(num_qubits: usize, edge_list: &[(usize, usize)]) -> Self {
        let mut edges = BTreeSet::new();
        for &(a, b) in edge_list {
            assert!(
                a < num_qubits && b < num_qubits && a != b,
                "invalid edge ({a},{b})"
            );
            edges.insert((a.min(b), a.max(b)));
        }
        InteractionGraph { num_qubits, edges }
    }

    /// Number of vertices.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of distinct interaction edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over the edges as `(low, high)` pairs in sorted order.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// `true` if qubits `a` and `b` share an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edges.contains(&(a.min(b), a.max(b)))
    }

    /// Sum of all vertex degrees (twice the edge count).
    pub(crate) fn degree_sum(&self) -> usize {
        2 * self.edges.len()
    }

    /// The Program Communication value of Eq. 1:
    /// `sum_i d(q_i) / (N (N - 1))`.
    ///
    /// Returns 0 for circuits with fewer than two qubits.
    pub fn normalized_average_degree(&self) -> f64 {
        let n = self.num_qubits;
        if n < 2 {
            return 0.0;
        }
        self.degree_sum() as f64 / (n as f64 * (n as f64 - 1.0))
    }

    /// Adjacency lists, sorted.
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.num_qubits];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        adj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_circuit_is_a_path_graph() {
        let n = 6;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        let g = InteractionGraph::of(&c);
        assert_eq!(g.edge_count(), n - 1);
        assert!(g.has_edge(0, 1) && !g.has_edge(0, 2));
        assert!(g.has_edge(1, 2) && g.has_edge(2, 3));
        // Path graph: sum deg = 2(n-1); normalized = 2(n-1)/(n(n-1)) = 2/n.
        assert!((g.normalized_average_degree() - 2.0 / n as f64).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_has_communication_one() {
        let n = 5;
        let mut c = Circuit::new(n);
        for a in 0..n {
            for b in a + 1..n {
                c.cz(a, b);
            }
        }
        let g = InteractionGraph::of(&c);
        assert!((g.normalized_average_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_interactions_count_once() {
        let mut c = Circuit::new(2);
        c.cx(0, 1).cx(1, 0).cz(0, 1);
        let g = InteractionGraph::of(&c);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn one_qubit_gates_create_no_edges() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).measure_all();
        let g = InteractionGraph::of(&c);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.normalized_average_degree(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid edge")]
    fn from_edges_rejects_self_loop() {
        InteractionGraph::from_edges(3, &[(1, 1)]);
    }

    #[test]
    fn single_qubit_circuit_communication_zero() {
        let mut c = Circuit::new(1);
        c.h(0);
        let g = InteractionGraph::of(&c);
        assert_eq!(g.normalized_average_degree(), 0.0);
    }
}
