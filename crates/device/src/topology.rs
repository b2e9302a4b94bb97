//! Hardware qubit connectivity graphs.

use supermarq_circuit::InteractionGraph;

/// A named hardware coupling graph.
///
/// # Example
///
/// ```
/// use supermarq_device::Topology;
///
/// let line = Topology::line(5);
/// assert_eq!(line.num_qubits(), 5);
/// assert!(line.are_adjacent(1, 2));
/// assert!(!line.are_adjacent(0, 4));
/// assert_eq!(line.distance(0, 4), Some(4));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    name: String,
    graph: InteractionGraph,
    /// Sorted neighbour lists of `graph`, built once.
    adjacency: Vec<Vec<usize>>,
}

impl Topology {
    /// Builds a topology from an explicit edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references an out-of-range qubit or is a self-loop.
    pub fn from_edges(
        name: impl Into<String>,
        num_qubits: usize,
        edges: &[(usize, usize)],
    ) -> Self {
        let graph = InteractionGraph::from_edges(num_qubits, edges);
        Topology {
            name: name.into(),
            adjacency: graph.adjacency(),
            graph,
        }
    }

    /// A 1-D chain of `n` qubits.
    pub fn line(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n.saturating_sub(1)).map(|i| (i, i + 1)).collect();
        Topology::from_edges(format!("line-{n}"), n, &edges)
    }

    /// A ring of `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Self {
        assert!(n >= 3, "a ring needs at least 3 qubits");
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        Topology::from_edges(format!("ring-{n}"), n, &edges)
    }

    /// A rows x cols grid.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        let mut edges = Vec::new();
        let idx = |r: usize, c: usize| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((idx(r, c), idx(r + 1, c)));
                }
            }
        }
        Topology::from_edges(format!("grid-{rows}x{cols}"), rows * cols, &edges)
    }

    /// A complete graph on `n` qubits (trapped-ion all-to-all connectivity).
    pub fn all_to_all(n: usize) -> Self {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        Topology::from_edges(format!("all-to-all-{n}"), n, &edges)
    }

    /// The IBM 7-qubit Falcon "H" layout (ibmq_casablanca, ibm_lagos, ...).
    pub fn ibm_falcon_7q() -> Self {
        Topology::from_edges(
            "ibm-falcon-7q",
            7,
            &[(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)],
        )
    }

    /// The IBM 16-qubit Falcon layout (ibmq_guadalupe).
    pub fn ibm_falcon_16q() -> Self {
        Topology::from_edges(
            "ibm-falcon-16q",
            16,
            &[
                (0, 1),
                (1, 2),
                (1, 4),
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 8),
                (6, 7),
                (7, 10),
                (8, 9),
                (8, 11),
                (10, 12),
                (11, 14),
                (12, 13),
                (12, 15),
                (13, 14),
            ],
        )
    }

    /// The IBM 27-qubit Falcon layout (ibmq_montreal, ibmq_mumbai,
    /// ibmq_toronto).
    pub fn ibm_falcon_27q() -> Self {
        Topology::from_edges(
            "ibm-falcon-27q",
            27,
            &[
                (0, 1),
                (1, 2),
                (1, 4),
                (2, 3),
                (3, 5),
                (4, 7),
                (5, 8),
                (6, 7),
                (7, 10),
                (8, 9),
                (8, 11),
                (10, 12),
                (11, 14),
                (12, 13),
                (12, 15),
                (13, 14),
                (14, 16),
                (15, 18),
                (16, 19),
                (17, 18),
                (18, 21),
                (19, 20),
                (19, 22),
                (21, 23),
                (22, 25),
                (23, 24),
                (24, 25),
                (25, 26),
            ],
        )
    }

    /// A parametric heavy-hex lattice with `rows` rows of `cells` hexagonal
    /// cells each — the pattern IBM scales its Falcon/Hummingbird/Eagle
    /// processors with. Each cell row is a horizontal chain; vertical
    /// bridge qubits connect alternating chain positions between rows.
    ///
    /// This is the forward-looking device generator the paper's
    /// "scalability" principle asks for: benchmarks can be placed on
    /// lattices of any size, not just the Table II machines.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn heavy_hex(rows: usize, cells: usize) -> Self {
        assert!(
            rows > 0 && cells > 0,
            "heavy-hex dimensions must be positive"
        );
        // Each chain row has 4*cells + 1 qubits; between consecutive chain
        // rows sit `cells + 1` bridge qubits attached at every 4th chain
        // position.
        let chain_len = 4 * cells + 1;
        let mut edges = Vec::new();
        let mut next_index = 0usize;
        let mut chain_starts = Vec::new();
        for _ in 0..rows {
            chain_starts.push(next_index);
            next_index += chain_len;
        }
        for &start in &chain_starts {
            for i in 0..chain_len - 1 {
                edges.push((start + i, start + i + 1));
            }
        }
        for r in 0..rows - 1 {
            let top = chain_starts[r];
            let bottom = chain_starts[r + 1];
            for b in 0..=cells {
                let bridge = next_index;
                next_index += 1;
                // Alternate bridge offsets between row parities, like the
                // real lattice.
                let offset = if r % 2 == 0 {
                    4 * b
                } else {
                    (4 * b + 2).min(chain_len - 1)
                };
                edges.push((top + offset, bridge));
                edges.push((bridge, bottom + offset));
            }
        }
        Topology::from_edges(format!("heavy-hex-{rows}x{cells}"), next_index, &edges)
    }

    /// Human-readable topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.graph.num_qubits()
    }

    /// Number of coupler edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// `true` if a two-qubit gate can act directly on `(a, b)`.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.graph.has_edge(a, b)
    }

    /// Coupler-graph distance (number of hops), or `None` if disconnected.
    pub fn distance(&self, a: usize, b: usize) -> Option<usize> {
        Some(self.distances_from(a)[b]).filter(|&d| d != usize::MAX)
    }

    /// Hop distance from `a` to every qubit, `usize::MAX` where
    /// disconnected: one breadth-first search.
    pub fn distances_from(&self, a: usize) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.num_qubits()];
        let mut queue = std::collections::VecDeque::from([a]);
        dist[a] = 0;
        while let Some(u) = queue.pop_front() {
            for &v in &self.adjacency[u] {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// `true` when every pair of qubits is directly coupled.
    pub fn is_fully_connected(&self) -> bool {
        let n = self.num_qubits();
        self.edge_count() == n * n.saturating_sub(1) / 2
    }

    /// Degree of physical qubit `q`.
    pub fn degree(&self, q: usize) -> usize {
        self.adjacency[q].len()
    }

    /// The qubits coupled to `q`, in ascending order.
    pub fn neighbors(&self, q: usize) -> &[usize] {
        &self.adjacency[q]
    }

    /// The underlying graph.
    pub fn graph(&self) -> &InteractionGraph {
        &self.graph
    }

    /// A shortest path between `a` and `b` (inclusive of both endpoints),
    /// or `None` if disconnected.
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        if a == b {
            return Some(vec![a]);
        }
        let mut prev = vec![usize::MAX; self.num_qubits()];
        let mut queue = std::collections::VecDeque::from([a]);
        prev[a] = a;
        while let Some(u) = queue.pop_front() {
            for &v in &self.adjacency[u] {
                if prev[v] == usize::MAX {
                    prev[v] = u;
                    if v == b {
                        let mut path = vec![b];
                        let mut cur = b;
                        while cur != a {
                            cur = prev[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_structure() {
        let t = Topology::line(4);
        assert_eq!(t.edge_count(), 3);
        assert!(t.are_adjacent(0, 1));
        assert!(!t.are_adjacent(0, 2));
        assert_eq!(t.distance(0, 3), Some(3));
        assert!(!t.is_fully_connected());
    }

    #[test]
    fn distances_on_a_path() {
        let t = Topology::line(4);
        assert_eq!(t.distances_from(1), vec![1, 0, 1, 2]);
        assert_eq!(t.distance(1, 1), Some(0));
        assert_eq!(t.neighbors(1), &[0, 2]);
        let disconnected = Topology::from_edges("pair", 4, &[(0, 1)]);
        assert_eq!(disconnected.distances_from(0)[3], usize::MAX);
        assert_eq!(disconnected.distance(0, 3), None);
        assert_eq!(disconnected.degree(3), 0);
    }

    #[test]
    fn ring_closes_the_loop() {
        let t = Topology::ring(5);
        assert_eq!(t.edge_count(), 5);
        assert!(t.are_adjacent(4, 0));
        assert_eq!(t.distance(0, 3), Some(2)); // around the back
    }

    #[test]
    fn grid_structure() {
        let t = Topology::grid(2, 3);
        assert_eq!(t.num_qubits(), 6);
        assert_eq!(t.edge_count(), 7); // 4 horizontal + 3 vertical
        assert!(t.are_adjacent(0, 3));
        assert!(!t.are_adjacent(0, 4));
    }

    #[test]
    fn all_to_all_is_complete() {
        let t = Topology::all_to_all(6);
        assert!(t.is_fully_connected());
        assert_eq!(t.edge_count(), 15);
        assert_eq!(t.distance(0, 5), Some(1));
    }

    #[test]
    fn ibm_layouts_have_expected_shape() {
        let h = Topology::ibm_falcon_7q();
        assert_eq!(h.num_qubits(), 7);
        assert_eq!(h.edge_count(), 6);
        assert_eq!(h.degree(1), 3); // hub of the H
        assert_eq!(h.degree(5), 3);
        let g = Topology::ibm_falcon_16q();
        assert_eq!(g.num_qubits(), 16);
        assert_eq!(g.edge_count(), 16);
        let m = Topology::ibm_falcon_27q();
        assert_eq!(m.num_qubits(), 27);
        assert_eq!(m.edge_count(), 28);
        // All layouts must be connected.
        for t in [h, g, m] {
            for q in 1..t.num_qubits() {
                assert!(
                    t.distance(0, q).is_some(),
                    "{} disconnected at {q}",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn shortest_path_endpoints_and_adjacency() {
        let t = Topology::ibm_falcon_16q();
        let path = t.shortest_path(0, 15).unwrap();
        assert_eq!(*path.first().unwrap(), 0);
        assert_eq!(*path.last().unwrap(), 15);
        for w in path.windows(2) {
            assert!(t.are_adjacent(w[0], w[1]));
        }
        assert_eq!(path.len() - 1, t.distance(0, 15).unwrap());
        assert_eq!(t.shortest_path(3, 3), Some(vec![3]));
    }

    #[test]
    fn heavy_hex_structure() {
        let t = Topology::heavy_hex(2, 2);
        // Two chains of 9 qubits + 3 bridges = 21 qubits.
        assert_eq!(t.num_qubits(), 21);
        // Chain edges: 2 * 8; bridge edges: 3 * 2.
        assert_eq!(t.edge_count(), 22);
        // Connected.
        for q in 1..t.num_qubits() {
            assert!(t.distance(0, q).is_some(), "disconnected at {q}");
        }
        // Degrees bounded by 3 (the heavy-hex property).
        for q in 0..t.num_qubits() {
            assert!(t.degree(q) <= 3, "degree {} at {q}", t.degree(q));
        }
    }

    #[test]
    fn heavy_hex_scales() {
        let t = Topology::heavy_hex(4, 5);
        assert!(t.num_qubits() > 80);
        for q in 1..t.num_qubits() {
            assert!(t.distance(0, q).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_ring_rejected() {
        Topology::ring(2);
    }
}
