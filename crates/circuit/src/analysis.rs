//! Structural circuit analyses: moment (layer) scheduling, liveness,
//! and the dependency-DAG critical path.
//!
//! These are the quantities the SupermarQ feature vectors (paper Sec. III-B)
//! are computed from: circuit depth `d`, the liveness matrix `A`, the number
//! of two-qubit interactions on the critical path `n_{e_d}`, and the number
//! of layers containing mid-circuit measurement/reset operations `l_mcm`.

use crate::circuit::Circuit;
use crate::gate::GateKind;

/// An as-soon-as-possible (ASAP) partition of a circuit into layers
/// ("moments" in Cirq terminology).
///
/// Every instruction is placed in the earliest layer in which all of its
/// operand qubits are free. Barriers synchronize their operand qubits but do
/// not occupy a layer and are not recorded.
///
/// # Example
///
/// ```
/// use supermarq_circuit::{Circuit, CircuitLayers};
///
/// let mut c = Circuit::new(3);
/// c.h(0).h(1).cx(0, 1).h(2);
/// let layers = CircuitLayers::of(&c);
/// assert_eq!(layers.depth(), 2); // {h0, h1, h2} then {cx}
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitLayers {
    /// `layers[i]` holds indices into `circuit.instructions()` scheduled at
    /// layer `i`.
    layers: Vec<Vec<usize>>,
}

impl CircuitLayers {
    /// Computes the ASAP layering of `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits();
        // frontier[q] = first layer index at which qubit q is free.
        let mut frontier = vec![0usize; n];
        let mut layers: Vec<Vec<usize>> = Vec::new();
        for (idx, instr) in circuit.iter().enumerate() {
            if instr.gate.kind() == GateKind::Barrier {
                let sync = instr.qubits.iter().map(|&q| frontier[q]).max().unwrap_or(0);
                for &q in &instr.qubits {
                    frontier[q] = sync;
                }
                continue;
            }
            let layer = instr.qubits.iter().map(|&q| frontier[q]).max().unwrap_or(0);
            if layer == layers.len() {
                layers.push(Vec::new());
            }
            layers[layer].push(idx);
            for &q in &instr.qubits {
                frontier[q] = layer + 1;
            }
        }
        CircuitLayers { layers }
    }

    /// The circuit depth `d`: the number of non-empty layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Instruction indices scheduled at each layer, in layer order.
    pub fn layers(&self) -> &[Vec<usize>] {
        &self.layers
    }

    /// Number of layers containing a *mid-circuit* measurement or reset —
    /// the `l_mcm` of Eq. 6.
    ///
    /// A measurement or reset is mid-circuit when its qubit is operated on
    /// again later in the program; a terminal readout is not. The GHZ
    /// benchmark, which only measures at the very end, has `l_mcm = 0`,
    /// while the error-correction proxy-applications, which measure and
    /// reset ancillas between rounds, have `l_mcm > 0`.
    pub fn mid_circuit_measurement_layers(&self, circuit: &Circuit) -> usize {
        let instrs = circuit.instructions();
        // last_op[q] = index of the last non-barrier instruction touching q.
        let mut last_op = vec![usize::MAX; circuit.num_qubits()];
        for (i, instr) in instrs.iter().enumerate() {
            if instr.gate.kind() == GateKind::Barrier {
                continue;
            }
            for &q in &instr.qubits {
                last_op[q] = i;
            }
        }
        self.layers
            .iter()
            .filter(|layer| {
                layer.iter().any(|&i| {
                    matches!(
                        instrs[i].gate.kind(),
                        GateKind::Measurement | GateKind::Reset
                    ) && instrs[i].qubits.iter().any(|&q| last_op[q] > i)
                })
            })
            .count()
    }
}

impl Circuit {
    /// The circuit depth: number of layers in the ASAP schedule.
    ///
    /// Convenience for `CircuitLayers::of(self).depth()`.
    ///
    /// # Example
    ///
    /// ```
    /// use supermarq_circuit::Circuit;
    ///
    /// let mut c = Circuit::new(2);
    /// c.h(0).h(1).cx(0, 1);
    /// assert_eq!(c.depth(), 2);
    /// ```
    pub fn depth(&self) -> usize {
        CircuitLayers::of(self).depth()
    }
}

/// The qubit-by-layer liveness matrix `A` of Eq. 5: `A[q][t] = 1` when qubit
/// `q` participates in an operation during layer `t`.
#[derive(Debug, Clone, PartialEq)]
pub struct LivenessMatrix {
    live: Vec<Vec<bool>>, // [qubit][layer]
}

impl LivenessMatrix {
    /// Builds the liveness matrix from a precomputed layering.
    pub fn from_layers(circuit: &Circuit, layers: &CircuitLayers) -> Self {
        let n = circuit.num_qubits();
        let d = layers.depth();
        let mut live = vec![vec![false; d]; n];
        let instrs = circuit.instructions();
        for (t, layer) in layers.layers().iter().enumerate() {
            for &i in layer {
                for &q in &instrs[i].qubits {
                    live[q][t] = true;
                }
            }
        }
        LivenessMatrix { live }
    }

    /// Number of qubits (rows).
    pub(crate) fn num_qubits(&self) -> usize {
        self.live.len()
    }

    /// Circuit depth (columns).
    pub(crate) fn depth(&self) -> usize {
        self.live.first().map_or(0, Vec::len)
    }

    /// Sum over all entries of the matrix (`sum_ij A_ij` in Eq. 5).
    pub(crate) fn total_live(&self) -> usize {
        self.live
            .iter()
            .map(|row| row.iter().filter(|&&b| b).count())
            .sum()
    }

    /// The liveness fraction `L = sum_ij A_ij / (n d)`, or 0 for an empty
    /// circuit.
    pub fn fraction(&self) -> f64 {
        let n = self.num_qubits();
        let d = self.depth();
        if n == 0 || d == 0 {
            return 0.0;
        }
        self.total_live() as f64 / (n as f64 * d as f64)
    }
}

/// Critical-path statistics of the circuit dependency DAG.
///
/// The DAG has one node per non-barrier instruction with an edge from each
/// instruction to the next instruction touching any of the same qubits. The
/// critical path is the longest node chain; among all longest chains we
/// report the one maximizing the number of two-qubit gates, which makes the
/// statistic deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPathInfo {
    /// Length of the longest dependency chain (equals the ASAP depth).
    pub length: usize,
    /// Number of two-qubit gates on the critical path (`n_{e_d}` of Eq. 2).
    pub two_qubit_on_path: usize,
    /// Total number of two-qubit gates in the circuit (`n_e` of Eq. 2).
    pub two_qubit_total: usize,
}

impl CriticalPathInfo {
    /// Computes critical-path statistics for `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits();
        // For each qubit, the (chain length, 2q count) of the last
        // instruction that touched it.
        let mut frontier_len = vec![0usize; n];
        let mut frontier_two = vec![0usize; n];
        let mut best_len = 0usize;
        let mut best_two = 0usize;
        let mut total_two = 0usize;
        for instr in circuit.iter() {
            if instr.gate.kind() == GateKind::Barrier {
                // Barrier synchronizes chain lengths without adding a node.
                let len = instr
                    .qubits
                    .iter()
                    .map(|&q| frontier_len[q])
                    .max()
                    .unwrap_or(0);
                let two = instr
                    .qubits
                    .iter()
                    .filter(|&&q| frontier_len[q] == len)
                    .map(|&q| frontier_two[q])
                    .max()
                    .unwrap_or(0);
                for &q in &instr.qubits {
                    frontier_len[q] = len;
                    frontier_two[q] = two;
                }
                continue;
            }
            let is_two = instr.is_two_qubit();
            if is_two {
                total_two += 1;
            }
            let pred_len = instr
                .qubits
                .iter()
                .map(|&q| frontier_len[q])
                .max()
                .unwrap_or(0);
            let pred_two = instr
                .qubits
                .iter()
                .filter(|&&q| frontier_len[q] == pred_len)
                .map(|&q| frontier_two[q])
                .max()
                .unwrap_or(0);
            let len = pred_len + 1;
            let two = pred_two + usize::from(is_two);
            for &q in &instr.qubits {
                frontier_len[q] = len;
                frontier_two[q] = two;
            }
            if len > best_len || (len == best_len && two > best_two) {
                best_len = len;
                best_two = two;
            }
        }
        CriticalPathInfo {
            length: best_len,
            two_qubit_on_path: best_two,
            two_qubit_total: total_two,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layering_packs_parallel_gates() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2).cx(0, 1).h(2);
        let layers = CircuitLayers::of(&c);
        assert_eq!(layers.depth(), 2);
        assert_eq!(layers.layers()[0].len(), 3);
        assert_eq!(layers.layers()[1].len(), 2);
    }

    #[test]
    fn ghz_ladder_depth_is_sequential() {
        let n = 5;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        let layers = CircuitLayers::of(&c);
        assert_eq!(layers.depth(), n); // h + (n-1) chained CNOTs
    }

    #[test]
    fn barrier_synchronizes_without_taking_a_layer() {
        let mut c = Circuit::new(2);
        c.h(0).barrier_all().h(1);
        // Without the barrier h(1) would land in layer 0; the barrier pushes
        // it to layer 1.
        let layers = CircuitLayers::of(&c);
        assert_eq!(layers.depth(), 2);
        let mut c2 = Circuit::new(2);
        c2.h(0).h(1);
        assert_eq!(CircuitLayers::of(&c2).depth(), 1);
    }

    #[test]
    fn terminal_measurements_are_not_mid_circuit() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let layers = CircuitLayers::of(&c);
        assert_eq!(layers.mid_circuit_measurement_layers(&c), 0);
    }

    #[test]
    fn mid_circuit_measure_and_reset_counts() {
        let mut c = Circuit::new(2);
        c.h(0).measure(1).reset(1).cx(0, 1).measure_all();
        let layers = CircuitLayers::of(&c);
        // measure(1) layer and reset(1) layer both precede the cx.
        assert_eq!(layers.mid_circuit_measurement_layers(&c), 2);
    }

    #[test]
    fn liveness_of_fully_dense_circuit_is_one() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cx(0, 1);
        let live = LivenessMatrix::from_layers(&c, &CircuitLayers::of(&c));
        assert_eq!(live.depth(), 2);
        assert!((live.fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn liveness_counts_idle_qubits() {
        let mut c = Circuit::new(2);
        c.h(0).h(0); // qubit 1 always idle
        let live = LivenessMatrix::from_layers(&c, &CircuitLayers::of(&c));
        assert_eq!(live.total_live(), 2);
        assert!((live.fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_circuit_liveness_zero() {
        let c = Circuit::new(3);
        let live = LivenessMatrix::from_layers(&c, &CircuitLayers::of(&c));
        assert_eq!(live.fraction(), 0.0);
        assert_eq!(live.depth(), 0);
    }

    #[test]
    fn critical_path_of_serial_circuit() {
        // h - cx - cx ladder is fully serialized: every 2q gate on the path.
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2);
        let cp = CriticalPathInfo::of(&c);
        assert_eq!(cp.length, 3);
        assert_eq!(cp.two_qubit_on_path, 2);
        assert_eq!(cp.two_qubit_total, 2);
    }

    #[test]
    fn critical_path_of_parallel_two_qubit_gates() {
        // Two disjoint CNOTs in parallel: path length 1, only one on the path.
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(2, 3);
        let cp = CriticalPathInfo::of(&c);
        assert_eq!(cp.length, 1);
        assert_eq!(cp.two_qubit_on_path, 1);
        assert_eq!(cp.two_qubit_total, 2);
    }

    #[test]
    fn critical_path_prefers_two_qubit_rich_chain() {
        // Two chains of equal length; one has more 2q gates.
        let mut c = Circuit::new(4);
        // Chain A on q0: three 1q gates (length 3, 0 two-qubit).
        c.h(0).s(0).t(0);
        // Chain B on q1..q3: cx, cx, h (length 3, 2 two-qubit).
        c.cx(1, 2).cx(2, 3).h(3);
        let cp = CriticalPathInfo::of(&c);
        assert_eq!(cp.length, 3);
        assert_eq!(cp.two_qubit_on_path, 2);
    }

    #[test]
    fn critical_path_length_matches_depth() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(2, 3).cx(1, 2).measure_all();
        let cp = CriticalPathInfo::of(&c);
        let layers = CircuitLayers::of(&c);
        assert_eq!(cp.length, layers.depth());
    }
}
