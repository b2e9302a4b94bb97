//! SWAP-insertion routing.
//!
//! Maps a logical circuit onto a hardware topology, inserting SWAP chains
//! along shortest coupler paths whenever a two-qubit gate's operands are not
//! adjacent. This is the compiler step whose cost the paper's evaluation
//! repeatedly surfaces: the Vanilla QAOA benchmark's all-to-all ansatz
//! shreds on sparse superconducting lattices while the IonQ device routes
//! for free.

use supermarq_circuit::{Circuit, GateKind};
use supermarq_device::Topology;

/// Errors from routing. Historically these were `assert!`s/`expect`s; a
/// disconnected topology or malformed mapping now reports instead of
/// panicking, so callers (CLI, benchmark sweeps) can surface the problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The initial mapping does not have one entry per program qubit.
    MappingLengthMismatch { expected: usize, got: usize },
    /// Two program qubits share a physical qubit.
    MappingNotInjective,
    /// The mapping references a physical qubit the topology lacks.
    MappingOutOfRange { qubit: usize, num_qubits: usize },
    /// No coupler path exists between two physical qubits that must
    /// interact: the topology is disconnected across the mapped region.
    Disconnected { a: usize, b: usize },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::MappingLengthMismatch { expected, got } => {
                write!(
                    f,
                    "initial mapping has {got} entries for {expected} program qubit(s)"
                )
            }
            RouteError::MappingNotInjective => write!(f, "initial mapping must be injective"),
            RouteError::MappingOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "initial mapping uses physical qubit {qubit} of {num_qubits}"
                )
            }
            RouteError::Disconnected { a, b } => {
                write!(
                    f,
                    "topology has no coupler path between physical qubits {a} and {b}"
                )
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Validates an initial mapping against the circuit/topology sizes.
fn check_mapping(mapping: &[usize], n_prog: usize, n_phys: usize) -> Result<(), RouteError> {
    if mapping.len() != n_prog {
        return Err(RouteError::MappingLengthMismatch {
            expected: n_prog,
            got: mapping.len(),
        });
    }
    let set: std::collections::BTreeSet<usize> = mapping.iter().copied().collect();
    if set.len() != n_prog {
        return Err(RouteError::MappingNotInjective);
    }
    if let Some(&bad) = mapping.iter().find(|&&p| p >= n_phys) {
        return Err(RouteError::MappingOutOfRange {
            qubit: bad,
            num_qubits: n_phys,
        });
    }
    Ok(())
}

/// The output of routing: a physical circuit plus bookkeeping.
#[derive(Debug, Clone)]
pub struct RoutedCircuit {
    /// The circuit over physical qubits (width = device size).
    pub circuit: Circuit,
    /// Mapping program qubit -> physical qubit *at circuit start*.
    pub initial_mapping: Vec<usize>,
    /// Mapping program qubit -> physical qubit *after all gates*.
    pub final_mapping: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
    /// For each program qubit, the physical qubit its (last) measurement
    /// landed on, if it was measured.
    pub measured_on: Vec<Option<usize>>,
}

/// Routes `circuit` onto `topology` starting from `initial_mapping`
/// (program qubit -> physical qubit, injective).
///
/// # Errors
///
/// Returns a [`RouteError`] if the mapping is malformed or the topology is
/// disconnected along a required path.
pub fn route(
    circuit: &Circuit,
    topology: &Topology,
    initial_mapping: &[usize],
) -> Result<RoutedCircuit, RouteError> {
    let n_prog = circuit.num_qubits();
    let n_phys = topology.num_qubits();
    check_mapping(initial_mapping, n_prog, n_phys)?;
    let mut phys_of: Vec<usize> = initial_mapping.to_vec();
    // Inverse map: physical -> program (usize::MAX = unused).
    let mut prog_of: Vec<usize> = vec![usize::MAX; n_phys];
    for (prog, &phys) in phys_of.iter().enumerate() {
        prog_of[phys] = prog;
    }
    let mut out = Circuit::new(n_phys);
    let mut swap_count = 0usize;
    let mut measured_on: Vec<Option<usize>> = vec![None; n_prog];

    for instr in circuit.iter() {
        match instr.gate.kind() {
            GateKind::TwoQubitUnitary => {
                let (a, b) = (instr.qubits[0], instr.qubits[1]);
                let (mut pa, pb) = (phys_of[a], phys_of[b]);
                if !topology.are_adjacent(pa, pb) {
                    let path = topology
                        .shortest_path(pa, pb)
                        .ok_or(RouteError::Disconnected { a: pa, b: pb })?;
                    // Swap a's qubit along the path until adjacent to b.
                    for &next in &path[1..path.len() - 1] {
                        out.swap(pa, next);
                        swap_count += 1;
                        // Update maps: whatever lived at `next` moves to `pa`.
                        let moved_prog = prog_of[next];
                        prog_of.swap(next, pa);
                        if moved_prog != usize::MAX {
                            phys_of[moved_prog] = pa;
                        }
                        phys_of[a] = next;
                        pa = next;
                    }
                }
                out.append(instr.gate, &[phys_of[a], phys_of[b]]);
            }
            GateKind::Measurement => {
                let q = instr.qubits[0];
                measured_on[q] = Some(phys_of[q]);
                out.measure(phys_of[q]);
            }
            GateKind::Barrier => {
                let qubits: Vec<usize> = instr.qubits.iter().map(|&q| phys_of[q]).collect();
                out.barrier(&qubits);
            }
            _ => {
                out.append(instr.gate, &[phys_of[instr.qubits[0]]]);
            }
        }
    }
    Ok(RoutedCircuit {
        circuit: out,
        initial_mapping: initial_mapping.to_vec(),
        final_mapping: phys_of,
        swap_count,
        measured_on,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transpiler::relabel_counts;
    use supermarq_sim::{Counts, Executor};

    fn all_two_qubit_gates_adjacent(c: &Circuit, t: &Topology) -> bool {
        c.iter()
            .filter(|i| i.is_two_qubit())
            .all(|i| t.are_adjacent(i.qubits[0], i.qubits[1]))
    }

    #[test]
    fn adjacent_gates_route_without_swaps() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let topo = Topology::line(3);
        let routed = route(&c, &topo, &[0, 1, 2]).unwrap();
        assert_eq!(routed.swap_count, 0);
        assert!(all_two_qubit_gates_adjacent(&routed.circuit, &topo));
    }

    #[test]
    fn distant_gate_inserts_swaps() {
        let mut c = Circuit::new(4);
        c.cx(0, 3);
        let topo = Topology::line(4);
        let routed = route(&c, &topo, &[0, 1, 2, 3]).unwrap();
        assert_eq!(routed.swap_count, 2); // distance 3 -> 2 swaps
        assert!(all_two_qubit_gates_adjacent(&routed.circuit, &topo));
    }

    #[test]
    fn routed_circuit_preserves_semantics() {
        // GHZ with long-range gates on a line, then measurement; counts
        // (after relabeling) must match the unrouted circuit.
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 3).cx(3, 1).cx(1, 2).measure_all();
        let topo = Topology::line(4);
        let routed = route(&c, &topo, &[0, 1, 2, 3]).unwrap();
        assert!(all_two_qubit_gates_adjacent(&routed.circuit, &topo));
        let ideal = Executor::noiseless().run(&c, 2000, 9);
        let phys = Executor::noiseless().run(&routed.circuit, 2000, 9);
        let relabeled = relabel_counts(&phys, &routed.measured_on);
        // GHZ: only all-zeros and all-ones.
        assert_eq!(relabeled.count(0b0110), 0);
        let p_ideal = ideal.probability(0b1111);
        let p_routed = relabeled.probability(0b1111);
        assert!((p_ideal - p_routed).abs() < 0.05);
        assert!(
            relabeled.count(0) + relabeled.count(0b1111) == 2000,
            "unexpected outcomes: {relabeled}"
        );
    }

    #[test]
    fn final_mapping_tracks_swaps() {
        let mut c = Circuit::new(3);
        c.cx(0, 2);
        let topo = Topology::line(3);
        let routed = route(&c, &topo, &[0, 1, 2]).unwrap();
        assert_eq!(routed.swap_count, 1);
        // Program qubit 0 moved to physical 1.
        assert_eq!(routed.final_mapping[0], 1);
        assert_eq!(routed.final_mapping[1], 0);
        assert_eq!(routed.final_mapping[2], 2);
    }

    #[test]
    fn measurement_positions_recorded_after_movement() {
        let mut c = Circuit::new(3);
        c.x(0).cx(0, 2).measure(0);
        let topo = Topology::line(3);
        let routed = route(&c, &topo, &[0, 1, 2]).unwrap();
        // Program qubit 0 was swapped to physical 1 before measurement.
        assert_eq!(routed.measured_on[0], Some(1));
        assert_eq!(routed.measured_on[1], None);
        // Relabeling: physical bit 1 becomes program bit 0.
        let phys = Counts::from_pairs(3, [(0b010, 1)]);
        let relabeled = relabel_counts(&phys, &routed.measured_on);
        assert_eq!(relabeled, Counts::from_pairs(3, [(0b001, 1)]));
    }

    #[test]
    fn non_trivial_initial_mapping() {
        let mut c = Circuit::new(2);
        c.x(0).measure_all();
        let topo = Topology::line(4);
        let routed = route(&c, &topo, &[3, 1]).unwrap();
        let counts = Executor::noiseless().run(&routed.circuit, 10, 1);
        let relabeled = relabel_counts(&counts, &routed.measured_on);
        assert_eq!(relabeled.count(0b01), 10);
    }

    #[test]
    fn all_to_all_topology_never_swaps() {
        let mut c = Circuit::new(5);
        for a in 0..5 {
            for b in a + 1..5 {
                c.cz(a, b);
            }
        }
        let routed = route(&c, &Topology::all_to_all(5), &[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(routed.swap_count, 0);
    }

    #[test]
    fn rejects_malformed_mappings() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let topo = Topology::line(3);
        assert_eq!(
            route(&c, &topo, &[1, 1]).unwrap_err(),
            RouteError::MappingNotInjective
        );
        assert_eq!(
            route(&c, &topo, &[0]).unwrap_err(),
            RouteError::MappingLengthMismatch {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            route(&c, &topo, &[0, 5]).unwrap_err(),
            RouteError::MappingOutOfRange {
                qubit: 5,
                num_qubits: 3
            }
        );
    }

    #[test]
    fn disconnected_topology_reports_instead_of_panicking() {
        // Two disjoint couplers: 0-1 and 2-3. A gate across the components
        // can never be routed; the router must say so.
        let topo = Topology::from_edges("split", 4, &[(0, 1), (2, 3)]);
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let mapping = [0, 2]; // operands in different components
        assert_eq!(
            route(&c, &topo, &mapping).unwrap_err(),
            RouteError::Disconnected { a: 0, b: 2 }
        );
        // Same circuit confined to one component routes fine.
        let ok = route(&c, &topo, &[0, 1]).unwrap();
        assert_eq!(ok.swap_count, 0);
    }
}
