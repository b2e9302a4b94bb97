//! Initial qubit placement (program -> physical mapping).

use supermarq_circuit::{Circuit, InteractionGraph};
use supermarq_device::{Device, Topology};

/// How the transpiler chooses an initial program-to-physical mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementStrategy {
    /// Identity mapping (program qubit `i` on physical qubit `i`).
    Trivial,
    /// Connectivity-aware greedy placement: the most-connected program
    /// qubits land on the best-connected physical region, BFS-expanding so
    /// interacting program qubits sit on adjacent physical qubits where
    /// possible.
    #[default]
    Greedy,
    /// Like `Greedy`, but additionally weighs per-coupler two-qubit error
    /// rates and per-qubit readout errors from the device's calibration —
    /// the full "noise-aware qubit mapping" the Closed Division allows
    /// (Murali et al.; Tannu & Qureshi). Identical to `Greedy` on devices
    /// without calibration scatter.
    NoiseAware,
}

/// Computes an initial mapping `program qubit -> physical qubit`.
///
/// # Panics
///
/// Panics if the circuit needs more qubits than the topology has.
pub fn place(circuit: &Circuit, topology: &Topology, strategy: PlacementStrategy) -> Vec<usize> {
    let n_prog = circuit.num_qubits();
    let n_phys = topology.num_qubits();
    assert!(
        n_prog <= n_phys,
        "circuit needs {n_prog} qubits but device has only {n_phys}"
    );
    let interactions = InteractionGraph::of(circuit);
    match strategy {
        PlacementStrategy::Trivial => (0..n_prog).collect(),
        PlacementStrategy::Greedy | PlacementStrategy::NoiseAware => {
            greedy_place(circuit, topology, None, &interactions)
        }
    }
}

/// Computes an initial mapping with full device calibration available, so
/// `NoiseAware` placement can weigh per-coupler and per-qubit error rates.
///
/// # Panics
///
/// Panics if the circuit needs more qubits than the device has.
pub fn place_on_device(
    circuit: &Circuit,
    device: &Device,
    strategy: PlacementStrategy,
) -> Vec<usize> {
    let n_prog = circuit.num_qubits();
    let n_phys = device.num_qubits();
    assert!(
        n_prog <= n_phys,
        "circuit needs {n_prog} qubits but device has only {n_phys}"
    );
    let interactions = InteractionGraph::of(circuit);
    match strategy {
        PlacementStrategy::Trivial => (0..n_prog).collect(),
        PlacementStrategy::Greedy => greedy_place(circuit, device.topology(), None, &interactions),
        PlacementStrategy::NoiseAware => {
            greedy_place(circuit, device.topology(), Some(device), &interactions)
        }
    }
}

fn greedy_place(
    circuit: &Circuit,
    topology: &Topology,
    device: Option<&Device>,
    interactions: &InteractionGraph,
) -> Vec<usize> {
    let n_prog = circuit.num_qubits();
    let n_phys = topology.num_qubits();
    // Program qubit order: descending interaction degree, BFS from the
    // heaviest so consecutive placements are connected when possible.
    let mut order: Vec<usize> = Vec::with_capacity(n_prog);
    let mut visited = vec![false; n_prog];
    let adj = interactions.adjacency();
    let mut by_degree: Vec<usize> = (0..n_prog).collect();
    by_degree.sort_by_key(|&q| std::cmp::Reverse(adj[q].len()));
    for &seed in &by_degree {
        if visited[seed] {
            continue;
        }
        let mut queue = std::collections::VecDeque::from([seed]);
        visited[seed] = true;
        while let Some(q) = queue.pop_front() {
            order.push(q);
            let mut nbrs: Vec<usize> = adj[q].iter().copied().filter(|&r| !visited[r]).collect();
            nbrs.sort_by_key(|&r| std::cmp::Reverse(adj[r].len()));
            for r in nbrs {
                visited[r] = true;
                queue.push_back(r);
            }
        }
    }

    let mut mapping = vec![usize::MAX; n_prog];
    let mut used = vec![false; n_phys];
    // Hop distances from each placed program qubit's physical qubit.
    let mut distances_from: Vec<Vec<usize>> = vec![Vec::new(); n_prog];
    for &prog in &order {
        // Score each free physical qubit: prefer proximity to already-placed
        // interaction partners, then high degree (well-connected regions),
        // and — when calibration data is available — low local error rates.
        let mut best: Option<(usize, f64)> = None;
        for (phys, &phys_used) in used.iter().enumerate() {
            if phys_used {
                continue;
            }
            let mut dist_cost = 0.0;
            for &nbr in &adj[prog] {
                if mapping[nbr] != usize::MAX {
                    let d = match distances_from[nbr][phys] {
                        usize::MAX => n_phys,
                        d => d,
                    };
                    dist_cost += d as f64;
                }
            }
            let mut score = -dist_cost + 0.01 * topology.degree(phys) as f64;
            if let Some(dev) = device {
                // Error of the couplers this qubit would actually use,
                // relative to the device average (so the weight is
                // scale-free). Couplers to already-placed interaction
                // partners are the ones two-qubit gates will run on, so
                // they are weighed at full strength; for a qubit with no
                // placed partner yet (the seed of its region) the best
                // incident coupler is the one routing will lean on.
                let avg = dev.calibration().err_2q.max(1e-9);
                let mut partner_cost = 0.0;
                let mut partners = 0usize;
                for &nbr in &adj[prog] {
                    if mapping[nbr] != usize::MAX && topology.are_adjacent(phys, mapping[nbr]) {
                        partner_cost += dev.edge_error(phys, mapping[nbr]) / avg;
                        partners += 1;
                    }
                }
                if partners > 0 {
                    score -= 2.0 * partner_cost / partners as f64;
                } else {
                    let best_incident = topology
                        .neighbors(phys)
                        .iter()
                        .map(|&other| dev.edge_error(phys, other) / avg)
                        .fold(f64::INFINITY, f64::min);
                    if best_incident.is_finite() {
                        score -= 2.0 * best_incident;
                    }
                }
                let avg_ro = dev.calibration().err_meas.max(1e-9);
                score -= 0.1 * dev.qubit_readout_error(phys) / avg_ro;
            }
            if best.is_none_or(|(_, s)| score > s) {
                best = Some((phys, score));
            }
        }
        mapping[prog] = best.expect("free physical qubit exists").0;
        used[mapping[prog]] = true;
        distances_from[prog] = topology.distances_from(mapping[prog]);
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_is_identity() {
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        let m = place(&c, &Topology::line(5), PlacementStrategy::Trivial);
        assert_eq!(m, vec![0, 1, 2]);
    }

    #[test]
    fn greedy_mapping_is_injective() {
        let mut c = Circuit::new(5);
        c.cx(0, 1).cx(1, 2).cx(2, 3).cx(3, 4).cx(0, 4);
        let m = place(&c, &Topology::ibm_falcon_7q(), PlacementStrategy::Greedy);
        let set: std::collections::BTreeSet<usize> = m.iter().copied().collect();
        assert_eq!(set.len(), 5);
        assert!(m.iter().all(|&p| p < 7));
    }

    #[test]
    fn greedy_places_chain_on_adjacent_line_qubits() {
        // A 4-qubit chain circuit on a 6-qubit line: every interacting pair
        // should end up adjacent (no swaps needed).
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        let topo = Topology::line(6);
        let m = place(&c, &topo, PlacementStrategy::Greedy);
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            assert!(
                topo.are_adjacent(m[a], m[b]),
                "pair ({a},{b}) mapped to non-adjacent ({},{})",
                m[a],
                m[b]
            );
        }
    }

    #[test]
    fn greedy_hub_lands_on_high_degree_qubit() {
        // Star circuit: qubit 0 talks to everyone; on the Falcon-7 "H" it
        // should land on one of the degree-3 hubs (1 or 5).
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(0, 2).cx(0, 3);
        let m = place(&c, &Topology::ibm_falcon_7q(), PlacementStrategy::Greedy);
        assert!(m[0] == 1 || m[0] == 5, "hub placed at {}", m[0]);
    }

    #[test]
    fn noise_aware_avoids_bad_couplers() {
        use supermarq_device::{Calibration, NativeGateSet};
        // A 4-qubit line device whose (0,1) coupler is terrible; a 2-qubit
        // circuit should land on the clean end under NoiseAware placement.
        let mut circuit = Circuit::new(2);
        circuit.cx(0, 1);
        let topo = Topology::line(4);
        let cal = Calibration::from_table_row(100.0, 100.0, 0.03, 0.4, 5.0, 0.05, 1.0, 2.0);
        let device = Device::new("test", topo, cal, NativeGateSet::IbmLike, 0.0)
            .with_error_variation(11, 3.0);
        // Find the worst edge on the line and make sure NoiseAware avoids it
        // when a strictly better edge exists.
        let edges = [(0usize, 1usize), (1, 2), (2, 3)];
        let worst = edges
            .iter()
            .copied()
            .max_by(|&(a, b), &(c, d)| {
                device
                    .edge_error(a, b)
                    .partial_cmp(&device.edge_error(c, d))
                    .unwrap()
            })
            .unwrap();
        let mapping = place_on_device(&circuit, &device, PlacementStrategy::NoiseAware);
        let placed = (mapping[0].min(mapping[1]), mapping[0].max(mapping[1]));
        assert!(device.topology().are_adjacent(placed.0, placed.1));
        assert_ne!(
            placed, worst,
            "noise-aware placement chose the worst coupler"
        );
        let chosen_err = device.edge_error(placed.0, placed.1);
        let best_err = edges
            .iter()
            .map(|&(a, b)| device.edge_error(a, b))
            .fold(f64::INFINITY, f64::min);
        assert!(
            chosen_err <= best_err + 1e-12,
            "chosen {chosen_err} vs best {best_err}"
        );
    }

    #[test]
    fn noise_aware_equals_greedy_without_calibration_scatter() {
        use supermarq_device::{Calibration, NativeGateSet};
        let mut c = Circuit::new(4);
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        let cal = Calibration::from_table_row(100.0, 100.0, 0.03, 0.4, 5.0, 0.05, 1.0, 2.0);
        let device = Device::new(
            "flat",
            Topology::ibm_falcon_7q(),
            cal,
            NativeGateSet::IbmLike,
            0.0,
        );
        let greedy = place_on_device(&c, &device, PlacementStrategy::Greedy);
        let aware = place_on_device(&c, &device, PlacementStrategy::NoiseAware);
        assert_eq!(greedy, aware);
    }

    #[test]
    #[should_panic(expected = "device has only")]
    fn rejects_oversized_circuit() {
        let c = Circuit::new(8);
        place(&c, &Topology::ibm_falcon_7q(), PlacementStrategy::Greedy);
    }

    #[test]
    fn circuit_without_interactions_places_all_qubits() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).h(2);
        let m = place(&c, &Topology::line(4), PlacementStrategy::Greedy);
        let set: std::collections::BTreeSet<usize> = m.iter().copied().collect();
        assert_eq!(set.len(), 3);
    }
}
