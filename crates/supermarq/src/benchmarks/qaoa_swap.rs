//! The ZZ-SWAP-network QAOA proxy-application (paper Sec. IV-D).

use supermarq_circuit::Circuit;
use supermarq_classical::maxcut::sk_weights;
use supermarq_classical::qaoa::qaoa_p1_optimize;
use supermarq_sim::Counts;

use crate::benchmark::{expect_counts, CircuitFamily, ScoreError, ScoringStrategy};
use crate::benchmarks::qaoa_vanilla::QaoaVanillaBenchmark;

/// Level-1 QAOA on the same SK instances as
/// [`QaoaVanillaBenchmark`], but with the SWAP-network ansatz
/// (Kivlichan et al.): `n` layers of nearest-neighbor ZZ-SWAP blocks
/// realize all `n(n-1)/2` interactions in `O(n)` depth using only linear
/// connectivity — the hardware-friendly variant the paper contrasts with
/// the vanilla ansatz in Figs. 2g/2h.
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaSwapBenchmark {
    n: usize,
    seed: u64,
    weights: Vec<f64>,
    gamma: f64,
    beta: f64,
    ideal_energy: f64,
    /// `wire_to_logical[w]` = logical qubit sitting on wire `w` at the end.
    final_permutation: Vec<usize>,
}

impl QaoaSwapBenchmark {
    /// Creates the benchmark on `n` qubits for SK instance `seed` (same
    /// instance and same optimized parameters as the vanilla variant).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "QAOA needs at least two qubits");
        let weights = sk_weights(n, seed);
        let ((gamma, beta), ideal_energy) = qaoa_p1_optimize(n, &weights);
        // Precompute the permutation: n layers of adjacent swaps reverse a
        // line when n layers of the brick pattern run.
        let mut perm: Vec<usize> = (0..n).collect();
        for layer in 0..n {
            let start = layer % 2;
            let mut i = start;
            while i + 1 < n {
                perm.swap(i, i + 1);
                i += 2;
            }
        }
        QaoaSwapBenchmark {
            n,
            seed,
            weights,
            gamma,
            beta,
            ideal_energy,
            final_permutation: perm,
        }
    }

    /// Coupling weight between logical qubits `u` and `v`.
    fn weight(&self, u: usize, v: usize) -> f64 {
        let (a, b) = (u.min(v), u.max(v));
        let idx = a * self.n - a * (a + 1) / 2 + (b - a - 1);
        self.weights[idx]
    }

    /// Estimates `<H>` from Z-basis counts measured in *wire* order,
    /// mapping back through the final permutation.
    pub(crate) fn measured_energy(&self, counts: &Counts) -> f64 {
        // wire_of_logical: inverse of final_permutation.
        let mut wire_of = vec![0usize; self.n];
        for (wire, &logical) in self.final_permutation.iter().enumerate() {
            wire_of[logical] = wire;
        }
        let mut terms = Vec::new();
        for u in 0..self.n {
            for v in u + 1..self.n {
                terms.push((
                    self.weight(u, v),
                    (1u64 << wire_of[u]) | (1u64 << wire_of[v]),
                ));
            }
        }
        counts.expectation_z(&terms)
    }
}

impl CircuitFamily for QaoaSwapBenchmark {
    fn name(&self) -> String {
        format!("QAOA-ZZSwap-{}s{}", self.n, self.seed)
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn circuits(&self) -> Vec<Circuit> {
        let n = self.n;
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        // SWAP network: track which logical qubit sits on each wire.
        let mut logical: Vec<usize> = (0..n).collect();
        for layer in 0..n {
            let start = layer % 2;
            let mut i = start;
            while i + 1 < n {
                let (u, v) = (logical[i], logical[i + 1]);
                c.rzz(2.0 * self.gamma * self.weight(u, v), i, i + 1);
                c.swap(i, i + 1);
                logical.swap(i, i + 1);
                i += 2;
            }
        }
        // Score interpretation depends on this permutation, so check it in
        // release builds too (it used to be a debug_assert).
        assert_eq!(
            logical, self.final_permutation,
            "SWAP network permutation disagrees with the precomputed one"
        );
        for q in 0..n {
            c.rx(2.0 * self.beta, q);
        }
        c.measure_all();
        vec![c]
    }
}

impl ScoringStrategy for QaoaSwapBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 1)?;
        QaoaVanillaBenchmark::energy_score(self.ideal_energy, self.measured_energy(&counts[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use crate::features::FeatureVector;
    use supermarq_sim::Executor;

    #[test]
    fn swap_network_covers_every_pair() {
        // After n brick layers every logical pair must have been adjacent
        // exactly once.
        for n in [3, 4, 5, 6] {
            let mut logical: Vec<usize> = (0..n).collect();
            let mut seen = std::collections::BTreeSet::new();
            for layer in 0..n {
                let start = layer % 2;
                let mut i = start;
                while i + 1 < n {
                    let (u, v) = (logical[i], logical[i + 1]);
                    seen.insert((u.min(v), u.max(v)));
                    logical.swap(i, i + 1);
                    i += 2;
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn noiseless_energy_matches_vanilla_ansatz() {
        // Both ansatzes realize the same unitary up to qubit relabeling, so
        // the measured energies must agree.
        let n = 4;
        let seed = 5;
        let swap = QaoaSwapBenchmark::new(n, seed);
        let vanilla = QaoaVanillaBenchmark::new(n, seed);
        let counts_swap = Executor::noiseless().run(&swap.circuits()[0], 60000, 3);
        let counts_van = Executor::noiseless().run(&vanilla.circuits()[0], 60000, 3);
        let e_swap = swap.measured_energy(&counts_swap);
        let e_van = vanilla.measured_energy(&counts_van);
        assert!(
            (e_swap - e_van).abs() < 0.15,
            "swap={e_swap} vanilla={e_van}"
        );
        assert!((e_swap - swap.ideal_energy).abs() < 0.15);
    }

    #[test]
    fn noiseless_score_near_one() {
        let b = QaoaSwapBenchmark::new(5, 42);
        let counts = Executor::noiseless().run(&b.circuits()[0], 20000, 9);
        let s = b.score(&[counts]).unwrap();
        assert!(s > 0.95, "score={s}");
    }

    #[test]
    fn ansatz_is_nearest_neighbor_only() {
        let b = QaoaSwapBenchmark::new(5, 1);
        for instr in b.circuits()[0].iter().filter(|i| i.is_two_qubit()) {
            let d = instr.qubits[0].abs_diff(instr.qubits[1]);
            assert_eq!(d, 1, "non-adjacent 2q gate {:?}", instr.qubits);
        }
        // Communication feature: line graph, much sparser than vanilla.
        let f = FeatureVector::of(&b.circuits()[0]);
        let vanilla = QaoaVanillaBenchmark::new(5, 1).features();
        assert!(f.program_communication < vanilla.program_communication);
    }

    #[test]
    fn swap_depth_scales_linearly() {
        // Depth of the swap-network grows O(n) while vanilla grows O(n^2)
        // on sparse hardware; logically vanilla is also shallow, so compare
        // 2q counts instead: both have n(n-1)/2 rzz but swap adds swaps.
        let n = 6;
        let b = QaoaSwapBenchmark::new(n, 2);
        let c = &b.circuits()[0];
        let rzz_count = c
            .iter()
            .filter(|i| matches!(i.gate, supermarq_circuit::Gate::Rzz(_)))
            .count();
        assert_eq!(rzz_count, n * (n - 1) / 2);
    }
}
