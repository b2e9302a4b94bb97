//! The Vanilla QAOA proxy-application (paper Sec. IV-D).

use supermarq_circuit::Circuit;
use supermarq_classical::maxcut::sk_weights;
use supermarq_classical::qaoa::qaoa_p1_optimize;
use supermarq_sim::Counts;

use crate::benchmark::{clamp_score, expect_counts, CircuitFamily, ScoreError, ScoringStrategy};

/// Level-1 QAOA for MaxCut on a Sherrington–Kirkpatrick instance (complete
/// graph, +-1 weights) using the *vanilla* ansatz, whose `rzz` layer
/// requires all-to-all connectivity — the benchmark that most punishes
/// sparse superconducting lattices in the paper's Fig. 2h.
///
/// Following the paper's proxy protocol, the optimal `(gamma, beta)` are
/// found classically (the p=1 energy has a closed form) and a single
/// circuit at those parameters is executed. The score compares measured
/// and ideal energies:
/// `1 - |(<H>_ideal - <H>_measured) / (2 <H>_ideal)|`.
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaVanillaBenchmark {
    n: usize,
    seed: u64,
    weights: Vec<f64>,
    gamma: f64,
    beta: f64,
    ideal_energy: f64,
}

impl QaoaVanillaBenchmark {
    /// Creates an SK instance on `n` qubits with couplings drawn from
    /// `seed`, classically optimizing the level-1 parameters.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2, "QAOA needs at least two qubits");
        let weights = sk_weights(n, seed);
        let ((gamma, beta), ideal_energy) = qaoa_p1_optimize(n, &weights);
        QaoaVanillaBenchmark {
            n,
            seed,
            weights,
            gamma,
            beta,
            ideal_energy,
        }
    }

    /// The optimized `(gamma, beta)`.
    pub fn parameters(&self) -> (f64, f64) {
        (self.gamma, self.beta)
    }

    /// The classically exact `<H>` at the optimum.
    pub fn ideal_energy(&self) -> f64 {
        self.ideal_energy
    }

    /// Estimates `<H>` from Z-basis counts.
    pub(crate) fn measured_energy(&self, counts: &Counts) -> f64 {
        let mut terms = Vec::new();
        let mut k = 0;
        for u in 0..self.n {
            for v in u + 1..self.n {
                terms.push((self.weights[k], (1u64 << u) | (1u64 << v)));
                k += 1;
            }
        }
        counts.expectation_z(&terms)
    }

    /// The score given measured energy (shared with the ZZ-SWAP variant).
    pub(crate) fn energy_score(ideal: f64, measured: f64) -> Result<f64, ScoreError> {
        clamp_score(1.0 - ((ideal - measured) / (2.0 * ideal)).abs())
    }
}

/// Enumerates all pairs of `0..n` in circle-method (round-robin
/// tournament) order: consecutive pairs within a round are disjoint, so a
/// moment scheduler packs each round into one layer.
fn round_robin_pairs(n: usize) -> Vec<(usize, usize)> {
    // Pad to even with a dummy vertex whose pairings are skipped.
    let m = if n.is_multiple_of(2) { n } else { n + 1 };
    let mut pairs = Vec::with_capacity(n * (n - 1) / 2);
    for round in 0..m - 1 {
        let push = |pairs: &mut Vec<(usize, usize)>, a: usize, b: usize| {
            if a < n && b < n {
                pairs.push((a, b));
            }
        };
        push(&mut pairs, round, m - 1);
        for k in 1..m / 2 {
            let a = (round + k) % (m - 1);
            let b = (round + m - 1 - k) % (m - 1);
            push(&mut pairs, a, b);
        }
    }
    pairs
}

impl CircuitFamily for QaoaVanillaBenchmark {
    fn name(&self) -> String {
        format!("QAOA-Vanilla-{}s{}", self.n, self.seed)
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn circuits(&self) -> Vec<Circuit> {
        let mut c = Circuit::new(self.n);
        for q in 0..self.n {
            c.h(q);
        }
        // All rzz terms commute; emit them in round-robin (circle method)
        // rounds so each round is a disjoint matching and the phase
        // separator schedules in O(n) depth — the parallel layering a
        // moment-based compiler would produce.
        for (u, v) in round_robin_pairs(self.n) {
            let (a, b) = (u.min(v), u.max(v));
            let idx = a * self.n - a * (a + 1) / 2 + (b - a - 1);
            // e^{-i gamma w Z_u Z_v} = Rzz(2 gamma w).
            c.rzz(2.0 * self.gamma * self.weights[idx], u, v);
        }
        for q in 0..self.n {
            c.rx(2.0 * self.beta, q);
        }
        c.measure_all();
        vec![c]
    }
}

impl ScoringStrategy for QaoaVanillaBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 1)?;
        Self::energy_score(self.ideal_energy, self.measured_energy(&counts[0]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;
    use supermarq_classical::qaoa::qaoa_p1_energy;
    use supermarq_sim::{Executor, NoiseModel};

    #[test]
    fn noiseless_score_near_one() {
        for n in [3, 5] {
            let b = QaoaVanillaBenchmark::new(n, 42);
            let counts = Executor::noiseless().run(&b.circuits()[0], 20000, 2);
            let s = b.score(&[counts]).unwrap();
            assert!(s > 0.95, "n={n} score={s}");
        }
    }

    #[test]
    fn measured_energy_converges_to_analytic_optimum() {
        let b = QaoaVanillaBenchmark::new(4, 7);
        let counts = Executor::noiseless().run(&b.circuits()[0], 50000, 13);
        let measured = b.measured_energy(&counts);
        assert!(
            (measured - b.ideal_energy()).abs() < 0.1,
            "measured={measured} ideal={}",
            b.ideal_energy()
        );
    }

    #[test]
    fn optimal_energy_is_negative_and_bounded_by_ground_state() {
        use supermarq_classical::maxcut::min_ising_energy;
        for seed in [1, 2, 3] {
            let b = QaoaVanillaBenchmark::new(5, seed);
            let (e_min, _) = min_ising_energy(5, &b.weights);
            assert!(b.ideal_energy() < 0.0, "seed={seed}");
            assert!(b.ideal_energy() >= e_min - 1e-9, "seed={seed}");
        }
    }

    #[test]
    fn analytic_energy_matches_parameters() {
        let b = QaoaVanillaBenchmark::new(4, 9);
        let (g, beta) = b.parameters();
        let e = qaoa_p1_energy(4, &b.weights, g, beta);
        assert!((e - b.ideal_energy()).abs() < 1e-9);
    }

    #[test]
    fn depolarizing_noise_pushes_energy_toward_zero() {
        // Heavy depolarizing noise mixes the state, driving <H> -> 0 and
        // the score toward 0.5.
        let b = QaoaVanillaBenchmark::new(4, 11);
        let circuit = &b.circuits()[0];
        let noisy = Executor::new(NoiseModel::uniform_depolarizing(0.3)).run(circuit, 8000, 4);
        let e = b.measured_energy(&noisy);
        assert!(e.abs() < b.ideal_energy().abs() * 0.7, "e={e}");
        let s = b.score(&[noisy]).unwrap();
        assert!(s < 0.9);
    }

    #[test]
    fn round_robin_covers_all_pairs_once() {
        for n in [3usize, 4, 5, 6, 9] {
            let pairs = round_robin_pairs(n);
            assert_eq!(pairs.len(), n * (n - 1) / 2, "n={n}");
            let set: std::collections::BTreeSet<(usize, usize)> =
                pairs.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
            assert_eq!(set.len(), pairs.len(), "n={n}: duplicate pair");
        }
    }

    #[test]
    fn phase_separator_depth_is_linear() {
        // Round-robin ordering: the n(n-1)/2 rzz gates schedule in ~n
        // layers, not n(n-1)/2.
        let b = QaoaVanillaBenchmark::new(8, 1);
        let depth = b.circuits()[0].depth();
        assert!(depth < 20, "depth={depth}");
    }

    #[test]
    fn instance_determinism() {
        let a = QaoaVanillaBenchmark::new(5, 3);
        let b = QaoaVanillaBenchmark::new(5, 3);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.parameters(), b.parameters());
    }

    #[test]
    fn vanilla_ansatz_is_all_to_all() {
        let b = QaoaVanillaBenchmark::new(5, 1);
        let f = b.features();
        assert!((f.program_communication - 1.0).abs() < 1e-12);
    }
}
