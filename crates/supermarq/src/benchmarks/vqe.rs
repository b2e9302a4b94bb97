//! The VQE proxy-application (paper Sec. IV-E).

use supermarq_circuit::{Circuit, Gate};
use supermarq_classical::opt::{nelder_mead, NelderMeadOptions};
use supermarq_pauli::tfim_hamiltonian;
use supermarq_sim::{Counts, PreparedPauliSum, StateVector};

use crate::benchmark::{clamp_score, expect_counts, CircuitFamily, ScoreError, ScoringStrategy};

/// A single-iteration VQE proxy for the 1-D transverse-field Ising model at
/// the critical point (`J = h = 1`).
///
/// Following the paper's protocol, the variational optimization runs
/// entirely classically (exact statevector energies + Nelder–Mead); the
/// benchmark then executes the ansatz at the optimal parameters and
/// measures the TFIM energy in two bases — one circuit for the `ZZ` bond
/// terms and one (Hadamard-rotated) for the `X` field terms. The score is
/// `1 - |(E_ideal - E_measured) / (2 E_ideal)|`.
#[derive(Debug, Clone, PartialEq)]
pub struct VqeBenchmark {
    n: usize,
    layers: usize,
    params: Vec<f64>,
    ideal_energy: f64,
}

/// TFIM couplings used by the benchmark.
const J: f64 = 1.0;
const H_FIELD: f64 = 1.0;

impl VqeBenchmark {
    /// Creates the benchmark for `n` spins with a `layers`-deep
    /// hardware-efficient ansatz, optimizing the parameters classically.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 12` (classical optimization cost guard) or
    /// `layers == 0`.
    pub fn new(n: usize, layers: usize) -> Self {
        assert!((2..=12).contains(&n), "VQE supports 2..=12 qubits");
        assert!(layers >= 1, "need at least one ansatz layer");
        let h = PreparedPauliSum::new(&tfim_hamiltonian(n, J, H_FIELD));
        let num_params = (layers + 1) * n;
        // Deterministic, symmetry-breaking start.
        let x0: Vec<f64> = (0..num_params).map(|i| 0.1 + 0.05 * i as f64).collect();
        let (params, ideal_energy) = nelder_mead(
            |params: &[f64]| Self::ansatz_state(n, layers, params).expectation_prepared(&h),
            &x0,
            NelderMeadOptions {
                max_evals: 6000,
                f_tol: 1e-9,
                initial_step: 0.4,
            },
        );
        VqeBenchmark {
            n,
            layers,
            params,
            ideal_energy,
        }
    }

    /// The hardware-efficient ansatz: alternating Ry layers and CNOT
    /// chains, with a trailing Ry layer (paper Fig. 1g).
    fn ansatz(n: usize, layers: usize, params: &[f64]) -> Circuit {
        let mut c = Circuit::new(n);
        let mut k = 0;
        for _ in 0..layers {
            for q in 0..n {
                c.ry(params[k], q);
                k += 1;
            }
            for q in 0..n - 1 {
                c.cx(q, q + 1);
            }
        }
        for q in 0..n {
            c.ry(params[k], q);
            k += 1;
        }
        c
    }

    /// The statevector of [`Self::ansatz`] at `params`, with no circuit
    /// built: each gate goes through [`StateVector::apply_gate`] in the
    /// order `Executor::final_state` applies the ansatz after fusion, which
    /// emits each `Ry` when the first CNOT on its qubit flushes it and the
    /// last `Ry` layer in qubit order. The amplitudes are the same bit for
    /// bit.
    fn ansatz_state(n: usize, layers: usize, params: &[f64]) -> StateVector {
        let mut psi = StateVector::zero_state(n);
        for layer in params[..layers * n].chunks(n) {
            psi.apply_gate(&Gate::Ry(layer[0]), &[0]);
            for q in 0..n - 1 {
                psi.apply_gate(&Gate::Ry(layer[q + 1]), &[q + 1]);
                psi.apply_gate(&Gate::Cx, &[q, q + 1]);
            }
        }
        for (q, &theta) in params[layers * n..].iter().enumerate() {
            psi.apply_gate(&Gate::Ry(theta), &[q]);
        }
        psi
    }

    /// Estimates the TFIM energy from `(z_counts, x_counts)`.
    pub(crate) fn measured_energy(&self, z_counts: &Counts, x_counts: &Counts) -> f64 {
        let mut zz_terms = Vec::new();
        for i in 0..self.n - 1 {
            zz_terms.push((-J, (1u64 << i) | (1u64 << (i + 1))));
        }
        let bond = z_counts.expectation_z(&zz_terms);
        let mut x_terms = Vec::new();
        for i in 0..self.n {
            x_terms.push((-H_FIELD, 1u64 << i));
        }
        let field = x_counts.expectation_z(&x_terms);
        bond + field
    }
}

impl CircuitFamily for VqeBenchmark {
    fn name(&self) -> String {
        format!("VQE-{}L{}", self.n, self.layers)
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn circuits(&self) -> Vec<Circuit> {
        let mut z_basis = Self::ansatz(self.n, self.layers, &self.params);
        z_basis.measure_all();
        let mut x_basis = Self::ansatz(self.n, self.layers, &self.params);
        for q in 0..self.n {
            x_basis.h(q);
        }
        x_basis.measure_all();
        vec![z_basis, x_basis]
    }
}

impl ScoringStrategy for VqeBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 2)?;
        let measured = self.measured_energy(&counts[0], &counts[1]);
        clamp_score(1.0 - ((self.ideal_energy - measured) / (2.0 * self.ideal_energy)).abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_classical::tfim_ground_energy;
    use supermarq_sim::{Executor, NoiseModel};

    #[test]
    fn optimized_energy_approaches_exact_ground_energy() {
        let n = 4;
        let b = VqeBenchmark::new(n, 2);
        let exact = tfim_ground_energy(n, J, H_FIELD);
        assert!(b.ideal_energy >= exact - 1e-9, "variational bound violated");
        let gap = (b.ideal_energy - exact).abs();
        assert!(
            gap < 0.35,
            "ansatz energy {} vs exact {exact}",
            b.ideal_energy
        );
    }

    #[test]
    fn noiseless_score_near_one() {
        let b = VqeBenchmark::new(4, 1);
        let circuits = b.circuits();
        let z = Executor::noiseless().run(&circuits[0], 20000, 3);
        let x = Executor::noiseless().run(&circuits[1], 20000, 3);
        let s = b.score(&[z, x]).unwrap();
        assert!(s > 0.95, "score={s}");
    }

    #[test]
    fn measured_energy_matches_statevector_expectation() {
        let b = VqeBenchmark::new(3, 1);
        let circuits = b.circuits();
        let z = Executor::noiseless().run(&circuits[0], 60000, 7);
        let x = Executor::noiseless().run(&circuits[1], 60000, 7);
        let measured = b.measured_energy(&z, &x);
        assert!(
            (measured - b.ideal_energy).abs() < 0.1,
            "measured={measured} ideal={}",
            b.ideal_energy
        );
    }

    #[test]
    fn noise_degrades_score() {
        let b = VqeBenchmark::new(3, 1);
        let circuits = b.circuits();
        let noisy_exec = Executor::new(NoiseModel::uniform_depolarizing(0.08));
        let z = noisy_exec.run(&circuits[0], 8000, 5);
        let x = noisy_exec.run(&circuits[1], 8000, 5);
        let noisy = b.score(&[z, x]).unwrap();
        let clean_z = Executor::noiseless().run(&circuits[0], 8000, 5);
        let clean_x = Executor::noiseless().run(&circuits[1], 8000, 5);
        let clean = b.score(&[clean_z, clean_x]).unwrap();
        assert!(clean > noisy, "clean={clean} noisy={noisy}");
    }

    #[test]
    fn two_circuits_with_matching_structure() {
        let b = VqeBenchmark::new(4, 1);
        let circuits = b.circuits();
        assert_eq!(circuits.len(), 2);
        // X-basis circuit has n extra Hadamards.
        assert_eq!(
            circuits[1].gate_count(),
            circuits[0].gate_count() + 4,
            "basis change should add one H per qubit"
        );
    }

    #[test]
    fn ansatz_state_matches_final_state_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(26);
        for n in 2..=12 {
            let h = tfim_hamiltonian(n, J, H_FIELD);
            let prepared = PreparedPauliSum::new(&h);
            for layers in 1..=3 {
                for _ in 0..4 {
                    let params: Vec<f64> = (0..(layers + 1) * n)
                        .map(|_| rng.gen_range(-4.0..4.0))
                        .collect();
                    let oracle = Executor::final_state(&VqeBenchmark::ansatz(n, layers, &params))
                        .expect("ansatz circuits contain no reset");
                    let psi = VqeBenchmark::ansatz_state(n, layers, &params);
                    let bits = |s: &StateVector| -> Vec<(u64, u64)> {
                        s.amplitudes()
                            .iter()
                            .map(|a| (a.re.to_bits(), a.im.to_bits()))
                            .collect()
                    };
                    assert_eq!(bits(&psi), bits(&oracle), "n={n} layers={layers}");
                    assert_eq!(
                        psi.expectation_prepared(&prepared).to_bits(),
                        oracle.expectation(&h).to_bits(),
                        "n={n} layers={layers}"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = VqeBenchmark::new(3, 1);
        let b = VqeBenchmark::new(3, 1);
        assert_eq!(a.params, b.params);
    }
}
