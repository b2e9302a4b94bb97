//! The Hamiltonian-simulation benchmark (paper Sec. IV-F).

use supermarq_circuit::Circuit;
use supermarq_sim::{Counts, Executor};

use crate::benchmark::{clamp_score, expect_counts, CircuitFamily, ScoreError, ScoringStrategy};

/// Trotterized time evolution of the driven transverse-field Ising chain of
/// paper Eq. 10:
///
/// `H(t) = -sum_i ( J_z Z_i Z_{i+1} + eps_ph cos(omega_ph t) X_i )`,
///
/// starting from `|0...0>` and scored on the average magnetization
/// `m_z = (1/N) sum_i Z_i` of the final state:
/// `1 - |<m_z>_ideal - <m_z>_measured| / 2`.
///
/// The ideal value is the noiseless expectation of the same Trotter circuit
/// (the paper's artifact does the same; the crate's Krylov evolution is
/// used in tests to confirm the Trotter error itself is small).
#[derive(Debug, Clone, PartialEq)]
pub struct HamiltonianSimBenchmark {
    n: usize,
    steps: usize,
    total_time: f64,
    j_z: f64,
    eps_ph: f64,
    omega_ph: f64,
}

impl HamiltonianSimBenchmark {
    /// Creates the benchmark on `n` spins with `steps` Trotter steps over
    /// one drive period, using the default coupling/drive constants
    /// (chosen to give nontrivial dynamics, mirroring the scale of Bassman
    /// et al.'s material-simulation study the paper adopts).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `steps == 0`.
    pub fn new(n: usize, steps: usize) -> Self {
        Self::with_parameters(n, steps, 1.0, 1.0, 3.0, 2.0 * std::f64::consts::PI)
    }

    /// Fully parameterized constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `steps == 0` or `total_time <= 0`.
    pub(crate) fn with_parameters(
        n: usize,
        steps: usize,
        total_time: f64,
        j_z: f64,
        eps_ph: f64,
        omega_ph: f64,
    ) -> Self {
        assert!(n >= 2, "need at least two spins");
        assert!(steps >= 1, "need at least one Trotter step");
        assert!(total_time > 0.0, "evolution time must be positive");
        HamiltonianSimBenchmark {
            n,
            steps,
            total_time,
            j_z,
            eps_ph,
            omega_ph,
        }
    }

    /// Builds the Trotter circuit (no measurements).
    fn trotter_circuit(&self) -> Circuit {
        let mut c = Circuit::new(self.n);
        let dt = self.total_time / self.steps as f64;
        for k in 0..self.steps {
            let t = (k as f64 + 0.5) * dt;
            let h_x = self.eps_ph * (self.omega_ph * t).cos();
            // exp(-i dt (-h_x X)) = Rx(-2 h_x dt).
            for q in 0..self.n {
                c.rx(-2.0 * h_x * dt, q);
            }
            // exp(-i dt (-J Z Z)) = Rzz(-2 J dt). Emit even bonds then odd
            // bonds so the commuting layer schedules in depth 2 (brickwork)
            // rather than serializing along the chain.
            for q in (0..self.n - 1).step_by(2) {
                c.rzz(-2.0 * self.j_z * dt, q, q + 1);
            }
            for q in (1..self.n - 1).step_by(2) {
                c.rzz(-2.0 * self.j_z * dt, q, q + 1);
            }
        }
        c
    }

    fn magnetization_of_probabilities(n: usize, probs: &[f64]) -> f64 {
        let mut mz = 0.0;
        for (idx, &p) in probs.iter().enumerate() {
            let ones = (idx as u64).count_ones() as f64;
            mz += p * (n as f64 - 2.0 * ones) / n as f64;
        }
        mz
    }

    /// The noiseless reference `<m_z>`, computed on demand from an exact
    /// simulation of the Trotter circuit (so that feature-only uses of
    /// large instances never pay the exponential cost).
    ///
    /// # Panics
    ///
    /// Panics if the instance exceeds the statevector simulator's limit.
    pub(crate) fn ideal_magnetization(&self) -> f64 {
        let psi = Executor::final_state(&self.trotter_circuit())
            .expect("trotter circuits contain no reset");
        Self::magnetization_of_probabilities(self.n, &psi.probabilities())
    }

    /// Estimates `<m_z>` from measurement counts.
    pub(crate) fn measured_magnetization(&self, counts: &Counts) -> f64 {
        let terms: Vec<(f64, u64)> = (0..self.n)
            .map(|q| (1.0 / self.n as f64, 1u64 << q))
            .collect();
        counts.expectation_z(&terms)
    }
}

impl CircuitFamily for HamiltonianSimBenchmark {
    fn name(&self) -> String {
        format!("HamSim-{}x{}", self.n, self.steps)
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn circuits(&self) -> Vec<Circuit> {
        let mut c = self.trotter_circuit();
        c.measure_all();
        vec![c]
    }
}

impl ScoringStrategy for HamiltonianSimBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 1)?;
        let measured = self.measured_magnetization(&counts[0]);
        clamp_score(1.0 - (self.ideal_magnetization() - measured).abs() / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_sim::NoiseModel;

    #[test]
    fn noiseless_score_is_one() {
        let b = HamiltonianSimBenchmark::new(4, 4);
        let counts = Executor::noiseless().run(&b.circuits()[0], 20000, 3);
        let s = b.score(&[counts]).unwrap();
        assert!(s > 0.99, "score={s}");
    }

    #[test]
    fn dynamics_are_nontrivial() {
        // The drive must move the magnetization away from the trivial 1.0.
        let b = HamiltonianSimBenchmark::new(4, 8);
        assert!(
            b.ideal_magnetization() < 0.99,
            "mz={}",
            b.ideal_magnetization()
        );
        assert!(b.ideal_magnetization() > -1.0);
    }

    #[test]
    fn trotter_error_is_small_vs_exact_krylov_dynamics() {
        // Piecewise-frozen Krylov propagation with many substeps vs the
        // coarse Trotter circuit: magnetizations must be close.
        use supermarq_pauli::tfim_hamiltonian;
        use supermarq_sim::krylov::evolve;
        use supermarq_sim::StateVector;
        let n = 4;
        let steps = 24;
        let b = HamiltonianSimBenchmark::with_parameters(
            n,
            steps,
            1.0,
            1.0,
            3.0,
            2.0 * std::f64::consts::PI,
        );
        // Reference: freeze H(t) on a much finer grid, Krylov-evolve each
        // slice exactly.
        let fine = 400;
        let dt = 1.0 / fine as f64;
        let mut psi = StateVector::zero_state(n);
        for k in 0..fine {
            let t = (k as f64 + 0.5) * dt;
            let h_x = 3.0 * (2.0 * std::f64::consts::PI * t).cos();
            let h = tfim_hamiltonian(n, 1.0, h_x);
            psi = evolve(&h, &psi, dt, 12, 1);
        }
        let exact_mz =
            HamiltonianSimBenchmark::magnetization_of_probabilities(n, &psi.probabilities());
        assert!(
            (exact_mz - b.ideal_magnetization()).abs() < 0.1,
            "krylov={exact_mz} trotter={}",
            b.ideal_magnetization()
        );
    }

    #[test]
    fn noise_lowers_score() {
        let b = HamiltonianSimBenchmark::new(4, 6);
        let circuit = &b.circuits()[0];
        let clean = b
            .score(&[Executor::noiseless().run(circuit, 8000, 5)])
            .unwrap();
        let noisy = b
            .score(&[Executor::new(NoiseModel::uniform_depolarizing(0.05)).run(circuit, 8000, 5)])
            .unwrap();
        assert!(clean > noisy, "clean={clean} noisy={noisy}");
    }

    #[test]
    fn deeper_circuits_accumulate_more_noise_damage() {
        let noise = NoiseModel::uniform_depolarizing(0.02);
        let shallow = HamiltonianSimBenchmark::new(4, 2);
        let deep = HamiltonianSimBenchmark::new(4, 12);
        let s_shallow = shallow
            .score(&[Executor::new(noise.clone()).run(&shallow.circuits()[0], 6000, 7)])
            .unwrap();
        let s_deep = deep
            .score(&[Executor::new(noise).run(&deep.circuits()[0], 6000, 7)])
            .unwrap();
        assert!(s_shallow > s_deep, "shallow={s_shallow} deep={s_deep}");
    }

    #[test]
    fn measured_magnetization_agrees_with_ideal_noiselessly() {
        let b = HamiltonianSimBenchmark::new(3, 5);
        let counts = Executor::noiseless().run(&b.circuits()[0], 50000, 11);
        let measured = b.measured_magnetization(&counts);
        assert!(
            (measured - b.ideal_magnetization()).abs() < 0.02,
            "measured={measured} ideal={}",
            b.ideal_magnetization()
        );
    }

    #[test]
    fn circuit_depth_scales_with_steps() {
        let a = HamiltonianSimBenchmark::new(4, 2).circuits()[0].depth();
        let b = HamiltonianSimBenchmark::new(4, 8).circuits()[0].depth();
        assert!(b > 3 * a);
    }
}
