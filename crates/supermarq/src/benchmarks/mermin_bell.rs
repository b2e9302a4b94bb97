//! The Mermin–Bell inequality benchmark (paper Sec. IV-B).

use supermarq_circuit::Circuit;
use supermarq_clifford::{diagonalize, Diagonalization};
use supermarq_pauli::mermin_operator;
use supermarq_sim::Counts;

use crate::benchmark::{clamp_score, expect_counts, CircuitFamily, ScoreError, ScoringStrategy};

/// Prepares the phased GHZ state `(|0...0> + i|1...1>)/sqrt(2)`, rotates
/// into the shared eigenbasis of the Mermin operator (Eq. 7) with a
/// synthesized Clifford circuit, and measures every term simultaneously.
///
/// The score is `(<M> + 2^{n-1}) / 2^n` — 1 for the ideal quantum value
/// `<M> = 2^{n-1}` (Eq. 8), and at most
/// `(2^{(n - n mod 2)/2} + 2^{n-1}) / 2^n` for any local-hidden-variable
/// theory (Eq. 9).
///
/// # Example
///
/// ```
/// use supermarq::benchmarks::MerminBellBenchmark;
/// use supermarq::{CircuitFamily, ScoringStrategy};
/// use supermarq_sim::Executor;
///
/// let b = MerminBellBenchmark::new(3);
/// let counts = Executor::noiseless().run(&b.circuits()[0], 4000, 2);
/// assert!(b.score(&[counts]).unwrap() > 0.98);
/// ```
#[derive(Debug, Clone)]
pub struct MerminBellBenchmark {
    n: usize,
    diag: Diagonalization,
    coefficients: Vec<f64>,
}

impl MerminBellBenchmark {
    /// Creates the benchmark for `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `n > 16` (the Mermin operator has `2^{n-1}`
    /// terms; the basis-change synthesis is polynomial but term
    /// *enumeration* is not).
    pub fn new(n: usize) -> Self {
        assert!((2..=16).contains(&n), "Mermin-Bell supports 2..=16 qubits");
        let operator = mermin_operator(n);
        let strings: Vec<_> = operator.iter().map(|(_, p)| p.clone()).collect();
        let coefficients: Vec<f64> = operator.iter().map(|(c, _)| c).collect();
        let diag = diagonalize(&strings).expect("Mermin terms mutually commute");
        MerminBellBenchmark {
            n,
            diag,
            coefficients,
        }
    }

    /// Estimates `<M>` from measurement counts in the rotated basis.
    pub(crate) fn mermin_expectation(&self, counts: &Counts) -> f64 {
        let terms: Vec<(f64, u64)> = self
            .coefficients
            .iter()
            .zip(&self.diag.diagonal_terms)
            .map(|(&c, &(sign, mask))| (c * sign, mask))
            .collect();
        counts.expectation_z(&terms)
    }
}

impl CircuitFamily for MerminBellBenchmark {
    fn name(&self) -> String {
        format!("MerminBell-{}", self.n)
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn circuits(&self) -> Vec<Circuit> {
        let mut c = Circuit::new(self.n);
        // Phased GHZ state: H, S then CNOT ladder gives
        // (|0...0> + i |1...1>)/sqrt(2).
        c.h(0).s(0);
        for q in 0..self.n - 1 {
            c.cx(q, q + 1);
        }
        c.barrier_all();
        // Basis change into the Mermin operator's shared eigenbasis.
        c.extend_from(&self.diag.circuit);
        c.measure_all();
        vec![c]
    }
}

impl ScoringStrategy for MerminBellBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 1)?;
        let m = self.mermin_expectation(&counts[0]);
        let n = self.n as i32;
        clamp_score((m + 2f64.powi(n - 1)) / 2f64.powi(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_sim::{Executor, NoiseModel, StateVector};

    #[test]
    fn prepared_state_has_maximal_mermin_expectation() {
        for n in 2..=5 {
            let _b = MerminBellBenchmark::new(n);
            // Exact check: statevector expectation of M on the prep state.
            let mut prep = Circuit::new(n);
            prep.h(0).s(0);
            for q in 0..n - 1 {
                prep.cx(q, q + 1);
            }
            let psi = Executor::final_state(&prep).expect("unitary circuit");
            let m = mermin_operator(n);
            let expect = psi.expectation(&m);
            assert!(
                (expect - 2f64.powi(n as i32 - 1)).abs() < 1e-9,
                "n={n}: <M>={expect}"
            );
        }
    }

    #[test]
    fn noiseless_score_is_one() {
        for n in 2..=5 {
            let b = MerminBellBenchmark::new(n);
            let counts = Executor::noiseless().run(&b.circuits()[0], 8000, 5);
            let s = b.score(&[counts]).unwrap();
            assert!(s > 0.97, "n={n} score={s}");
        }
    }

    #[test]
    fn counts_expectation_matches_statevector() {
        // The rotated-basis estimator must agree with the exact <M>.
        let n = 4;
        let b = MerminBellBenchmark::new(n);
        let circuit = &b.circuits()[0];
        let psi: StateVector =
            Executor::final_state(circuit).expect("benchmark circuits contain no reset");
        // Exact expectation of the diagonalized operator from probabilities.
        let mut exact = 0.0;
        for (i, p) in psi.probabilities().iter().enumerate() {
            for (&c, &(sign, mask)) in b.coefficients.iter().zip(&b.diag.diagonal_terms) {
                let parity = (i as u64 & mask).count_ones() % 2;
                let z = if parity == 0 { 1.0 } else { -1.0 };
                exact += p * c * sign * z;
            }
        }
        assert!((exact - 8.0).abs() < 1e-9, "exact={exact}");
    }

    #[test]
    fn noisy_score_falls_below_one_but_can_beat_classical_bound() {
        let b = MerminBellBenchmark::new(3);
        let circuit = &b.circuits()[0];
        let mild = b
            .score(&[Executor::new(NoiseModel::uniform_depolarizing(0.005)).run(circuit, 8000, 3)])
            .unwrap();
        let heavy = b
            .score(&[Executor::new(NoiseModel::uniform_depolarizing(0.2)).run(circuit, 8000, 3)])
            .unwrap();
        // Eq. 9's classical (local-hidden-variable) bound at n = 3:
        // (2 + 4) / 8 — the red line of the paper's Fig. 2b.
        assert!(mild > 0.75, "mild={mild}");
        assert!(heavy < mild);
    }

    #[test]
    fn basis_change_makes_communication_all_to_all_ish() {
        // The paper's Fig. 1b highlights the high communication of the
        // Mermin-Bell benchmark relative to plain GHZ.
        use crate::features::FeatureVector;
        let mb = FeatureVector::of(&MerminBellBenchmark::new(4).circuits()[0]);
        let ghz = {
            let mut c = Circuit::new(4);
            c.h(0).cx(0, 1).cx(1, 2).cx(2, 3).measure_all();
            FeatureVector::of(&c)
        };
        assert!(
            mb.program_communication > ghz.program_communication,
            "mermin {} vs ghz {}",
            mb.program_communication,
            ghz.program_communication
        );
    }

    #[test]
    #[should_panic(expected = "supports 2..=16")]
    fn rejects_tiny_instance() {
        MerminBellBenchmark::new(1);
    }
}
