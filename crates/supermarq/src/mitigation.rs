//! Readout-error mitigation — the start of the paper's *Open Division*.
//!
//! The paper's Closed Division explicitly excludes "post-processing
//! techniques like error-mitigation" and leaves "the specification and
//! evaluation of an Open benchmarking division, allowing for a wider range
//! of optimizations, for future work" (Sec. V). This module implements the
//! most standard such technique: measurement-error mitigation by inverting
//! the per-qubit readout confusion matrix,
//!
//! `M_q = [[1 - e, e], [e, 1 - e]]`,
//!
//! whose tensor-product inverse is applied qubit-by-qubit to the measured
//! histogram. Negative quasi-probabilities are clipped and the distribution
//! renormalized (the common practical recipe), then converted back to
//! integer counts so the unchanged [`crate::ScoringStrategy::score`] functions
//! apply.

use std::collections::BTreeMap;

use supermarq_sim::Counts;

/// A symmetric per-qubit readout-error mitigator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReadoutMitigator {
    /// Flip probability per qubit.
    flip: Vec<f64>,
}

impl ReadoutMitigator {
    /// A mitigator with per-qubit flip probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 0.5)` (at `e = 0.5` the
    /// confusion matrix is singular).
    pub(crate) fn new(flip: Vec<f64>) -> Self {
        assert!(
            flip.iter().all(|&e| (0.0..0.5).contains(&e)),
            "flip probabilities must lie in [0, 0.5)"
        );
        ReadoutMitigator { flip }
    }

    /// A mitigator with the same flip probability on every qubit, as
    /// derived from a device's average measurement error.
    pub(crate) fn uniform(num_qubits: usize, flip: f64) -> Self {
        ReadoutMitigator::new(vec![flip; num_qubits])
    }

    /// Applies the inverse confusion transform to a histogram, returning
    /// the quasi-probability distribution (may contain negative entries).
    pub(crate) fn quasi_probabilities(&self, counts: &Counts) -> BTreeMap<u64, f64> {
        let mut dist: BTreeMap<u64, f64> = counts.to_probabilities();
        for (q, &e) in self.flip.iter().enumerate() {
            if e == 0.0 {
                continue;
            }
            let denom = 1.0 - 2.0 * e;
            let a = (1.0 - e) / denom;
            let b = -e / denom;
            let bit = 1u64 << q;
            let mut next: BTreeMap<u64, f64> = BTreeMap::new();
            for (&k, &p) in &dist {
                // p'(k) = a p(k) + b p(k with bit q flipped).
                *next.entry(k).or_insert(0.0) += a * p;
                *next.entry(k ^ bit).or_insert(0.0) += b * p;
            }
            dist = next;
        }
        dist
    }

    /// Mitigates a histogram: inverse confusion transform, clip negatives,
    /// renormalize, and round back to the original shot total (largest
    /// remainder method so totals match exactly).
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    pub(crate) fn mitigate(&self, counts: &Counts) -> Counts {
        let total = counts.total();
        assert!(total > 0, "cannot mitigate an empty histogram");
        let quasi = self.quasi_probabilities(counts);
        // Clip and renormalize.
        let clipped: Vec<(u64, f64)> = quasi
            .into_iter()
            .map(|(k, p)| (k, p.max(0.0)))
            .filter(|&(_, p)| p > 0.0)
            .collect();
        let norm: f64 = clipped.iter().map(|&(_, p)| p).sum();
        // Largest-remainder rounding to integer counts.
        let mut entries: Vec<(u64, usize, f64)> = clipped
            .iter()
            .map(|&(k, p)| {
                let exact = p / norm * total as f64;
                (k, exact.floor() as usize, exact - exact.floor())
            })
            .collect();
        let assigned: usize = entries.iter().map(|&(_, c, _)| c).sum();
        let mut remainder = total - assigned;
        entries.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite remainders"));
        for entry in entries.iter_mut() {
            if remainder == 0 {
                break;
            }
            entry.1 += 1;
            remainder -= 1;
        }
        Counts::from_pairs(
            counts.num_bits(),
            entries
                .into_iter()
                .filter(|&(_, c, _)| c > 0)
                .map(|(k, c, _)| (k, c)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::{CircuitFamily, ScoringStrategy};
    use supermarq_circuit::Circuit;
    use supermarq_sim::{Executor, NoiseModel};

    #[test]
    fn perfectly_inverts_single_qubit_flip_statistics() {
        // True distribution: always |1>. Observed with 20% flips.
        let noisy = Counts::from_pairs(1, [(1u64, 8000), (0u64, 2000)]);
        let m = ReadoutMitigator::uniform(1, 0.2);
        let quasi = m.quasi_probabilities(&noisy);
        assert!((quasi[&1] - 1.0).abs() < 0.02, "{quasi:?}");
        assert!(quasi[&0].abs() < 0.02);
        let clean = m.mitigate(&noisy);
        assert_eq!(clean.total(), 10000);
        assert!(clean.probability(1) > 0.97);
    }

    #[test]
    fn zero_error_mitigation_is_identity() {
        let counts = Counts::from_pairs(2, [(0b01u64, 3), (0b10u64, 7)]);
        let m = ReadoutMitigator::uniform(2, 0.0);
        assert_eq!(m.mitigate(&counts), counts);
    }

    #[test]
    fn quasi_probabilities_preserve_expectations_exactly() {
        // The inverse-confusion transform must exactly invert the forward
        // noise in expectation: simulate a two-qubit Bell state with pure
        // readout noise at many shots and compare the mitigated ZZ parity.
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let e = 0.15;
        let noise = NoiseModel {
            readout_error: e,
            ..NoiseModel::ideal()
        };
        let counts = Executor::new(noise).run(&c, 60000, 3);
        // Raw parity is damped by (1-2e)^2.
        let raw = counts.expectation_z(&[(1.0, 0b11)]);
        assert!((raw - (1.0 - 2.0 * e).powi(2)).abs() < 0.03, "raw={raw}");
        let m = ReadoutMitigator::uniform(2, e);
        let quasi = m.quasi_probabilities(&counts);
        let mitigated: f64 = quasi
            .iter()
            .map(|(&k, &p)| {
                if (k & 0b11).count_ones() % 2 == 0 {
                    p
                } else {
                    -p
                }
            })
            .sum();
        assert!((mitigated - 1.0).abs() < 0.05, "mitigated={mitigated}");
    }

    #[test]
    fn mitigated_ghz_score_recovers() {
        use crate::benchmarks::GhzBenchmark;
        let b = GhzBenchmark::new(4);
        let circuit = &b.circuits()[0];
        let e = 0.05;
        let noise = NoiseModel {
            readout_error: e,
            ..NoiseModel::ideal()
        };
        let counts = Executor::new(noise).run(circuit, 8000, 5);
        let raw_score = b.score(std::slice::from_ref(&counts)).unwrap();
        let mitigated = ReadoutMitigator::uniform(4, e).mitigate(&counts);
        let open_score = b.score(&[mitigated]).unwrap();
        assert!(
            open_score > raw_score + 0.05,
            "raw={raw_score} open={open_score}"
        );
        assert!(open_score > 0.95, "open={open_score}");
    }

    #[test]
    fn per_qubit_rates_apply_independently() {
        // Qubit 0 noisy, qubit 1 clean: only bit 0 statistics change.
        let counts = Counts::from_pairs(2, [(0b10u64, 900), (0b11u64, 100)]);
        let m = ReadoutMitigator::new(vec![0.1, 0.0]);
        let quasi = m.quasi_probabilities(&counts);
        // Bit 1 stays certain.
        let p_bit1: f64 = quasi
            .iter()
            .filter(|(&k, _)| k & 0b10 != 0)
            .map(|(_, &p)| p)
            .sum();
        assert!((p_bit1 - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "flip probabilities")]
    fn rejects_singular_confusion_matrix() {
        ReadoutMitigator::uniform(1, 0.5);
    }
}
