//! The bit-flip repetition-code proxy-application (paper Sec. IV-C2).

use std::collections::BTreeMap;

use supermarq_circuit::Circuit;
use supermarq_classical::stats::hellinger_fidelity_maps;
use supermarq_sim::Counts;

use crate::benchmark::{clamp_score, expect_counts, CircuitFamily, ScoreError, ScoringStrategy};

/// A bit-flip repetition code proxy: `d` data qubits interleaved with
/// `d - 1` syndrome ancillas, running `r` rounds of parity extraction with
/// mid-circuit measurement and RESET, followed by a full readout.
///
/// Data qubits sit at even register positions, ancillas at odd positions.
/// The ideal output is deterministic — the initial data bitstring with all
/// ancillas reset to 0 — so the score (Hellinger fidelity against the ideal
/// distribution) is classically verifiable at any scale.
///
/// # Example
///
/// ```
/// use supermarq::benchmarks::BitCodeBenchmark;
/// use supermarq::{CircuitFamily, ScoringStrategy};
/// use supermarq_sim::Executor;
///
/// let b = BitCodeBenchmark::new(3, 1, &[true, false, true]);
/// let counts = Executor::noiseless().run(&b.circuits()[0], 500, 1);
/// assert!(b.score(&[counts]).unwrap() > 0.999);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitCodeBenchmark {
    data_qubits: usize,
    rounds: usize,
    initial: Vec<bool>,
}

impl BitCodeBenchmark {
    /// Creates the benchmark with `data_qubits` data qubits, `rounds`
    /// rounds of error correction, and the given initial computational
    /// state of the data qubits.
    ///
    /// # Panics
    ///
    /// Panics if `data_qubits < 2`, `rounds == 0`, or the initial-state
    /// length mismatches.
    pub fn new(data_qubits: usize, rounds: usize, initial: &[bool]) -> Self {
        assert!(data_qubits >= 2, "need at least two data qubits");
        assert!(rounds >= 1, "need at least one round");
        assert_eq!(initial.len(), data_qubits, "initial state length mismatch");
        BitCodeBenchmark {
            data_qubits,
            rounds,
            initial: initial.to_vec(),
        }
    }

    /// Register index of data qubit `i`.
    pub(crate) fn data_index(i: usize) -> usize {
        2 * i
    }

    /// Register index of the ancilla between data qubits `i` and `i + 1`.
    pub(crate) fn ancilla_index(i: usize) -> usize {
        2 * i + 1
    }

    /// The single ideal outcome: initial data bits at even positions,
    /// ancillas 0.
    fn ideal_outcome(&self) -> u64 {
        let mut bits = 0u64;
        for (i, &b) in self.initial.iter().enumerate() {
            if b {
                bits |= 1 << Self::data_index(i);
            }
        }
        bits
    }
}

impl CircuitFamily for BitCodeBenchmark {
    fn name(&self) -> String {
        format!("BitCode-{}d{}r", self.data_qubits, self.rounds)
    }

    fn num_qubits(&self) -> usize {
        2 * self.data_qubits - 1
    }

    fn circuits(&self) -> Vec<Circuit> {
        let d = self.data_qubits;
        let mut c = Circuit::new(2 * d - 1);
        for (i, &bit) in self.initial.iter().enumerate() {
            if bit {
                c.x(Self::data_index(i));
            }
        }
        for _ in 0..self.rounds {
            c.barrier_all();
            // Interleaved per-ancilla extraction, matching the paper's
            // Fig. 1d sample circuit (sequential CNOTs).
            for i in 0..d - 1 {
                c.cx(Self::data_index(i), Self::ancilla_index(i));
                c.cx(Self::data_index(i + 1), Self::ancilla_index(i));
            }
            for i in 0..d - 1 {
                let anc = Self::ancilla_index(i);
                c.measure(anc);
                c.reset(anc);
            }
        }
        c.barrier_all();
        c.measure_all();
        vec![c]
    }
}

impl ScoringStrategy for BitCodeBenchmark {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, 1)?;
        let ideal = BTreeMap::from([(self.ideal_outcome(), 1.0)]);
        clamp_score(hellinger_fidelity_maps(
            &counts[0].to_probabilities(),
            &ideal,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_sim::{Executor, NoiseModel};

    #[test]
    fn noiseless_score_is_one_for_all_initial_states() {
        for bits in 0..8u8 {
            let initial: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let b = BitCodeBenchmark::new(3, 2, &initial);
            let counts = Executor::noiseless().run(&b.circuits()[0], 300, 11);
            let s = b.score(&[counts]).unwrap();
            assert!(s > 0.999, "initial={initial:?} score={s}");
        }
    }

    #[test]
    fn circuit_uses_mid_circuit_measurement_and_reset() {
        let b = BitCodeBenchmark::new(3, 2, &[false, false, false]);
        let c = &b.circuits()[0];
        assert_eq!(c.reset_count(), 4); // 2 ancillas x 2 rounds
                                        // 2 ancillas x 2 rounds mid-circuit + 5 final.
        assert_eq!(c.measurement_count(), 9);
        let f = crate::features::FeatureVector::of(c);
        assert!(
            f.measurement > 0.0,
            "measurement feature must be nonzero: {f}"
        );
    }

    #[test]
    fn more_rounds_hurt_under_measurement_heavy_noise() {
        // Slow readout + finite T1: data qubits decay during each round's
        // ancilla measurement, so more rounds -> lower score. This is the
        // paper's central EC observation.
        let mut noise = NoiseModel::ideal();
        noise.t1 = 100.0;
        noise.t2 = 100.0;
        noise.durations.measurement = 5.0;
        noise.durations.reset = 5.0;
        let initial = [true, true, true];
        let one_round = BitCodeBenchmark::new(3, 1, &initial);
        let four_rounds = BitCodeBenchmark::new(3, 4, &initial);
        let s1 = one_round
            .score(&[Executor::new(noise.clone()).run(&one_round.circuits()[0], 2000, 3)])
            .unwrap();
        let s4 = four_rounds
            .score(&[Executor::new(noise).run(&four_rounds.circuits()[0], 2000, 3)])
            .unwrap();
        assert!(s1 > s4, "1 round {s1} vs 4 rounds {s4}");
    }

    #[test]
    fn trapped_ion_like_noise_is_gentler_than_superconducting_like() {
        // Same readout duration relative story: T1 >> readout (ion) vs
        // T1 ~ 20x readout (superconducting).
        let initial = [true, false, true];
        let b = BitCodeBenchmark::new(3, 3, &initial);
        let circuit = &b.circuits()[0];
        let mut sc = NoiseModel::ideal();
        sc.t1 = 100.0;
        sc.durations.measurement = 5.0;
        sc.durations.reset = 5.0;
        let mut ion = NoiseModel::ideal();
        ion.t1 = 1e7;
        ion.durations.measurement = 100.0;
        ion.durations.reset = 100.0;
        let s_sc = b.score(&[Executor::new(sc).run(circuit, 2000, 9)]).unwrap();
        let s_ion = b
            .score(&[Executor::new(ion).run(circuit, 2000, 9)])
            .unwrap();
        assert!(s_ion > s_sc, "ion {s_ion} vs sc {s_sc}");
        assert!(s_ion > 0.99);
    }

    #[test]
    fn ideal_outcome_layout() {
        let b = BitCodeBenchmark::new(3, 1, &[true, false, true]);
        // Data at positions 0, 2, 4: bits 1 and 16.
        assert_eq!(b.ideal_outcome(), 0b10001);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_wrong_initial_length() {
        BitCodeBenchmark::new(3, 1, &[true]);
    }
}
