//! Mirror-circuit benchmarking: scalable verification by inversion.
//!
//! Following Siekierski et al.'s recipe for turning algorithms into
//! scalable benchmarks, [`Mirror`] wraps any [`Benchmark`] and replaces
//! each of its circuits with `U . barrier . U^dagger . measure_all`,
//! where `U` is the longest measurement/reset-free prefix of the original
//! circuit. The ideal output is exactly `|0...0>`, so the score — the
//! probability of reading the expected bitstring — is classically
//! verifiable at *any* width without simulating `U`.
//!
//! Scoring is layout-aware for free: the runner transpiles the mirrored
//! circuit as a whole (placement and routing act on prefix and inverse
//! together) and relabels measured bits back to program-qubit order
//! before scoring, so `P(0...0)` is evaluated in logical coordinates no
//! matter where qubits ended up.
//!
//! When the mirrored circuit is Clifford, [`Mirror::score_noiseless`]
//! routes through the stabilizer executor's
//! [`success_fraction`](supermarq_clifford::StabilizerExecutor::success_fraction)
//! — no histogram, no 64-qubit cap. It runs each circuit once on a CHP
//! tableau and then samples every shot as a Pauli frame, so 100–200-qubit
//! mirrors score in polynomial time and a shot costs O(1) per gate.
//! Non-Clifford mirrors fall back to the statevector path under a width
//! guard.

use supermarq_circuit::{Circuit, GateKind};
use supermarq_clifford::{is_clifford_circuit, StabilizerExecutor};
use supermarq_sim::{Counts, Executor, NoiseModel};

use crate::benchmark::{
    clamp_score, expect_counts, Benchmark, CircuitFamily, ScoreError, ScoringStrategy,
};
use crate::spec::ExecError;

/// Widest non-Clifford mirror the statevector fallback will attempt.
pub(crate) const MAX_STATEVECTOR_MIRROR_QUBITS: usize = 20;

/// Which executor scored a mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorPath {
    /// CHP stabilizer tableau — polynomial cost, no width cap.
    Clifford,
    /// Dense statevector — exponential cost, capped at
    /// `MAX_STATEVECTOR_MIRROR_QUBITS`.
    Statevector,
}

impl std::fmt::Display for MirrorPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MirrorPath::Clifford => write!(f, "clifford (CHP tableau)"),
            MirrorPath::Statevector => write!(f, "statevector"),
        }
    }
}

/// The generic mirror wrapper: same circuit family as `B` up to the
/// appended inverse, scored by `P(expected bitstring)` (all zeros).
#[derive(Debug, Clone)]
pub struct Mirror<B: Benchmark> {
    base: B,
}

impl<B: Benchmark> Mirror<B> {
    /// Wraps a benchmark.
    pub fn new(base: B) -> Self {
        Mirror { base }
    }

    /// The expected readout: all zeros, one bit per program qubit.
    pub fn expected_bits(&self) -> Vec<bool> {
        vec![false; self.base.num_qubits()]
    }

    /// `U . barrier . U^dagger . measure_all` for the longest
    /// measurement/reset-free prefix `U` of `circuit`.
    fn mirrored(circuit: &Circuit) -> Circuit {
        let mut m = Circuit::new(circuit.num_qubits());
        for instr in circuit.instructions() {
            match instr.gate.kind() {
                GateKind::Measurement | GateKind::Reset => break,
                _ => {
                    m.append(instr.gate, &instr.qubits);
                }
            }
        }
        let inverse = m
            .adjoint()
            .expect("measurement-free prefix always has an adjoint");
        m.barrier_all();
        m.extend_from(&inverse);
        m.measure_all();
        m
    }

    /// `true` if every mirrored circuit is Clifford (see
    /// [`is_clifford_circuit`]) — i.e. the mirror scores through the CHP
    /// path at any width.
    pub fn is_clifford(&self) -> bool {
        self.circuits().iter().all(is_clifford_circuit)
    }

    /// Scores the mirror on an ideal (noiseless) machine, dispatching to
    /// the stabilizer executor when the mirror is Clifford (any width)
    /// and to the statevector executor otherwise (up to
    /// `MAX_STATEVECTOR_MIRROR_QUBITS` qubits). Returns the mean
    /// success probability across the mirror circuits and the path taken.
    ///
    /// # Errors
    ///
    /// [`ExecError::Invalid`] when a non-Clifford mirror exceeds the
    /// statevector width guard.
    pub fn score_noiseless(&self, shots: usize, seed: u64) -> Result<(f64, MirrorPath), ExecError> {
        let circuits = self.circuits();
        let expected = self.expected_bits();
        if circuits.iter().all(is_clifford_circuit) {
            let exec = StabilizerExecutor::new(NoiseModel::ideal());
            let mut total = 0.0;
            for (i, c) in circuits.iter().enumerate() {
                total += exec.success_fraction(c, &expected, shots, seed + i as u64 * 7919);
            }
            Ok((total / circuits.len() as f64, MirrorPath::Clifford))
        } else {
            let n = self.num_qubits();
            if n > MAX_STATEVECTOR_MIRROR_QUBITS {
                return Err(ExecError::Invalid(format!(
                    "non-Clifford mirror on {n} qubits exceeds the \
                     {MAX_STATEVECTOR_MIRROR_QUBITS}-qubit statevector limit"
                )));
            }
            let exec = Executor::noiseless();
            let mut total = 0.0;
            for (i, c) in circuits.iter().enumerate() {
                let counts = exec.run(c, shots, seed + i as u64 * 7919);
                total += counts.probability(0);
            }
            Ok((total / circuits.len() as f64, MirrorPath::Statevector))
        }
    }
}

impl<B: Benchmark> CircuitFamily for Mirror<B> {
    fn name(&self) -> String {
        format!("{}-mirror", self.base.name())
    }

    fn num_qubits(&self) -> usize {
        self.base.num_qubits()
    }

    fn circuits(&self) -> Vec<Circuit> {
        self.base.circuits().iter().map(Self::mirrored).collect()
    }
}

impl<B: Benchmark> ScoringStrategy for Mirror<B> {
    fn score(&self, counts: &[Counts]) -> Result<f64, ScoreError> {
        expect_counts(counts, self.base.circuits().len())?;
        let total: f64 = counts.iter().map(|c| c.probability(0)).sum();
        clamp_score(total / counts.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{
        BitCodeBenchmark, GhzBenchmark, GroverBenchmark, QftBenchmark, VqeBenchmark,
    };

    #[test]
    fn ghz_mirror_is_clifford_and_perfect() {
        let m = Mirror::new(GhzBenchmark::new(5));
        assert_eq!(m.name(), "GHZ-5-mirror");
        assert!(m.is_clifford());
        let (score, path) = m.score_noiseless(400, 7).unwrap();
        assert_eq!(path, MirrorPath::Clifford);
        assert!((score - 1.0).abs() < 1e-12, "score={score}");
    }

    #[test]
    fn mirror_truncates_at_first_measurement() {
        // Bit code has mid-circuit measurement: the mirror uses only the
        // measurement-free prefix, so it contains no resets.
        let m = Mirror::new(BitCodeBenchmark::new(3, 2, &[true, false, true]));
        let circuits = m.circuits();
        assert_eq!(circuits.len(), 1);
        assert_eq!(circuits[0].reset_count(), 0);
        assert_eq!(circuits[0].measurement_count(), 5);
        let (score, path) = m.score_noiseless(200, 3).unwrap();
        assert_eq!(path, MirrorPath::Clifford);
        assert!((score - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_clifford_mirror_uses_statevector() {
        let m = Mirror::new(GroverBenchmark::new(3, 0b101));
        assert!(!m.is_clifford());
        let (score, path) = m.score_noiseless(400, 5).unwrap();
        assert_eq!(path, MirrorPath::Statevector);
        assert!(score > 0.999, "score={score}");
    }

    #[test]
    fn multi_circuit_mirror_scores_every_circuit() {
        let m = Mirror::new(VqeBenchmark::new(3, 1));
        assert_eq!(m.circuits().len(), 2);
        let (score, _) = m.score_noiseless(300, 11).unwrap();
        assert!(score > 0.999, "score={score}");
    }

    #[test]
    fn scoring_strategy_scores_histograms() {
        let m = Mirror::new(GhzBenchmark::new(3));
        let counts = Executor::noiseless().run(&m.circuits()[0], 300, 2);
        let s = m.score(&[counts]).unwrap();
        assert!((s - 1.0).abs() < 1e-9, "s={s}");
        assert!(m.score(&[]).is_err());
    }

    #[test]
    fn wide_non_clifford_mirror_is_rejected() {
        // QFT's controlled phases are pi/2^k, so the 21-qubit mirror is
        // not Clifford, and it is one qubit past the statevector guard.
        let m = Mirror::new(QftBenchmark::new(MAX_STATEVECTOR_MIRROR_QUBITS + 1));
        assert!(!m.is_clifford());
        match m.score_noiseless(10, 1) {
            Err(ExecError::Invalid(msg)) => {
                assert!(msg.contains("20-qubit statevector limit"), "{msg}");
            }
            other => panic!("expected ExecError::Invalid, got {other:?}"),
        }
    }
}
