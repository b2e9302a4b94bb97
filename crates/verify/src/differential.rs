//! Differential pipeline certification on a Clifford corpus.
//!
//! ROADMAP item 4 (pipeline autotuning) needs a gatekeeper: before the
//! suite trusts a candidate pipeline's scores, the candidate must compile
//! *the same programs* to *the same unitaries* as the reference pipeline.
//! Statevector comparison caps that audit at toy sizes; the stabilizer
//! domain ([`crate::stabilizer`]) removes the cap for Clifford programs,
//! which is exactly the efficiently-verifiable corpus the mirror-benchmark
//! literature builds on.
//!
//! [`differential`] is deliberately generic over *how* circuits get
//! compiled (closures returning [`CompiledOutput`]) so this crate stays
//! independent of the transpiler; `supermarq-transpile` provides the
//! concrete adapter over its pipelines, and `supermarq transpile diff`
//! surfaces it on the command line.

use crate::stabilizer::{prove_permutation_equivalence, StabilizerVerdict};
use supermarq_circuit::Circuit;
use supermarq_obs::Span;

/// What a compilation produces, as far as equivalence checking cares: the
/// output circuit and where each logical qubit starts and ends.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledOutput {
    /// The compiled circuit (physical wires).
    pub circuit: Circuit,
    /// Physical home of each logical qubit before the first instruction.
    pub initial_mapping: Vec<usize>,
    /// Physical home of each logical qubit after the last instruction.
    pub final_mapping: Vec<usize>,
}

/// Per-case outcome of a differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceVerdict {
    /// Both compilations provably implement the source circuit.
    Proven,
    /// At least one side is provably wrong.
    Refuted(String),
    /// The case could not be decided (compilation failed, or the circuit
    /// left the stabilizer domain).
    Skipped(String),
}

/// One corpus circuit's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferentialCase {
    /// Corpus label.
    pub label: String,
    /// The verdict.
    pub verdict: EquivalenceVerdict,
}

/// The collected verdicts of a differential run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DifferentialReport {
    /// One entry per corpus circuit, in corpus order.
    pub cases: Vec<DifferentialCase>,
}

impl DifferentialReport {
    /// `true` when every case was proven (skips count as failures: an
    /// undecided corpus does not certify a pipeline).
    pub fn all_proven(&self) -> bool {
        self.cases
            .iter()
            .all(|c| c.verdict == EquivalenceVerdict::Proven)
    }

    /// The refuted cases.
    pub fn refuted(&self) -> Vec<&DifferentialCase> {
        self.cases
            .iter()
            .filter(|c| matches!(c.verdict, EquivalenceVerdict::Refuted(_)))
            .collect()
    }

    /// One line per case, byte-deterministic.
    pub fn render(&self) -> String {
        self.cases
            .iter()
            .map(|c| match &c.verdict {
                EquivalenceVerdict::Proven => format!("{}: proven", c.label),
                EquivalenceVerdict::Refuted(why) => format!("{}: REFUTED ({why})", c.label),
                EquivalenceVerdict::Skipped(why) => format!("{}: skipped ({why})", c.label),
            })
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Certifies that two compilation strategies agree on a Clifford corpus.
///
/// Each corpus circuit is compiled by both closures and each output is
/// symbolically checked against the *source* circuit; both proven means
/// the pipelines agree on that case (equivalence to a common reference is
/// equivalence to each other).
pub fn differential<A, B>(
    corpus: &[(String, Circuit)],
    compile_a: A,
    compile_b: B,
) -> DifferentialReport
where
    A: Fn(&Circuit) -> Result<CompiledOutput, String>,
    B: Fn(&Circuit) -> Result<CompiledOutput, String>,
{
    let mut span = Span::open("verify.differential");
    span.record("cases", corpus.len());
    let mut report = DifferentialReport::default();
    for (label, circuit) in corpus {
        let verdict = match (compile_a(circuit), compile_b(circuit)) {
            (Err(e), _) => EquivalenceVerdict::Skipped(format!("pipeline A failed: {e}")),
            (_, Err(e)) => EquivalenceVerdict::Skipped(format!("pipeline B failed: {e}")),
            (Ok(a), Ok(b)) => {
                let mut verdict = EquivalenceVerdict::Proven;
                for (side, compiled) in [("A", &a), ("B", &b)] {
                    match prove_permutation_equivalence(
                        circuit,
                        &compiled.circuit,
                        &compiled.initial_mapping,
                        &compiled.final_mapping,
                    ) {
                        StabilizerVerdict::Proven => {}
                        StabilizerVerdict::Refuted { detail } => {
                            verdict =
                                EquivalenceVerdict::Refuted(format!("pipeline {side}: {detail}"));
                            break;
                        }
                        StabilizerVerdict::NotApplicable { reason } => {
                            verdict =
                                EquivalenceVerdict::Skipped(format!("pipeline {side}: {reason}"));
                            break;
                        }
                    }
                }
                verdict
            }
        };
        report.cases.push(DifferentialCase {
            label: label.clone(),
            verdict,
        });
    }
    span.record(
        "proven",
        report
            .cases
            .iter()
            .filter(|c| c.verdict == EquivalenceVerdict::Proven)
            .count(),
    );
    report
}

/// A deterministic Clifford corpus for differential certification: GHZ
/// ladders, an S/H "wall" with a CX brick pattern, and a mirror circuit
/// (`C` then `C^dagger`), all measured at the end.
pub fn clifford_corpus(max_qubits: usize) -> Vec<(String, Circuit)> {
    let mut corpus = Vec::new();
    for n in (2..=max_qubits.max(2)).step_by(2) {
        let mut ghz = Circuit::new(n);
        ghz.h(0);
        for q in 0..n - 1 {
            ghz.cx(q, q + 1);
        }
        ghz.measure_all();
        corpus.push((format!("ghz-{n}"), ghz));
    }
    let n = max_qubits.max(2);
    let mut wall = Circuit::new(n);
    for layer in 0..3 {
        for q in 0..n {
            if (q + layer) % 2 == 0 {
                wall.h(q);
            } else {
                wall.s(q);
            }
        }
        for q in (layer % 2..n - 1).step_by(2) {
            wall.cx(q, q + 1);
        }
    }
    wall.measure_all();
    corpus.push((format!("wall-{n}"), wall));

    let mut half = Circuit::new(n);
    for q in 0..n {
        half.h(q);
    }
    for q in 0..n - 1 {
        half.cz(q, q + 1);
    }
    for q in 0..n {
        half.s(q);
    }
    let mut mirror = half.clone();
    let inverse = half.adjoint().expect("unitary circuit has an adjoint");
    mirror.extend_from(&inverse);
    mirror.measure_all();
    corpus.push((format!("mirror-{n}"), mirror));
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_compile(c: &Circuit) -> Result<CompiledOutput, String> {
        Ok(CompiledOutput {
            circuit: c.clone(),
            initial_mapping: (0..c.num_qubits()).collect(),
            final_mapping: (0..c.num_qubits()).collect(),
        })
    }

    #[test]
    fn corpus_is_clifford_and_measured() {
        for (label, c) in clifford_corpus(6) {
            assert!(
                supermarq_clifford::is_clifford_circuit(&c),
                "{label} is not Clifford"
            );
            assert!(c.measurement_count() > 0, "{label} never measures");
        }
    }

    #[test]
    fn identical_pipelines_certify() {
        let corpus = clifford_corpus(4);
        let report = differential(&corpus, identity_compile, identity_compile);
        assert!(report.all_proven(), "{}", report.render());
        assert!(report.render().contains("ghz-2: proven"));
    }

    #[test]
    fn a_tampering_pipeline_is_refuted() {
        let corpus = clifford_corpus(2);
        let tamper = |c: &Circuit| {
            let mut out = identity_compile(c).unwrap();
            out.circuit.z(0); // sneak in an extra gate
            Ok(out)
        };
        let report = differential(&corpus, identity_compile, tamper);
        assert!(!report.all_proven());
        assert!(!report.refuted().is_empty());
        assert!(report.render().contains("pipeline B"));
    }

    #[test]
    fn compile_failure_skips_without_certifying() {
        let corpus = clifford_corpus(2);
        let broken = |_: &Circuit| Err("boom".to_string());
        let report = differential(&corpus, identity_compile, broken);
        assert!(!report.all_proven());
        assert!(report.render().contains("skipped"));
    }
}
