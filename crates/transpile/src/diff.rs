//! Differential pipeline certification: the transpile-side adapter over
//! [`supermarq_verify::differential`](mod@supermarq_verify::differential).
//!
//! `supermarq transpile diff` and the autotuning roadmap item both need
//! the same primitive: "do pipelines A and B compile the same programs to
//! the same unitaries?" — answered symbolically on a Clifford corpus, so
//! the certificate scales past statevector sizes.

use supermarq_circuit::Circuit;
use supermarq_device::Device;
use supermarq_verify::{differential, CompiledOutput, DifferentialReport};

use crate::pipeline::PipelineId;
use crate::transpiler::Transpiler;

/// Runs `corpus` through both pipelines on `device` and symbolically
/// checks every output against its source circuit. Both proven means the
/// pipelines agree on that case.
pub fn differential_pipelines(
    device: &Device,
    pipeline_a: PipelineId,
    pipeline_b: PipelineId,
    corpus: &[(String, Circuit)],
) -> DifferentialReport {
    let a = Transpiler::for_device(device).with_pipeline(pipeline_a);
    let b = Transpiler::for_device(device).with_pipeline(pipeline_b);
    let compile = |transpiler: &Transpiler, circuit: &Circuit| {
        transpiler
            .run_with_context(circuit)
            .map(|ctx| {
                let (circuit, layout, _) = ctx.into_parts();
                CompiledOutput {
                    circuit,
                    initial_mapping: layout.initial,
                    final_mapping: layout.current,
                }
            })
            .map_err(|e| e.to_string())
    };
    differential(corpus, |c| compile(&a, c), |c| compile(&b, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_verify::clifford_corpus;

    #[test]
    fn builtin_pipelines_agree_on_the_clifford_corpus() {
        let device = Device::ibm_casablanca();
        let corpus = clifford_corpus(4);
        let report = differential_pipelines(
            &device,
            PipelineId::ClosedDefault,
            PipelineId::NoOptimize,
            &corpus,
        );
        assert!(report.all_proven(), "{}", report.render());
    }

    #[test]
    fn oversized_corpus_member_skips_instead_of_certifying() {
        let device = Device::ibm_casablanca(); // 7 qubits
        let corpus = clifford_corpus(8);
        let report = differential_pipelines(
            &device,
            PipelineId::ClosedDefault,
            PipelineId::ClosedDefault,
            &corpus,
        );
        assert!(!report.all_proven());
        assert!(report.render().contains("skipped"), "{}", report.render());
    }
}
