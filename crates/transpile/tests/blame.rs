//! Per-pass blame: a deliberately broken pass plants violations, and the
//! verify passes must attribute them to that pass by name.

use supermarq_circuit::Circuit;
use supermarq_device::Device;
use supermarq_transpile::{
    run_pass, Pass, PassContext, PassSpec, PipelineId, PlacementStrategy, TranspileError,
    Transpiler,
};
use supermarq_verify::{CheckId, Severity};

/// The saboteur: prepends `H` then `RESET` on a device wire the circuit
/// never uses. The `H` is outside every measurement lightcone (V008) and
/// the reset clobbers it before any measurement or entangler (V009).
struct InjectIdleWork;

impl Pass for InjectIdleWork {
    fn name(&self) -> &'static str {
        "inject-idle-work"
    }
    fn span_name(&self) -> &'static str {
        "transpile.test"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        let old = ctx.circuit();
        let used: std::collections::BTreeSet<usize> =
            old.iter().flat_map(|i| i.qubits.iter().copied()).collect();
        let idle = (0..old.num_qubits())
            .find(|w| !used.contains(w))
            .expect("device register has an idle wire");
        let mut rebuilt = Circuit::new(old.num_qubits());
        rebuilt.h(idle);
        rebuilt.reset(idle);
        for instr in old.iter() {
            rebuilt.push_unchecked(instr.gate, &instr.qubits);
        }
        ctx.set_circuit(rebuilt);
        Ok(())
    }
}

fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 0..n - 1 {
        c.cx(q, q + 1);
    }
    c.measure_all();
    c
}

/// Runs place/route/decompose, then the saboteur, then the final verify
/// pass, and returns the context with its accumulated diagnostics.
fn run_sabotaged(device: &Device) -> PassContext<'_> {
    let mut ctx = PassContext::new(device, PlacementStrategy::Greedy, ghz(3), false);
    for pass in [PassSpec::Place, PassSpec::Route, PassSpec::Decompose] {
        run_pass(&pass, &mut ctx).unwrap();
    }
    run_pass(&InjectIdleWork, &mut ctx).unwrap();
    run_pass(&PassSpec::VerifyFinal, &mut ctx).unwrap();
    ctx
}

#[test]
fn planted_violations_are_blamed_on_the_broken_pass() {
    let device = Device::ionq();
    let ctx = run_sabotaged(&device);
    let dead: Vec<_> = ctx
        .diagnostics()
        .iter()
        .filter(|d| d.check == CheckId::DeadGate)
        .collect();
    assert!(!dead.is_empty(), "V008 missed the planted dead gate");
    for d in &dead {
        assert_eq!(
            d.blame.as_deref(),
            Some("inject-idle-work"),
            "V008 misattributed: {d}"
        );
    }
    let clobbered: Vec<_> = ctx
        .diagnostics()
        .iter()
        .filter(|d| d.check == CheckId::ClobberedQubit)
        .collect();
    assert!(!clobbered.is_empty(), "V009 missed the planted clobber");
    for d in &clobbered {
        assert_eq!(
            d.blame.as_deref(),
            Some("inject-idle-work"),
            "V009 misattributed: {d}"
        );
    }
}

#[test]
fn every_pipeline_diagnostic_carries_nonempty_blame() {
    let device = Device::ionq();
    let ctx = run_sabotaged(&device);
    assert!(!ctx.diagnostics().is_empty());
    for d in ctx.diagnostics() {
        let blame = d.blame.as_deref().unwrap_or("");
        assert!(!blame.is_empty(), "diagnostic without blame: {d}");
    }
    // The clean pipelines obey the same invariant on their accumulated
    // (warning/lint) diagnostics.
    for device in [Device::ionq(), Device::ibm_casablanca()] {
        let t = Transpiler::for_device(&device).with_pipeline(PipelineId::ClosedStages);
        let ctx = t.run_with_context(&ghz(4)).unwrap();
        for d in ctx.diagnostics() {
            assert!(
                d.blame.as_deref().is_some_and(|b| !b.is_empty()),
                "{}: diagnostic without blame: {d}",
                device.name()
            );
        }
    }
}

#[test]
fn untouched_input_violations_are_blamed_on_input() {
    // The violation ships with the input circuit: a dead H on a wire no
    // measurement ever sees. No pass moved it, so blame stays "input".
    let device = Device::ionq();
    let mut c = Circuit::new(3);
    c.h(0).cx(0, 1).measure(0).measure(1).h(2);
    let mut ctx = PassContext::new(&device, PlacementStrategy::Greedy, c, false);
    run_pass(&PassSpec::VerifyLogical, &mut ctx).unwrap();
    let dead: Vec<_> = ctx
        .diagnostics()
        .iter()
        .filter(|d| d.check == CheckId::DeadGate)
        .collect();
    assert!(!dead.is_empty(), "V008 missed the input's dead gate");
    for d in &dead {
        assert_eq!(d.blame.as_deref(), Some("input"), "{d}");
    }
    assert!(ctx
        .diagnostics()
        .iter()
        .all(|d| d.severity < Severity::Error));
}
