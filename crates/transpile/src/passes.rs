//! What each [`PassSpec`] does: one plain function per rewrite pass, and
//! one per verification checkpoint.
//!
//! Each pass runs under an obs span named by [`Pass::span_name`]
//! (`transpile.optimize`, `transpile.place`, ...). The four verify passes
//! share `transpile.verify` and tell themselves apart by the stage label
//! (`"logical-optimize"`, `"route"`, `"decompose"`, `"optimize"`) they note
//! on the span and put in their [`TranspileError::Verification`] reports.

use supermarq_circuit::Circuit;
use supermarq_verify::{Context, Report, RoutingAudit, Verifier};

use crate::cancel::cancel_adjacent_gates;
use crate::fuse::fuse_single_qubit_runs;
use crate::pass::{Layout, Pass, PassContext};
use crate::pipeline::PassSpec;
use crate::placement::place_on_device;
use crate::transpiler::TranspileError;

impl Pass for PassSpec {
    fn name(&self) -> &'static str {
        self.id()
    }

    fn span_name(&self) -> &'static str {
        match self {
            PassSpec::OptimizeLogical | PassSpec::OptimizePhysical => "transpile.optimize",
            PassSpec::Place => "transpile.place",
            PassSpec::Route => "transpile.route",
            PassSpec::Decompose => "transpile.decompose",
            PassSpec::Schedule => "transpile.schedule",
            PassSpec::VerifyLogical
            | PassSpec::VerifyRouted
            | PassSpec::VerifyNative
            | PassSpec::VerifyFinal => "transpile.verify",
        }
    }

    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        match self {
            PassSpec::OptimizeLogical => optimize_logical(ctx),
            PassSpec::VerifyLogical => verify(ctx, "logical-optimize", structural_report),
            PassSpec::Place => place(ctx),
            PassSpec::Route => route(ctx),
            PassSpec::VerifyRouted => verify(ctx, "route", routed_report),
            PassSpec::Decompose => decompose(ctx),
            PassSpec::VerifyNative => verify(ctx, "decompose", full_report),
            PassSpec::OptimizePhysical => optimize_physical(ctx),
            PassSpec::VerifyFinal => verify(ctx, "optimize", full_report),
            PassSpec::Schedule => schedule(ctx),
        }
    }
}

/// One fuse + cancel round, `cancel_adjacent_gates(&fuse_single_qubit_runs(c))`:
/// the result, and whether either step changed its input.
///
/// Not run to quiescence: cancelling a two-qubit pair can leave two fused
/// `U` gates newly adjacent, and a second fuse would merge them, changing
/// the paper pipelines' output.
fn fuse_and_cancel(circuit: &Circuit) -> (Circuit, bool) {
    let fused = fuse_single_qubit_runs(circuit);
    let cancelled = cancel_adjacent_gates(&fused);
    let changed = fused != *circuit || cancelled != fused;
    (cancelled, changed)
}

/// Logical-level cleanup: one fuse + cancel round (`fuse_and_cancel`
/// says why it is a single round).
fn optimize_logical(ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
    ctx.note("phase", "logical");
    let (optimized, changed) = fuse_and_cancel(ctx.circuit());
    if changed {
        ctx.set_circuit(optimized);
    }
    Ok(())
}

/// Physical-level cleanup: one fuse + cancel round, then one decompose to
/// lower the `U3` gates fusion introduced back to native single-qubit
/// gates. The three steps are one rewrite, recorded when any of them
/// changed its input — even when the re-lowered circuit equals the pass's
/// input, so blame still names this pass as the last mutator.
fn optimize_physical(ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
    ctx.note("phase", "physical");
    let (optimized, changed) = fuse_and_cancel(ctx.circuit());
    let lowered = crate::decompose::decompose(&optimized, ctx.device().gate_set());
    if changed || lowered != optimized {
        ctx.set_circuit(lowered);
    }
    Ok(())
}

/// Initial placement with the context's strategy: installs the
/// program-to-physical [`Layout`].
fn place(ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
    ctx.note("qubits", ctx.circuit().num_qubits());
    ctx.note("strategy", format!("{:?}", ctx.placement()));
    let mapping = place_on_device(ctx.circuit(), ctx.device(), ctx.placement());
    let layout = Layout::from_placement(ctx.circuit(), mapping);
    ctx.set_layout(layout);
    Ok(())
}

/// SWAP-insertion routing: rewrites the circuit onto physical wires and
/// updates the [`Layout`]'s `current` / `measured_on` tracking.
fn route(ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
    if ctx.wants_route_snapshot() {
        ctx.save_route_snapshot();
    }
    let routed = crate::routing::route(
        ctx.circuit(),
        ctx.device().topology(),
        &ctx.layout().initial,
    )?;
    ctx.note("swaps_added", routed.swap_count);
    ctx.add_swaps(routed.swap_count);
    ctx.set_layout(Layout {
        initial: routed.initial_mapping,
        current: routed.final_mapping,
        measured_on: routed.measured_on,
    });
    ctx.set_circuit(routed.circuit);
    Ok(())
}

/// Native-gate lowering (also decomposes routing's inserted SWAPs).
fn decompose(ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
    let native = crate::decompose::decompose(ctx.circuit(), ctx.device().gate_set());
    if native != *ctx.circuit() {
        ctx.set_circuit(native);
    }
    Ok(())
}

/// Final bookkeeping: ASAP-schedules the circuit and notes its depth and
/// two-qubit gate count on the pass span.
fn schedule(ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
    ctx.note("depth", ctx.circuit().depth());
    ctx.note("two_qubit_gates", ctx.circuit().two_qubit_gate_count());
    Ok(())
}

/// A verify pass: notes `stage` on the span, runs `checks`, and stamps
/// provenance blame onto every diagnostic. Error-grade findings abort the
/// pipeline under `stage`; everything else accumulates on the context.
fn verify(
    ctx: &mut PassContext<'_>,
    stage: &'static str,
    checks: fn(&PassContext<'_>) -> Report,
) -> Result<(), TranspileError> {
    ctx.note("stage", stage);
    let mut report = checks(ctx);
    for d in &mut report.diagnostics {
        let blame = match d.instruction {
            Some(index) => ctx.provenance().tag(index),
            // Circuit-global findings: the last pass that rewrote the
            // circuit is the best available suspect.
            None => ctx.provenance().last_mutator().unwrap_or("input"),
        };
        d.blame = Some(blame.to_string());
    }
    if report.has_errors() {
        return Err(TranspileError::Verification {
            stage,
            diagnostics: report.diagnostics,
        });
    }
    ctx.note("diagnostics", report.diagnostics.len());
    ctx.extend_diagnostics(report.diagnostics);
    Ok(())
}

/// Structural checks on the logical circuit. Device conformance does not
/// apply yet.
fn structural_report(ctx: &PassContext<'_>) -> Report {
    let vctx = Context::bare(ctx.circuit()).with_clifford_claim(ctx.input_clifford());
    Verifier::structural().verify(&vctx)
}

/// Post-routing checks: coupling-map conformance plus the Closed-Division
/// audit of the router's output against the pre-route snapshot.
/// Native-gate conformance does not apply yet. Without a snapshot (no
/// route pass upstream) the device-conformance checks still apply and the
/// audit does not.
fn routed_report(ctx: &PassContext<'_>) -> Report {
    let layout = ctx.layout();
    let audit = ctx.route_snapshot().map(|logical| {
        RoutingAudit::new(
            logical,
            ctx.circuit(),
            &layout.initial,
            &layout.current,
            ctx.swap_count(),
        )
    });
    let vctx = Context {
        routing: audit.as_ref(),
        ..Context::on_device(ctx.circuit(), ctx.device())
    }
    .with_clifford_claim(ctx.input_clifford());
    Verifier::post_routing().verify(&vctx)
}

/// Every check, on the native circuit and its device: after decompose
/// and, as the release-mode output guard, after the final optimization.
fn full_report(ctx: &PassContext<'_>) -> Report {
    let vctx =
        Context::on_device(ctx.circuit(), ctx.device()).with_clifford_claim(ctx.input_clifford());
    Verifier::all().verify(&vctx)
}
