//! The concrete passes each legacy pipeline stage became.
//!
//! Every stage of the old hard-coded `Transpiler::run` sequence is a
//! [`Pass`] here; the historical obs span names (`transpile.optimize`,
//! `transpile.place`, ...) are preserved via [`Pass::span_name`], and the
//! verify passes keep the historical stage labels (`"logical-optimize"`,
//! `"route"`, `"decompose"`, `"optimize"`) in their
//! [`TranspileError::Verification`] reports.

use supermarq_circuit::Circuit;
use supermarq_verify::{Context, Report, RoutingAudit, Verifier};

use crate::cancel::cancel_adjacent_gates;
use crate::decompose::decompose;
use crate::fuse::fuse_single_qubit_runs;
use crate::pass::{Layout, Pass, PassContext};
use crate::placement::{place_on_device, PlacementStrategy};
use crate::routing::route;
use crate::transpiler::TranspileError;

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
pub(crate) struct OptimizeLogicalPass;

impl Pass for OptimizeLogicalPass {
    fn name(&self) -> &'static str {
        "optimize-logical"
    }
    fn span_name(&self) -> &'static str {
        "transpile.optimize"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        ctx.note("phase", "logical");
        let (optimized, changed) = fuse_and_cancel(ctx.circuit());
        if changed {
            ctx.set_circuit(optimized);
        }
        Ok(())
    }
}

/// Physical-level cleanup: one fuse + cancel round, then one decompose to
/// lower the `U3` gates fusion introduced back to native single-qubit
/// gates. The three steps are one rewrite, recorded when any of them
/// changed its input — even when the re-lowered circuit equals the pass's
/// input, so blame still names this pass as the last mutator.
pub(crate) struct OptimizePhysicalPass;

impl Pass for OptimizePhysicalPass {
    fn name(&self) -> &'static str {
        "optimize-physical"
    }
    fn span_name(&self) -> &'static str {
        "transpile.optimize"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        ctx.note("phase", "physical");
        let (optimized, changed) = fuse_and_cancel(ctx.circuit());
        let lowered = decompose(&optimized, ctx.device().gate_set());
        if changed || lowered != optimized {
            ctx.set_circuit(lowered);
        }
        Ok(())
    }
}

/// Initial placement: installs the program-to-physical [`Layout`].
pub(crate) struct PlacePass {
    pub strategy: PlacementStrategy,
}

impl Pass for PlacePass {
    fn name(&self) -> &'static str {
        "place"
    }
    fn span_name(&self) -> &'static str {
        "transpile.place"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        ctx.note("qubits", ctx.circuit().num_qubits());
        ctx.note("strategy", format!("{:?}", self.strategy));
        let mapping = place_on_device(ctx.circuit(), ctx.device(), self.strategy);
        let layout = Layout::from_placement(ctx.circuit(), mapping);
        ctx.set_layout(layout);
        Ok(())
    }
}

/// SWAP-insertion routing: rewrites the circuit onto physical wires and
/// updates the [`Layout`]'s `current` / `measured_on` tracking.
pub(crate) struct RoutePass;

impl Pass for RoutePass {
    fn name(&self) -> &'static str {
        "route"
    }
    fn span_name(&self) -> &'static str {
        "transpile.route"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        if ctx.wants_route_snapshot() {
            ctx.save_route_snapshot();
        }
        let routed = route(
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
}

/// Native-gate lowering (also decomposes routing's inserted SWAPs).
pub(crate) struct DecomposePass;

impl Pass for DecomposePass {
    fn name(&self) -> &'static str {
        "decompose"
    }
    fn span_name(&self) -> &'static str {
        "transpile.decompose"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        let native = decompose(ctx.circuit(), ctx.device().gate_set());
        if native != *ctx.circuit() {
            ctx.set_circuit(native);
        }
        Ok(())
    }
}

/// Final bookkeeping: ASAP-schedules the circuit and notes its depth and
/// two-qubit gate count on the pass span.
pub(crate) struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }
    fn span_name(&self) -> &'static str {
        "transpile.schedule"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        ctx.note("depth", ctx.circuit().depth());
        ctx.note("two_qubit_gates", ctx.circuit().two_qubit_gate_count());
        Ok(())
    }
}

/// Shared verify-pass epilogue: stamps provenance blame onto every
/// diagnostic, then error-grade findings abort the pipeline with the
/// pass's historical stage label; everything else accumulates on the
/// context.
fn finish_verify(
    ctx: &mut PassContext<'_>,
    stage: &'static str,
    mut report: Report,
) -> Result<(), TranspileError> {
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

/// Structural verification of the logical circuit (stage
/// `"logical-optimize"`). Device conformance does not apply yet.
pub(crate) struct VerifyLogicalPass;

impl Pass for VerifyLogicalPass {
    fn name(&self) -> &'static str {
        "verify-logical"
    }
    fn span_name(&self) -> &'static str {
        "transpile.verify"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        ctx.note("stage", "logical-optimize");
        let vctx = Context::bare(ctx.circuit()).with_clifford_claim(ctx.input_clifford());
        let report = Verifier::structural().verify(&vctx);
        finish_verify(ctx, "logical-optimize", report)
    }
}

/// Post-routing verification (stage `"route"`): coupling-map conformance
/// plus the Closed-Division audit of the router's output against the
/// pre-route snapshot. Native-gate conformance does not apply yet.
pub(crate) struct VerifyRoutedPass;

impl Pass for VerifyRoutedPass {
    fn name(&self) -> &'static str {
        "verify-routed"
    }
    fn span_name(&self) -> &'static str {
        "transpile.verify"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        ctx.note("stage", "route");
        let report = match ctx.route_snapshot() {
            Some(logical) => {
                let layout = ctx.layout();
                let audit = RoutingAudit::new(
                    logical,
                    ctx.circuit(),
                    &layout.initial,
                    &layout.current,
                    ctx.swap_count(),
                );
                let vctx = Context {
                    device: Some(ctx.device()),
                    routing: Some(&audit),
                    ..Context::bare(ctx.circuit())
                }
                .with_clifford_claim(ctx.input_clifford());
                Verifier::post_routing().verify(&vctx)
            }
            // No snapshot (a pipeline without a route pass upstream):
            // device-conformance checks still apply, the audit does not.
            None => {
                let vctx = Context::on_device(ctx.circuit(), ctx.device())
                    .with_clifford_claim(ctx.input_clifford());
                Verifier::post_routing().verify(&vctx)
            }
        };
        finish_verify(ctx, "route", report)
    }
}

/// Full verification of the freshly decomposed circuit (stage
/// `"decompose"`).
pub(crate) struct VerifyNativePass;

impl Pass for VerifyNativePass {
    fn name(&self) -> &'static str {
        "verify-native"
    }
    fn span_name(&self) -> &'static str {
        "transpile.verify"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        ctx.note("stage", "decompose");
        let vctx = Context::on_device(ctx.circuit(), ctx.device())
            .with_clifford_claim(ctx.input_clifford());
        let report = Verifier::all().verify(&vctx);
        finish_verify(ctx, "decompose", report)
    }
}

/// Full verification of the final circuit (stage `"optimize"`) — the
/// release-mode replacement for the old output `debug_assert!`.
pub(crate) struct VerifyFinalPass;

impl Pass for VerifyFinalPass {
    fn name(&self) -> &'static str {
        "verify-final"
    }
    fn span_name(&self) -> &'static str {
        "transpile.verify"
    }
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
        ctx.note("stage", "optimize");
        let vctx = Context::on_device(ctx.circuit(), ctx.device())
            .with_clifford_claim(ctx.input_clifford());
        let report = Verifier::all().verify(&vctx);
        finish_verify(ctx, "optimize", report)
    }
}
