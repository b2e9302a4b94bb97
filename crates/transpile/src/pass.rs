//! The pass-manager core: [`Pass`], [`PassContext`], [`Layout`] and the
//! [`FixedPoint`] combinator.
//!
//! A transpile pipeline is a sequence of [`Pass`]es run over one shared
//! [`PassContext`]. The context owns the working [`Circuit`], the qubit
//! [`Layout`], and a [`PropertySet`] of cached circuit analyses (depth, gate
//! counts, interaction graph, ASAP layers) that passes consume via
//! [`PassContext::analysis`].
//!
//! # Invalidation contract
//!
//! Cached analyses are invalidated *only* when a pass reports
//! [`PassOutcome::Mutated`]. The pass runner ([`run_pass`]) handles this; a
//! pass that replaces the circuit via [`PassContext::set_circuit`] but
//! reports [`PassOutcome::Unchanged`] leaves stale analyses behind and is a
//! bug. In exchange, read-only passes (verify, schedule) share every
//! analysis for free.
//!
//! # Observability
//!
//! [`run_pass`] opens the pass's obs span and records `gates_in` /
//! `gates_out` automatically, so passes never copy-paste instrumentation.
//! A pass adds extra span fields by queuing [`PassContext::note`]s, which
//! the runner drains into the span after the pass returns.

use std::rc::Rc;

use supermarq_circuit::{Circuit, CircuitAnalysis, GateCount, GateKind, PropertySet};
use supermarq_device::Device;
use supermarq_obs::{FieldValue, Span};
use supermarq_verify::Diagnostic;

use crate::provenance::Provenance;
use crate::transpiler::TranspileError;

/// What a [`Pass`] did to the working circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassOutcome {
    /// The circuit is untouched; cached analyses stay valid.
    Unchanged,
    /// The circuit was rewritten; the runner invalidates the
    /// [`PropertySet`].
    Mutated,
}

/// The program-to-physical qubit mapping as a first-class value.
///
/// Before placement the layout is empty; [`PlacePass`](crate::passes)
/// installs the initial mapping, and routing updates `current` /
/// `measured_on` as SWAPs move program qubits between wires.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Layout {
    /// Program qubit -> physical qubit at circuit start.
    pub initial: Vec<usize>,
    /// Program qubit -> physical qubit after the last instruction.
    pub current: Vec<usize>,
    /// For each program qubit, the physical wire its last measurement
    /// landed on (`None` if never measured).
    pub measured_on: Vec<Option<usize>>,
}

impl Layout {
    /// A layout for a freshly placed circuit: `initial == current ==
    /// mapping`, with measurement locations derived from the static
    /// mapping.
    pub fn from_placement(circuit: &Circuit, mapping: Vec<usize>) -> Layout {
        let measured_on = Layout::derive_measured_on(circuit, &mapping);
        Layout {
            initial: mapping.clone(),
            current: mapping,
            measured_on,
        }
    }

    /// Derives, for each program qubit, the physical wire its last
    /// measurement lands on under a *static* mapping (no SWAPs).
    ///
    /// This is only valid while the mapping does not change over the course
    /// of the circuit — i.e. before routing. The router re-derives
    /// `measured_on` itself, tracking each program qubit as SWAPs move it
    /// between wires, and overwrites this value.
    pub fn derive_measured_on(circuit: &Circuit, mapping: &[usize]) -> Vec<Option<usize>> {
        let mut measured_on = vec![None; circuit.num_qubits()];
        for instr in circuit.iter() {
            if instr.gate.kind() == GateKind::Measurement {
                for &q in &instr.qubits {
                    measured_on[q] = Some(mapping[q]);
                }
            }
        }
        measured_on
    }
}

/// The shared state a pipeline of passes operates on.
///
/// Owns exactly one working [`Circuit`]; passes replace it via
/// [`set_circuit`](Self::set_circuit) instead of threading clones between
/// stages. The only clone the pipeline ever takes beyond the input copy is
/// the optional pre-route snapshot, and only when a downstream
/// routing-audit pass asked for it.
#[derive(Debug)]
pub struct PassContext<'d> {
    device: &'d Device,
    circuit: Circuit,
    layout: Layout,
    swap_count: usize,
    properties: PropertySet,
    diagnostics: Vec<Diagnostic>,
    notes: Vec<(&'static str, FieldValue)>,
    snapshot: Option<Circuit>,
    want_snapshot: bool,
    provenance: Provenance,
    input_clifford: bool,
}

impl<'d> PassContext<'d> {
    /// A fresh context over `circuit`. `want_snapshot` tells the route pass
    /// to keep a copy of its input so a later audit pass can compare the
    /// routed circuit against it.
    pub fn new(device: &'d Device, circuit: Circuit, want_snapshot: bool) -> Self {
        let provenance = Provenance::for_input(&circuit);
        let input_clifford = supermarq_clifford::is_clifford_circuit(&circuit);
        PassContext {
            device,
            circuit,
            layout: Layout::default(),
            swap_count: 0,
            properties: PropertySet::new(),
            diagnostics: Vec::new(),
            notes: Vec::new(),
            snapshot: None,
            want_snapshot,
            provenance,
            input_clifford,
        }
    }

    /// The target device.
    pub fn device(&self) -> &Device {
        self.device
    }

    /// The working circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Replaces the working circuit. The caller **must** report
    /// [`PassOutcome::Mutated`] so the runner invalidates cached analyses
    /// (see the module-level invalidation contract).
    pub fn set_circuit(&mut self, circuit: Circuit) {
        self.circuit = circuit;
    }

    /// The current qubit layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Replaces the qubit layout (placement and routing passes).
    pub fn set_layout(&mut self, layout: Layout) {
        self.layout = layout;
    }

    /// Total SWAPs inserted so far.
    pub fn swap_count(&self) -> usize {
        self.swap_count
    }

    /// Records `n` more inserted SWAPs.
    pub fn add_swaps(&mut self, n: usize) {
        self.swap_count += n;
    }

    /// A cached analysis of the working circuit, computing it on first use.
    pub fn analysis<A: CircuitAnalysis>(&self) -> Rc<A::Output> {
        self.properties.get::<A>(&self.circuit)
    }

    /// The underlying analysis cache (mainly for tests asserting the
    /// invalidation contract).
    pub fn properties(&self) -> &PropertySet {
        &self.properties
    }

    /// Drops every cached analysis. Called by the runner after a pass
    /// reports [`PassOutcome::Mutated`].
    pub fn invalidate_analyses(&mut self) {
        self.properties.invalidate();
    }

    /// Queues an extra field for the running pass's obs span.
    pub fn note(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.notes.push((key, value.into()));
    }

    /// Drains the queued span fields (runner-side).
    pub(crate) fn take_notes(&mut self) -> Vec<(&'static str, FieldValue)> {
        std::mem::take(&mut self.notes)
    }

    /// Whether a downstream pass asked for a pre-route circuit snapshot.
    pub fn wants_route_snapshot(&self) -> bool {
        self.want_snapshot
    }

    /// Saves a copy of the current circuit as the pre-route snapshot.
    pub fn save_route_snapshot(&mut self) {
        self.snapshot = Some(self.circuit.clone());
    }

    /// The pre-route snapshot, when one was taken.
    pub fn route_snapshot(&self) -> Option<&Circuit> {
        self.snapshot.as_ref()
    }

    /// Per-instruction blame tags for the working circuit ([`run_pass`]
    /// records every mutating pass; the diff runs when a tag is read).
    pub fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Records a circuit rewrite in the provenance tracker (runner-side).
    pub(crate) fn record_rewrite(&mut self, old: &Circuit, pass: &'static str) {
        // `self.circuit` is already the rewritten version here.
        self.provenance.record_rewrite(old, &self.circuit, pass);
    }

    /// Whether the pipeline's *input* circuit was entirely Clifford — the
    /// claim the V010 clifford-preservation check holds later stages to.
    pub fn input_clifford(&self) -> bool {
        self.input_clifford
    }

    /// Non-fatal diagnostics accumulated by verify passes.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Appends verify-pass diagnostics to the context.
    pub fn extend_diagnostics(&mut self, diagnostics: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// Tears the context down into its result parts: the final circuit, the
    /// final layout and the total SWAP count.
    pub fn into_parts(self) -> (Circuit, Layout, usize) {
        (self.circuit, self.layout, self.swap_count)
    }
}

/// One stage of a transpile pipeline.
pub trait Pass {
    /// Stable kebab-case identifier (`"route"`, `"verify-final"`, ...),
    /// matching the corresponding [`PassSpec`](crate::pipeline::PassSpec)
    /// id.
    fn name(&self) -> &'static str;

    /// The obs span this pass runs under (e.g. `"transpile.route"`). Kept
    /// separate from [`name`](Self::name) so the historical span names
    /// survive the refactor.
    fn span_name(&self) -> &'static str;

    /// Runs the pass over the shared context.
    ///
    /// # Errors
    ///
    /// Routing passes return [`TranspileError::Routing`]; verify passes
    /// return [`TranspileError::Verification`] on error-grade findings.
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassOutcome, TranspileError>;
}

/// Runs one pass under its obs span, recording `gates_in` / `gates_out`
/// and draining the pass's queued [`note`](PassContext::note)s into the
/// span, then enforces the invalidation contract.
///
/// # Errors
///
/// Propagates whatever the pass returns.
pub fn run_pass(pass: &dyn Pass, ctx: &mut PassContext<'_>) -> Result<PassOutcome, TranspileError> {
    let mut span = Span::open(pass.span_name());
    span.record_with("gates_in", || *ctx.analysis::<GateCount>());
    let before = ctx.circuit().clone();
    let outcome = pass.run(ctx);
    for (key, value) in ctx.take_notes() {
        span.record(key, value);
    }
    let outcome = outcome?;
    if outcome == PassOutcome::Mutated {
        ctx.invalidate_analyses();
        // Blame: instructions the pass did not preserve get its name once
        // a diagnostic reads their tags. Inner FixedPoint members mutate
        // without their own run_pass frame, so their edits land on the
        // enclosing pass — the granularity the pipeline actually reruns at.
        ctx.record_rewrite(&before, pass.name());
    }
    span.record_with("gates_out", || *ctx.analysis::<GateCount>());
    Ok(outcome)
}

/// Runs a cycle of passes until a full round leaves the circuit unchanged
/// (or the round cap is hit), invalidating cached analyses after every
/// mutating member so later members never read stale values.
///
/// Inner passes run without their own obs spans; the combinator is meant to
/// live *inside* a named pass (e.g. the optimize passes), whose span the
/// runner already emits.
pub struct FixedPoint {
    passes: Vec<Box<dyn Pass>>,
    max_rounds: usize,
}

impl FixedPoint {
    /// A fixed-point loop over `passes` with the default round cap of 8.
    pub fn new(passes: Vec<Box<dyn Pass>>) -> Self {
        FixedPoint {
            passes,
            max_rounds: 8,
        }
    }

    /// Overrides the safety cap on rounds.
    pub fn with_max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Runs rounds until quiescence; returns the combined outcome and the
    /// number of rounds executed.
    ///
    /// # Errors
    ///
    /// Propagates the first inner-pass error.
    pub fn run(&self, ctx: &mut PassContext<'_>) -> Result<(PassOutcome, usize), TranspileError> {
        let mut combined = PassOutcome::Unchanged;
        let mut rounds = 0usize;
        for _ in 0..self.max_rounds {
            rounds += 1;
            let mut round_changed = false;
            for pass in &self.passes {
                if pass.run(ctx)? == PassOutcome::Mutated {
                    ctx.invalidate_analyses();
                    round_changed = true;
                    combined = PassOutcome::Mutated;
                }
            }
            if !round_changed {
                break;
            }
        }
        Ok((combined, rounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_circuit::{Depth, TwoQubitGateCount};
    use supermarq_device::Device;

    fn ctx_for(circuit: Circuit) -> (Device, Circuit) {
        (Device::ionq(), circuit)
    }

    #[test]
    fn analysis_is_cached_until_invalidated() {
        let (device, mut c) = ctx_for(Circuit::new(2));
        c.h(0).cx(0, 1);
        let mut ctx = PassContext::new(&device, c, false);
        assert_eq!(*ctx.analysis::<Depth>(), 2);
        assert!(ctx.properties().is_cached::<Depth>());
        let mut bigger = ctx.circuit().clone();
        bigger.h(1);
        ctx.set_circuit(bigger);
        // Stale until the runner invalidates — the documented contract.
        assert_eq!(*ctx.analysis::<Depth>(), 2);
        ctx.invalidate_analyses();
        assert_eq!(*ctx.analysis::<Depth>(), 3);
    }

    #[test]
    fn derive_measured_on_follows_the_static_mapping() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).measure(0).measure(1);
        let m = Layout::derive_measured_on(&c, &[4, 2, 0]);
        assert_eq!(m, vec![Some(4), Some(2), None]);
    }

    struct AppendH;
    impl Pass for AppendH {
        fn name(&self) -> &'static str {
            "append-h"
        }
        fn span_name(&self) -> &'static str {
            "transpile.test"
        }
        fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassOutcome, TranspileError> {
            let mut c = ctx.circuit().clone();
            c.h(0);
            ctx.set_circuit(c);
            Ok(PassOutcome::Mutated)
        }
    }

    struct Noop;
    impl Pass for Noop {
        fn name(&self) -> &'static str {
            "noop"
        }
        fn span_name(&self) -> &'static str {
            "transpile.test"
        }
        fn run(&self, _ctx: &mut PassContext<'_>) -> Result<PassOutcome, TranspileError> {
            Ok(PassOutcome::Unchanged)
        }
    }

    #[test]
    fn runner_invalidates_only_on_mutation() {
        let (device, c) = ctx_for(Circuit::new(1));
        let mut ctx = PassContext::new(&device, c, false);
        assert_eq!(*ctx.analysis::<TwoQubitGateCount>(), 0);
        run_pass(&Noop, &mut ctx).unwrap();
        assert!(ctx.properties().is_cached::<TwoQubitGateCount>());
        run_pass(&AppendH, &mut ctx).unwrap();
        // gates_out recording re-primes GateCount, but the stale 2q count
        // must be gone.
        assert!(!ctx.properties().is_cached::<TwoQubitGateCount>());
        assert_eq!(*ctx.analysis::<Depth>(), 1);
    }

    /// Removes trailing H pairs one pair per invocation, so quiescence
    /// takes several rounds.
    struct CancelHPair;
    impl Pass for CancelHPair {
        fn name(&self) -> &'static str {
            "cancel-h-pair"
        }
        fn span_name(&self) -> &'static str {
            "transpile.test"
        }
        fn run(&self, ctx: &mut PassContext<'_>) -> Result<PassOutcome, TranspileError> {
            let gates: Vec<_> = ctx.circuit().iter().cloned().collect();
            if gates.len() >= 2 {
                let mut c = Circuit::new(ctx.circuit().num_qubits());
                for instr in &gates[..gates.len() - 2] {
                    c.append(instr.gate, &instr.qubits);
                }
                ctx.set_circuit(c);
                Ok(PassOutcome::Mutated)
            } else {
                Ok(PassOutcome::Unchanged)
            }
        }
    }

    #[test]
    fn fixed_point_runs_until_quiescent() {
        let device = Device::ionq();
        let mut c = Circuit::new(1);
        c.h(0).h(0).h(0).h(0).h(0).h(0);
        let mut ctx = PassContext::new(&device, c, false);
        let fp = FixedPoint::new(vec![Box::new(CancelHPair)]);
        let (outcome, rounds) = fp.run(&mut ctx).unwrap();
        assert_eq!(outcome, PassOutcome::Mutated);
        // Three mutating rounds plus the quiescent confirmation round.
        assert_eq!(rounds, 4);
        assert_eq!(ctx.circuit().gate_count(), 0);
    }

    #[test]
    fn fixed_point_respects_round_cap() {
        let device = Device::ionq();
        let mut ctx = PassContext::new(&device, Circuit::new(1), false);
        let fp = FixedPoint::new(vec![Box::new(AppendH)]).with_max_rounds(3);
        let (outcome, rounds) = fp.run(&mut ctx).unwrap();
        assert_eq!(outcome, PassOutcome::Mutated);
        assert_eq!(rounds, 3);
        assert_eq!(ctx.circuit().gate_count(), 3);
    }
}
