//! The pass-manager core: [`Pass`], [`PassContext`] and [`Layout`].
//!
//! A transpile pipeline is a sequence of [`Pass`]es run over one shared
//! [`PassContext`]. The context owns the working [`Circuit`] and the qubit
//! [`Layout`]. A pass that needs an analysis of the circuit (depth, the
//! interaction graph, ...) calls it on [`PassContext::circuit`]; the
//! context holds no analysis results.
//!
//! # Blame
//!
//! A pass changes the working circuit only through
//! [`PassContext::set_circuit`], which records the rewrite in the
//! context's [`Provenance`] under the name of the pass [`run_pass`] is
//! running. So a pass reports nothing about what it did, and the runner
//! never copies a pass's input.
//!
//! # Observability
//!
//! [`run_pass`] opens the pass's obs span and records `gates_in` /
//! `gates_out` automatically, so passes never copy-paste instrumentation.
//! A pass adds extra span fields by queuing [`PassContext::note`]s, which
//! the runner drains into the span after the pass returns.

use supermarq_circuit::{Circuit, GateKind};
use supermarq_device::Device;
use supermarq_obs::{FieldValue, Span};
use supermarq_verify::Diagnostic;

use crate::placement::PlacementStrategy;
use crate::provenance::{Provenance, INPUT_TAG};
use crate::transpiler::TranspileError;

/// The program-to-physical qubit mapping as a first-class value.
///
/// Before placement the layout is empty; the placement pass
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
    pub(crate) fn from_placement(circuit: &Circuit, mapping: Vec<usize>) -> Layout {
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
    pub(crate) fn derive_measured_on(circuit: &Circuit, mapping: &[usize]) -> Vec<Option<usize>> {
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
/// stages. Beyond the input copy, the pipeline copies a circuit only to
/// keep a rewrite for blame (see `Provenance`) and for the optional
/// pre-route snapshot, taken only when a downstream routing-audit pass
/// asked for it.
#[derive(Debug)]
pub struct PassContext<'d> {
    device: &'d Device,
    placement: PlacementStrategy,
    circuit: Circuit,
    layout: Layout,
    swap_count: usize,
    diagnostics: Vec<Diagnostic>,
    notes: Vec<(&'static str, FieldValue)>,
    snapshot: Option<Circuit>,
    want_snapshot: bool,
    provenance: Provenance,
    running: &'static str,
    input_clifford: bool,
}

impl<'d> PassContext<'d> {
    /// A fresh context over `circuit`. The place pass maps it onto `device`
    /// by `placement`; `want_snapshot` tells the route pass to keep a copy
    /// of its input so a later audit pass can compare the routed circuit
    /// against it.
    pub fn new(
        device: &'d Device,
        placement: PlacementStrategy,
        circuit: Circuit,
        want_snapshot: bool,
    ) -> Self {
        let provenance = Provenance::for_input(&circuit);
        let input_clifford = supermarq_clifford::is_clifford_circuit(&circuit);
        PassContext {
            device,
            placement,
            circuit,
            layout: Layout::default(),
            swap_count: 0,
            diagnostics: Vec::new(),
            notes: Vec::new(),
            snapshot: None,
            want_snapshot,
            provenance,
            running: INPUT_TAG,
            input_clifford,
        }
    }

    /// The target device.
    pub(crate) fn device(&self) -> &Device {
        self.device
    }

    /// The strategy the place pass maps the circuit by.
    pub(crate) fn placement(&self) -> PlacementStrategy {
        self.placement
    }

    /// The working circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Replaces the working circuit and records the rewrite for blame:
    /// instructions the rewrite did not preserve are blamed on the pass
    /// [`run_pass`] last started (`INPUT_TAG` before the first). A pass
    /// calls this once, with everything it changed.
    pub fn set_circuit(&mut self, circuit: Circuit) {
        let old = std::mem::replace(&mut self.circuit, circuit);
        self.provenance
            .record_rewrite(&old, &self.circuit, self.running);
    }

    /// The current qubit layout.
    pub(crate) fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Replaces the qubit layout (placement and routing passes).
    pub(crate) fn set_layout(&mut self, layout: Layout) {
        self.layout = layout;
    }

    /// Total SWAPs inserted so far.
    pub(crate) fn swap_count(&self) -> usize {
        self.swap_count
    }

    /// Records `n` more inserted SWAPs.
    pub(crate) fn add_swaps(&mut self, n: usize) {
        self.swap_count += n;
    }

    /// Queues an extra field for the running pass's obs span.
    pub(crate) fn note(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.notes.push((key, value.into()));
    }

    /// Drains the queued span fields (runner-side).
    pub(crate) fn take_notes(&mut self) -> Vec<(&'static str, FieldValue)> {
        std::mem::take(&mut self.notes)
    }

    /// Whether a downstream pass asked for a pre-route circuit snapshot.
    pub(crate) fn wants_route_snapshot(&self) -> bool {
        self.want_snapshot
    }

    /// Saves a copy of the current circuit as the pre-route snapshot.
    pub(crate) fn save_route_snapshot(&mut self) {
        self.snapshot = Some(self.circuit.clone());
    }

    /// The pre-route snapshot, when one was taken.
    pub(crate) fn route_snapshot(&self) -> Option<&Circuit> {
        self.snapshot.as_ref()
    }

    /// Per-instruction blame tags for the working circuit
    /// ([`set_circuit`](Self::set_circuit) records every rewrite; the diff
    /// runs when a tag is read).
    pub(crate) fn provenance(&self) -> &Provenance {
        &self.provenance
    }

    /// Whether the pipeline's *input* circuit was entirely Clifford — the
    /// claim the V010 clifford-preservation check holds later stages to.
    pub(crate) fn input_clifford(&self) -> bool {
        self.input_clifford
    }

    /// Non-fatal diagnostics accumulated by verify passes.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Appends verify-pass diagnostics to the context.
    pub(crate) fn extend_diagnostics(&mut self, diagnostics: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(diagnostics);
    }

    /// Tears the context down into its result parts: the final circuit, the
    /// final layout and the total SWAP count.
    pub(crate) fn into_parts(self) -> (Circuit, Layout, usize) {
        (self.circuit, self.layout, self.swap_count)
    }
}

/// One stage of a transpile pipeline. The built-in passes are the
/// [`PassSpec`](crate::PassSpec) variants; tests implement it to
/// run a fake pass among them.
pub trait Pass {
    /// Stable kebab-case identifier (`"route"`, `"verify-final"`, ...):
    /// the name blame reports.
    fn name(&self) -> &'static str;

    /// The obs span this pass runs under (e.g. `"transpile.route"`).
    /// Passes may share one: the two optimize passes run under
    /// `transpile.optimize`, the four verify passes under
    /// `transpile.verify`.
    fn span_name(&self) -> &'static str;

    /// Runs the pass over the shared context.
    ///
    /// # Errors
    ///
    /// Routing passes return [`TranspileError::Routing`]; verify passes
    /// return [`TranspileError::Verification`] on error-grade findings.
    fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError>;
}

/// Runs one pass under its obs span: names it on the context (so its
/// [`set_circuit`](PassContext::set_circuit) call is blamed on it), records
/// `gates_in` / `gates_out`, and drains the pass's queued notes into the
/// span.
///
/// # Errors
///
/// Propagates whatever the pass returns.
pub fn run_pass(pass: &dyn Pass, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
    let mut span = Span::open(pass.span_name());
    span.record_with("gates_in", || ctx.circuit().gate_count());
    ctx.running = pass.name();
    let result = pass.run(ctx);
    for (key, value) in ctx.take_notes() {
        span.record(key, value);
    }
    result?;
    span.record_with("gates_out", || ctx.circuit().gate_count());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_device::Device;

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
        fn run(&self, ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
            let mut c = ctx.circuit().clone();
            c.h(0);
            ctx.set_circuit(c);
            Ok(())
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
        fn run(&self, _ctx: &mut PassContext<'_>) -> Result<(), TranspileError> {
            Ok(())
        }
    }

    #[test]
    fn set_circuit_blames_the_running_pass() {
        let device = Device::ionq();
        let mut c = Circuit::new(1);
        c.x(0);
        let mut ctx = PassContext::new(&device, PlacementStrategy::Greedy, c, false);
        run_pass(&Noop, &mut ctx).unwrap();
        assert_eq!(ctx.provenance().last_mutator(), None);
        run_pass(&AppendH, &mut ctx).unwrap();
        run_pass(&Noop, &mut ctx).unwrap();
        assert_eq!(ctx.provenance().last_mutator(), Some("append-h"));
        assert_eq!(ctx.provenance().tag(0), INPUT_TAG);
        assert_eq!(ctx.provenance().tag(1), "append-h");
    }
}
