//! Liveness / lightcone domain and the checks it powers (V008, V009).
//!
//! Two interpretations of the same per-qubit facts:
//!
//! * **Forward liveness** ([`LivenessDomain`]) tracks, per qubit, the live
//!   range (first/last use), whether it has been measured yet, and how much
//!   unconsumed unitary work has accumulated since the last collapse. A
//!   reset that lands on a qubit carrying unconsumed, uncoupled work
//!   *clobbers* state nothing ever observed — check V009.
//! * **Reverse lightcone** ([`LightconeDomain`]) walks the circuit
//!   backwards from every measurement, growing the set of wires that can
//!   still influence an observed outcome. A unitary touching no such wire
//!   is *dead*: it lies outside every measurement lightcone — check V008.
//!
//! V008 deliberately cedes territory to V003: a gate whose operand was
//! already measured earlier in the circuit is the measurement-discipline
//! pass's finding (and routing legitimately swaps through measured wires),
//! so V008 only flags dead gates on wires with no earlier measurement.

use crate::dataflow::{interpret, interpret_rev, Domain};
use crate::{CheckId, Context, Diagnostic, Pass, Severity};
use std::rc::Rc;
use supermarq_circuit::{Circuit, CircuitAnalysis, GateKind, Instruction, PropertySet};

/// Forward per-qubit liveness facts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Liveness {
    /// First instruction index touching each qubit.
    pub first_use: Vec<Option<usize>>,
    /// Last instruction index touching each qubit.
    pub last_use: Vec<Option<usize>>,
    /// Whether each qubit has been measured at least once.
    pub measured: Vec<bool>,
    /// Unitaries applied to each qubit since its last collapse
    /// (start of circuit, measurement, or reset).
    pub pending: Vec<usize>,
    /// Whether the qubit interacted with another wire since its last
    /// collapse (entangled state escapes through the partner).
    pub coupled: Vec<bool>,
    /// `(instruction, qubit)` pairs where a reset discarded unconsumed,
    /// uncoupled unitary work — the V009 findings.
    pub clobbered: Vec<(usize, usize)>,
    /// Per instruction: whether any operand had already been measured when
    /// the instruction executed (V008 uses this to stay out of V003's
    /// territory).
    pub operand_measured_before: Vec<bool>,
}

/// The forward liveness domain.
pub struct LivenessDomain;

impl Domain for LivenessDomain {
    type State = Liveness;

    fn name(&self) -> &'static str {
        "liveness"
    }

    fn initial(&self, circuit: &Circuit) -> Liveness {
        let n = circuit.num_qubits();
        Liveness {
            first_use: vec![None; n],
            last_use: vec![None; n],
            measured: vec![false; n],
            pending: vec![0; n],
            coupled: vec![false; n],
            clobbered: Vec::new(),
            operand_measured_before: Vec::with_capacity(circuit.instructions().len()),
        }
    }

    fn transfer(&self, state: &mut Liveness, index: usize, instr: &Instruction) {
        let n = state.measured.len();
        let operands: Vec<usize> = instr.qubits.iter().copied().filter(|&q| q < n).collect();
        state
            .operand_measured_before
            .push(operands.iter().any(|&q| state.measured[q]));
        for &q in &operands {
            state.first_use[q].get_or_insert(index);
            state.last_use[q] = Some(index);
        }
        match instr.gate.kind() {
            GateKind::Barrier => {}
            GateKind::Measurement => {
                for &q in &operands {
                    state.measured[q] = true;
                    state.pending[q] = 0;
                    state.coupled[q] = false;
                }
            }
            GateKind::Reset => {
                for &q in &operands {
                    if state.pending[q] > 0 && !state.coupled[q] {
                        state.clobbered.push((index, q));
                    }
                    state.pending[q] = 0;
                    state.coupled[q] = false;
                }
            }
            GateKind::OneQubitUnitary => {
                for &q in &operands {
                    state.pending[q] += 1;
                }
            }
            GateKind::TwoQubitUnitary => {
                for &q in &operands {
                    state.pending[q] += 1;
                    state.coupled[q] = true;
                }
            }
        }
    }
}

/// Reverse lightcone facts: which wires can still influence a measurement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lightcone {
    /// Wires inside some measurement's lightcone at the current (reverse)
    /// program point.
    pub relevant: Vec<bool>,
    /// Number of measurements seen.
    pub measurements: usize,
    /// Unitary instructions outside every measurement lightcone, in the
    /// order visited (reverse program order).
    pub dead: Vec<usize>,
}

/// The reverse lightcone domain; interpret with
/// [`crate::dataflow::interpret_rev`].
pub struct LightconeDomain;

impl Domain for LightconeDomain {
    type State = Lightcone;

    fn name(&self) -> &'static str {
        "lightcone"
    }

    fn initial(&self, circuit: &Circuit) -> Lightcone {
        Lightcone {
            relevant: vec![false; circuit.num_qubits()],
            measurements: 0,
            dead: Vec::new(),
        }
    }

    fn transfer(&self, state: &mut Lightcone, index: usize, instr: &Instruction) {
        let n = state.relevant.len();
        let operands: Vec<usize> = instr.qubits.iter().copied().filter(|&q| q < n).collect();
        match instr.gate.kind() {
            GateKind::Barrier => {}
            GateKind::Measurement => {
                state.measurements += 1;
                for &q in &operands {
                    state.relevant[q] = true;
                }
            }
            GateKind::Reset => {
                // Whatever precedes a reset cannot reach later measurements
                // through this wire.
                for &q in &operands {
                    state.relevant[q] = false;
                }
            }
            GateKind::OneQubitUnitary | GateKind::TwoQubitUnitary => {
                if operands.iter().any(|&q| state.relevant[q]) {
                    for &q in &operands {
                        state.relevant[q] = true;
                    }
                } else {
                    state.dead.push(index);
                }
            }
        }
    }
}

/// [`CircuitAnalysis`] wrapper caching [`Liveness`] in a `PropertySet`.
pub struct LivenessAnalysis;

impl CircuitAnalysis for LivenessAnalysis {
    type Output = Liveness;

    fn compute(circuit: &Circuit, _properties: &PropertySet) -> Liveness {
        interpret(&LivenessDomain, circuit)
    }
}

/// [`CircuitAnalysis`] wrapper caching [`Lightcone`] in a `PropertySet`.
pub struct LightconeAnalysis;

impl CircuitAnalysis for LightconeAnalysis {
    type Output = Lightcone;

    fn compute(circuit: &Circuit, _properties: &PropertySet) -> Lightcone {
        interpret_rev(&LightconeDomain, circuit)
    }
}

fn liveness_of(ctx: &Context<'_>) -> Rc<Liveness> {
    match ctx.properties {
        Some(props) => props.get::<LivenessAnalysis>(ctx.circuit),
        None => Rc::new(interpret(&LivenessDomain, ctx.circuit)),
    }
}

fn lightcone_of(ctx: &Context<'_>) -> Rc<Lightcone> {
    match ctx.properties {
        Some(props) => props.get::<LightconeAnalysis>(ctx.circuit),
        None => Rc::new(interpret_rev(&LightconeDomain, ctx.circuit)),
    }
}

/// V008: dead gate outside every measurement lightcone.
pub struct DeadGate;

impl Pass for DeadGate {
    fn id(&self) -> CheckId {
        CheckId::DeadGate
    }

    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        if ctx.circuit.measurement_count() == 0 {
            return; // a purely unitary circuit observes nothing; all fair
        }
        let cone = lightcone_of(ctx);
        let live = liveness_of(ctx);
        let mut dead: Vec<usize> = cone.dead.clone();
        dead.sort_unstable();
        for index in dead {
            // Gates on previously-measured wires are V003's finding.
            if live.operand_measured_before.get(index).copied() == Some(true) {
                continue;
            }
            let instr = &ctx.circuit.instructions()[index];
            out.push(Diagnostic::at(
                CheckId::DeadGate,
                Severity::Warning,
                index,
                format!(
                    "'{}' on {:?} lies outside every measurement lightcone: \
                     no observed outcome depends on it",
                    instr.gate, instr.qubits
                ),
            ));
        }
    }
}

/// V009: reset clobbers unconsumed quantum state.
pub struct ClobberedQubit;

impl Pass for ClobberedQubit {
    fn id(&self) -> CheckId {
        CheckId::ClobberedQubit
    }

    fn run(&self, ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
        let live = liveness_of(ctx);
        for &(index, qubit) in &live.clobbered {
            out.push(Diagnostic::at(
                CheckId::ClobberedQubit,
                Severity::Warning,
                index,
                format!(
                    "reset clobbers qubit {qubit}: unitary work since its last \
                     collapse was never measured or shared with another wire"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verifier;

    fn run_check(pass: impl Pass, circuit: &Circuit) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        pass.run(&Context::bare(circuit), &mut out);
        out
    }

    #[test]
    fn liveness_tracks_ranges_and_measurements() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).measure(0).measure(1);
        let live = interpret(&LivenessDomain, &c);
        assert_eq!(live.first_use[0], Some(0));
        assert_eq!(live.last_use[0], Some(2));
        assert_eq!(live.first_use[2], None);
        assert_eq!(live.measured, vec![true, true, false]);
        assert_eq!(
            live.operand_measured_before,
            vec![false, false, false, false]
        );
        assert!(live.clobbered.is_empty());
    }

    #[test]
    fn lightcone_marks_gate_on_unmeasured_spare_wire_dead() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).h(2).measure(0).measure(1);
        let cone = interpret_rev(&LightconeDomain, &c);
        assert_eq!(cone.dead, vec![2]);
        assert_eq!(cone.measurements, 2);
        assert!(cone.relevant[0] && cone.relevant[1]);
    }

    #[test]
    fn v008_flags_dead_gate_with_location() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).h(2).measure(0).measure(1);
        let out = run_check(DeadGate, &c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instruction, Some(2));
        assert_eq!(out[0].severity, Severity::Warning);
    }

    #[test]
    fn v008_is_silent_without_measurements_and_on_clean_circuits() {
        let mut unitary_only = Circuit::new(2);
        unitary_only.h(0).h(1).cx(0, 1);
        assert!(run_check(DeadGate, &unitary_only).is_empty());

        let mut clean = Circuit::new(2);
        clean.h(0).cx(0, 1).measure_all();
        assert!(run_check(DeadGate, &clean).is_empty());
    }

    #[test]
    fn v008_leaves_previously_measured_wires_to_v003() {
        // Post-measurement stragglers and swaps through measured wires are
        // V003 findings (or legitimate routing); V008 must stay silent.
        let mut straggler = Circuit::new(2);
        straggler.h(0).cx(0, 1).measure(0).measure(1).x(0);
        assert!(run_check(DeadGate, &straggler).is_empty());

        let mut routed_swap = Circuit::new(2);
        routed_swap.h(0).measure(0).swap(0, 1);
        assert!(run_check(DeadGate, &routed_swap).is_empty());
    }

    #[test]
    fn v008_sees_through_entanglement_into_the_cone() {
        // The h(2) feeds cx(2, 1) which feeds the measured wire: alive.
        let mut c = Circuit::new(3);
        c.h(0).h(2).cx(2, 1).cx(0, 1).measure(1);
        assert!(run_check(DeadGate, &c).is_empty());
    }

    #[test]
    fn v008_treats_reset_as_a_cone_boundary() {
        // h(1) happens before the reset wipes wire 1: nothing observed
        // depends on it, even though wire 1 is measured later.
        let mut c = Circuit::new(2);
        c.h(0).h(1).reset(1).cx(0, 1).measure_all();
        let out = run_check(DeadGate, &c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instruction, Some(1));
    }

    #[test]
    fn v009_flags_reset_discarding_unconsumed_work() {
        let mut c = Circuit::new(2);
        c.h(0).reset(0).x(0).measure_all();
        let out = run_check(ClobberedQubit, &c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instruction, Some(1));
        assert!(out[0].message.contains("qubit 0"));
    }

    #[test]
    fn v009_tolerates_measured_and_coupled_work() {
        // measure-then-reset is the canonical ancilla recycle: fine.
        let mut recycled = Circuit::new(2);
        recycled.h(0).measure(0).reset(0).h(0).measure(0);
        assert!(run_check(ClobberedQubit, &recycled).is_empty());

        // Entangled work escapes through the partner wire: fine.
        let mut coupled = Circuit::new(2);
        coupled.h(0).cx(0, 1).reset(0).measure_all();
        assert!(run_check(ClobberedQubit, &coupled).is_empty());

        // A fresh reset (nothing pending) is fine.
        let mut fresh = Circuit::new(1);
        fresh.reset(0).h(0).measure(0);
        assert!(run_check(ClobberedQubit, &fresh).is_empty());
    }

    #[test]
    fn analyses_land_in_a_property_set() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure_all();
        let props = PropertySet::new();
        let ctx = Context::bare(&c).with_properties(&props);
        let mut out = Vec::new();
        DeadGate.run(&ctx, &mut out);
        assert!(props.is_cached::<LightconeAnalysis>());
        assert!(props.is_cached::<LivenessAnalysis>());
        // Cached result identical to a fresh interpretation.
        assert_eq!(
            *props.get::<LivenessAnalysis>(&c),
            interpret(&LivenessDomain, &c)
        );
    }

    #[test]
    fn out_of_range_operands_do_not_panic_the_domains() {
        use supermarq_circuit::Gate;
        let mut c = Circuit::new(2);
        c.push_unchecked(Gate::Cx, &[0, 9]);
        c.measure_all();
        let report = Verifier::all().verify(&Context::bare(&c));
        // V001 owns the finding; the dataflow checks must simply survive.
        assert!(report.has_errors());
    }
}
