//! The structural and hardware-conformance checks (V001–V005, V007).
//!
//! Each check is a function [`CheckId::run`] dispatches to; the
//! Closed-Division audit (V006) lives in [`crate::audit`] because it needs
//! routing provenance and a statevector engine.

use crate::{CheckId, Context, Diagnostic, Severity};
use supermarq_circuit::{Gate, GateKind};

/// V001: every operand index is in range and the operand count matches the
/// gate's arity (barriers excepted — their arity is variable).
///
/// [`supermarq_circuit::Circuit::push`] enforces the same rules at
/// construction time; this check re-establishes them for circuits arriving
/// from elsewhere (QASM import, [`Circuit::push_unchecked`], hand-built
/// instruction lists).
///
/// [`Circuit::push_unchecked`]: supermarq_circuit::Circuit::push_unchecked
pub(crate) fn operand_validity(ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let n = ctx.circuit.num_qubits();
    for (i, instr) in ctx.circuit.iter().enumerate() {
        if instr.gate.kind() != GateKind::Barrier && instr.qubits.len() != instr.gate.arity() {
            out.push(Diagnostic::at(
                CheckId::OperandValidity,
                Severity::Error,
                i,
                format!(
                    "gate '{}' expects {} operand(s), got {}",
                    instr.gate.qasm_name(),
                    instr.gate.arity(),
                    instr.qubits.len()
                ),
            ));
        }
        for &q in &instr.qubits {
            if q >= n {
                out.push(Diagnostic::at(
                    CheckId::OperandValidity,
                    Severity::Error,
                    i,
                    format!("qubit {q} out of range for {n}-qubit circuit"),
                ));
            }
        }
    }
}

/// V002: no instruction repeats a qubit operand (`cx q[1], q[1]` is
/// meaningless and physically unrealizable).
pub(crate) fn duplicate_operands(ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    for (i, instr) in ctx.circuit.iter().enumerate() {
        for (k, &q) in instr.qubits.iter().enumerate() {
            if instr.qubits[..k].contains(&q) {
                out.push(Diagnostic::at(
                    CheckId::DuplicateOperands,
                    Severity::Error,
                    i,
                    format!(
                        "duplicate operand qubit {q} in '{}'",
                        instr.gate.qasm_name()
                    ),
                ));
            }
        }
    }
}

/// V003: measurement discipline.
///
/// Flags (a) a unitary whose operands have *all* already received their
/// final measurement — requiring every operand to be dead avoids false
/// positives on routing SWAPs that legitimately move a live qubit through a
/// measured one — and (b) re-measurement of a qubit with no intervening
/// reset. Both are warnings, not errors: the structures are suspicious but
/// can be deliberate (e.g. repeated readout).
pub(crate) fn measurement_discipline(ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let n = ctx.circuit.num_qubits();
    let mut measured = vec![false; n];
    for (i, instr) in ctx.circuit.iter().enumerate() {
        // Ignore operands V001 already flagged as out of range.
        let operands: Vec<usize> = instr.qubits.iter().copied().filter(|&q| q < n).collect();
        match instr.gate.kind() {
            GateKind::Measurement => {
                for &q in &operands {
                    if measured[q] {
                        out.push(Diagnostic::at(
                            CheckId::MeasurementDiscipline,
                            Severity::Warning,
                            i,
                            format!("qubit {q} measured again without an intervening reset"),
                        ));
                    }
                    measured[q] = true;
                }
            }
            GateKind::Reset => {
                for &q in &operands {
                    measured[q] = false;
                }
            }
            GateKind::Barrier => {}
            GateKind::OneQubitUnitary | GateKind::TwoQubitUnitary => {
                if !operands.is_empty() && operands.iter().all(|&q| measured[q]) {
                    out.push(Diagnostic::at(
                        CheckId::MeasurementDiscipline,
                        Severity::Warning,
                        i,
                        format!(
                            "'{}' acts on qubit(s) {:?} after their final measurement",
                            instr.gate.qasm_name(),
                            operands
                        ),
                    ));
                }
            }
        }
    }
}

/// V004: native-gate conformance. Every instruction must belong to the
/// target device's native set (Closed Division: "decomposition into the
/// native gates of the machine"). Silent without a device in the context.
pub(crate) fn native_gates(ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let Some(device) = ctx.device else { return };
    let gate_set = device.gate_set();
    for (i, instr) in ctx.circuit.iter().enumerate() {
        if !crate::is_native(&instr.gate, gate_set) {
            out.push(Diagnostic::at(
                CheckId::NativeGates,
                Severity::Error,
                i,
                format!(
                    "gate '{}' is not native to {} ({:?})",
                    instr.gate.qasm_name(),
                    device.name(),
                    gate_set
                ),
            ));
        }
    }
}

/// V005: coupling-map conformance. Every two-qubit gate must act on a
/// physically coupled pair (Closed Division: "routing of the qubits" must
/// respect the topology). Silent without a device in the context.
pub(crate) fn coupling_map(ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let Some(device) = ctx.device else { return };
    let topology = device.topology();
    let n_phys = topology.num_qubits();
    for (i, instr) in ctx.circuit.iter().enumerate() {
        if !instr.is_two_qubit() || instr.qubits.len() != 2 {
            continue;
        }
        let (a, b) = (instr.qubits[0], instr.qubits[1]);
        if a >= n_phys || b >= n_phys {
            // Out-of-range on the *device* (the circuit register may be
            // larger or smaller than the chip).
            out.push(Diagnostic::at(
                CheckId::CouplingMap,
                Severity::Error,
                i,
                format!(
                    "'{}' on ({a}, {b}) exceeds the {n_phys}-qubit device {}",
                    instr.gate.qasm_name(),
                    device.name()
                ),
            ));
        } else if a != b && !topology.are_adjacent(a, b) {
            out.push(Diagnostic::at(
                CheckId::CouplingMap,
                Severity::Error,
                i,
                format!(
                    "'{}' on non-adjacent physical qubits ({a}, {b}) of {}",
                    instr.gate.qasm_name(),
                    device.name()
                ),
            ));
        }
    }
}

/// Angle threshold below which a rotation is reported as ≈ identity.
const ANGLE_EPS: f64 = 1e-9;

fn near_zero_rotation(gate: &Gate) -> Option<f64> {
    let theta = match gate {
        Gate::Rx(t)
        | Gate::Ry(t)
        | Gate::Rz(t)
        | Gate::P(t)
        | Gate::Cp(t)
        | Gate::Rxx(t)
        | Gate::Ryy(t)
        | Gate::Rzz(t) => *t,
        _ => return None,
    };
    let tau = std::f64::consts::TAU;
    let wrapped = (theta % tau + tau) % tau; // into [0, 2π)
    let dist = wrapped.min(tau - wrapped);
    (dist < ANGLE_EPS).then_some(theta)
}

fn is_self_inverse(gate: &Gate) -> bool {
    gate.inverse().as_ref() == Some(gate)
}

/// V007: lint-grade findings. Nothing here affects correctness.
///
/// - adjacent self-inverse pairs (`h q; h q` with no intervening gate on an
///   overlapping operand) — the optimizer should have cancelled them;
/// - parameterized rotations with angle ≈ 0 (mod 2π) — identity gates that
///   still cost a pulse;
/// - qubits the circuit never touches (barriers don't count as touches).
pub(crate) fn lint(ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    let circuit = ctx.circuit;
    let instrs = circuit.instructions();

    // Adjacent self-inverse pairs: for each instruction, the next
    // instruction sharing any operand must not be its exact repeat.
    for (i, instr) in instrs.iter().enumerate() {
        if !is_self_inverse(&instr.gate) || instr.qubits.is_empty() {
            continue;
        }
        for later in &instrs[i + 1..] {
            if later.qubits.iter().all(|q| !instr.qubits.contains(q)) {
                continue; // disjoint: keep scanning forward
            }
            if later.gate == instr.gate && later.qubits == instr.qubits {
                out.push(Diagnostic::at(
                    CheckId::Lint,
                    Severity::Lint,
                    i,
                    format!(
                        "adjacent self-inverse pair: '{}' on {:?} cancels with its repeat",
                        instr.gate.qasm_name(),
                        instr.qubits
                    ),
                ));
            }
            break; // first overlapping instruction decides
        }
    }

    // Rotations with angle ≈ 0 (mod 2π).
    for (i, instr) in instrs.iter().enumerate() {
        if let Some(theta) = near_zero_rotation(&instr.gate) {
            out.push(Diagnostic::at(
                CheckId::Lint,
                Severity::Lint,
                i,
                format!(
                    "rotation '{}' with angle {theta:e} ≈ identity",
                    instr.gate.qasm_name()
                ),
            ));
        }
    }

    // Unused qubits. Skipped for routed circuits: a routed register
    // spans the whole chip, so idle physical wires are expected.
    if ctx.routing.is_none() {
        let n = circuit.num_qubits();
        let mut touched = vec![false; n];
        for instr in instrs {
            if instr.gate.kind() == GateKind::Barrier {
                continue;
            }
            for &q in &instr.qubits {
                if q < n {
                    touched[q] = true;
                }
            }
        }
        let unused: Vec<usize> = (0..n).filter(|&q| !touched[q]).collect();
        if !unused.is_empty() && !instrs.is_empty() {
            out.push(Diagnostic::global(
                CheckId::Lint,
                Severity::Lint,
                format!("{} unused qubit(s): {unused:?}", unused.len()),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Context, Verifier};
    use supermarq_circuit::Circuit;
    use supermarq_device::Device;

    /// Runs the full pipeline and returns the ids of checks that produced
    /// at least one finding at `min` severity or above.
    fn checks_firing(ctx: &Context<'_>, min: Severity) -> Vec<CheckId> {
        let report = Verifier::all().verify(ctx);
        let mut hit: Vec<CheckId> = report
            .diagnostics
            .iter()
            .filter(|d| d.severity >= min)
            .map(|d| d.check)
            .collect();
        hit.sort();
        hit.dedup();
        hit
    }

    // --- seeded-mutation negative tests: each broken circuit must be -----
    // --- flagged by exactly the check under test and nothing else. ------

    #[test]
    fn v001_flags_out_of_range_operand_only() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1);
        c.push_unchecked(Gate::Cx, &[1, 9]); // mutation: operand 9 > 2
        let hit = checks_firing(&Context::bare(&c), Severity::Error);
        assert_eq!(hit, vec![CheckId::OperandValidity]);
    }

    #[test]
    fn v001_flags_arity_mismatch_only() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.push_unchecked(Gate::Cx, &[2]); // mutation: cx with one operand
        let hit = checks_firing(&Context::bare(&c), Severity::Error);
        assert_eq!(hit, vec![CheckId::OperandValidity]);
        let report = Verifier::all().verify(&Context::bare(&c));
        assert!(report.render().contains("expects 2 operand(s), got 1"));
    }

    #[test]
    fn v002_flags_duplicate_operand_only() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1);
        c.push_unchecked(Gate::Swap, &[2, 2]); // mutation: repeated operand
        let hit = checks_firing(&Context::bare(&c), Severity::Error);
        assert_eq!(hit, vec![CheckId::DuplicateOperands]);
    }

    #[test]
    fn v003_flags_unitary_after_final_measurement() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).measure(0).measure(1);
        c.x(0); // mutation: gate after the final measurement
        let hit = checks_firing(&Context::bare(&c), Severity::Warning);
        assert_eq!(hit, vec![CheckId::MeasurementDiscipline]);
    }

    #[test]
    fn v003_flags_remeasurement_without_reset() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0).measure(0); // mutation: second measure, no reset
        let hit = checks_firing(&Context::bare(&c), Severity::Warning);
        assert_eq!(hit, vec![CheckId::MeasurementDiscipline]);
    }

    #[test]
    fn v003_accepts_measure_reset_measure() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0).reset(0).h(0).measure(0);
        let report = Verifier::all().verify(&Context::bare(&c));
        assert!(
            report.is_clean(),
            "unexpected findings:\n{}",
            report.render()
        );
    }

    #[test]
    fn v003_tolerates_swap_through_measured_qubit() {
        // Routing may move a live qubit through a measured one: one dead
        // operand, one live. That must NOT be flagged.
        let mut c = Circuit::new(2);
        c.h(0).measure(0).swap(0, 1);
        let report = Verifier::all().verify(&Context::bare(&c));
        assert_eq!(
            report.count(Severity::Warning),
            0,
            "findings:\n{}",
            report.render()
        );
    }

    #[test]
    fn v004_flags_non_native_gate_only() {
        let device = Device::ibm_casablanca();
        let mut c = Circuit::new(2);
        // Native on IBM: rz, sx, x, cx on the coupled pair (0, 1).
        c.rz(0.4, 0).sx(1).cx(0, 1);
        c.h(0); // mutation: h is not in the IBM native set
        let hit = checks_firing(&Context::on_device(&c, &device), Severity::Error);
        assert_eq!(hit, vec![CheckId::NativeGates]);
    }

    #[test]
    fn v005_flags_uncoupled_pair_only() {
        let device = Device::ibm_casablanca(); // Falcon-7 "H": (0,4) not coupled
        let topo = device.topology();
        assert!(!topo.are_adjacent(0, 4));
        let mut c = Circuit::new(7);
        c.rz(0.2, 0).cx(0, 1);
        c.cx(0, 4); // mutation: cx across a missing coupler
        let hit = checks_firing(&Context::on_device(&c, &device), Severity::Error);
        assert_eq!(hit, vec![CheckId::CouplingMap]);
    }

    #[test]
    fn v005_flags_two_qubit_gate_off_the_chip() {
        let device = Device::ibm_casablanca();
        let mut c = Circuit::new(16);
        c.cx(10, 11); // valid for the register, beyond the 7-qubit chip
        let hit = checks_firing(&Context::on_device(&c, &device), Severity::Error);
        assert_eq!(hit, vec![CheckId::CouplingMap]);
    }

    #[test]
    fn v007_flags_adjacent_self_inverse_pair() {
        let mut c = Circuit::new(2);
        c.h(0).h(0); // mutation: uncancelled pair
        c.cx(0, 1);
        let report = Verifier::all().verify(&Context::bare(&c));
        let lints: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| d.check == CheckId::Lint)
            .collect();
        assert_eq!(lints.len(), 1);
        assert!(lints[0].message.contains("self-inverse"));
        assert!(!report.has_errors());
    }

    #[test]
    fn v007_pair_with_intervening_overlap_not_flagged() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(0); // cx touches qubit 0 in between: no cancel
        let report = Verifier::all().verify(&Context::bare(&c));
        assert!(
            report
                .diagnostics
                .iter()
                .all(|d| !d.message.contains("self-inverse")),
            "findings:\n{}",
            report.render()
        );
    }

    #[test]
    fn v007_flags_near_zero_rotation() {
        let mut c = Circuit::new(1);
        c.rz(1e-14, 0); // mutation: identity rotation
        c.h(0);
        let report = Verifier::all().verify(&Context::bare(&c));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("identity")));
        assert!(!report.has_errors());
    }

    #[test]
    fn v007_flags_full_turn_rotation() {
        let mut c = Circuit::new(1);
        c.rx(std::f64::consts::TAU, 0);
        let report = Verifier::all().verify(&Context::bare(&c));
        assert!(report.diagnostics.iter().any(|d| d.check == CheckId::Lint));
    }

    #[test]
    fn v007_flags_unused_qubit() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).measure(0).measure(1); // qubit 2 never touched
        let report = Verifier::all().verify(&Context::bare(&c));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.message.contains("unused")));
        assert!(!report.has_errors());
    }

    #[test]
    fn device_passes_are_silent_without_device() {
        let mut c = Circuit::new(2);
        c.h(0).cp(0.3, 0, 1); // nothing native about this anywhere
        let report = Verifier::all().verify(&Context::bare(&c));
        assert!(!report.has_errors());
    }
}
