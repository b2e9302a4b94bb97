//! Lowering to native gate sets.

use std::f64::consts::{FRAC_PI_2, PI};

use supermarq_circuit::{Circuit, Gate, GateKind};
use supermarq_device::NativeGateSet;

/// Expresses any single-qubit unitary gate as `U3(theta, phi, lambda)`
/// parameters (global phase discarded).
///
/// # Panics
///
/// Panics for non-single-qubit gates.
pub(crate) fn u3_params(gate: &Gate) -> (f64, f64, f64) {
    match *gate {
        Gate::I => (0.0, 0.0, 0.0),
        Gate::H => (FRAC_PI_2, 0.0, PI),
        Gate::X => (PI, 0.0, PI),
        Gate::Y => (PI, FRAC_PI_2, FRAC_PI_2),
        Gate::Z => (0.0, 0.0, PI),
        Gate::S => (0.0, 0.0, FRAC_PI_2),
        Gate::Sdg => (0.0, 0.0, -FRAC_PI_2),
        Gate::T => (0.0, 0.0, PI / 4.0),
        Gate::Tdg => (0.0, 0.0, -PI / 4.0),
        Gate::Sx => (FRAC_PI_2, -FRAC_PI_2, FRAC_PI_2),
        Gate::Sxdg => (FRAC_PI_2, FRAC_PI_2, -FRAC_PI_2),
        Gate::Rx(t) => (t, -FRAC_PI_2, FRAC_PI_2),
        Gate::Ry(t) => (t, 0.0, 0.0),
        Gate::Rz(t) => (0.0, 0.0, t),
        Gate::P(t) => (0.0, 0.0, t),
        Gate::U(a, b, c) => (a, b, c),
        ref g => panic!("{g:?} is not a single-qubit unitary"),
    }
}

/// Emits the IBM/AQT-style `rz sx rz sx rz` realization of
/// `U3(theta, phi, lambda)` onto `circuit` (up to global phase), skipping
/// identity rotations.
pub(crate) fn emit_u3_as_rz_sx(circuit: &mut Circuit, q: usize, theta: f64, phi: f64, lambda: f64) {
    let tol = 1e-12;
    let norm = |a: f64| {
        let mut a = a % (2.0 * PI);
        if a > PI {
            a -= 2.0 * PI;
        }
        if a < -PI {
            a += 2.0 * PI;
        }
        a
    };
    let theta_n = norm(theta);
    if theta_n.abs() < tol {
        // Pure phase rotation.
        let total = norm(phi + lambda);
        if total.abs() > tol {
            circuit.rz(total, q);
        }
        return;
    }
    // U3(theta, phi, lambda) = Rz(phi + pi) SX Rz(theta + pi) SX Rz(lambda)
    // (applied right-to-left; emitted in circuit order).
    let first = norm(lambda);
    if first.abs() > tol {
        circuit.rz(first, q);
    }
    circuit.sx(q);
    circuit.rz(norm(theta + PI), q);
    circuit.sx(q);
    let last = norm(phi + PI);
    if last.abs() > tol {
        circuit.rz(last, q);
    }
}

/// Lowers every gate of `input` to the device's native set.
///
/// * `IbmLike`: `{rz, sx, x, cx}` (X kept native);
/// * `IonLike`: arbitrary 1q rotations (kept as-is) plus `rxx`;
/// * `AqtLike`: `{rz, sx, cz}`.
///
/// Barriers, measurements and resets pass through unchanged.
pub fn decompose(input: &Circuit, gate_set: NativeGateSet) -> Circuit {
    // Stage 1: lower two-qubit gates to the native entangler + 1q gates.
    let staged = lower_two_qubit(input, gate_set);
    // Stage 2: lower one-qubit gates.
    let mut out = Circuit::new(input.num_qubits());
    for instr in staged.iter() {
        match instr.gate.kind() {
            GateKind::OneQubitUnitary => {
                let q = instr.qubits[0];
                match gate_set {
                    NativeGateSet::IonLike => {
                        // Trapped ions implement arbitrary rotations natively.
                        out.append(instr.gate, &instr.qubits);
                    }
                    NativeGateSet::IbmLike | NativeGateSet::AqtLike => match instr.gate {
                        Gate::Rz(_) | Gate::Sx => {
                            out.append(instr.gate, &instr.qubits);
                        }
                        Gate::X if gate_set == NativeGateSet::IbmLike => {
                            out.append(Gate::X, &instr.qubits);
                        }
                        ref g => {
                            let (t, p, l) = u3_params(g);
                            emit_u3_as_rz_sx(&mut out, q, t, p, l);
                        }
                    },
                }
            }
            _ => {
                out.append(instr.gate, &instr.qubits);
            }
        }
    }
    out
}

/// Lowers every two-qubit gate to the native entangler, leaving arbitrary
/// one-qubit gates in place.
fn lower_two_qubit(input: &Circuit, gate_set: NativeGateSet) -> Circuit {
    let mut out = Circuit::new(input.num_qubits());
    for instr in input.iter() {
        if !instr.is_two_qubit() {
            out.append(instr.gate, &instr.qubits);
            continue;
        }
        let (a, b) = (instr.qubits[0], instr.qubits[1]);
        match gate_set {
            NativeGateSet::IbmLike => emit_via_cx(&mut out, instr.gate, a, b),
            NativeGateSet::AqtLike => emit_via_cz(&mut out, instr.gate, a, b),
            NativeGateSet::IonLike => emit_via_rxx(&mut out, instr.gate, a, b),
        }
    }
    out
}

/// Rewrites any 2q gate in terms of CX plus 1q gates.
fn emit_via_cx(out: &mut Circuit, gate: Gate, a: usize, b: usize) {
    match gate {
        Gate::Cx => {
            out.cx(a, b);
        }
        Gate::Cz => {
            out.h(b).cx(a, b).h(b);
        }
        Gate::Swap => {
            out.cx(a, b).cx(b, a).cx(a, b);
        }
        Gate::Rzz(t) => {
            out.cx(a, b).rz(t, b).cx(a, b);
        }
        Gate::Rxx(t) => {
            out.h(a).h(b).cx(a, b).rz(t, b).cx(a, b).h(a).h(b);
        }
        Gate::Ryy(t) => {
            out.rx(FRAC_PI_2, a)
                .rx(FRAC_PI_2, b)
                .cx(a, b)
                .rz(t, b)
                .cx(a, b)
                .rx(-FRAC_PI_2, a)
                .rx(-FRAC_PI_2, b);
        }
        Gate::Cp(l) => {
            // cp(l) = rz(l/2) a . rz(l/2) b . rzz(-l/2).
            out.rz(l / 2.0, a)
                .rz(l / 2.0, b)
                .cx(a, b)
                .rz(-l / 2.0, b)
                .cx(a, b);
        }
        g => panic!("unhandled two-qubit gate {g:?}"),
    }
}

/// Rewrites any 2q gate in terms of CZ plus 1q gates.
fn emit_via_cz(out: &mut Circuit, gate: Gate, a: usize, b: usize) {
    match gate {
        Gate::Cz => {
            out.cz(a, b);
        }
        other => {
            // Route through the CX realization, replacing each CX(c, t) with
            // H(t) CZ H(t).
            let mut staging = Circuit::new(out.num_qubits());
            emit_via_cx(&mut staging, other, a, b);
            for instr in staging.iter() {
                if instr.gate == Gate::Cx {
                    let (c, t) = (instr.qubits[0], instr.qubits[1]);
                    out.h(t).cz(c, t).h(t);
                } else {
                    out.append(instr.gate, &instr.qubits);
                }
            }
        }
    }
}

/// Rewrites any 2q gate in terms of the Mølmer–Sørensen `rxx` interaction.
fn emit_via_rxx(out: &mut Circuit, gate: Gate, a: usize, b: usize) {
    match gate {
        Gate::Rxx(t) => {
            out.rxx(t, a, b);
        }
        Gate::Rzz(t) => {
            // Rzz = (H ⊗ H) Rxx (H ⊗ H).
            out.h(a).h(b).rxx(t, a, b).h(a).h(b);
        }
        Gate::Ryy(t) => {
            // Ryy = (S ⊗ S) Rxx (Sdg ⊗ Sdg): conjugation X -> Y by S... the
            // correct conjugation maps Rxx to Ryy via Rz(±pi/2).
            out.rz(FRAC_PI_2, a)
                .rz(FRAC_PI_2, b)
                .rxx(t, a, b)
                .rz(-FRAC_PI_2, a)
                .rz(-FRAC_PI_2, b);
        }
        Gate::Cx => {
            // Standard MS-based CNOT (up to global phase):
            // CX(c,t) = Ry(-pi/2)_c . Rxx(pi/2) . Rx(-pi/2)_c Rx(-pi/2)_t . Ry(pi/2)_c
            // emitted in circuit order.
            out.ry(FRAC_PI_2, a)
                .rxx(FRAC_PI_2, a, b)
                .rx(-FRAC_PI_2, a)
                .rx(-FRAC_PI_2, b)
                .ry(-FRAC_PI_2, a);
        }
        other => {
            // Everything else via the CX realization.
            let mut staging = Circuit::new(out.num_qubits());
            emit_via_cx(&mut staging, other, a, b);
            for instr in staging.iter() {
                if instr.gate == Gate::Cx {
                    emit_via_rxx(out, Gate::Cx, instr.qubits[0], instr.qubits[1]);
                } else {
                    out.append(instr.gate, &instr.qubits);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_sim::{Executor, StateVector};
    use supermarq_verify::is_native;

    /// Fidelity between the unitaries of two measurement-free circuits,
    /// estimated over a set of probe states (1 up to global phase when the
    /// circuits agree).
    fn circuits_equivalent(a: &Circuit, b: &Circuit) -> bool {
        use supermarq_circuit::Gate;
        let n = a.num_qubits();
        // Probe with several random product states plus entangled ones.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..6 {
            let mut prep = Circuit::new(n);
            for q in 0..n {
                prep.ry(rng.gen_range(0.0..3.0), q);
                prep.rz(rng.gen_range(0.0..3.0), q);
            }
            if n >= 2 {
                prep.cx(0, n - 1);
            }
            let mut psi_a = Executor::final_state(&prep).expect("unitary circuit");
            let mut psi_b = psi_a.clone();
            for instr in a.iter() {
                if instr.gate != Gate::Barrier {
                    psi_a.apply_instruction(instr);
                }
            }
            for instr in b.iter() {
                if instr.gate != Gate::Barrier {
                    psi_b.apply_instruction(instr);
                }
            }
            if psi_a.fidelity(&psi_b) < 1.0 - 1e-9 {
                return false;
            }
        }
        true
    }

    fn single(n: usize, gate: Gate, qubits: &[usize]) -> Circuit {
        let mut c = Circuit::new(n);
        c.append(gate, qubits);
        c
    }

    #[test]
    fn u3_params_reproduce_all_one_qubit_gates() {
        let gates = [
            Gate::I,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Sx,
            Gate::Sxdg,
            Gate::Rx(0.7),
            Gate::Ry(-0.4),
            Gate::Rz(1.9),
            Gate::P(0.3),
        ];
        for g in gates {
            let (t, p, l) = u3_params(&g);
            let orig = single(1, g, &[0]);
            let rebuilt = single(1, Gate::U(t, p, l), &[0]);
            assert!(circuits_equivalent(&orig, &rebuilt), "{g:?}");
        }
    }

    #[test]
    fn rz_sx_realization_matches_u3() {
        for &(t, p, l) in &[
            (0.7, 0.3, -1.1),
            (0.0, 0.5, 0.5),
            (PI, 0.0, PI),
            (FRAC_PI_2, -0.9, 2.2),
        ] {
            let orig = single(1, Gate::U(t, p, l), &[0]);
            let mut lowered = Circuit::new(1);
            emit_u3_as_rz_sx(&mut lowered, 0, t, p, l);
            assert!(circuits_equivalent(&orig, &lowered), "U3({t},{p},{l})");
        }
    }

    #[test]
    fn ibm_decomposition_of_all_two_qubit_gates() {
        let gates = [
            Gate::Cx,
            Gate::Cz,
            Gate::Swap,
            Gate::Rzz(0.8),
            Gate::Rxx(-0.5),
            Gate::Ryy(1.2),
            Gate::Cp(0.9),
        ];
        for g in gates {
            let orig = single(2, g, &[0, 1]);
            let lowered = decompose(&orig, NativeGateSet::IbmLike);
            assert!(
                lowered
                    .iter()
                    .all(|i| is_native(&i.gate, NativeGateSet::IbmLike)),
                "{g:?} left non-native gates: {lowered:?}"
            );
            assert!(circuits_equivalent(&orig, &lowered), "{g:?}");
        }
    }

    #[test]
    fn aqt_decomposition_targets_cz() {
        let gates = [Gate::Cx, Gate::Swap, Gate::Rzz(0.4), Gate::Cp(1.0)];
        for g in gates {
            let orig = single(2, g, &[0, 1]);
            let lowered = decompose(&orig, NativeGateSet::AqtLike);
            assert!(
                lowered
                    .iter()
                    .all(|i| is_native(&i.gate, NativeGateSet::AqtLike)),
                "{g:?}"
            );
            assert!(circuits_equivalent(&orig, &lowered), "{g:?}");
        }
    }

    #[test]
    fn ion_decomposition_targets_rxx() {
        let gates = [
            Gate::Cx,
            Gate::Cz,
            Gate::Rzz(0.7),
            Gate::Ryy(-0.6),
            Gate::Swap,
        ];
        for g in gates {
            let orig = single(2, g, &[0, 1]);
            let lowered = decompose(&orig, NativeGateSet::IonLike);
            assert!(
                lowered
                    .iter()
                    .all(|i| is_native(&i.gate, NativeGateSet::IonLike)),
                "{g:?}"
            );
            assert!(circuits_equivalent(&orig, &lowered), "{g:?}");
        }
    }

    #[test]
    fn cx_operand_order_respected_in_all_sets() {
        for set in [
            NativeGateSet::IbmLike,
            NativeGateSet::AqtLike,
            NativeGateSet::IonLike,
        ] {
            let orig = single(3, Gate::Cx, &[2, 0]);
            let lowered = decompose(&orig, set);
            assert!(circuits_equivalent(&orig, &lowered), "{set:?}");
        }
    }

    #[test]
    fn full_benchmark_circuit_survives_lowering() {
        // A GHZ + rotation + measurement circuit, lowered for IBM.
        let mut c = Circuit::new(3);
        c.h(0)
            .cx(0, 1)
            .cx(1, 2)
            .rz(0.3, 2)
            .barrier_all()
            .measure_all();
        let lowered = decompose(&c, NativeGateSet::IbmLike);
        assert!(lowered
            .iter()
            .all(|i| is_native(&i.gate, NativeGateSet::IbmLike)));
        assert_eq!(lowered.measurement_count(), 3);
        // Compare measurement distributions.
        let ideal = Executor::noiseless().run(&c, 2000, 5);
        let low = Executor::noiseless().run(&lowered, 2000, 5);
        let p = |cts: &supermarq_sim::Counts, k: u64| cts.probability(k);
        assert!((p(&ideal, 0) - p(&low, 0)).abs() < 0.05);
        assert!((p(&ideal, 0b111) - p(&low, 0b111)).abs() < 0.05);
    }

    #[test]
    fn lowering_preserves_ghz_statevector() {
        let mut c = Circuit::new(4);
        c.h(0).cx(0, 1).cx(1, 2).cx(2, 3);
        for set in [
            NativeGateSet::IbmLike,
            NativeGateSet::AqtLike,
            NativeGateSet::IonLike,
        ] {
            let lowered = decompose(&c, set);
            let psi = Executor::final_state(&lowered).expect("unitary circuit");
            let mut reference = StateVector::zero_state(4);
            reference.apply_gate(&Gate::H, &[0]);
            reference.apply_gate(&Gate::Cx, &[0, 1]);
            reference.apply_gate(&Gate::Cx, &[1, 2]);
            reference.apply_gate(&Gate::Cx, &[2, 3]);
            assert!(psi.fidelity(&reference) > 1.0 - 1e-9, "{set:?}");
        }
    }
}
