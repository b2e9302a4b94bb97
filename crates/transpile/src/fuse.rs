//! Single-qubit gate fusion.
//!
//! Consecutive one-qubit unitaries on the same qubit are multiplied into a
//! single `U3` gate (ZYZ decomposition up to global phase), which both
//! shortens circuits before lowering and implements the Closed Division's
//! "cancellation of adjacent gates" for the single-qubit case.

use supermarq_circuit::{Circuit, Gate, GateKind, C64};

/// Extracts `U3(theta, phi, lambda)` parameters from a 2x2 unitary (global
/// phase discarded).
///
/// # Panics
///
/// Panics if the matrix is (numerically) non-unitary.
pub(crate) fn u3_from_matrix(m: &[[C64; 2]; 2]) -> (f64, f64, f64) {
    // U3 = [[cos(t/2), -e^{il} sin(t/2)], [e^{ip} sin(t/2), e^{i(p+l)} cos(t/2)]].
    let c = m[0][0].norm();
    let s = m[1][0].norm();
    let norm = (c * c + s * s).sqrt();
    assert!((norm - 1.0).abs() < 1e-6, "matrix column not normalized");
    let theta = 2.0 * s.atan2(c);
    if s < 1e-9 {
        // Diagonal: phase difference is phi + lambda; split arbitrarily.
        let lam = (m[1][1] / m[0][0]).arg();
        return (0.0, 0.0, lam);
    }
    if c < 1e-9 {
        // Anti-diagonal, theta = pi: U = e^{ia} [[0, -e^{il}], [e^{ip}, 0]].
        // Taking p' = arg(m10) = a + p and l' = arg(-m01) = a + l absorbs
        // the global phase exactly (U3(pi, p', l') = e^{ia} U).
        let p = m[1][0].arg();
        let l = (-m[0][1]).arg();
        return (std::f64::consts::PI, p, l);
    }
    // Generic: fix global phase so m00 is real positive.
    let phase = m[0][0].arg();
    let rot = C64::cis(-phase);
    let m10 = m[1][0] * rot;
    let m01 = m[0][1] * rot;
    let phi = m10.arg();
    let lambda = (-m01).arg();
    (theta, phi, lambda)
}

/// Multiplies two 2x2 matrices (`a * b`).
fn matmul2(a: &[[C64; 2]; 2], b: &[[C64; 2]; 2]) -> [[C64; 2]; 2] {
    let mut out = [[C64::ZERO; 2]; 2];
    for r in 0..2 {
        for c in 0..2 {
            for k in 0..2 {
                out[r][c] += a[r][k] * b[k][c];
            }
        }
    }
    out
}

/// A pending run of single-qubit unitaries on one qubit: the accumulated
/// matrix plus, while the run is exactly one already-fused `U` gate, that
/// gate verbatim (see the passthrough note on [`fuse_single_qubit_runs`]).
#[derive(Clone, Copy)]
struct PendingRun {
    matrix: [[C64; 2]; 2],
    lone_u: Option<Gate>,
}

/// Fuses runs of adjacent single-qubit unitaries per qubit into one `U3`
/// gate, dropping fused identities. Multi-qubit gates, measurements, resets
/// and barriers act as fences.
///
/// A run consisting of exactly one `U` gate passes through *bit-identical*
/// rather than round-tripping through matrix extraction (which reintroduces
/// float jitter in the angles). This makes fusion idempotent — the second
/// application of `fuse` to an already-fused circuit is the identity.
/// Inputs containing no `U` gates (every benchmark circuit; every decomposed
/// native circuit) are handled exactly as before.
pub fn fuse_single_qubit_runs(input: &Circuit) -> Circuit {
    let n = input.num_qubits();
    let mut out = Circuit::new(n);
    // Pending accumulated run per qubit.
    let mut pending: Vec<Option<PendingRun>> = vec![None; n];

    let flush = |out: &mut Circuit, pending: &mut Vec<Option<PendingRun>>, q: usize| {
        if let Some(run) = pending[q].take() {
            if let Some(gate) = run.lone_u {
                out.append(gate, &[q]);
                return;
            }
            let (t, p, l) = u3_from_matrix(&run.matrix);
            let is_identity =
                t.abs() < 1e-12 && ((p + l) % (2.0 * std::f64::consts::PI)).abs() < 1e-12;
            if !is_identity {
                out.u(t, p, l, q);
            }
        }
    };

    for instr in input.iter() {
        match instr.gate.kind() {
            GateKind::OneQubitUnitary => {
                let q = instr.qubits[0];
                let m = instr.gate.matrix1().expect("1q unitary has matrix");
                pending[q] = Some(match pending[q] {
                    Some(run) => PendingRun {
                        matrix: matmul2(&m, &run.matrix), // later gate multiplies on the left
                        lone_u: None,
                    },
                    None => PendingRun {
                        matrix: m,
                        lone_u: matches!(instr.gate, Gate::U(..)).then_some(instr.gate),
                    },
                });
            }
            _ => {
                for &q in &instr.qubits {
                    flush(&mut out, &mut pending, q);
                }
                out.append(instr.gate, &instr.qubits);
            }
        }
    }
    for q in 0..n {
        flush(&mut out, &mut pending, q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_circuit::Gate;
    use supermarq_sim::Executor;

    /// The count of one-qubit unitaries in a circuit.
    fn one_qubit_gate_count(c: &Circuit) -> usize {
        c.iter()
            .filter(|i| i.gate.kind() == GateKind::OneQubitUnitary)
            .count()
    }

    fn equivalent(a: &Circuit, b: &Circuit) -> bool {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = a.num_qubits();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let mut prep = Circuit::new(n);
            for q in 0..n {
                prep.ry(rng.gen_range(0.0..3.0), q)
                    .rz(rng.gen_range(0.0..3.0), q);
            }
            let mut pa = Executor::final_state(&prep).expect("unitary circuit");
            let mut pb = pa.clone();
            for i in a.iter().filter(|i| i.gate != Gate::Barrier) {
                pa.apply_instruction(i);
            }
            for i in b.iter().filter(|i| i.gate != Gate::Barrier) {
                pb.apply_instruction(i);
            }
            if pa.fidelity(&pb) < 1.0 - 1e-9 {
                return false;
            }
        }
        true
    }

    #[test]
    fn u3_extraction_round_trips_random_products() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let gates = [
                Gate::H,
                Gate::S,
                Gate::T,
                Gate::Sx,
                Gate::Rx(rng.gen_range(-3.0..3.0)),
                Gate::Ry(rng.gen_range(-3.0..3.0)),
                Gate::Rz(rng.gen_range(-3.0..3.0)),
            ];
            let mut m = Gate::I.matrix1().unwrap();
            let mut circ = Circuit::new(1);
            for _ in 0..rng.gen_range(1..6) {
                let g = gates[rng.gen_range(0..gates.len())];
                m = matmul2(&g.matrix1().unwrap(), &m);
                circ.append(g, &[0]);
            }
            let (t, p, l) = u3_from_matrix(&m);
            let mut rebuilt = Circuit::new(1);
            rebuilt.u(t, p, l, 0);
            assert!(equivalent(&circ, &rebuilt));
        }
    }

    #[test]
    fn fusion_reduces_gate_count() {
        let mut c = Circuit::new(2);
        c.h(0).t(0).s(0).h(0).rx(0.4, 1).rz(0.2, 1).cx(0, 1).h(1);
        let fused = fuse_single_qubit_runs(&c);
        assert!(equivalent(&c, &fused));
        // 4 gates on q0 + 2 on q1 collapse to one each; final h(1) stays.
        assert_eq!(one_qubit_gate_count(&fused), 3);
        assert_eq!(fused.two_qubit_gate_count(), 1);
    }

    #[test]
    fn inverse_pair_fuses_to_nothing() {
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        let fused = fuse_single_qubit_runs(&c);
        assert_eq!(fused.gate_count(), 0);
        let mut c2 = Circuit::new(1);
        c2.s(0).sdg(0).t(0).tdg(0);
        assert_eq!(fuse_single_qubit_runs(&c2).gate_count(), 0);
    }

    #[test]
    fn measurement_fences_fusion() {
        let mut c = Circuit::new(1);
        c.h(0).measure(0).h(0);
        let fused = fuse_single_qubit_runs(&c);
        // The two H's cannot merge across the measurement.
        assert_eq!(one_qubit_gate_count(&fused), 2);
        assert_eq!(fused.measurement_count(), 1);
    }

    #[test]
    fn two_qubit_gate_fences_fusion() {
        let mut c = Circuit::new(2);
        c.h(0).cx(0, 1).h(0);
        let fused = fuse_single_qubit_runs(&c);
        assert_eq!(one_qubit_gate_count(&fused), 2);
        assert!(equivalent(&c, &fused));
    }

    #[test]
    fn fusion_of_full_circuit_is_equivalent() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let n = 3;
        let mut c = Circuit::new(n);
        for _ in 0..30 {
            match rng.gen_range(0..4) {
                0 => {
                    c.ry(rng.gen_range(-3.0..3.0), rng.gen_range(0..n));
                }
                1 => {
                    c.rz(rng.gen_range(-3.0..3.0), rng.gen_range(0..n));
                }
                2 => {
                    c.h(rng.gen_range(0..n));
                }
                _ => {
                    let a = rng.gen_range(0..n);
                    let b = (a + 1) % n;
                    c.cx(a, b);
                }
            }
        }
        let fused = fuse_single_qubit_runs(&c);
        assert!(equivalent(&c, &fused));
        assert!(fused.gate_count() <= c.gate_count());
    }
}
