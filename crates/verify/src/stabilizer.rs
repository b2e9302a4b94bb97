//! Clifford analyses: symbolic Clifford reasoning (V010 and the scalable
//! V006 tier).
//!
//! Two one-pass walks over the same semantics, at different precision:
//!
//! * [`clifford_summary`] — a cheap summary recording which instructions
//!   are Clifford unitaries (after quarter-turn angle snapping, see
//!   `supermarq_clifford::ops`), plus reset/measurement counts. Powers
//!   check V010 and names what keeps the precise walk from applying.
//! * `unitary_tableau` — the full Aaronson–Gottesman tableau of the
//!   circuit's unitary part: the `2n` signed Pauli images
//!   `U X_i U^dagger` / `U Z_i U^dagger`, which determine the accumulated
//!   Clifford unitary up to global phase in `O(n^2)` bits. A non-Clifford
//!   instruction (or a reset) leaves no tableau (`None`).
//!
//! [`prove_permutation_equivalence`] is the scalable V006 tier built on the
//! tableau: it proves a routed circuit implements its input up to the
//! claimed output permutation by comparing permuted tableau rows —
//! polynomial in qubit count, so 200-qubit mirror circuits verify in
//! milliseconds where a statevector probe cannot run at all. Conjugation by
//! a wire permutation permutes the tensor factors of a signed Pauli without
//! touching its sign, which is exactly what [`PauliString::permuted`]
//! implements.

use crate::{CheckId, Context, Diagnostic, Severity};
use std::collections::BTreeMap;
use supermarq_circuit::{Circuit, GateKind};
use supermarq_clifford::{clifford_ops, StabilizerSimulator};
use supermarq_obs::Span;
use supermarq_pauli::PauliString;

/// Which instructions of a circuit are Clifford, plus its reset and
/// measurement counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CliffordSummary {
    /// Indices of unitary instructions that are not Clifford (or carry
    /// out-of-range operands, which makes them unanalyzable).
    pub non_clifford: Vec<usize>,
    /// Number of resets.
    pub resets: usize,
    /// Number of measurements.
    pub measurements: usize,
}

/// Walks `circuit` once and returns its [`CliffordSummary`].
pub(crate) fn clifford_summary(circuit: &Circuit) -> CliffordSummary {
    let mut summary = CliffordSummary::default();
    for (index, instr) in circuit.iter().enumerate() {
        match instr.gate.kind() {
            GateKind::Barrier => {}
            GateKind::Measurement => summary.measurements += 1,
            GateKind::Reset => summary.resets += 1,
            GateKind::OneQubitUnitary | GateKind::TwoQubitUnitary => {
                if clifford_ops(instr).is_none() {
                    summary.non_clifford.push(index);
                }
            }
        }
    }
    summary
}

/// The tableau of `circuit`'s unitary part, or `None` once a reset, a
/// non-Clifford gate or an out-of-range operand appears. Measurements and
/// barriers are skipped: equivalence checking compares unitary parts,
/// matching the statevector probe's convention.
fn unitary_tableau(circuit: &Circuit) -> Option<StabilizerSimulator> {
    let n = circuit.num_qubits();
    let mut sim = StabilizerSimulator::new(n);
    for instr in circuit.iter() {
        match instr.gate.kind() {
            GateKind::Barrier | GateKind::Measurement => continue,
            GateKind::Reset => return None,
            GateKind::OneQubitUnitary | GateKind::TwoQubitUnitary => {}
        }
        if instr.qubits.iter().any(|&q| q >= n) {
            return None;
        }
        clifford_ops(instr)?
            .into_iter()
            .for_each(|op| sim.apply(op));
    }
    Some(sim)
}

/// Outcome of the symbolic equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StabilizerVerdict {
    /// The routed circuit provably equals the input up to the claimed
    /// output permutation (up to global phase).
    Proven,
    /// A tableau row witnesses inequivalence.
    Refuted {
        /// Human-readable witness.
        detail: String,
    },
    /// The circuits leave the domain (non-Clifford gate, reset, malformed
    /// mapping): the stabilizer tier cannot decide.
    NotApplicable {
        /// Why the domain does not apply.
        reason: String,
    },
}

/// Renders a Pauli string sparsely (`X@3 Z@7`), truncated for readability.
fn sparse_pauli(minus: bool, p: &PauliString) -> String {
    let support = p.support();
    let sign = if minus { "-" } else { "+" };
    if support.is_empty() {
        return format!("{sign}I");
    }
    let shown: Vec<String> = support
        .iter()
        .take(8)
        .map(|&q| format!("{}@{q}", p.get(q).to_char()))
        .collect();
    let ellipsis = if support.len() > 8 { " ..." } else { "" };
    format!("{sign}{}{}", shown.join(" "), ellipsis)
}

/// Proves (or refutes) that `routed` implements `logical` up to the output
/// permutation claimed by the mappings, entirely within the stabilizer
/// formalism.
///
/// Both circuits are restricted to the live wires (everything `routed`
/// touches plus both mapping images), `logical` embedded at
/// `initial_mapping`. The check succeeds iff `U_routed = Pi * U_embedded`
/// up to global phase, where `Pi` maps each logical qubit's initial wire to
/// its final wire and merely relabels the remaining live wires (the
/// relabeling is read off the routed tableau itself). Polynomial:
/// `O(gates * n + n^2)`.
pub fn prove_permutation_equivalence(
    logical: &Circuit,
    routed: &Circuit,
    initial_mapping: &[usize],
    final_mapping: &[usize],
) -> StabilizerVerdict {
    let mut span = Span::open("verify.stabilizer");
    span.record("logical_gates", logical.instructions().len());
    span.record("routed_gates", routed.instructions().len());
    let verdict = prove_inner(logical, routed, initial_mapping, final_mapping, &mut span);
    span.record(
        "verdict",
        match &verdict {
            StabilizerVerdict::Proven => "proven",
            StabilizerVerdict::Refuted { .. } => "refuted",
            StabilizerVerdict::NotApplicable { .. } => "not-applicable",
        },
    );
    verdict
}

fn prove_inner(
    logical: &Circuit,
    routed: &Circuit,
    initial_mapping: &[usize],
    final_mapping: &[usize],
    span: &mut Span,
) -> StabilizerVerdict {
    let not_applicable = |reason: String| StabilizerVerdict::NotApplicable { reason };

    if initial_mapping.len() != logical.num_qubits() || final_mapping.len() != logical.num_qubits()
    {
        return not_applicable("mapping length does not match the logical register".into());
    }

    // Live wires: both mapping images plus everything the routed circuit
    // touches, compacted to a dense register.
    let mut wires: Vec<usize> = initial_mapping
        .iter()
        .chain(final_mapping.iter())
        .copied()
        .collect();
    for instr in routed.iter() {
        wires.extend(instr.qubits.iter().copied());
    }
    wires.sort_unstable();
    wires.dedup();
    let dense: BTreeMap<usize, usize> = wires
        .iter()
        .copied()
        .enumerate()
        .map(|(i, w)| (w, i))
        .collect();
    let n = wires.len();
    span.record("wires", n);
    if n == 0 {
        return StabilizerVerdict::Proven;
    }

    // Embed the logical circuit at its initial placement on dense wires.
    let mut embedded = Circuit::new(n);
    for instr in logical.iter() {
        if matches!(instr.gate.kind(), GateKind::Barrier | GateKind::Measurement) {
            continue;
        }
        let Some(qubits) = instr
            .qubits
            .iter()
            .map(|&q| initial_mapping.get(q).map(|w| dense[w]))
            .collect::<Option<Vec<usize>>>()
        else {
            return not_applicable(format!(
                "logical instruction '{}' addresses a qubit outside the mapping",
                instr.gate
            ));
        };
        embedded.push_unchecked(instr.gate, &qubits);
    }
    let mut routed_dense = Circuit::new(n);
    for instr in routed.iter() {
        if matches!(instr.gate.kind(), GateKind::Barrier | GateKind::Measurement) {
            continue;
        }
        let qubits: Vec<usize> = instr.qubits.iter().map(|&q| dense[&q]).collect();
        routed_dense.push_unchecked(instr.gate, &qubits);
    }

    let (Some(emb), Some(rt)) = (unitary_tableau(&embedded), unitary_tableau(&routed_dense)) else {
        let offender = |c: &Circuit| -> Option<String> {
            let summary = clifford_summary(c);
            summary
                .non_clifford
                .first()
                .map(|&i| format!("non-Clifford '{}'", c.instructions()[i].gate))
                .or((summary.resets > 0).then(|| "reset".to_string()))
        };
        let reason = offender(&embedded)
            .or_else(|| offender(&routed_dense))
            .unwrap_or_else(|| "circuit leaves the stabilizer domain".to_string());
        return not_applicable(format!("{reason} is outside the stabilizer domain"));
    };

    // The claimed permutation on mapped wires...
    let mut perm: Vec<Option<usize>> = vec![None; n];
    for q in 0..initial_mapping.len() {
        perm[dense[&initial_mapping[q]]] = Some(dense[&final_mapping[q]]);
    }
    // ...extended over pass-through wires by reading the routed tableau:
    // an honest router only relabels them, so their X/Z images must be a
    // matching pair of positive single-wire Paulis.
    for d in 0..n {
        if perm[d].is_some() {
            continue; // in the initial-mapping image; claim covers it
        }
        let (sx, px) = rt.row_pauli(d);
        let (sz, pz) = rt.row_pauli(n + d);
        let x_support = px.support();
        let z_support = pz.support();
        let relabel = (!sx && !sz).then_some(()).and_then(|()| {
            match (x_support.as_slice(), z_support.as_slice()) {
                ([xw], [zw])
                    if xw == zw
                        && px.get(*xw) == supermarq_pauli::Pauli::X
                        && pz.get(*zw) == supermarq_pauli::Pauli::Z =>
                {
                    Some(*xw)
                }
                _ => None,
            }
        });
        match relabel {
            Some(w) => perm[d] = Some(w),
            None => {
                return StabilizerVerdict::Refuted {
                    detail: format!(
                        "pass-through wire {} is transformed, not relabeled: \
                         X image {}, Z image {}",
                        wires[d],
                        sparse_pauli(sx, &px),
                        sparse_pauli(sz, &pz)
                    ),
                };
            }
        }
    }
    let perm: Vec<usize> = perm.into_iter().map(|p| p.expect("total")).collect();
    let mut seen = vec![false; n];
    for &p in &perm {
        if p >= n || seen[p] {
            return StabilizerVerdict::Refuted {
                detail: "claimed output permutation is not a bijection of the live wires"
                    .to_string(),
            };
        }
        seen[p] = true;
    }

    // U_routed = Pi * U_embedded  iff  every generator image agrees after
    // conjugating the embedded image by Pi (a factor permutation that
    // never flips signs).
    for row in 0..2 * n {
        let (se, pe) = emb.row_pauli(row);
        let (sr, pr) = rt.row_pauli(row);
        let expected = pe.permuted(&perm);
        if se != sr || expected != pr {
            let (kind, idx) = if row < n { ("X", row) } else { ("Z", row - n) };
            return StabilizerVerdict::Refuted {
                detail: format!(
                    "image of {kind}_{} differs: input implies {}, routed gives {}",
                    wires[idx],
                    sparse_pauli(se, &expected),
                    sparse_pauli(sr, &pr)
                ),
            };
        }
    }
    StabilizerVerdict::Proven
}

/// V010: a pipeline that claimed Clifford-preserving input must not emit
/// non-Clifford gates.
pub(crate) fn clifford_preservation(ctx: &Context<'_>, out: &mut Vec<Diagnostic>) {
    if !ctx.clifford_input {
        return;
    }
    for index in clifford_summary(ctx.circuit).non_clifford {
        let instr = &ctx.circuit.instructions()[index];
        out.push(Diagnostic::at(
            CheckId::CliffordPreservation,
            Severity::Error,
            index,
            format!(
                "'{}' is not a Clifford gate, but the pipeline's input was \
                 Clifford and every legal pass preserves that",
                instr.gate
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn clifford_summary_records_membership() {
        let mut c = Circuit::new(2);
        c.h(0)
            .t(0)
            .cx(0, 1)
            .rz(0.3, 1)
            .rz(FRAC_PI_2, 1)
            .measure_all()
            .reset(0);
        let summary = clifford_summary(&c);
        assert_eq!(summary.non_clifford, vec![1, 3]);
        assert_eq!(summary.measurements, 2);
        assert_eq!(summary.resets, 1);
        assert!(!supermarq_clifford::is_clifford_circuit(&c));

        let mut ghz = Circuit::new(3);
        ghz.h(0).cx(0, 1).cx(1, 2).measure_all();
        assert!(supermarq_clifford::is_clifford_circuit(&ghz));
    }

    #[test]
    fn unitary_tableau_is_none_past_a_non_clifford_gate() {
        let mut c = Circuit::new(1);
        c.h(0);
        assert!(unitary_tableau(&c).is_some());
        c.t(0);
        assert!(unitary_tableau(&c).is_none());
    }

    #[test]
    fn identity_routing_is_proven() {
        let mut c = Circuit::new(3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let id: Vec<usize> = (0..3).collect();
        assert_eq!(
            prove_permutation_equivalence(&c, &c, &id, &id),
            StabilizerVerdict::Proven
        );
    }

    #[test]
    fn honest_swap_routing_is_proven() {
        // Logical cx(0,1) placed at wires [0, 2]; router swaps (1, 2) and
        // applies cx(0, 1); final homes [0, 1].
        let mut logical = Circuit::new(2);
        logical.h(0).cx(0, 1);
        let mut routed = Circuit::new(3);
        routed.swap(1, 2).h(0).cx(0, 1);
        assert_eq!(
            prove_permutation_equivalence(&logical, &routed, &[0, 2], &[0, 1]),
            StabilizerVerdict::Proven
        );
    }

    #[test]
    fn flipped_cx_is_refuted() {
        let mut logical = Circuit::new(2);
        logical.h(0).cx(0, 1);
        let mut routed = Circuit::new(2);
        routed.h(0).cx(1, 0);
        let id = [0, 1];
        assert!(matches!(
            prove_permutation_equivalence(&logical, &routed, &id, &id),
            StabilizerVerdict::Refuted { .. }
        ));
    }

    #[test]
    fn wrong_permutation_claim_is_refuted() {
        let mut logical = Circuit::new(2);
        logical.h(0).cx(0, 1);
        let mut routed = Circuit::new(3);
        routed.swap(1, 2).h(0).cx(0, 1);
        // Claim qubit 1 never moved (it did: 2 -> 1).
        assert!(matches!(
            prove_permutation_equivalence(&logical, &routed, &[0, 2], &[0, 2]),
            StabilizerVerdict::Refuted { .. }
        ));
    }

    #[test]
    fn tampered_pass_through_wire_is_refuted() {
        let mut logical = Circuit::new(1);
        logical.h(0);
        let mut routed = Circuit::new(2);
        routed.h(0).h(1); // wire 1 is pass-through but gets transformed
        assert!(matches!(
            prove_permutation_equivalence(&logical, &routed, &[0], &[0]),
            StabilizerVerdict::Refuted { .. }
        ));
    }

    #[test]
    fn non_clifford_input_is_not_applicable() {
        let mut c = Circuit::new(1);
        c.rz(0.25, 0);
        let id = [0];
        match prove_permutation_equivalence(&c, &c, &id, &id) {
            StabilizerVerdict::NotApplicable { reason } => {
                assert!(reason.contains("non-Clifford"), "{reason}");
            }
            other => panic!("expected NotApplicable, got {other:?}"),
        }
    }

    #[test]
    fn recognized_rotations_keep_the_domain_applicable() {
        // Quarter-turn rotations and fused U gates stay symbolic.
        let mut logical = Circuit::new(2);
        logical
            .rz(FRAC_PI_2, 0)
            .u(FRAC_PI_2, 0.0, std::f64::consts::PI, 1)
            .cx(0, 1);
        let id = [0, 1];
        assert_eq!(
            prove_permutation_equivalence(&logical, &logical, &id, &id),
            StabilizerVerdict::Proven
        );
    }

    #[test]
    fn proof_scales_to_two_hundred_qubits() {
        // GHZ ladder on 200 qubits, identity routing: far beyond any
        // statevector, milliseconds symbolically.
        let n = 200;
        let mut c = Circuit::new(n);
        c.h(0);
        for q in 0..n - 1 {
            c.cx(q, q + 1);
        }
        let id: Vec<usize> = (0..n).collect();
        assert_eq!(
            prove_permutation_equivalence(&c, &c, &id, &id),
            StabilizerVerdict::Proven
        );
    }

    #[test]
    fn v010_fires_only_under_a_clifford_claim() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).measure(0);
        let mut out = Vec::new();
        clifford_preservation(&Context::bare(&c), &mut out);
        assert!(out.is_empty(), "no claim, no finding");
        let ctx = Context::bare(&c).with_clifford_claim(true);
        clifford_preservation(&ctx, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].instruction, Some(1));
        assert_eq!(out[0].severity, Severity::Error);
    }
}
