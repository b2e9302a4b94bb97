//! Clifford synthesis: simultaneous diagonalization of commuting Pauli sets.
//!
//! Given a mutually commuting set of Pauli strings, [`diagonalize`] builds a
//! Clifford circuit `C` such that `C P C^\dagger` is a (signed) Z-type
//! string for every input `P`. Appending `C` to a state-preparation circuit
//! and measuring in the computational basis therefore measures every input
//! operator simultaneously — exactly the basis-change construction the
//! Mermin–Bell benchmark uses.
//!
//! The algorithm processes an independent generating subset: each generator
//! is reduced to a single-qubit `Z` on a fresh pivot qubit using CX fans,
//! `S`/`H` single-qubit rotations and a final `X` for sign normalization.
//! Because all operators commute, the reductions never disturb previously
//! placed pivots.

use crate::frame::SignedPauli;
use crate::ops::CliffordOp;
use supermarq_circuit::Circuit;
use supermarq_pauli::PauliString;

/// Result of a successful diagonalization.
#[derive(Debug, Clone)]
pub struct Diagonalization {
    /// The Clifford basis-change circuit `C`.
    pub circuit: Circuit,
    /// For each input string, the diagonal image `C P C^\dagger` as a
    /// `(sign, z_mask)` pair: the operator equals
    /// `sign * prod_{q: bit q of z_mask} Z_q`.
    pub diagonal_terms: Vec<(f64, u64)>,
}

/// Errors from [`diagonalize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagonalizeError {
    /// No strings were supplied.
    EmptyInput,
    /// Input strings act on different register sizes.
    SizeMismatch,
    /// More than 64 qubits (the z-mask representation is 64-bit).
    TooManyQubits,
    /// The input set is not mutually commuting, so no shared basis exists.
    NotCommuting,
}

impl std::fmt::Display for DiagonalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiagonalizeError::EmptyInput => write!(f, "no pauli strings supplied"),
            DiagonalizeError::SizeMismatch => write!(f, "pauli strings differ in length"),
            DiagonalizeError::TooManyQubits => write!(f, "more than 64 qubits"),
            DiagonalizeError::NotCommuting => {
                write!(f, "input operators do not mutually commute")
            }
        }
    }
}

impl std::error::Error for DiagonalizeError {}

/// Synthesizes a Clifford circuit mapping every string in `strings` to a
/// diagonal (Z-type) operator.
///
/// # Errors
///
/// Returns [`DiagonalizeError::NotCommuting`] if the strings do not pairwise
/// commute, plus the structural errors listed on [`DiagonalizeError`].
///
/// # Example
///
/// ```
/// use supermarq_clifford::diagonalize;
/// use supermarq_pauli::PauliString;
///
/// let strings: Vec<PauliString> =
///     ["XX".parse().unwrap(), "YY".parse().unwrap(), "ZZ".parse().unwrap()].to_vec();
/// let d = diagonalize(&strings).unwrap();
/// assert_eq!(d.diagonal_terms.len(), 3);
/// ```
pub fn diagonalize(strings: &[PauliString]) -> Result<Diagonalization, DiagonalizeError> {
    let first = strings.first().ok_or(DiagonalizeError::EmptyInput)?;
    let n = first.num_qubits();
    if strings.iter().any(|s| s.num_qubits() != n) {
        return Err(DiagonalizeError::SizeMismatch);
    }
    if n > 64 {
        return Err(DiagonalizeError::TooManyQubits);
    }

    // Select an independent generating subset by GF(2) elimination over the
    // 2n-bit symplectic vectors.
    let generators = independent_subset(strings, n);

    let mut circuit = Circuit::new(n);
    let mut gens: Vec<SignedPauli> = generators.iter().map(SignedPauli::from_string).collect();
    let mut pivots: Vec<usize> = Vec::new();

    let append = |circuit: &mut Circuit, gens: &mut [SignedPauli], op: CliffordOp| {
        let instr = op.to_instruction();
        circuit.append(instr.gate, &instr.qubits);
        for g in gens.iter_mut() {
            g.apply(op);
        }
    };

    for j in 0..gens.len() {
        // Phase 1: clear X components, leaving a single X/Y at a fresh pivot.
        let x_support: Vec<usize> = (0..n).filter(|&q| gens[j].x_bit(q)).collect();
        if !x_support.is_empty() {
            let q = *x_support
                .iter()
                .find(|q| !pivots.contains(q))
                .ok_or(DiagonalizeError::NotCommuting)?;
            for &r in &x_support {
                if r != q {
                    append(&mut circuit, &mut gens, CliffordOp::Cx(q, r));
                }
            }
            if gens[j].z_bit(q) {
                // Y at the pivot: S maps Y -> -X first.
                append(&mut circuit, &mut gens, CliffordOp::S(q));
            }
            append(&mut circuit, &mut gens, CliffordOp::H(q));
        }
        if !gens[j].is_diagonal() {
            return Err(DiagonalizeError::NotCommuting);
        }
        // Phase 2: collapse the remaining Z-string onto one pivot.
        let z_support: Vec<usize> = (0..n).filter(|&q| gens[j].z_bit(q)).collect();
        let q = *z_support
            .iter()
            .find(|q| !pivots.contains(q))
            .ok_or(DiagonalizeError::NotCommuting)?;
        for &r in &z_support {
            if r != q {
                append(&mut circuit, &mut gens, CliffordOp::Cx(r, q));
            }
        }
        // Phase 3: normalize the sign to +Z.
        if gens[j].is_negative() {
            append(&mut circuit, &mut gens, CliffordOp::X(q));
        }
        pivots.push(q);
    }

    // Conjugate every original string through the synthesized circuit and
    // verify it landed diagonal.
    let mut diagonal_terms = Vec::with_capacity(strings.len());
    for s in strings {
        let mut sp = SignedPauli::from_string(s);
        sp.conjugate_circuit(circuit.instructions());
        if !sp.is_diagonal() {
            return Err(DiagonalizeError::NotCommuting);
        }
        diagonal_terms.push((sp.sign(), sp.z_mask()));
    }
    Ok(Diagonalization {
        circuit,
        diagonal_terms,
    })
}

/// Greedily selects strings whose symplectic vectors are GF(2)-independent.
fn independent_subset(strings: &[PauliString], n: usize) -> Vec<PauliString> {
    // Each basis row is reduced; `pivot[c]` = row index with leading bit c.
    let mut rows: Vec<u128> = Vec::new();
    let mut selected = Vec::new();
    for s in strings {
        let (xs, zs) = s.to_xz_bits();
        let mut v: u128 = 0;
        for q in 0..n {
            if xs[q] {
                v |= 1u128 << q;
            }
            if zs[q] {
                v |= 1u128 << (n + q);
            }
        }
        let mut reduced = v;
        for &row in &rows {
            let lead = 127 - row.leading_zeros() as usize;
            if reduced >> lead & 1 == 1 {
                reduced ^= row;
            }
        }
        if reduced != 0 {
            rows.push(reduced);
            rows.sort_by(|a, b| b.cmp(a));
            selected.push(s.clone());
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_circuit::Gate;
    use supermarq_pauli::mermin_operator;
    use supermarq_sim::StateVector;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    /// Checks `C P C^dagger == sign * Z(mask)` with exact statevectors.
    fn verify_diagonalization(strings: &[PauliString], d: &Diagonalization) {
        let n = strings[0].num_qubits();
        // For a batch of random states |psi>, compare <psi|P|psi> against
        // sign * <C psi| Z(mask) |C psi>.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5 {
            let mut psi = StateVector::zero_state(n);
            for q in 0..n {
                psi.apply_gate(&Gate::Ry(rng.gen_range(0.0..3.0)), &[q]);
                psi.apply_gate(&Gate::Rz(rng.gen_range(0.0..3.0)), &[q]);
            }
            if n >= 2 {
                psi.apply_gate(&Gate::Cx, &[0, 1]);
            }
            let mut rotated = psi.clone();
            for instr in d.circuit.iter() {
                rotated.apply_instruction(instr);
            }
            for (s, &(sign, mask)) in strings.iter().zip(&d.diagonal_terms) {
                let lhs = psi.expectation_pauli(s);
                // Z(mask) expectation from the rotated state.
                let mut zstring = vec![supermarq_pauli::Pauli::I; n];
                for (q, z) in zstring.iter_mut().enumerate() {
                    if mask >> q & 1 == 1 {
                        *z = supermarq_pauli::Pauli::Z;
                    }
                }
                let rhs = sign * rotated.expectation_pauli(&PauliString::new(zstring));
                assert!((lhs - rhs).abs() < 1e-9, "term {s}: lhs={lhs} rhs={rhs}");
            }
        }
    }

    #[test]
    fn diagonalizes_bell_stabilizers() {
        let strings = vec![ps("XX"), ps("ZZ"), ps("YY")];
        let d = diagonalize(&strings).unwrap();
        verify_diagonalization(&strings, &d);
    }

    #[test]
    fn diagonalizes_already_diagonal_set() {
        let strings = vec![ps("ZZI"), ps("IZZ"), ps("ZIZ")];
        let d = diagonalize(&strings).unwrap();
        verify_diagonalization(&strings, &d);
        // No H gates needed for an already-diagonal set.
        assert!(d.circuit.iter().all(|i| i.gate != Gate::H));
    }

    #[test]
    fn diagonalizes_mermin_operator_terms() {
        for n in 2..=6 {
            let m = mermin_operator(n);
            let strings: Vec<PauliString> = m.iter().map(|(_, p)| p.clone()).collect();
            let d = diagonalize(&strings).unwrap();
            assert_eq!(d.diagonal_terms.len(), strings.len());
            if n <= 5 {
                verify_diagonalization(&strings, &d);
            }
        }
    }

    #[test]
    fn rejects_noncommuting_input() {
        let strings = vec![ps("X"), ps("Z")];
        assert_eq!(
            diagonalize(&strings).unwrap_err(),
            DiagonalizeError::NotCommuting
        );
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        assert_eq!(diagonalize(&[]).unwrap_err(), DiagonalizeError::EmptyInput);
        assert_eq!(
            diagonalize(&[ps("X"), ps("XX")]).unwrap_err(),
            DiagonalizeError::SizeMismatch
        );
    }

    #[test]
    fn handles_signed_results() {
        // -XX style inputs are not expressible (strings are unsigned), but
        // diagonal images may pick up signs; check a case known to produce
        // one and verify consistency.
        let strings = vec![ps("YY"), ps("XX")];
        let d = diagonalize(&strings).unwrap();
        verify_diagonalization(&strings, &d);
    }

    #[test]
    fn independent_subset_of_dependent_strings() {
        // ZZI * IZZ = ZIZ, so only 2 of the 3 are independent.
        let strings = vec![ps("ZZI"), ps("IZZ"), ps("ZIZ")];
        let subset = independent_subset(&strings, 3);
        assert_eq!(subset.len(), 2);
    }

    #[test]
    fn ghz_stabilizers_diagonalize_with_expected_pivots() {
        // Stabilizers of the GHZ state: XXX, ZZI, IZZ.
        let strings = vec![ps("XXX"), ps("ZZI"), ps("IZZ")];
        let d = diagonalize(&strings).unwrap();
        verify_diagonalization(&strings, &d);
        // All three images must be distinct masks (independent).
        let masks: std::collections::BTreeSet<u64> =
            d.diagonal_terms.iter().map(|&(_, m)| m).collect();
        assert_eq!(masks.len(), 3);
    }
}
