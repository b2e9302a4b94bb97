//! Weighted sums of Pauli strings (observables / Hamiltonians).

use crate::string::PauliString;
use std::collections::BTreeMap;

/// A real-weighted sum of Pauli strings, `H = sum_k c_k P_k`.
///
/// All operators the SupermarQ benchmarks measure — the Mermin operator, the
/// SK cost Hamiltonian `sum_{ij} w_ij Z_i Z_j`, the TFIM energy, the average
/// magnetization `m_z` — are Hermitian with real coefficients in the Pauli
/// basis, so real weights suffice.
///
/// Terms are kept in a canonical sorted map keyed by string, so equal
/// operators built in different orders compare equal.
///
/// # Example
///
/// ```
/// use supermarq_pauli::{PauliString, PauliSum};
///
/// let zz: PauliString = "ZZ".parse().unwrap();
/// let xi: PauliString = "XI".parse().unwrap();
/// let h = PauliSum::from_terms(2, [(0.5, zz.clone()), (1.0, xi.clone()), (0.5, zz.clone())]);
/// let terms: Vec<(f64, &PauliString)> = h.iter().collect();
/// assert_eq!(terms, [(1.0, &xi), (1.0, &zz)]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PauliSum {
    num_qubits: usize,
    terms: BTreeMap<PauliString, f64>,
}

impl PauliSum {
    /// The zero operator on `n` qubits.
    pub(crate) fn zero(num_qubits: usize) -> Self {
        PauliSum {
            num_qubits,
            terms: BTreeMap::new(),
        }
    }

    /// Builds a sum from `(coefficient, string)` pairs, collecting duplicate
    /// strings.
    ///
    /// # Panics
    ///
    /// Panics if any string length differs from `num_qubits`.
    pub fn from_terms(
        num_qubits: usize,
        terms: impl IntoIterator<Item = (f64, PauliString)>,
    ) -> Self {
        let mut sum = PauliSum::zero(num_qubits);
        for (c, p) in terms {
            sum.add_term(c, p);
        }
        sum
    }

    /// Number of qubits the operator acts on.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of distinct Pauli strings with non-zero coefficient.
    #[cfg(test)]
    pub(crate) fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Adds `c * P` to the operator, dropping the term if the collected
    /// coefficient cancels to (near) zero.
    ///
    /// # Panics
    ///
    /// Panics if `p.num_qubits() != self.num_qubits()`.
    pub(crate) fn add_term(&mut self, c: f64, p: PauliString) {
        assert_eq!(
            p.num_qubits(),
            self.num_qubits,
            "term length {} does not match operator size {}",
            p.num_qubits(),
            self.num_qubits
        );
        let entry = self.terms.entry(p).or_insert(0.0);
        *entry += c;
        if entry.abs() < 1e-14 {
            let key = self
                .terms
                .iter()
                .find(|(_, &v)| v.abs() < 1e-14)
                .map(|(k, _)| k.clone());
            if let Some(k) = key {
                self.terms.remove(&k);
            }
        }
    }

    /// Coefficient of a string (0 if absent).
    #[cfg(test)]
    pub(crate) fn coefficient(&self, p: &PauliString) -> f64 {
        self.terms.get(p).copied().unwrap_or(0.0)
    }

    /// Iterates over `(coefficient, string)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (f64, &PauliString)> + '_ {
        self.terms.iter().map(|(p, &c)| (c, p))
    }

    /// `true` if every pair of terms commutes, i.e. the whole sum can be
    /// measured simultaneously in one shared eigenbasis.
    #[cfg(test)]
    pub(crate) fn is_mutually_commuting(&self) -> bool {
        let strings: Vec<&PauliString> = self.terms.keys().collect();
        for (i, a) in strings.iter().enumerate() {
            for b in &strings[i + 1..] {
                if !a.commutes_with(b) {
                    return false;
                }
            }
        }
        true
    }
}

impl std::fmt::Display for PauliSum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        let parts: Vec<String> = self.iter().map(|(c, p)| format!("{c:+.6}*{p}")).collect();
        write!(f, "{}", parts.join(" "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        s.parse().unwrap()
    }

    #[test]
    fn duplicate_terms_collect() {
        let h = PauliSum::from_terms(2, [(0.5, ps("ZZ")), (0.25, ps("ZZ")), (1.0, ps("XI"))]);
        assert_eq!(h.num_terms(), 2);
        assert!((h.coefficient(&ps("ZZ")) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cancelling_terms_drop_out() {
        let mut h = PauliSum::zero(1);
        h.add_term(1.0, ps("X"));
        h.add_term(-1.0, ps("X"));
        assert_eq!(h.num_terms(), 0);
    }

    #[test]
    fn order_independence() {
        let a = PauliSum::from_terms(2, [(1.0, ps("XX")), (2.0, ps("ZZ"))]);
        let b = PauliSum::from_terms(2, [(2.0, ps("ZZ")), (1.0, ps("XX"))]);
        assert_eq!(a, b);
    }

    #[test]
    fn mutual_commutation_detection() {
        let commuting =
            PauliSum::from_terms(2, [(1.0, ps("XX")), (1.0, ps("YY")), (1.0, ps("ZZ"))]);
        assert!(commuting.is_mutually_commuting());
        let anti = PauliSum::from_terms(2, [(1.0, ps("XI")), (1.0, ps("ZI"))]);
        assert!(!anti.is_mutually_commuting());
    }

    #[test]
    #[should_panic(expected = "does not match operator size")]
    fn add_term_rejects_wrong_length() {
        let mut h = PauliSum::zero(2);
        h.add_term(1.0, ps("XXX"));
    }

    #[test]
    fn display_nonempty() {
        let h = PauliSum::from_terms(1, [(1.5, ps("Z"))]);
        assert!(h.to_string().contains("Z"));
        assert_eq!(PauliSum::zero(1).to_string(), "0");
    }
}
