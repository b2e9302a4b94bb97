//! Single-qubit Paulis and phase-tracked Pauli strings.

use std::fmt;
use std::str::FromStr;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pauli {
    /// Identity.
    I,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

impl Pauli {
    /// All four Paulis, in `I, X, Y, Z` order.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// The symplectic `(x, z)` bit pair of this Pauli: `X=(1,0)`, `Z=(0,1)`,
    /// `Y=(1,1)`, `I=(0,0)`.
    pub fn xz_bits(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Reconstructs a Pauli from its symplectic bits.
    pub(crate) fn from_xz_bits(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// `true` if the two Paulis commute (identical, or either is identity).
    pub(crate) fn commutes_with(self, other: Pauli) -> bool {
        self == Pauli::I || other == Pauli::I || self == other
    }

    /// Multiplies two single-qubit Paulis, returning `(k, P)` such that
    /// `self * other = i^k P` with `k` in `0..4`.
    pub(crate) fn multiply(self, other: Pauli) -> (u8, Pauli) {
        use Pauli::*;
        match (self, other) {
            (I, p) => (0, p),
            (p, I) => (0, p),
            (a, b) if a == b => (0, I),
            (X, Y) => (1, Z),
            (Y, X) => (3, Z),
            (Y, Z) => (1, X),
            (Z, Y) => (3, X),
            (Z, X) => (1, Y),
            (X, Z) => (3, Y),
            _ => unreachable!(),
        }
    }

    /// The character representation (`I`, `X`, `Y`, `Z`).
    pub fn to_char(self) -> char {
        match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Error returned when parsing a [`Pauli`] or [`PauliString`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePauliError {
    /// The offending character.
    pub character: char,
}

impl fmt::Display for ParsePauliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pauli character '{}'", self.character)
    }
}

impl std::error::Error for ParsePauliError {}

impl TryFrom<char> for Pauli {
    type Error = ParsePauliError;

    fn try_from(c: char) -> Result<Self, Self::Error> {
        match c.to_ascii_uppercase() {
            'I' => Ok(Pauli::I),
            'X' => Ok(Pauli::X),
            'Y' => Ok(Pauli::Y),
            'Z' => Ok(Pauli::Z),
            other => Err(ParsePauliError { character: other }),
        }
    }
}

/// A tensor product of single-qubit Paulis over a fixed register, e.g.
/// `XIZY`. Index 0 is qubit 0.
///
/// Strings track no phase of their own; products report the accumulated
/// power of `i` separately, keeping [`PauliString`] a canonical (hashable,
/// orderable) key for term collection in [`crate::PauliSum`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PauliString {
    paulis: Vec<Pauli>,
}

impl PauliString {
    /// The all-identity string on `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            paulis: vec![Pauli::I; n],
        }
    }

    /// Builds a string from a slice of Paulis.
    pub fn new(paulis: Vec<Pauli>) -> Self {
        PauliString { paulis }
    }

    /// A string with a single non-identity Pauli `p` at `qubit`.
    ///
    /// # Panics
    ///
    /// Panics if `qubit >= n`.
    pub(crate) fn single(n: usize, qubit: usize, p: Pauli) -> Self {
        assert!(qubit < n, "qubit {qubit} out of range for {n}-qubit string");
        let mut paulis = vec![Pauli::I; n];
        paulis[qubit] = p;
        PauliString { paulis }
    }

    /// A string with `p` at `a` and `q` at `b`, identity elsewhere.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or they coincide.
    pub(crate) fn two(n: usize, a: usize, p: Pauli, b: usize, q: Pauli) -> Self {
        assert!(
            a < n && b < n && a != b,
            "invalid qubit pair ({a},{b}) for n={n}"
        );
        let mut paulis = vec![Pauli::I; n];
        paulis[a] = p;
        paulis[b] = q;
        PauliString { paulis }
    }

    /// Number of qubits the string is defined on.
    pub fn num_qubits(&self) -> usize {
        self.paulis.len()
    }

    /// The Pauli acting on `qubit`.
    pub fn get(&self, qubit: usize) -> Pauli {
        self.paulis[qubit]
    }

    /// The underlying Pauli slice.
    pub fn paulis(&self) -> &[Pauli] {
        &self.paulis
    }

    /// Indices of non-identity sites in increasing order.
    pub fn support(&self) -> Vec<usize> {
        self.paulis
            .iter()
            .enumerate()
            .filter(|(_, &p)| p != Pauli::I)
            .map(|(i, _)| i)
            .collect()
    }

    /// `true` if every site is the identity.
    pub fn is_identity(&self) -> bool {
        self.paulis.iter().all(|&p| p == Pauli::I)
    }

    /// `true` if the strings commute as operators: they anticommute per
    /// site at which both are non-identity and different; the strings
    /// commute iff the number of such sites is even.
    ///
    /// # Panics
    ///
    /// Panics if the strings have different lengths.
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        assert_eq!(self.num_qubits(), other.num_qubits(), "length mismatch");
        let anti = self
            .paulis
            .iter()
            .zip(&other.paulis)
            .filter(|(&a, &b)| !a.commutes_with(b))
            .count();
        anti % 2 == 0
    }

    /// Multiplies two strings site-wise, returning `(k, P)` such that
    /// `self * other = i^k P` with `k` in `0..4`.
    ///
    /// # Panics
    ///
    /// Panics if the strings have different lengths.
    pub fn multiply(&self, other: &PauliString) -> (u8, PauliString) {
        assert_eq!(self.num_qubits(), other.num_qubits(), "length mismatch");
        let mut phase = 0u8;
        let paulis = self
            .paulis
            .iter()
            .zip(&other.paulis)
            .map(|(&a, &b)| {
                let (k, p) = a.multiply(b);
                phase = (phase + k) % 4;
                p
            })
            .collect();
        (phase, PauliString { paulis })
    }

    /// The symplectic representation: `(x_bits, z_bits)` vectors.
    pub fn to_xz_bits(&self) -> (Vec<bool>, Vec<bool>) {
        let mut xs = Vec::with_capacity(self.paulis.len());
        let mut zs = Vec::with_capacity(self.paulis.len());
        for &p in &self.paulis {
            let (x, z) = p.xz_bits();
            xs.push(x);
            zs.push(z);
        }
        (xs, zs)
    }

    /// Reconstructs a string from symplectic bit vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length.
    pub fn from_xz_bits(xs: &[bool], zs: &[bool]) -> Self {
        assert_eq!(xs.len(), zs.len(), "length mismatch");
        PauliString {
            paulis: xs
                .iter()
                .zip(zs)
                .map(|(&x, &z)| Pauli::from_xz_bits(x, z))
                .collect(),
        }
    }

    /// Applies a wire permutation: the factor at qubit `i` of `self` moves
    /// to qubit `perm[i]` of the result. This is conjugation by the
    /// permutation unitary, `P -> Pi P Pi^dagger`, which never changes the
    /// sign of a signed Pauli — the property the stabilizer equivalence
    /// audit in `supermarq-verify` relies on.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_qubits()`.
    pub fn permuted(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.paulis.len(), "permutation length mismatch");
        let mut paulis = vec![None; self.paulis.len()];
        for (i, &p) in self.paulis.iter().enumerate() {
            let slot = &mut paulis[perm[i]];
            assert!(slot.is_none(), "perm is not injective");
            *slot = Some(p);
        }
        PauliString {
            paulis: paulis.into_iter().map(|p| p.expect("total perm")).collect(),
        }
    }
}

impl FromStr for PauliString {
    type Err = ParsePauliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let paulis: Result<Vec<Pauli>, _> = s.chars().map(Pauli::try_from).collect();
        Ok(PauliString { paulis: paulis? })
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.paulis {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_pauli_multiplication_table() {
        use Pauli::*;
        assert_eq!(X.multiply(Y), (1, Z)); // XY = iZ
        assert_eq!(Y.multiply(X), (3, Z)); // YX = -iZ
        assert_eq!(Y.multiply(Z), (1, X));
        assert_eq!(Z.multiply(X), (1, Y));
        assert_eq!(X.multiply(X), (0, I));
        assert_eq!(I.multiply(Z), (0, Z));
    }

    #[test]
    fn pauli_commutation() {
        use Pauli::*;
        assert!(X.commutes_with(X));
        assert!(I.commutes_with(Y));
        assert!(!X.commutes_with(Z));
        assert!(!Y.commutes_with(Z));
    }

    #[test]
    fn xz_bits_round_trip() {
        for p in Pauli::ALL {
            let (x, z) = p.xz_bits();
            assert_eq!(Pauli::from_xz_bits(x, z), p);
        }
    }

    #[test]
    fn string_parse_and_display_round_trip() {
        let s: PauliString = "XIZY".parse().unwrap();
        assert_eq!(s.to_string(), "XIZY");
        assert_eq!(s.support(), vec![0, 2, 3]);
        assert!("XQ".parse::<PauliString>().is_err());
    }

    #[test]
    fn string_commutation_parity() {
        let xx: PauliString = "XX".parse().unwrap();
        let zz: PauliString = "ZZ".parse().unwrap();
        let zi: PauliString = "ZI".parse().unwrap();
        assert!(xx.commutes_with(&zz)); // two anticommuting sites -> commute
        assert!(!xx.commutes_with(&zi)); // one anticommuting site
    }

    #[test]
    fn string_multiplication_accumulates_phase() {
        let xy: PauliString = "XY".parse().unwrap();
        let yx: PauliString = "YX".parse().unwrap();
        // (X*Y)(Y*X) = (iZ)(-iZ) ... site-wise: X*Y=iZ (k=1), Y*X=-iZ (k=3);
        // total k = 0, result ZZ.
        let (k, p) = xy.multiply(&yx);
        assert_eq!(k, 0);
        assert_eq!(p.to_string(), "ZZ");
    }

    #[test]
    fn multiply_by_self_gives_identity() {
        let s: PauliString = "XYZIXY".parse().unwrap();
        let (k, p) = s.multiply(&s);
        assert_eq!(k, 0);
        assert!(p.is_identity());
    }

    #[test]
    fn constructors() {
        let s = PauliString::single(4, 2, Pauli::Z);
        assert_eq!(s.to_string(), "IIZI");
        let t = PauliString::two(4, 0, Pauli::X, 3, Pauli::Y);
        assert_eq!(t.to_string(), "XIIY");
        assert!(PauliString::identity(3).is_identity());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_rejects_out_of_range() {
        PauliString::single(2, 2, Pauli::X);
    }

    #[test]
    fn permuted_moves_factors_without_changing_weight() {
        let s: PauliString = "XYZI".parse().unwrap();
        // Factor at i moves to perm[i]: X->q2, Y->q0, Z->q3, I->q1.
        let p = s.permuted(&[2, 0, 3, 1]);
        assert_eq!(p.to_string(), "YIXZ");
        assert_eq!(p.support().len(), s.support().len());
        // The identity permutation is a no-op; a permutation and its
        // inverse round-trip.
        assert_eq!(s.permuted(&[0, 1, 2, 3]), s);
        assert_eq!(p.permuted(&[1, 3, 0, 2]), s);
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn permuted_rejects_non_injective_map() {
        let s: PauliString = "XY".parse().unwrap();
        s.permuted(&[0, 0]);
    }

    #[test]
    fn symplectic_round_trip() {
        let s: PauliString = "IXYZ".parse().unwrap();
        let (xs, zs) = s.to_xz_bits();
        assert_eq!(PauliString::from_xz_bits(&xs, &zs), s);
        assert_eq!(xs, vec![false, true, true, false]);
        assert_eq!(zs, vec![false, false, true, true]);
    }

    #[test]
    fn string_commutation_matches_symplectic_form() {
        // <a, b> = sum (a.x & b.z) ^ (a.z & b.x) mod 2 must agree with
        // commutes_with.
        let strings = ["XXYZ", "IZZY", "YYYY", "XIXI", "ZZZZ", "IIIX"];
        for a in strings {
            for b in strings {
                let sa: PauliString = a.parse().unwrap();
                let sb: PauliString = b.parse().unwrap();
                let (ax, az) = sa.to_xz_bits();
                let (bx, bz) = sb.to_xz_bits();
                let mut form = false;
                for i in 0..4 {
                    form ^= (ax[i] & bz[i]) ^ (az[i] & bx[i]);
                }
                assert_eq!(sa.commutes_with(&sb), !form, "{a} vs {b}");
            }
        }
    }
}
