//! Aaronson–Gottesman (CHP) stabilizer tableau simulator.
//!
//! Simulates Clifford circuits in `O(n)` per gate and `O(n^2)` per
//! measurement instead of `O(2^n)`, which lets the test-suite cross-check
//! Clifford constructions (GHZ ladders, error-correction syndrome extraction,
//! Mermin basis changes) at hundreds of qubits — the scalability regime the
//! paper targets.

use rand::Rng;
use supermarq_pauli::PauliString;

use crate::frame::SignedPauli;
use crate::ops::CliffordOp;

/// A stabilizer-state simulator over `n` qubits.
///
/// The tableau is `2n` [`SignedPauli`] rows: rows `0..n` are
/// destabilizers, rows `n..2n` stabilizers, following Aaronson &
/// Gottesman, "Improved simulation of stabilizer circuits" (2004). A gate
/// conjugates every row with [`SignedPauli::apply`], so the tableau and a
/// lone `SignedPauli` share one rule set.
///
/// # Example
///
/// ```
/// use supermarq_clifford::{CliffordOp, StabilizerSimulator};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut sim = StabilizerSimulator::new(3);
/// sim.apply(CliffordOp::H(0));
/// sim.apply(CliffordOp::Cx(0, 1));
/// sim.apply(CliffordOp::Cx(1, 2));
/// let mut rng = StdRng::seed_from_u64(1);
/// let b0 = sim.measure(0, &mut rng);
/// // GHZ correlations: remaining qubits agree with the first.
/// assert_eq!(sim.measure(1, &mut rng), b0);
/// assert_eq!(sim.measure(2, &mut rng), b0);
/// ```
#[derive(Debug, Clone)]
pub struct StabilizerSimulator {
    n: usize,
    rows: Vec<SignedPauli>,
}

impl StabilizerSimulator {
    /// Initializes the `|0...0>` state.
    pub fn new(n: usize) -> Self {
        let mut rows = vec![SignedPauli::identity(n); 2 * n];
        for i in 0..n {
            rows[i].x[i] = true; // destabilizer X_i
            rows[n + i].z[i] = true; // stabilizer Z_i
        }
        StabilizerSimulator { n, rows }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The signed Pauli stored in tableau row `i` as `(minus, string)`.
    ///
    /// Rows `0..n` are the destabilizers (the images `U X_i U^dagger` after
    /// the applied gates), rows `n..2n` the stabilizers (`U Z_i U^dagger`).
    /// Together the `2n` rows determine the applied Clifford unitary up to
    /// global phase, which makes this accessor the raw material for the
    /// symbolic equivalence checks in `supermarq-verify`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 2 * num_qubits()`.
    pub fn row_pauli(&self, i: usize) -> (bool, PauliString) {
        assert!(i < 2 * self.n, "row {i} out of range for n={}", self.n);
        let row = &self.rows[i];
        (row.minus, row.to_pauli_string())
    }

    /// Applies a Clifford primitive: every row `P` becomes `U P U^dagger`.
    pub fn apply(&mut self, op: CliffordOp) {
        for row in &mut self.rows {
            row.apply(op);
        }
    }

    /// Measures qubit `a` in the computational basis, collapsing the state.
    pub fn measure<R: Rng + ?Sized>(&mut self, a: usize, rng: &mut R) -> bool {
        self.collapse(a, || rng.gen::<bool>()).0
    }

    /// Measures qubit `a`, calling `random` for the outcome only when the
    /// state does not fix it. Returns the outcome and, for a random one,
    /// the destabilizer row that now holds the stabilizer the measurement
    /// replaced: the Pauli that maps the collapsed state onto the other
    /// outcome's.
    pub(crate) fn collapse(
        &mut self,
        a: usize,
        random: impl FnOnce() -> bool,
    ) -> (bool, Option<&SignedPauli>) {
        let n = self.n;
        // Random outcome iff some stabilizer anticommutes with Z_a.
        let p = (n..2 * n).find(|&i| self.rows[i].x[a]);
        if let Some(p) = p {
            for i in 0..2 * n {
                if i != p && self.rows[i].x[a] {
                    self.rowsum(i, p);
                }
            }
            // Destabilizer p-n gets the old stabilizer row; the new
            // stabilizer is +/- Z_a.
            let outcome = random();
            let mut z_a = SignedPauli::identity(n);
            z_a.z[a] = true;
            z_a.minus = outcome;
            self.rows[p - n] = std::mem::replace(&mut self.rows[p], z_a);
            (outcome, Some(&self.rows[p - n]))
        } else {
            // Determinate: the product of the stabilizers paired with the
            // destabilizers that anticommute with Z_a is +/- Z_a.
            let mut scratch = SignedPauli::identity(n);
            for i in 0..n {
                if self.rows[i].x[a] {
                    scratch.left_multiply(&self.rows[i + n]);
                }
            }
            (scratch.minus, None)
        }
    }

    /// Measures every qubit, returning a little-endian bit mask.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn measure_all<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        assert!(self.n <= 64, "measure_all limited to 64 qubits");
        let mut bits = 0u64;
        for q in 0..self.n {
            if self.measure(q, rng) {
                bits |= 1 << q;
            }
        }
        bits
    }

    /// Resets qubit `a` to `|0>`.
    pub fn reset<R: Rng + ?Sized>(&mut self, a: usize, rng: &mut R) {
        if self.measure(a, rng) {
            self.apply(CliffordOp::X(a));
        }
    }

    /// Left-multiplies row `h` by row `i` in place (the AG `rowsum`).
    fn rowsum(&mut self, h: usize, i: usize) {
        let (low, high) = self.rows.split_at_mut(h.max(i));
        let (row_h, row_i) = if h < i {
            (&mut low[h], &high[0])
        } else {
            (&mut high[0], &low[i])
        };
        row_h.left_multiply(row_i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CliffordOp::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn zero_state_measures_zero() {
        let mut sim = StabilizerSimulator::new(4);
        let mut r = rng(1);
        assert_eq!(sim.measure_all(&mut r), 0);
    }

    #[test]
    fn x_gate_flips_measurement() {
        let mut sim = StabilizerSimulator::new(2);
        sim.apply(X(1));
        let mut r = rng(2);
        assert_eq!(sim.measure_all(&mut r), 0b10);
    }

    #[test]
    fn hadamard_measurement_is_random_but_collapses() {
        let mut zeros = 0;
        let trials = 2000;
        let mut r = rng(3);
        for _ in 0..trials {
            let mut sim = StabilizerSimulator::new(1);
            sim.apply(H(0));
            let b = sim.measure(0, &mut r);
            // Second measurement must agree (state collapsed).
            assert_eq!(sim.measure(0, &mut r), b);
            if !b {
                zeros += 1;
            }
        }
        let frac = zeros as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn ghz_correlations_at_scale() {
        // 200-qubit GHZ: far beyond statevector reach; all bits must agree.
        let n = 200;
        let mut r = rng(4);
        for _ in 0..10 {
            let mut sim = StabilizerSimulator::new(n);
            sim.apply(H(0));
            for q in 0..n - 1 {
                sim.apply(Cx(q, q + 1));
            }
            let first = sim.measure(0, &mut r);
            for q in 1..n {
                assert_eq!(sim.measure(q, &mut r), first, "qubit {q}");
            }
        }
    }

    #[test]
    fn bell_pair_parity() {
        let mut r = rng(5);
        for _ in 0..100 {
            let mut sim = StabilizerSimulator::new(2);
            sim.apply(H(0));
            sim.apply(Cx(0, 1));
            let a = sim.measure(0, &mut r);
            let b = sim.measure(1, &mut r);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn s_gate_turns_plus_into_y_eigenstate() {
        // S|+> = |+i>, and H S |+i>... verify via: S S |+> = Z|+> = |->,
        // then H|-> = |1>.
        let mut sim = StabilizerSimulator::new(1);
        sim.apply(H(0));
        sim.apply(S(0));
        sim.apply(S(0));
        sim.apply(H(0));
        let mut r = rng(6);
        assert!(sim.measure(0, &mut r));
    }

    #[test]
    fn sdg_is_inverse_of_s() {
        let mut sim = StabilizerSimulator::new(1);
        sim.apply(H(0));
        sim.apply(S(0));
        sim.apply(Sdg(0));
        sim.apply(H(0));
        let mut r = rng(7);
        assert!(!sim.measure(0, &mut r));
    }

    #[test]
    fn swap_moves_excitation() {
        let mut sim = StabilizerSimulator::new(3);
        sim.apply(X(0));
        sim.apply(Swap(0, 2));
        let mut r = rng(8);
        assert_eq!(sim.measure_all(&mut r), 0b100);
    }

    #[test]
    fn cz_phase_is_visible_in_x_basis() {
        // H0 H1; CZ; H1 => CX(0,1) — verify via |10> -> |11>.
        let mut sim = StabilizerSimulator::new(2);
        sim.apply(X(0));
        sim.apply(H(1));
        sim.apply(Cz(0, 1));
        sim.apply(H(1));
        let mut r = rng(9);
        assert_eq!(sim.measure_all(&mut r), 0b11);
    }

    #[test]
    fn reset_returns_to_zero() {
        let mut sim = StabilizerSimulator::new(1);
        sim.apply(H(0));
        let mut r = rng(10);
        sim.reset(0, &mut r);
        assert!(!sim.measure(0, &mut r));
    }

    #[test]
    fn row_pauli_exposes_conjugated_generators() {
        // Fresh tableau: destabilizer i is X_i, stabilizer i is Z_i.
        let sim = StabilizerSimulator::new(2);
        assert_eq!(sim.row_pauli(0), (false, "XI".parse().unwrap()));
        assert_eq!(sim.row_pauli(3), (false, "IZ".parse().unwrap()));
        // H swaps X and Z on its wire; X then flips the sign of Z-images.
        let mut sim = StabilizerSimulator::new(1);
        sim.apply(H(0));
        assert_eq!(sim.row_pauli(0), (false, "Z".parse().unwrap()));
        assert_eq!(sim.row_pauli(1), (false, "X".parse().unwrap()));
        let mut sim = StabilizerSimulator::new(1);
        sim.apply(X(0));
        assert_eq!(sim.row_pauli(1), (true, "Z".parse().unwrap()));
    }
}
