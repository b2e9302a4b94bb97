//! Exact solutions of the 1-D transverse-field Ising model.
//!
//! The paper picks the TFIM for its VQE benchmark precisely because "the 1D
//! TFIM is desirable as a scalable benchmark because it is exactly solvable
//! via classical methods" (Sec. IV-E, citing Pfeuty 1970). The open chain
//! `H = -J sum_i Z_i Z_{i+1} - h sum_i X_i` maps under a Jordan–Wigner
//! transformation to free fermions whose single-particle energies are the
//! square roots of the eigenvalues of `(A - B)(A - B)^T`, where `A` is the
//! hopping matrix and `B` the pairing matrix. The ground energy is
//! `-1/2 sum_k Lambda_k` — an `O(N^3)` computation for any chain length.

use crate::linalg::{matmul, symmetric_eigenvalues, transpose};

/// Exact ground-state energy of the open-boundary TFIM
/// `H = -J sum_{i<N-1} Z_i Z_{i+1} - h sum_i X_i` on `n` spins, via the
/// free-fermion solution.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// use supermarq_classical::tfim_ground_energy;
///
/// // Two critical spins: E0 = -sqrt(5).
/// let e = tfim_ground_energy(2, 1.0, 1.0);
/// assert!((e + 5f64.sqrt()).abs() < 1e-9);
/// ```
pub fn tfim_ground_energy(n: usize, j: f64, h: f64) -> f64 {
    assert!(n > 0, "need at least one spin");
    // A: symmetric hopping matrix; B: antisymmetric pairing matrix.
    let mut a = vec![vec![0.0; n]; n];
    let mut b = vec![vec![0.0; n]; n];
    for (i, row) in a.iter_mut().enumerate() {
        row[i] = 2.0 * h;
    }
    for i in 0..n.saturating_sub(1) {
        a[i][i + 1] = -j;
        a[i + 1][i] = -j;
        b[i][i + 1] = -j;
        b[i + 1][i] = j;
    }
    // M = A - B; single-particle energies are sqrt(eig(M M^T)).
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for k in 0..n {
            m[i][k] = a[i][k] - b[i][k];
        }
    }
    let mmt = matmul(&m, &transpose(&m));
    let evals = symmetric_eigenvalues(&mmt);
    let lambda_sum: f64 = evals.iter().map(|&e| e.max(0.0).sqrt()).sum();
    -0.5 * lambda_sum
}

/// Ground-state energy per site of the *periodic* TFIM in the thermodynamic
/// limit:
///
/// `e(J, h) = -(1/pi) * integral_0^pi sqrt(J^2 + h^2 - 2 J h cos k) dk`,
///
/// evaluated with Simpson quadrature. At criticality (`J = h = 1`) this is
/// the textbook `-4/pi` (for the `2 sqrt(...)` dispersion normalization
/// used here). The finite-chain solver is checked against it.
#[cfg(test)]
fn tfim_ground_energy_per_site_thermodynamic(j: f64, h: f64) -> f64 {
    let steps = 20_000usize; // even
    let a = 0.0;
    let b = std::f64::consts::PI;
    let dx = (b - a) / steps as f64;
    let f = |k: f64| (j * j + h * h - 2.0 * j * h * k.cos()).max(0.0).sqrt();
    let mut total = f(a) + f(b);
    for i in 1..steps {
        let x = a + i as f64 * dx;
        total += if i % 2 == 1 { 4.0 } else { 2.0 } * f(x);
    }
    let integral = total * dx / 3.0;
    -integral / std::f64::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed by exact diagonalization (power iteration
    /// on the dense Hamiltonian, independent implementation). One entry
    /// happens to coincide with -sqrt(2); it is a computed energy, not the
    /// constant.
    #[allow(clippy::approx_constant)]
    const REFERENCES: &[(usize, f64, f64, f64)] = &[
        (2, 1.0, 1.0, -2.2360679775),
        (2, 1.0, 0.5, -1.4142135624),
        (2, 0.7, 1.3, -2.6925824036),
        (3, 1.0, 1.0, -3.4939592074),
        (3, 1.0, 0.5, -2.4032119259),
        (3, 0.7, 1.3, -4.0882315452),
        (4, 1.0, 1.0, -4.7587704831),
        (4, 1.0, 0.5, -3.4270340889),
        (4, 0.7, 1.3, -5.4842386191),
        (5, 1.0, 1.0, -6.0266741833),
        (5, 1.0, 0.5, -4.4694903440),
        (5, 0.7, 1.3, -6.8803033991),
    ];

    #[test]
    fn matches_exact_diagonalization_references() {
        for &(n, j, h, e_ref) in REFERENCES {
            let e = tfim_ground_energy(n, j, h);
            assert!(
                (e - e_ref).abs() < 1e-8,
                "n={n} J={j} h={h}: {e} vs {e_ref}"
            );
        }
    }

    #[test]
    fn single_spin_energy_is_minus_h() {
        assert!((tfim_ground_energy(1, 1.0, 0.7) + 0.7).abs() < 1e-10);
    }

    #[test]
    fn zero_field_energy_is_classical_bond_energy() {
        // h = 0: ground state is ferromagnetic, E0 = -J (n-1).
        for n in 2..=6 {
            let e = tfim_ground_energy(n, 1.5, 0.0);
            assert!((e + 1.5 * (n as f64 - 1.0)).abs() < 1e-8, "n={n} e={e}");
        }
    }

    #[test]
    fn zero_coupling_energy_is_field_energy() {
        // J = 0: product of |+> states, E0 = -h n.
        let e = tfim_ground_energy(5, 0.0, 0.8);
        assert!((e + 4.0).abs() < 1e-8);
    }

    #[test]
    fn critical_thermodynamic_energy_is_minus_four_over_pi() {
        let e = tfim_ground_energy_per_site_thermodynamic(1.0, 1.0);
        assert!((e + 4.0 / std::f64::consts::PI).abs() < 1e-8, "e={e}");
    }

    #[test]
    fn finite_chain_approaches_thermodynamic_limit() {
        let per_site_200 = tfim_ground_energy(200, 1.0, 1.0) / 200.0;
        let bulk = tfim_ground_energy_per_site_thermodynamic(1.0, 1.0);
        // Boundary corrections are O(1/N).
        assert!(
            (per_site_200 - bulk).abs() < 0.01,
            "{per_site_200} vs {bulk}"
        );
    }

    #[test]
    fn energy_is_monotone_in_field() {
        let e1 = tfim_ground_energy(6, 1.0, 0.5);
        let e2 = tfim_ground_energy(6, 1.0, 1.0);
        let e3 = tfim_ground_energy(6, 1.0, 2.0);
        assert!(e1 > e2 && e2 > e3);
    }
}
