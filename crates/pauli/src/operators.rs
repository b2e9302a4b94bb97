//! Benchmark-specific operators from the SupermarQ paper.

use crate::string::{Pauli, PauliString};
use crate::sum::PauliSum;

/// The `n`-qubit Mermin operator of paper Eq. 7:
///
/// `M = (1/2i) ( prod_j (X_j + i Y_j) - prod_j (X_j - i Y_j) )`.
///
/// Expanding the products gives all X/Y strings with an **odd** number of
/// `Y`s, with coefficient `(-1)^{(k-1)/2}` for a string containing `k` Ys —
/// `2^{n-1}` terms in total, all mutually commuting (so the whole operator
/// can be measured in one shared basis, which is what the Mermin–Bell
/// benchmark's basis-change circuit does).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// use supermarq_pauli::mermin_operator;
///
/// let m3 = mermin_operator(3);
/// assert_eq!(m3.iter().count(), 4); // XXY, XYX, YXX (+1) and YYY (-1)
/// ```
pub fn mermin_operator(n: usize) -> PauliSum {
    assert!(n > 0, "mermin operator needs at least one qubit");
    let mut sum = PauliSum::zero(n);
    // Iterate over all bitmasks selecting which sites carry a Y.
    for mask in 0u64..(1u64 << n) {
        let k = mask.count_ones() as usize;
        if k.is_multiple_of(2) {
            continue;
        }
        let coeff = if ((k - 1) / 2).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        let paulis: Vec<Pauli> = (0..n)
            .map(|q| {
                if mask >> q & 1 == 1 {
                    Pauli::Y
                } else {
                    Pauli::X
                }
            })
            .collect();
        sum.add_term(coeff, PauliString::new(paulis));
    }
    sum
}

/// The Sherrington–Kirkpatrick cost Hamiltonian used by both QAOA
/// benchmarks (paper Sec. IV-D): `H = sum_{(i,j) in E} w_ij Z_i Z_j` on the
/// complete graph, with `w_ij in {-1, +1}`.
///
/// `weights` must hold the upper-triangular weights in row-major order:
/// `w_01, w_02, ..., w_0(n-1), w_12, ...` — `n(n-1)/2` entries.
///
/// # Panics
///
/// Panics if `weights.len() != n(n-1)/2`.
pub fn sk_hamiltonian(n: usize, weights: &[f64]) -> PauliSum {
    let expected = n * n.saturating_sub(1) / 2;
    assert_eq!(
        weights.len(),
        expected,
        "SK model on {n} qubits needs {expected} weights"
    );
    let mut sum = PauliSum::zero(n);
    let mut k = 0;
    for i in 0..n {
        for j in i + 1..n {
            sum.add_term(weights[k], PauliString::two(n, i, Pauli::Z, j, Pauli::Z));
            k += 1;
        }
    }
    sum
}

/// The 1-D transverse-field Ising Hamiltonian of paper Eq. 10 at a fixed
/// instant (time-independent coefficients):
///
/// `H = -sum_i ( J_z Z_i Z_{i+1} + h_x X_i )`,
///
/// with open boundary conditions (the paper's chain of `N` spins has `N-1`
/// nearest-neighbor couplings).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn tfim_hamiltonian(n: usize, j_z: f64, h_x: f64) -> PauliSum {
    assert!(n > 0, "TFIM needs at least one spin");
    let mut sum = PauliSum::zero(n);
    for i in 0..n.saturating_sub(1) {
        sum.add_term(-j_z, PauliString::two(n, i, Pauli::Z, i + 1, Pauli::Z));
    }
    for i in 0..n {
        sum.add_term(-h_x, PauliString::single(n, i, Pauli::X));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mermin_term_count_is_two_to_n_minus_one() {
        for n in 1..=8 {
            let m = mermin_operator(n);
            assert_eq!(m.num_terms(), 1 << (n - 1), "n={n}");
        }
    }

    #[test]
    fn mermin_terms_all_commute() {
        for n in 2..=6 {
            assert!(mermin_operator(n).is_mutually_commuting(), "n={n}");
        }
    }

    #[test]
    fn mermin_n3_matches_hand_expansion() {
        // M_3 = XXY + XYX + YXX - YYY (standard Mermin polynomial).
        let m = mermin_operator(3);
        assert!((m.coefficient(&"XXY".parse().unwrap()) - 1.0).abs() < 1e-12);
        assert!((m.coefficient(&"XYX".parse().unwrap()) - 1.0).abs() < 1e-12);
        assert!((m.coefficient(&"YXX".parse().unwrap()) - 1.0).abs() < 1e-12);
        assert!((m.coefficient(&"YYY".parse().unwrap()) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn mermin_n2_matches_hand_expansion() {
        // M_2 = XY + YX.
        let m = mermin_operator(2);
        assert_eq!(m.num_terms(), 2);
        assert!((m.coefficient(&"XY".parse().unwrap()) - 1.0).abs() < 1e-12);
        assert!((m.coefficient(&"YX".parse().unwrap()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mermin_strings_have_odd_y_count() {
        let m = mermin_operator(5);
        for (_, p) in m.iter() {
            let ys = p.paulis().iter().filter(|&&x| x == Pauli::Y).count();
            assert_eq!(ys % 2, 1);
            let xs = p.paulis().iter().filter(|&&x| x == Pauli::X).count();
            assert_eq!(xs + ys, 5); // no identity sites
        }
    }

    #[test]
    fn sk_hamiltonian_has_all_pairs() {
        let n = 5;
        let weights = vec![1.0; n * (n - 1) / 2];
        let h = sk_hamiltonian(n, &weights);
        assert_eq!(h.num_terms(), 10);
        assert!(h.iter().all(|(_, p)| p.support().len() == 2));
        assert!(h.is_mutually_commuting()); // all-Z terms commute
    }

    #[test]
    #[should_panic(expected = "needs 10 weights")]
    fn sk_hamiltonian_validates_weight_count() {
        sk_hamiltonian(5, &[1.0; 9]);
    }

    #[test]
    fn tfim_structure() {
        let h = tfim_hamiltonian(4, 1.0, 0.5);
        // 3 ZZ bonds + 4 X fields.
        assert_eq!(h.num_terms(), 7);
        assert!((h.coefficient(&"ZZII".parse().unwrap()) + 1.0).abs() < 1e-12);
        assert!((h.coefficient(&"XIII".parse().unwrap()) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn tfim_single_spin_has_only_field() {
        let h = tfim_hamiltonian(1, 1.0, 0.7);
        assert_eq!(h.num_terms(), 1);
        assert!((h.coefficient(&"X".parse().unwrap()) + 0.7).abs() < 1e-12);
    }
}
