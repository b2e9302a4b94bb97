//! Sherrington–Kirkpatrick instances and brute-force Ising optima.
//!
//! The QAOA benchmarks target "MaxCut on complete graphs with edge weights
//! randomly drawn from {-1, +1}" (paper Sec. IV-D). Instances are generated
//! deterministically from a seed so every crate in the workspace sees the
//! same problem.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples the `n(n-1)/2` upper-triangular SK couplings, each uniformly
/// `-1` or `+1`, deterministically from `seed`.
pub fn sk_weights(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * n.saturating_sub(1) / 2)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect()
}

/// Brute-force minimum of the Ising energy `E(s) = sum_{u<v} w_uv s_u s_v`
/// over spin assignments `s in {-1,+1}^n`. Returns `(min_energy,
/// argmin_bits)` where bit `q` of `argmin_bits` set means `s_q = -1`.
///
/// Exploits the global spin-flip symmetry by fixing `s_0 = +1`.
///
/// # Panics
///
/// Panics if `n > 24` (guard against accidental exponential blow-up) or if
/// the weight count mismatches.
pub fn min_ising_energy(n: usize, weights: &[f64]) -> (f64, u64) {
    assert!(n <= 24, "brute force limited to 24 spins");
    assert!(n >= 1, "need at least one spin");
    let expected = n * n.saturating_sub(1) / 2;
    assert_eq!(weights.len(), expected, "need {expected} weights");
    let mut best = (f64::INFINITY, 0u64);
    let configs = if n == 1 { 1u64 } else { 1u64 << (n - 1) };
    for bits in 0..configs {
        // s_0 = +1 always; bit q-1 of `bits` sets s_q = -1.
        let spin = |q: usize| -> f64 {
            if q == 0 {
                1.0
            } else if bits >> (q - 1) & 1 == 1 {
                -1.0
            } else {
                1.0
            }
        };
        let mut e = 0.0;
        let mut k = 0;
        for u in 0..n {
            for v in u + 1..n {
                e += weights[k] * spin(u) * spin(v);
                k += 1;
            }
        }
        if e < best.0 {
            best = (e, bits << 1);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_plus_minus_one_and_deterministic() {
        let w1 = sk_weights(6, 99);
        let w2 = sk_weights(6, 99);
        assert_eq!(w1, w2);
        assert_eq!(w1.len(), 15);
        assert!(w1.iter().all(|&w| w == 1.0 || w == -1.0));
        let w3 = sk_weights(6, 100);
        assert_ne!(w1, w3); // overwhelmingly likely
    }

    #[test]
    fn frustrated_triangle_minimum() {
        // w = (1,1,1): best is two spins agreeing, one opposed: E = -1.
        let (e, _) = min_ising_energy(3, &[1.0, 1.0, 1.0]);
        assert!((e + 1.0).abs() < 1e-12);
    }

    #[test]
    fn ferromagnetic_pair() {
        // w = -1 between two spins: aligned spins give E = -1.
        let (e, bits) = min_ising_energy(2, &[-1.0]);
        assert!((e + 1.0).abs() < 1e-12);
        assert_eq!(bits, 0); // both +1
    }

    #[test]
    fn antiferromagnetic_pair() {
        let (e, bits) = min_ising_energy(2, &[1.0]);
        assert!((e + 1.0).abs() < 1e-12);
        assert_eq!(bits, 0b10); // opposite spins
    }

    #[test]
    fn energy_of_returned_assignment_matches_minimum() {
        let n = 8;
        let w = sk_weights(n, 7);
        let (e_min, bits) = min_ising_energy(n, &w);
        let spin = |q: usize| if bits >> q & 1 == 1 { -1.0 } else { 1.0 };
        let mut e = 0.0;
        let mut k = 0;
        for u in 0..n {
            for v in u + 1..n {
                e += w[k] * spin(u) * spin(v);
                k += 1;
            }
        }
        assert!((e - e_min).abs() < 1e-12);
    }

    #[test]
    fn single_spin_energy_is_zero() {
        let (e, _) = min_ising_energy(1, &[]);
        assert_eq!(e, 0.0);
    }

    #[test]
    #[should_panic(expected = "limited to 24 spins")]
    fn guards_against_large_n() {
        min_ising_energy(25, &vec![0.0; 25 * 24 / 2]);
    }
}
