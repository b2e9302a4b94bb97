//! Closed-form level-1 QAOA energies on Ising cost Hamiltonians.
//!
//! The paper chooses the p=1 variant of QAOA "which is efficiently simulable
//! classically due to recent work" (Sec. IV-D, citing Wang et al.). For the
//! state `|psi(gamma, beta)> = e^{-i beta B} e^{-i gamma C} |+>^n` with
//! `C = sum_{u<v} w_uv Z_u Z_v` and `B = sum_j X_j`, each two-point
//! correlator has a product form (Ozaeta–van Dam–McMahon 2020):
//!
//! ```text
//! <Z_u Z_v> = (sin 4b / 2) sin(2g w_uv) [ prod_{k!=u,v} cos(2g w_uk)
//!                                       + prod_{k!=u,v} cos(2g w_vk) ]
//!           - (sin^2 2b / 2) [ prod_{k!=u,v} cos(2g (w_uk + w_vk))
//!                            - prod_{k!=u,v} cos(2g (w_uk - w_vk)) ]
//! ```
//!
//! so `<C>` costs `O(n^3)` instead of `O(2^n)` — this is what lets the QAOA
//! benchmark scale to arbitrary sizes.

use crate::opt::{grid_search_2d, nelder_mead, NelderMeadOptions};

/// Upper-triangular weight accessor: `w(u, v)` with `u != v`, 0 when absent.
fn weight(n: usize, weights: &[f64], u: usize, v: usize) -> f64 {
    debug_assert!(u != v);
    let (a, b) = (u.min(v), u.max(v));
    // Index of (a, b) in row-major upper-triangular order.
    let idx = a * n - a * (a + 1) / 2 + (b - a - 1);
    weights[idx]
}

/// The exact level-1 QAOA expectation `<C>` for the Ising cost
/// `C = sum_{u<v} w_uv Z_u Z_v` on `n` qubits.
///
/// `weights` holds the `n(n-1)/2` upper-triangular couplings in row-major
/// order (0 entries for absent edges).
///
/// # Panics
///
/// Panics if the weight count does not equal `n(n-1)/2`.
pub fn qaoa_p1_energy(n: usize, weights: &[f64], gamma: f64, beta: f64) -> f64 {
    let expected = n * n.saturating_sub(1) / 2;
    assert_eq!(weights.len(), expected, "need {expected} weights for n={n}");
    let mut energy = 0.0;
    for u in 0..n {
        for v in u + 1..n {
            let w_uv = weight(n, weights, u, v);
            if w_uv == 0.0 {
                continue;
            }
            energy += w_uv * qaoa_p1_zz(n, weights, u, v, gamma, beta);
        }
    }
    energy
}

/// The exact level-1 correlator `<Z_u Z_v>`.
pub(crate) fn qaoa_p1_zz(
    n: usize,
    weights: &[f64],
    u: usize,
    v: usize,
    gamma: f64,
    beta: f64,
) -> f64 {
    let w_uv = weight(n, weights, u, v);
    let g2 = 2.0 * gamma;
    let mut prod_u = 1.0;
    let mut prod_v = 1.0;
    let mut prod_sum = 1.0;
    let mut prod_diff = 1.0;
    for k in 0..n {
        if k == u || k == v {
            continue;
        }
        let w_uk = weight(n, weights, u, k);
        let w_vk = weight(n, weights, v, k);
        prod_u *= (g2 * w_uk).cos();
        prod_v *= (g2 * w_vk).cos();
        prod_sum *= (g2 * (w_uk + w_vk)).cos();
        prod_diff *= (g2 * (w_uk - w_vk)).cos();
    }
    let term1 = 0.5 * (4.0 * beta).sin() * (g2 * w_uv).sin() * (prod_u + prod_v);
    let term2 = 0.5 * (2.0 * beta).sin().powi(2) * (prod_sum - prod_diff);
    term1 - term2
}

/// [`qaoa_p1_energy`] of one instance, prepared for many `(gamma, beta)`.
///
/// Every cosine the correlators multiply is `cos(2 gamma m)` for `m` among
/// `w_uk`, `w_vk`, `w_uk + w_vk` and `w_uk - w_vk`, and every sine is
/// `sin(2 gamma w_uv)`. An instance has few distinct multipliers (five for
/// +-1 SK weights), so each coupling keeps indices into one table of them,
/// keyed by their bits, and a new `gamma` costs one cosine and one sine
/// per entry. The products are formed in `qaoa_p1_zz`'s order, so the
/// energy equals `qaoa_p1_energy`'s bit for bit. The factors that depend
/// on `gamma` alone are kept for the last `gamma`, so a grid row that
/// varies only `beta` forms them once.
struct P1Energy {
    /// The distinct multipliers, in first-use order.
    multipliers: Vec<f64>,
    /// The nonzero couplings in `(u, v)` order: `w_uv`, its table index,
    /// and for every `k` other than `u` and `v`, in increasing `k`, the
    /// indices of `[w_uk, w_vk, w_uk + w_vk, w_uk - w_vk]`.
    couplings: Vec<(f64, usize, Vec<[usize; 4]>)>,
    /// The bits of the last `gamma`, and per coupling at it:
    /// `sin(2 gamma w_uv)`, `prod_u + prod_v` and `prod_sum - prod_diff`.
    gamma: Option<u64>,
    factors: Vec<[f64; 3]>,
    /// Scratch: `(cos, sin)(2 gamma m)` per multiplier.
    trig: Vec<(f64, f64)>,
}

impl P1Energy {
    fn new(n: usize, weights: &[f64]) -> Self {
        let expected = n * n.saturating_sub(1) / 2;
        assert_eq!(weights.len(), expected, "need {expected} weights for n={n}");
        let mut multipliers: Vec<f64> = Vec::new();
        let mut index_of =
            |m: f64| match multipliers.iter().position(|t| t.to_bits() == m.to_bits()) {
                Some(i) => i,
                None => {
                    multipliers.push(m);
                    multipliers.len() - 1
                }
            };
        let mut couplings = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                let w_uv = weight(n, weights, u, v);
                if w_uv == 0.0 {
                    continue;
                }
                let cosines = (0..n)
                    .filter(|&k| k != u && k != v)
                    .map(|k| {
                        let w_uk = weight(n, weights, u, k);
                        let w_vk = weight(n, weights, v, k);
                        [w_uk, w_vk, w_uk + w_vk, w_uk - w_vk].map(&mut index_of)
                    })
                    .collect();
                couplings.push((w_uv, index_of(w_uv), cosines));
            }
        }
        P1Energy {
            trig: vec![(0.0, 0.0); multipliers.len()],
            factors: vec![[0.0; 3]; couplings.len()],
            gamma: None,
            multipliers,
            couplings,
        }
    }

    /// Forms the factors that depend on `gamma` alone.
    fn set_gamma(&mut self, gamma: f64) {
        let g2 = 2.0 * gamma;
        for (t, m) in self.trig.iter_mut().zip(&self.multipliers) {
            *t = ((g2 * m).cos(), (g2 * m).sin());
        }
        for (f, (_, sine, cosines)) in self.factors.iter_mut().zip(&self.couplings) {
            let mut prods = [1.0; 4];
            for idx in cosines {
                for (p, &i) in prods.iter_mut().zip(idx) {
                    *p *= self.trig[i].0;
                }
            }
            let [prod_u, prod_v, prod_sum, prod_diff] = prods;
            *f = [self.trig[*sine].1, prod_u + prod_v, prod_sum - prod_diff];
        }
        self.gamma = Some(gamma.to_bits());
    }

    fn energy(&mut self, gamma: f64, beta: f64) -> f64 {
        if self.gamma != Some(gamma.to_bits()) {
            self.set_gamma(gamma);
        }
        let half_sin_4b = 0.5 * (4.0 * beta).sin();
        let half_sin2_2b = 0.5 * (2.0 * beta).sin().powi(2);
        let mut energy = 0.0;
        for ((w_uv, ..), [sin_uv, prods_uv, prods_sd]) in self.couplings.iter().zip(&self.factors) {
            energy += w_uv * (half_sin_4b * sin_uv * prods_uv - half_sin2_2b * prods_sd);
        }
        energy
    }
}

/// Finds the level-1 parameters minimizing `<C>` (the paper's proxy targets
/// the ground state of the SK Hamiltonian, i.e. the maximum cut).
///
/// Coarse grid over one period, polished with Nelder–Mead, both reading
/// energies from one `P1Energy` of the instance. Returns
/// `((gamma, beta), energy)`.
pub fn qaoa_p1_optimize(n: usize, weights: &[f64]) -> ((f64, f64), f64) {
    use std::f64::consts::PI;
    let mut landscape = P1Energy::new(n, weights);
    let (g0, b0, _) = grid_search_2d(
        |g, b| landscape.energy(g, b),
        (-PI / 2.0, PI / 2.0),
        (-PI / 4.0, PI / 4.0),
        41,
    );
    let (x, e) = nelder_mead(
        |v| landscape.energy(v[0], v[1]),
        &[g0, b0],
        NelderMeadOptions {
            max_evals: 4000,
            f_tol: 1e-12,
            initial_step: 0.05,
        },
    );
    ((x[0], x[1]), e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_circuit::Circuit;
    use supermarq_pauli::sk_hamiltonian;
    use supermarq_sim::Executor;

    /// Statevector reference: build the p=1 circuit and measure <C> exactly.
    fn statevector_energy(n: usize, weights: &[f64], gamma: f64, beta: f64) -> f64 {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        let mut k = 0;
        for u in 0..n {
            for v in u + 1..n {
                let w = weights[k];
                k += 1;
                if w != 0.0 {
                    // e^{-i gamma w Z_u Z_v} = Rzz(2 gamma w).
                    c.rzz(2.0 * gamma * w, u, v);
                }
            }
        }
        for q in 0..n {
            c.rx(2.0 * beta, q);
        }
        let state = Executor::final_state(&c).expect("QAOA circuits contain no reset");
        state.expectation(&sk_hamiltonian(n, weights))
    }

    #[test]
    fn analytic_matches_statevector_on_triangle() {
        let n = 3;
        let weights = [1.0, -1.0, 1.0];
        for &(g, b) in &[(0.3, 0.2), (-0.7, 0.5), (1.1, -0.4), (0.0, 0.9), (0.6, 0.0)] {
            let exact = statevector_energy(n, &weights, g, b);
            let analytic = qaoa_p1_energy(n, &weights, g, b);
            assert!(
                (exact - analytic).abs() < 1e-9,
                "g={g} b={b}: {exact} vs {analytic}"
            );
        }
    }

    #[test]
    fn analytic_matches_statevector_on_sk5() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = 5;
        let mut rng = StdRng::seed_from_u64(31);
        let weights: Vec<f64> = (0..n * (n - 1) / 2)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        for &(g, b) in &[(0.25, 0.35), (-0.5, 0.15), (0.8, -0.6)] {
            let exact = statevector_energy(n, &weights, g, b);
            let analytic = qaoa_p1_energy(n, &weights, g, b);
            assert!(
                (exact - analytic).abs() < 1e-9,
                "g={g} b={b}: {exact} vs {analytic}"
            );
        }
    }

    #[test]
    fn zero_angles_give_zero_energy() {
        let weights = [1.0, 1.0, 1.0];
        assert!(qaoa_p1_energy(3, &weights, 0.0, 0.0).abs() < 1e-12);
        assert!(qaoa_p1_energy(3, &weights, 0.5, 0.0).abs() < 1e-12);
        assert!(qaoa_p1_energy(3, &weights, 0.0, 0.5).abs() < 1e-12);
    }

    #[test]
    fn optimizer_beats_grid_floor_and_is_negative() {
        // On a frustrated triangle, optimal p=1 energy is strictly negative
        // (the ground energy of w = (1,1,1) is -1).
        let weights = [1.0, 1.0, 1.0];
        let ((g, b), e) = qaoa_p1_optimize(3, &weights);
        assert!(e < -0.5, "e={e} at ({g},{b})");
        assert!(e >= -1.0 - 1e-9);
        // Statevector agreement at the optimum.
        let sv = statevector_energy(3, &weights, g, b);
        assert!((sv - e).abs() < 1e-8);
    }

    /// `P1Energy` against `qaoa_p1_energy`, bit for bit, at random angles:
    /// three `beta` per `gamma`, so the kept `gamma` factors are read too.
    fn assert_prepared_matches(n: usize, weights: &[f64], rng: &mut impl rand::Rng) {
        let mut prepared = P1Energy::new(n, weights);
        for _ in 0..100 {
            let g = rng.gen_range(-2.0..2.0);
            for _ in 0..3 {
                let b = rng.gen_range(-1.0..1.0);
                assert_eq!(
                    prepared.energy(g, b).to_bits(),
                    qaoa_p1_energy(n, weights, g, b).to_bits(),
                    "n={n} g={g} b={b} weights={weights:?}"
                );
            }
        }
    }

    #[test]
    fn prepared_energy_matches_closed_form_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(26);
        for n in 2..=12 {
            let pairs = n * (n - 1) / 2;
            for seed in 1..=3 {
                assert_prepared_matches(n, &crate::maxcut::sk_weights(n, seed), &mut rng);
            }
            // Non-+-1 weights with absent edges: many distinct multipliers,
            // zero couplings skipped, zero factors kept.
            let weights: Vec<f64> = (0..pairs)
                .map(|_| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0..2.0),
                })
                .collect();
            assert_prepared_matches(n, &weights, &mut rng);
        }
    }

    #[test]
    fn weight_indexing_round_trip() {
        // weights laid out row-major upper triangular for n=4:
        // (0,1) (0,2) (0,3) (1,2) (1,3) (2,3).
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(weight(4, &w, 0, 1), 1.0);
        assert_eq!(weight(4, &w, 2, 0), 2.0);
        assert_eq!(weight(4, &w, 3, 0), 3.0);
        assert_eq!(weight(4, &w, 1, 2), 4.0);
        assert_eq!(weight(4, &w, 3, 1), 5.0);
        assert_eq!(weight(4, &w, 2, 3), 6.0);
    }

    #[test]
    #[should_panic(expected = "need 3 weights")]
    fn validates_weight_count() {
        qaoa_p1_energy(3, &[1.0], 0.1, 0.1);
    }
}
