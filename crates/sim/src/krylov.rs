//! Matrix-free Krylov (Lanczos) methods on Pauli-sum Hamiltonians.
//!
//! The Hamiltonian-simulation benchmark is scored against the *exact* time
//! evolution of the transverse-field Ising model, and the VQE benchmark is
//! scored against the exact ground-state energy. Both references are
//! computed here without ever materializing the `2^n x 2^n` Hamiltonian:
//! `H|psi>` is applied string-by-string, and a Lanczos tridiagonalization
//! provides `exp(-iHt)|psi>` and extremal eigenvalues.

use supermarq_circuit::C64;
use supermarq_pauli::PauliSum;

use crate::state::{PauliMasks, PreparedPauliSum, StateVector};

/// Applies `H|psi>` for a real-coefficient Pauli sum, matrix-free.
///
/// Each Pauli string `P` acts as `P|i> = i^{n_Y} (-1)^{popcount(i & z)}
/// |i XOR x>` where its masks mark X/Y sites (`x`) and Z/Y sites (`z`).
///
/// # Panics
///
/// Panics if the sizes mismatch.
pub(crate) fn apply_hamiltonian(h: &PreparedPauliSum, psi: &StateVector) -> Vec<C64> {
    assert_eq!(h.num_qubits, psi.num_qubits(), "size mismatch");
    let n = psi.num_qubits();
    let dim = 1usize << n;
    let amps = psi.amplitudes();
    let mut out = vec![C64::ZERO; dim];
    for &(coeff, PauliMasks { x, z, ys }) in &h.terms {
        // Global factor i^{n_Y}.
        let base = match ys % 4 {
            0 => C64::ONE,
            1 => C64::I,
            2 => -C64::ONE,
            _ => -C64::I,
        }
        .scale(coeff);
        for (i, &amp) in amps.iter().enumerate().take(dim) {
            let sign = if ((i & z).count_ones() & 1) == 1 {
                -1.0
            } else {
                1.0
            };
            let target = i ^ x;
            out[target] += base.scale(sign) * amp;
        }
    }
    out
}

fn dot(a: &[C64], b: &[C64]) -> C64 {
    a.iter().zip(b).map(|(x, y)| x.conj() * *y).sum()
}

fn norm(a: &[C64]) -> f64 {
    a.iter().map(|x| x.norm_sqr()).sum::<f64>().sqrt()
}

/// Result of a Lanczos tridiagonalization run.
#[derive(Debug, Clone)]
struct LanczosBasis {
    /// Orthonormal Krylov vectors (each of length `2^n`).
    vectors: Vec<Vec<C64>>,
    /// Diagonal of the tridiagonal matrix.
    alphas: Vec<f64>,
    /// Off-diagonal (length `alphas.len() - 1`).
    betas: Vec<f64>,
}

/// Builds a Krylov basis of dimension at most `m` starting from `psi`
/// (assumed normalized). Stops early when the residual norm underflows
/// (invariant subspace found).
fn lanczos(h: &PreparedPauliSum, psi: &StateVector, m: usize) -> LanczosBasis {
    let mut vectors: Vec<Vec<C64>> = vec![psi.amplitudes().to_vec()];
    let mut alphas = Vec::new();
    let mut betas = Vec::new();
    for j in 0..m {
        let vj = StateVector::from_amplitudes(vectors[j].clone());
        let mut w = apply_hamiltonian(h, &vj);
        let alpha = dot(&vectors[j], &w).re;
        alphas.push(alpha);
        for (wi, vi) in w.iter_mut().zip(&vectors[j]) {
            *wi -= vi.scale(alpha);
        }
        if j > 0 {
            let beta_prev = betas[j - 1];
            let prev = &vectors[j - 1];
            for (wi, vi) in w.iter_mut().zip(prev) {
                *wi -= vi.scale(beta_prev);
            }
        }
        // Full reorthogonalization for numerical robustness (small m).
        for v in &vectors {
            let overlap = dot(v, &w);
            for (wi, vi) in w.iter_mut().zip(v) {
                *wi -= *vi * overlap;
            }
        }
        let beta = norm(&w);
        if beta < 1e-12 || j + 1 == m {
            break;
        }
        betas.push(beta);
        let inv = 1.0 / beta;
        for wi in &mut w {
            *wi = wi.scale(inv);
        }
        vectors.push(w);
    }
    LanczosBasis {
        vectors,
        alphas,
        betas,
    }
}

/// Eigendecomposition of a symmetric tridiagonal matrix via the implicit QL
/// algorithm. Returns `(eigenvalues, eigenvectors)` where column `k` of the
/// returned matrix (i.e. `vectors[i][k]`) is the `i`-th component of the
/// `k`-th eigenvector.
///
/// # Panics
///
/// Panics if the iteration fails to converge (more than 50 sweeps; does not
/// happen for well-formed input).
pub(crate) fn tridiagonal_eigen(diag: &[f64], off: &[f64]) -> (Vec<f64>, Vec<Vec<f64>>) {
    let n = diag.len();
    assert_eq!(off.len() + 1, n.max(1), "off-diagonal length must be n-1");
    let mut d = diag.to_vec();
    // e is padded: e[i] couples i and i+1; e[n-1] unused.
    let mut e: Vec<f64> = off.to_vec();
    e.push(0.0);
    let mut z = vec![vec![0.0; n]; n];
    for (i, row) in z.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "tridiagonal QL failed to converge");
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0, 1.0);
            let mut p = 0.0;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                for row in z.iter_mut() {
                    f = row[i + 1];
                    row[i + 1] = s * row[i] + c * f;
                    row[i] = c * row[i] - s * f;
                }
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    (d, z)
}

/// Computes `exp(-i H t)|psi>` by stepping a Lanczos propagator.
///
/// `krylov_dim` Krylov vectors per step (30 is ample for the TFIM sizes used
/// in the benchmarks); `steps` substeps for accuracy over long times.
///
/// # Panics
///
/// Panics if sizes mismatch or `steps == 0`.
pub fn evolve(
    h: &PauliSum,
    psi: &StateVector,
    t: f64,
    krylov_dim: usize,
    steps: usize,
) -> StateVector {
    assert!(steps > 0, "steps must be positive");
    let h = PreparedPauliSum::new(h);
    let dt = t / steps as f64;
    let mut current = psi.clone();
    for _ in 0..steps {
        current = evolve_step(&h, &current, dt, krylov_dim);
    }
    current
}

fn evolve_step(h: &PreparedPauliSum, psi: &StateVector, dt: f64, m: usize) -> StateVector {
    let basis = lanczos(h, psi, m);
    let k = basis.alphas.len();
    let (evals, evecs) = tridiagonal_eigen(&basis.alphas, &basis.betas[..k - 1]);
    // coeffs = Q exp(-i dt D) Q^T e1.
    let mut coeffs = vec![C64::ZERO; k];
    for (j, coeff) in coeffs.iter_mut().enumerate() {
        let mut acc = C64::ZERO;
        for (idx, &lambda) in evals.iter().enumerate() {
            let phase = C64::cis(-dt * lambda);
            acc += phase.scale(evecs[j][idx] * evecs[0][idx]);
        }
        *coeff = acc;
    }
    let dim = basis.vectors[0].len();
    let mut amps = vec![C64::ZERO; dim];
    for (j, v) in basis.vectors.iter().enumerate() {
        let cj = coeffs[j];
        for (a, &vi) in amps.iter_mut().zip(v) {
            *a += cj * vi;
        }
    }
    // Numerical renormalization.
    let mut out = StateVector::from_amplitudes_renormalized(amps);
    out.renormalize();
    out
}

impl StateVector {
    /// Builds a state from amplitudes without the strict normalization
    /// check, for internal numerical pipelines; call
    /// [`StateVector::renormalize`] afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub(crate) fn from_amplitudes_renormalized(amps: Vec<C64>) -> Self {
        let len = amps.len();
        assert!(
            len.is_power_of_two() && len > 0,
            "amplitude count must be a power of two"
        );
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(norm > 1e-300, "zero vector");
        let inv = 1.0 / norm.sqrt();
        let amps = amps.into_iter().map(|a| a.scale(inv)).collect();
        StateVector::from_amplitudes(amps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use supermarq_circuit::Gate;
    use supermarq_pauli::{tfim_hamiltonian, PauliString};

    #[test]
    fn apply_hamiltonian_matches_expectation() {
        // <psi|H|psi> computed via apply must match StateVector::expectation.
        let mut psi = StateVector::zero_state(3);
        psi.apply_gate(&Gate::H, &[0]);
        psi.apply_gate(&Gate::Cx, &[0, 1]);
        psi.apply_gate(&Gate::Ry(0.7), &[2]);
        let h = tfim_hamiltonian(3, 1.0, 0.4);
        let hpsi = apply_hamiltonian(&PreparedPauliSum::new(&h), &psi);
        let via_apply: f64 = psi
            .amplitudes()
            .iter()
            .zip(&hpsi)
            .map(|(a, b)| (a.conj() * *b).re)
            .sum();
        let via_expect = psi.expectation(&h);
        assert!((via_apply - via_expect).abs() < 1e-10);
    }

    #[test]
    fn apply_hamiltonian_y_phases() {
        // Y|0> = i|1>.
        let psi = StateVector::zero_state(1);
        let h = PauliSum::from_terms(1, [(1.0, "Y".parse::<PauliString>().unwrap())]);
        let out = apply_hamiltonian(&PreparedPauliSum::new(&h), &psi);
        assert!(out[0].approx_eq(C64::ZERO, 1e-12));
        assert!(out[1].approx_eq(C64::I, 1e-12));
    }

    #[test]
    fn tridiagonal_eigen_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let (vals, vecs) = tridiagonal_eigen(&[2.0, 2.0], &[1.0]);
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 1.0).abs() < 1e-10);
        assert!((sorted[1] - 3.0).abs() < 1e-10);
        // Eigenvectors are orthonormal.
        for k in [0, 1] {
            let n: f64 = (0..2).map(|i| vecs[i][k] * vecs[i][k]).sum();
            assert!((n - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn tridiagonal_eigen_reconstructs_matrix() {
        let diag = [1.0, -0.5, 2.0, 0.3];
        let off = [0.7, -0.2, 1.1];
        let (vals, vecs) = tridiagonal_eigen(&diag, &off);
        // Check T v_k = lambda_k v_k.
        for k in 0..4 {
            for i in 0..4 {
                let mut tv = diag[i] * vecs[i][k];
                if i > 0 {
                    tv += off[i - 1] * vecs[i - 1][k];
                }
                if i < 3 {
                    tv += off[i] * vecs[i + 1][k];
                }
                assert!((tv - vals[k] * vecs[i][k]).abs() < 1e-9, "k={k} i={i}");
            }
        }
    }

    #[test]
    fn evolution_of_eigenstate_is_stationary() {
        // |00> is an eigenstate of H = -ZZ; populations must not move.
        let h = PauliSum::from_terms(2, [(-1.0, "ZZ".parse::<PauliString>().unwrap())]);
        let psi = StateVector::zero_state(2);
        let out = evolve(&h, &psi, 3.0, 10, 4);
        assert!((out.probability(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_qubit_rabi_oscillation() {
        // H = X: |0(t)> = cos(t)|0> - i sin(t)|1>, so P(1) = sin^2(t).
        let h = PauliSum::from_terms(1, [(1.0, "X".parse::<PauliString>().unwrap())]);
        let psi = StateVector::zero_state(1);
        let t = 0.9;
        let out = evolve(&h, &psi, t, 10, 3);
        assert!((out.probability(1) - t.sin().powi(2)).abs() < 1e-8);
    }

    #[test]
    fn evolution_matches_fine_trotter_on_tfim() {
        // Compare Krylov evolution against very fine first-order Trotter.
        let n = 4;
        let h = tfim_hamiltonian(n, 1.0, 0.8);
        let mut psi = StateVector::zero_state(n);
        for q in 0..n {
            psi.apply_gate(&Gate::H, &[q]);
        }
        let t = 0.6;
        let krylov = evolve(&h, &psi, t, 20, 4);
        // Fine Trotter: exp(-iH dt) ~ prod exp(-i h_k dt) with tiny dt.
        let steps = 4000;
        let dt = t / steps as f64;
        let mut trotter = psi.clone();
        for _ in 0..steps {
            for i in 0..n - 1 {
                trotter.apply_gate(&Gate::Rzz(-2.0 * dt), &[i, i + 1]);
            }
            for q in 0..n {
                trotter.apply_gate(&Gate::Rx(-2.0 * 0.8 * dt), &[q]);
            }
        }
        let fid = krylov.fidelity(&trotter);
        assert!(fid > 0.9999, "fidelity {fid}");
    }
}
