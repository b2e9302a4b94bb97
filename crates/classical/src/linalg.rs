//! Dense symmetric eigensolver (cyclic Jacobi).
//!
//! Used by the free-fermion solution of the transverse-field Ising chain
//! ([`crate::tfim`]), whose single-particle energies are the square roots of
//! the eigenvalues of a symmetric positive-semidefinite matrix. Jacobi
//! rotations are slow (`O(n^3)` per sweep) but unconditionally robust,
//! which is what a reference implementation wants.

/// Computes all eigenvalues of a symmetric matrix with the cyclic Jacobi
/// method. Eigenvalues are returned in ascending order.
///
/// # Panics
///
/// Panics if the matrix is not square, or if it fails to converge in 100
/// sweeps (does not happen for symmetric input).
pub(crate) fn symmetric_eigenvalues(matrix: &[Vec<f64>]) -> Vec<f64> {
    let n = matrix.len();
    assert!(matrix.iter().all(|r| r.len() == n), "matrix must be square");
    if n == 0 {
        return Vec::new();
    }
    let mut a: Vec<Vec<f64>> = matrix.to_vec();
    // Symmetry check (cheap insurance against misuse).
    for (i, row_i) in a.iter().enumerate() {
        for (j, row_j) in a.iter().enumerate().skip(i + 1) {
            let scale = row_i[j].abs().max(row_j[i].abs()).max(1.0);
            assert!(
                (row_i[j] - row_j[i]).abs() <= 1e-8 * scale,
                "matrix is not symmetric at ({i},{j})"
            );
        }
    }
    for _sweep in 0..100 {
        let off: f64 = (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .map(|(i, j)| a[i][j] * a[i][j])
            .sum();
        if off < 1e-22 {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                if a[p][q].abs() < 1e-300 {
                    continue;
                }
                let theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply rotation G(p, q, theta) on both sides.
                for row in a.iter_mut() {
                    let akp = row[p];
                    let akq = row[q];
                    row[p] = c * akp - s * akq;
                    row[q] = s * akp + c * akq;
                }
                let (head, tail) = a.split_at_mut(q);
                let (row_p, row_q) = (&mut head[p], &mut tail[0]);
                for (apk, aqk) in row_p.iter_mut().zip(row_q.iter_mut()) {
                    let (x, y) = (*apk, *aqk);
                    *apk = c * x - s * y;
                    *aqk = s * x + c * y;
                }
            }
        }
    }
    let mut evals: Vec<f64> = (0..n).map(|i| a[i][i]).collect();
    evals.sort_by(|x, y| x.partial_cmp(y).expect("finite eigenvalues"));
    evals
}

/// Multiplies two square matrices.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub(crate) fn matmul(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    assert!(
        b.len() == n && a.iter().chain(b.iter()).all(|r| r.len() == n),
        "square matrices"
    );
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for k in 0..n {
            let aik = a[i][k];
            if aik != 0.0 {
                for j in 0..n {
                    out[i][j] += aik * b[k][j];
                }
            }
        }
    }
    out
}

/// Transposes a square matrix.
pub(crate) fn transpose(a: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            out[j][i] = a[i][j];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let m = vec![
            vec![3.0, 0.0, 0.0],
            vec![0.0, -1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ];
        let e = symmetric_eigenvalues(&m);
        assert!((e[0] + 1.0).abs() < 1e-10);
        assert!((e[1] - 2.0).abs() < 1e-10);
        assert!((e[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_of_2x2() {
        // [[2,1],[1,2]] -> 1, 3.
        let m = vec![vec![2.0, 1.0], vec![1.0, 2.0]];
        let e = symmetric_eigenvalues(&m);
        assert!((e[0] - 1.0).abs() < 1e-10);
        assert!((e[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_of_path_laplacian() {
        // Path graph P4 Laplacian eigenvalues: 2 - 2cos(k pi / 4), k=0..3.
        let m = vec![
            vec![1.0, -1.0, 0.0, 0.0],
            vec![-1.0, 2.0, -1.0, 0.0],
            vec![0.0, -1.0, 2.0, -1.0],
            vec![0.0, 0.0, -1.0, 1.0],
        ];
        let e = symmetric_eigenvalues(&m);
        for (k, &ev) in e.iter().enumerate() {
            let expect = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / 4.0).cos();
            assert!((ev - expect).abs() < 1e-9, "k={k} ev={ev}");
        }
    }

    #[test]
    fn trace_and_sum_of_eigenvalues_agree() {
        let m = vec![
            vec![1.0, 0.5, -0.2],
            vec![0.5, -2.0, 0.3],
            vec![-0.2, 0.3, 0.7],
        ];
        let e = symmetric_eigenvalues(&m);
        let trace = 1.0 - 2.0 + 0.7;
        assert!((e.iter().sum::<f64>() - trace).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn rejects_asymmetric_input() {
        let m = vec![vec![1.0, 2.0], vec![0.0, 1.0]];
        symmetric_eigenvalues(&m);
    }

    #[test]
    fn matmul_and_transpose() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let b = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let c = matmul(&a, &b);
        assert_eq!(c, vec![vec![2.0, 1.0], vec![4.0, 3.0]]);
        assert_eq!(transpose(&a), vec![vec![1.0, 3.0], vec![2.0, 4.0]]);
    }
}
