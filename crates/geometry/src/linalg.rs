//! Dense linear algebra helpers (LU determinant).

/// Determinant of a square matrix via LU decomposition with partial
/// pivoting.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub(crate) fn determinant(a: &[Vec<f64>]) -> f64 {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");
    let mut m: Vec<Vec<f64>> = a.to_vec();
    let mut det = 1.0;
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| {
                m[i][col]
                    .abs()
                    .partial_cmp(&m[j][col].abs())
                    .expect("finite")
            })
            .expect("non-empty");
        if m[pivot][col].abs() < 1e-300 {
            return 0.0;
        }
        if pivot != col {
            m.swap(col, pivot);
            det = -det;
        }
        det *= m[col][col];
        let inv = 1.0 / m[col][col];
        let pivot_row = m[col].clone();
        for row in m.iter_mut().take(n).skip(col + 1) {
            let factor = row[col] * inv;
            if factor != 0.0 {
                for (v, &p) in row[col..n].iter_mut().zip(&pivot_row[col..n]) {
                    *v -= factor * p;
                }
            }
        }
    }
    det
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinant_values() {
        assert!((determinant(&[vec![3.0]]) - 3.0).abs() < 1e-12);
        let a = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert!((determinant(&a) + 2.0).abs() < 1e-10);
        let singular = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(determinant(&singular).abs() < 1e-10);
    }

    #[test]
    fn determinant_permutation_sign() {
        // Swapping two rows of the identity gives determinant -1.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!((determinant(&a) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn determinant_of_scaled_identity() {
        let n = 5;
        let mut a = vec![vec![0.0; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            row[i] = 2.0;
        }
        assert!((determinant(&a) - 32.0).abs() < 1e-10);
    }
}
