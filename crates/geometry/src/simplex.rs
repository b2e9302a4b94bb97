//! A dense two-phase simplex solver for small linear programs.
//!
//! Solves `min c.x  s.t.  A x = b, x >= 0` with Bland's anti-cycling rule.
//! Convex-hull membership ("is point `p` a convex combination of the
//! vertices?") reduces to a phase-1 feasibility problem, which is how the
//! Monte-Carlo volume estimator classifies sample points.

/// Outcome of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal solution `(x, objective)` was found.
    Optimal(Vec<f64>, f64),
    /// The constraints are infeasible.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

const EPS: f64 = 1e-9;

/// Solves `min c.x  s.t.  A x = b, x >= 0` with the two-phase simplex
/// method.
///
/// # Panics
///
/// Panics on inconsistent dimensions.
pub(crate) fn solve_lp(a: &[Vec<f64>], b: &[f64], c: &[f64]) -> LpOutcome {
    let m = a.len();
    let n = c.len();
    assert!(
        a.iter().all(|row| row.len() == n),
        "A column count must match c"
    );
    assert_eq!(b.len(), m, "b length must match row count");

    // Normalize to b >= 0.
    let mut a: Vec<Vec<f64>> = a.to_vec();
    let mut b: Vec<f64> = b.to_vec();
    for i in 0..m {
        if b[i] < 0.0 {
            b[i] = -b[i];
            for v in &mut a[i] {
                *v = -*v;
            }
        }
    }

    // Phase 1: minimize sum of artificial variables.
    // Tableau columns: n original + m artificial.
    let total = n + m;
    let mut tableau: Vec<Vec<f64>> = Vec::with_capacity(m);
    for i in 0..m {
        let mut row = vec![0.0; total + 1];
        row[..n].copy_from_slice(&a[i]);
        row[n + i] = 1.0;
        row[total] = b[i];
        tableau.push(row);
    }
    let mut basis: Vec<usize> = (n..total).collect();
    // Phase-1 objective coefficients.
    let mut cost1 = vec![0.0; total];
    for v in cost1.iter_mut().skip(n) {
        *v = 1.0;
    }
    if !run_simplex(&mut tableau, &mut basis, &cost1, total) {
        return LpOutcome::Unbounded; // cannot happen in phase 1, defensive
    }
    let phase1_obj: f64 = basis
        .iter()
        .enumerate()
        .map(|(i, &bi)| if bi >= n { tableau[i][total] } else { 0.0 })
        .sum();
    if phase1_obj > 1e-7 {
        return LpOutcome::Infeasible;
    }
    // Drive any remaining artificial variables out of the basis.
    for i in 0..m {
        if basis[i] >= n {
            // Find a non-artificial column with nonzero entry to pivot in.
            if let Some(j) = (0..n).find(|&j| tableau[i][j].abs() > EPS) {
                pivot(&mut tableau, &mut basis, i, j, total);
            }
            // If none exists the row is redundant; leave it (rhs must be ~0).
        }
    }

    // Phase 2: original objective over original columns only; zero out the
    // artificial columns so they never re-enter.
    let mut cost2 = vec![0.0; total];
    cost2[..n].copy_from_slice(c);
    for (i, row) in tableau.iter_mut().enumerate() {
        for (j, v) in row.iter_mut().enumerate().take(total).skip(n) {
            if basis[i] != j {
                *v = 0.0;
            }
        }
    }
    if !run_simplex(&mut tableau, &mut basis, &cost2, total) {
        return LpOutcome::Unbounded;
    }
    let mut x = vec![0.0; n];
    for (i, &bi) in basis.iter().enumerate() {
        if bi < n {
            x[bi] = tableau[i][total];
        }
    }
    let obj: f64 = c.iter().zip(&x).map(|(ci, xi)| ci * xi).sum();
    LpOutcome::Optimal(x, obj)
}

/// Runs simplex iterations (Bland's rule) until optimal; returns `false` if
/// unbounded.
fn run_simplex(tableau: &mut [Vec<f64>], basis: &mut [usize], cost: &[f64], total: usize) -> bool {
    let m = tableau.len();
    loop {
        // Reduced costs: c_j - c_B . B^{-1} A_j computed from the tableau.
        let mut entering = None;
        for j in 0..total {
            if basis.contains(&j) {
                continue;
            }
            let mut reduced = cost[j];
            for i in 0..m {
                reduced -= cost[basis[i]] * tableau[i][j];
            }
            if reduced < -EPS {
                entering = Some(j);
                break; // Bland: smallest index
            }
        }
        let Some(j) = entering else {
            return true;
        };
        // Ratio test.
        let mut leaving = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            if tableau[i][j] > EPS {
                let ratio = tableau[i][total] / tableau[i][j];
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS
                        && leaving.is_none_or(|l: usize| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(i) = leaving else {
            return false; // unbounded
        };
        pivot(tableau, basis, i, j, total);
    }
}

fn pivot(tableau: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
    let inv = 1.0 / tableau[row][col];
    for v in &mut tableau[row] {
        *v *= inv;
    }
    let pivot_row = tableau[row].clone();
    for (i, t_row) in tableau.iter_mut().enumerate() {
        if i != row {
            let factor = t_row[col];
            if factor.abs() > 0.0 {
                for (v, &p) in t_row[..=total].iter_mut().zip(&pivot_row[..=total]) {
                    *v -= factor * p;
                }
            }
        }
    }
    basis[row] = col;
}

/// Tests whether `point` lies in the convex hull of `vertices` by solving
/// the feasibility LP `sum_i lambda_i v_i = p, sum_i lambda_i = 1,
/// lambda >= 0`.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn in_convex_hull(vertices: &[Vec<f64>], point: &[f64]) -> bool {
    let k = vertices.len();
    if k == 0 {
        return false;
    }
    let d = point.len();
    assert!(vertices.iter().all(|v| v.len() == d), "dimension mismatch");
    // Constraints: d coordinate rows + 1 normalization row; k variables.
    let mut a = vec![vec![0.0; k]; d + 1];
    let mut b = vec![0.0; d + 1];
    for (j, v) in vertices.iter().enumerate() {
        for (i, &vi) in v.iter().enumerate() {
            a[i][j] = vi;
        }
        a[d][j] = 1.0;
    }
    b[..d].copy_from_slice(point);
    b[d] = 1.0;
    matches!(solve_lp(&a, &b, &vec![0.0; k]), LpOutcome::Optimal(..))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_lp_optimum() {
        // min -x - y  s.t. x + y + s = 1, x,y,s >= 0  -> objective -1.
        let a = vec![vec![1.0, 1.0, 1.0]];
        let b = vec![1.0];
        let c = vec![-1.0, -1.0, 0.0];
        match solve_lp(&a, &b, &c) {
            LpOutcome::Optimal(x, obj) => {
                assert!((obj + 1.0).abs() < 1e-8);
                assert!((x[0] + x[1] - 1.0).abs() < 1e-8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_detected() {
        // x = -1 with x >= 0 is infeasible.
        let a = vec![vec![1.0]];
        let b = vec![-1.0];
        let c = vec![0.0];
        assert_eq!(solve_lp(&a, &b, &c), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x  s.t. x - s = 0 (x can grow with s) -> unbounded.
        let a = vec![vec![1.0, -1.0]];
        let b = vec![0.0];
        let c = vec![-1.0, 0.0];
        assert_eq!(solve_lp(&a, &b, &c), LpOutcome::Unbounded);
    }

    #[test]
    fn degenerate_equalities() {
        // Two identical constraints (redundant row).
        let a = vec![vec![1.0, 1.0], vec![1.0, 1.0]];
        let b = vec![1.0, 1.0];
        let c = vec![1.0, 0.0];
        match solve_lp(&a, &b, &c) {
            LpOutcome::Optimal(_, obj) => assert!(obj.abs() < 1e-8),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn hull_membership_square() {
        let sq = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ];
        assert!(in_convex_hull(&sq, &[0.5, 0.5]));
        assert!(in_convex_hull(&sq, &[0.0, 0.0])); // vertex
        assert!(in_convex_hull(&sq, &[0.5, 0.0])); // edge
        assert!(!in_convex_hull(&sq, &[1.5, 0.5]));
        assert!(!in_convex_hull(&sq, &[-0.1, 0.5]));
    }

    #[test]
    fn hull_membership_simplex_6d() {
        // conv{0, e1..e6}: barycenter is inside; point with coord sum > 1 is not.
        let mut verts = vec![vec![0.0; 6]];
        for i in 0..6 {
            let mut e = vec![0.0; 6];
            e[i] = 1.0;
            verts.push(e);
        }
        assert!(in_convex_hull(&verts, &[1.0 / 7.0; 6]));
        assert!(!in_convex_hull(&verts, &[0.3; 6])); // sum = 1.8 > 1
        assert!(in_convex_hull(&verts, &[0.1; 6])); // sum 0.6 < 1, nonneg
    }

    #[test]
    fn membership_of_empty_set_is_false() {
        assert!(!in_convex_hull(&[], &[0.0]));
    }
}
