//! Derivative-free optimizers for the variational proxy-applications.
//!
//! The paper's QAOA and VQE benchmarks replace the full hybrid loop with a
//! classically optimized final iteration (Sec. IV-D/E): "we found optimal
//! parameters via classical simulation and then executed these circuits on
//! the real QC systems". These optimizers drive that classical phase.

/// Options for [`nelder_mead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Terminate when the simplex's objective spread falls below this.
    pub f_tol: f64,
    /// Initial simplex step per coordinate.
    pub initial_step: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        NelderMeadOptions {
            max_evals: 2000,
            f_tol: 1e-10,
            initial_step: 0.5,
        }
    }
}

/// Minimizes `f` starting from `x0` with the Nelder–Mead simplex method.
/// Returns `(x_best, f_best)`.
///
/// # Panics
///
/// Panics if `x0` is empty.
pub fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    options: NelderMeadOptions,
) -> (Vec<f64>, f64) {
    let n = x0.len();
    assert!(n > 0, "need at least one dimension");
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);
    // Initial simplex: x0 plus steps along each axis.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    let f0 = f(x0);
    simplex.push((x0.to_vec(), f0));
    let mut evals = 1usize;
    for i in 0..n {
        let mut x = x0.to_vec();
        x[i] += options.initial_step;
        let fx = f(&x);
        evals += 1;
        simplex.push((x, fx));
    }
    // Trial points live in buffers allocated once: an accepted trial
    // trades buffers with the worst vertex it replaces.
    let mut centroid = vec![0.0; n];
    let mut reflect = vec![0.0; n];
    let mut trial = vec![0.0; n];
    let replace_worst = |simplex: &mut [(Vec<f64>, f64)], x: &mut Vec<f64>, fx: f64| {
        std::mem::swap(&mut simplex[n].0, x);
        simplex[n].1 = fx;
    };
    loop {
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite objective"));
        let spread = simplex[n].1 - simplex[0].1;
        let diameter: f64 = simplex[1..]
            .iter()
            .map(|(x, _)| {
                x.iter()
                    .zip(&simplex[0].0)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        if (spread.abs() < options.f_tol && diameter < 1e-7) || evals >= options.max_evals {
            return simplex.swap_remove(0);
        }
        // Centroid of all but worst.
        centroid.fill(0.0);
        for (x, _) in &simplex[..n] {
            for (c, xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }
        for ((r, c), w) in reflect.iter_mut().zip(&centroid).zip(&simplex[n].0) {
            *r = c + alpha * (c - w);
        }
        let f_reflect = f(&reflect);
        evals += 1;
        if f_reflect < simplex[0].1 {
            // Try expansion.
            for ((e, c), r) in trial.iter_mut().zip(&centroid).zip(&reflect) {
                *e = c + gamma * (r - c);
            }
            let f_expand = f(&trial);
            evals += 1;
            if f_expand < f_reflect {
                replace_worst(&mut simplex, &mut trial, f_expand);
            } else {
                replace_worst(&mut simplex, &mut reflect, f_reflect);
            }
            continue;
        }
        if f_reflect < simplex[n - 1].1 {
            replace_worst(&mut simplex, &mut reflect, f_reflect);
            continue;
        }
        // Contraction.
        for ((t, c), w) in trial.iter_mut().zip(&centroid).zip(&simplex[n].0) {
            *t = c + rho * (w - c);
        }
        let f_contract = f(&trial);
        evals += 1;
        if f_contract < simplex[n].1 {
            replace_worst(&mut simplex, &mut trial, f_contract);
            continue;
        }
        // Shrink toward the best vertex.
        let (best, rest) = simplex.split_first_mut().expect("n + 1 vertices");
        for (x, fx) in rest {
            for (xi, b) in x.iter_mut().zip(&best.0) {
                *xi = b + sigma * (*xi - b);
            }
            *fx = f(x);
            evals += 1;
        }
    }
}

/// Minimizes a function of two variables over a uniform grid, returning the
/// best `(x, y, f)` triple. Used to seed [`nelder_mead`] for the periodic
/// QAOA parameter landscape, which has many local minima.
///
/// # Panics
///
/// Panics if `steps < 2`.
pub(crate) fn grid_search_2d<F: FnMut(f64, f64) -> f64>(
    mut f: F,
    x_range: (f64, f64),
    y_range: (f64, f64),
    steps: usize,
) -> (f64, f64, f64) {
    assert!(steps >= 2, "need at least a 2x2 grid");
    let mut best = (x_range.0, y_range.0, f64::INFINITY);
    for i in 0..steps {
        let x = x_range.0 + (x_range.1 - x_range.0) * i as f64 / (steps - 1) as f64;
        for j in 0..steps {
            let y = y_range.0 + (y_range.1 - y_range.0) * j as f64 / (steps - 1) as f64;
            let v = f(x, y);
            if v < best.2 {
                best = (x, y, v);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        let (x, fx) = nelder_mead(
            |v| (v[0] - 3.0).powi(2) + (v[1] + 1.0).powi(2),
            &[0.0, 0.0],
            NelderMeadOptions::default(),
        );
        assert!((x[0] - 3.0).abs() < 1e-4, "x={x:?}");
        assert!((x[1] + 1.0).abs() < 1e-4);
        assert!(fx < 1e-7);
    }

    #[test]
    fn minimizes_rosenbrock() {
        let (x, fx) = nelder_mead(
            |v| {
                let (a, b) = (v[0], v[1]);
                (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
            },
            &[-1.2, 1.0],
            NelderMeadOptions {
                max_evals: 8000,
                f_tol: 1e-14,
                initial_step: 0.5,
            },
        );
        assert!((x[0] - 1.0).abs() < 1e-3, "x={x:?} f={fx}");
        assert!((x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn one_dimensional_minimization() {
        let (x, _) = nelder_mead(
            |v| (v[0] - 0.25).powi(2),
            &[5.0],
            NelderMeadOptions::default(),
        );
        assert!((x[0] - 0.25).abs() < 1e-4);
    }

    #[test]
    fn respects_eval_budget() {
        let mut count = 0usize;
        let budget = 37;
        let _ = nelder_mead(
            |v| {
                count += 1;
                v[0] * v[0]
            },
            &[10.0],
            NelderMeadOptions {
                max_evals: budget,
                f_tol: 0.0,
                initial_step: 1.0,
            },
        );
        // A few extra evals can occur inside the final iteration.
        assert!(count <= budget + 4, "count={count}");
    }

    #[test]
    fn grid_search_finds_coarse_minimum() {
        let (x, y, v) = grid_search_2d(
            |x, y| (x - 0.5).powi(2) + (y - 0.25).powi(2),
            (0.0, 1.0),
            (0.0, 1.0),
            21,
        );
        assert!((x - 0.5).abs() < 0.051);
        assert!((y - 0.25).abs() < 0.051);
        assert!(v < 0.01);
    }

    #[test]
    fn grid_then_polish_beats_grid_alone() {
        let f = |x: f64, y: f64| (x - 0.333).powi(2) + (y + 0.777).powi(2);
        let (gx, gy, gv) = grid_search_2d(f, (-1.0, 1.0), (-1.0, 1.0), 9);
        let (polished, pv) =
            nelder_mead(|v| f(v[0], v[1]), &[gx, gy], NelderMeadOptions::default());
        assert!(pv <= gv);
        assert!((polished[0] - 0.333).abs() < 1e-4);
        assert!((polished[1] + 0.777).abs() < 1e-4);
    }
}
