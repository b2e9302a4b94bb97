//! Descriptive statistics, Hellinger fidelity, and linear regression.

use std::collections::BTreeMap;

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance; 0 for fewer than two samples.
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// The Hellinger fidelity between two discrete probability distributions:
/// `F_H(p, q) = ( sum_i sqrt(p_i q_i) )^2`.
///
/// This is the score function of the GHZ and error-correction benchmarks
/// (paper Sec. IV-A and IV-C): 1 for identical distributions, 0 for
/// disjoint supports.
pub fn hellinger_fidelity_maps(p: &BTreeMap<u64, f64>, q: &BTreeMap<u64, f64>) -> f64 {
    let mut bc = 0.0; // Bhattacharyya coefficient
    for (k, &pv) in p {
        if let Some(&qv) = q.get(k) {
            bc += (pv.max(0.0) * qv.max(0.0)).sqrt();
        }
    }
    (bc * bc).min(1.0)
}

/// Hellinger fidelity between two dense distributions of equal length.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn hellinger_fidelity_dense(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    let bc: f64 = p
        .iter()
        .zip(q)
        .map(|(&a, &b)| (a.max(0.0) * b.max(0.0)).sqrt())
        .sum();
    (bc * bc).min(1.0)
}

/// Result of an ordinary least-squares fit `y ~ slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R^2` — the quantity plotted in the
    /// paper's Fig. 3 heatmaps.
    pub r_squared: f64,
}

/// Ordinary least squares over paired samples.
///
/// Returns `None` if fewer than two points are given or `x` has zero
/// variance (vertical line). `R^2 = 1 - SS_res / SS_tot`; when `y` has zero
/// variance the fit is perfect and `R^2 = 1` by convention.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "paired samples required");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx < 1e-15 {
        return None;
    }
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(x, y)| {
            let pred = slope * x + intercept;
            (y - pred) * (y - pred)
        })
        .sum();
    let r_squared = if ss_tot < 1e-15 {
        1.0
    } else {
        (1.0 - ss_res / ss_tot).clamp(0.0, 1.0)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert!((variance(&xs) - 1.25).abs() < 1e-12);
        assert!((std_dev(&xs) - 1.25f64.sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn hellinger_identical_is_one() {
        let p = BTreeMap::from([(0u64, 0.3), (1, 0.7)]);
        assert!((hellinger_fidelity_maps(&p, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hellinger_disjoint_is_zero() {
        let p = BTreeMap::from([(0u64, 1.0)]);
        let q = BTreeMap::from([(1u64, 1.0)]);
        assert_eq!(hellinger_fidelity_maps(&p, &q), 0.0);
    }

    #[test]
    fn hellinger_partial_overlap() {
        // p = (1, 0), q = (1/2, 1/2): F = (sqrt(1/2))^2 = 1/2.
        let p = BTreeMap::from([(0u64, 1.0)]);
        let q = BTreeMap::from([(0u64, 0.5), (1, 0.5)]);
        assert!((hellinger_fidelity_maps(&p, &q) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hellinger_dense_matches_map_version() {
        let p = [0.25, 0.25, 0.5, 0.0];
        let q = [0.1, 0.4, 0.4, 0.1];
        let pm: BTreeMap<u64, f64> = p.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
        let qm: BTreeMap<u64, f64> = q.iter().enumerate().map(|(i, &v)| (i as u64, v)).collect();
        assert!(
            (hellinger_fidelity_dense(&p, &q) - hellinger_fidelity_maps(&pm, &qm)).abs() < 1e-12
        );
    }

    #[test]
    fn regression_on_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = linear_regression(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_on_noisy_line_has_partial_r2() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.9, 2.2, 2.8, 4.1];
        let fit = linear_regression(&xs, &ys).unwrap();
        assert!(fit.r_squared > 0.97 && fit.r_squared < 1.0);
    }

    #[test]
    fn regression_uncorrelated_has_low_r2() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
        let fit = linear_regression(&xs, &ys).unwrap();
        assert!(fit.r_squared < 0.2, "r2={}", fit.r_squared);
    }

    #[test]
    fn regression_degenerate_inputs() {
        assert!(linear_regression(&[1.0], &[2.0]).is_none());
        assert!(linear_regression(&[1.0, 1.0], &[0.0, 5.0]).is_none()); // zero x-variance
                                                                        // Zero y-variance: perfect horizontal fit.
        let fit = linear_regression(&[0.0, 1.0, 2.0], &[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }
}
