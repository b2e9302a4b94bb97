//! The Harrell-Davis quantile estimator.
//!
//! A plain sample quantile is one order statistic, so when the samples
//! have gaps (25 Fig. 2 cells whose latencies cluster) a small change in
//! one value can move a percentile from one cluster to the next. The
//! Harrell-Davis estimate is a weighted mean of every order statistic,
//! with Beta weights centred on the quantile's rank, and moves smoothly.

/// Harrell-Davis estimate of quantile `q` of unsorted samples (0 when
/// empty).
pub fn harrell_davis(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let (a, b) = ((n + 1.0) * q, (n + 1.0) * (1.0 - q));
    let mut below = 0.0;
    sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let upto = inc_beta(a, b, (i + 1) as f64 / n);
            let weight = upto - below;
            below = upto;
            weight * x
        })
        .sum()
}

/// The regularised incomplete beta function `I_x(a, b)`, by its
/// continued fraction.
fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// Lentz's evaluation of the incomplete beta continued fraction.
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let nonzero = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=300 {
        let m = f64::from(m);
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / nonzero(1.0 + even * d);
        c = nonzero(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / nonzero(1.0 + odd * d);
        c = nonzero(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        // I_x(1, 1) = x and I_x(2, 1) = x^2.
        assert!((inc_beta(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((inc_beta(2.0, 1.0, 0.3) - 0.09).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn estimate_is_a_weighted_mean_of_the_samples() {
        let v = [3.0, 1.0, 2.0];
        assert!((harrell_davis(&v, 0.5) - 2.0).abs() < 1e-12);
        assert!((harrell_davis(&[7.0; 10], 0.9) - 7.0).abs() < 1e-12);
        assert_eq!(harrell_davis(&[], 0.5), 0.0);
        let p90 = harrell_davis(&[1.0, 2.0, 3.0, 4.0, 100.0], 0.9);
        assert!(p90 > 4.0 && p90 < 100.0);
    }
}
