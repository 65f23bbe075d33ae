//! Descriptive statistics used by the filter diagnostics and experiment
//! harnesses (ensemble spread, innovation statistics, error metrics).

use crate::matrix::Matrix;

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (denominator `n − 1`); 0 when `n < 2`.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub(crate) fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Unbiased sample covariance of two paired samples; 0 when `n < 2`.
///
/// # Panics
/// Panics if lengths differ.
pub fn covariance(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "covariance length mismatch");
    if xs.len() < 2 {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter()
        .zip(ys.iter())
        .map(|(&x, &y)| (x - mx) * (y - my))
        .sum::<f64>()
        / (xs.len() - 1) as f64
}

/// Pearson correlation coefficient; 0 when either variance vanishes.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    let sx = std_dev(xs);
    let sy = std_dev(ys);
    if sx == 0.0 || sy == 0.0 {
        return 0.0;
    }
    covariance(xs, ys) / (sx * sy)
}

/// Minimum and maximum of a slice; `(inf, -inf)` for an empty slice.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// `q`-quantile (0 ≤ q ≤ 1) by linear interpolation of order statistics.
///
/// # Panics
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub(crate) fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q), "quantile level outside [0,1]");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        s[lo]
    } else {
        let t = pos - lo as f64;
        s[lo] * (1.0 - t) + s[hi] * t
    }
}

/// Median (0.5-quantile).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Ensemble spread: root of the mean over state components of the ensemble
/// variance. A scalar summary of forecast uncertainty used in the paper's
/// filter experiments (spread vs. error diagnostics).
pub fn ensemble_spread(x: &Matrix) -> f64 {
    let n = x.cols();
    if n < 2 || x.rows() == 0 {
        return 0.0;
    }
    let (a, _) = x.anomalies();
    let ss: f64 = a.as_slice().iter().map(|v| v * v).sum();
    (ss / ((n - 1) as f64 * x.rows() as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-15);
        // Unbiased variance of that classic sample is 32/7.
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(covariance(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn correlation_of_linear_data_is_one() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x - 7.0).collect();
        assert!((correlation(&xs, &ys) - 1.0).abs() < 1e-12);
        let yneg: Vec<f64> = xs.iter().map(|&x| -x).collect();
        assert!((correlation(&xs, &yneg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_degenerate_is_zero() {
        let xs = [1.0, 1.0, 1.0];
        let ys = [1.0, 2.0, 3.0];
        assert_eq!(correlation(&xs, &ys), 0.0);
    }

    #[test]
    fn quantiles_and_median() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn min_max_basic() {
        assert_eq!(min_max(&[3.0, -1.0, 2.0]), (-1.0, 3.0));
        let (lo, hi) = min_max(&[]);
        assert!(lo.is_infinite() && hi.is_infinite());
    }

    #[test]
    fn spread_matches_hand_computation() {
        let x = Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 2.0]]);
        // Each row variance = 2, mean over rows = 2, sqrt = √2.
        assert!((ensemble_spread(&x) - 2.0_f64.sqrt()).abs() < 1e-14);
        assert_eq!(ensemble_spread(&Matrix::zeros(3, 1)), 0.0);
    }
}
