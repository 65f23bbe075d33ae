//! Free-function vector kernels used across the workspace.
//!
//! These operate on plain `&[f64]` slices so that grid fields, matrix
//! columns, and raw state vectors can all share the same hot loops.

/// `y += alpha * x` element-wise.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Element-wise difference `a - b` into a fresh vector.
///
/// # Panics
/// Panics if lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x - y).collect()
}

/// Root-mean-square difference between two slices.
///
/// # Panics
/// Panics if lengths differ or slices are empty.
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmse length mismatch");
    assert!(!a.is_empty(), "rmse of empty slices");
    let ss: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum();
    (ss / a.len() as f64).sqrt()
}

/// Clamps `x` into `[lo, hi]`.
///
/// # Panics
/// Panics (debug) if `lo > hi`.
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi, "clamp with inverted bounds");
    x.max(lo).min(hi)
}

/// True when all entries are finite.
pub fn all_finite(a: &[f64]) -> bool {
    a.iter().all(|x| x.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn rmse_known() {
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5_f64).sqrt()).abs() < 1e-15);
        assert_eq!(rmse(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn clamp_behaviour() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }

    #[test]
    fn finite_detection() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::INFINITY]));
        assert!(!all_finite(&[f64::NAN]));
    }
}
