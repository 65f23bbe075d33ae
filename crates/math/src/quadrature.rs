//! Numerical quadrature.
//!
//! The synthetic-scene radiometry integrates the Planck spectral radiance
//! over the mid-wave infrared band (3–5 µm); Gauss–Legendre rules give
//! spectral-band integrals to machine precision with a handful of nodes.

/// Gauss–Legendre nodes and weights on `[-1, 1]`.
///
/// Nodes are computed by Newton iteration on the Legendre polynomial `P_n`
/// starting from the Chebyshev-based initial guess; this is accurate to
/// machine precision for the modest orders (`n ≤ 64`) used here.
///
/// # Panics
/// Panics if `n == 0`.
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n > 0, "quadrature order must be positive");
    let mut nodes = vec![0.0; n];
    let mut weights = vec![0.0; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Initial guess (Abramowitz & Stegun 25.4.30 neighborhood).
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        let mut dp = 0.0;
        for _ in 0..100 {
            // Evaluate P_n(x) and P'_n(x) by the three-term recurrence.
            let mut p0 = 1.0;
            let mut p1 = x;
            for k in 2..=n {
                let pk = ((2 * k - 1) as f64 * x * p1 - (k - 1) as f64 * p0) / k as f64;
                p0 = p1;
                p1 = pk;
            }
            dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
            let dx = p1 / dp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        nodes[i] = -x;
        nodes[n - 1 - i] = x;
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        weights[i] = w;
        weights[n - 1 - i] = w;
    }
    if n % 2 == 1 {
        nodes[n / 2] = 0.0;
    }
    (nodes, weights)
}

/// Integrates `f` over `[a, b]` with an `n`-point Gauss–Legendre rule.
///
/// Exact for polynomials of degree `≤ 2n − 1`. Builds the rule per call;
/// hot paths integrating many functions over one fixed interval should
/// hoist a [`FixedRule`] instead.
pub fn integrate(f: impl Fn(f64) -> f64, a: f64, b: f64, n: usize) -> f64 {
    let (nodes, weights) = gauss_legendre(n);
    let half = 0.5 * (b - a);
    let mid = 0.5 * (a + b);
    let mut s = 0.0;
    for (&x, &w) in nodes.iter().zip(weights.iter()) {
        s += w * f(mid + half * x);
    }
    s * half
}

/// An `n`-point Gauss–Legendre rule pre-mapped onto a fixed interval
/// `[a, b]`: the nodes are stored already transformed and the weighted sum
/// applies the identical operations in the identical order as
/// [`integrate`], so `FixedRule::new(a, b, n).integrate(f)` is bitwise
/// equal to `integrate(f, a, b, n)` — but the Newton solve for the nodes
/// and their two heap buffers are paid once instead of per call.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedRule {
    /// Nodes mapped into the interval (`mid + half·xᵢ`).
    nodes: Vec<f64>,
    /// Raw rule weights on `[-1, 1]` (the interval scaling is applied to
    /// the final sum, exactly as [`integrate`] does).
    weights: Vec<f64>,
    /// Half-width `(b − a) / 2` of the interval.
    half: f64,
}

impl FixedRule {
    /// Builds the rule for `[a, b]`.
    ///
    /// # Panics
    /// Panics if `n == 0` (as [`gauss_legendre`]).
    pub fn new(a: f64, b: f64, n: usize) -> Self {
        let (x, weights) = gauss_legendre(n);
        let half = 0.5 * (b - a);
        let mid = 0.5 * (a + b);
        let nodes = x.iter().map(|&x| mid + half * x).collect();
        FixedRule {
            nodes,
            weights,
            half,
        }
    }

    /// Integrates `f` over the rule's interval (no heap traffic).
    pub fn integrate(&self, f: impl Fn(f64) -> f64) -> f64 {
        let mut s = 0.0;
        for (&x, &w) in self.nodes.iter().zip(self.weights.iter()) {
            s += w * f(x);
        }
        s * self.half
    }

    /// The half-width `(b − a) / 2` of the mapped interval (non-positive
    /// for a degenerate or reversed interval).
    pub fn half_width(&self) -> f64 {
        self.half
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adaptive Simpson integration with absolute tolerance `tol`: an
    /// independent oracle for the Gauss–Legendre rules. Recursion depth is
    /// capped at 50.
    fn adaptive_simpson(f: &impl Fn(f64) -> f64, a: f64, b: f64, tol: f64) -> f64 {
        fn simpson(fa: f64, fm: f64, fb: f64, a: f64, b: f64) -> f64 {
            (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        }
        #[allow(clippy::too_many_arguments)]
        fn recurse(
            f: &impl Fn(f64) -> f64,
            a: f64,
            b: f64,
            fa: f64,
            fm: f64,
            fb: f64,
            whole: f64,
            tol: f64,
            depth: usize,
        ) -> f64 {
            let m = 0.5 * (a + b);
            let lm = 0.5 * (a + m);
            let rm = 0.5 * (m + b);
            let flm = f(lm);
            let frm = f(rm);
            let left = simpson(fa, flm, fm, a, m);
            let right = simpson(fm, frm, fb, m, b);
            let delta = left + right - whole;
            if depth == 0 || delta.abs() <= 15.0 * tol {
                left + right + delta / 15.0
            } else {
                recurse(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
                    + recurse(f, m, b, fm, frm, fb, right, 0.5 * tol, depth - 1)
            }
        }
        let m = 0.5 * (a + b);
        let fa = f(a);
        let fm = f(m);
        let fb = f(b);
        let whole = simpson(fa, fm, fb, a, b);
        recurse(&f, a, b, fa, fm, fb, whole, tol, 50)
    }

    #[test]
    fn nodes_symmetric_weights_sum_to_two() {
        for n in [1, 2, 3, 5, 8, 16, 33] {
            let (nodes, weights) = gauss_legendre(n);
            let wsum: f64 = weights.iter().sum();
            assert!((wsum - 2.0).abs() < 1e-13, "n={n} wsum={wsum}");
            for i in 0..n {
                assert!((nodes[i] + nodes[n - 1 - i]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn exact_for_polynomials() {
        // 5-point rule integrates degree ≤ 9 exactly: ∫₀¹ x⁹ dx = 0.1.
        let v = integrate(|x| x.powi(9), 0.0, 1.0, 5);
        assert!((v - 0.1).abs() < 1e-14);
        // Constant over general interval.
        let c = integrate(|_| 3.0, -2.0, 5.0, 3);
        assert!((c - 21.0).abs() < 1e-13);
    }

    #[test]
    fn integrates_transcendental() {
        // ∫₀^π sin x dx = 2.
        let v = integrate(f64::sin, 0.0, std::f64::consts::PI, 20);
        assert!((v - 2.0).abs() < 1e-12);
    }

    #[test]
    fn known_2point_rule() {
        let (nodes, weights) = gauss_legendre(2);
        let inv_sqrt3 = 1.0 / 3.0_f64.sqrt();
        assert!((nodes[0] + inv_sqrt3).abs() < 1e-14);
        assert!((nodes[1] - inv_sqrt3).abs() < 1e-14);
        assert!((weights[0] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn adaptive_simpson_matches_gauss() {
        let f = |x: f64| (-x * x).exp();
        let g = integrate(f, 0.0, 2.0, 40);
        let s = adaptive_simpson(&f, 0.0, 2.0, 1e-12);
        assert!((g - s).abs() < 1e-10);
    }

    #[test]
    fn adaptive_simpson_sharp_peak() {
        // Narrow Gaussian at x = 0.5 integrates to ≈ σ√(2π).
        let sigma = 1e-3;
        let f = |x: f64| (-(x - 0.5) * (x - 0.5) / (2.0 * sigma * sigma)).exp();
        let v = adaptive_simpson(&f, 0.0, 1.0, 1e-12);
        let expected = sigma * (2.0 * std::f64::consts::PI).sqrt();
        assert!((v - expected).abs() / expected < 1e-6);
    }
}
