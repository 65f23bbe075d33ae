//! One-dimensional interpolation kernels.
//!
//! The grid crate composes these into bilinear/biquadratic 2-D operators; the
//! observation layer uses the quadratic kernel directly for the paper's
//! "biquadratic interpolation" of weather-station data (§3.1).

/// Quadratic (3-point Lagrange) interpolation through `(x0, y0)`, `(x0+h, y1)`,
/// `(x0+2h, y2)` evaluated at `x`.
///
/// This is the 1-D building block of the biquadratic stencil used for
/// weather-station observation operators.
pub fn quadratic_uniform(x0: f64, h: f64, y: [f64; 3], x: f64) -> f64 {
    debug_assert!(h > 0.0, "quadratic_uniform requires positive spacing");
    let s = (x - x0) / h; // s ∈ [0, 2] inside the stencil
                          // Lagrange basis on nodes s = 0, 1, 2.
    let l0 = 0.5 * (s - 1.0) * (s - 2.0);
    let l1 = -s * (s - 2.0);
    let l2 = 0.5 * s * (s - 1.0);
    y[0] * l0 + y[1] * l1 + y[2] * l2
}

/// Cubic Hermite (Catmull–Rom) interpolation on a uniform 4-point stencil
/// `y[-1], y[0], y[1], y[2]` evaluated at fractional position `t ∈ [0,1]`
/// between `y[0]` and `y[1]`.
pub fn catmull_rom(y: [f64; 4], t: f64) -> f64 {
    let a = -0.5 * y[0] + 1.5 * y[1] - 1.5 * y[2] + 0.5 * y[3];
    let b = y[0] - 2.5 * y[1] + 2.0 * y[2] - 0.5 * y[3];
    let c = -0.5 * y[0] + 0.5 * y[2];
    let d = y[1];
    ((a * t + b) * t + c) * t + d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_exact_on_parabola() {
        // f(x) = 2x² − 3x + 1 sampled at x = 1, 1.5, 2.
        let f = |x: f64| 2.0 * x * x - 3.0 * x + 1.0;
        let y = [f(1.0), f(1.5), f(2.0)];
        for &x in &[1.0, 1.2, 1.5, 1.83, 2.0] {
            let v = quadratic_uniform(1.0, 0.5, y, x);
            assert!((v - f(x)).abs() < 1e-13, "x={x}");
        }
    }

    #[test]
    fn quadratic_reproduces_nodes() {
        let y = [3.0, -1.0, 7.0];
        assert!((quadratic_uniform(0.0, 1.0, y, 0.0) - 3.0).abs() < 1e-14);
        assert!((quadratic_uniform(0.0, 1.0, y, 1.0) + 1.0).abs() < 1e-14);
        assert!((quadratic_uniform(0.0, 1.0, y, 2.0) - 7.0).abs() < 1e-14);
    }

    #[test]
    fn catmull_rom_endpoints_and_linearity() {
        let y = [0.0, 1.0, 2.0, 3.0]; // linear data
        assert!((catmull_rom(y, 0.0) - 1.0).abs() < 1e-15);
        assert!((catmull_rom(y, 1.0) - 2.0).abs() < 1e-15);
        // Catmull–Rom reproduces linear functions exactly.
        assert!((catmull_rom(y, 0.25) - 1.25).abs() < 1e-14);
    }
}
