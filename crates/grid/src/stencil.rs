//! Finite-difference stencils on 2-D fields.
//!
//! The level-set solver needs one-sided (left/right) and central differences
//! per axis for Godunov upwinding (§2.2); the registration functional needs
//! the discrete gradient of displacement fields.

use crate::field2::Field2;

/// One-sided and central differences of a field at a node along one axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisDifferences {
    /// Backward (left) difference `(v[i] − v[i−1]) / h`.
    pub left: f64,
    /// Forward (right) difference `(v[i+1] − v[i]) / h`.
    pub right: f64,
    /// Central difference `(v[i+1] − v[i−1]) / (2h)`.
    pub central: f64,
}

impl Field2 {
    /// Differences along `x` at node `(ix, iy)`.
    ///
    /// At the domain boundary the unavailable one-sided difference is
    /// replaced by the available one (first-order extrapolation), and the
    /// central difference degrades accordingly. This keeps the level-set
    /// update defined on every node without ghost cells.
    pub fn diff_x(&self, ix: usize, iy: usize) -> AxisDifferences {
        let g = self.grid();
        if g.nx < 2 {
            return AxisDifferences {
                left: 0.0,
                right: 0.0,
                central: 0.0,
            };
        }
        let inv_dx = 1.0 / g.dx;
        let here = self.get(ix, iy);
        let left = if ix > 0 {
            (here - self.get(ix - 1, iy)) * inv_dx
        } else {
            (self.get(ix + 1, iy) - here) * inv_dx
        };
        let right = if ix + 1 < g.nx {
            (self.get(ix + 1, iy) - here) * inv_dx
        } else {
            (here - self.get(ix - 1, iy)) * inv_dx
        };
        AxisDifferences {
            left,
            right,
            central: 0.5 * (left + right),
        }
    }

    /// Differences along `y` at node `(ix, iy)`; see [`Field2::diff_x`].
    pub fn diff_y(&self, ix: usize, iy: usize) -> AxisDifferences {
        let g = self.grid();
        if g.ny < 2 {
            return AxisDifferences {
                left: 0.0,
                right: 0.0,
                central: 0.0,
            };
        }
        let inv_dy = 1.0 / g.dy;
        let here = self.get(ix, iy);
        let left = if iy > 0 {
            (here - self.get(ix, iy - 1)) * inv_dy
        } else {
            (self.get(ix, iy + 1) - here) * inv_dy
        };
        let right = if iy + 1 < g.ny {
            (self.get(ix, iy + 1) - here) * inv_dy
        } else {
            (here - self.get(ix, iy - 1)) * inv_dy
        };
        AxisDifferences {
            left,
            right,
            central: 0.5 * (left + right),
        }
    }

    /// Central-difference gradient `(∂f/∂x, ∂f/∂y)` at a node.
    pub fn gradient(&self, ix: usize, iy: usize) -> (f64, f64) {
        (self.diff_x(ix, iy).central, self.diff_y(ix, iy).central)
    }
}

#[cfg(test)]
mod tests {
    use crate::field2::{Field2, Grid2};

    #[test]
    fn differences_exact_on_linear() {
        let g = Grid2::new(5, 5, 0.5, 2.0).unwrap();
        let f = Field2::from_world_fn(g, |x, y| 3.0 * x - 2.0 * y);
        for iy in 0..5 {
            for ix in 0..5 {
                let dx = f.diff_x(ix, iy);
                let dy = f.diff_y(ix, iy);
                assert!((dx.left - 3.0).abs() < 1e-12);
                assert!((dx.right - 3.0).abs() < 1e-12);
                assert!((dx.central - 3.0).abs() < 1e-12);
                assert!((dy.central + 2.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn one_sided_differences_differ_on_kink() {
        // f = |x − 2| on integer grid: at the kink left = −1, right = +1.
        let g = Grid2::new(5, 1, 1.0, 1.0).unwrap();
        let f = Field2::from_world_fn(g, |x, _| (x - 2.0).abs());
        let d = f.diff_x(2, 0);
        assert!((d.left + 1.0).abs() < 1e-12);
        assert!((d.right - 1.0).abs() < 1e-12);
        assert!(d.central.abs() < 1e-12);
    }

    #[test]
    fn boundary_differences_are_finite() {
        let g = Grid2::new(3, 3, 1.0, 1.0).unwrap();
        let f = Field2::from_fn(g, |ix, iy| ((ix * 3 + iy) as f64).sin());
        for iy in 0..3 {
            for ix in 0..3 {
                let dx = f.diff_x(ix, iy);
                let dy = f.diff_y(ix, iy);
                assert!(dx.left.is_finite() && dx.right.is_finite());
                assert!(dy.left.is_finite() && dy.right.is_finite());
            }
        }
    }
}
