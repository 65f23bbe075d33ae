//! 2-D vector fields (pairs of scalar fields).
//!
//! Used for horizontal wind on the fire mesh and for the registration
//! displacement mappings `T` of the morphing EnKF (§3.3), where `(I + T)`
//! maps grid points to displaced positions.

use crate::field2::{Field2, Grid2};
use crate::{GridError, Result};

/// A vector field `(u, v)` on the nodes of a [`Grid2`].
#[derive(Debug, Clone, PartialEq)]
pub struct VectorField2 {
    /// x-component.
    pub u: Field2,
    /// y-component.
    pub v: Field2,
}

/// A 1×1 zero field — a placeholder for workspace buffers that are
/// re-targeted with [`VectorField2::resize_zeroed`] before first use.
impl Default for VectorField2 {
    fn default() -> Self {
        VectorField2 {
            u: Field2::default(),
            v: Field2::default(),
        }
    }
}

impl VectorField2 {
    /// Zero vector field on `grid`.
    pub fn zeros(grid: Grid2) -> Self {
        VectorField2 {
            u: Field2::zeros(grid),
            v: Field2::zeros(grid),
        }
    }

    /// Builds from two component fields.
    ///
    /// # Errors
    /// [`GridError::GridMismatch`] when the component grids differ.
    pub fn new(u: Field2, v: Field2) -> Result<Self> {
        if u.grid() != v.grid() {
            return Err(GridError::GridMismatch("vector field components"));
        }
        Ok(VectorField2 { u, v })
    }

    /// Builds from a function returning `(u, v)` at each node.
    pub fn from_fn(grid: Grid2, mut f: impl FnMut(usize, usize) -> (f64, f64)) -> Self {
        let mut u = Field2::zeros(grid);
        let mut v = Field2::zeros(grid);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let (a, b) = f(ix, iy);
                u.set(ix, iy, a);
                v.set(ix, iy, b);
            }
        }
        VectorField2 { u, v }
    }

    /// The grid descriptor.
    #[inline]
    pub fn grid(&self) -> Grid2 {
        self.u.grid()
    }

    /// Vector value at a node.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> (f64, f64) {
        (self.u.get(ix, iy), self.v.get(ix, iy))
    }

    /// Sets the vector value at a node.
    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, val: (f64, f64)) {
        self.u.set(ix, iy, val.0);
        self.v.set(ix, iy, val.1);
    }

    /// Bilinear sample of both components at world coordinates.
    pub fn sample_bilinear(&self, x: f64, y: f64) -> (f64, f64) {
        (self.u.sample_bilinear(x, y), self.v.sample_bilinear(x, y))
    }

    /// `self += alpha · other`.
    ///
    /// # Errors
    /// [`GridError::GridMismatch`] when grids differ.
    pub fn axpy(&mut self, alpha: f64, other: &VectorField2) -> Result<()> {
        self.u.axpy(alpha, &other.u)?;
        self.v.axpy(alpha, &other.v)
    }

    /// Sets both components to the constant vector `val`.
    pub fn fill(&mut self, val: (f64, f64)) {
        self.u.fill(val.0);
        self.v.fill(val.1);
    }

    /// Re-targets both components to `grid` and zeroes them, reusing the
    /// existing storage (see [`Field2::resize_zeroed`]).
    pub fn resize_zeroed(&mut self, grid: Grid2) {
        self.u.resize_zeroed(grid);
        self.v.resize_zeroed(grid);
    }

    /// Re-targets both components to `grid` without clearing them: contents
    /// are unspecified and must be fully overwritten before reading (see
    /// [`Field2::resize_no_zero`]).
    pub fn resize_no_zero(&mut self, grid: Grid2) {
        self.u.resize_no_zero(grid);
        self.v.resize_no_zero(grid);
    }

    /// Scales both components in place.
    pub fn scale(&mut self, alpha: f64) {
        self.u.map_inplace(|x| alpha * x);
        self.v.map_inplace(|x| alpha * x);
    }

    /// Maximum vector magnitude over the nodes. One square root at the end:
    /// `sqrt` is monotone (and correctly rounded), so maximizing the squared
    /// magnitudes first yields the identical value.
    pub fn max_magnitude(&self) -> f64 {
        let mut m = 0.0_f64;
        for (a, b) in self.u.as_slice().iter().zip(self.v.as_slice().iter()) {
            m = m.max(a * a + b * b);
        }
        m.sqrt()
    }

    /// Applies the mapping `(I + self)` to a world point: `p ↦ p + T(p)`,
    /// with `T` sampled bilinearly.
    pub fn displace(&self, x: f64, y: f64) -> (f64, f64) {
        let (tu, tv) = self.sample_bilinear(x, y);
        (x + tu, y + tv)
    }

    /// Approximates the inverse displacement at a world point: finds `q`
    /// with `q + T(q) ≈ p` by damped fixed-point iteration `q ← p − T(q)`.
    ///
    /// Converges for displacement fields with Lipschitz constant < 1 (i.e.
    /// deformations that do not fold the grid), which registration enforces
    /// through its smoothness penalty. Returns the best iterate after at
    /// most `max_iter` sweeps.
    pub fn inverse_displace(&self, x: f64, y: f64, max_iter: usize, tol: f64) -> (f64, f64) {
        let mut qx = x;
        let mut qy = y;
        for _ in 0..max_iter {
            let (tu, tv) = self.sample_bilinear(qx, qy);
            let nqx = x - tu;
            let nqy = y - tv;
            let delta = ((nqx - qx).powi(2) + (nqy - qy).powi(2)).sqrt();
            qx = nqx;
            qy = nqy;
            if delta < tol {
                break;
            }
        }
        (qx, qy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_mismatch() {
        let g = Grid2::new(3, 3, 1.0, 1.0).unwrap();
        let g2 = Grid2::new(4, 3, 1.0, 1.0).unwrap();
        assert!(VectorField2::new(Field2::zeros(g), Field2::zeros(g)).is_ok());
        assert!(VectorField2::new(Field2::zeros(g), Field2::zeros(g2)).is_err());
    }

    #[test]
    fn displace_constant_shift() {
        let g = Grid2::new(4, 4, 1.0, 1.0).unwrap();
        let t = VectorField2::from_fn(g, |_, _| (0.5, -0.25));
        let (x, y) = t.displace(1.0, 2.0);
        assert!((x - 1.5).abs() < 1e-12);
        assert!((y - 1.75).abs() < 1e-12);
    }

    #[test]
    fn inverse_displace_recovers_constant_shift() {
        let g = Grid2::new(8, 8, 1.0, 1.0).unwrap();
        let t = VectorField2::from_fn(g, |_, _| (0.4, 0.2));
        // Forward: q = (2,3) ↦ p = (2.4, 3.2). Inverse at p returns q.
        let (qx, qy) = t.inverse_displace(2.4, 3.2, 50, 1e-12);
        assert!((qx - 2.0).abs() < 1e-10);
        assert!((qy - 3.0).abs() < 1e-10);
    }

    #[test]
    fn inverse_displace_smooth_field_roundtrip() {
        let g = Grid2::new(16, 16, 1.0, 1.0).unwrap();
        // Small smooth displacement, Lipschitz well below 1.
        let t = VectorField2::from_fn(g, |ix, iy| {
            let x = ix as f64 / 15.0;
            let y = iy as f64 / 15.0;
            (0.8 * (3.1 * x).sin() * 0.3, 0.6 * (2.7 * y).cos() * 0.3)
        });
        for &(x, y) in &[(5.0, 5.0), (8.3, 2.2), (12.0, 13.5)] {
            let (px, py) = t.displace(x, y);
            let (qx, qy) = t.inverse_displace(px, py, 100, 1e-13);
            assert!((qx - x).abs() < 1e-6, "x roundtrip {qx} vs {x}");
            assert!((qy - y).abs() < 1e-6, "y roundtrip {qy} vs {y}");
        }
    }

    #[test]
    fn norms_of_known_fields() {
        let g = Grid2::new(3, 3, 1.0, 1.0).unwrap();
        let t = VectorField2::from_fn(g, |_, _| (3.0, 4.0));
        assert!((t.max_magnitude() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn scale_and_axpy() {
        let g = Grid2::new(2, 2, 1.0, 1.0).unwrap();
        let mut a = VectorField2::from_fn(g, |_, _| (1.0, 2.0));
        let b = VectorField2::from_fn(g, |_, _| (10.0, 20.0));
        a.scale(2.0);
        a.axpy(0.1, &b).unwrap();
        let (u, v) = a.get(0, 0);
        assert!((u - 3.0).abs() < 1e-12);
        assert!((v - 6.0).abs() < 1e-12);
    }
}
