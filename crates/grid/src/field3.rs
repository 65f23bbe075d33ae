//! Uniform 3-D grids and cell/node-centered scalar fields.
//!
//! The atmosphere substrate stores potential temperature, water vapor, and
//! pressure on a [`Grid3`]; the synthetic-scene generator stores flame
//! emission on a voxel [`Grid3`].

use crate::{GridError, Result};

/// Descriptor of a uniform 3-D grid of `nx × ny × nz` nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid3 {
    /// Nodes in `x`.
    pub nx: usize,
    /// Nodes in `y`.
    pub ny: usize,
    /// Nodes in `z`.
    pub nz: usize,
    /// Spacing in `x` (meters).
    pub dx: f64,
    /// Spacing in `y` (meters).
    pub dy: f64,
    /// Spacing in `z` (meters).
    pub dz: f64,
    /// World coordinate of node `(0, 0, 0)`.
    pub origin: (f64, f64, f64),
}

impl Grid3 {
    /// Creates a grid with the origin at `(0, 0, 0)`.
    ///
    /// # Errors
    /// [`GridError::EmptyGrid`] when any dimension is zero.
    pub fn new(nx: usize, ny: usize, nz: usize, dx: f64, dy: f64, dz: f64) -> Result<Self> {
        if nx == 0 || ny == 0 || nz == 0 {
            return Err(GridError::EmptyGrid);
        }
        Ok(Grid3 {
            nx,
            ny,
            nz,
            dx,
            dy,
            dz,
            origin: (0.0, 0.0, 0.0),
        })
    }

    /// Total number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Always false for a successfully constructed grid.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of node `(ix, iy, iz)`; `x` fastest, `z` slowest.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        debug_assert!(
            ix < self.nx && iy < self.ny && iz < self.nz,
            "grid3 index out of bounds"
        );
        ix + self.nx * (iy + self.ny * iz)
    }

    /// World coordinates of node `(ix, iy, iz)`.
    #[inline]
    pub fn world(&self, ix: usize, iy: usize, iz: usize) -> (f64, f64, f64) {
        (
            self.origin.0 + ix as f64 * self.dx,
            self.origin.1 + iy as f64 * self.dy,
            self.origin.2 + iz as f64 * self.dz,
        )
    }

    /// Volume of one cell.
    #[inline]
    pub(crate) fn cell_volume(&self) -> f64 {
        self.dx * self.dy * self.dz
    }
}

/// A scalar field on the nodes of a [`Grid3`].
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    grid: Grid3,
    data: Vec<f64>,
}

/// A 1×1×1 zero field — a placeholder for workspace buffers that are
/// re-targeted with [`Field3::resize_zeroed`] before first use.
impl Default for Field3 {
    fn default() -> Self {
        Field3::zeros(Grid3::new(1, 1, 1, 1.0, 1.0, 1.0).expect("1x1x1 grid is valid"))
    }
}

impl Field3 {
    /// Zero field on `grid`.
    pub fn zeros(grid: Grid3) -> Self {
        Field3 {
            grid,
            data: vec![0.0; grid.len()],
        }
    }

    /// Constant field on `grid`.
    pub fn filled(grid: Grid3, value: f64) -> Self {
        Field3 {
            grid,
            data: vec![value; grid.len()],
        }
    }

    /// Field built from a function of the node indices.
    pub fn from_fn(grid: Grid3, mut f: impl FnMut(usize, usize, usize) -> f64) -> Self {
        let mut field = Field3::zeros(grid);
        for iz in 0..grid.nz {
            for iy in 0..grid.ny {
                for ix in 0..grid.nx {
                    field.data[grid.idx(ix, iy, iz)] = f(ix, iy, iz);
                }
            }
        }
        field
    }

    /// The grid descriptor.
    #[inline]
    pub fn grid(&self) -> Grid3 {
        self.grid
    }

    /// Re-targets the field to `grid` and zeroes it, reusing the existing
    /// storage when the capacity suffices — the 3-D analogue of
    /// [`crate::Field2::resize_zeroed`]: after the first call with a given
    /// shape, subsequent calls perform no heap allocation.
    pub fn resize_zeroed(&mut self, grid: Grid3) {
        self.grid = grid;
        self.data.clear();
        self.data.resize(grid.len(), 0.0);
    }

    /// Value at node `(ix, iy, iz)`.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize, iz: usize) -> f64 {
        self.data[self.grid.idx(ix, iy, iz)]
    }

    /// Sets the value at node `(ix, iy, iz)`.
    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, iz: usize, v: f64) {
        let i = self.grid.idx(ix, iy, iz);
        self.data[i] = v;
    }

    /// Adds `v` at node `(ix, iy, iz)`.
    #[inline]
    pub fn add(&mut self, ix: usize, iy: usize, iz: usize, v: f64) {
        let i = self.grid.idx(ix, iy, iz);
        self.data[i] += v;
    }

    /// Raw data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `self += alpha · other`.
    ///
    /// # Errors
    /// [`GridError::GridMismatch`] when grids differ.
    pub fn axpy(&mut self, alpha: f64, other: &Field3) -> Result<()> {
        if self.grid != other.grid {
            return Err(GridError::GridMismatch("field3 axpy"));
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Pointwise minimum and maximum.
    pub fn min_max(&self) -> (f64, f64) {
        self.data
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            })
    }

    /// Sum of all node values.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Volume integral `Σ v · dx · dy · dz`.
    pub fn integral(&self) -> f64 {
        self.sum() * self.grid.cell_volume()
    }

    /// True when all values are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Extracts the horizontal slab at level `iz` as a flat vector
    /// (row-major in `x`), e.g. the lowest model level of a wind component.
    pub fn slab(&self, iz: usize) -> Vec<f64> {
        let n = self.grid.nx * self.grid.ny;
        let start = self.grid.idx(0, 0, iz);
        self.data[start..start + n].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_order() {
        let g = Grid3::new(2, 3, 4, 1.0, 1.0, 1.0).unwrap();
        assert_eq!(g.idx(0, 0, 0), 0);
        assert_eq!(g.idx(1, 0, 0), 1);
        assert_eq!(g.idx(0, 1, 0), 2);
        assert_eq!(g.idx(0, 0, 1), 6);
        assert_eq!(g.len(), 24);
    }

    #[test]
    fn rejects_empty() {
        assert!(Grid3::new(0, 1, 1, 1.0, 1.0, 1.0).is_err());
        assert!(Grid3::new(1, 1, 0, 1.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn slab_extracts_level() {
        let g = Grid3::new(2, 2, 3, 1.0, 1.0, 1.0).unwrap();
        let f = Field3::from_fn(g, |_, _, iz| iz as f64);
        assert_eq!(f.slab(0), vec![0.0; 4]);
        assert_eq!(f.slab(2), vec![2.0; 4]);
    }

    #[test]
    fn integral_constant_field() {
        let g = Grid3::new(3, 3, 3, 1.0, 1.0, 1.0).unwrap();
        let f = Field3::filled(g, 2.0);
        assert!((f.integral() - 54.0).abs() < 1e-12);
    }

    #[test]
    fn axpy_mismatch_errors() {
        let g1 = Grid3::new(2, 2, 2, 1.0, 1.0, 1.0).unwrap();
        let g2 = Grid3::new(3, 2, 2, 1.0, 1.0, 1.0).unwrap();
        let mut a = Field3::zeros(g1);
        assert!(a.axpy(1.0, &Field3::zeros(g2)).is_err());
        assert!(a.axpy(1.0, &Field3::filled(g1, 1.0)).is_ok());
        assert_eq!(a.get(1, 1, 1), 1.0);
    }
}
