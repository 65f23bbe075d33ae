//! Uniform 2-D grids and node-centered scalar fields.

use crate::{GridError, Result};

/// Descriptor of a uniform 2-D grid of `nx × ny` nodes.
///
/// Node `(ix, iy)` sits at world position
/// `(x0 + ix·dx, y0 + iy·dy)`; the physical domain extent is therefore
/// `(nx − 1)·dx × (ny − 1)·dy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid2 {
    /// Number of nodes in `x`.
    pub nx: usize,
    /// Number of nodes in `y`.
    pub ny: usize,
    /// Node spacing in `x` (meters).
    pub dx: f64,
    /// Node spacing in `y` (meters).
    pub dy: f64,
    /// World coordinate of node `(0, 0)`.
    pub origin: (f64, f64),
}

impl Grid2 {
    /// Creates a grid with the origin at `(0, 0)`.
    ///
    /// # Errors
    /// [`GridError::EmptyGrid`] when either dimension is zero.
    pub fn new(nx: usize, ny: usize, dx: f64, dy: f64) -> Result<Self> {
        if nx == 0 || ny == 0 {
            return Err(GridError::EmptyGrid);
        }
        Ok(Grid2 {
            nx,
            ny,
            dx,
            dy,
            origin: (0.0, 0.0),
        })
    }

    /// Same as [`Grid2::new`] with an explicit origin.
    pub fn with_origin(nx: usize, ny: usize, dx: f64, dy: f64, origin: (f64, f64)) -> Result<Self> {
        let mut g = Grid2::new(nx, ny, dx, dy)?;
        g.origin = origin;
        Ok(g)
    }

    /// Total number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Always false for a successfully constructed grid.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of node `(ix, iy)`.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize) -> usize {
        debug_assert!(ix < self.nx && iy < self.ny, "grid index out of bounds");
        ix + self.nx * iy
    }

    /// World coordinates of node `(ix, iy)`.
    #[inline]
    pub fn world(&self, ix: usize, iy: usize) -> (f64, f64) {
        (
            self.origin.0 + ix as f64 * self.dx,
            self.origin.1 + iy as f64 * self.dy,
        )
    }

    /// Physical extent `(Lx, Ly)` of the domain.
    pub fn extent(&self) -> (f64, f64) {
        (
            (self.nx - 1) as f64 * self.dx,
            (self.ny - 1) as f64 * self.dy,
        )
    }

    /// Continuous (fractional) grid coordinates of a world point, unclamped.
    #[inline]
    pub(crate) fn to_grid_coords(self, x: f64, y: f64) -> (f64, f64) {
        ((x - self.origin.0) / self.dx, (y - self.origin.1) / self.dy)
    }

    /// The cell `(ix, iy)` containing the world point, clamped into the
    /// valid cell range `[0, n−2]`, plus the fractional offsets within that
    /// cell (each in `[0, 1]` — points outside the domain clamp to the
    /// nearest boundary cell edge).
    ///
    /// This is the "determine in which cell the weather station is located"
    /// lookup of §3.1 (linear interpolation of the location).
    pub fn locate(&self, x: f64, y: f64) -> (usize, usize, f64, f64) {
        let (gx, gy) = self.to_grid_coords(x, y);
        let cx = gx.clamp(0.0, (self.nx - 1) as f64);
        let cy = gy.clamp(0.0, (self.ny - 1) as f64);
        // `cx`, `cy` are in [0, n−1] or NaN: truncation is `floor` there
        // (and a cast, not a libm call, on targets without SSE4.1).
        let ix = (cx as usize).min(self.nx.saturating_sub(2));
        let iy = (cy as usize).min(self.ny.saturating_sub(2));
        (ix, iy, cx - ix as f64, cy - iy as f64)
    }

    /// Whether a world point lies inside the grid's physical domain.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        let (gx, gy) = self.to_grid_coords(x, y);
        gx >= 0.0 && gy >= 0.0 && gx <= (self.nx - 1) as f64 && gy <= (self.ny - 1) as f64
    }
}

/// Half-open box `[x0, x1) × [y0, y1)` of node indices: the unit of "only
/// this part of the mesh" shared by the banded fire step, the box-taking
/// transfer operators and the heat-flux sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBox {
    /// First column.
    pub x0: usize,
    /// One past the last column.
    pub x1: usize,
    /// First row.
    pub y0: usize,
    /// One past the last row.
    pub y1: usize,
}

impl NodeBox {
    /// The box holding no node.
    pub const EMPTY: NodeBox = NodeBox {
        x0: 0,
        x1: 0,
        y0: 0,
        y1: 0,
    };

    /// Every node of `grid`.
    pub fn full(grid: Grid2) -> Self {
        NodeBox {
            x0: 0,
            x1: grid.nx,
            y0: 0,
            y1: grid.ny,
        }
    }

    /// Whether the box holds no node.
    pub fn is_empty(&self) -> bool {
        self.x0 >= self.x1 || self.y0 >= self.y1
    }

    /// Grows the box to cover columns `[x0, x1)` of row `iy` (a no-op for an
    /// empty column range).
    pub fn cover_row(&mut self, iy: usize, x0: usize, x1: usize) {
        if x0 >= x1 {
            return;
        }
        *self = if self.is_empty() {
            NodeBox {
                x0,
                x1,
                y0: iy,
                y1: iy + 1,
            }
        } else {
            NodeBox {
                x0: self.x0.min(x0),
                x1: self.x1.max(x1),
                y0: self.y0.min(iy),
                y1: self.y1.max(iy + 1),
            }
        };
    }

    /// The box grown by `margin` nodes on every side, clipped to `grid`;
    /// an empty box stays empty.
    pub fn dilated(self, margin: usize, grid: Grid2) -> Self {
        if self.is_empty() {
            return NodeBox::EMPTY;
        }
        NodeBox {
            x0: self.x0.saturating_sub(margin),
            x1: self.x1.saturating_add(margin).min(grid.nx),
            y0: self.y0.saturating_sub(margin),
            y1: self.y1.saturating_add(margin).min(grid.ny),
        }
    }
}

/// A scalar field on the nodes of a [`Grid2`].
#[derive(Debug, Clone, PartialEq)]
pub struct Field2 {
    grid: Grid2,
    data: Vec<f64>,
}

/// A 1×1 zero field — a placeholder for workspace buffers that are
/// re-targeted with [`Field2::resize_zeroed`] before first use.
impl Default for Field2 {
    fn default() -> Self {
        Field2::zeros(Grid2::new(1, 1, 1.0, 1.0).expect("1x1 grid is valid"))
    }
}

impl Field2 {
    /// Zero field on `grid`.
    pub fn zeros(grid: Grid2) -> Self {
        Field2 {
            grid,
            data: vec![0.0; grid.len()],
        }
    }

    /// Constant field on `grid`.
    pub fn filled(grid: Grid2, value: f64) -> Self {
        Field2 {
            grid,
            data: vec![value; grid.len()],
        }
    }

    /// Field built from a function of the node indices.
    pub fn from_fn(grid: Grid2, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut field = Field2::zeros(grid);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                field.data[grid.idx(ix, iy)] = f(ix, iy);
            }
        }
        field
    }

    /// Field built from a function of world coordinates.
    pub fn from_world_fn(grid: Grid2, mut f: impl FnMut(f64, f64) -> f64) -> Self {
        Field2::from_fn(grid, |ix, iy| {
            let (x, y) = grid.world(ix, iy);
            f(x, y)
        })
    }

    /// Adopts an existing data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != grid.len()`.
    pub fn from_vec(grid: Grid2, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), grid.len(), "field data length mismatch");
        Field2 { grid, data }
    }

    /// The grid descriptor.
    #[inline]
    pub fn grid(&self) -> Grid2 {
        self.grid
    }

    /// Value at node `(ix, iy)`.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        self.data[self.grid.idx(ix, iy)]
    }

    /// Sets the value at node `(ix, iy)`.
    #[inline]
    pub fn set(&mut self, ix: usize, iy: usize, v: f64) {
        let i = self.grid.idx(ix, iy);
        self.data[i] = v;
    }

    /// Raw data slice (row-major in `x`).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Contiguous row `iy` (all `nx` values along `x`) — the slice view the
    /// fused level-set row sweeps and other kernels iterate branch-free.
    ///
    /// # Panics
    /// Panics when `iy` is out of bounds.
    #[inline]
    pub fn row(&self, iy: usize) -> &[f64] {
        let nx = self.grid.nx;
        &self.data[iy * nx..(iy + 1) * nx]
    }

    /// Mutable variant of [`Field2::row`].
    ///
    /// # Panics
    /// Panics when `iy` is out of bounds.
    #[inline]
    pub fn row_mut(&mut self, iy: usize) -> &mut [f64] {
        let nx = self.grid.nx;
        &mut self.data[iy * nx..(iy + 1) * nx]
    }

    /// Mutable raw data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Applies `f` to every value in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Sets every node to `value` without reallocating.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Re-targets the field to `grid` and zeroes it, reusing the existing
    /// storage when the capacity suffices. This is the primitive the
    /// workspace layer builds on: after the first call with a given shape,
    /// subsequent calls perform no heap allocation.
    pub fn resize_zeroed(&mut self, grid: Grid2) {
        self.grid = grid;
        self.data.clear();
        self.data.resize(grid.len(), 0.0);
    }

    /// Re-targets the field to `grid` **without** clearing the values: the
    /// contents are unspecified (stale data from the previous use) and the
    /// caller must overwrite every node before reading any. This is the
    /// `resize_uninit` analogue for fully-overwriting kernels — it skips
    /// [`Field2::resize_zeroed`]'s per-call memset, zeroing only when the
    /// storage length actually changes (safe Rust needs initialized
    /// growth). Kernels whose untouched nodes are *meant* to read as zero —
    /// e.g. the level-set `rhs_into`, which skips zero-gradient nodes —
    /// must keep `resize_zeroed`.
    pub fn resize_no_zero(&mut self, grid: Grid2) {
        self.grid = grid;
        if self.data.len() != grid.len() {
            self.data.clear();
            self.data.resize(grid.len(), 0.0);
        }
    }

    /// Copies grid and values from `other`, reusing the existing storage
    /// when the capacity suffices (no allocation once shapes have been
    /// seen).
    pub fn copy_from(&mut self, other: &Field2) {
        self.grid = other.grid;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// `self += alpha · other`.
    ///
    /// # Errors
    /// [`GridError::GridMismatch`] when grids differ.
    pub fn axpy(&mut self, alpha: f64, other: &Field2) -> Result<()> {
        if self.grid != other.grid {
            return Err(GridError::GridMismatch("field axpy"));
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

    /// Mean of all node values.
    pub fn mean(&self) -> f64 {
        self.sum() / self.data.len() as f64
    }

    /// Integral over the domain approximating each node by its cell area
    /// (`Σ v · dx · dy`). Used for heat budgets and burned-area integrals.
    pub fn integral(&self) -> f64 {
        self.sum() * self.grid.dx * self.grid.dy
    }

    /// Number of nodes where the predicate holds.
    pub fn count_where(&self, pred: impl Fn(f64) -> bool) -> usize {
        self.data.iter().filter(|&&v| pred(v)).count()
    }

    /// True when all values are finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Root-mean-square difference against another field on the same grid.
    ///
    /// # Errors
    /// [`GridError::GridMismatch`] when grids differ.
    pub fn rmse(&self, other: &Field2) -> Result<f64> {
        if self.grid != other.grid {
            return Err(GridError::GridMismatch("field rmse"));
        }
        Ok(wildfire_math::vecops::rmse(&self.data, &other.data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resize_no_zero_targets_grid_and_skips_memset() {
        let g1 = Grid2::new(4, 4, 1.0, 1.0).unwrap();
        let g2 = Grid2::new(3, 3, 2.0, 2.0).unwrap();
        let mut f = Field2::filled(g1, 7.0);
        // Same length after re-target (here: different grid, smaller
        // length): storage must be valid and fully writable.
        f.resize_no_zero(g2);
        assert_eq!(f.grid(), g2);
        assert_eq!(f.as_slice().len(), g2.len());
        // Same-shape re-target preserves the stale contents (that is the
        // contract: no memset; callers overwrite everything).
        f.fill(3.5);
        f.resize_no_zero(g2);
        assert!(f.as_slice().iter().all(|&v| v == 3.5));
        // Growing establishes a valid (zeroed) length.
        f.resize_no_zero(g1);
        assert_eq!(f.as_slice().len(), g1.len());
    }

    #[test]
    fn grid_construction_and_indexing() {
        let g = Grid2::new(4, 3, 2.0, 5.0).unwrap();
        assert_eq!(g.len(), 12);
        assert_eq!(g.idx(0, 0), 0);
        assert_eq!(g.idx(3, 0), 3);
        assert_eq!(g.idx(0, 1), 4);
        assert_eq!(g.world(2, 1), (4.0, 5.0));
        assert_eq!(g.extent(), (6.0, 10.0));
    }

    #[test]
    fn rejects_empty_grid() {
        assert!(Grid2::new(0, 5, 1.0, 1.0).is_err());
        assert!(Grid2::new(5, 0, 1.0, 1.0).is_err());
    }

    #[test]
    fn locate_interior_and_clamped() {
        let g = Grid2::new(5, 5, 1.0, 1.0).unwrap();
        let (ix, iy, fx, fy) = g.locate(2.25, 3.75);
        assert_eq!((ix, iy), (2, 3));
        assert!((fx - 0.25).abs() < 1e-14);
        assert!((fy - 0.75).abs() < 1e-14);
        // Outside the domain clamps to the boundary cell with fraction in [0,1].
        let (ix, iy, fx, fy) = g.locate(-3.0, 9.0);
        assert_eq!((ix, iy), (0, 3));
        assert_eq!(fx, 0.0);
        assert_eq!(fy, 1.0);
    }

    #[test]
    fn contains_checks_bounds() {
        let g = Grid2::with_origin(3, 3, 1.0, 1.0, (10.0, 20.0)).unwrap();
        assert!(g.contains(10.0, 20.0));
        assert!(g.contains(12.0, 22.0));
        assert!(!g.contains(9.99, 21.0));
        assert!(!g.contains(12.5, 21.0));
    }

    #[test]
    fn row_slices_view_row_major_storage() {
        let g = Grid2::new(3, 2, 1.0, 1.0).unwrap();
        let mut f = Field2::from_fn(g, |ix, iy| (10 * iy + ix) as f64);
        assert_eq!(f.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(f.row(1), &[10.0, 11.0, 12.0]);
        f.row_mut(1)[2] = 99.0;
        assert_eq!(f.get(2, 1), 99.0);
    }

    #[test]
    #[should_panic]
    fn row_out_of_bounds_panics() {
        let g = Grid2::new(3, 2, 1.0, 1.0).unwrap();
        let f = Field2::zeros(g);
        let _ = f.row(2);
    }

    #[test]
    fn field_from_fn_and_accessors() {
        let g = Grid2::new(3, 2, 1.0, 1.0).unwrap();
        let f = Field2::from_fn(g, |ix, iy| (ix * 10 + iy) as f64);
        assert_eq!(f.get(2, 1), 21.0);
        assert_eq!(f.get(0, 0), 0.0);
        assert_eq!(f.as_slice().len(), 6);
    }

    #[test]
    fn from_world_fn_uses_coordinates() {
        let g = Grid2::with_origin(3, 3, 2.0, 2.0, (1.0, 1.0)).unwrap();
        let f = Field2::from_world_fn(g, |x, y| x + 10.0 * y);
        assert_eq!(f.get(0, 0), 11.0);
        assert_eq!(f.get(2, 1), 5.0 + 30.0);
    }

    #[test]
    fn axpy_and_mismatch() {
        let g = Grid2::new(2, 2, 1.0, 1.0).unwrap();
        let mut a = Field2::filled(g, 1.0);
        let b = Field2::filled(g, 2.0);
        a.axpy(3.0, &b).unwrap();
        assert_eq!(a.get(1, 1), 7.0);
        let g2 = Grid2::new(3, 2, 1.0, 1.0).unwrap();
        let c = Field2::zeros(g2);
        assert!(a.axpy(1.0, &c).is_err());
    }

    #[test]
    fn integral_of_constant() {
        let g = Grid2::new(11, 11, 0.5, 0.5).unwrap();
        let f = Field2::filled(g, 2.0);
        // 121 nodes × 2.0 × 0.25 area weight.
        assert!((f.integral() - 60.5).abs() < 1e-12);
    }

    #[test]
    fn min_max_and_count() {
        let g = Grid2::new(3, 1, 1.0, 1.0).unwrap();
        let f = Field2::from_vec(g, vec![-1.0, 5.0, 2.0]);
        assert_eq!(f.min_max(), (-1.0, 5.0));
        assert_eq!(f.count_where(|v| v > 0.0), 2);
        assert!((f.mean() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn rmse_between_fields() {
        let g = Grid2::new(2, 1, 1.0, 1.0).unwrap();
        let a = Field2::from_vec(g, vec![0.0, 0.0]);
        let b = Field2::from_vec(g, vec![3.0, 4.0]);
        assert!((a.rmse(&b).unwrap() - 12.5_f64.sqrt()).abs() < 1e-14);
    }
}
