//! # wildfire-grid
//!
//! Structured-grid infrastructure shared by every physics crate in the
//! workspace: uniform 2-D and 3-D grids with node-centered scalar fields,
//! bilinear/biquadratic/Catmull–Rom sampling, finite-difference stencils, and
//! conservative transfer operators between the fine fire mesh and the coarse
//! atmosphere mesh (the paper couples a 6 m fire mesh to a 60 m atmosphere
//! mesh, §2.3).
//!
//! Conventions:
//! * 2-D fields are stored row-major in `x`: element `(ix, iy)` lives at
//!   `ix + nx * iy`; `x` is the fastest-varying index.
//! * 3-D fields add `z` as the slowest index: `ix + nx * (iy + ny * iz)`.
//! * World coordinates map to grid indices through the grid's `origin` and
//!   spacing; sampling clamps to the domain (constant extrapolation), which
//!   is the correct behaviour for bounded physical domains.

#![forbid(unsafe_code)]

pub mod field2;
pub mod field3;
pub mod sample;
pub mod stencil;
pub mod transfer;
pub mod vecfield;

pub use field2::{Field2, Grid2, NodeBox};
pub use field3::{Field3, Grid3};
pub use vecfield::VectorField2;

/// Errors from grid construction and transfer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// A grid dimension was zero.
    EmptyGrid,
    /// Grids passed to a binary operation do not match.
    GridMismatch(&'static str),
    /// Transfer between grids requires an integer refinement ratio.
    NonIntegerRefinement {
        /// Fine-grid point count along the offending axis.
        fine: usize,
        /// Coarse-grid point count along the offending axis.
        coarse: usize,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::EmptyGrid => write!(f, "grid dimensions must be positive"),
            GridError::GridMismatch(op) => write!(f, "grid mismatch in {op}"),
            GridError::NonIntegerRefinement { fine, coarse } => write!(
                f,
                "refinement ratio must be a positive integer: fine {fine} vs coarse {coarse}"
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, GridError>;
