//! # wildfire-math
//!
//! Self-contained numerical kernels for the wildfire workspace: a dense
//! column-major matrix type with the factorizations the filters use
//! (Cholesky, Jacobi eigendecomposition), seeded uniform and Gaussian
//! sampling on an in-crate xoshiro256++ generator, descriptive statistics,
//! and Gauss–Legendre quadrature.
//!
//! The ensemble Kalman filter and the registration/morphing machinery of the
//! paper need exactly these kernels; the build is offline and dependency
//! free, so implementing them here, with tests, is both the most portable
//! and the most faithful route.
//!
//! All floating point work is `f64`. Matrices are column-major, matching the
//! convention of the ensemble algebra in the paper (states are columns).

#![forbid(unsafe_code)]

pub mod cholesky;
pub mod eigen;
pub mod interp;
pub mod matrix;
pub mod quadrature;
pub mod rng;
pub mod stats;
pub mod vecops;

pub use cholesky::Cholesky;
pub use eigen::{EigenWorkspace, SymmetricEigen};
pub use matrix::Matrix;
pub use rng::GaussianSampler;

/// Errors produced by the numerical kernels in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum MathError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand.
        lhs: (usize, usize),
        /// Dimensions of the right operand.
        rhs: (usize, usize),
    },
    /// The matrix is not positive definite (Cholesky pivot failure).
    NotPositiveDefinite {
        /// Index of the failing pivot.
        pivot: usize,
        /// Value encountered at the failing pivot.
        value: f64,
    },
    /// An iterative method failed to converge within its iteration budget.
    NoConvergence {
        /// Which algorithm failed.
        algorithm: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// The operation requires a square matrix.
    NotSquare {
        /// Actual dimensions.
        dims: (usize, usize),
    },
    /// An input argument was outside its legal domain.
    InvalidArgument(&'static str),
}

impl std::fmt::Display for MathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MathError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "dimension mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            MathError::NotPositiveDefinite { pivot, value } => write!(
                f,
                "matrix not positive definite: pivot {pivot} has value {value}"
            ),
            MathError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} failed to converge in {iterations} iterations"
            ),
            MathError::NotSquare { dims } => {
                write!(
                    f,
                    "operation requires a square matrix, got {}x{}",
                    dims.0, dims.1
                )
            }
            MathError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for MathError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, MathError>;
