//! # wildfire-enkf
//!
//! Data assimilation for the wildfire model (§3.3 of the paper):
//!
//! * [`enkf`] — the stochastic ensemble Kalman filter with perturbed
//!   observations (Evensen 2003), the paper's filter of reference. The
//!   analysis replaces the ensemble by linear combinations of its members,
//!   with coefficients from a least-squares balance of state change against
//!   data mismatch, using the model only as a black box.
//! * [`etkf`] — a deterministic square-root variant (ensemble transform
//!   Kalman filter), provided as an extension for comparison runs.
//! * [`registration`] — automatic grid registration: finds the mapping `T`
//!   with `u ≈ u0∘(I + T)` by multilevel optimization of
//!   `‖u − u0∘(I+T)‖² + c₁‖T‖² + c₂‖∇T‖²` (the paper's registration
//!   functional), seeded by a global translation search.
//! * [`morph`] — the morphing algebra: residuals through the inverse
//!   mapping, and the intermediate states `u_λ = (u0 + λr)∘(I + λT)`.
//! * [`morphing_enkf`] — the morphing EnKF: ensemble members are
//!   transformed into extended states `[r, T]`, the EnKF runs on those, and
//!   the results are morphed back — providing position as well as amplitude
//!   corrections, which is exactly what rescues the filter when observed and
//!   simulated fires disagree in location (Fig. 4).

#![forbid(unsafe_code)]

pub mod enkf;
pub mod etkf;
pub mod morph;
pub mod morphing_enkf;
pub mod registration;
pub mod workspace;

pub use enkf::{EnkfConfig, EnsembleKalmanFilter};
pub use etkf::Etkf;
pub use morphing_enkf::{MorphingConfig, MorphingEnkf, MorphingWorkspace};
pub use registration::{
    register, register_into, register_ws, DisplacementField, RegistrationConfig,
    RegistrationWorkspace,
};
pub use workspace::AnalysisWorkspace;

/// Errors from the assimilation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum EnkfError {
    /// Linear algebra failure (a factorization that broke down, …).
    Math(wildfire_math::MathError),
    /// Ensemble/observation dimensions are inconsistent.
    DimensionMismatch {
        /// Explanation of the inconsistency.
        what: &'static str,
    },
    /// The ensemble has fewer than 2 members.
    EnsembleTooSmall,
    /// An observation error variance is zero, negative or non-finite: the
    /// filters weight innovations by `R^{-1/2}`, which such a row would turn
    /// into infinite or NaN weights.
    NonPositiveObsVariance {
        /// First offending row of the observation vector.
        row: usize,
    },
    /// Grid mismatch between fields.
    Grid(wildfire_grid::GridError),
    /// A field to be registered holds a NaN or an infinity: no misfit
    /// against it is ordered, so the registration would be meaningless.
    NonFiniteField {
        /// Which field (the registered one or the reference).
        what: &'static str,
    },
}

impl std::fmt::Display for EnkfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnkfError::Math(e) => write!(f, "linear algebra: {e}"),
            EnkfError::DimensionMismatch { what } => write!(f, "dimension mismatch: {what}"),
            EnkfError::EnsembleTooSmall => write!(f, "ensemble needs at least 2 members"),
            EnkfError::NonPositiveObsVariance { row } => write!(
                f,
                "observation error variance of row {row} is not positive and finite"
            ),
            EnkfError::Grid(e) => write!(f, "grid: {e}"),
            EnkfError::NonFiniteField { what } => write!(f, "non-finite value in the {what}"),
        }
    }
}

impl std::error::Error for EnkfError {}

impl From<wildfire_math::MathError> for EnkfError {
    fn from(e: wildfire_math::MathError) -> Self {
        EnkfError::Math(e)
    }
}

impl From<wildfire_grid::GridError> for EnkfError {
    fn from(e: wildfire_grid::GridError) -> Self {
        EnkfError::Grid(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, EnkfError>;
