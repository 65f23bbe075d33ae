//! # wildfire-atmos
//!
//! A simplified three-dimensional atmospheric dynamics core standing in for
//! WRF (the Weather Research and Forecasting model) in the coupled
//! fire–atmosphere system of §2.3. The substitution keeps every coupling
//! mechanism the paper exercises:
//!
//! * horizontal winds near the surface advect the fire;
//! * fire heat creates buoyant updrafts that modify those winds (the Fig. 1
//!   feedback: "air being pulled up by the heat created by the fire");
//! * the fire's sensible and latent heat fluxes cannot be applied as flux
//!   boundary conditions, so they are "inserted by modifying the temperature
//!   and water vapor concentration over a depth of many cells, with
//!   exponential decay away from the boundary" — implemented verbatim.
//!
//! Numerics: incompressible Boussinesq equations on an Arakawa-C staggered
//! grid (velocities on faces, scalars at cell centers), first-order upwind
//! advection, explicit buoyancy, bulk surface drag, Rayleigh damping aloft,
//! and a pressure projection enforcing a divergence-free velocity field
//! (geometric multigrid by default, matrix-free conjugate gradients as the
//! compatible fallback — see [`PoissonSolver`]). Lateral boundaries are periodic; top and bottom are rigid
//! lids (w = 0), with the damping layer absorbing waves before they reach
//! the lid. The vertical extent covers "the whole atmosphere" of the
//! simulated domain, as WRF's non-nestable vertical requires (§2.3).

#![forbid(unsafe_code)]

pub mod advect;
pub mod model;
pub mod multigrid;
pub mod params;
pub mod poisson;
pub mod state;
pub mod workspace;

pub use model::AtmosModel;
pub use multigrid::{MgHierarchy, PackedSmoother};
pub use params::{AtmosParams, PoissonSolver};
pub use state::AtmosState;
pub use workspace::{AtmosWorkspace, PoissonWorkspace};

/// Errors from atmospheric model construction and stepping.
#[derive(Debug, Clone, PartialEq)]
pub enum AtmosError {
    /// Grid dimensions too small for the staggered discretization.
    GridTooSmall,
    /// Requested time step violates the advective CFL bound.
    CflViolation {
        /// Requested step, s.
        dt: f64,
        /// Largest stable step, s.
        dt_max: f64,
    },
    /// Input fields on an unexpected grid.
    GridMismatch(&'static str),
    /// The pressure solver failed to converge.
    PressureSolveFailed {
        /// Residual norm at the final iteration.
        residual: f64,
    },
}

impl std::fmt::Display for AtmosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtmosError::GridTooSmall => write!(f, "atmosphere grid must be at least 4x4x3"),
            AtmosError::CflViolation { dt, dt_max } => {
                write!(f, "time step {dt} s exceeds advective CFL bound {dt_max} s")
            }
            AtmosError::GridMismatch(what) => write!(f, "grid mismatch: {what}"),
            AtmosError::PressureSolveFailed { residual } => {
                write!(
                    f,
                    "pressure projection failed to converge (residual {residual})"
                )
            }
        }
    }
}

impl std::error::Error for AtmosError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, AtmosError>;
