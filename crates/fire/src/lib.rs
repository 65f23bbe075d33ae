//! # wildfire-fire
//!
//! The surface-fire component of the coupled model (§2.1–2.2 of the paper):
//!
//! * a semi-empirical spread-rate law `S = R0 + a(v⃗·n⃗)^b + d ∇z·n⃗`, clipped
//!   to `[0, S_max]`, with per-category coefficients, mass-loss kinetics
//!   and heat partitioning in [`fuel`];
//! * front propagation by a level-set method, `∂ψ/∂t + S‖∇ψ‖ = 0`, solved
//!   with Godunov upwinding exactly as the paper specifies and integrated
//!   with Heun's two-stage Runge–Kutta method (the explicit Euler method is
//!   also provided because the paper's ablation claim — Euler systematically
//!   slows or stalls the fire — is one of the reproduced experiments);
//! * the ignition-time field `t_i`, set by temporal interpolation when ψ
//!   crosses zero, from which post-frontal fuel consumption and the
//!   sensible/latent heat fluxes delivered to the atmosphere are computed;
//! * ignition geometry (points, circles, line segments) with exact signed
//!   distance, matching the paper's initialization "to the signed distance
//!   from the fireline";
//! * diagnostics: burning area, front extraction, perimeter length,
//!   front-radius statistics.
//!
//! The model state `(ψ, t_i)` is exactly the state the morphing EnKF
//! manipulates (§3.3), so both fields are plain [`wildfire_grid::Field2`]s.
//!
//! ## Kernel strategy
//!
//! The level-set RHS — the per-step cost center of the whole coupled model —
//! exists three times, each pinned **bitwise** to the one before it.
//! [`LevelSetSolver::rhs_reference_into`] is the paper-faithful per-node
//! scalar loop and serves as the semantic reference;
//! [`LevelSetSolver::rhs_into`] runs the fused row-sweep kernel of the
//! private `kernel` module over the whole field (precomputed
//! fuel-coefficient and terrain-gradient planes, contiguous row slices,
//! branch-free interiors; `tests/proptest_levelset_fused.rs`); and stepping
//! runs that kernel only on the row spans of nodes that can move — a node
//! whose ψ equals its neighbours' has RHS exactly 0 and is skipped, which
//! changes no bit of the result (`tests/proptest_levelset_band.rs`) and
//! makes the step cost follow the fire instead of the mesh.

#![forbid(unsafe_code)]

pub mod fuel;
pub mod heat;
pub mod ignition;
pub(crate) mod kernel;
pub mod levelset;
pub mod mesh;
pub mod perimeter;
pub mod reinit;
pub mod state;
pub mod workspace;

pub use fuel::{FuelCategory, FuelModel, HeatFluxes};
pub use ignition::IgnitionShape;
pub use levelset::{AdvanceStats, GradientScheme, Integrator, LevelSetSolver};
pub use mesh::{FireMesh, FuelMap};
pub use reinit::reinitialize_into;
pub use state::FireState;
pub use workspace::{FireWorkspace, ReinitWorkspace};

/// Ignition time assigned to not-yet-burned nodes.
pub const UNBURNED: f64 = f64::INFINITY;

/// Errors from fire-model construction and stepping.
#[derive(Debug, Clone, PartialEq)]
pub enum FireError {
    /// Grids of two inputs do not match.
    GridMismatch(&'static str),
    /// The requested time step violates the CFL stability bound.
    CflViolation {
        /// Requested step, s.
        dt: f64,
        /// Largest stable step, s.
        dt_max: f64,
    },
    /// A fuel map referenced an undefined palette entry.
    BadFuelIndex(usize),
}

impl std::fmt::Display for FireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FireError::GridMismatch(op) => write!(f, "grid mismatch in {op}"),
            FireError::CflViolation { dt, dt_max } => {
                write!(f, "time step {dt} s exceeds CFL bound {dt_max} s")
            }
            FireError::BadFuelIndex(i) => write!(f, "fuel palette index {i} out of range"),
        }
    }
}

impl std::error::Error for FireError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, FireError>;
