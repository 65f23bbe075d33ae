//! # wildfire-core
//!
//! The paper's primary contribution: the two-way coupled fire–atmosphere
//! model (§2). A surface fire propagated by the level-set method
//! ([`wildfire_fire`]) runs on a fine mesh nested inside the horizontal grid
//! of the atmospheric core ([`wildfire_atmos`]); each coupled step:
//!
//! 1. extracts the near-surface horizontal wind from the atmosphere,
//! 2. interpolates ("prolongs") it onto the fire mesh (§2.3 — the paper uses
//!    a 60 m atmospheric mesh over a 6 m fire mesh, refinement ratio 10),
//! 3. advances the fire front and its ignition-time field,
//! 4. evaluates the fire's sensible and latent heat fluxes,
//! 5. conservatively averages ("restricts") them onto the atmosphere's
//!    horizontal grid, and
//! 6. advances the atmosphere with those fluxes inserted over depth with
//!    exponential decay.
//!
//! Setting [`CoupledModel::coupled`] to `false` severs step 1–2 (the fire
//! sees only the ambient wind) — the "empirical spread model alone" baseline
//! of Fig. 1, whose caption notes fire behaviour that "cannot be modeled by
//! empirical spread models alone".

#![forbid(unsafe_code)]

pub mod coupled;
pub mod diagnostics;
pub mod workspace;

pub use coupled::{CoupledModel, CoupledState, FAR_FIELD_CELLS};
pub use diagnostics::StepDiagnostics;
pub use workspace::CoupledWorkspace;

/// Errors from the coupled model.
#[derive(Debug, Clone, PartialEq)]
pub enum CoupledError {
    /// Error from the atmospheric component.
    Atmos(wildfire_atmos::AtmosError),
    /// Error from the fire component.
    Fire(wildfire_fire::FireError),
    /// Error from grid transfer between the meshes.
    Grid(wildfire_grid::GridError),
    /// Invalid configuration.
    Config(&'static str),
}

impl std::fmt::Display for CoupledError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoupledError::Atmos(e) => write!(f, "atmosphere: {e}"),
            CoupledError::Fire(e) => write!(f, "fire: {e}"),
            CoupledError::Grid(e) => write!(f, "mesh transfer: {e}"),
            CoupledError::Config(msg) => write!(f, "configuration: {msg}"),
        }
    }
}

impl std::error::Error for CoupledError {}

impl From<wildfire_atmos::AtmosError> for CoupledError {
    fn from(e: wildfire_atmos::AtmosError) -> Self {
        CoupledError::Atmos(e)
    }
}

impl From<wildfire_fire::FireError> for CoupledError {
    fn from(e: wildfire_fire::FireError) -> Self {
        CoupledError::Fire(e)
    }
}

impl From<wildfire_grid::GridError> for CoupledError {
    fn from(e: wildfire_grid::GridError) -> Self {
        CoupledError::Grid(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, CoupledError>;
