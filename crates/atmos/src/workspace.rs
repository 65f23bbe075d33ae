//! Reusable scratch buffers for allocation-free atmospheric stepping.
//!
//! A step of [`AtmosModel::step_ws`](crate::AtmosModel::step_ws) needs
//! eleven tendency and projection vectors plus the pressure solve's
//! transform tables. An [`AtmosWorkspace`] owns all of them; buffers are
//! sized lazily from the grid on first use and reused thereafter, so
//! steady-state stepping performs no heap allocation. Hold one workspace
//! per thread.

use crate::poisson::SpectralTables;

/// Pressure-solver scratch: the transform tables of
/// [`crate::poisson::solve_poisson_into`], built on the first solve for a
/// grid, so later solves on that grid run allocation-free.
#[derive(Debug, Clone, Default)]
pub struct PoissonWorkspace {
    /// Transform tables and line scratch of the direct solve.
    pub(crate) spectral: SpectralTables,
}

/// Scratch buffers for [`crate::AtmosModel`] stepping.
#[derive(Debug, Clone, Default)]
pub struct AtmosWorkspace {
    /// Advective tendency of `u`.
    pub(crate) du_adv: Vec<f64>,
    /// Advective tendency of `v`.
    pub(crate) dv_adv: Vec<f64>,
    /// Advective tendency of `w` (face-count length).
    pub(crate) dw_adv: Vec<f64>,
    /// Advective tendency of θ′.
    pub(crate) dtheta_adv: Vec<f64>,
    /// Advective tendency of q′.
    pub(crate) dqv_adv: Vec<f64>,
    /// Diffusive tendency of `u`.
    pub(crate) du_dif: Vec<f64>,
    /// Diffusive tendency of `v`.
    pub(crate) dv_dif: Vec<f64>,
    /// Diffusive tendency of θ′.
    pub(crate) dtheta_dif: Vec<f64>,
    /// Diffusive tendency of q′.
    pub(crate) dqv_dif: Vec<f64>,
    /// Vertical heat-insertion profile weights (length `nz`).
    pub(crate) weights: Vec<f64>,
    /// Velocity divergence (pressure-solver right-hand side).
    pub(crate) div: Vec<f64>,
    /// Pressure potential φ.
    pub(crate) phi: Vec<f64>,
    /// Scratch of the Poisson solve.
    pub(crate) poisson: PoissonWorkspace,
}

impl AtmosWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
