//! Physical and numerical parameters of the atmospheric core.

use crate::state::AtmosGrid;

/// Pressure-projection solver selection: one variant, the exact solve of
/// [`crate::poisson::solve_poisson_into`].
///
/// Kept only for `benchmark/src/api.rs`; deleted by ROADMAP 1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PoissonSolver {
    /// The direct (transform) solve.
    #[default]
    Direct,
}

impl PoissonSolver {
    /// Whether the projection solves on `grid` by multigrid: never.
    ///
    /// Kept only for `benchmark/src/api.rs`; deleted by ROADMAP 1a.
    pub fn uses_multigrid(self, _grid: &AtmosGrid) -> bool {
        false
    }
}

/// Parameter set for [`crate::AtmosModel`].
///
/// Defaults describe a neutrally stratified boundary layer with a light
/// ambient wind — the configuration of the paper's Fig. 1 experiment (a
/// grass fire feeding buoyant updrafts into a gentle breeze).
#[derive(Debug, Clone, PartialEq)]
pub struct AtmosParams {
    /// Reference potential temperature θ₀ (K).
    pub theta0: f64,
    /// Initial ambient (geostrophic) wind, m/s: the wind of
    /// [`crate::AtmosModel::initial_state`]. Stepping relaxes the flow
    /// toward the state's own [`crate::AtmosState::ambient_wind`].
    pub ambient_wind: (f64, f64),
    /// Gravitational acceleration, m/s².
    pub gravity: f64,
    /// Air density (Boussinesq reference), kg/m³.
    pub rho: f64,
    /// Specific heat of air at constant pressure, J/(kg·K).
    pub cp: f64,
    /// E-folding depth of the fire heat insertion profile, m (§2.3:
    /// "exponential decay away from the boundary").
    pub heat_depth: f64,
    /// Bulk surface drag coefficient (1/s applied to the lowest level).
    pub surface_drag: f64,
    /// Rayleigh damping rate at the model top (1/s); ramps in over the top
    /// third of the domain.
    pub damping_rate: f64,
    /// Nudging rate of the horizontal-mean wind toward the ambient wind (1/s);
    /// keeps the periodic domain from drifting.
    pub nudge_rate: f64,
    /// Latent heat of vaporization, J/kg (for converting latent flux to a
    /// vapor tendency).
    pub latent_heat: f64,
    /// Horizontal eddy viscosity/diffusivity, m²/s (also applied to scalars).
    pub eddy_viscosity: f64,
    /// Iteration cap of the former iterative pressure solvers; ignored by
    /// the exact solve. Kept only for `benchmark/src/api.rs`; deleted by
    /// ROADMAP 1a.
    pub pressure_max_iter: usize,
    /// Relative tolerance of the former iterative pressure solvers; ignored
    /// by the exact solve. Kept only for `benchmark/src/api.rs`; deleted by
    /// ROADMAP 1a.
    pub pressure_tol: f64,
    /// Which pressure-projection solver to run (there is one). Kept only
    /// for `benchmark/src/api.rs`; deleted by ROADMAP 1a.
    pub pressure_solver: PoissonSolver,
}

impl Default for AtmosParams {
    fn default() -> Self {
        AtmosParams {
            theta0: 300.0,
            ambient_wind: (3.0, 0.0),
            gravity: 9.81,
            rho: 1.2,
            cp: 1005.0,
            heat_depth: 50.0,
            surface_drag: 0.02,
            damping_rate: 0.2,
            nudge_rate: 0.002,
            latent_heat: 2.5e6,
            eddy_viscosity: 5.0,
            pressure_max_iter: 500,
            pressure_tol: 1e-8,
            pressure_solver: PoissonSolver::Direct,
        }
    }
}

impl AtmosParams {
    /// Calm-air variant (no ambient wind), used by the rising-bubble tests.
    pub fn calm() -> Self {
        AtmosParams {
            ambient_wind: (0.0, 0.0),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_physical() {
        let p = AtmosParams::default();
        assert!(p.theta0 > 200.0 && p.theta0 < 400.0);
        assert!(p.rho > 0.0);
        assert!(p.cp > 0.0);
        assert!(p.heat_depth > 0.0);
        assert!(p.pressure_tol > 0.0 && p.pressure_tol < 1e-3);
    }

    #[test]
    fn calm_has_no_wind() {
        assert_eq!(AtmosParams::calm().ambient_wind, (0.0, 0.0));
    }
}
