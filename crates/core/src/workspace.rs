//! Reusable scratch buffers for allocation-free coupled stepping.
//!
//! A coupled step touches every layer below it: the fire solver's Heun
//! temporaries, the atmosphere's tendencies and pressure-solve tables, the
//! mesh-transfer buffers between them, and the heat-flux fields. [`CoupledWorkspace`]
//! bundles all of them so [`crate::CoupledModel::step_ws`] performs no heap
//! allocation in steady state. Hold one workspace per thread (the ensemble
//! layer keeps one per worker); the buffers carry capacity, not state.

use wildfire_atmos::AtmosWorkspace;
use wildfire_fire::heat::HeatFluxFields;
use wildfire_fire::FireWorkspace;
use wildfire_grid::{Field2, VectorField2};

/// Scratch buffers for [`crate::CoupledModel`] stepping.
#[derive(Debug, Clone, Default)]
pub struct CoupledWorkspace {
    /// Fire-solver temporaries (Heun stages, crossing detection).
    pub fire: FireWorkspace,
    /// Atmosphere temporaries (tendencies, pressure-solve tables).
    pub atmos: AtmosWorkspace,
    /// Wind on the fine fire mesh (prolonged or ambient).
    pub(crate) wind: VectorField2,
    /// Near-surface wind on the coarse horizontal grid.
    pub(crate) surface_wind: VectorField2,
    /// Heat fluxes on the fine fire mesh.
    pub(crate) fluxes: HeatFluxFields,
    /// Sensible flux restricted to the coarse horizontal grid.
    pub(crate) sensible_coarse: Field2,
    /// Latent flux restricted to the coarse horizontal grid.
    pub(crate) latent_coarse: Field2,
}

impl CoupledWorkspace {
    /// An empty workspace; every buffer is sized on first use and reused
    /// thereafter, including across models of different grid sizes.
    pub fn new() -> Self {
        Self::default()
    }
}
