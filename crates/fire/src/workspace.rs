//! Reusable scratch buffers for allocation-free fire stepping.
//!
//! The paper's real-time constraint (§4) means the level-set solver runs in
//! the hot loop of every ensemble member; the seed implementation cloned ψ
//! twice per Heun step. A [`FireWorkspace`] owns those temporaries instead:
//! it is sized lazily on first use and reused thereafter, so steady-state
//! stepping performs no heap allocation. Hold one workspace per thread —
//! the buffers carry no state between steps, only capacity (the active
//! row spans included: they are recomputed from ψ at every step).

use crate::kernel::ActiveRows;
use wildfire_grid::Field2;

/// Scratch buffers for [`crate::LevelSetSolver`] stepping.
///
/// Create once (cheaply — all buffers start empty) and pass to the `_ws`
/// stepping entry points. A single workspace can serve grids of different
/// sizes; buffers grow to the largest shape seen and shrink-free resizing
/// keeps later smaller grids allocation-free too.
///
/// (There is deliberately no "ψ before the update" buffer: the fused
/// integrator passes read each node's old value in the same sweep that
/// overwrites it, so the ignition-time crossing detection needs no copy.)
#[derive(Debug, Clone, Default)]
pub struct FireWorkspace {
    /// First-stage slope `k1 = −S‖∇ψ‖` at the current state.
    pub(crate) k1: Field2,
    /// Second-stage slope, evaluated at the Heun predictor.
    pub(crate) k2: Field2,
    /// Heun predictor `ψ* = ψ + dt·k1`.
    pub(crate) psi_star: Field2,
    /// Per-row spans of the nodes the current step can move, recomputed
    /// from ψ at every step. `k1`, `k2` and `psi_star` are valid only on
    /// these spans (dilated); elsewhere they hold stale values.
    pub(crate) active: ActiveRows,
}

impl FireWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Scratch buffers for [`crate::reinit::reinitialize_into`]: the unsigned
/// distance field and the frozen-node mask of the fast-sweeping solver.
/// Sized lazily on first use and reused thereafter, so steady-state
/// reinitialization performs no heap allocation (pinned by the
/// counting-allocator test in `tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default)]
pub struct ReinitWorkspace {
    /// Unsigned distance to the interface, per node.
    pub(crate) dist: Vec<f64>,
    /// Nodes whose distance was fixed exactly in the initialization phase.
    pub(crate) frozen: Vec<bool>,
}

impl ReinitWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
