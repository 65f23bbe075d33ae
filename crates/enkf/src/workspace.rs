//! Reusable scratch buffers for allocation-free filter analyses.
//!
//! One stochastic-EnKF analysis needs the two anomaly matrices, the
//! whitened perturbed innovations, the state update (all `n × N` or
//! `m × N`) and three `N × N` ensemble-space matrices. On the paper's cycle
//! (analysis every few minutes of simulation time, 25 members, grid-sized
//! states) that is megabytes of allocator traffic per cycle for buffers
//! whose shapes never change. [`AnalysisWorkspace`] owns them all: sized on
//! first use, reused thereafter, so a steady-state analysis performs no
//! heap allocation. No buffer is `m × m`: both filters solve in ensemble
//! space.

use wildfire_math::{EigenWorkspace, Matrix, SymmetricEigen};

/// Scratch buffers for one EnKF/ETKF analysis.
///
/// A single workspace serves analyses of different shapes (buffers resize,
/// reusing capacity) and is shared by the stochastic EnKF, the ETKF, and —
/// through [`crate::morphing_enkf::MorphingWorkspace`] — the morphing EnKF.
#[derive(Debug, Clone, Default)]
pub struct AnalysisWorkspace {
    /// State anomaly matrix `A` (`n × N`).
    pub a: Matrix,
    /// Observation anomaly matrix `HA` (`m × N`); the stochastic filter
    /// whitens it in place into `S̃ = R̃^{-1/2}·HA`.
    pub ha: Matrix,
    /// Ensemble-space matrix `M = I + S̃ᵀS̃/(N−1)` (`N × N`) of both
    /// filters.
    pub c: Matrix,
    /// Cholesky factor of `M` (`N × N`) — the ETKF keeps `M^{-1/2}` here.
    pub l: Matrix,
    /// Whitened perturbed innovations `Δ̃ = R̃^{-1/2}·Δ` (`m × N`) — the
    /// ETKF keeps its scaled observation anomalies here.
    pub delta: Matrix,
    /// Ensemble-space weights `W` (`N × N`) — the ETKF keeps `M⁻¹` here.
    pub w: Matrix,
    /// State update `A·W` (`n × N`) — the ETKF reuses this slot for its
    /// transformed anomalies.
    pub update: Matrix,
    /// Ensemble mean of the state.
    pub mean_x: Vec<f64>,
    /// Ensemble mean of the synthetic observations.
    pub mean_y: Vec<f64>,
    /// Length-`m` observation-space scratch: `R̃^{-1/2}` in the stochastic
    /// filter, the scaled mean innovation in the ETKF.
    pub innov: Vec<f64>,
    /// Length-`N` ensemble-space scratch.
    pub wvec: Vec<f64>,
    /// Second length-`N` ensemble-space scratch (the ETKF mean-update
    /// weights).
    pub wvec2: Vec<f64>,
    /// Length-`n` state-space scratch.
    pub xvec: Vec<f64>,
    /// Reusable eigendecomposition of the ETKF ensemble-space matrix
    /// (`N × N`) — the last allocating piece of the deterministic analysis.
    pub eig: SymmetricEigen,
    /// Jacobi scratch backing `eig`.
    pub eig_ws: EigenWorkspace,
}

impl AnalysisWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
