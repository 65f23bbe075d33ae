//! Shims for the names the benchmark's pinned API still imports. There is
//! no multigrid solver: the projection solves exactly with
//! [`crate::poisson::solve_poisson_into`].

use crate::poisson::solve_poisson_into;
use crate::state::AtmosGrid;
use crate::{PoissonSolver, PoissonWorkspace, Result};

/// Scratch of [`solve_poisson_mg_into`]: a [`PoissonWorkspace`].
///
/// Kept only for `benchmark/src/api.rs`; deleted by ROADMAP 1a.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct MgHierarchy(PoissonWorkspace);

impl MgHierarchy {
    /// An empty workspace. Kept only for `benchmark/src/api.rs`; deleted by
    /// ROADMAP 1a.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The exact solve of [`solve_poisson_into`], returning 0 cycles; `tol`
/// and `max_cycles` are ignored.
///
/// Kept only for `benchmark/src/api.rs`; deleted by ROADMAP 1a.
///
/// # Errors
/// As [`solve_poisson_into`].
#[doc(hidden)]
pub fn solve_poisson_mg_into(
    g: &AtmosGrid,
    rhs: &[f64],
    tol: f64,
    max_cycles: usize,
    mg: &mut MgHierarchy,
    out: &mut Vec<f64>,
) -> Result<usize> {
    let solver = PoissonSolver::Direct;
    solve_poisson_into(g, rhs, solver, tol, max_cycles, &mut mg.0, out).map(|()| 0)
}
