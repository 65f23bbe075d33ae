//! Level-set front propagation (§2.2).
//!
//! Solves `∂ψ/∂t + S‖∇ψ‖ = 0` where the spread rate `S ≥ 0` comes from the
//! fuel model and the local wind/slope. The gradient is approximated by
//! Godunov upwinding with the selection rule quoted verbatim from the paper:
//!
//! > each partial derivative is approximated by the left difference if both
//! > the left and the central differences are nonnegative, by the right
//! > difference if both the right and the central differences are
//! > nonpositive, and taken as zero otherwise.
//!
//! Time integration is Heun's method (RK2). The paper is explicit about why:
//! explicit Euler "systematically overestimates ψ and thus slows down fire
//! propagation or even stops it altogether while Heun's method behaves
//! reasonably well" — not an accuracy argument but a conservation one. Both
//! integrators are exposed so experiment E5 can reproduce that claim.
//!
//! Three things coexist here, each pinned bitwise to the one before it (the
//! private `kernel` module's header has the details):
//!
//! * the paper-faithful per-node RHS
//!   ([`LevelSetSolver::rhs_reference_into`]) — the semantic oracle;
//! * the fused whole-field RHS ([`LevelSetSolver::rhs_into`]) — the same
//!   bits from a row-sweep kernel over precomputed planes, pinned by
//!   `tests/proptest_levelset_fused.rs`;
//! * **banded stepping** — [`LevelSetSolver::step_ws`] and
//!   [`LevelSetSolver::advance_to_stats_ws`] run that kernel and the
//!   integrator updates only on the per-row spans of nodes that can move.
//!   A node is *quiet* when ψ is finite, positive and equal to its four
//!   neighbours; its RHS is exactly 0, and a node whose radius-2 diamond is
//!   quiet is left bit for bit as it was by both Heun stages. The spans are
//!   recomputed from ψ at every step — a pure function of the state, so a
//!   fresh workspace, a restored snapshot and a replay all get the same
//!   bits — and the result is bitwise the whole-field sweep for every
//!   input (`tests/proptest_levelset_band.rs`). There is no other stepping
//!   path and no switch.
//!
//! Signed-distance ψ has no flat region; `CoupledModel::ignite` makes one by
//! capping ψ₀ 32 cells outside the ignition shapes. Only the outside is
//! capped: upwinding differences toward lower ψ, so the front is fed from
//! the burned side. (That cap is an approximation of the coupled model's,
//! with a measured reach; the banded sweep itself is exact for any ψ.)

use crate::kernel::{self, KernelPlanes, RowSpan};
use crate::mesh::FireMesh;
use crate::state::FireState;
use crate::workspace::FireWorkspace;
use crate::{FireError, Result};
use wildfire_grid::{Field2, NodeBox, VectorField2};

/// Time integrator for the level-set equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrator {
    /// Explicit Euler — kept for the paper's ablation (E5); biased slow.
    Euler,
    /// Heun / RK2 — the paper's production choice.
    Heun,
}

/// Spatial discretization of `∇ψ` in the Hamiltonian `S‖∇ψ‖`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradientScheme {
    /// Godunov upwinding with the paper's selection rule — monotone, the
    /// production scheme.
    Godunov,
    /// Plain central differences — non-monotone; exposes the integrator
    /// sensitivity the paper describes (explicit Euler develops grid
    /// oscillations that freeze the front, Heun "behaves reasonably well").
    /// Used by experiment E5 only.
    Central,
}

/// Cumulative statistics from a [`LevelSetSolver::advance_to_stats_ws`]
/// call: how many sub-steps ran and the largest spread rate any of them
/// encountered (the quantity the CFL bound watches).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AdvanceStats {
    /// Number of integrator sub-steps taken.
    pub steps: usize,
    /// Maximum spread rate `S` (m/s) seen across all sub-steps' RHS
    /// evaluations; `0.0` when nothing propagated (or no step ran).
    pub max_spread_rate: f64,
    /// Nodes visited by the first RHS stage, summed over the sub-steps —
    /// band occupancy. It follows the fire, not the mesh: the same fire on
    /// a larger domain visits the same number of nodes.
    pub active_nodes: usize,
}

/// Level-set solver bound to a fire mesh.
///
/// Construction flattens the mesh's static inputs (fuel coefficients,
/// terrain gradient) into the planes the fused RHS kernel streams. The
/// mesh is private and there is no mutable access to it, so the planes can
/// never go stale: read it through [`LevelSetSolver::mesh`]; a different
/// landscape is a new solver.
#[derive(Debug, Clone)]
pub struct LevelSetSolver {
    /// Static domain description (grid, fuels, terrain). Kept private and
    /// immutable — the fused kernel's planes are flattened from it once.
    mesh: FireMesh,
    /// Time integration scheme.
    pub integrator: Integrator,
    /// CFL safety factor in `(0, 1]` applied by [`LevelSetSolver::max_stable_dt_ws`].
    pub cfl: f64,
    /// When true (default), [`LevelSetSolver::step_ws`] rejects steps beyond the
    /// CFL bound. Experiment E5 disables this to study integrator behaviour
    /// in the marginally-stable regime where the paper observed Euler
    /// stalling the fire.
    pub enforce_cfl: bool,
    /// Spatial gradient scheme; [`GradientScheme::Godunov`] in production.
    pub gradient: GradientScheme,
    /// Flattened static planes for the fused RHS kernel.
    planes: KernelPlanes,
}

impl LevelSetSolver {
    /// Solver with the paper's defaults: Heun integration, Godunov
    /// upwinding, CFL factor 0.9.
    pub fn new(mesh: FireMesh) -> Self {
        let planes = KernelPlanes::build(&mesh);
        LevelSetSolver {
            mesh,
            integrator: Integrator::Heun,
            cfl: 0.9,
            enforce_cfl: true,
            gradient: GradientScheme::Godunov,
            planes,
        }
    }

    /// Read access to the static domain description (grid, fuels, terrain).
    pub fn mesh(&self) -> &FireMesh {
        &self.mesh
    }

    /// Upwinded partial derivatives of ψ at a node — the paper's Godunov
    /// selection per axis. Returns `(Dx, Dy)`.
    pub(crate) fn godunov_gradient(psi: &Field2, ix: usize, iy: usize) -> (f64, f64) {
        let select = |left: f64, right: f64, central: f64| -> f64 {
            if left >= 0.0 && central >= 0.0 {
                left
            } else if right <= 0.0 && central <= 0.0 {
                right
            } else {
                0.0
            }
        };
        let dx = psi.diff_x(ix, iy);
        let dy = psi.diff_y(ix, iy);
        (
            select(dx.left, dx.right, dx.central),
            select(dy.left, dy.right, dy.central),
        )
    }

    /// Spread rate `S` at a node for the given upwinded gradient.
    ///
    /// The front normal is `n⃗ = ∇ψ/‖∇ψ‖` (level-set identity). Where the
    /// upwinded gradient vanishes (flat plateau of ψ, e.g. deep inside the
    /// burned region) the directional terms drop and `S` reduces to the
    /// clipped `R0` — nothing propagates there anyway since `‖∇ψ‖ = 0`.
    fn spread_rate_at(&self, ix: usize, iy: usize, grad: (f64, f64), wind: &VectorField2) -> f64 {
        let fuel = self.mesh.fuel.at(ix, iy);
        let norm = (grad.0 * grad.0 + grad.1 * grad.1).sqrt();
        if norm == 0.0 {
            return fuel.spread_rate(0.0, 0.0);
        }
        let n = (grad.0 / norm, grad.1 / norm);
        let (wu, wv) = wind.get(ix, iy);
        let wind_along = wu * n.0 + wv * n.1;
        let (tzx, tzy) = self.mesh.terrain.gradient(ix, iy);
        let slope_along = tzx * n.0 + tzy * n.1;
        fuel.spread_rate(wind_along, slope_along)
    }

    /// Right-hand side `dψ/dt = −S‖∇ψ‖` over the whole field, plus the
    /// maximum spread rate encountered (for CFL monitoring).
    pub fn rhs(&self, psi: &Field2, wind: &VectorField2) -> (Field2, f64) {
        let mut out = Field2::zeros(psi.grid());
        let s_max = self.rhs_into(psi, wind, &mut out);
        (out, s_max)
    }

    /// Allocation-free [`LevelSetSolver::rhs`]: overwrites `out` (re-targeted
    /// to ψ's grid) and returns the maximum spread rate.
    ///
    /// This is the production path: the fused row-sweep kernel of
    /// the private `kernel` module, bitwise-identical to
    /// [`LevelSetSolver::rhs_reference_into`] (pinned by the property
    /// suite). When ψ lives on a different grid than the solver's planes
    /// (legal for this entry point, unlike stepping), the reference path
    /// serves the request — it needs no precomputation.
    pub fn rhs_into(&self, psi: &Field2, wind: &VectorField2, out: &mut Field2) -> f64 {
        if psi.grid() != self.planes.grid() {
            return self.rhs_reference_into(psi, wind, out);
        }
        let nx = psi.grid().nx;
        self.rhs_on(psi, wind, out, &|_| (0, nx))
    }

    /// The fused RHS on the given row spans: `out` is written there and
    /// nowhere else, and the returned maximum spread rate is taken over the
    /// visited nodes. Quiet nodes never contribute to it, so any set of
    /// spans that covers the non-quiet nodes returns the whole-field value.
    fn rhs_on(&self, psi: &Field2, wind: &VectorField2, out: &mut Field2, span: RowSpan) -> f64 {
        match self.gradient {
            GradientScheme::Godunov => {
                kernel::rhs_fused_into::<true>(&self.planes, psi, wind, out, span)
            }
            GradientScheme::Central => {
                kernel::rhs_fused_into::<false>(&self.planes, psi, wind, out, span)
            }
        }
    }

    /// Stage 1 of a step: marks the nodes that can move (`ws.active`, from
    /// ψ alone) and evaluates `k1 = −S‖∇ψ‖` on their spans dilated by 2 —
    /// everything the predictor needs. Returns the maximum spread rate.
    fn first_stage(&self, psi: &Field2, wind: &VectorField2, ws: &mut FireWorkspace) -> f64 {
        ws.active.mark(psi);
        let FireWorkspace { k1, active, .. } = ws;
        self.rhs_on(psi, wind, k1, &|iy| active.dilated(iy, 2))
    }

    /// The paper-faithful scalar RHS: one node at a time through the
    /// boundary-aware `diff_x`/`diff_y` stencils and the full
    /// [`crate::FuelModel::spread_rate`] law, exactly as §2.2
    /// transcribes. Kept verbatim as the semantic reference the fused
    /// kernel is pinned against — `tests/proptest_levelset_fused.rs`
    /// asserts bitwise equality of the two on random fields, winds,
    /// terrains and fuel maps. Use [`LevelSetSolver::rhs_into`] for
    /// production stepping; this path exists for verification and for the
    /// `level_set_rhs` benchmark.
    pub fn rhs_reference_into(&self, psi: &Field2, wind: &VectorField2, out: &mut Field2) -> f64 {
        let g = psi.grid();
        // The zeroing is load-bearing: nodes skipped below (zero gradient,
        // or zero spread rate) must read as exactly 0 in the RHS, so this
        // must stay `resize_zeroed` — not the faster `resize_no_zero` used
        // by fully-overwriting kernels.
        out.resize_zeroed(g);
        let mut s_max = 0.0_f64;
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let grad = match self.gradient {
                    GradientScheme::Godunov => Self::godunov_gradient(psi, ix, iy),
                    GradientScheme::Central => psi.gradient(ix, iy),
                };
                let norm = (grad.0 * grad.0 + grad.1 * grad.1).sqrt();
                if norm == 0.0 {
                    continue;
                }
                let s = self.spread_rate_at(ix, iy, grad, wind);
                s_max = s_max.max(s);
                out.set(ix, iy, -s * norm);
            }
        }
        s_max
    }

    /// Largest stable time step for the current state and wind under the
    /// 2-D upwind CFL condition `dt · S · (1/dx + 1/dy) ≤ cfl`, using
    /// workspace scratch. A loop that steps right after asking should use
    /// [`LevelSetSolver::advance_to_ws`], which shares one RHS evaluation
    /// between the bound and the step.
    pub fn max_stable_dt_ws(
        &self,
        state: &FireState,
        wind: &VectorField2,
        ws: &mut FireWorkspace,
    ) -> f64 {
        let s_max = self.rhs_into(&state.psi, wind, &mut ws.k1);
        self.cfl_bound(s_max)
    }

    /// The safety-factored stability bound `cfl / (S·(1/dx + 1/dy))` for a
    /// given maximum spread rate (infinite when nothing propagates) — the
    /// single home of the CFL convention shared by
    /// [`LevelSetSolver::max_stable_dt_ws`] and
    /// [`LevelSetSolver::advance_to_ws`].
    fn cfl_bound(&self, s_max: f64) -> f64 {
        let g = self.mesh.grid;
        if s_max <= 0.0 {
            return f64::INFINITY;
        }
        self.cfl / (s_max * (1.0 / g.dx + 1.0 / g.dy))
    }

    /// Advances the state by one step of length `dt`.
    ///
    /// Updates ψ with the configured integrator, then sets ignition times
    /// for nodes whose ψ crossed zero during the step (linear interpolation
    /// of the crossing instant, as the front-arrival time). All temporaries
    /// come from `ws`, which is sized on first use and reused thereafter.
    ///
    /// # Errors
    /// [`FireError::GridMismatch`] when the wind lives on a different grid;
    /// [`FireError::CflViolation`] when `dt` exceeds the stability bound.
    pub fn step_ws(
        &self,
        state: &mut FireState,
        wind: &VectorField2,
        dt: f64,
        ws: &mut FireWorkspace,
    ) -> Result<()> {
        if wind.grid() != self.mesh.grid || state.grid() != self.mesh.grid {
            return Err(FireError::GridMismatch("level-set step"));
        }
        let s_max = self.first_stage(&state.psi, wind, ws);
        self.step_prepared(state, wind, dt, s_max, ws)
    }

    /// Completes one step whose first stage (`first_stage`: active spans,
    /// `k1` on them, `s_max`) is already in `ws` for the *current* ψ — the
    /// seam that lets [`LevelSetSolver::advance_to_ws`] share one RHS
    /// evaluation between the CFL bound and the step itself instead of
    /// evaluating it twice. The predictor runs on the spans dilated by 2,
    /// the second RHS and the update on the spans dilated by 1; every other
    /// node is one the whole-field sweep would have left bit for bit as it
    /// was (the quiet-node contract in the `kernel` module header).
    fn step_prepared(
        &self,
        state: &mut FireState,
        wind: &VectorField2,
        dt: f64,
        s_max: f64,
        ws: &mut FireWorkspace,
    ) -> Result<()> {
        let g = self.mesh.grid;
        if self.enforce_cfl && s_max > 0.0 {
            let dt_max = 1.0 / (s_max * (1.0 / g.dx + 1.0 / g.dy));
            if dt > dt_max {
                return Err(FireError::CflViolation { dt, dt_max });
            }
        }
        // The integrator update and the ignition-time crossing detection
        // (ψ crossed zero within (t, t+dt]) run as one fused sweep: each
        // node's pre-update ψ is read in the same pass that overwrites it,
        // so no "ψ before the step" copy exists at all. Operation order per
        // node matches the separate update-then-scan formulation exactly.
        let t0 = state.time;
        if !dt.is_finite() {
            // `0·dt` is NaN, so even a quiet node moves: redo stage 1 on
            // every node (same `s_max` — quiet nodes add nothing to it).
            ws.active.mark_all();
            let FireWorkspace { k1, active, .. } = &mut *ws;
            self.rhs_on(&state.psi, wind, k1, &|iy| active.dilated(iy, 2));
        }
        let FireWorkspace {
            k1,
            k2,
            psi_star,
            active,
        } = ws;
        let (inner, outer) = (|iy| active.dilated(iy, 1), |iy| active.dilated(iy, 2));
        match self.integrator {
            Integrator::Euler => {
                kernel::euler_update_and_mark(&mut state.psi, &mut state.tig, k1, dt, t0, &inner);
            }
            Integrator::Heun => {
                // Predictor ψ* = ψ + dt·k1, one fused pass (same operation
                // order as copy_from + axpy).
                kernel::scaled_sum_into(&state.psi, dt, k1, psi_star, &outer);
                // Corrector with the slope re-evaluated at the predictor.
                self.rhs_on(psi_star, wind, k2, &inner);
                kernel::heun_correct_and_mark(
                    &mut state.psi,
                    &mut state.tig,
                    k1,
                    k2,
                    0.5 * dt,
                    t0,
                    dt,
                    &inner,
                );
            }
        }
        state.time = t0 + dt;
        Ok(())
    }

    /// The box of fire-mesh nodes that [`LevelSetSolver::advance_to_stats_ws`]
    /// can touch when it advances `psi` by `dt` (with `dt` as the step
    /// hint), so the wind needs to be valid only there. Empty when nothing
    /// can move. Each sub-step sweeps the non-quiet nodes dilated by 2 and
    /// can wake at most that ring, and the palette's largest `max_spread`
    /// bounds `s_max` and with it the number of CFL sub-steps `n` — hence
    /// the bounding box of the non-quiet nodes grown by `2n`.
    pub fn reach(&self, psi: &Field2, dt: f64, ws: &mut FireWorkspace) -> NodeBox {
        let g = psi.grid();
        // One spare sub-step for the round-off sliver that can be left
        // before the target time.
        let sub_steps = (dt / dt.min(self.cfl_bound(self.planes.max_spread()))).ceil() + 1.0;
        let bounded = sub_steps < 1e6; // false for NaN too
        if g != self.mesh.grid || !bounded {
            return NodeBox::full(g);
        }
        ws.active.mark(psi);
        ws.active.bounding_box().dilated(2 * sub_steps as usize, g)
    }

    /// Advances to `t_target` by repeated stable steps (each no larger than
    /// both `dt_hint` and the CFL bound). Returns the number of steps taken.
    ///
    /// The level-set RHS is evaluated **once** per step: the same
    /// `k1 = −S‖∇ψ‖` that yields the CFL bound is handed to the integrator.
    /// Bit-identical to driving [`LevelSetSolver::max_stable_dt_ws`] +
    /// [`LevelSetSolver::step_ws`] by hand, at roughly two-thirds the
    /// Heun-step cost.
    ///
    /// # Errors
    /// Propagates stepping errors.
    pub fn advance_to_ws(
        &self,
        state: &mut FireState,
        wind: &VectorField2,
        t_target: f64,
        dt_hint: f64,
        ws: &mut FireWorkspace,
    ) -> Result<usize> {
        Ok(self
            .advance_to_stats_ws(state, wind, t_target, dt_hint, ws)?
            .steps)
    }

    /// [`LevelSetSolver::advance_to_ws`] that also reports the maximum
    /// spread rate encountered: the plain loop over `rhs_into` →
    /// `cfl_bound` → `step_prepared`, one RHS evaluation per step.
    ///
    /// # Errors
    /// [`FireError::GridMismatch`] when a step is due and the state or wind
    /// lives off the solver grid; propagates stepping errors.
    pub fn advance_to_stats_ws(
        &self,
        state: &mut FireState,
        wind: &VectorField2,
        t_target: f64,
        dt_hint: f64,
        ws: &mut FireWorkspace,
    ) -> Result<AdvanceStats> {
        let mut stats = AdvanceStats::default();
        // Defensive cap against a dt that never reaches the horizon.
        while state.time < t_target - 1e-12 && stats.steps <= 1_000_000 {
            if wind.grid() != self.mesh.grid || state.grid() != self.mesh.grid {
                return Err(FireError::GridMismatch("level-set step"));
            }
            let s_max = self.first_stage(&state.psi, wind, ws);
            let dt = dt_hint
                .min(self.cfl_bound(s_max))
                .min(t_target - state.time);
            self.step_prepared(state, wind, dt, s_max, ws)?;
            stats.steps += 1;
            stats.max_spread_rate = stats.max_spread_rate.max(s_max);
            stats.active_nodes += ws.active.visited(2);
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ignition::IgnitionShape;
    use crate::FuelCategory;
    use crate::UNBURNED;
    use wildfire_grid::Grid2;

    fn grass_solver(n: usize, dx: f64) -> LevelSetSolver {
        let grid = Grid2::new(n, n, dx, dx).unwrap();
        LevelSetSolver::new(FireMesh::flat(grid, FuelCategory::ShortGrass))
    }

    fn circle_state(solver: &LevelSetSolver, radius: f64) -> FireState {
        let g = solver.mesh.grid;
        let (ex, ey) = g.extent();
        FireState::ignite(
            g,
            &[IgnitionShape::Circle {
                center: (ex / 2.0, ey / 2.0),
                radius,
            }],
            0.0,
        )
    }

    #[test]
    fn godunov_picks_left_on_positive_slope() {
        let g = Grid2::new(5, 1, 1.0, 1.0).unwrap();
        let psi = Field2::from_world_fn(g, |x, _| x); // increasing
        let (dx, dy) = LevelSetSolver::godunov_gradient(&psi, 2, 0);
        assert!((dx - 1.0).abs() < 1e-12);
        assert_eq!(dy, 0.0);
    }

    #[test]
    fn godunov_picks_right_on_negative_slope() {
        let g = Grid2::new(5, 1, 1.0, 1.0).unwrap();
        let psi = Field2::from_world_fn(g, |x, _| -2.0 * x);
        let (dx, _) = LevelSetSolver::godunov_gradient(&psi, 2, 0);
        assert!((dx + 2.0).abs() < 1e-12);
    }

    #[test]
    fn godunov_zero_at_minimum() {
        // ψ = |x−2|: at the minimum the paper's rule yields zero (the front
        // neither advances from the left nor the right at a trough).
        let g = Grid2::new(5, 1, 1.0, 1.0).unwrap();
        let psi = Field2::from_world_fn(g, |x, _| (x - 2.0).abs());
        let (dx, _) = LevelSetSolver::godunov_gradient(&psi, 2, 0);
        assert_eq!(dx, 0.0);
    }

    #[test]
    fn godunov_at_maximum_keeps_outflow() {
        // ψ = −|x−2| has a kink maximum at x=2: left diff = +1 ≥ 0 but
        // central = 0 ≥ 0, so the paper's rule picks the left difference.
        let g = Grid2::new(5, 1, 1.0, 1.0).unwrap();
        let psi = Field2::from_world_fn(g, |x, _| -(x - 2.0).abs());
        let (dx, _) = LevelSetSolver::godunov_gradient(&psi, 2, 0);
        assert!((dx - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fire_expands_without_wind() {
        let solver = grass_solver(41, 2.0);
        let mut state = circle_state(&solver, 8.0);
        let wind = VectorField2::zeros(solver.mesh.grid);
        let a0 = state.burned_area();
        solver
            .advance_to_ws(&mut state, &wind, 60.0, 1.0, &mut FireWorkspace::new())
            .unwrap();
        let a1 = state.burned_area();
        assert!(a1 > a0, "area must grow: {a0} → {a1}");
        assert!(state.is_consistent());
    }

    #[test]
    fn no_fire_never_ignites() {
        let solver = grass_solver(21, 2.0);
        let mut state = FireState::unburned(solver.mesh.grid);
        let wind = VectorField2::zeros(solver.mesh.grid);
        solver
            .advance_to_ws(&mut state, &wind, 30.0, 1.0, &mut FireWorkspace::new())
            .unwrap();
        assert_eq!(state.burned_nodes(), 0);
    }

    #[test]
    fn burned_region_never_shrinks() {
        let solver = grass_solver(31, 2.0);
        let mut state = circle_state(&solver, 6.0);
        let wind = VectorField2::from_fn(solver.mesh.grid, |_, _| (3.0, 1.0));
        let mut ws = FireWorkspace::new();
        let mut prev = state.burned_nodes();
        for _ in 0..20 {
            let dt = solver.max_stable_dt_ws(&state, &wind, &mut ws).min(1.0);
            solver.step_ws(&mut state, &wind, dt, &mut ws).unwrap();
            let now = state.burned_nodes();
            assert!(now >= prev, "monotone growth violated: {prev} → {now}");
            prev = now;
        }
    }

    #[test]
    fn wind_advects_fire_downwind() {
        let solver = grass_solver(61, 2.0);
        let mut state = circle_state(&solver, 6.0);
        // Strong +x wind.
        let wind = VectorField2::from_fn(solver.mesh.grid, |_, _| (8.0, 0.0));
        solver
            .advance_to_ws(&mut state, &wind, 30.0, 0.5, &mut FireWorkspace::new())
            .unwrap();
        let g = solver.mesh.grid;
        let (cx, cy) = (g.nx / 2, g.ny / 2);
        // Measure the front reach left and right of the ignition center.
        let mut reach_right = 0;
        let mut reach_left = 0;
        for i in 0..g.nx / 2 {
            if state.psi.get(cx + i, cy) < 0.0 {
                reach_right = i;
            }
            if state.psi.get(cx - i, cy) < 0.0 {
                reach_left = i;
            }
        }
        assert!(
            reach_right > reach_left,
            "downwind reach {reach_right} must exceed upwind reach {reach_left}"
        );
    }

    #[test]
    fn circular_spread_rate_matches_r0_without_wind() {
        // With no wind and flat terrain the front moves at the damped R0;
        // check the radius growth over a known interval.
        let solver = grass_solver(81, 1.0);
        let mut state = circle_state(&solver, 10.0);
        let wind = VectorField2::zeros(solver.mesh.grid);
        let fuel = solver.mesh.fuel.at(0, 0);
        let s = fuel.spread_rate(0.0, 0.0);
        assert!(s > 0.0);
        let t_end = 100.0;
        solver
            .advance_to_ws(&mut state, &wind, t_end, 0.5, &mut FireWorkspace::new())
            .unwrap();
        // Expected radius = 10 + s·t; measured from burned area πr².
        let r_expected = 10.0 + s * t_end;
        let r_measured = (state.burned_area() / std::f64::consts::PI).sqrt();
        let rel = (r_measured - r_expected).abs() / r_expected;
        assert!(
            rel < 0.10,
            "radius {r_measured} vs {r_expected} (rel {rel})"
        );
    }

    #[test]
    fn heun_and_euler_agree_at_stable_steps() {
        // Reproduction finding (E5): with the monotone Godunov upwinding of
        // §2.2, Heun and Euler coincide to a fraction of a percent at
        // CFL-stable steps — the Euler pathology the paper reports does not
        // arise in a clean monotone discretization (README "Paper claims",
        // E5).
        let mut heun = grass_solver(61, 2.0);
        heun.integrator = Integrator::Heun;
        let mut euler = heun.clone();
        euler.integrator = Integrator::Euler;
        let wind_field = |g| VectorField2::from_fn(g, |_, _| (5.0, 0.0));
        let mut sh = circle_state(&heun, 8.0);
        let mut se = sh.clone();
        let wh = wind_field(heun.mesh.grid);
        let mut ws = FireWorkspace::new();
        for _ in 0..40 {
            let dt = heun.max_stable_dt_ws(&sh, &wh, &mut ws).min(2.0);
            heun.step_ws(&mut sh, &wh, dt, &mut FireWorkspace::new())
                .unwrap();
            euler
                .step_ws(&mut se, &wh, dt, &mut FireWorkspace::new())
                .unwrap();
        }
        let (ah, ae) = (sh.burned_area(), se.burned_area());
        let rel = (ah - ae).abs() / ah.max(ae);
        assert!(rel < 0.05, "heun {ah} vs euler {ae} differ by {rel}");
        assert!(ah > 0.0 && ae > 0.0);
    }

    #[test]
    fn heun_destabilizes_before_euler_beyond_cfl() {
        // Beyond ~3× the CFL bound the two-stage method overshoots (fire too
        // fast) while the monotone Euler update stays bounded — measured by
        // the E5 sweep and pinned down here.
        let mk = |integ: Integrator| {
            let mut s = grass_solver(81, 2.0);
            s.integrator = integ;
            s.enforce_cfl = false;
            s
        };
        let heun = mk(Integrator::Heun);
        let euler = mk(Integrator::Euler);
        let wind = VectorField2::from_fn(heun.mesh.grid, |_, _| (6.0, 0.0));
        let mut sh = circle_state(&heun, 8.0);
        let mut se = sh.clone();
        let dt0 = heun.max_stable_dt_ws(&sh, &wind, &mut FireWorkspace::new());
        let dt = 4.0 * dt0;
        for _ in 0..60 {
            heun.step_ws(&mut sh, &wind, dt, &mut FireWorkspace::new())
                .unwrap();
            euler
                .step_ws(&mut se, &wind, dt, &mut FireWorkspace::new())
                .unwrap();
        }
        assert!(
            sh.burned_area() > 1.5 * se.burned_area(),
            "expected heun overshoot: heun {} vs euler {}",
            sh.burned_area(),
            se.burned_area()
        );
    }

    #[test]
    fn workspace_step_matches_allocating_step_bitwise() {
        // One reused workspace must be bit-identical to a fresh workspace
        // per step, for both integrators, across many steps.
        for integ in [Integrator::Heun, Integrator::Euler] {
            let mut solver = grass_solver(41, 2.0);
            solver.integrator = integ;
            let wind = VectorField2::from_fn(solver.mesh.grid, |ix, iy| {
                (3.0 + 0.01 * ix as f64, 1.0 - 0.01 * iy as f64)
            });
            let mut alloc = circle_state(&solver, 8.0);
            let mut ws_state = alloc.clone();
            let mut ws = FireWorkspace::new();
            for _ in 0..15 {
                let dt = solver
                    .max_stable_dt_ws(&alloc, &wind, &mut FireWorkspace::new())
                    .min(1.0);
                solver
                    .step_ws(&mut alloc, &wind, dt, &mut FireWorkspace::new())
                    .unwrap();
                solver.step_ws(&mut ws_state, &wind, dt, &mut ws).unwrap();
            }
            assert_eq!(alloc.psi, ws_state.psi, "{integ:?} ψ must match bitwise");
            assert_eq!(alloc.tig, ws_state.tig, "{integ:?} t_i must match bitwise");
            assert_eq!(alloc.time, ws_state.time);
        }
    }

    #[test]
    fn one_workspace_serves_two_grid_sizes() {
        // Reusing a workspace across solvers on different grids must resize
        // transparently and stay bit-identical to fresh workspaces.
        let mut ws = FireWorkspace::new();
        for n in [41, 21, 61] {
            let solver = grass_solver(n, 2.0);
            let wind = VectorField2::from_fn(solver.mesh.grid, |_, _| (4.0, 0.0));
            let mut shared = circle_state(&solver, 6.0);
            let mut fresh = shared.clone();
            solver
                .advance_to_ws(&mut shared, &wind, 5.0, 1.0, &mut ws)
                .unwrap();
            solver
                .advance_to_ws(&mut fresh, &wind, 5.0, 1.0, &mut FireWorkspace::new())
                .unwrap();
            assert_eq!(shared.psi, fresh.psi, "n = {n}");
            assert_eq!(shared.tig, fresh.tig, "n = {n}");
        }
    }

    #[test]
    fn advance_shares_rhs_but_matches_manual_loop_bitwise() {
        // advance_to_ws evaluates the RHS once per step (shared between the
        // CFL bound and the integrator); the result must still be
        // bit-identical to the two-evaluation manual loop.
        let solver = grass_solver(41, 2.0);
        let wind = VectorField2::from_fn(solver.mesh.grid, |ix, iy| {
            (4.0 + 0.02 * ix as f64, 0.5 - 0.01 * iy as f64)
        });
        let mut fused = circle_state(&solver, 8.0);
        let mut manual = fused.clone();
        let mut ws_f = FireWorkspace::new();
        let mut ws_m = FireWorkspace::new();
        let steps = solver
            .advance_to_ws(&mut fused, &wind, 12.0, 1.0, &mut ws_f)
            .unwrap();
        let mut manual_steps = 0;
        while manual.time < 12.0 - 1e-12 {
            let dt_cfl = solver.max_stable_dt_ws(&manual, &wind, &mut ws_m);
            let dt = 1.0_f64.min(dt_cfl).min(12.0 - manual.time);
            solver.step_ws(&mut manual, &wind, dt, &mut ws_m).unwrap();
            manual_steps += 1;
        }
        assert_eq!(steps, manual_steps);
        assert_eq!(fused.psi, manual.psi, "ψ must match bitwise");
        assert_eq!(fused.tig, manual.tig, "t_i must match bitwise");
        assert_eq!(fused.time, manual.time);
    }

    #[test]
    fn fused_rhs_matches_reference_on_live_front() {
        // Quick in-crate pin of the fused/reference contract (the full
        // random-landscape suite lives in tests/proptest_levelset_fused.rs):
        // an actual propagating front with mixed plateau and sloped regions,
        // both gradient schemes.
        for gradient in [GradientScheme::Godunov, GradientScheme::Central] {
            let mut solver = grass_solver(33, 2.0);
            solver.gradient = gradient;
            let mut state = circle_state(&solver, 7.0);
            let wind = VectorField2::from_fn(solver.mesh.grid, |ix, iy| {
                (2.0 + 0.05 * ix as f64, -1.0 + 0.04 * iy as f64)
            });
            let mut ws = FireWorkspace::new();
            solver
                .advance_to_ws(&mut state, &wind, 6.0, 1.0, &mut ws)
                .unwrap();
            let mut fused = Field2::default();
            let mut reference = Field2::default();
            let s_fused = solver.rhs_into(&state.psi, &wind, &mut fused);
            let s_ref = solver.rhs_reference_into(&state.psi, &wind, &mut reference);
            assert_eq!(s_fused.to_bits(), s_ref.to_bits(), "{gradient:?} s_max");
            for (a, b) in fused.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{gradient:?} RHS node");
            }
        }
    }

    #[test]
    fn cfl_violation_rejected() {
        let solver = grass_solver(31, 1.0);
        let mut state = circle_state(&solver, 5.0);
        let wind = VectorField2::from_fn(solver.mesh.grid, |_, _| (10.0, 0.0));
        let err = solver.step_ws(&mut state, &wind, 1e3, &mut FireWorkspace::new());
        assert!(matches!(err, Err(FireError::CflViolation { .. })));
    }

    #[test]
    fn grid_mismatch_rejected() {
        let solver = grass_solver(31, 1.0);
        let other = Grid2::new(11, 11, 1.0, 1.0).unwrap();
        let mut state = circle_state(&solver, 5.0);
        let wind = VectorField2::zeros(other);
        assert!(matches!(
            solver.step_ws(&mut state, &wind, 0.1, &mut FireWorkspace::new()),
            Err(FireError::GridMismatch(_))
        ));
    }

    #[test]
    fn ignition_times_increase_outward() {
        let solver = grass_solver(61, 1.0);
        let mut state = circle_state(&solver, 5.0);
        let wind = VectorField2::zeros(solver.mesh.grid);
        solver
            .advance_to_ws(&mut state, &wind, 200.0, 1.0, &mut FireWorkspace::new())
            .unwrap();
        let cy = solver.mesh.grid.ny / 2;
        let cx = solver.mesh.grid.nx / 2;
        // Along the +x ray, farther nodes ignite later.
        let mut prev = -1.0;
        for i in 0..25 {
            let t = state.tig.get(cx + i, cy);
            if t == UNBURNED {
                break;
            }
            assert!(t >= prev, "tig must increase outward");
            prev = t;
        }
        assert!(prev > 0.0, "fire must have spread at least a few cells");
    }
}
