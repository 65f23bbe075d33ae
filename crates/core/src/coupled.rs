//! The two-way coupled fire–atmosphere model.

use crate::diagnostics::StepDiagnostics;
use crate::workspace::CoupledWorkspace;
use crate::{CoupledError, Result};
use wildfire_atmos::state::AtmosGrid;
use wildfire_atmos::{AtmosModel, AtmosParams, AtmosState};
use wildfire_fire::heat::heat_fluxes_box_into;
use wildfire_fire::ignition::IgnitionShape;
use wildfire_fire::{FireMesh, FireState, FuelMap, LevelSetSolver};
use wildfire_fuel::FuelCategory;
use wildfire_grid::transfer::{prolong_box_into, refinement_between, restrict_box_into};
use wildfire_grid::{Grid2, NodeBox, VectorField2};

/// Width of the signed-distance band [`CoupledModel::ignite`] keeps around
/// the ignition shapes, in fire-mesh cells: ψ₀ is capped at
/// `FAR_FIELD_CELLS · max(dx, dy)`.
///
/// The cap is an approximation with a measured reach, not an identity: the
/// kink at the cap level leaks toward lower ψ by about a decade per three
/// cells. On Fig. 1 every ignition time, the burned area, the perimeter and
/// ψ within 3Δx of the front are bitwise the uncapped run's through 240 s
/// (`crates/sim/tests/far_field.rs`); carried on, the first near-front
/// difference is 2 ulp at 246 s and 0.16 m at 600 s (README, "far field").
pub const FAR_FIELD_CELLS: f64 = 32.0;

/// Joint state of the coupled system.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupledState {
    /// Fire state `(ψ, t_i)` on the fine mesh.
    pub fire: FireState,
    /// Atmospheric state on the coarse 3-D grid.
    pub atmos: AtmosState,
}

impl CoupledState {
    /// Simulation time (the two components are kept in lock-step).
    pub fn time(&self) -> f64 {
        self.fire.time
    }
}

/// The coupled model (see crate docs for the step sequence).
#[derive(Debug, Clone)]
pub struct CoupledModel {
    /// Atmospheric component (WRF substitute).
    pub atmos: AtmosModel,
    /// Fire component: level-set solver on the fine mesh.
    pub fire: LevelSetSolver,
    /// Fine fire grid, node-aligned with [`AtmosGrid::horizontal`].
    pub fire_grid: Grid2,
    /// Two-way coupling switch. `true`: fire sees the evolving atmospheric
    /// wind and feeds heat back. `false`: fire sees only the ambient wind
    /// and the atmosphere receives no heat (the Fig. 1 baseline).
    pub coupled: bool,
}

impl CoupledModel {
    /// Builds a coupled model over `atmos_grid` with the fire mesh refined
    /// `refinement`× relative to the atmospheric cells (the paper: 10), with
    /// uniform fuel and flat terrain. Use [`CoupledModel::with_fire_mesh`]
    /// for heterogeneous landscapes.
    ///
    /// # Errors
    /// Propagates invalid grids; `refinement` must be ≥ 1.
    pub fn new(
        atmos_grid: AtmosGrid,
        atmos_params: AtmosParams,
        fuel: FuelCategory,
        refinement: usize,
    ) -> Result<Self> {
        let fire_grid = Self::fire_grid_for(&atmos_grid, refinement)?;
        let mesh = FireMesh::flat(fire_grid, fuel);
        Self::with_fire_mesh(atmos_grid, atmos_params, mesh)
    }

    /// Builds a coupled model with an explicit fire mesh (fuel map, terrain).
    ///
    /// # Errors
    /// [`CoupledError::Config`] when the fire mesh is not node-aligned with
    /// the atmosphere's horizontal grid.
    pub fn with_fire_mesh(
        atmos_grid: AtmosGrid,
        atmos_params: AtmosParams,
        mesh: FireMesh,
    ) -> Result<Self> {
        let atmos = AtmosModel::new(atmos_grid, atmos_params)?;
        let fire_grid = mesh.grid;
        // Validate alignment once, eagerly.
        wildfire_grid::transfer::refinement_between(&fire_grid, &atmos_grid.horizontal())
            .map_err(|_| CoupledError::Config("fire mesh not aligned with atmosphere grid"))?;
        Ok(CoupledModel {
            atmos,
            fire: LevelSetSolver::new(mesh),
            fire_grid,
            coupled: true,
        })
    }

    /// The fine grid matching `atmos_grid.horizontal()` at the given
    /// refinement: `r·(n−1)+1` nodes per axis, spacing `dx/r`, same origin.
    ///
    /// # Errors
    /// [`CoupledError::Config`] when `refinement == 0`.
    pub fn fire_grid_for(atmos_grid: &AtmosGrid, refinement: usize) -> Result<Grid2> {
        if refinement == 0 {
            return Err(CoupledError::Config("refinement must be at least 1"));
        }
        let h = atmos_grid.horizontal();
        let nx = refinement * (h.nx - 1) + 1;
        let ny = refinement * (h.ny - 1) + 1;
        Grid2::with_origin(
            nx,
            ny,
            h.dx / refinement as f64,
            h.dy / refinement as f64,
            h.origin,
        )
        .map_err(CoupledError::Grid)
    }

    /// Builds a fuel map on the fire grid of this model (helper for painting
    /// heterogeneous fuels before [`CoupledModel::with_fire_mesh`]).
    pub fn uniform_fuel_map(&self, cat: FuelCategory) -> FuelMap {
        FuelMap::uniform_category(self.fire_grid, cat)
    }

    /// Initial coupled state: ambient atmosphere, fire ignited from shapes.
    ///
    /// ψ is the exact signed distance to the shapes up to
    /// [`FAR_FIELD_CELLS`] cells from them and a flat plateau at that value
    /// beyond — the far field the level set then skips bit for bit. Only
    /// the *outside* is capped: upwinding differences toward lower ψ, so
    /// the front is fed from the burned interior, not from the far field;
    /// a negative cap would sit upwind of the front and move it directly.
    pub fn ignite(&self, shapes: &[IgnitionShape], time: f64) -> CoupledState {
        let mut atmos = self.atmos.initial_state();
        atmos.time = time;
        let mut fire = FireState::ignite(self.fire_grid, shapes, time);
        let cap = FAR_FIELD_CELLS * self.fire_grid.dx.max(self.fire_grid.dy);
        fire.psi.map_inplace(|v| v.min(cap));
        CoupledState { fire, atmos }
    }

    /// The wind field the fire currently sees (fine mesh). With coupling on
    /// this is the prolonged near-surface atmospheric wind; with coupling
    /// off it is the uniform ambient wind.
    ///
    /// # Errors
    /// Propagates mesh-transfer failures (cannot happen once construction
    /// validated alignment).
    pub fn fire_wind(&self, state: &CoupledState) -> Result<VectorField2> {
        let mut wind = VectorField2::default();
        let mut surface = VectorField2::default();
        self.fire_wind_into(state, &mut surface, &mut wind)?;
        Ok(wind)
    }

    /// Allocation-free [`CoupledModel::fire_wind`]: writes the fine-mesh
    /// wind into `out`, using `surface` as the coarse-grid scratch.
    ///
    /// # Errors
    /// As [`CoupledModel::fire_wind`].
    pub fn fire_wind_into(
        &self,
        state: &CoupledState,
        surface: &mut VectorField2,
        out: &mut VectorField2,
    ) -> Result<()> {
        self.fire_wind_box_into(state, surface, out, NodeBox::full(self.fire_grid))
    }

    /// [`CoupledModel::fire_wind_into`] with the prolongation confined to
    /// the fine nodes of `bx`; the rest of `out` is left as it was.
    fn fire_wind_box_into(
        &self,
        state: &CoupledState,
        surface: &mut VectorField2,
        out: &mut VectorField2,
        bx: NodeBox,
    ) -> Result<()> {
        // Every node of the box is overwritten (constant fill or
        // prolongation); skip the memset.
        out.resize_no_zero(self.fire_grid);
        if !self.coupled {
            out.fill(self.atmos.params.ambient_wind);
            return Ok(());
        }
        self.atmos.surface_wind_into(&state.atmos, surface);
        prolong_box_into(&surface.u, &mut out.u, bx)?;
        prolong_box_into(&surface.v, &mut out.v, bx)?;
        Ok(())
    }

    /// Advances the coupled system by `dt` (both components sub-step to
    /// their own stability limits internally; the paper's configuration of
    /// dt = 0.5 s needs no sub-stepping).
    ///
    /// # Errors
    /// Propagates component failures.
    pub fn step(&self, state: &mut CoupledState, dt: f64) -> Result<StepDiagnostics> {
        let mut ws = CoupledWorkspace::new();
        self.step_ws(state, dt, &mut ws)
    }

    /// Allocation-free [`CoupledModel::step`]: every temporary — fire Heun
    /// stages, mesh-transfer fields, heat fluxes, atmosphere tendencies and
    /// the pressure solve's tables — comes from `ws`, sized on first use and reused
    /// thereafter. Bit-identical to the allocating wrapper. This is the one
    /// stepping path: wind onto the fire mesh
    /// ([`CoupledModel::fire_wind_into`]), the fire advance
    /// ([`LevelSetSolver::advance_to_stats_ws`]), then heat fluxes,
    /// atmosphere and diagnostics.
    ///
    /// The heat fluxes are evaluated once per step (the fire state does not
    /// change while the atmosphere sub-steps) and shared between the
    /// atmospheric forcing and the step diagnostics, in both the coupled and
    /// the uncoupled configuration.
    ///
    /// # Errors
    /// Same as [`CoupledModel::step`].
    pub fn step_ws(
        &self,
        state: &mut CoupledState,
        dt: f64,
        ws: &mut CoupledWorkspace,
    ) -> Result<StepDiagnostics> {
        let t_target = state.fire.time + dt;
        // The wind is needed only where the fire advance can read it.
        let reach = self.fire.reach(&state.fire.psi, dt, &mut ws.fire);
        self.fire_wind_box_into(state, &mut ws.surface_wind, &mut ws.wind, reach)?;
        let stats =
            self.fire
                .advance_to_stats_ws(&mut state.fire, &ws.wind, t_target, dt, &mut ws.fire)?;
        self.finish_step_ws(state, t_target, stats.max_spread_rate, ws)
    }

    /// Phases 4–7 of one coupled step, after the fire advance: heat fluxes,
    /// restriction (or zeroing) to the coarse grid, atmospheric
    /// sub-stepping, and the diagnostics rollup.
    fn finish_step_ws(
        &self,
        state: &mut CoupledState,
        t_target: f64,
        max_spread_rate: f64,
        ws: &mut CoupledWorkspace,
    ) -> Result<StepDiagnostics> {
        // 4–5: heat fluxes (evaluated once per step, after the fire
        // advance), restricted to the atmosphere's horizontal grid when the
        // feedback is on.
        //
        // Both sweep only around the ignited nodes: the fine flux fields
        // are written on `live` — the ignited box plus the rim of dual
        // cells the restriction reads — and are stale beyond it, where the
        // whole-field calls would hold zeros that add nothing to a coarse
        // average or to the integrals.
        let h = self.atmos.grid.horizontal();
        let ignited = state.fire.ignited_box();
        let refinement = refinement_between(&self.fire_grid, &h)?;
        let live = ignited.dilated(refinement.rx.max(refinement.ry), self.fire_grid);
        let (sum_sensible, sum_latent) = heat_fluxes_box_into(
            self.fire.mesh(),
            &state.fire,
            state.fire.time,
            &mut ws.fluxes,
            live,
        );
        if self.coupled {
            // Restriction writes every coarse node; skip the memset.
            ws.sensible_coarse.resize_no_zero(h);
            ws.latent_coarse.resize_no_zero(h);
            restrict_box_into(&ws.fluxes.sensible, &mut ws.sensible_coarse, ignited)?;
            restrict_box_into(&ws.fluxes.latent, &mut ws.latent_coarse, ignited)?;
        } else {
            // Uncoupled: the atmosphere must see genuinely zero fluxes, so
            // this zeroing is load-bearing.
            ws.sensible_coarse.resize_zeroed(h);
            ws.latent_coarse.resize_zeroed(h);
        }

        // 6: advance the atmosphere with sub-stepping to its CFL bound.
        let mut guard = 0;
        while state.atmos.time < t_target - 1e-9 {
            let dt_max = self.atmos.max_stable_dt(&state.atmos);
            let sub = dt_max.min(t_target - state.atmos.time);
            self.atmos.step_ws(
                &mut state.atmos,
                &ws.sensible_coarse,
                &ws.latent_coarse,
                sub,
                &mut ws.atmos,
            )?;
            guard += 1;
            if guard > 10_000 {
                return Err(CoupledError::Config(
                    "atmosphere sub-stepping failed to reach the target time",
                ));
            }
        }

        self.atmos
            .surface_wind_into(&state.atmos, &mut ws.surface_wind);
        Ok(StepDiagnostics {
            time: state.fire.time,
            burned_area: state.fire.burned_area(),
            max_updraft: state.atmos.max_updraft(),
            // `Field2::integral` of the whole-field fluxes, term for term.
            total_sensible_power: sum_sensible * self.fire_grid.dx * self.fire_grid.dy,
            total_latent_power: sum_latent * self.fire_grid.dx * self.fire_grid.dy,
            max_surface_wind: ws.surface_wind.max_magnitude(),
            max_spread_rate,
        })
    }

    /// Runs until `t_end`, invoking `on_step` after every coupled step.
    ///
    /// # Errors
    /// Propagates stepping failures.
    pub fn run(
        &self,
        state: &mut CoupledState,
        t_end: f64,
        dt: f64,
        on_step: impl FnMut(&CoupledState, &StepDiagnostics),
    ) -> Result<()> {
        let mut ws = CoupledWorkspace::new();
        self.run_ws(state, t_end, dt, &mut ws, on_step)
    }

    /// Allocation-free [`CoupledModel::run`] driving
    /// [`CoupledModel::step_ws`] with one reusable workspace.
    ///
    /// # Errors
    /// Propagates stepping failures.
    pub fn run_ws(
        &self,
        state: &mut CoupledState,
        t_end: f64,
        dt: f64,
        ws: &mut CoupledWorkspace,
        mut on_step: impl FnMut(&CoupledState, &StepDiagnostics),
    ) -> Result<()> {
        while state.time() < t_end - 1e-9 {
            let step = dt.min(t_end - state.time());
            let diag = self.step_ws(state, step, ws)?;
            on_step(state, &diag);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> AtmosGrid {
        AtmosGrid {
            nx: 8,
            ny: 8,
            nz: 5,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
        }
    }

    fn model(coupled: bool) -> CoupledModel {
        let mut m = CoupledModel::new(
            small_grid(),
            AtmosParams::default(),
            FuelCategory::ShortGrass,
            5,
        )
        .unwrap();
        m.coupled = coupled;
        m
    }

    fn center_ignition(m: &CoupledModel) -> Vec<IgnitionShape> {
        let (ex, ey) = m.fire_grid.extent();
        let ox = m.fire_grid.origin.0;
        let oy = m.fire_grid.origin.1;
        vec![IgnitionShape::Circle {
            center: (ox + ex / 2.0, oy + ey / 2.0),
            radius: 20.0,
        }]
    }

    #[test]
    fn fire_grid_alignment() {
        let g = small_grid();
        let fg = CoupledModel::fire_grid_for(&g, 10).unwrap();
        assert_eq!(fg.nx, 71);
        assert_eq!(fg.dx, 6.0);
        assert_eq!(fg.origin, (30.0, 30.0));
        assert!(CoupledModel::fire_grid_for(&g, 0).is_err());
    }

    #[test]
    fn ignite_produces_consistent_state() {
        let m = model(true);
        let s = m.ignite(&center_ignition(&m), 0.0);
        assert!(s.fire.burned_area() > 0.0);
        assert!(s.fire.is_consistent());
        assert_eq!(s.time(), 0.0);
    }

    #[test]
    fn coupled_step_advances_both_components() {
        let m = model(true);
        let mut s = m.ignite(&center_ignition(&m), 0.0);
        let diag = m.step(&mut s, 0.5).unwrap();
        assert!((s.fire.time - 0.5).abs() < 1e-9);
        assert!((s.atmos.time - 0.5).abs() < 1e-9);
        assert!(diag.burned_area > 0.0);
        assert!(diag.total_sensible_power > 0.0);
        assert!(s.atmos.all_finite());
    }

    #[test]
    fn fire_heat_reaches_atmosphere_only_when_coupled() {
        let run = |coupled: bool| {
            let m = model(coupled);
            let mut s = m.ignite(&center_ignition(&m), 0.0);
            m.run(&mut s, 10.0, 0.5, |_, _| {}).unwrap();
            let theta_max = s.atmos.theta.iter().fold(0.0_f64, |acc, &x| acc.max(x));
            (theta_max, s.atmos.max_updraft())
        };
        let (theta_coupled, w_coupled) = run(true);
        let (theta_uncoupled, w_uncoupled) = run(false);
        assert!(theta_coupled > 0.01, "coupled run must heat the air");
        assert!(w_coupled > 0.0, "coupled run must drive an updraft");
        assert_eq!(theta_uncoupled, 0.0);
        assert!(w_uncoupled < 1e-12);
    }

    #[test]
    fn uncoupled_fire_sees_exactly_ambient_wind() {
        let m = model(false);
        let s = m.ignite(&center_ignition(&m), 0.0);
        let wind = m.fire_wind(&s).unwrap();
        let (au, av) = m.atmos.params.ambient_wind;
        for iy in 0..m.fire_grid.ny {
            for ix in 0..m.fire_grid.nx {
                assert_eq!(wind.get(ix, iy), (au, av));
            }
        }
    }

    #[test]
    fn coupled_fire_wind_tracks_surface_wind() {
        let m = model(true);
        let s = m.ignite(&center_ignition(&m), 0.0);
        let wind = m.fire_wind(&s).unwrap();
        // Initially the atmosphere is ambient, so the prolonged field is
        // uniform too.
        let (au, av) = m.atmos.params.ambient_wind;
        let (u, v) = wind.get(m.fire_grid.nx / 2, m.fire_grid.ny / 2);
        assert!((u - au).abs() < 1e-9);
        assert!((v - av).abs() < 1e-9);
    }

    #[test]
    fn run_reaches_target_time() {
        let m = model(true);
        let mut s = m.ignite(&center_ignition(&m), 0.0);
        let mut count = 0;
        m.run(&mut s, 3.0, 0.5, |_, _| count += 1).unwrap();
        assert_eq!(count, 6);
        assert!((s.time() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn workspace_step_matches_allocating_step_bitwise() {
        for coupled in [true, false] {
            let m = model(coupled);
            let mut alloc = m.ignite(&center_ignition(&m), 0.0);
            let mut with_ws = alloc.clone();
            let mut ws = CoupledWorkspace::new();
            for _ in 0..6 {
                let da = m.step(&mut alloc, 0.5).unwrap();
                let dw = m.step_ws(&mut with_ws, 0.5, &mut ws).unwrap();
                assert_eq!(da, dw, "diagnostics must match (coupled = {coupled})");
            }
            assert_eq!(alloc.fire.psi, with_ws.fire.psi);
            assert_eq!(alloc.fire.tig, with_ws.fire.tig);
            assert_eq!(alloc.atmos.u, with_ws.atmos.u);
            assert_eq!(alloc.atmos.theta, with_ws.atmos.theta);
            assert_eq!(alloc.atmos.qv, with_ws.atmos.qv);
        }
    }

    #[test]
    fn one_workspace_serves_two_domain_sizes() {
        // A workspace first used on the larger domain must transparently
        // resize for the smaller one (and vice versa) with results identical
        // to a fresh workspace.
        let mut ws = CoupledWorkspace::new();
        for refinement in [5, 3] {
            let m = CoupledModel::new(
                small_grid(),
                AtmosParams::default(),
                FuelCategory::ShortGrass,
                refinement,
            )
            .unwrap();
            let mut shared = m.ignite(&center_ignition(&m), 0.0);
            let mut fresh = shared.clone();
            m.step_ws(&mut shared, 0.5, &mut ws).unwrap();
            m.step(&mut fresh, 0.5).unwrap();
            assert_eq!(shared.fire.psi, fresh.fire.psi, "refinement {refinement}");
            assert_eq!(shared.atmos.w, fresh.atmos.w, "refinement {refinement}");
        }
    }

    #[test]
    fn misaligned_fire_mesh_rejected() {
        let g = small_grid();
        let bad_grid = Grid2::new(33, 33, 7.0, 7.0).unwrap();
        let mesh = FireMesh::flat(bad_grid, FuelCategory::ShortGrass);
        assert!(matches!(
            CoupledModel::with_fire_mesh(g, AtmosParams::default(), mesh),
            Err(CoupledError::Config(_))
        ));
    }
}
