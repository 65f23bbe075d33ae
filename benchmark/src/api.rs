//! The pinned API surface: every call the benchmark makes into the library
//! goes through this file, and no other file of the package names a
//! `wildfire_*` crate. A change that removes or re-signs one of the items
//! used here breaks the benchmark — it must either keep the item or be
//! preceded by a benchmark change. `README.md` lists the same surface.
//!
//! The wrappers do two jobs only: they map the layers' error types to one
//! `String`, and they keep method and field access on library types in
//! one place. Nothing here is timed; callers put spans around the calls.

use wildfire_atmos::poisson::solve_poisson_into;
use wildfire_atmos::{multigrid::solve_poisson_mg_into, AtmosWorkspace, PoissonWorkspace};
use wildfire_core::StepDiagnostics;
use wildfire_enkf::morphing_enkf::ExtendedState;
use wildfire_enkf::registration::register_ws;
use wildfire_enkf::{
    AnalysisWorkspace, EnkfConfig, EnsembleKalmanFilter, Etkf, MorphingEnkf, MorphingWorkspace,
    RegistrationWorkspace,
};
use wildfire_ensemble::driver::TIG_CAP;
use wildfire_ensemble::store::{DiskStore, SnapshotStore};
use wildfire_fire::heat::{heat_fluxes_into, HeatFluxFields};
use wildfire_fire::perimeter::burning_components;
use wildfire_fire::{FireWorkspace, IgnitionShape};
use wildfire_grid::transfer::{prolong_into, restrict_into};
use wildfire_grid::{Field2, VectorField2};
use wildfire_math::Matrix;
use wildfire_obs::{
    ChannelSource, CoupledSnapshot, ObsInbox, ObsReport, ObsSource, ObsStreamKind, ObsTimeline,
    ObsWorkspace, Snapshot, StridedPsi,
};
use wildfire_service::{ForecastEvent, ForecastRequest, RequestHandle, ServiceConfig};
use wildfire_sim::{perturb, registry, PerturbationSpec};

pub use wildfire_core::{CoupledModel, CoupledState};
pub use wildfire_enkf::MorphingConfig;
pub use wildfire_ensemble::driver::{EnsembleDriver, EnsembleWorkspace, ObsFilter};
pub use wildfire_ensemble::store::MemStore;
pub use wildfire_math::GaussianSampler;
pub use wildfire_obs::{ObsSet, ObservationOperator};
pub use wildfire_service::{AnalysisFilter, ForecastService};
pub use wildfire_sim::{DomainSpec, Scenario, SimBatch, Simulation};

/// Every layer error, flattened.
pub type Res<T> = Result<T, String>;

fn flat<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// --- sim: scenarios and single simulations -------------------------------

/// `registry::FIG1_FIRELINE`.
pub const FIG1_FIRELINE: &str = registry::FIG1_FIRELINE;
/// `registry::FIG2_DATA_DRIVEN`.
pub const FIG2_DATA_DRIVEN: &str = registry::FIG2_DATA_DRIVEN;
/// `registry::CIRCLE_IGNITION`.
pub const CIRCLE_IGNITION: &str = registry::CIRCLE_IGNITION;

/// `registry::by_name`.
pub fn registry_scenario(name: &str) -> Res<Scenario> {
    registry::by_name(name).ok_or_else(|| format!("no registry scenario named {name}"))
}

/// `Scenario::translated`.
pub fn scenario_translated(s: &Scenario, dx: f64, dy: f64) -> Scenario {
    s.translated(dx, dy)
}

/// Replaces `Scenario::domain` and `Scenario::name`.
pub fn scenario_on_domain(mut s: Scenario, name: &str, domain: DomainSpec) -> Scenario {
    s.name = name.to_string();
    s.domain = domain;
    s
}

/// `Scenario::with_ignitions` with one `IgnitionShape::Circle`.
pub fn scenario_with_circle(s: Scenario, name: &str, center: (f64, f64), radius: f64) -> Scenario {
    let mut s = s.with_ignitions(vec![IgnitionShape::Circle { center, radius }]);
    s.name = name.to_string();
    s
}

/// `DomainSpec::center`.
pub fn domain_center(d: &DomainSpec) -> (f64, f64) {
    d.center()
}

/// `Scenario::dt`.
pub fn scenario_dt(s: &Scenario) -> f64 {
    s.dt
}

/// `Scenario::build`. The benchmark's replays do not apply wind-shift
/// schedules, so scenarios carrying one are refused here.
pub fn scenario_build(s: &Scenario) -> Res<Simulation> {
    if !s.wind.shifts.is_empty() || !s.coupled {
        return Err("benchmark scenarios must be coupled and shift-free".to_string());
    }
    s.build().map_err(flat)
}

/// `Scenario::model`.
pub fn scenario_model(s: &Scenario) -> Res<CoupledModel> {
    s.model().map_err(flat)
}

/// `Scenario::ignite`.
pub fn scenario_ignite(s: &Scenario, model: &CoupledModel) -> CoupledState {
    s.ignite(model)
}

/// `Simulation::run_until`; `on_step` receives the simulation time after
/// each coupled step.
pub fn sim_run_until(sim: &mut Simulation, t_end: f64, mut on_step: impl FnMut(f64)) -> Res<()> {
    sim.run_until(t_end, |state, _| on_step(state.time()))
        .map_err(flat)
}

/// `Simulation::time`.
pub fn sim_time(sim: &Simulation) -> f64 {
    sim.time()
}

/// Borrows `Simulation::model` and `Simulation::state` for a replay.
pub fn sim_parts(sim: &mut Simulation) -> (&CoupledModel, &mut CoupledState) {
    (&sim.model, &mut sim.state)
}

/// `Simulation::model`.
pub fn sim_model(sim: &Simulation) -> &CoupledModel {
    &sim.model
}

/// `Simulation::state`.
pub fn sim_state(sim: &Simulation) -> &CoupledState {
    &sim.state
}

/// `perturb::perturbed_simulations` with `PerturbationSpec::position_only`.
pub fn perturbed_simulations(
    base: &Scenario,
    spread: f64,
    seed: u64,
    n_members: usize,
) -> Res<Vec<Simulation>> {
    let spec = PerturbationSpec::position_only(spread, seed);
    perturb::perturbed_simulations(base, &spec, n_members).map_err(flat)
}

/// `perturb::perturbed_states` with `PerturbationSpec::position_only`.
pub fn perturbed_states(
    base: &Scenario,
    spread: f64,
    seed: u64,
    n_members: usize,
    model: &CoupledModel,
) -> Res<Vec<CoupledState>> {
    let spec = PerturbationSpec::position_only(spread, seed);
    perturb::perturbed_states(base, &spec, n_members, model).map_err(flat)
}

// --- state summaries (checks) -------------------------------------------

/// What the output checks read off a coupled state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateSummary {
    pub time: f64,
    /// `FireState::burned_area` (m²).
    pub burned_area: f64,
    /// `perimeter::burning_components`.
    pub components: usize,
    /// FNV-1a over the bit patterns of ψ, t_i and the atmosphere fields.
    pub checksum: u64,
    /// `Field2::all_finite` on ψ and `AtmosState::all_finite`; t_i may
    /// hold the +∞ "unburned" sentinel but never NaN.
    pub finite: bool,
}

fn fnv(hash: &mut u64, values: &[f64]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Bitwise checksum of the full coupled state.
pub fn state_checksum(state: &CoupledState) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    fnv(&mut h, state.fire.psi.as_slice());
    fnv(&mut h, state.fire.tig.as_slice());
    fnv(&mut h, &[state.fire.time, state.atmos.time]);
    for field in [
        &state.atmos.u,
        &state.atmos.v,
        &state.atmos.w,
        &state.atmos.theta,
        &state.atmos.qv,
    ] {
        fnv(&mut h, field);
    }
    h
}

pub fn state_summary(state: &CoupledState) -> StateSummary {
    StateSummary {
        time: state.time(),
        burned_area: state.fire.burned_area(),
        components: burning_components(&state.fire.psi),
        checksum: state_checksum(state),
        finite: state.fire.psi.all_finite()
            && state.atmos.all_finite()
            && !state.fire.tig.as_slice().iter().any(|t| t.is_nan()),
    }
}

/// `CoupledState::time`.
pub fn state_time(state: &CoupledState) -> f64 {
    state.time()
}

/// Mean over members of `Field2::rmse(ψ_member, ψ_truth)`.
pub fn mean_psi_rmse(members: &[CoupledState], truth: &CoupledState) -> Res<f64> {
    let mut sum = 0.0;
    for m in members {
        sum += m.fire.psi.rmse(&truth.fire.psi).map_err(flat)?;
    }
    Ok(sum / members.len() as f64)
}

// --- core step replayed through its public building blocks ---------------

/// Scratch the replayed coupled step owns (the library's
/// `CoupledWorkspace` keeps the matching fields crate-private).
#[derive(Default)]
pub struct StepBuffers {
    surface: VectorField2,
    wind: VectorField2,
    fluxes: HeatFluxFields,
    sensible: Field2,
    latent: Field2,
    fire: FireWorkspace,
    atmos: AtmosWorkspace,
}

/// `AtmosModel::surface_wind_into` (coarse near-surface wind).
pub fn surface_wind_into(model: &CoupledModel, state: &CoupledState, b: &mut StepBuffers) {
    model.atmos.surface_wind_into(&state.atmos, &mut b.surface);
}

/// `transfer::prolong_into` of both wind components onto the fire mesh —
/// with [`surface_wind_into`], what `CoupledModel::fire_wind_into` does.
pub fn prolong_wind(model: &CoupledModel, b: &mut StepBuffers) -> Res<()> {
    b.wind.resize_no_zero(model.fire_grid);
    prolong_into(&b.surface.u, &mut b.wind.u).map_err(flat)?;
    prolong_into(&b.surface.v, &mut b.wind.v).map_err(flat)
}

/// Sub-steps and peak spread rate of one fire advance.
#[derive(Debug, Clone, Copy)]
pub struct FireAdvance {
    pub substeps: usize,
    pub max_spread_rate: f64,
}

/// `LevelSetSolver::advance_to_stats_ws`.
pub fn fire_advance(
    model: &CoupledModel,
    state: &mut CoupledState,
    b: &mut StepBuffers,
    t_target: f64,
    dt: f64,
) -> Res<FireAdvance> {
    let stats = model
        .fire
        .advance_to_stats_ws(&mut state.fire, &b.wind, t_target, dt, &mut b.fire)
        .map_err(flat)?;
    Ok(FireAdvance {
        substeps: stats.steps,
        max_spread_rate: stats.max_spread_rate,
    })
}

/// `heat::heat_fluxes_into`.
pub fn heat_fluxes(model: &CoupledModel, state: &CoupledState, b: &mut StepBuffers) {
    heat_fluxes_into(
        model.fire.mesh(),
        &state.fire,
        state.fire.time,
        &mut b.fluxes,
    );
}

/// `transfer::restrict_into` of both flux fields onto the atmosphere's
/// horizontal grid.
pub fn restrict_fluxes(model: &CoupledModel, b: &mut StepBuffers) -> Res<()> {
    let h = model.atmos.grid.horizontal();
    b.sensible.resize_no_zero(h);
    b.latent.resize_no_zero(h);
    restrict_into(&b.fluxes.sensible, &mut b.sensible).map_err(flat)?;
    restrict_into(&b.fluxes.latent, &mut b.latent).map_err(flat)
}

/// `AtmosState::time`.
pub fn atmos_time(state: &CoupledState) -> f64 {
    state.atmos.time
}

/// `AtmosModel::max_stable_dt`.
pub fn atmos_max_stable_dt(model: &CoupledModel, state: &CoupledState) -> f64 {
    model.atmos.max_stable_dt(&state.atmos)
}

/// `AtmosModel::step_ws` forced by the restricted fluxes.
pub fn atmos_step(
    model: &CoupledModel,
    state: &mut CoupledState,
    b: &mut StepBuffers,
    dt: f64,
) -> Res<()> {
    model
        .atmos
        .step_ws(&mut state.atmos, &b.sensible, &b.latent, dt, &mut b.atmos)
        .map_err(flat)
}

/// The per-step rollup `CoupledModel::step_ws` ends with
/// (`burned_area`, `max_updraft`, flux integrals, `max_magnitude`).
pub fn step_diagnostics(state: &CoupledState, b: &StepBuffers, rate: f64) -> StepDiagnostics {
    StepDiagnostics {
        time: state.fire.time,
        burned_area: state.fire.burned_area(),
        max_updraft: state.atmos.max_updraft(),
        total_sensible_power: b.fluxes.sensible.integral(),
        total_latent_power: b.fluxes.latent.integral(),
        max_surface_wind: b.surface.max_magnitude(),
        max_spread_rate: rate,
    }
}

/// The fire mesh wind currently in the buffers (probe input).
pub fn buffered_wind(b: &StepBuffers) -> VectorField2 {
    b.wind.clone()
}

// --- fire / atmos probes ---------------------------------------------------

/// Inputs of the level-set RHS captured mid-run.
pub struct RhsProbe {
    psi: Field2,
    wind: VectorField2,
    out: Field2,
}

pub fn rhs_probe(state: &CoupledState, wind: VectorField2) -> RhsProbe {
    RhsProbe {
        psi: state.fire.psi.clone(),
        wind,
        out: Field2::default(),
    }
}

/// `LevelSetSolver::rhs_into`; returns the peak spread rate.
pub fn rhs_eval(model: &CoupledModel, p: &mut RhsProbe) -> f64 {
    model.fire.rhs_into(&p.psi, &p.wind, &mut p.out)
}

/// `(nodes with |ψ| ≤ band_cells·Δx, nodes swept)` on the probe's ψ.
pub fn front_nodes(p: &RhsProbe, band_cells: f64) -> (usize, usize) {
    let g = p.psi.grid();
    let band = band_cells * g.dx;
    (p.psi.count_where(|v| v.abs() <= band), g.len())
}

/// A pressure solve at the model's grid with a fire-like right-hand side.
pub struct PoissonProbe {
    rhs: Vec<f64>,
    ws: PoissonWorkspace,
    out: Vec<f64>,
}

/// Right-hand side: the divergence a surface heat source leaves — a
/// Gaussian column over `center`, positive in the lowest level, negative
/// in the one above, zero mean overall.
pub fn poisson_probe(model: &CoupledModel, center: (f64, f64)) -> PoissonProbe {
    let g = model.atmos.grid;
    let mut rhs = vec![0.0; g.n_cells()];
    for j in 0..g.ny {
        for i in 0..g.nx {
            let (x, y, _) = g.center(i, j, 0);
            let r2 = (x - center.0).powi(2) + (y - center.1).powi(2);
            let a = 1e-2 * (-r2 / (2.0 * 90.0_f64.powi(2))).exp();
            rhs[g.cell(i, j, 0)] = a;
            rhs[g.cell(i, j, 1)] = -a;
        }
    }
    PoissonProbe {
        rhs,
        ws: PoissonWorkspace::default(),
        out: Vec::new(),
    }
}

/// `AtmosParams::pressure_tol`.
pub fn pressure_tol(model: &CoupledModel) -> f64 {
    model.atmos.params.pressure_tol
}

/// `poisson::solve_poisson_into` with the model's solver, tolerance and
/// iteration cap — the call the projection makes each sub-step.
pub fn poisson_solve(model: &CoupledModel, p: &mut PoissonProbe) -> Res<()> {
    let a = &model.atmos;
    solve_poisson_into(
        &a.grid,
        &p.rhs,
        a.params.pressure_solver,
        a.params.pressure_tol,
        a.params.pressure_max_iter,
        &mut p.ws,
        &mut p.out,
    )
    .map_err(flat)
}

/// V-cycles of `multigrid::solve_poisson_mg_into` on the same problem, when
/// `PoissonSolver::uses_multigrid` picks that path for this grid; `None`
/// on the conjugate-gradient path, whose public call returns no count.
pub fn poisson_iterations(model: &CoupledModel, p: &mut PoissonProbe) -> Res<Option<usize>> {
    let a = &model.atmos;
    if !a.params.pressure_solver.uses_multigrid(&a.grid) {
        return Ok(None);
    }
    let mut mg = wildfire_atmos::MgHierarchy::new();
    solve_poisson_mg_into(
        &a.grid,
        &p.rhs,
        a.params.pressure_tol,
        a.params.pressure_max_iter,
        &mut mg,
        &mut p.out,
    )
    .map(Some)
    .map_err(flat)
}

// --- sim: batches ----------------------------------------------------------

/// `SimBatch::new` filled through `SimBatch::push`.
pub fn batch_of(sims: Vec<Simulation>, threads: usize) -> SimBatch {
    let mut batch = SimBatch::new(threads);
    for sim in sims {
        batch.push(sim);
    }
    batch
}

/// `SimBatch::advance_to`.
pub fn batch_advance_to(batch: &mut SimBatch, t: f64) -> Res<()> {
    batch.advance_to(t).map_err(flat)
}

/// `SimBatch::products`; returns the slot count and the summed burned
/// area so the call cannot be optimised away.
pub fn batch_products(batch: &SimBatch) -> (usize, f64) {
    let products = batch.products();
    (
        products.len(),
        products.iter().map(|p| p.burned_area).sum::<f64>(),
    )
}

// --- ensemble: the Fig. 2 cycle ---------------------------------------------

/// `EnsembleDriver::new`.
pub fn ensemble_driver(model: CoupledModel, threads: usize) -> EnsembleDriver {
    EnsembleDriver::new(model, threads)
}

/// `EnsembleDriver::model`.
pub fn driver_model(driver: &EnsembleDriver) -> &CoupledModel {
    &driver.model
}

/// `ObsStreamSpec::build_operator` for every declared stream, plus whether
/// the stream is gridded ψ (`ObsStreamKind::StridedPsi`).
pub fn build_operators(
    scenario: &Scenario,
    model: &CoupledModel,
) -> (Vec<Box<dyn ObservationOperator>>, Vec<bool>) {
    let ops = scenario
        .streams
        .iter()
        .map(|s| s.build_operator(model))
        .collect();
    let gridded = scenario
        .streams
        .iter()
        .map(|s| matches!(s.kind, ObsStreamKind::StridedPsi { .. }))
        .collect();
    (ops, gridded)
}

/// One timeline instant with its synthesized measurement blocks.
pub struct Instant {
    pub time: f64,
    /// Indices of the streams reporting at this instant.
    pub due: Vec<usize>,
    /// One measurement block per due stream.
    pub blocks: Vec<Vec<f64>>,
}

/// `Scenario::timeline` + `ObsTimeline::analysis_times`.
pub fn analysis_times(scenario: &Scenario, t_end: f64) -> (ObsTimeline, Vec<f64>) {
    let timeline = scenario.timeline(t_end);
    let times = timeline.analysis_times();
    (timeline, times)
}

/// `CoupledModel::run` (truth advance) then
/// `ObsTimeline::synthesize_due_pool` at `t`: identical-twin data for one
/// instant, noise drawn from `rng`.
pub fn synthesize_instant(
    model: &CoupledModel,
    truth: &mut CoupledState,
    timeline: &ObsTimeline,
    operators: &[Box<dyn ObservationOperator>],
    t: f64,
    dt: f64,
    rng: &mut GaussianSampler,
) -> Res<Instant> {
    model.run(truth, t, dt, |_, _| {}).map_err(flat)?;
    let mut blocks = Vec::new();
    timeline
        .synthesize_due_pool(operators, t, truth, rng, &mut blocks)
        .map_err(flat)?;
    Ok(Instant {
        time: t,
        due: timeline.streams_due_at(t).collect(),
        blocks,
    })
}

/// `ObsSet::new` + `ObsSet::push` for the instant's due streams.
pub fn pool_for<'a>(
    operators: &'a [Box<dyn ObservationOperator>],
    instant: &'a Instant,
) -> Res<ObsSet<'a>> {
    let mut pool = ObsSet::new();
    for (&s, block) in instant.due.iter().zip(&instant.blocks) {
        pool.push(operators[s].as_ref(), block).map_err(flat)?;
    }
    Ok(pool)
}

/// `ObsSet::total_dim`.
pub fn pool_dim(pool: &ObsSet<'_>) -> usize {
    pool.total_dim()
}

/// `EnsembleDriver::forecast_ws`.
pub fn forecast(
    driver: &EnsembleDriver,
    members: &mut [CoupledState],
    t: f64,
    dt: f64,
    ws: &mut EnsembleWorkspace,
) -> Res<()> {
    driver.forecast_ws(members, t, dt, ws).map_err(flat)
}

/// `EnsembleDriver::forecast_via_store_ws` through a `MemStore`.
pub fn forecast_via_mem_store(
    driver: &EnsembleDriver,
    members: &mut [CoupledState],
    store: &MemStore,
    t: f64,
    dt: f64,
    ws: &mut EnsembleWorkspace,
) -> Res<()> {
    driver
        .forecast_via_store_ws(members, store, t, dt, ws)
        .map_err(flat)
}

/// `DiskStore::new` + `EnsembleDriver::forecast_via_store_ws`: with `t` at
/// the members' clock nothing steps, so the call is the disk exchange
/// alone (save all, load, restore, snapshot, save).
pub fn exchange_via_disk_store(
    driver: &EnsembleDriver,
    members: &mut [CoupledState],
    dir: &std::path::Path,
    t: f64,
    dt: f64,
    ws: &mut EnsembleWorkspace,
) -> Res<()> {
    let store = DiskStore::new(dir).map_err(flat)?;
    driver
        .forecast_via_store_ws(members, &store, t, dt, ws)
        .map_err(flat)
}

/// Forecast and analysis innovation RMS of one cycle.
#[derive(Debug, Clone, Copy)]
pub struct Innovation {
    pub forecast_rms: f64,
    pub analysis_rms: f64,
}

/// `EnsembleDriver::cycle_obs_ws`.
#[allow(clippy::too_many_arguments)]
pub fn cycle_obs(
    driver: &EnsembleDriver,
    members: &mut [CoupledState],
    pool: &ObsSet<'_>,
    filter: ObsFilter<'_>,
    t: f64,
    dt: f64,
    rng: &mut GaussianSampler,
    ws: &mut EnsembleWorkspace,
) -> Res<Innovation> {
    let r = driver
        .cycle_obs_ws(members, pool, filter, t, dt, rng, ws)
        .map_err(flat)?;
    Ok(Innovation {
        forecast_rms: r.forecast_innovation_rms,
        analysis_rms: r.analysis_innovation_rms,
    })
}

/// `EnsembleDriver::analyze_obs_ws` (stochastic EnKF on the pool).
pub fn analyze_standard(
    driver: &EnsembleDriver,
    members: &mut [CoupledState],
    pool: &ObsSet<'_>,
    inflation: f64,
    rng: &mut GaussianSampler,
    ws: &mut EnsembleWorkspace,
) -> Res<()> {
    driver
        .analyze_obs_ws(members, pool, inflation, rng, ws)
        .map_err(flat)
}

/// `EnsembleDriver::analyze_obs_morphing_ws`.
pub fn analyze_morphing(
    driver: &EnsembleDriver,
    members: &mut [CoupledState],
    pool: &ObsSet<'_>,
    config: &MorphingConfig,
    rng: &mut GaussianSampler,
    ws: &mut EnsembleWorkspace,
) -> Res<()> {
    driver
        .analyze_obs_morphing_ws(members, pool, config, rng, ws)
        .map_err(flat)
}

/// Packed observation pool `(y, H(X), R)` of an ensemble.
#[derive(Default)]
pub struct PackedObs {
    ws: ObsWorkspace,
}

/// `ObsSet::pack_into` + `ObsWorkspace::innovation_rms`.
pub fn pack_pool(pool: &ObsSet<'_>, members: &[CoupledState], p: &mut PackedObs) -> Res<f64> {
    pool.pack_into(members, &mut p.ws).map_err(flat)?;
    Ok(p.ws.innovation_rms())
}

// --- ensemble: member exchange through a store ------------------------------

/// Exchange scratch: one snapshot container.
#[derive(Default)]
pub struct ExchangeBuffers {
    snap: Snapshot,
}

/// `CoupledSnapshot::snapshot_into` + `SnapshotStore::save` for every
/// member.
pub fn store_save_all(
    model: &CoupledModel,
    members: &[CoupledState],
    store: &MemStore,
    x: &mut ExchangeBuffers,
) -> Res<()> {
    for (i, m) in members.iter().enumerate() {
        model.snapshot_into(m, None, &mut x.snap);
        store.save(i, &x.snap).map_err(flat)?;
    }
    Ok(())
}

/// `SnapshotStore::load_into` + `CoupledSnapshot::restore_from` for every
/// member.
pub fn store_load_all(
    model: &CoupledModel,
    members: &mut [CoupledState],
    store: &MemStore,
    x: &mut ExchangeBuffers,
) -> Res<()> {
    for (i, m) in members.iter_mut().enumerate() {
        store.load_into(i, &mut x.snap).map_err(flat)?;
        model.restore_from(m, None, &x.snap).map_err(flat)?;
    }
    Ok(())
}

/// Serialised snapshot of one member, for the serialise/parse probes.
pub struct SnapshotProbe {
    snap: Snapshot,
    parsed: Snapshot,
    bytes: Vec<u8>,
}

pub fn snapshot_probe(model: &CoupledModel, state: &CoupledState) -> SnapshotProbe {
    let mut snap = Snapshot::new();
    model.snapshot_into(state, None, &mut snap);
    SnapshotProbe {
        snap,
        parsed: Snapshot::new(),
        bytes: Vec::new(),
    }
}

/// `Snapshot::serialize_into`; returns the byte count.
pub fn snapshot_serialize(p: &mut SnapshotProbe) -> usize {
    p.snap.serialize_into(&mut p.bytes);
    p.bytes.len()
}

/// `Snapshot::from_bytes_into` on the bytes of [`snapshot_serialize`].
pub fn snapshot_parse(p: &mut SnapshotProbe) -> Res<()> {
    Snapshot::from_bytes_into(&p.bytes, &mut p.parsed).map_err(flat)
}

// --- enkf probes on packed matrices -----------------------------------------

/// The dense inputs of one analysis: state matrix and packed pool.
pub struct FilterProbe {
    x: Matrix,
    work: Matrix,
    obs: ObsWorkspace,
    analysis: AnalysisWorkspace,
    pub state_dim: usize,
    pub obs_dim: usize,
    pub members: usize,
}

/// `FireState::pack_into` per member (with the driver's `TIG_CAP`) and
/// `ObsSet::pack_into`: exactly the matrices the driver hands the filters.
pub fn filter_probe(members: &[CoupledState], pool: &ObsSet<'_>) -> Res<FilterProbe> {
    let n_state = 2 * members[0].fire.grid().len();
    let mut x = Matrix::default();
    x.resize_zeroed(n_state, members.len());
    for (j, m) in members.iter().enumerate() {
        m.fire.pack_into(TIG_CAP, x.col_mut(j));
    }
    let mut obs = ObsWorkspace::new();
    pool.pack_into(members, &mut obs).map_err(flat)?;
    Ok(FilterProbe {
        work: x.clone(),
        x,
        obs,
        analysis: AnalysisWorkspace::new(),
        state_dim: n_state,
        obs_dim: pool.total_dim(),
        members: members.len(),
    })
}

/// The filter inputs of an assimilating request: its members
/// (`perturb::perturbed_simulations`) against its first report through
/// `StridedPsi`.
pub fn request_filter_probe(spec: &RequestSpec) -> Res<FilterProbe> {
    let (reports, _) = spec
        .assimilate
        .as_ref()
        .ok_or("not an assimilating request")?;
    let members: Vec<CoupledState> = perturbed_simulations(
        &spec.scenario,
        spec.position_spread,
        spec.seed,
        spec.n_members,
    )?
    .into_iter()
    .map(|sim| sim.state)
    .collect();
    let op = StridedPsi::new(members[0].fire.grid(), reports.grid_stride, reports.sigma);
    let mut pool = ObsSet::new();
    pool.push(&op, &reports.reports[0].data).map_err(flat)?;
    filter_probe(&members, &pool)
}

/// `EnsembleKalmanFilter::analyze_ws` on a fresh copy of the state matrix.
pub fn enkf_analyze(p: &mut FilterProbe, inflation: f64, rng: &mut GaussianSampler) -> Res<()> {
    p.work.clone_from(&p.x);
    let filter = EnsembleKalmanFilter::new(EnkfConfig {
        inflation,
        ..EnkfConfig::default()
    });
    filter
        .analyze_ws(
            &mut p.work,
            &p.obs.hx,
            &p.obs.data,
            &p.obs.var,
            rng,
            &mut p.analysis,
        )
        .map_err(flat)
}

/// `Etkf::analyze_ws` on a fresh copy of the state matrix.
pub fn etkf_analyze(p: &mut FilterProbe, inflation: f64) -> Res<()> {
    p.work.clone_from(&p.x);
    Etkf::new(inflation)
        .analyze_ws(
            &mut p.work,
            &p.obs.hx,
            &p.obs.data,
            &p.obs.var,
            &mut p.analysis,
        )
        .map_err(flat)
}

/// Registration and morphing-analysis inputs of one ψ instant.
pub struct MorphProbe {
    filter: MorphingEnkf,
    reference: Vec<Field2>,
    member_fields: Vec<Vec<Field2>>,
    data_fields: Vec<Field2>,
    reg: RegistrationWorkspace,
    extended: Vec<ExtendedState>,
    data_ext: Option<ExtendedState>,
    ws: MorphingWorkspace,
    /// Rows of the morphing filter's observation matrix: the observed
    /// residual field plus both displacement components.
    pub obs_dim: usize,
}

fn morph_fields(state: &CoupledState) -> Vec<Field2> {
    let g = state.fire.psi.grid();
    let capped = state.fire.tig.as_slice().iter().map(|&t| t.min(TIG_CAP));
    vec![
        state.fire.psi.clone(),
        Field2::from_vec(g, capped.collect()),
    ]
}

/// Field lists `[ψ, capped t_i]` per member and for the data, as the
/// driver's morphing path assembles them; the data ψ comes from
/// `ObservationOperator::scatter_psi` on the pool's gridded stream.
pub fn morph_probe(
    members: &[CoupledState],
    pool: &ObsSet<'_>,
    config: &MorphingConfig,
) -> Res<MorphProbe> {
    let reference = morph_fields(&members[0]);
    let mut psi_data = Field2::default();
    if !pool
        .entries()
        .iter()
        .any(|e| e.op.scatter_psi(e.data, &mut psi_data))
    {
        return Err("morphing probe needs a gridded-psi stream".to_string());
    }
    Ok(MorphProbe {
        filter: MorphingEnkf::new(config.clone()),
        data_fields: vec![psi_data, reference[1].clone()],
        member_fields: members.iter().map(morph_fields).collect(),
        reference,
        reg: RegistrationWorkspace::new(),
        extended: Vec::new(),
        data_ext: None,
        ws: MorphingWorkspace::new(),
        obs_dim: 0,
    })
}

/// `registration::register_ws` of member `j`'s ψ against the reference ψ.
pub fn register_member(p: &mut MorphProbe, j: usize) -> Res<f64> {
    let t = register_ws(
        &p.member_fields[j][0],
        &p.reference[0],
        &p.filter.config.registration,
        &mut p.reg,
    )
    .map_err(flat)?;
    Ok(t.max_magnitude())
}

/// `MorphingEnkf::to_extended_ws` for every member and the data.
pub fn morph_extend(p: &mut MorphProbe) -> Res<()> {
    p.extended.clear();
    for fields in &p.member_fields {
        let ext = p
            .filter
            .to_extended_ws(fields, &p.reference, 0, &mut p.reg)
            .map_err(flat)?;
        p.extended.push(ext);
    }
    let data_ext = p
        .filter
        .to_extended_ws(&p.data_fields, &p.reference, 0, &mut p.reg)
        .map_err(flat)?;
    p.obs_dim = p.filter.config.observed_fields.len() * p.reference[0].as_slice().len()
        + 2 * data_ext.t.control.u.as_slice().len();
    p.data_ext = Some(data_ext);
    Ok(())
}

/// `MorphingEnkf::analyze_extended_ws` on the states of [`morph_extend`].
pub fn morph_analyze(p: &mut MorphProbe, rng: &mut GaussianSampler) -> Res<usize> {
    let data_ext = p.data_ext.as_ref().ok_or("morph_extend must run first")?;
    p.filter
        .analyze_extended_ws(&p.extended, data_ext, &p.reference, rng, &mut p.ws)
        .map(|fields| fields.len())
        .map_err(flat)
}

// --- obs: streaming source ---------------------------------------------------

/// Two-report observation input of an assimilating request.
#[derive(Clone)]
pub struct RequestReports {
    grid_stride: usize,
    sigma: f64,
    reports: Vec<ObsReport>,
}

/// Runs `truth` to each report time and measures it through
/// `StridedPsi` + `operator::synthesize_measurements`.
pub fn synthesize_reports(
    truth: &mut Simulation,
    times: &[f64],
    stride: usize,
    sigma: f64,
    rng: &mut GaussianSampler,
) -> Res<RequestReports> {
    let op = StridedPsi::new(truth.model.fire_grid, stride, sigma);
    let mut reports = Vec::new();
    for &t in times {
        truth.run_until(t, |_, _| {}).map_err(flat)?;
        let mut data = Vec::new();
        wildfire_obs::operator::synthesize_measurements(&op, &truth.state, rng, &mut data)
            .map_err(flat)?;
        reports.push(ObsReport {
            time: t,
            stream: 0,
            data,
        });
    }
    Ok(RequestReports {
        grid_stride: stride,
        sigma,
        reports,
    })
}

/// `ChannelSource::channel` pre-filled with the reports, sender dropped.
fn prefilled_source(r: &RequestReports) -> Res<ChannelSource> {
    let (tx, source) = ChannelSource::channel();
    for report in &r.reports {
        tx.send(report.clone())
            .map_err(|_| "channel source hung up".to_string())?;
    }
    Ok(source)
}

/// A pre-filled source plus the inbox its polls fill.
pub struct PollProbe {
    source: ChannelSource,
    inbox: ObsInbox,
}

pub fn poll_probe(r: &RequestReports) -> Res<PollProbe> {
    Ok(PollProbe {
        source: prefilled_source(r)?,
        inbox: ObsInbox::new(),
    })
}

/// `ObsSource::poll` at `now`; returns the number of reports delivered.
pub fn source_poll(p: &mut PollProbe, now: f64) -> Res<usize> {
    p.inbox.recycle();
    p.source.poll(now, &mut p.inbox).map_err(flat)
}

// --- service ------------------------------------------------------------------

/// `ForecastService::start`.
pub fn service_start(threads: usize, tick: f64) -> ForecastService {
    ForecastService::start(ServiceConfig { threads, tick })
}

/// `ForecastService::shutdown`.
pub fn service_shutdown(service: ForecastService) {
    service.shutdown();
}

/// One request of the generated mix.
pub struct RequestSpec {
    pub scenario: Scenario,
    pub n_members: usize,
    pub position_spread: f64,
    pub seed: u64,
    pub horizons: Vec<f64>,
    /// Reports and filter of an assimilating request; `None` runs free.
    pub assimilate: Option<(RequestReports, AnalysisFilter)>,
}

/// Builds the `ForecastRequest`: `ForecastRequest::free_run` shape with the
/// ensemble fields set, plus a `StridedPsi` operator and a pre-filled
/// `ChannelSource` when assimilating.
pub fn forecast_request(spec: &RequestSpec) -> Res<ForecastRequest> {
    let mut req = ForecastRequest::free_run(spec.scenario.clone(), spec.horizons.clone());
    req.n_members = spec.n_members;
    req.position_spread = spec.position_spread;
    req.seed = spec.seed;
    if let Some((reports, filter)) = &spec.assimilate {
        let grid = wildfire_core::CoupledModel::fire_grid_for(
            &spec.scenario.domain.atmos_grid(),
            spec.scenario.domain.refinement,
        )
        .map_err(flat)?;
        req.operators = vec![Box::new(StridedPsi::new(
            grid,
            reports.grid_stride,
            reports.sigma,
        ))];
        req.source = Some(Box::new(prefilled_source(reports)?));
        req.filter = *filter;
    }
    Ok(req)
}

/// `ForecastService::submit`.
pub fn service_submit(service: &ForecastService, req: ForecastRequest) -> Res<RequestHandle> {
    service.submit(req).map_err(flat)
}

/// What a request's channel delivered.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Product {
        horizon: f64,
        burned_area: f64,
        reports_assimilated: usize,
    },
    Finished,
    Failed(String),
}

/// `RequestHandle::try_next`.
pub fn handle_try_next(handle: &RequestHandle) -> Option<Event> {
    handle.try_next().map(|event| match event {
        ForecastEvent::Product(p) => Event::Product {
            horizon: p.horizon,
            burned_area: p.mean_burned_area,
            reports_assimilated: p.reports_assimilated,
        },
        ForecastEvent::Finished { .. } => Event::Finished,
        ForecastEvent::Failed { error, .. } => Event::Failed(error),
    })
}

#[cfg(test)]
mod tests {
    /// The surface stays pinned only if this file is the single place that
    /// names a library crate.
    #[test]
    fn no_other_file_names_a_library_crate() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut stack = vec![src];
        let mut checked = 0;
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir).expect("readable src") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    stack.push(path);
                } else if path.file_name().is_some_and(|n| n != "api.rs") {
                    let text = std::fs::read_to_string(&path).expect("readable source");
                    let needle = ["wildfire", "_"].concat();
                    assert!(
                        !text.contains(&needle),
                        "{} names a library crate; route the call through api.rs",
                        path.display()
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 8, "only {checked} files checked");
    }
}
