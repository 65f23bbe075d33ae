//! [`SimulationBuilder`]: fluent construction of coupled models from
//! [`Scenario`] parts, and [`Simulation`]: a model + state pair that applies
//! the scenario's wind-shift schedule while stepping.

use crate::scenario::{DomainSpec, FuelPatch, FuelSpec, Scenario, WindShift, WindSpec};
use crate::{Result, SimError};
use wildfire_atmos::AtmosParams;
use wildfire_core::{CoupledModel, CoupledState, CoupledWorkspace, StepDiagnostics};
use wildfire_fire::{FireMesh, FuelMap, IgnitionShape};
use wildfire_fuel::{FuelCategory, FuelModel};
use wildfire_obs::{CoupledSnapshot, Snapshot};

/// Fluent builder over a [`Scenario`]. Starts from a neutral default
/// (paper domain, uniform short grass, light westerly, one center circle)
/// so call sites only state what differs.
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    scenario: Scenario,
    explicit_ignitions: bool,
}

impl Default for SimulationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SimulationBuilder {
    /// A neutral starting scenario; see type-level docs.
    pub fn new() -> Self {
        let domain = DomainSpec::PAPER;
        let center = domain.center();
        SimulationBuilder {
            scenario: Scenario {
                name: "custom".to_string(),
                description: "builder-defined scenario".to_string(),
                domain,
                fuel: FuelSpec::Uniform(FuelCategory::ShortGrass),
                wind: WindSpec::steady(3.0, 0.0),
                ignitions: vec![IgnitionShape::Circle {
                    center,
                    radius: 25.0,
                }],
                ignition_time: 0.0,
                coupled: true,
                fast_math: false,
                dt: 0.5,
                streams: Vec::new(),
            },
            explicit_ignitions: false,
        }
    }

    /// Starts from an existing scenario (registry entry or hand-built).
    pub fn from_scenario(scenario: Scenario) -> Self {
        SimulationBuilder {
            scenario,
            explicit_ignitions: true,
        }
    }

    /// Names the scenario (shows up in diagnostics).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.scenario.name = name.into();
        self
    }

    /// Sets the domain discretization.
    pub fn domain(mut self, domain: DomainSpec) -> Self {
        self.scenario.domain = domain;
        self
    }

    /// Sets the fire-mesh refinement ratio.
    pub fn refinement(mut self, refinement: usize) -> Self {
        self.scenario.domain.refinement = refinement;
        self
    }

    /// Sets the initial ambient wind (m/s).
    pub fn ambient_wind(mut self, u: f64, v: f64) -> Self {
        self.scenario.wind.ambient = (u, v);
        self
    }

    /// Schedules a mid-run ambient-wind shift.
    pub fn wind_shift(mut self, at: f64, to: (f64, f64)) -> Self {
        self.scenario.wind.shifts.push(WindShift { at, to });
        self
    }

    /// Sets the base fuel category (clears patches).
    pub fn fuel(mut self, cat: FuelCategory) -> Self {
        self.scenario.fuel = FuelSpec::Uniform(cat);
        self
    }

    /// Paints a rectangular fuel patch `(x0, y0, x1, y1)` over the base.
    pub fn fuel_patch(mut self, rect: (f64, f64, f64, f64), fuel: FuelCategory) -> Self {
        self.scenario.fuel = match self.scenario.fuel {
            FuelSpec::Uniform(base) => FuelSpec::Patches {
                base,
                patches: vec![FuelPatch { rect, fuel }],
            },
            FuelSpec::Patches { base, mut patches } => {
                patches.push(FuelPatch { rect, fuel });
                FuelSpec::Patches { base, patches }
            }
        };
        self
    }

    /// Adds an ignition shape. The first call replaces the default center
    /// circle; later calls accumulate.
    pub fn ignite(mut self, shape: IgnitionShape) -> Self {
        if self.explicit_ignitions {
            self.scenario.ignitions.push(shape);
        } else {
            self.scenario.ignitions = vec![shape];
            self.explicit_ignitions = true;
        }
        self
    }

    /// Replaces the whole ignition set.
    pub fn ignitions(mut self, shapes: Vec<IgnitionShape>) -> Self {
        self.scenario.ignitions = shapes;
        self.explicit_ignitions = true;
        self
    }

    /// Sets the ignition time (s).
    pub fn ignition_time(mut self, time: f64) -> Self {
        self.scenario.ignition_time = time;
        self
    }

    /// Toggles two-way coupling.
    pub fn coupled(mut self, coupled: bool) -> Self {
        self.scenario.coupled = coupled;
        self
    }

    /// Toggles fast-math spread-rate evaluation (see
    /// [`Scenario::fast_math`]). Off by default.
    pub fn fast_math(mut self, fast_math: bool) -> Self {
        self.scenario.fast_math = fast_math;
        self
    }

    /// Sets the reference coupled step (s).
    pub fn dt(mut self, dt: f64) -> Self {
        self.scenario.dt = dt;
        self
    }

    /// Declares an observation data stream (instrument + cadence) for the
    /// scenario's real-data pool.
    pub fn observe(mut self, stream: wildfire_obs::ObsStreamSpec) -> Self {
        self.scenario.streams.push(stream);
        self
    }

    /// The scenario assembled so far.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Consumes the builder, returning the assembled [`Scenario`] without
    /// realizing model objects.
    pub fn into_scenario(self) -> Scenario {
        self.scenario
    }

    /// Builds only the coupled model (no ignition).
    ///
    /// # Errors
    /// [`SimError::Scenario`] for malformed descriptors,
    /// [`SimError::Model`] when the coupled model rejects the configuration.
    pub fn build_model(&self) -> Result<CoupledModel> {
        let s = &self.scenario;
        if s.dt <= 0.0 {
            return Err(SimError::Scenario("dt must be positive"));
        }
        let atmos_grid = s.domain.atmos_grid();
        let params = AtmosParams {
            ambient_wind: s.wind.ambient,
            ..Default::default()
        };
        let mut model = match &s.fuel {
            FuelSpec::Uniform(cat) => {
                CoupledModel::new(atmos_grid, params, *cat, s.domain.refinement)?
            }
            FuelSpec::Patches { base, patches } => {
                let fire_grid = CoupledModel::fire_grid_for(&atmos_grid, s.domain.refinement)?;
                let mut map = FuelMap::uniform_category(fire_grid, *base);
                for p in patches {
                    let idx = map.add_fuel(FuelModel::for_category(p.fuel));
                    let (x0, y0, x1, y1) = p.rect;
                    map.paint_rect(x0, y0, x1, y1, idx)
                        .map_err(|_| SimError::Scenario("fuel patch painting failed"))?;
                }
                let mesh = FireMesh::new(
                    fire_grid,
                    map,
                    wildfire_grid::Field2::filled(fire_grid, 0.0),
                )
                .map_err(|_| SimError::Scenario("fire mesh construction failed"))?;
                CoupledModel::with_fire_mesh(atmos_grid, params, mesh)?
            }
        };
        model.coupled = s.coupled;
        if s.fast_math {
            model.fire.set_fast_math(true);
        }
        Ok(model)
    }

    /// Builds the full [`Simulation`]: model, ignited state, and the
    /// wind-shift schedule.
    ///
    /// # Errors
    /// As [`SimulationBuilder::build_model`], plus
    /// [`SimError::Scenario`] when the ignition set is empty.
    pub fn build(self) -> Result<Simulation> {
        if self.scenario.ignitions.is_empty() {
            return Err(SimError::Scenario("scenario has no ignition shapes"));
        }
        let model = self.build_model()?;
        let s = self.scenario;
        let state = model.ignite(&s.ignitions, s.ignition_time);
        let mut shifts = s.wind.shifts.clone();
        shifts.sort_by(|a, b| a.at.total_cmp(&b.at));
        Ok(Simulation {
            model,
            state,
            dt: s.dt,
            shifts,
            next_shift: 0,
            scenario: s,
            workspace: CoupledWorkspace::new(),
        })
    }
}

/// A realized scenario: coupled model + ignited state + forcing schedule.
///
/// Stepping through [`Simulation::step`] / [`Simulation::run_until`] applies
/// the scenario's scheduled wind shifts at the right simulation times;
/// callers that need the raw components can take `model` and `state` apart
/// and drive them directly (losing the schedule).
#[derive(Debug, Clone)]
pub struct Simulation {
    /// The coupled fire–atmosphere model.
    pub model: CoupledModel,
    /// The evolving joint state.
    pub state: CoupledState,
    /// Reference coupled step (s).
    pub dt: f64,
    /// The scenario this simulation was built from.
    pub scenario: Scenario,
    /// Reusable stepping scratch: every [`Simulation::step`] goes through
    /// the allocation-free [`CoupledModel::step_ws`] path, so long runs
    /// perform no steady-state heap allocation.
    pub workspace: CoupledWorkspace,
    shifts: Vec<WindShift>,
    next_shift: usize,
}

impl Simulation {
    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.state.time()
    }

    /// Applies every wind shift scheduled at or before `time`; called
    /// before each step, so the schedule is honored on every stepping
    /// route (a [`crate::batch::SimBatch`] slot advances through
    /// [`Simulation::run_until`] like any other simulation).
    fn apply_due_shifts(&mut self, time: f64) {
        while self.next_shift < self.shifts.len() && self.shifts[self.next_shift].at <= time {
            self.model.atmos.params.ambient_wind = self.shifts[self.next_shift].to;
            self.next_shift += 1;
        }
    }

    /// One coupled step of the scenario's reference dt.
    ///
    /// # Errors
    /// Propagates coupled-model step failures.
    pub fn step(&mut self) -> Result<StepDiagnostics> {
        self.step_by(self.dt)
    }

    /// One coupled step of an explicit size (s).
    ///
    /// # Errors
    /// Propagates coupled-model step failures.
    pub fn step_by(&mut self, dt: f64) -> Result<StepDiagnostics> {
        self.apply_due_shifts(self.time());
        let diag = self
            .model
            .step_ws(&mut self.state, dt, &mut self.workspace)?;
        Ok(diag)
    }

    /// Runs to `t_end`, invoking `on_step` after every step. The final step
    /// is clamped so the state lands exactly on `t_end` (same contract as
    /// `CoupledModel::run`), even when `t_end` is not a multiple of the
    /// scenario dt.
    ///
    /// # Errors
    /// Propagates coupled-model step failures.
    pub fn run_until<F>(&mut self, t_end: f64, mut on_step: F) -> Result<()>
    where
        F: FnMut(&CoupledState, &StepDiagnostics),
    {
        while self.time() < t_end - 1e-9 {
            let dt = self.dt.min(t_end - self.time());
            let diag = self.step_by(dt)?;
            on_step(&self.state, &diag);
        }
        Ok(())
    }

    /// Captures the full simulation into `snap`: the coupled state, the
    /// reference dt, the wind-shift cursor and the (possibly shifted)
    /// current ambient wind, plus the [`Scenario::fingerprint`] so the
    /// checkpoint refuses to restore into a simulation built from a
    /// different scenario. Allocation-free once `snap` is warm.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        self.model
            .snapshot_into(&self.state, Some(&self.workspace), snap);
        snap.put_scalar("sim/dt", self.dt);
        snap.put_scalar("sim/next_shift", self.next_shift as f64);
        let (u, v) = self.model.atmos.params.ambient_wind;
        snap.put_slice("sim/ambient_wind", &[u, v]);
        snap.put_u64("sim/scenario_fp", self.scenario.fingerprint());
    }

    /// Restores this simulation from a checkpoint taken by
    /// [`Simulation::snapshot_into`]. After a successful restore,
    /// continuing the run reproduces the uninterrupted original bit for
    /// bit — including pending wind shifts.
    ///
    /// # Errors
    /// [`SimError::Snapshot`] when records are missing or malformed, or
    /// when the checkpoint's scenario fingerprint differs from this
    /// simulation's.
    pub fn restore_from(&mut self, snap: &Snapshot) -> Result<()> {
        let snap_err = |e: wildfire_obs::ObsError| SimError::Snapshot(e.to_string());
        let fp = snap.get_u64("sim/scenario_fp").map_err(snap_err)?;
        if fp != self.scenario.fingerprint() {
            return Err(SimError::Snapshot(
                "checkpoint was taken from a different scenario".to_string(),
            ));
        }
        let next_shift = snap.get_scalar("sim/next_shift").map_err(snap_err)? as usize;
        if next_shift > self.shifts.len() {
            return Err(SimError::Snapshot(
                "wind-shift cursor out of range".to_string(),
            ));
        }
        let wind = snap.get("sim/ambient_wind").map_err(snap_err)?;
        if wind.len() != 2 {
            return Err(SimError::Snapshot(
                "sim/ambient_wind must hold two values".to_string(),
            ));
        }
        self.model
            .restore_from(&mut self.state, Some(&mut self.workspace), snap)
            .map_err(snap_err)?;
        self.dt = snap.get_scalar("sim/dt").map_err(snap_err)?;
        self.next_shift = next_shift;
        self.model.atmos.params.ambient_wind = (wind[0], wind[1]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_fire::IgnitionShape;
    use wildfire_fuel::FuelCategory;

    #[test]
    fn default_builder_builds_and_burns() {
        let mut sim = SimulationBuilder::new()
            .domain(DomainSpec::SMALL)
            .build()
            .expect("default scenario builds");
        assert!(sim.state.fire.burned_area() > 0.0);
        sim.run_until(2.0, |_, _| {}).expect("short run");
        assert!(sim.time() >= 2.0);
    }

    #[test]
    fn first_ignite_replaces_default_then_accumulates() {
        let b = SimulationBuilder::new()
            .ignite(IgnitionShape::Circle {
                center: (100.0, 100.0),
                radius: 10.0,
            })
            .ignite(IgnitionShape::Circle {
                center: (200.0, 200.0),
                radius: 10.0,
            });
        assert_eq!(b.scenario().ignitions.len(), 2);
    }

    #[test]
    fn wind_shift_schedule_applies_in_order() {
        let mut sim = SimulationBuilder::new()
            .domain(DomainSpec::SMALL)
            .ambient_wind(5.0, 0.0)
            .wind_shift(1.0, (0.0, 5.0))
            .wind_shift(0.5, (2.0, 2.0))
            .coupled(false)
            .build()
            .expect("builds");
        assert_eq!(sim.model.atmos.params.ambient_wind, (5.0, 0.0));
        sim.run_until(0.9, |_, _| {}).expect("run");
        // t=0.5 shift fired, t=1.0 not yet.
        assert_eq!(sim.model.atmos.params.ambient_wind, (2.0, 2.0));
        sim.run_until(1.6, |_, _| {}).expect("run");
        assert_eq!(sim.model.atmos.params.ambient_wind, (0.0, 5.0));
    }

    #[test]
    fn fuel_patches_paint_heterogeneous_mesh() {
        let sim = SimulationBuilder::new()
            .domain(DomainSpec::SMALL)
            .fuel(FuelCategory::ShortGrass)
            .fuel_patch((0.0, 0.0, 120.0, 120.0), FuelCategory::Chaparral)
            .build()
            .expect("builds");
        let inside = sim.model.fire.mesh().fuel.at(0, 0);
        let g = sim.model.fire_grid;
        let outside = sim.model.fire.mesh().fuel.at(g.nx - 1, g.ny - 1);
        assert_ne!(
            inside.max_spread, outside.max_spread,
            "patch must change the fuel"
        );
    }

    #[test]
    fn run_until_lands_exactly_on_t_end() {
        let mut sim = SimulationBuilder::new()
            .domain(DomainSpec::SMALL)
            .coupled(false)
            .build()
            .expect("builds");
        // 1.3 s is not a multiple of the 0.5 s scenario dt: the final step
        // must clamp rather than overshoot to 1.5 s.
        sim.run_until(1.3, |_, _| {}).expect("run");
        assert!(
            (sim.time() - 1.3).abs() < 1e-9,
            "time {} != requested 1.3",
            sim.time()
        );
    }

    #[test]
    fn default_ignition_sits_at_the_physical_domain_center() {
        let b = SimulationBuilder::new();
        let IgnitionShape::Circle { center, .. } = b.scenario().ignitions[0] else {
            panic!("default ignition must be a circle");
        };
        assert_eq!(center, (300.0, 300.0), "PAPER domain center is (300, 300)");
    }

    #[test]
    fn empty_ignitions_rejected() {
        let err = SimulationBuilder::new().ignitions(Vec::new()).build();
        assert!(err.is_err());
    }

    #[test]
    fn nonpositive_dt_rejected() {
        let err = SimulationBuilder::new().dt(0.0).build();
        assert!(err.is_err());
    }
}
