//! [`SimulationBuilder`]: fluent construction of coupled models from
//! [`Scenario`] parts, and [`Simulation`]: a model + state pair stepped at
//! the scenario's reference dt.

use crate::scenario::{DomainSpec, FuelSpec, Scenario, WindShift, WindSpec};
use crate::{Result, SimError};
use wildfire_atmos::AtmosParams;
use wildfire_core::{CoupledModel, CoupledState, CoupledWorkspace, StepDiagnostics};
use wildfire_fire::{FireMesh, FuelCategory, FuelMap, FuelModel, IgnitionShape};
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

    /// Toggles two-way coupling.
    pub fn coupled(mut self, coupled: bool) -> Self {
        self.scenario.coupled = coupled;
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

    /// Builds only the coupled model (no ignition). The model carries the
    /// scenario's wind-shift schedule
    /// ([`CoupledModel::ambient_wind_at`]).
    ///
    /// # Errors
    /// [`SimError::Scenario`] for malformed descriptors,
    /// [`SimError::Model`] when the coupled model rejects the configuration.
    pub(crate) fn build_model(&self) -> Result<CoupledModel> {
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
                    let idx = map
                        .add_fuel(FuelModel::for_category(p.fuel))
                        .map_err(|_| SimError::Scenario("more than 255 fuel patches"))?;
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
        model.set_wind_shifts(s.wind.shifts.iter().map(|w| (w.at, w.to)));
        Ok(model)
    }

    /// Builds the full [`Simulation`]: model and ignited state.
    ///
    /// # Errors
    /// [`SimError::Scenario`] when the ignition set is empty or the
    /// scenario does not describe a valid model; model construction
    /// failures.
    pub fn build(self) -> Result<Simulation> {
        if self.scenario.ignitions.is_empty() {
            return Err(SimError::Scenario("scenario has no ignition shapes"));
        }
        let model = self.build_model()?;
        let s = self.scenario;
        let state = model.ignite(&s.ignitions, s.ignition_time);
        Ok(Simulation {
            model,
            state,
            dt: s.dt,
            scenario: s,
            workspace: CoupledWorkspace::new(),
        })
    }
}

/// A realized scenario: coupled model + ignited state, stepped at the
/// scenario's reference dt. The model applies the wind-shift schedule as a
/// function of the state's time, so taking `model` and `state` apart and
/// driving them directly loses nothing.
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
}

impl Simulation {
    /// Current simulation time (s).
    pub fn time(&self) -> f64 {
        self.state.time()
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
        Ok(self
            .model
            .step_ws(&mut self.state, dt, &mut self.workspace)?)
    }

    /// Runs to `t_end`, invoking `on_step` after every step. The final step
    /// is clamped so the state lands exactly on `t_end` (same contract as
    /// `CoupledModel::run`), even when `t_end` is not a multiple of the
    /// scenario dt.
    ///
    /// # Errors
    /// Propagates coupled-model step failures.
    pub fn run_until<F>(&mut self, t_end: f64, on_step: F) -> Result<()>
    where
        F: FnMut(&CoupledState, &StepDiagnostics),
    {
        Ok(self.model.run_ws(
            &mut self.state,
            t_end,
            self.dt,
            &mut self.workspace,
            on_step,
        )?)
    }

    /// Captures the full simulation into `snap`: the coupled state (ambient
    /// wind included) and the reference dt, plus the
    /// [`Scenario::fingerprint`] so the checkpoint refuses to restore into
    /// a simulation built from a different scenario. Allocation-free once
    /// `snap` is warm.
    pub fn snapshot_into(&self, snap: &mut Snapshot) {
        self.model
            .snapshot_into(&self.state, Some(&self.workspace), snap);
        snap.put_scalar("sim/dt", self.dt);
        snap.put_u64("sim/scenario_fp", self.scenario.fingerprint());
    }

    /// Restores this simulation from a checkpoint taken by
    /// [`Simulation::snapshot_into`]. After a successful restore,
    /// continuing the run reproduces the uninterrupted original bit for
    /// bit — including pending wind shifts, which the restored time
    /// decides.
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
        let dt = snap.get_scalar("sim/dt").map_err(snap_err)?;
        self.model
            .restore_from(&mut self.state, Some(&mut self.workspace), snap)
            .map_err(snap_err)?;
        self.dt = dt;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FuelPatch;
    use wildfire_fire::{FuelCategory, IgnitionShape};

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
        assert_eq!(sim.state.atmos.ambient_wind, (5.0, 0.0));
        sim.run_until(0.9, |_, _| {}).expect("run");
        // t=0.5 shift fired, t=1.0 not yet.
        assert_eq!(sim.state.atmos.ambient_wind, (2.0, 2.0));
        sim.run_until(1.6, |_, _| {}).expect("run");
        assert_eq!(sim.state.atmos.ambient_wind, (0.0, 5.0));
    }

    #[test]
    fn fuel_patches_paint_heterogeneous_mesh() {
        let scenario = SimulationBuilder::new()
            .domain(DomainSpec::SMALL)
            .into_scenario()
            .with_fuel(FuelSpec::Patches {
                base: FuelCategory::ShortGrass,
                patches: vec![FuelPatch {
                    rect: (0.0, 0.0, 120.0, 120.0),
                    fuel: FuelCategory::Chaparral,
                }],
            });
        let sim = SimulationBuilder::from_scenario(scenario)
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
    fn too_many_fuel_patches_is_a_scenario_error() {
        let patches = (0..300)
            .map(|i| FuelPatch {
                rect: (i as f64, 0.0, i as f64 + 1.0, 1.0),
                fuel: FuelCategory::Brush,
            })
            .collect();
        let scenario = SimulationBuilder::new()
            .domain(DomainSpec::SMALL)
            .into_scenario()
            .with_fuel(FuelSpec::Patches {
                base: FuelCategory::ShortGrass,
                patches,
            });
        let b = SimulationBuilder::from_scenario(scenario);
        assert!(matches!(b.build_model(), Err(SimError::Scenario(_))));
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
    fn failed_restore_leaves_the_state_untouched() {
        // Drop each record in turn, then give each one a wrong length in
        // turn: every restore must fail and leave the simulation as it was.
        let build = || {
            SimulationBuilder::new()
                .domain(DomainSpec::SMALL)
                .build()
                .expect("builds")
        };
        let mut source = build();
        source.run_until(1.0, |_, _| {}).expect("run");
        let mut good = Snapshot::new();
        source.snapshot_into(&mut good);
        let mut target = build();
        let bytes_of = |sim: &Simulation| {
            let mut snap = Snapshot::new();
            sim.snapshot_into(&mut snap);
            snap.to_bytes()
        };
        let before = bytes_of(&target);
        for skip in good.names() {
            for lengthen in [false, true] {
                let mut bad = Snapshot::new();
                for name in good.names().filter(|&n| lengthen || n != skip) {
                    let rec = bad.record_mut(name);
                    rec.extend_from_slice(good.get(name).expect("listed"));
                    if name == skip {
                        rec.push(0.0);
                    }
                }
                assert!(target.restore_from(&bad).is_err(), "{skip} {lengthen}");
                assert!(bytes_of(&target) == before, "{skip} {lengthen}: torn");
            }
        }
        target.restore_from(&good).expect("restores");
        assert_eq!(bytes_of(&target), bytes_of(&source));
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
