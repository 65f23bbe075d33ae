//! Cross-crate integration tests: full pipelines spanning the coupled
//! model, observation layer, state stores, and both filters. All model
//! setup flows through the `wildfire::sim` Scenario API.

use wildfire::core::CoupledModel;
use wildfire::enkf::{MorphingConfig, RegistrationConfig};
use wildfire::ensemble::driver::EnsembleDriver;
use wildfire::ensemble::metrics::evaluate_coupled_ensemble;
use wildfire::ensemble::store::{DiskStore, MemStore, SnapshotStore};
use wildfire::ensemble::{EnsembleWorkspace, ObsFilter};
use wildfire::fire::heat::energy_released;
use wildfire::fire::ignition::IgnitionShape;
use wildfire::math::GaussianSampler;
use wildfire::obs::image_obs::ImageObservation;
use wildfire::obs::station::WeatherStation;
use wildfire::obs::{ObsSet, ObservationOperator, StridedPsi};
use wildfire::sim::{perturb, registry, PerturbationSpec, Scenario};

/// The shared test scenario: the registry circle ignition with the (2, 1)
/// m/s test wind of the original suite.
fn test_scenario() -> Scenario {
    registry::by_name(registry::CIRCLE_IGNITION)
        .expect("registry scenario")
        .with_ambient_wind((2.0, 1.0))
}

fn test_model() -> CoupledModel {
    test_scenario().model().expect("valid scenario")
}

fn center_fire(model: &CoupledModel) -> wildfire::core::CoupledState {
    test_scenario().ignite(model)
}

#[test]
fn coupled_energy_budget_is_sane() {
    // The heat the atmosphere accumulates must not exceed the chemical
    // energy the fire has released (some escapes through damping).
    let model = test_model();
    let mut state = center_fire(&model);
    model.run(&mut state, 30.0, 0.5, |_, _| {}).expect("run");
    let released = energy_released(model.fire.mesh(), &state.fire, state.time());
    let atmos_energy = state
        .atmos
        .thermal_energy(model.atmos.params.rho, model.atmos.params.cp);
    assert!(released > 0.0);
    assert!(atmos_energy > 0.0, "fire heat must reach the atmosphere");
    assert!(
        atmos_energy <= released * 1.05,
        "atmosphere gained {atmos_energy} J but fire only released {released} J"
    );
}

#[test]
fn fire_atmosphere_feedback_modifies_spread() {
    // The Fig. 1 claim end-to-end: with identical setups, coupled and
    // uncoupled runs produce different fire perimeters.
    let mut s_coupled = test_scenario().build().expect("coupled sim");
    let mut s_uncoupled = test_scenario()
        .with_coupling(false)
        .build()
        .expect("uncoupled sim");
    s_coupled.run_until(120.0, |_, _| {}).expect("coupled");
    s_uncoupled.run_until(120.0, |_, _| {}).expect("uncoupled");
    // The burned-region sign pattern is quantized to 12 m cells, so compare
    // the continuous level-set field: any feedback must perturb ψ.
    let psi_diff = s_coupled
        .state
        .fire
        .psi
        .rmse(&s_uncoupled.state.fire.psi)
        .expect("same grid");
    assert!(
        psi_diff > 1e-3,
        "two-way coupling must alter the level-set field (ψ RMSE {psi_diff})"
    );
    assert!(s_coupled.state.atmos.max_updraft() > 0.01);
    assert!(s_uncoupled.state.atmos.max_updraft() < 1e-10);
}

#[test]
fn image_observation_distinguishes_fire_positions() {
    // The assimilation premise: different fire locations produce
    // distinguishable synthetic images.
    let scenario = test_scenario();
    let model = scenario.model().expect("valid scenario");
    let mut a = scenario
        .clone()
        .with_ignitions(vec![IgnitionShape::Circle {
            center: (180.0, 240.0),
            radius: 25.0,
        }])
        .ignite(&model);
    let mut b = scenario
        .with_ignitions(vec![IgnitionShape::Circle {
            center: (300.0, 240.0),
            radius: 25.0,
        }])
        .ignite(&model);
    a.fire.time = 10.0;
    b.fire.time = 10.0;
    let obs = ImageObservation::over_fire_domain(&model, 3000.0, 24);
    let img_a = obs.synthetic_image(&model, &a).expect("render a");
    let img_b = obs.synthetic_image(&model, &b).expect("render b");
    let corr = wildfire::math::stats::correlation(&img_a.data, &img_b.data);
    assert!(
        corr < 0.9,
        "images of fires 120 m apart must differ (correlation {corr})"
    );
}

#[test]
fn disk_and_memory_stores_agree_through_forecast() {
    let believed = test_scenario().with_ignitions(vec![IgnitionShape::Circle {
        center: (220.0, 220.0),
        radius: 25.0,
    }]);
    let spec = PerturbationSpec::position_only(10.0, 31);
    let (model, mut via_mem) = perturb::build_ensemble(&believed, &spec, 4).expect("ensemble");
    let driver = EnsembleDriver::new(model, 2);
    let mut via_disk = via_mem.clone();
    let mem = MemStore::new();
    let dir = std::env::temp_dir().join(format!("wf_int_store_{}", std::process::id()));
    let disk = DiskStore::new(&dir).expect("disk store");
    let mut ws = EnsembleWorkspace::new();
    driver
        .forecast_via_store_ws(&mut via_mem, &mem, 5.0, 0.5, &mut ws)
        .expect("mem forecast");
    driver
        .forecast_via_store_ws(&mut via_disk, &disk, 5.0, 0.5, &mut ws)
        .expect("disk forecast");
    for (a, b) in via_mem.iter().zip(via_disk.iter()) {
        assert_eq!(a.fire.psi.as_slice(), b.fire.psi.as_slice());
        assert_eq!(a.fire.tig.as_slice(), b.fire.tig.as_slice());
    }
    // And the stored snapshots round-trip identically.
    let mut from_mem = wildfire::obs::Snapshot::new();
    let mut from_disk = wildfire::obs::Snapshot::new();
    mem.load_into(0, &mut from_mem).expect("mem load");
    disk.load_into(0, &mut from_disk).expect("disk load");
    assert_eq!(from_mem, from_disk);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn full_assimilation_cycle_improves_displaced_ensemble() {
    // End-to-end Fig. 4 (small): forecast + morphing analysis reduces both
    // position and shape error of a misplaced ensemble.
    let truth_scenario = test_scenario().with_ignitions(vec![IgnitionShape::Circle {
        center: (260.0, 260.0),
        radius: 25.0,
    }]);
    let believed = truth_scenario
        .clone()
        .with_ignitions(vec![IgnitionShape::Circle {
            center: (180.0, 200.0),
            radius: 25.0,
        }]);
    let spec = PerturbationSpec::position_only(10.0, 5);
    let (model, mut members) = perturb::build_ensemble(&believed, &spec, 8).expect("ensemble");
    let mut truth = truth_scenario.ignite(&model);
    let driver = EnsembleDriver::new(model, 2);
    driver
        .model
        .run(&mut truth, 60.0, 0.5, |_, _| {})
        .expect("truth");
    let mut ws = EnsembleWorkspace::new();
    driver
        .forecast_ws(&mut members, 60.0, 0.5, &mut ws)
        .expect("forecast");
    let before = evaluate_coupled_ensemble(&members, &truth);
    let cfg = MorphingConfig {
        registration: RegistrationConfig {
            max_shift: 130.0,
            shift_samples: 9,
            levels: vec![3],
            iterations: 20,
            ..Default::default()
        },
        sigma_amplitude: 10.0,
        sigma_displacement: 5.0,
        observed_fields: vec![0],
        ..Default::default()
    };
    // The data: a dense (stride-1) gridded ψ map of the truth.
    let psi_op = StridedPsi::new(truth.fire.grid(), 1, 1.0);
    let mut psi_data = Vec::new();
    psi_op
        .measure_truth_into(&truth.fire, &mut psi_data)
        .expect("measure");
    let mut pool = ObsSet::new();
    pool.push(&psi_op, &psi_data).expect("pool");
    let mut rng = GaussianSampler::new(77);
    driver
        .analyze_obs_morphing_ws(&mut members, &pool, &cfg, &mut rng, &mut ws)
        .expect("analysis");
    let after = evaluate_coupled_ensemble(&members, &truth);
    assert!(
        after.mean_position_error < 0.5 * before.mean_position_error,
        "position error {} → {}",
        before.mean_position_error,
        after.mean_position_error
    );
    assert!(
        after.mean_shape_error < before.mean_shape_error,
        "shape error {} → {}",
        before.mean_shape_error,
        after.mean_shape_error
    );
    // Members must remain valid model states, able to keep running.
    for m in members.iter_mut().take(2) {
        assert!(m.fire.is_consistent());
        driver
            .model
            .run(m, 65.0, 0.5, |_, _| {})
            .expect("post-analysis run");
    }
}

#[test]
fn heterogeneous_obs_set_cycle_beats_free_running_forecast() {
    // The ISSUE-3 acceptance pipeline, end to end: the fig2-data-driven
    // scenario declares a gridded-ψ stream and a 4-station network; an
    // identical-twin truth run feeds both; EnsembleDriver::cycle_obs_ws
    // assimilates the mixed pool (strided ψ + stations in ONE analysis) and
    // must reduce the ensemble-mean ψ RMSE against a free-running forecast
    // of the same initial ensemble.
    let scenario = registry::by_name(registry::FIG2_DATA_DRIVEN).expect("registry scenario");
    let believed = scenario.clone().with_ignitions(vec![IgnitionShape::Circle {
        center: (180.0, 200.0),
        radius: 25.0,
    }]);
    let model = scenario.model().expect("valid scenario");
    let driver = EnsembleDriver::new(model, 2);
    let mut truth = scenario.ignite(&driver.model);

    let operators: Vec<Box<dyn ObservationOperator>> = scenario
        .streams
        .iter()
        .map(|s| s.build_operator(&driver.model))
        .collect();
    let t_end = 60.0;
    let timeline = scenario.timeline(t_end);
    assert!(
        timeline.streams_due_at(t_end).count() >= 2,
        "both streams must report at the final analysis"
    );

    let spec = PerturbationSpec::position_only(10.0, 5);
    let mut members =
        perturb::perturbed_states(&believed, &spec, 6, &driver.model).expect("ensemble");
    let mut free = members.clone();

    let mut ws = EnsembleWorkspace::new();
    let mut free_ws = EnsembleWorkspace::new();
    let mut rng = GaussianSampler::new(99);
    let mut data_rng = GaussianSampler::new(17);
    let mut last_report = None;
    let mut blocks: Vec<Vec<f64>> = Vec::new();
    for t in timeline.analysis_times() {
        driver
            .model
            .run(&mut truth, t, scenario.dt, |_, _| {})
            .expect("truth run");
        let pool = timeline
            .synthesize_due_pool(&operators, t, &truth, &mut data_rng, &mut blocks)
            .expect("data synthesis");
        let report = driver
            .cycle_obs_ws(
                &mut members,
                &pool,
                ObsFilter::Standard { inflation: 1.02 },
                t,
                scenario.dt,
                &mut rng,
                &mut ws,
            )
            .expect("cycle");
        driver
            .forecast_ws(&mut free, t, scenario.dt, &mut free_ws)
            .expect("free forecast");
        if pool.len() >= 2 {
            last_report = Some(report);
        }
    }

    // The heterogeneous analysis must have reduced the innovation…
    let report = last_report.expect("a heterogeneous analysis ran");
    assert!(
        report.analysis_innovation_rms < report.forecast_innovation_rms,
        "innovation RMS must drop: {} → {}",
        report.forecast_innovation_rms,
        report.analysis_innovation_rms
    );
    // …and the assimilated ensemble must fit the truth better than the
    // free-running forecast, member-mean ψ RMSE.
    let rmse = |ens: &[wildfire::core::CoupledState]| {
        ens.iter()
            .map(|m| m.fire.psi.rmse(&truth.fire.psi).expect("same grid"))
            .sum::<f64>()
            / ens.len() as f64
    };
    let assimilated = rmse(&members);
    let free_running = rmse(&free);
    assert!(
        assimilated < 0.8 * free_running,
        "assimilated ψ RMSE {assimilated} must beat free-running {free_running}"
    );
    for m in &members {
        assert!(m.fire.is_consistent(), "members must stay valid states");
    }
}

#[test]
fn station_and_image_observations_coexist() {
    // The Fig. 2 data pool: both observation kinds evaluated on one state.
    let model = test_model();
    let mut state = center_fire(&model);
    model.run(&mut state, 10.0, 0.5, |_, _| {}).expect("run");
    let station = WeatherStation::new("MIXED", 250.0, 250.0);
    let sobs = station.observe(&state, 300.0);
    assert!(sobs.fire_nearby);
    assert!(sobs.temperature > 300.0);
    let iobs = ImageObservation::over_fire_domain(&model, 3000.0, 16);
    let img = iobs.synthetic_image(&model, &state).expect("render");
    let (lo, hi) = img.min_max();
    assert!(hi > lo);
}

#[test]
fn sim_perturbation_matches_driver_initial_ensemble_bitwise() {
    // Both ensemble-bootstrap APIs promise the same draw order through
    // fire::ignition::displaced; equal seeds must give byte-identical
    // member states.
    let believed = test_scenario().with_ignitions(vec![IgnitionShape::Circle {
        center: (200.0, 210.0),
        radius: 25.0,
    }]);
    let spec = PerturbationSpec::position_only(12.0, 4242);
    let (model, via_sim) = perturb::build_ensemble(&believed, &spec, 6).expect("ensemble");
    let driver = EnsembleDriver::new(model, 1);
    let via_driver = driver.initial_ensemble(&wildfire::ensemble::EnsembleSetup {
        n_members: 6,
        center: (200.0, 210.0),
        radius: 25.0,
        position_spread: 12.0,
        seed: 4242,
    });
    for (a, b) in via_sim.iter().zip(via_driver.iter()) {
        assert_eq!(a.fire.psi.as_slice(), b.fire.psi.as_slice());
        assert_eq!(a.fire.tig.as_slice(), b.fire.tig.as_slice());
    }
}

#[test]
fn every_registry_scenario_survives_a_short_coupled_burn() {
    // Scenario-diversity smoke: each named scenario builds through the
    // public umbrella API and stays physical over a short burn.
    for scenario in registry::all() {
        let mut sim = scenario
            .build()
            .unwrap_or_else(|e| panic!("{} failed to build: {e}", scenario.name));
        let burned0 = sim.state.fire.burned_area();
        sim.run_until(3.0, |_, _| {})
            .unwrap_or_else(|e| panic!("{} failed to run: {e:?}", scenario.name));
        assert!(
            sim.state.fire.psi.all_finite() && sim.state.atmos.all_finite(),
            "{} produced non-finite fields",
            scenario.name
        );
        assert!(
            sim.state.fire.burned_area() >= burned0,
            "{} burned area shrank",
            scenario.name
        );
    }
}

#[test]
fn wind_shift_scenario_turns_the_spread_direction() {
    // The wind-shift scenario must actually change fire behavior: compare
    // against the same scenario with the shift stripped, well past the
    // shift time. (Uncoupled so the ambient wind acts on the fire
    // directly and the runs stay cheap.)
    let shifted = registry::by_name(registry::WIND_SHIFT)
        .expect("registry scenario")
        .with_coupling(false);
    let mut steady = shifted.clone();
    steady.wind.shifts.clear();
    let mut sim_shifted = shifted.build().expect("builds");
    let mut sim_steady = steady.build().expect("builds");
    for sim in [&mut sim_shifted, &mut sim_steady] {
        while sim.time() < 90.0 {
            sim.step_by(2.0).expect("step");
        }
    }
    let diff = sim_shifted
        .state
        .fire
        .psi
        .rmse(&sim_steady.state.fire.psi)
        .expect("same grid");
    assert!(
        diff > 1e-6,
        "a 90-degree wind shift must alter the front (ψ RMSE {diff})"
    );
}

#[test]
fn heterogeneous_fuel_slows_the_front_in_the_timber_break() {
    // The fuel-break strip must change spread relative to uniform grass.
    // Translate the registry ignition right up against the timber strip
    // (x ∈ [270, 300]) and run uncoupled so the ambient wind pushes the
    // front into it quickly; timber litter spreads ~4× slower than grass.
    let hetero = registry::by_name(registry::HETEROGENEOUS_FUEL)
        .expect("registry scenario")
        .translated(120.0, 0.0)
        .with_coupling(false);
    let uniform = hetero.clone().with_fuel(wildfire::sim::FuelSpec::Uniform(
        wildfire::fuel::FuelCategory::ShortGrass,
    ));
    let mut sim_h = hetero.build().expect("builds");
    let mut sim_u = uniform.build().expect("builds");
    for sim in [&mut sim_h, &mut sim_u] {
        while sim.time() < 90.0 {
            sim.step_by(2.0).expect("step");
        }
    }
    assert!(
        sim_h.state.fire.burned_area() < sim_u.state.fire.burned_area(),
        "slower fuels downwind must reduce burned area ({} vs {})",
        sim_h.state.fire.burned_area(),
        sim_u.state.fire.burned_area()
    );
}
