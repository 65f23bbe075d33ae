//! The paper's claims, asserted.
//!
//! Mandel et al., "Towards a Real-Time Data Driven Wildland Fire Model"
//! (IPDPS 2008, arXiv:0801.3875) makes three kinds of claim: the coupled
//! fire slows its own front and the fires merge (Fig. 1); the synthetic
//! infrared scene is physically plausible (Fig. 3); the morphing EnKF stays
//! close to the data where the standard EnKF diverges (Fig. 4; see also
//! arXiv:0802.1615). Around them sit the method claims of §2–§3: the
//! integrator (E5), the CFL-satisfying time step (E6), the station
//! observation function (E7) and the registration that morphing rests on
//! (E8). Each test below checks one claim at a shrunk size, with the margin
//! written next to its assertion, and prints its numbers:
//!
//! ```sh
//! cargo test --release --test paper_claims -- --nocapture
//! ```
//!
//! The README's "Paper claims" table lists the same numbers, the paper's
//! statement and the deviations. E2 (Fig. 2, the parallel cycle runs faster
//! than real time) is a timing claim and lives in the benchmark
//! (`fig2_loop` `rtf`), not here.

use wildfire_core::CoupledState;
use wildfire_enkf::{MorphingConfig, RegistrationConfig};
use wildfire_ensemble::driver::{EnsembleDriver, EnsembleWorkspace};
use wildfire_ensemble::metrics::{evaluate_coupled_ensemble, EnsembleMetrics};
use wildfire_fire::ignition::IgnitionShape;
use wildfire_fire::levelset::GradientScheme;
use wildfire_fire::perimeter::burning_components;
use wildfire_fire::{FireMesh, FireState, FireWorkspace, FuelCategory, Integrator, LevelSetSolver};
use wildfire_grid::{Field2, Grid2, VectorField2};
use wildfire_math::GaussianSampler;
use wildfire_obs::image_obs::ImageObservation;
use wildfire_obs::station::{synthesize_reports, WeatherStation};
use wildfire_obs::{ObsSet, StridedPsi};
use wildfire_scene::render::{radiative_fraction, SceneConfig};
use wildfire_sim::{
    perturb, registry, FuelSpec, PerturbationSpec, Scenario, Simulation, SimulationBuilder,
};

/// The registry's small-domain circle burn with the ignition moved.
fn small_circle(center: (f64, f64), radius: f64, wind: (f64, f64)) -> Scenario {
    registry::by_name(registry::CIRCLE_IGNITION)
        .expect("registry scenario")
        .with_ambient_wind(wind)
        .with_ignitions(vec![IgnitionShape::Circle { center, radius }])
}

// ---------------------------------------------------------------------------
// E1 — Fig. 1: the coupled front is slowed, and the fires merge.
// ---------------------------------------------------------------------------

/// Downwind (+x) reach of the burning region from the domain centre, with
/// the front located to sub-cell accuracy: along each mesh row, the last
/// burning node and its unburned +x neighbour bracket the zero of ψ, which
/// is interpolated linearly. (Counting whole burning nodes quantizes the
/// reach to the 6 m fire cell, which is the size of the effect.)
fn downwind_reach(sim: &Simulation) -> f64 {
    let g = sim.model.fire_grid;
    let center_x = g.origin.0 + g.extent().0 / 2.0;
    let psi = &sim.state.fire.psi;
    let mut reach = f64::NEG_INFINITY;
    for iy in 0..g.ny {
        for ix in 0..g.nx - 1 {
            let (p, q) = (psi.get(ix, iy), psi.get(ix + 1, iy));
            if p < 0.0 && q >= 0.0 {
                let (x, _) = g.world(ix, iy);
                reach = reach.max(x + g.dx * p / (p - q) - center_x);
            }
        }
    }
    reach
}

/// One Fig. 1 sample every 30 s: `(time, downwind reach, burning
/// components)`, plus the largest updraft over the run.
struct Fig1Run {
    samples: Vec<(f64, f64, usize)>,
    max_updraft: f64,
    cell: f64,
}

fn run_fig1(name: &str, t_end: f64) -> Fig1Run {
    let mut sim = registry::by_name(name)
        .expect("registry scenario")
        .build()
        .expect("fig1 builds");
    let mut samples = Vec::new();
    let mut max_updraft = 0.0_f64;
    let mut next_sample = 30.0;
    while sim.time() < t_end - 1e-9 {
        let diag = sim.step().expect("fig1 step");
        max_updraft = max_updraft.max(diag.max_updraft);
        if sim.time() >= next_sample - 1e-9 {
            let components = burning_components(&sim.state.fire.psi);
            samples.push((sim.time(), downwind_reach(&sim), components));
            next_sample += 30.0;
        }
    }
    Fig1Run {
        samples,
        max_updraft,
        cell: sim.model.fire_grid.dx,
    }
}

#[test]
fn e1_coupled_front_is_slowed_and_the_fires_merge() {
    // The paper's Fig. 1 run on its 600 m domain (6 m fire cells), coupled
    // and with coupling severed, side by side for 240 s.
    let (coupled, uncoupled) = std::thread::scope(|s| {
        let coupled = s.spawn(|| run_fig1(registry::FIG1_FIRELINE, 240.0));
        let uncoupled = run_fig1(registry::UNCOUPLED_BASELINE, 240.0);
        (coupled.join().expect("coupled run"), uncoupled)
    });
    let cell = coupled.cell;
    for (c, u) in coupled.samples.iter().zip(&uncoupled.samples) {
        println!(
            "E1 t = {:3.0} s: reach coupled {:6.2} m, uncoupled {:6.2} m \
             (lag {:.2} cells); components {} vs {}",
            c.0,
            c.1,
            u.1,
            (u.1 - c.1) / cell,
            c.2,
            u.2
        );
        // The fire-induced inflow holds the head back at every sample.
        assert!(c.1 < u.1, "coupled front ahead at t = {}", c.0);
    }
    let (c_end, u_end) = (
        coupled.samples.last().expect("samples"),
        uncoupled.samples.last().expect("samples"),
    );
    // Margin: at 240 s the coupled head lags by 4.2 m = 0.70 cells; assert
    // at least half a cell. The claim rests on less than one fire cell.
    let lag_cells = (u_end.1 - c_end.1) / cell;
    assert!(lag_cells >= 0.5, "coupled lag {lag_cells:.2} cells < 0.5");
    // Three ignitions merge into one burning region under coupling (the
    // uncoupled run still has two at 240 s).
    assert_eq!(c_end.2, 1, "coupled fires did not merge");
    assert!(c_end.2 <= u_end.2);
    // The fire makes its own wind: an 8.2 m/s updraft coupled, none
    // uncoupled. Margin: assert ≥ 4 m/s.
    println!(
        "E1 max updraft: coupled {:.2} m/s, uncoupled {:.2} m/s",
        coupled.max_updraft, uncoupled.max_updraft
    );
    assert!(coupled.max_updraft >= 4.0);
    assert_eq!(uncoupled.max_updraft, 0.0);
}

// ---------------------------------------------------------------------------
// E3 — Fig. 3: the synthetic infrared scene.
// ---------------------------------------------------------------------------

#[test]
fn e3_synthetic_scene_shows_the_fire_at_plausible_temperatures() {
    // The registry grass-scene geometry on short grass, 30 s after
    // ignition, imaged from 3000 m on 24 × 24 pixels.
    let scenario = registry::by_name(registry::GRASS_SCENE)
        .expect("registry scenario")
        .with_fuel(FuelSpec::Uniform(FuelCategory::ShortGrass));
    let mut sim = scenario.build().expect("fig3 builds");
    sim.run_until(30.0, |_, _| {}).expect("fig3 run");
    let (model, state) = (&sim.model, &sim.state);
    let image = ImageObservation::over_fire_domain(model, 3000.0, 24)
        .synthetic_image(model, state)
        .expect("render");
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    let radiance_peak = image.data.iter().copied().fold(0.0_f64, f64::max);
    let contrast = radiance_peak / median(image.data.clone());
    let bt = image.to_brightness_temperature();
    let peak_bt = bt.iter().copied().fold(0.0_f64, f64::max);
    let background_bt = median(bt);
    let wind = model.fire_wind(state).expect("wind");
    // FRP over heat release while the front actively burns (15 s after
    // ignition; the cooling scar radiates long after mass loss ends).
    let fraction = radiative_fraction(
        model.fire.mesh(),
        &state.fire,
        &wind,
        15.0,
        &SceneConfig::default(),
    );
    println!(
        "E3 contrast {contrast:.0}x, peak {peak_bt:.1} K, background \
         {background_bt:.1} K, radiative fraction {fraction:.3}"
    );
    // The fire dominates the image: measured 4681×; assert ≥ 100×.
    assert!(contrast >= 100.0);
    // The front is hot but bounded by the 1075 K flame constraint
    // (measured 1047 K; assert 900–1075 K).
    assert!((900.0..=1075.0).contains(&peak_bt));
    // The background reads ambient 300 K through the atmosphere
    // (measured 296.7 K; assert within 5 K).
    assert!((background_bt - 300.0).abs() <= 5.0);
    // Deviation: the radiative fraction is 0.319, outside the published
    // biomass-burning range [0.05, 0.25] (it is computed on the fire mesh,
    // so the image resolution does not move it). Only its physical bound
    // is asserted: less radiated than released.
    assert!(fraction > 0.0 && fraction < 1.0);
}

// ---------------------------------------------------------------------------
// E4 — Fig. 4: morphing EnKF vs standard EnKF, identical twin.
// ---------------------------------------------------------------------------

/// Morphing configuration of the twin experiment: a shift search wide
/// enough to span the deliberate ignition displacement; the dense ψ map
/// constrains position far better than amplitude.
fn fig4_morphing_config() -> MorphingConfig {
    MorphingConfig {
        registration: RegistrationConfig {
            max_shift: 150.0,
            shift_samples: 9,
            levels: vec![3],
            iterations: 20,
            ..Default::default()
        },
        sigma_amplitude: 10.0,
        sigma_displacement: 5.0,
        observed_fields: vec![0],
        ..Default::default()
    }
}

/// Identical-twin ψ observations of `truth` at every `stride`-th node.
fn psi_data(truth: &FireState, stride: usize, sigma: f64) -> (StridedPsi, Vec<f64>) {
    let op = StridedPsi::new(truth.grid(), stride, sigma);
    let mut data = Vec::new();
    op.measure_truth_into(truth, &mut data)
        .expect("truth measurement");
    (op, data)
}

#[test]
fn e4_morphing_enkf_stays_closer_to_the_data_than_the_standard_enkf() {
    // Truth ignited at (250, 250); the 6-member ensemble at an
    // intentionally wrong location 108 m away, forecast 60 s, then one
    // analysis by each filter from the same forecast (the paper: 25
    // members, 15 min).
    let (n_members, lead, seed) = (6, 60.0, 2024);
    let truth_scenario = small_circle((250.0, 250.0), 25.0, (2.0, 1.0));
    let displaced = truth_scenario.translated(-90.0, -60.0);
    let spec = PerturbationSpec::position_only(12.0, seed);
    let (model, mut members) =
        perturb::build_ensemble(&displaced, &spec, n_members).expect("fig4 ensemble");
    let mut truth: CoupledState = truth_scenario.ignite(&model);
    let driver = EnsembleDriver::new(model, 2);
    let mut ws = EnsembleWorkspace::new();
    driver
        .forecast_ws(std::slice::from_mut(&mut truth), lead, 0.5, &mut ws)
        .expect("truth run");
    driver
        .forecast_ws(&mut members, lead, 0.5, &mut ws)
        .expect("ensemble forecast");
    let forecast = evaluate_coupled_ensemble(&members, &truth);

    // Standard EnKF on the raw fields: ψ at every 7th node, σ = 2.
    let (op, data) = psi_data(&truth.fire, 7, 2.0);
    let mut pool = ObsSet::new();
    pool.push(&op, &data).expect("pool");
    let mut standard = members.clone();
    let mut rng = GaussianSampler::new(seed ^ 0xABCD);
    driver
        .analyze_obs_ws(&mut standard, &pool, 1.02, &mut rng, &mut ws)
        .expect("standard analysis");
    let standard = evaluate_coupled_ensemble(&standard, &truth);

    // Morphing EnKF registering against the dense gridded ψ map.
    let (op, data) = psi_data(&truth.fire, 1, 1.0);
    let mut pool = ObsSet::new();
    pool.push(&op, &data).expect("pool");
    let mut rng = GaussianSampler::new(seed ^ 0xABCD);
    driver
        .analyze_obs_morphing_ws(
            &mut members,
            &pool,
            &fig4_morphing_config(),
            &mut rng,
            &mut ws,
        )
        .expect("morphing analysis");
    let morphing = evaluate_coupled_ensemble(&members, &truth);

    let show = |label: &str, m: &EnsembleMetrics| {
        println!(
            "E4 {label:9}: position {:6.1} m, shape {:7.0} m², area ratio {:.2}",
            m.mean_position_error, m.mean_shape_error, m.mean_area_ratio
        );
    };
    show("forecast", &forecast);
    show("standard", &standard);
    show("morphing", &morphing);
    // Margin: morphing shape error is 0.23× the standard EnKF's
    // (1536 vs 6768 m²); assert ≤ 0.5×. Same for position (11.2 vs 38.7 m).
    assert!(morphing.mean_shape_error <= 0.5 * standard.mean_shape_error);
    assert!(morphing.mean_position_error <= 0.5 * standard.mean_position_error);
    // The standard EnKF's additive update inflates the burned area 1.76×;
    // the morphing analysis keeps it within 25 % of the truth (1.04).
    assert!(standard.mean_area_ratio >= 1.5);
    assert!((morphing.mean_area_ratio - 1.0).abs() <= 0.25);
}

// ---------------------------------------------------------------------------
// E5 — §2.2: the level-set integrator.
// ---------------------------------------------------------------------------

/// Burned area after 120 s of a circular grass fire under a 6 m/s wind,
/// stepped at `cfl_multiple` times the level-set CFL bound (Courant number
/// 1) with the given scheme; NaN once ψ blows up.
fn burned_area(integrator: Integrator, gradient: GradientScheme, cfl_multiple: f64) -> f64 {
    let grid = Grid2::new(81, 81, 2.0, 2.0).expect("grid");
    let mut solver = LevelSetSolver::new(FireMesh::flat(grid, FuelCategory::ShortGrass));
    solver.integrator = integrator;
    solver.gradient = gradient;
    solver.enforce_cfl = false;
    let (ex, ey) = grid.extent();
    let circle = IgnitionShape::Circle {
        center: (ex / 2.0, ey / 2.0),
        radius: 8.0,
    };
    let mut state = FireState::ignite(grid, &[circle], 0.0);
    let wind = VectorField2::from_fn(grid, |_, _| (6.0, 0.0));
    let mut rhs = Field2::default();
    let s_max = solver.rhs_into(&state.psi, &wind, &mut rhs);
    let dt = cfl_multiple / (s_max * (1.0 / grid.dx + 1.0 / grid.dy));
    let mut ws = FireWorkspace::new();
    while state.time < 120.0 {
        solver
            .step_ws(&mut state, &wind, dt, &mut ws)
            .expect("fig5 step");
        if !state.psi.all_finite() {
            return f64::NAN;
        }
    }
    state.burned_area()
}

#[test]
fn e5_heun_and_euler_agree_at_stable_steps_and_central_euler_fails_first() {
    use GradientScheme::{Central, Godunov};
    use Integrator::{Euler, Heun};
    // The production pairing, Heun + upwind (Godunov) gradients at the CFL
    // bound, is the reference: runs at a half and a quarter of that step
    // land on the same area to three digits.
    let reference = burned_area(Heun, Godunov, 1.0);
    let ratio = |i, g, m| burned_area(i, g, m) / reference;
    let euler = ratio(Euler, Godunov, 1.0);
    let (heun_c, euler_c) = (ratio(Heun, Central, 2.0), ratio(Euler, Central, 2.0));
    println!(
        "E5 area / Heun + Godunov at the CFL bound: Euler + Godunov {euler:.4}; \
         central at 2x the bound: Heun {heun_c:.3}, Euler {euler_c:.3}"
    );
    // At the CFL bound with upwind gradients Euler lands on Heun's area
    // (measured within 1e-4; assert 1 %). The paper reports that explicit
    // Euler stalls the fire; that does not happen here (deviation).
    assert!((euler - 1.0).abs() <= 0.01);
    // With central gradients Euler breaks down first: at twice the bound
    // it over-burns 2.2× while Heun stays within 1 % (assert ≥ 1.5× vs
    // ≤ 1.05×) — why the paper's Heun + upwind pairing is the safe one.
    assert!(euler_c >= 1.5, "Euler + central did not break down");
    assert!((heun_c - 1.0).abs() <= 0.05);
}

// ---------------------------------------------------------------------------
// E6 — §2.3: dt = 0.5 s satisfies the CFL condition in both media.
// ---------------------------------------------------------------------------

#[test]
fn e6_paper_time_step_satisfies_both_cfl_bounds() {
    // The paper's configuration (60 m atmosphere cells, 6 m fire cells),
    // a 30 m circle under a 3 m/s wind, 30 s at the paper's dt = 0.5 s.
    let mut sim = SimulationBuilder::new()
        .name("fig6-cfl")
        .ambient_wind(3.0, 0.0)
        .ignite(IgnitionShape::Circle {
            center: (300.0, 300.0),
            radius: 30.0,
        })
        .build()
        .expect("fig6 builds");
    let (mut surface, mut wind) = (VectorField2::default(), VectorField2::default());
    let mut fire_ws = FireWorkspace::new();
    let (mut fire_bound, mut atmos_bound) = (f64::INFINITY, f64::INFINITY);
    while sim.time() < 30.0 - 1e-9 {
        sim.model
            .fire_wind_into(&sim.state, &mut surface, &mut wind)
            .expect("fire wind");
        fire_bound = fire_bound.min(sim.model.fire.max_stable_dt_ws(
            &sim.state.fire,
            &wind,
            &mut fire_ws,
        ));
        atmos_bound = atmos_bound.min(sim.model.atmos.max_stable_dt(&sim.state.atmos));
        sim.step().expect("fig6 step");
        assert!(sim.state.atmos.all_finite() && sim.state.fire.psi.all_finite());
    }
    println!("E6 smallest bound over 30 s: fire {fire_bound:.2} s, atmosphere {atmos_bound:.2} s");
    // Margin: the bounds never fall below 3.38 s (fire) and 12.9 s
    // (atmosphere); assert each ≥ 2 × 0.5 s over the whole run.
    assert!(fire_bound >= 1.0);
    assert!(atmos_bound >= 1.0);
}

// ---------------------------------------------------------------------------
// E7 — §3.1: the weather-station observation function.
// ---------------------------------------------------------------------------

#[test]
fn e7_station_innovation_is_pure_observation_noise() {
    // A 20-station network inside the 480 m domain over a 20 s burn;
    // synthetic reports (σ = 1 K) against the perfect-model observation,
    // repeated 20 times: 400 innovations.
    let mut sim = small_circle((240.0, 240.0), 30.0, (3.0, 0.0))
        .build()
        .expect("fig7 builds");
    sim.run_until(20.0, |_, _| {}).expect("fig7 run");
    let truth = &sim.state;
    let stations: Vec<WeatherStation> = (0..20)
        .map(|i| {
            let (fx, fy) = ((i % 5) as f64, (i / 5) as f64);
            WeatherStation::new(format!("S{i:02}"), 80.0 + fx * 80.0, 80.0 + fy * 80.0)
        })
        .collect();
    let observed: Vec<f64> = stations
        .iter()
        .map(|s| s.observe(truth, 300.0).temperature)
        .collect();
    let mut rng = GaussianSampler::new(17);
    let mut innovations = Vec::new();
    for _ in 0..20 {
        let reports = synthesize_reports(&stations, truth, 300.0, 1.0, 0.5, &mut rng);
        innovations.extend(
            reports
                .iter()
                .zip(&observed)
                .map(|(r, o)| (r.temperature - o).abs()),
        );
    }
    let n = innovations.len() as f64;
    let mean = innovations.iter().sum::<f64>() / n;
    // E|N(0, σ)| = σ·√(2/π); its standard deviation is σ·√(1 − 2/π).
    let expected = (2.0 / std::f64::consts::PI).sqrt();
    let se = (1.0 - 2.0 / std::f64::consts::PI).sqrt() / n.sqrt();
    println!(
        "E7 mean |innovation| {mean:.3} K over {n} draws, expected {expected:.3} K \
         (standard error {se:.3})"
    );
    // Margin: 3 standard errors.
    assert!((mean - expected).abs() <= 3.0 * se);
}

// ---------------------------------------------------------------------------
// E8 — §3.3: registration recovers known displacements.
// ---------------------------------------------------------------------------

#[test]
fn e8_registration_recovers_known_shifts() {
    let grid = Grid2::new(61, 61, 2.0, 2.0).expect("grid");
    let cone = |cx: f64, cy: f64| {
        Field2::from_world_fn(grid, |x, y| {
            ((x - cx).powi(2) + (y - cy).powi(2)).sqrt() - 15.0
        })
    };
    let config = RegistrationConfig {
        max_shift: 80.0,
        shift_samples: 9,
        levels: vec![3, 5],
        iterations: 30,
        ..Default::default()
    };
    let reference = cone(60.0, 60.0);
    for shift in [0.0, 10.0, 20.0, 40.0, 60.0] {
        let shifted = cone(60.0 + shift, 60.0);
        let t = wildfire_enkf::register(&shifted, &reference, &config).expect("register");
        let (tx, ty) = t.sample(60.0 + shift, 60.0);
        let recovered = (tx * tx + ty * ty).sqrt();
        let (mut registered, mut raw) = (0.0, 0.0);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let (x, y) = grid.world(ix, iy);
                let (px, py) = t.displace(x, y);
                registered += (shifted.get(ix, iy) - reference.sample_bilinear(px, py)).powi(2);
                raw += (shifted.get(ix, iy) - reference.get(ix, iy)).powi(2);
            }
        }
        let misfit = registered / raw.max(1e-12);
        println!("E8 shift {shift:4.1} m: recovered {recovered:5.1} m, misfit {misfit:.4} of raw");
        // Margin: recovered within 10 % (+0.5 m) of the truth (worst
        // measured: 64.3 m for 60 m) and the misfit at most a quarter of
        // the unregistered one (worst: 0.17).
        assert!((recovered - shift).abs() <= 0.1 * shift + 0.5);
        if shift > 0.0 {
            assert!(misfit <= 0.25);
        }
    }
}
