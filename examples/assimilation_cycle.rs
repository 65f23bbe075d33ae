//! The Fig. 2 data-driven loop, end to end: the `fig2-data-driven` scenario
//! declares a pool of observation streams (gridded ψ every 60 s, a 4-station
//! weather network every 30 s); identical-twin "real data" is synthesized
//! from a truth run and assimilated by
//! [`EnsembleDriver::cycle_obs_ws`] at every timeline instant — the filter
//! never sees the instruments, only the packed `(y, H(X), R)` pool.
//! Instants whose pool holds the gridded-ψ stream run the morphing EnKF
//! (position as well as amplitude corrections), station-only instants the
//! standard EnKF. A free-running ensemble (no assimilation) runs alongside
//! for comparison, and the run reports its real-time factor: simulated
//! seconds per wall second, truth and free run included.
//!
//! Run with: `cargo run --release --example assimilation_cycle [-- quick|paper]`
//! (`quick` shrinks the ensemble and the window for CI smoke runs; `paper`
//! is the case the paper shows — its 600 m domain with a 6 m fire mesh, 25
//! members, 300 s).

use std::time::Instant;
use wildfire::enkf::MorphingConfig;
use wildfire::ensemble::driver::{EnsembleDriver, EnsembleWorkspace, ObsFilter};
use wildfire::fire::ignition::IgnitionShape;
use wildfire::math::GaussianSampler;
use wildfire::obs::{ObsStreamKind, ObservationOperator};
use wildfire::sim::{perturb, registry, DomainSpec, PerturbationSpec};

fn mean_psi_rmse(
    members: &[wildfire::core::CoupledState],
    truth: &wildfire::core::CoupledState,
) -> f64 {
    members
        .iter()
        .map(|m| m.fire.psi.rmse(&truth.fire.psi).expect("same grid"))
        .sum::<f64>()
        / members.len() as f64
}

fn main() {
    let mode = |name: &str| std::env::args().any(|a| a.trim_start_matches("--") == name);
    let paper = mode("paper");
    let (n_members, t_end) = if paper {
        (25, 300.0)
    } else if mode("quick") {
        (8, 60.0)
    } else {
        (16, 120.0)
    };

    // Truth burns at the scenario's nominal location; the ensemble believes
    // a displaced ignition (the Fig. 4 identical-twin setup).
    let mut scenario = registry::by_name(registry::FIG2_DATA_DRIVEN).expect("registry scenario");
    if paper {
        scenario.domain = DomainSpec::PAPER;
    }
    let believed = scenario.clone().with_ignitions(vec![IgnitionShape::Circle {
        center: (170.0, 190.0),
        radius: 25.0,
    }]);

    let model = scenario.model().expect("valid scenario");
    let driver = EnsembleDriver::new(model, 4);
    let mut truth = scenario.ignite(&driver.model);

    // Realize the declared streams as observation operators, once.
    let operators: Vec<Box<dyn ObservationOperator>> = scenario
        .streams
        .iter()
        .map(|s| s.build_operator(&driver.model))
        .collect();
    let timeline = scenario.timeline(t_end);
    println!(
        "scenario '{}': {} streams, {} observation events in [0, {t_end}] s",
        scenario.name,
        scenario.streams.len(),
        timeline.len(),
    );

    let spec = PerturbationSpec::position_only(12.0, 7);
    let mut members = perturb::perturbed_states(&believed, &spec, n_members, &driver.model)
        .expect("position-only perturbation");
    let mut free = members.clone();

    let morphing = MorphingConfig::default();
    let mut ws = EnsembleWorkspace::new();
    let mut free_ws = EnsembleWorkspace::new();
    let mut rng = GaussianSampler::new(99);
    let mut data_rng = GaussianSampler::new(4242);
    let mut blocks: Vec<Vec<f64>> = Vec::new();

    println!(
        "{:>7} {:>22} {:>20} {:>12}",
        "t [s]", "pool (m = dim)", "innovation RMS", "psi RMSE"
    );
    let started = Instant::now();
    for t in timeline.analysis_times() {
        // Advance the truth and synthesize this instant's data pool.
        driver
            .model
            .run(&mut truth, t, scenario.dt, |_, _| {})
            .expect("truth run");
        let due: Vec<usize> = timeline.streams_due_at(t).collect();
        let pool = timeline
            .synthesize_due_pool(&operators, t, &truth, &mut data_rng, &mut blocks)
            .expect("data synthesis");

        // One forecast–analysis cycle against the pool; the free ensemble
        // only forecasts. The morphing filter needs a field to register
        // against, so it runs where the gridded-ψ stream reports.
        let has_psi_field = due
            .iter()
            .any(|&s| matches!(scenario.streams[s].kind, ObsStreamKind::StridedPsi { .. }));
        let filter = if has_psi_field {
            ObsFilter::Morphing(&morphing)
        } else {
            ObsFilter::Standard { inflation: 1.02 }
        };
        let report = driver
            .cycle_obs_ws(
                &mut members,
                &pool,
                filter,
                t,
                scenario.dt,
                &mut rng,
                &mut ws,
            )
            .expect("cycle");
        driver
            .forecast_ws(&mut free, t, scenario.dt, &mut free_ws)
            .expect("free forecast");

        let names: Vec<&str> = due.iter().map(|&s| operators[s].name()).collect();
        println!(
            "{:7.0} {:>22} {:9.3} -> {:7.3} {:12.4}",
            t,
            format!("{} (m = {})", names.join("+"), pool.total_dim()),
            report.forecast_innovation_rms,
            report.analysis_innovation_rms,
            mean_psi_rmse(&members, &truth),
        );
    }

    let wall = started.elapsed().as_secs_f64();
    let real_time_factor = t_end / wall;
    println!(
        "\n{n_members} members on {} fire nodes: {t_end} simulated s in {wall:.2} wall s \
         = {real_time_factor:.1} simulated-s / wall-s",
        driver.model.fire_grid.len(),
    );
    assert!(
        real_time_factor > 1.0,
        "the loop must run faster than real time"
    );

    let assimilated = mean_psi_rmse(&members, &truth);
    let free_running = mean_psi_rmse(&free, &truth);
    println!("\nensemble-mean psi RMSE vs truth at t = {t_end} s:");
    println!("  assimilated  : {assimilated:8.4}");
    println!("  free-running : {free_running:8.4}");
    println!(
        "  ratio        : {:8.2}x better with the heterogeneous data pool",
        free_running / assimilated
    );
    assert!(
        assimilated < free_running,
        "assimilation must beat the free run"
    );
}
