//! Batched multi-fire forecast: run eight ignition-perturbed variants of
//! the fig1 fireline through one [`SimBatch`] and print the per-fire
//! product table (burned area, perimeter, peak spread/updraft/power).
//!
//! The batch work-steals the fires across the thread pool — each one an
//! independent simulation, as the paper's Fig. 2 loop advances ensemble
//! members — so every trajectory is bit-identical to running that fire
//! alone.
//!
//! Run with: `cargo run --release --example batch_forecast`

use wildfire::sim::batch::SimBatch;
use wildfire::sim::{perturb, registry, PerturbationSpec, SimulationBuilder};

fn main() {
    // Eight copies of the fig1 fireline scenario, each with its ignition
    // line displaced by a deterministic pseudo-random offset — a minimal
    // ensemble of "where might the fire actually be" hypotheses.
    let scenario = SimulationBuilder::from_scenario(
        registry::by_name("fig1-fireline").expect("registry scenario"),
    )
    .into_scenario();
    let spec = PerturbationSpec::position_only(30.0, 2026);
    let fires = perturb::perturbed_simulations(&scenario, &spec, 8).expect("fires build");

    let mut batch = SimBatch::new(4);
    for sim in fires {
        batch.push(sim);
    }
    println!(
        "advancing {} perturbed fires to t = 60 s in one batch...",
        batch.len()
    );
    batch.advance_to(60.0).expect("batch advance");

    println!(
        "\n{:<18} {:>6} {:>12} {:>10} {:>9} {:>9} {:>12}",
        "fire", "steps", "area [m2]", "perim [m]", "ros max", "w max", "P_sens [MW]"
    );
    let products = batch.products();
    for p in &products {
        println!(
            "{:<18} {:>6} {:>12.0} {:>10.0} {:>9.3} {:>9.3} {:>12.2}",
            p.name,
            p.coupled_steps,
            p.burned_area,
            p.perimeter_length,
            p.max_spread_rate,
            p.max_updraft,
            p.peak_sensible_power / 1e6,
        );
    }

    let areas: Vec<f64> = products.iter().map(|p| p.burned_area).collect();
    let mean = areas.iter().sum::<f64>() / areas.len() as f64;
    let min = areas.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = areas.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!("\nburned area across the ensemble: mean {mean:.0} m2, range {min:.0}..{max:.0} m2");
    assert!(
        products
            .iter()
            .all(|p| p.coupled_steps > 0 && p.burned_area > 0.0),
        "every fire must have stepped and burned"
    );
    println!("batched forecast ok");
}
