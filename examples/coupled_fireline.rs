//! The Fig. 1 scenario: two line ignitions and one circle ignition merge
//! while the fire couples to the atmosphere; an ASCII rendering of the
//! heat-flux field shows the fronts, and coupled vs uncoupled runs are
//! compared quantitatively.
//!
//! Run with: `cargo run --release --example coupled_fireline`

use wildfire::core::CoupledModel;
use wildfire::fire::heat::heat_fluxes;
use wildfire::fire::perimeter::burning_components;
use wildfire::sim::registry;

fn ascii_render(model: &CoupledModel, state: &wildfire::core::CoupledState) {
    let fluxes = heat_fluxes(model.fire.mesh(), &state.fire);
    let g = model.fire_grid;
    let (_, max_flux) = fluxes.sensible.min_max();
    let rows = 30;
    let cols = 60;
    println!("+{}+", "-".repeat(cols));
    for r in (0..rows).rev() {
        let mut line = String::new();
        for c in 0..cols {
            let ix = c * (g.nx - 1) / (cols - 1);
            let iy = r * (g.ny - 1) / (rows - 1);
            let q = fluxes.sensible.get(ix, iy);
            let psi = state.fire.psi.get(ix, iy);
            line.push(if q > 0.5 * max_flux {
                '#'
            } else if q > 0.05 * max_flux {
                '+'
            } else if psi < 0.0 {
                '.'
            } else {
                ' '
            });
        }
        println!("|{line}|");
    }
    println!("+{}+", "-".repeat(cols));
    println!(
        "  # intense heat flux   + moderate   . burned over   (fire mesh {}x{})",
        g.nx, g.ny
    );
}

fn main() {
    // The E1 configuration straight from the scenario registry (600 m
    // domain, 6 m fire mesh, Fig. 1 ignition geometry).
    let scenario = registry::by_name(registry::FIG1_FIRELINE).expect("registry scenario");
    let mut sim = scenario.build().expect("valid scenario");
    println!(
        "Initial configuration: {} separate fires",
        burning_components(&sim.state.fire.psi)
    );

    for checkpoint in [60.0, 180.0, 300.0] {
        sim.run_until(checkpoint, |_, _| {}).expect("run");
        println!("\n=== t = {checkpoint} s ===");
        ascii_render(&sim.model, &sim.state);
        println!(
            "burning components: {}   burned area: {:.0} m2   max updraft: {:.2} m/s",
            burning_components(&sim.state.fire.psi),
            sim.state.fire.burned_area(),
            sim.state.atmos.max_updraft(),
        );
    }
    println!("\nThe fronts merge into a single perimeter and the coupled updraft");
    println!("slows the downwind front (E1 in tests/paper_claims.rs measures both).");
}
