//! Golden pins for four registry scenarios, each built with
//! [`Scenario::build`] and run alone.
//!
//! The Fig. 1 fireline, the mid-run wind shift, the heterogeneous fuel map
//! and the uncoupled baseline, advanced to t = 20 s, must reproduce the
//! burned-area and perimeter-length products recorded here to 1e-9
//! (relative), in the recorded number of coupled steps. The scenarios
//! deliberately mix domains (PAPER and SMALL), palettes and coupling modes.
//!
//! These pins complement the bitwise proptest suites: those prove that a
//! member forecast in an ensemble equals the member run alone, this test
//! proves both still equal *yesterday's physics* — any kernel change that
//! shifts the trajectory shows up here even if it shifts every path
//! together.

use wildfire_fire::perimeter::perimeter_length;
use wildfire_sim::registry;

const T_END: f64 = 20.0;
const REL_TOL: f64 = 1e-9;

/// `(scenario, burned_area m², perimeter m, coupled steps)` at t = 20 s.
const GOLDEN: [(&str, f64, f64, usize); 4] = [
    (registry::FIG1_FIRELINE, 8100.0, 774.376192491144, 40),
    (registry::WIND_SHIFT, 2592.0, 186.37649113224182, 40),
    (registry::HETEROGENEOUS_FUEL, 2628.0, 181.6842282466488, 40),
    (registry::UNCOUPLED_BASELINE, 8100.0, 776.457510351175, 40),
];

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1.0)
}

#[test]
fn four_mixed_registry_scenarios_match_golden() {
    for (name, area, perimeter, steps) in GOLDEN {
        let scenario = registry::by_name(name).expect("registry scenario");
        let mut sim = scenario.build().expect("scenario builds");
        let mut coupled_steps = 0usize;
        let mut max_spread_rate = 0.0f64;
        sim.run_until(T_END, |_, d| {
            coupled_steps += 1;
            max_spread_rate = max_spread_rate.max(d.max_spread_rate);
        })
        .expect("run");
        assert!(
            (sim.time() - T_END).abs() < 1e-9,
            "{name}: time {} != {T_END}",
            sim.time()
        );
        assert_eq!(coupled_steps, steps, "{name}: step count");
        let burned_area = sim.state.fire.burned_area();
        assert!(
            rel_err(burned_area, area) < REL_TOL,
            "{name}: burned area {burned_area:.12} vs golden {area:.12}"
        );
        let length = perimeter_length(&sim.state.fire.psi);
        assert!(
            rel_err(length, perimeter) < REL_TOL,
            "{name}: perimeter {length:.12} vs golden {perimeter:.12}"
        );
        assert!(max_spread_rate > 0.0, "{name}: fire must have spread");
    }
}
