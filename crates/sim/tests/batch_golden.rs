//! Golden pins for the `SimBatch` product table.
//!
//! A 4-slot mixed-registry batch — the Fig. 1 fireline, the mid-run wind
//! shift, the heterogeneous fuel map, and the uncoupled baseline —
//! advanced to t = 20 s must reproduce the burned-area and
//! perimeter-length products recorded here to 1e-9 (relative). The batch
//! deliberately mixes domains (PAPER and SMALL), palettes, and coupling
//! modes, so the slots differ in cost and the pool has to balance them.
//!
//! These pins complement the bitwise proptest suite: the proptests prove
//! batch == independent, this test proves both still equal *yesterday's
//! physics* — any kernel change that shifts the trajectory shows up here
//! even if it shifts batched and independent stepping together.

use wildfire_sim::batch::SimBatch;
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
fn four_slot_mixed_registry_products_match_golden() {
    let mut batch = SimBatch::new(2);
    for (name, _, _, _) in GOLDEN {
        let scenario = registry::by_name(name).expect("registry scenario");
        batch.push_scenario(&scenario).expect("scenario builds");
    }
    batch.advance_to(T_END).expect("batch advance");
    let products = batch.products();
    assert_eq!(products.len(), GOLDEN.len());
    for (p, (name, area, perimeter, steps)) in products.iter().zip(GOLDEN) {
        assert_eq!(p.name, name);
        assert!(
            (p.time - T_END).abs() < 1e-9,
            "{name}: time {} != {T_END}",
            p.time
        );
        assert_eq!(p.coupled_steps, steps, "{name}: step count");
        assert!(
            rel_err(p.burned_area, area) < REL_TOL,
            "{name}: burned area {:.12} vs golden {:.12}",
            p.burned_area,
            area
        );
        assert!(
            rel_err(p.perimeter_length, perimeter) < REL_TOL,
            "{name}: perimeter {:.12} vs golden {:.12}",
            p.perimeter_length,
            perimeter
        );
        assert!(p.max_spread_rate > 0.0, "{name}: fire must have spread");
    }
}
