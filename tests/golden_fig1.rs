//! Golden regression test pinning the fig1 fireline trajectory.
//!
//! The fused-kernel equivalence suite guarantees the RHS is bitwise-stable
//! against the in-tree reference — but both could drift together if a
//! future rewrite changed the physics *and* its reference at once. This
//! test pins the actual trajectory: burned area and perimeter length of the
//! fig1 coupled run at fixed times, against values committed with the fused
//! kernels. A kernel rewrite that silently changes fire behaviour fails
//! here even if it keeps its own reference consistent.
//!
//! The pinned values were produced by this exact code path; the check uses
//! a tight relative tolerance (1e-9) rather than bit equality so that a
//! libm/toolchain change shows up as a *reviewable* failure with the drift
//! magnitude in the message, not as binary noise. Regenerate deliberately
//! by running this test with `GOLDEN_FIG1_PRINT=1 cargo test --test
//! golden_fig1 -- --nocapture` and updating the table.

use wildfire_fire::perimeter::perimeter_length;
use wildfire_sim::{registry, SimulationBuilder};

/// `(time, burned area m², perimeter length m)` checkpoints of the fig1
/// coupled run (full PAPER domain, registry defaults).
const GOLDEN: [(f64, f64, f64); 3] = [
    (20.0, 8100.0, 774.376_192_491_142_9),
    (40.0, 11196.0, 845.562_044_149_103_7),
    (60.0, 13428.0, 925.206_994_613_914_3),
];

const REL_TOL: f64 = 1e-9;

#[test]
fn fig1_trajectory_matches_committed_goldens() {
    let scenario = registry::by_name("fig1-fireline").expect("registry scenario");
    let mut sim = SimulationBuilder::from_scenario(scenario)
        .build()
        .expect("fig1 builds");
    let print = std::env::var("GOLDEN_FIG1_PRINT").is_ok();
    for (t, golden_area, golden_perimeter) in GOLDEN {
        sim.run_until(t, |_, _| {}).expect("fig1 runs");
        let area = sim.state.fire.burned_area();
        let perimeter = perimeter_length(&sim.state.fire.psi);
        if print {
            println!("(t {t}): area {area:?}, perimeter {perimeter:?}");
            continue;
        }
        let area_drift = (area - golden_area).abs() / golden_area;
        assert!(
            area_drift <= REL_TOL,
            "burned area drifted at t = {t}: {area} vs golden {golden_area} \
             (relative drift {area_drift:.3e})"
        );
        let perimeter_drift = (perimeter - golden_perimeter).abs() / golden_perimeter;
        assert!(
            perimeter_drift <= REL_TOL,
            "perimeter length drifted at t = {t}: {perimeter} vs golden {golden_perimeter} \
             (relative drift {perimeter_drift:.3e})"
        );
    }
}
