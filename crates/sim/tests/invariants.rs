//! Physical invariants of the fire component, asserted over every scenario
//! in the registry for 60 simulated seconds (first slice of the ROADMAP's
//! invariant suite):
//!
//! * the burned node count never decreases from one coupled step to the next;
//! * the state stays consistent (ψ finite, every burning node has a `t_i`);
//! * an ignition time, once set, is never rewritten;
//! * ψ never exceeds the far-field cap `CoupledModel::ignite` starts it under;
//! * every fire sub-step respects the CFL bound — checked from outside by
//!   re-taking each coupled step's fire advance by hand, one
//!   `max_stable_dt_ws` + `step_ws` at a time (`step_ws` rejects a step
//!   beyond the bound), and requiring the bits the model produced.

use wildfire_core::FAR_FIELD_CELLS;
use wildfire_fire::{FireWorkspace, UNBURNED};
use wildfire_sim::registry;

#[test]
fn fire_invariants_hold_on_every_registry_scenario() {
    for scenario in registry::all() {
        let name = scenario.name.clone();
        let mut sim = scenario.build().expect("scenario builds");
        let g = sim.model.fire_grid;
        let cap = FAR_FIELD_CELLS * g.dx.max(g.dy);
        let mut ws = FireWorkspace::new();
        let mut burned = sim.state.fire.burned_nodes();
        while sim.time() < 60.0 - 1e-9 {
            let before = sim.state.clone();
            let diag = sim.step().expect("coupled step");
            let fire = &sim.state.fire;
            let t = fire.time;

            let now = fire.burned_nodes();
            assert!(
                now >= burned,
                "{name} t = {t}: burned nodes {burned} → {now}"
            );
            burned = now;
            assert!(fire.is_consistent(), "{name} t = {t}: inconsistent state");
            for (old, new) in before.fire.tig.as_slice().iter().zip(fire.tig.as_slice()) {
                assert!(
                    *old == UNBURNED || old == new,
                    "{name} t = {t}: t_i rewritten {old} → {new}"
                );
            }
            let (_, hi) = fire.psi.min_max();
            assert!(hi <= cap, "{name} t = {t}: ψ = {hi} above the cap {cap}");

            // The wind the fire saw: `Simulation::step` applies a due wind
            // shift to the model before it steps, so the model is current.
            let wind = sim.model.fire_wind(&before).expect("fire wind");
            let mut by_hand = before.fire.clone();
            let mut rate = 0.0_f64;
            while by_hand.time < t - 1e-12 {
                let bound = sim.model.fire.max_stable_dt_ws(&by_hand, &wind, &mut ws);
                let dt = sim.dt.min(bound).min(t - by_hand.time);
                assert!(
                    dt <= bound,
                    "{name} t = {t}: sub-step {dt} beyond the CFL bound {bound}"
                );
                let s = (sim.model.fire.cfl / bound) / (1.0 / g.dx + 1.0 / g.dy);
                rate = rate.max(if bound.is_finite() { s } else { 0.0 });
                sim.model
                    .fire
                    .step_ws(&mut by_hand, &wind, dt, &mut ws)
                    .expect("a CFL-respecting step is accepted");
            }
            assert_eq!(
                by_hand.psi, fire.psi,
                "{name} t = {t}: ψ is not the CFL-respecting one"
            );
            assert_eq!(by_hand.tig, fire.tig, "{name} t = {t}");
            assert!(
                (rate - diag.max_spread_rate).abs() <= 1e-12 * rate.max(1.0),
                "{name} t = {t}: spread rate {} vs {rate}",
                diag.max_spread_rate
            );
        }
    }
}
