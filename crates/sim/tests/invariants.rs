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
//!
//! and one of the atmosphere: the projected wind is discretely
//! divergence-free to round-off on every grid the workloads use.

use wildfire_atmos::state::AtmosGrid;
use wildfire_atmos::{AtmosModel, AtmosParams, AtmosWorkspace};
use wildfire_core::FAR_FIELD_CELLS;
use wildfire_fire::{FireWorkspace, UNBURNED};
use wildfire_grid::Field2;
use wildfire_sim::{registry, DomainSpec};

/// After every heated step the projection leaves `max|∇·u|·Δx / max|u|`
/// at round-off (≤ 1e-13), on the fig1_wide, PAPER and SMALL grids and an
/// odd, anisotropic one.
#[test]
fn projected_wind_is_divergence_free_to_round_off() {
    let wide = AtmosGrid {
        nx: 40,
        ny: 40,
        ..DomainSpec::PAPER.atmos_grid()
    };
    let odd = AtmosGrid {
        nx: 7,
        ny: 9,
        nz: 4,
        dx: 60.0,
        dy: 45.0,
        dz: 50.0,
    };
    for g in [
        wide,
        DomainSpec::PAPER.atmos_grid(),
        DomainSpec::SMALL.atmos_grid(),
        odd,
    ] {
        let model = AtmosModel::new(g, AtmosParams::default()).unwrap();
        let h = g.horizontal();
        // 50 kW/m² over a 2×2 patch near the centre: a vigorous fire.
        let (ci, cj) = (g.nx / 2, g.ny / 2);
        let qs = Field2::from_fn(h, |i, j| {
            if (ci - 1..=ci).contains(&i) && (cj - 1..=cj).contains(&j) {
                50_000.0
            } else {
                0.0
            }
        });
        let ql = Field2::zeros(h);
        let mut s = model.initial_state();
        let mut ws = AtmosWorkspace::new();
        for step in 0..40 {
            let dt = model.max_stable_dt(&s).min(0.5);
            model.step_ws(&mut s, &qs, &ql, dt, &mut ws).unwrap();
            let (mu, mv, mw) = s.max_speed();
            let rel = s.max_divergence() * g.dx / mu.max(mv).max(mw);
            assert!(
                rel <= 1e-13,
                "{}x{}x{} step {step}: max|div|·Δx/max|u| = {rel:e}",
                g.nx,
                g.ny,
                g.nz
            );
        }
        assert!(s.max_updraft() > 0.0, "{g:?}: the heat drove no updraft");
    }
}

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

            // The wind the fire saw: the coupled step first writes
            // `ambient_wind_at(t)` into the state, which `before` already
            // carries (the one registry shift is at t = 60 s, where this
            // loop stops).
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
