//! The far-field cap of `CoupledModel::ignite` and the band it buys.
//!
//! `ignite` caps ψ₀ at `FAR_FIELD_CELLS · max(dx, dy)` so that the level
//! set has an exactly flat far field to skip. These tests pin what the cap
//! may and may not change: on the paper's Fig. 1 case the ignition times,
//! the burned area, the perimeter and ψ near the front are the uncapped
//! run's, bit for bit; ψ never exceeds the cap; a model with no ignition is
//! one plateau and costs nothing to step; and the number of nodes the
//! level set visits follows the fire, not the mesh.

use wildfire_core::{CoupledState, CoupledWorkspace, FAR_FIELD_CELLS};
use wildfire_fire::perimeter::perimeter_length;
use wildfire_fire::{FireState, FireWorkspace};
use wildfire_grid::VectorField2;
use wildfire_sim::{registry, DomainSpec};

#[test]
fn the_cap_does_not_change_the_fig1_fire() {
    let scenario = registry::by_name(registry::FIG1_FIRELINE).expect("registry scenario");
    let model = scenario.model().expect("fig1 builds");
    let mut capped = scenario.ignite(&model);
    let mut exact = CoupledState {
        fire: FireState::ignite(model.fire_grid, &scenario.ignitions, scenario.ignition_time),
        atmos: capped.atmos.clone(),
    };
    assert_ne!(
        capped.fire.psi, exact.fire.psi,
        "the cap must bite on the paper domain"
    );
    assert_eq!(capped.fire.tig, exact.fire.tig);

    let near = 3.0 * model.fire_grid.dx;
    let (mut ws_a, mut ws_b) = (CoupledWorkspace::new(), CoupledWorkspace::new());
    for step in 1..=480 {
        let da = model
            .step_ws(&mut capped, 0.5, &mut ws_a)
            .expect("capped step");
        let db = model
            .step_ws(&mut exact, 0.5, &mut ws_b)
            .expect("exact step");
        assert_eq!(
            capped.fire.tig, exact.fire.tig,
            "t_i differs at step {step}"
        );
        for (i, (a, b)) in capped
            .fire
            .psi
            .as_slice()
            .iter()
            .zip(exact.fire.psi.as_slice())
            .enumerate()
        {
            if b.abs() <= near {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "ψ at node {i}, step {step}: {a} vs {b}"
                );
            }
        }
        if [120, 240, 480].contains(&step) {
            assert_eq!(da.burned_area, db.burned_area, "burned area at step {step}");
            assert_eq!(
                perimeter_length(&capped.fire.psi).to_bits(),
                perimeter_length(&exact.fire.psi).to_bits(),
                "perimeter at step {step}"
            );
        }
    }
    assert!(
        capped.fire.burned_area() > 4.0 * 8100.0,
        "the fire must have grown"
    );
}

#[test]
fn ignite_caps_psi_and_an_empty_ignition_is_one_free_plateau() {
    for scenario in registry::all() {
        let model = scenario.model().expect("scenario builds");
        let g = model.fire_grid;
        let cap = FAR_FIELD_CELLS * g.dx.max(g.dy);
        let state = scenario.ignite(&model);
        let (_, hi) = state.fire.psi.min_max();
        assert!(
            hi <= cap,
            "{}: max ψ {hi} above the cap {cap}",
            scenario.name
        );
        assert!(state.fire.is_consistent());

        let mut cold = model.ignite(&[], 0.0);
        let plateau = cold.fire.psi.get(0, 0);
        assert!(plateau > 0.0 && plateau <= cap);
        assert!(cold.fire.psi.as_slice().iter().all(|&v| v == plateau));
        let wind = VectorField2::from_fn(g, |_, _| (3.0, 1.0));
        let stats = model
            .fire
            .advance_to_stats_ws(&mut cold.fire, &wind, 5.0, 0.5, &mut FireWorkspace::new())
            .expect("cold advance");
        assert_eq!(
            (stats.steps, stats.active_nodes),
            (10, 0),
            "{}",
            scenario.name
        );
        assert_eq!(stats.max_spread_rate, 0.0);
        // And through the coupled step (empty wind reach, empty ignited box).
        let mut cold = model.ignite(&[], 0.0);
        let diag = model
            .step_ws(&mut cold, 0.5, &mut CoupledWorkspace::new())
            .expect("cold coupled step");
        assert_eq!((diag.burned_area, diag.total_power()), (0.0, 0.0));
        assert!(cold.fire.psi.as_slice().iter().all(|&v| v == plateau));
    }
}

#[test]
fn band_occupancy_follows_the_fire_not_the_mesh() {
    // The Fig. 1 ignition centred on 101², 201² and 391² fire meshes. The
    // two larger meshes hold the whole 32-cell band, and the level set
    // visits the same nodes on both (a 3.8× larger mesh, no extra work);
    // the paper's own 101² mesh clips the band at its edge and visits fewer.
    let base = registry::by_name(registry::FIG1_FIRELINE).expect("registry scenario");
    let (px, py) = DomainSpec::PAPER.center();
    let visited: Vec<usize> = [11, 21, 40]
        .into_iter()
        .map(|n| {
            let domain = DomainSpec {
                nx: n,
                ny: n,
                ..DomainSpec::PAPER
            };
            let (cx, cy) = domain.center();
            let mut scenario = base.translated(cx - px, cy - py);
            scenario.domain = domain;
            let model = scenario.model().expect("scenario builds");
            assert_eq!(model.fire_grid.nx, 10 * (n - 1) + 1);
            let mut fire = scenario.ignite(&model).fire;
            let wind = VectorField2::from_fn(model.fire_grid, |_, _| (3.0, 0.0));
            model
                .fire
                .advance_to_stats_ws(&mut fire, &wind, 30.0, 0.5, &mut FireWorkspace::new())
                .expect("fire advance")
                .active_nodes
        })
        .collect();
    let [small, medium, large] = visited[..] else {
        unreachable!("three meshes")
    };
    assert!(small > 0 && small <= medium, "{visited:?}");
    assert!(
        (large as f64) <= 1.02 * medium as f64 && (medium as f64) <= 1.02 * large as f64,
        "nodes visited on the three meshes: {visited:?}"
    );
    // Nowhere near the 3.8× (or, from 101², 15×) the mesh grew by.
    assert!((large as f64) <= 1.5 * small as f64, "{visited:?}");
}
