//! The coupled step does its fire-mesh work only where the fire is — wind
//! prolonged onto the box the level set can reach, heat fluxes and their
//! restriction over the box of ignited nodes — and must still be, bit for
//! bit, the step assembled from the whole-field public building blocks.
//!
//! The model's workspace is shared between two different fires stepped in
//! alternation, so anything the banded step leaves stale outside its boxes
//! (wind, flux fields, level-set stages) is stale *from another state* when
//! it is next used.

use wildfire_atmos::state::AtmosGrid;
use wildfire_atmos::{AtmosParams, AtmosWorkspace};
use wildfire_core::{CoupledModel, CoupledState, CoupledWorkspace, StepDiagnostics};
use wildfire_fire::heat::{heat_fluxes_into, HeatFluxFields};
use wildfire_fire::{FireWorkspace, FuelCategory, IgnitionShape};
use wildfire_grid::transfer::{prolong_into, restrict_into};
use wildfire_grid::{Field2, VectorField2};

/// One coupled step through whole-field calls only; also returns the number
/// of level-set sub-steps it took.
fn whole_field_step(
    model: &CoupledModel,
    state: &mut CoupledState,
    dt: f64,
) -> (StepDiagnostics, usize) {
    let t_target = state.fire.time + dt;
    let mut wind = VectorField2::zeros(model.fire_grid);
    if model.coupled {
        let mut surface = VectorField2::default();
        model.atmos.surface_wind_into(&state.atmos, &mut surface);
        prolong_into(&surface.u, &mut wind.u).unwrap();
        prolong_into(&surface.v, &mut wind.v).unwrap();
    } else {
        wind.fill(model.atmos.params.ambient_wind);
    }
    let stats = model
        .fire
        .advance_to_stats_ws(
            &mut state.fire,
            &wind,
            t_target,
            dt,
            &mut FireWorkspace::new(),
        )
        .unwrap();
    let mut fluxes = HeatFluxFields::default();
    heat_fluxes_into(model.fire.mesh(), &state.fire, state.fire.time, &mut fluxes);
    let h = model.atmos.grid.horizontal();
    let (mut sensible, mut latent) = (Field2::zeros(h), Field2::zeros(h));
    if model.coupled {
        restrict_into(&fluxes.sensible, &mut sensible).unwrap();
        restrict_into(&fluxes.latent, &mut latent).unwrap();
    }
    let mut ws = AtmosWorkspace::default();
    while state.atmos.time < t_target - 1e-9 {
        let sub = model
            .atmos
            .max_stable_dt(&state.atmos)
            .min(t_target - state.atmos.time);
        model
            .atmos
            .step_ws(&mut state.atmos, &sensible, &latent, sub, &mut ws)
            .unwrap();
    }
    let mut surface = VectorField2::default();
    model.atmos.surface_wind_into(&state.atmos, &mut surface);
    let diag = StepDiagnostics {
        time: state.fire.time,
        burned_area: state.fire.burned_area(),
        max_updraft: state.atmos.max_updraft(),
        total_sensible_power: fluxes.sensible.integral(),
        total_latent_power: fluxes.latent.integral(),
        max_surface_wind: surface.max_magnitude(),
        max_spread_rate: stats.max_spread_rate,
    };
    (diag, stats.steps)
}

#[test]
fn banded_step_is_bitwise_the_whole_field_step() {
    // 131 × 131 fire nodes at 6 m: the 192 m cap leaves a plateau on every
    // side of either fire.
    let grid = AtmosGrid {
        nx: 14,
        ny: 14,
        nz: 5,
        dx: 60.0,
        dy: 60.0,
        dz: 50.0,
    };
    for coupled in [true, false] {
        let mut model =
            CoupledModel::new(grid, AtmosParams::default(), FuelCategory::ShortGrass, 10).unwrap();
        model.coupled = coupled;
        let fires = [
            vec![IgnitionShape::Circle {
                center: (420.0, 400.0),
                radius: 22.0,
            }],
            vec![
                IgnitionShape::Circle {
                    center: (300.0, 520.0),
                    radius: 15.0,
                },
                IgnitionShape::Line {
                    start: (500.0, 280.0),
                    end: (560.0, 300.0),
                    half_width: 6.0,
                },
            ],
        ];
        let mut banded: Vec<CoupledState> = fires.iter().map(|f| model.ignite(f, 0.0)).collect();
        let mut whole = banded.clone();
        let (_, hi) = banded[0].fire.psi.min_max();
        assert!(
            banded[0].fire.psi.count_where(|v| v == hi) > 3000,
            "no plateau to skip"
        );
        let mut ws = CoupledWorkspace::new();
        // 40 steps of the paper's dt, then long steps the level set has to
        // sub-step through (the wind box must cover every sub-step's reach).
        let mut most_sub_steps = 0;
        for step in 0..46 {
            let dt = if step < 40 { 0.5 } else { 12.0 };
            for (b, w) in banded.iter_mut().zip(&mut whole) {
                let got = model.step_ws(b, dt, &mut ws).unwrap();
                let (want, sub_steps) = whole_field_step(&model, w, dt);
                assert_eq!(got, want, "diagnostics, step {step}, coupled = {coupled}");
                assert!(b == w, "state differs, step {step}, coupled = {coupled}");
                most_sub_steps = most_sub_steps.max(sub_steps);
            }
        }
        assert!(
            most_sub_steps >= 3,
            "only {most_sub_steps} level-set sub-steps"
        );
        assert!(banded[0].atmos.max_updraft() > 0.0 || !coupled);
    }
}
