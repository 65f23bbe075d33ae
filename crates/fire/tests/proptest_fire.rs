//! Property-based tests on the fire model's invariants.

use proptest::prelude::*;
use wildfire_fire::ignition::{signed_distance_union, IgnitionShape};
use wildfire_fire::{
    FireMesh, FireState, FireWorkspace, FuelCategory, LevelSetSolver, ReinitWorkspace, UNBURNED,
};
use wildfire_grid::{Field2, Grid2, VectorField2};

fn arb_circle() -> impl Strategy<Value = IgnitionShape> {
    (10.0f64..70.0, 10.0f64..70.0, 2.0f64..15.0).prop_map(|(x, y, r)| IgnitionShape::Circle {
        center: (x, y),
        radius: r,
    })
}

proptest! {
    /// Signed distance to a union is 1-Lipschitz (metric property).
    #[test]
    fn signed_distance_is_lipschitz(
        shapes in prop::collection::vec(arb_circle(), 1..4),
        x1 in 0.0f64..80.0,
        y1 in 0.0f64..80.0,
        x2 in 0.0f64..80.0,
        y2 in 0.0f64..80.0,
    ) {
        let d1 = signed_distance_union(&shapes, x1, y1);
        let d2 = signed_distance_union(&shapes, x2, y2);
        let dist = ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt();
        prop_assert!((d1 - d2).abs() <= dist + 1e-9,
            "|{d1} - {d2}| > {dist}");
    }

    /// The burned region grows monotonically and ignition times stay
    /// consistent under arbitrary uniform winds.
    #[test]
    fn burned_region_monotone_under_wind(
        wx in -8.0f64..8.0,
        wy in -8.0f64..8.0,
        radius in 4.0f64..12.0,
        steps in 1usize..15,
    ) {
        let grid = Grid2::new(41, 41, 2.0, 2.0).unwrap();
        let solver = LevelSetSolver::new(FireMesh::flat(grid, FuelCategory::ShortGrass));
        let mut state = FireState::ignite(
            grid,
            &[IgnitionShape::Circle { center: (40.0, 40.0), radius }],
            0.0,
        );
        let wind = VectorField2::from_fn(grid, |_, _| (wx, wy));
        let mut ws = wildfire_fire::FireWorkspace::new();
        let mut prev_burned = state.burned_nodes();
        for _ in 0..steps {
            let dt = solver.max_stable_dt_ws(&state, &wind, &mut ws).min(1.0);
            solver.step_ws(&mut state, &wind, dt, &mut ws).unwrap();
            let now = state.burned_nodes();
            prop_assert!(now >= prev_burned, "burned region shrank");
            prev_burned = now;
        }
        prop_assert!(state.is_consistent());
        prop_assert!(state.psi.all_finite());
    }

    /// Front speed never exceeds the fuel's Smax: the burned region cannot
    /// outrun the physical bound.
    #[test]
    fn front_speed_bounded_by_smax(
        wx in 0.0f64..50.0,
        t_end in 1.0f64..20.0,
    ) {
        let grid = Grid2::new(61, 61, 2.0, 2.0).unwrap();
        let mesh = FireMesh::flat(grid, FuelCategory::ShortGrass);
        let smax = mesh.fuel.at(0, 0).max_spread;
        let solver = LevelSetSolver::new(mesh);
        let r0 = 8.0;
        let mut state = FireState::ignite(
            grid,
            &[IgnitionShape::Circle { center: (60.0, 60.0), radius: r0 }],
            0.0,
        );
        let wind = VectorField2::from_fn(grid, |_, _| (wx, 0.0));
        solver
            .advance_to_ws(&mut state, &wind, t_end, 0.5, &mut FireWorkspace::new())
            .unwrap();
        // Max distance of any burned node from the ignition center.
        let mut max_r: f64 = 0.0;
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                if state.psi.get(ix, iy) < 0.0 {
                    let (x, y) = grid.world(ix, iy);
                    max_r = max_r.max(((x - 60.0).powi(2) + (y - 60.0).powi(2)).sqrt());
                }
            }
        }
        // Allow one cell of discretization slack.
        prop_assert!(
            max_r <= r0 + smax * t_end + 2.0 * grid.dx + 1e-9,
            "front at {max_r} exceeds bound {}",
            r0 + smax * t_end
        );
    }

    /// Pack/unpack is the identity for any ignition geometry.
    #[test]
    fn pack_roundtrip(shapes in prop::collection::vec(arb_circle(), 1..3), t in 0.0f64..100.0) {
        let grid = Grid2::new(21, 21, 4.0, 4.0).unwrap();
        let state = FireState::ignite(grid, &shapes, t);
        let cap = 1e4;
        let packed = state.pack(cap);
        prop_assert!(packed.iter().all(|v| v.is_finite()));
        let mut back = FireState::ignite(grid, &[], 0.0);
        back.unpack_into(&packed, cap, state.time);
        prop_assert_eq!(&back.psi, &state.psi);
        prop_assert_eq!(&back.tig, &state.tig);
    }

    /// Reinitialization preserves the burning-region sign pattern exactly.
    #[test]
    fn reinit_preserves_signs(shape in arb_circle()) {
        let grid = Grid2::new(31, 31, 3.0, 3.0).unwrap();
        let psi = wildfire_fire::ignition::initial_level_set(grid, &[shape]);
        let mut re = Field2::default();
        wildfire_fire::reinitialize_into(&psi, &mut re, &mut ReinitWorkspace::new());
        for (a, b) in psi.as_slice().iter().zip(re.as_slice().iter()) {
            prop_assert_eq!(*a < 0.0, *b < 0.0);
        }
    }

    /// Unburned nodes have UNBURNED ignition time; burned nodes do not.
    #[test]
    fn ignition_time_partition(shape in arb_circle()) {
        let grid = Grid2::new(25, 25, 4.0, 4.0).unwrap();
        let state = FireState::ignite(grid, &[shape], 5.0);
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                if state.psi.get(ix, iy) < 0.0 {
                    prop_assert!(state.tig.get(ix, iy) < UNBURNED);
                } else {
                    prop_assert_eq!(state.tig.get(ix, iy), UNBURNED);
                }
            }
        }
    }
}
