//! Property suite pinning the fused level-set kernel **bitwise** to the
//! paper-faithful scalar reference (`LevelSetSolver::rhs_reference_into`).
//!
//! This is the contract that lets the hot path keep evolving without
//! physics review: for random ψ fields, winds, terrains and fuel maps —
//! including plateau-heavy quantized fields, degenerate flat-ψ and
//! all-burned states, and single-row/column grids — the fused kernel must
//! reproduce the reference RHS and its `s_max` reduction bit for bit, under
//! both gradient schemes.

use proptest::prelude::*;
use wildfire_fire::levelset::GradientScheme;
use wildfire_fire::{
    FireMesh, FireState, FuelCategory, FuelMap, FuelModel, IgnitionShape, LevelSetSolver,
};
use wildfire_grid::{Field2, Grid2, VectorField2};

const MAX_DIM: usize = 18;

/// Asserts bitwise equality of the fused and reference RHS (field and
/// `s_max`) for one landscape; returns a human-readable mismatch if any.
fn equivalence_mismatch(
    solver: &LevelSetSolver,
    psi: &Field2,
    wind: &VectorField2,
) -> Option<String> {
    let mut fused = Field2::default();
    let mut reference = Field2::default();
    let s_fused = solver.rhs_into(psi, wind, &mut fused);
    let s_ref = solver.rhs_reference_into(psi, wind, &mut reference);
    if s_fused.to_bits() != s_ref.to_bits() {
        return Some(format!("s_max: fused {s_fused:?} vs reference {s_ref:?}"));
    }
    let g = psi.grid();
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let a = fused.get(ix, iy);
            let b = reference.get(ix, iy);
            if a.to_bits() != b.to_bits() {
                return Some(format!(
                    "node ({ix},{iy}) of {}x{}: fused {a:?} ({:#x}) vs reference {b:?} ({:#x})",
                    g.nx,
                    g.ny,
                    a.to_bits(),
                    b.to_bits()
                ));
            }
        }
    }
    None
}

/// Builds the fuel map variant `pick` selects: uniform categories, a
/// painted three-entry palette, or a palette containing a degenerate custom
/// model (zero wind exponent, so the `a·0^b = a` branch is exercised).
fn build_fuel_map(grid: Grid2, pick: u32) -> FuelMap {
    match pick {
        0 => FuelMap::uniform_category(grid, FuelCategory::ShortGrass),
        1 => FuelMap::uniform_category(grid, FuelCategory::HeavySlash),
        2 => {
            let mut map = FuelMap::uniform_category(grid, FuelCategory::TallGrass);
            let brush = map
                .add_fuel(FuelModel::for_category(FuelCategory::Brush))
                .unwrap();
            let timber = map
                .add_fuel(FuelModel::for_category(FuelCategory::TimberLitter))
                .unwrap();
            let (ex, ey) = grid.extent();
            map.paint_rect(0.0, 0.0, ex * 0.5, ey * 0.6, brush).unwrap();
            map.paint_rect(ex * 0.4, ey * 0.3, ex, ey, timber).unwrap();
            map
        }
        _ => {
            let mut map = FuelMap::uniform_category(grid, FuelCategory::Chaparral);
            // b = 0 makes the wind term constant (a·w^0 = a for w > 0 and
            // a·0^0 = a at w = 0): the precomputed zero-wind term must agree.
            let weird = map
                .add_fuel(FuelModel::custom(
                    0.05, 0.3, 0.0, -0.1, 2.0, 30.0, 1.0, 18.0e6, 0.05,
                ))
                .unwrap();
            let (ex, ey) = grid.extent();
            map.paint_rect(ex * 0.2, 0.0, ex, ey * 0.8, weird).unwrap();
            map
        }
    }
}

proptest! {
    /// Random landscapes: arbitrary ψ (optionally quantized into plateaus),
    /// spatially varying wind, rough terrain, heterogeneous fuels — fused
    /// RHS must equal the reference bitwise under both gradient schemes.
    #[test]
    fn fused_rhs_is_bitwise_identical_to_reference(
        nx in 1usize..MAX_DIM,
        ny in 1usize..MAX_DIM,
        dx in 0.5f64..4.0,
        dy in 0.5f64..4.0,
        psi_vals in prop::collection::vec(-40.0f64..40.0, MAX_DIM * MAX_DIM),
        wind_vals in prop::collection::vec(-25.0f64..25.0, 2 * MAX_DIM * MAX_DIM),
        terrain_vals in prop::collection::vec(-12.0f64..12.0, MAX_DIM * MAX_DIM),
        quantize in 0u32..3,
        fuel_pick in 0u32..4,
    ) {
        let grid = Grid2::new(nx, ny, dx, dy).unwrap();
        let n = grid.len();
        // Quantization creates exact plateaus (zero one-sided differences)
        // and exact zeros — the Godunov selection's degenerate branches.
        let shape = |v: f64| match quantize {
            0 => v,
            1 => (v / 10.0).round() * 10.0,
            _ => -7.5, // flat field: the RHS must be identically zero
        };
        let psi = Field2::from_vec(grid, psi_vals[..n].iter().map(|&v| shape(v)).collect());
        let wind = VectorField2::new(
            Field2::from_vec(grid, wind_vals[..n].to_vec()),
            Field2::from_vec(grid, wind_vals[n..2 * n].to_vec()),
        )
        .unwrap();
        let terrain = Field2::from_vec(grid, terrain_vals[..n].to_vec());
        let mesh = FireMesh::new(grid, build_fuel_map(grid, fuel_pick), terrain).unwrap();
        let mut solver = LevelSetSolver::new(mesh);
        for gradient in [GradientScheme::Godunov, GradientScheme::Central] {
            solver.gradient = gradient;
            let mismatch = equivalence_mismatch(&solver, &psi, &wind);
            prop_assert!(mismatch.is_none(), "{gradient:?}: {}", mismatch.unwrap());
            if quantize == 2 {
                let mut out = Field2::default();
                let s_max = solver.rhs_into(&psi, &wind, &mut out);
                prop_assert!(s_max == 0.0, "flat ψ must not propagate");
                prop_assert!(out.as_slice().iter().all(|&v| v == 0.0));
            }
        }
    }

    /// Stepping through the fused kernel stays bitwise-identical along a
    /// whole trajectory: the multi-step workspace path (fused) against a
    /// manual Heun step driven by the reference RHS.
    #[test]
    fn fused_trajectory_matches_reference_driven_heun(
        radius in 3.0f64..12.0,
        wx in -8.0f64..8.0,
        wy in -8.0f64..8.0,
        steps in 1usize..8,
    ) {
        let grid = Grid2::new(25, 25, 2.0, 2.0).unwrap();
        let mesh = FireMesh::new(
            grid,
            build_fuel_map(grid, 2),
            Field2::from_world_fn(grid, |x, y| 0.02 * x * y - 0.1 * x),
        )
        .unwrap();
        let solver = LevelSetSolver::new(mesh);
        let wind = VectorField2::from_fn(grid, |ix, iy| {
            (wx + 0.03 * ix as f64, wy - 0.02 * iy as f64)
        });
        let mut fused_state = FireState::ignite(
            grid,
            &[IgnitionShape::Circle { center: (24.0, 24.0), radius }],
            0.0,
        );
        let mut ref_psi = fused_state.psi.clone();
        let mut ws = wildfire_fire::FireWorkspace::new();
        let (mut k1, mut k2, mut star) = (Field2::default(), Field2::default(), Field2::default());
        for _ in 0..steps {
            let dt = solver.max_stable_dt_ws(&fused_state, &wind, &mut ws).min(1.0);
            // Manual Heun on the reference RHS (matching step_ws's operation
            // order: ψ* = ψ + dt·k1, then ψ += dt/2·k1, ψ += dt/2·k2).
            solver.rhs_reference_into(&ref_psi, &wind, &mut k1);
            star.copy_from(&ref_psi);
            star.axpy(dt, &k1).unwrap();
            solver.rhs_reference_into(&star, &wind, &mut k2);
            ref_psi.axpy(0.5 * dt, &k1).unwrap();
            ref_psi.axpy(0.5 * dt, &k2).unwrap();
            solver.step_ws(&mut fused_state, &wind, dt, &mut ws).unwrap();
            prop_assert!(fused_state.psi == ref_psi, "ψ diverged from reference Heun");
        }
    }
}

#[test]
fn all_burned_state_is_bitwise_equivalent_and_inert_inside() {
    // Ignite (essentially) the whole domain: ψ < 0 everywhere except the
    // rim, with large plateau-free magnitudes deep inside. The fused and
    // reference paths must agree bitwise, and a fully flat burned interior
    // must contribute nothing.
    let grid = Grid2::new(15, 15, 2.0, 2.0).unwrap();
    let mesh = FireMesh::flat(grid, FuelCategory::TallGrass);
    let mut solver = LevelSetSolver::new(mesh);
    let state = FireState::ignite(
        grid,
        &[IgnitionShape::Circle {
            center: (14.0, 14.0),
            radius: 100.0,
        }],
        0.0,
    );
    let wind = VectorField2::from_fn(grid, |ix, _| (5.0 + 0.1 * ix as f64, -2.0));
    for gradient in [GradientScheme::Godunov, GradientScheme::Central] {
        solver.gradient = gradient;
        assert_eq!(equivalence_mismatch(&solver, &state.psi, &wind), None);
    }
    // Exactly constant negative ψ: all-burned plateau, zero RHS.
    let flat_burned = Field2::filled(grid, -3.0);
    let mut out = Field2::default();
    let s_max = solver.rhs_into(&flat_burned, &wind, &mut out);
    assert_eq!(s_max, 0.0);
    assert!(out.as_slice().iter().all(|&v| v == 0.0));
}

#[test]
fn single_row_and_column_grids_take_the_boundary_path() {
    // nx < 3 / ny < 3 domains have no branch-free interior at all; the
    // fused kernel must still agree with the reference on every node.
    for (nx, ny) in [(1, 1), (1, 9), (9, 1), (2, 7), (7, 2), (2, 2)] {
        let grid = Grid2::new(nx, ny, 1.5, 2.5).unwrap();
        let mesh = FireMesh::new(
            grid,
            FuelMap::uniform_category(grid, FuelCategory::Brush),
            Field2::from_fn(grid, |ix, iy| 0.3 * ix as f64 - 0.2 * iy as f64),
        )
        .unwrap();
        let mut solver = LevelSetSolver::new(mesh);
        let psi = Field2::from_fn(grid, |ix, iy| ((ix * 7 + iy * 3) as f64).sin() * 10.0);
        let wind = VectorField2::from_fn(grid, |ix, iy| (3.0 - ix as f64, iy as f64 - 1.0));
        for gradient in [GradientScheme::Godunov, GradientScheme::Central] {
            solver.gradient = gradient;
            assert_eq!(
                equivalence_mismatch(&solver, &psi, &wind),
                None,
                "{nx}x{ny} {gradient:?}"
            );
        }
    }
}
