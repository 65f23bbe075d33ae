//! Property suite pinning the banded stepping paths **bitwise** to a
//! whole-field sweep.
//!
//! `LevelSetSolver::step_ws` / `advance_to_stats_ws` visit only the row
//! spans of nodes that are not quiet (ψ equal to all four neighbours, finite
//! and positive). The oracle here is a test-local integrator built from the
//! public whole-field `rhs_into` and the same per-node update formulas, so
//! it never skips a node. On random fields with plateaus — several disjoint
//! fires, a plateau that reaches the domain edge, a plateau *inside* a
//! fire, a NaN node, an entirely flat field, one- and two-column meshes —
//! ψ, `t_i`, `time` and the reported maximum spread rate must agree bit
//! for bit over 50+ consecutive steps, for both integrators and both
//! gradient schemes, under a wind that changes every step. A workspace
//! carried along and a fresh one per step must give the same bits too: the
//! spans are a function of the state, not of the workspace's history.

use proptest::prelude::*;
use wildfire_fire::levelset::{GradientScheme, Integrator};
use wildfire_fire::{FireMesh, FireState, FireWorkspace, FuelCategory, LevelSetSolver, UNBURNED};
use wildfire_grid::{Field2, Grid2, VectorField2};

const STEPS: usize = 52;

/// ψ crossed zero within `(t0, t0 + dt]`: the §2.2 interpolation rule.
fn mark(tig: &mut f64, old: f64, new: f64, t0: f64, dt: f64) {
    if new < 0.0 && *tig == UNBURNED {
        let frac = if old > new {
            (old / (old - new)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        *tig = t0 + frac * dt;
    }
}

/// One whole-field step given `k1 = rhs(ψ)`: every node is updated.
fn oracle_step(
    solver: &LevelSetSolver,
    s: &mut FireState,
    wind: &VectorField2,
    k1: &Field2,
    dt: f64,
) {
    let t0 = s.time;
    let n = s.psi.as_slice().len();
    match solver.integrator {
        Integrator::Euler => {
            for i in 0..n {
                let old = s.psi.as_slice()[i];
                let new = old + dt * k1.as_slice()[i];
                s.psi.as_mut_slice()[i] = new;
                mark(&mut s.tig.as_mut_slice()[i], old, new, t0, dt);
            }
        }
        Integrator::Heun => {
            let mut star = s.psi.clone();
            for i in 0..n {
                star.as_mut_slice()[i] = s.psi.as_slice()[i] + dt * k1.as_slice()[i];
            }
            let mut k2 = Field2::default();
            solver.rhs_into(&star, wind, &mut k2);
            let h = 0.5 * dt;
            for i in 0..n {
                let old = s.psi.as_slice()[i];
                let new = (old + h * k1.as_slice()[i]) + h * k2.as_slice()[i];
                s.psi.as_mut_slice()[i] = new;
                mark(&mut s.tig.as_mut_slice()[i], old, new, t0, dt);
            }
        }
    }
    s.time = t0 + dt;
}

/// Whole-field `advance_to_stats_ws`: returns `(steps, max_spread_rate)`.
fn oracle_advance(
    solver: &LevelSetSolver,
    s: &mut FireState,
    wind: &VectorField2,
    t_target: f64,
    dt_hint: f64,
) -> (usize, f64) {
    let g = s.grid();
    let (mut steps, mut rate) = (0, 0.0_f64);
    let mut k1 = Field2::default();
    while s.time < t_target - 1e-12 {
        let s_max = solver.rhs_into(&s.psi, wind, &mut k1);
        let bound = if s_max <= 0.0 {
            f64::INFINITY
        } else {
            solver.cfl / (s_max * (1.0 / g.dx + 1.0 / g.dy))
        };
        let dt = dt_hint.min(bound).min(t_target - s.time);
        oracle_step(solver, s, wind, &k1, dt);
        steps += 1;
        rate = rate.max(s_max);
    }
    (steps, rate)
}

fn first_difference(what: &str, a: &FireState, b: &FireState) -> Option<String> {
    if a.time.to_bits() != b.time.to_bits() {
        return Some(format!("{what}: time {} vs {}", a.time, b.time));
    }
    let g = a.grid();
    for (name, fa, fb) in [("psi", &a.psi, &b.psi), ("tig", &a.tig, &b.tig)] {
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let (x, y) = (fa.get(ix, iy), fb.get(ix, iy));
                if x.to_bits() != y.to_bits() {
                    return Some(format!("{what}: {name}({ix},{iy}) {x:?} vs {y:?}"));
                }
            }
        }
    }
    None
}

/// A far-field plateau with up to three cone-shaped fires cut into it, and
/// the degenerate variants the contract has to survive.
fn build_psi(grid: Grid2, fires: &[(f64, f64, f64)], plateau: f64, variant: u32) -> Field2 {
    let (ex, ey) = grid.extent();
    let mut psi = Field2::from_world_fn(grid, |x, y| {
        fires
            .iter()
            .map(|&(fx, fy, r)| ((x - fx * ex).powi(2) + (y - fy * ey).powi(2)).sqrt() - r)
            .fold(plateau, f64::min)
    });
    match variant {
        // A burned-out plateau inside every fire (ψ clamped from below).
        1 => psi.map_inplace(|v| v.max(-1.5)),
        // One NaN node in the far field.
        2 => psi.set(grid.nx - 1, grid.ny / 2, f64::NAN),
        // Entirely flat: nothing may move, nothing may be visited.
        3 => psi.fill(plateau),
        // Exact zeros and a −0.0 plateau on the fireline.
        4 => psi.map_inplace(|v| if v.abs() < 1.0 { -0.0 } else { v }),
        _ => {}
    }
    psi
}

proptest! {
    #[test]
    fn banded_stepping_is_bitwise_the_whole_field_sweep(
        nx in 1usize..26,
        ny in 1usize..22,
        dx in 1.0f64..3.0,
        dy in 1.0f64..3.0,
        fires in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.5f64..4.0), 1..4),
        plateau in 2.0f64..9.0,
        variant in 0u32..6,
        consistent_tig in 0u32..2,
        wind0 in (-12.0f64..12.0, -12.0f64..12.0),
        shear in -0.4f64..0.4,
        euler in 0u32..2,
        central in 0u32..2,
        dt_draw in 0.05f64..0.6,
    ) {
        let grid = Grid2::new(nx, ny, dx, dy).unwrap();
        let mut solver = LevelSetSolver::new(FireMesh::flat(grid, FuelCategory::TallGrass));
        solver.integrator = if euler == 1 { Integrator::Euler } else { Integrator::Heun };
        solver.gradient = if central == 1 { GradientScheme::Central } else { GradientScheme::Godunov };

        let psi = build_psi(grid, &fires, plateau, variant);
        // Either the consistent ignition times, or none at all — the latter
        // makes the sweep stamp `t_i` on nodes whose ψ does not move.
        let tig = Field2::from_vec(
            grid,
            psi.as_slice()
                .iter()
                .map(|&v| if consistent_tig == 1 && v < 0.0 { 0.0 } else { UNBURNED })
                .collect(),
        );
        let start = FireState { psi, tig, time: 0.0 };
        let wind_at = |k: usize| {
            VectorField2::from_fn(grid, |ix, iy| {
                let turn = (0.3 * k as f64).sin();
                (
                    wind0.0 + shear * ix as f64 + 2.0 * turn,
                    wind0.1 - shear * iy as f64 - 1.5 * turn,
                )
            })
        };

        // --- step_ws with a hand-picked stable dt --------------------------
        let (mut carried, mut fresh, mut oracle) = (start.clone(), start.clone(), start.clone());
        let mut ws = FireWorkspace::new();
        let mut k1 = Field2::default();
        for k in 0..STEPS {
            let wind = wind_at(k);
            let dt = dt_draw.min(solver.max_stable_dt_ws(&oracle, &wind, &mut FireWorkspace::new()));
            solver.step_ws(&mut carried, &wind, dt, &mut ws).unwrap();
            solver.step_ws(&mut fresh, &wind, dt, &mut FireWorkspace::new()).unwrap();
            solver.rhs_into(&oracle.psi, &wind, &mut k1);
            oracle_step(&solver, &mut oracle, &wind, &k1, dt);
            for (what, got) in [("carried workspace", &carried), ("fresh workspace", &fresh)] {
                let diff = first_difference(what, got, &oracle);
                prop_assert!(diff.is_none(), "step_ws, step {k}: {}", diff.unwrap());
            }
        }

        // --- advance_to_stats_ws (shared RHS, CFL sub-steps) ---------------
        let (mut carried, mut fresh, mut oracle) = (start.clone(), start.clone(), start);
        for k in 0..STEPS {
            let wind = wind_at(k);
            let t_target = 0.7 * (k + 1) as f64;
            let a = solver
                .advance_to_stats_ws(&mut carried, &wind, t_target, 0.5, &mut ws)
                .unwrap();
            let b = solver
                .advance_to_stats_ws(&mut fresh, &wind, t_target, 0.5, &mut FireWorkspace::new())
                .unwrap();
            let (steps, rate) = oracle_advance(&solver, &mut oracle, &wind, t_target, 0.5);
            for (what, got, stats) in [("carried", &carried, a), ("fresh", &fresh, b)] {
                let diff = first_difference(what, got, &oracle);
                prop_assert!(diff.is_none(), "advance, leg {k}: {}", diff.unwrap());
                prop_assert_eq!(stats.steps, steps);
                prop_assert_eq!(stats.max_spread_rate.to_bits(), rate.to_bits());
                prop_assert!(stats.active_nodes <= steps * grid.len());
                if variant == 3 {
                    prop_assert_eq!(stats.active_nodes, 0);
                }
            }
            prop_assert_eq!(a, b);
        }
    }
}

#[test]
fn a_non_finite_step_moves_quiet_nodes_exactly_as_the_whole_field_sweep_does() {
    // 0·∞ is NaN: the one input for which a quiet node is not left alone.
    let grid = Grid2::new(9, 9, 2.0, 2.0).unwrap();
    let mut solver = LevelSetSolver::new(FireMesh::flat(grid, FuelCategory::ShortGrass));
    solver.enforce_cfl = false;
    let wind = VectorField2::from_fn(grid, |_, _| (3.0, 1.0));
    let start = FireState {
        psi: build_psi(grid, &[(0.5, 0.5, 3.0)], 4.0, 0),
        tig: Field2::filled(grid, UNBURNED),
        time: 0.0,
    };
    for dt in [f64::INFINITY, f64::NAN] {
        let (mut banded, mut oracle) = (start.clone(), start.clone());
        solver
            .step_ws(&mut banded, &wind, dt, &mut FireWorkspace::new())
            .unwrap();
        let mut k1 = Field2::default();
        solver.rhs_into(&oracle.psi, &wind, &mut k1);
        oracle_step(&solver, &mut oracle, &wind, &k1, dt);
        assert_eq!(first_difference("non-finite dt", &banded, &oracle), None);
    }
}
