//! Property-based tests for the pressure Poisson solvers over arbitrary
//! (odd, even, non-square, semicoarsenable) grids with anisotropic
//! spacing: the direct solve the projection runs must match a 1e-14
//! conjugate-gradient solve on arbitrary right-hand sides, and the
//! multigrid and conjugate-gradient paths must agree to solver tolerance
//! on smooth ones.

use proptest::prelude::*;
use wildfire_atmos::multigrid::solve_poisson_mg_into;
use wildfire_atmos::poisson::{solve_poisson_cg_into, solve_poisson_into};
use wildfire_atmos::state::AtmosGrid;
use wildfire_atmos::{MgHierarchy, PoissonSolver, PoissonWorkspace};

/// Arbitrary model-sized grids: a mix of coarsenable, odd, and flat
/// dimensions with anisotropic spacings.
fn grid() -> impl Strategy<Value = AtmosGrid> {
    (
        4usize..20,
        4usize..20,
        3usize..10,
        20.0f64..80.0,
        20.0f64..80.0,
        20.0f64..80.0,
    )
        .prop_map(|(nx, ny, nz, dx, dy, dz)| AtmosGrid {
            nx,
            ny,
            nz,
            dx,
            dy,
            dz,
        })
}

/// A smooth, mean-free right-hand side: a few low-wavenumber Fourier modes
/// (periodic laterally, Neumann-compatible cosines vertically) with random
/// amplitudes and phases.
fn smooth_rhs(g: &AtmosGrid, coeffs: &[(f64, f64, f64)]) -> Vec<f64> {
    let mut rhs = vec![0.0; g.n_cells()];
    for (m, &(ax, ay, az)) in coeffs.iter().enumerate() {
        let (kx, ky, kz) = ((m % 2 + 1) as f64, (m % 3) as f64, (m % 2) as f64);
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let x = 2.0 * std::f64::consts::PI * i as f64 / g.nx as f64;
                    let y = 2.0 * std::f64::consts::PI * j as f64 / g.ny as f64;
                    let z = std::f64::consts::PI * (k as f64 + 0.5) / g.nz as f64;
                    rhs[g.cell(i, j, k)] += 1e-3
                        * ((kx * x + ax).sin() * (ky * y + ay).cos() * (kz * z).cos() + az * 0.1);
                }
            }
        }
    }
    let mean = rhs.iter().sum::<f64>() / rhs.len() as f64;
    for v in rhs.iter_mut() {
        *v -= mean;
    }
    rhs
}

proptest! {
    /// The direct solve matches a 1e-14 CG solve to 1e-10 relative on an
    /// arbitrary (broadband, not mean-free) right-hand side, and its
    /// potential is mean-free to 1e-12·‖φ‖.
    #[test]
    fn direct_solve_matches_tight_cg(
        g in grid(),
        seed in 0u64..u64::MAX,
    ) {
        // SplitMix64 values in [−1, 1).
        let mut state = seed;
        let rhs: Vec<f64> = (0..g.n_cells())
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect();
        let mut ws = PoissonWorkspace::default();
        let mut phi = Vec::new();
        solve_poisson_into(&g, &rhs, PoissonSolver::Direct, 1e-8, 500, &mut ws, &mut phi).unwrap();
        let mut phi_cg = Vec::new();
        solve_poisson_cg_into(&g, &rhs, 1e-14, 100_000, &mut ws, &mut phi_cg).unwrap();
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let diff: Vec<f64> = phi.iter().zip(&phi_cg).map(|(a, b)| a - b).collect();
        let rel = norm(&diff) / norm(&phi_cg);
        prop_assert!(
            rel <= 1e-10,
            "grid {}x{}x{}: ‖direct − cg‖/‖cg‖ = {rel:.3e}",
            g.nx, g.ny, g.nz
        );
        let mean = phi.iter().sum::<f64>() / phi.len() as f64;
        prop_assert!(mean.abs() <= 1e-12 * norm(&phi), "mean {mean:e}");
    }

    /// Multigrid and CG agree on random smooth fields to solver tolerance.
    #[test]
    fn multigrid_and_cg_agree_on_smooth_rhs(
        g in grid(),
        coeffs in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..4),
    ) {
        let rhs = smooth_rhs(&g, &coeffs);
        let tol = 1e-10;
        let mut phi_mg = Vec::new();
        solve_poisson_mg_into(&g, &rhs, tol, 500, &mut MgHierarchy::new(), &mut phi_mg).unwrap();
        let mut ws_cg = PoissonWorkspace::default();
        let mut phi_cg = Vec::new();
        solve_poisson_cg_into(&g, &rhs, tol, 10_000, &mut ws_cg, &mut phi_cg).unwrap();
        let scale = phi_cg
            .iter()
            .map(|v| v.abs())
            .fold(0.0_f64, f64::max)
            .max(1e-30);
        let err = phi_mg
            .iter()
            .zip(phi_cg.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        prop_assert!(
            err <= 1e-5 * scale,
            "grid {}x{}x{}: max |mg − cg| = {err:.3e} (scale {scale:.3e})",
            g.nx, g.ny, g.nz
        );
    }

    /// The solved potential actually satisfies the discrete equation: the
    /// projection-defining property, independent of the reference solver.
    #[test]
    fn multigrid_solution_has_small_residual(
        g in grid(),
        coeffs in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 1..3),
    ) {
        let rhs = smooth_rhs(&g, &coeffs);
        let mut phi = Vec::new();
        solve_poisson_mg_into(&g, &rhs, 1e-9, 500, &mut MgHierarchy::new(), &mut phi).unwrap();
        // Rebuild −∇²φ via a second solve workspace-independent check:
        // compare second differences against the mean-free rhs.
        let n = g.n_cells();
        let mut b = vec![0.0; n];
        for (bi, &ri) in b.iter_mut().zip(rhs.iter()) {
            *bi = -ri;
        }
        let mean = b.iter().sum::<f64>() / n as f64;
        for v in b.iter_mut() {
            *v -= mean;
        }
        let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        // −∇²φ at each cell, by the same stencil the solver uses.
        let mut res = 0.0_f64;
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let c = g.cell(i, j, k);
                    let xc = phi[c];
                    let ip = phi[g.cell((i + 1) % g.nx, j, k)];
                    let im = phi[g.cell((i + g.nx - 1) % g.nx, j, k)];
                    let jp = phi[g.cell(i, (j + 1) % g.ny, k)];
                    let jm = phi[g.cell(i, (j + g.ny - 1) % g.ny, k)];
                    let kp = if k + 1 < g.nz { phi[g.cell(i, j, k + 1)] } else { xc };
                    let km = if k > 0 { phi[g.cell(i, j, k - 1)] } else { xc };
                    let ax = -((ip - 2.0 * xc + im) / (g.dx * g.dx)
                        + (jp - 2.0 * xc + jm) / (g.dy * g.dy)
                        + (kp - 2.0 * xc + km) / (g.dz * g.dz));
                    res += (b[c] - ax) * (b[c] - ax);
                }
            }
        }
        let res = res.sqrt();
        prop_assert!(
            b_norm == 0.0 || res <= 1e-8 * b_norm,
            "relative residual {:.3e}",
            res / b_norm
        );
    }
}
