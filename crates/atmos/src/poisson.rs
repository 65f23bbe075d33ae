//! Pressure Poisson solve for the projection step.
//!
//! Solves `∇²φ = f` on the cell-centered grid with periodic lateral
//! boundaries and homogeneous Neumann conditions at the rigid lids. The
//! operator `−∇²` is the constant-coefficient 7-point Laplacian, so it is
//! diagonalised exactly by a separable basis: an orthonormal real Fourier
//! basis along x and y (constant mode, cos/sin pairs, a Nyquist column when
//! the length is even) and the orthonormal DCT-II along z. Each 1-D mode is
//! an eigenvector of the matching second difference, with eigenvalue
//! `(2 − 2cos 2πf/n)/h²` laterally and `(2 − 2cos πq/nz)/dz²` vertically,
//! and the 3-D eigenvalue is their sum.
//!
//! [`solve_poisson_into`] therefore runs three dense per-axis transforms
//! forward, divides by the eigenvalues (dropping the constant null-space
//! mode, so `φ` comes out mean-free), and runs three back: one exact pass,
//! `2(nx²·ny·nz + ny²·nx·nz + nz²·nx·ny)` multiply-adds, no iteration and
//! no tolerance. The transform tables are built from closed-form cos/sin
//! on the first solve for a grid and cached in [`PoissonWorkspace`].
//!
//! It is the only pressure solver. Its unit tests check it against a
//! matrix-free conjugate-gradient solve, which exists only there.

use crate::params::PoissonSolver;
use crate::state::AtmosGrid;
use crate::workspace::PoissonWorkspace;
use crate::{AtmosError, Result};
use std::f64::consts::PI;

/// Allocation-free exact solve of `∇²φ = rhs` by the separable transforms
/// of the module docs, writing the mean-free potential into `out`. The
/// transform tables and the scratch field live in `ws`, built on the first
/// solve for a grid (keyed on its sizes and spacings) and reused
/// thereafter, so a steady-state solve performs no heap allocation.
///
/// `solver`, `tol` and `max_iter` are ignored: there is one solver and it
/// is exact, so every setting returns the same bits. They stay in the
/// signature because `AtmosParams` still carries them.
///
/// # Errors
/// [`AtmosError::GridMismatch`] when `rhs` does not hold one value per cell.
pub fn solve_poisson_into(
    g: &AtmosGrid,
    rhs: &[f64],
    solver: PoissonSolver,
    tol: f64,
    max_iter: usize,
    ws: &mut PoissonWorkspace,
    out: &mut Vec<f64>,
) -> Result<()> {
    let _ = (solver, tol, max_iter);
    let n = g.n_cells();
    if rhs.len() != n {
        return Err(AtmosError::GridMismatch("poisson rhs"));
    }
    let t = &mut ws.spectral;
    t.ensure(g);
    if out.len() != n {
        out.clear();
        out.resize(n, 0.0);
    }
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    let tmp = &mut t.tmp;
    // Forward x, y, z, ping-ponging between `tmp` and `out`.
    along_rows(rhs, tmp, &t.x.qt, nx);
    along_slabs(tmp, out, &t.y.q, ny, nx);
    along_slabs(out, tmp, &t.z.q, nz, nx * ny);
    // ∇²φ = rhs ⇔ −λ·φ̂ = r̂ per mode; the constant mode is the null space.
    for (plane, &lz) in tmp.chunks_exact_mut(nx * ny).zip(&t.z.lambda) {
        for (row, &ly) in plane.chunks_exact_mut(nx).zip(&t.y.lambda) {
            for (v, &lx) in row.iter_mut().zip(&t.x.lambda) {
                let lam = lx + ly + lz;
                *v = if lam > 0.0 { -*v / lam } else { 0.0 };
            }
        }
    }
    // Back z, y, x (the inverse of an orthogonal `Q` is `Qᵀ`).
    along_slabs(tmp, out, &t.z.qt, nz, nx * ny);
    along_slabs(out, tmp, &t.y.qt, ny, nx);
    along_rows(tmp, out, &t.x.q, nx);
    Ok(())
}

/// `dst = M·src` along the innermost axis, every row of `n` cells: `mt` is
/// `Mᵀ` row-major, so each source cell adds one contiguous row of it.
fn along_rows(src: &[f64], dst: &mut [f64], mt: &[f64], n: usize) {
    for (s, d) in src.chunks_exact(n).zip(dst.chunks_exact_mut(n)) {
        d.fill(0.0);
        for (&c, m_col) in s.iter().zip(mt.chunks_exact(n)) {
            for (o, &m) in d.iter_mut().zip(m_col) {
                *o += c * m;
            }
        }
    }
}

/// `dst = M·src` along an outer axis of length `n` whose cells are slabs
/// of `inner` contiguous values: `m` is `M` row-major, and each output slab
/// accumulates whole input slabs, one unit-stride axpy each.
fn along_slabs(src: &[f64], dst: &mut [f64], m: &[f64], n: usize, inner: usize) {
    for (s, d) in src
        .chunks_exact(n * inner)
        .zip(dst.chunks_exact_mut(n * inner))
    {
        for (d_f, m_f) in d.chunks_exact_mut(inner).zip(m.chunks_exact(n)) {
            d_f.fill(0.0);
            for (s_j, &c) in s.chunks_exact(inner).zip(m_f) {
                for (o, &v) in d_f.iter_mut().zip(s_j) {
                    *o += c * v;
                }
            }
        }
    }
}

/// The transform tables of [`solve_poisson_into`] for one grid, plus the
/// scratch field the transforms ping-pong through. Lives in
/// [`PoissonWorkspace`].
#[derive(Debug, Clone, Default)]
pub(crate) struct SpectralTables {
    /// `(nx, ny, nz, dx, dy, dz)` bits of the grid the tables were built
    /// for; `None` before the first solve.
    key: Option<[u64; 6]>,
    x: AxisBasis,
    y: AxisBasis,
    z: AxisBasis,
    tmp: Vec<f64>,
}

impl SpectralTables {
    /// Rebuilds the tables when `g` differs from the grid they were built
    /// for. No-op — and no allocation — otherwise.
    fn ensure(&mut self, g: &AtmosGrid) {
        let key = [
            g.nx as u64,
            g.ny as u64,
            g.nz as u64,
            g.dx.to_bits(),
            g.dy.to_bits(),
            g.dz.to_bits(),
        ];
        if self.key == Some(key) {
            return;
        }
        self.x = AxisBasis::periodic(g.nx, g.dx);
        self.y = AxisBasis::periodic(g.ny, g.dy);
        self.z = AxisBasis::neumann(g.nz, g.dz);
        self.tmp = vec![0.0; g.n_cells()];
        self.key = Some(key);
    }
}

/// An orthonormal eigenbasis `Q` (one mode per row) of the 1-D second
/// difference on one axis.
#[derive(Debug, Clone, Default)]
struct AxisBasis {
    /// `Q` row-major: `q[f·n + i]` is mode `f` at cell `i`.
    q: Vec<f64>,
    /// `Qᵀ` row-major.
    qt: Vec<f64>,
    /// Eigenvalue of `−δ²/h²` per mode.
    lambda: Vec<f64>,
}

impl AxisBasis {
    /// Periodic axis: the constant mode, a cos/sin pair per wavenumber
    /// `1 ≤ m < n/2`, and the alternating Nyquist mode when `n` is even.
    fn periodic(n: usize, h: f64) -> Self {
        let nf = n as f64;
        Self::from_modes(n, |f| {
            // Mode f: wavenumber m, and whether it is the sine of the pair.
            let m = f.div_ceil(2);
            let sine = f % 2 == 0 && f > 0 && 2 * m < n;
            let norm = if m == 0 || 2 * m == n {
                1.0 / nf.sqrt()
            } else {
                (2.0 / nf).sqrt()
            };
            let theta = 2.0 * PI * m as f64 / nf;
            let basis = move |i: usize| {
                let arg = theta * i as f64;
                norm * if sine { arg.sin() } else { arg.cos() }
            };
            (basis, (2.0 - 2.0 * theta.cos()) / (h * h))
        })
    }

    /// Neumann axis (mirror ghosts at both ends): the DCT-II,
    /// `cos(πq(k+½)/n)`.
    fn neumann(n: usize, h: f64) -> Self {
        let nf = n as f64;
        Self::from_modes(n, |q| {
            let norm = if q == 0 {
                1.0 / nf.sqrt()
            } else {
                (2.0 / nf).sqrt()
            };
            let theta = PI * q as f64 / nf;
            let basis = move |k: usize| norm * (theta * (k as f64 + 0.5)).cos();
            (basis, (2.0 - 2.0 * theta.cos()) / (h * h))
        })
    }

    /// Tabulates `n` modes given each mode's `(Q[f][·], λ_f)`.
    fn from_modes<B: Fn(usize) -> f64>(n: usize, mode: impl Fn(usize) -> (B, f64)) -> Self {
        let mut basis = AxisBasis {
            q: vec![0.0; n * n],
            qt: vec![0.0; n * n],
            lambda: vec![0.0; n],
        };
        for f in 0..n {
            let (q, lam) = mode(f);
            basis.lambda[f] = lam;
            for i in 0..n {
                basis.q[f * n + i] = q(i);
                basis.qt[i * n + f] = q(i);
            }
        }
        basis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Matrix-free `−∇²` with the model's boundary conditions: periodic
    /// laterally, mirror ghosts (zero gradient through the lid) at the lids.
    fn apply_neg_laplacian(g: &AtmosGrid, x: &[f64], out: &mut [f64]) {
        let nxy = g.nx * g.ny;
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let c = g.cell(i, j, k);
                    let xc = x[c];
                    let ip = x[g.cell((i + 1) % g.nx, j, k)];
                    let im = x[g.cell((i + g.nx - 1) % g.nx, j, k)];
                    let jp = x[g.cell(i, (j + 1) % g.ny, k)];
                    let jm = x[g.cell(i, (j + g.ny - 1) % g.ny, k)];
                    let kp = if k + 1 < g.nz { x[c + nxy] } else { xc };
                    let km = if k > 0 { x[c - nxy] } else { xc };
                    out[c] = -((ip - 2.0 * xc + im) / (g.dx * g.dx)
                        + (jp - 2.0 * xc + jm) / (g.dy * g.dy)
                        + (kp - 2.0 * xc + km) / (g.dz * g.dz));
                }
            }
        }
    }

    /// Projects the constant (null-space) component out of `v`.
    fn remove_mean(v: &mut [f64]) {
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        for x in v.iter_mut() {
            *x -= mean;
        }
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// The oracle: conjugate gradients on `−∇²φ = −rhs` (made mean-free)
    /// from `φ = 0`, to relative residual `tol`, accepting `10·tol` once
    /// `max_iter` iterations are spent. Returns the mean-free potential;
    /// panics when CG misses even the relaxed tolerance.
    fn solve_poisson_cg(g: &AtmosGrid, rhs: &[f64], tol: f64, max_iter: usize) -> Vec<f64> {
        let n = g.n_cells();
        let mut b: Vec<f64> = rhs.iter().map(|&v| -v).collect();
        remove_mean(&mut b);
        let mut x = vec![0.0; n];
        let b_norm = dot(&b, &b).sqrt();
        if b_norm == 0.0 {
            return x;
        }
        let (mut r, mut p, mut ap) = (b.clone(), b, vec![0.0; n]);
        let mut rs = dot(&r, &r);
        let target = (tol * b_norm) * (tol * b_norm);
        for _ in 0..max_iter {
            if rs <= target {
                break;
            }
            apply_neg_laplacian(g, &p, &mut ap);
            let p_ap = dot(&p, &ap);
            if p_ap <= 0.0 {
                // Only within the (projected-out) null space.
                break;
            }
            let alpha = rs / p_ap;
            for ((xi, &pi), (ri, &api)) in x.iter_mut().zip(&p).zip(r.iter_mut().zip(&ap)) {
                *xi += alpha * pi;
                *ri -= alpha * api;
            }
            let rs_new = dot(&r, &r);
            for (pi, &ri) in p.iter_mut().zip(&r) {
                *pi = ri + rs_new / rs * *pi;
            }
            rs = rs_new;
        }
        let residual = rs.sqrt() / b_norm;
        assert!(residual <= 10.0 * tol, "CG oracle stalled at {residual:e}");
        remove_mean(&mut x);
        x
    }

    fn grid() -> AtmosGrid {
        AtmosGrid {
            nx: 16,
            ny: 12,
            nz: 8,
            dx: 50.0,
            dy: 60.0,
            dz: 40.0,
        }
    }

    /// One exact solve with a fresh workspace.
    fn solve(g: &AtmosGrid, rhs: &[f64]) -> Vec<f64> {
        let mut phi = Vec::new();
        let mut ws = PoissonWorkspace::default();
        solve_poisson_into(g, rhs, PoissonSolver::default(), 0.0, 0, &mut ws, &mut phi).unwrap();
        phi
    }

    /// Discrete manufactured solution: apply the operator to a known field
    /// and verify the solver returns it (up to the constant).
    #[test]
    fn recovers_manufactured_solution() {
        let g = grid();
        let n = g.n_cells();
        let mut phi_true = vec![0.0; n];
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let x = 2.0 * std::f64::consts::PI * i as f64 / g.nx as f64;
                    let y = 2.0 * std::f64::consts::PI * j as f64 / g.ny as f64;
                    let z = std::f64::consts::PI * (k as f64 + 0.5) / g.nz as f64;
                    phi_true[g.cell(i, j, k)] = x.sin() + (2.0 * y).cos() + z.cos();
                }
            }
        }
        remove_mean(&mut phi_true);
        let mut rhs_neg = vec![0.0; n];
        apply_neg_laplacian(&g, &phi_true, &mut rhs_neg);
        let rhs: Vec<f64> = rhs_neg.iter().map(|&v| -v).collect();
        // The direct solve and the CG oracle must both recover the field.
        for direct in [true, false] {
            let phi = if direct {
                solve(&g, &rhs)
            } else {
                solve_poisson_cg(&g, &rhs, 1e-10, 2000)
            };
            let err = phi
                .iter()
                .zip(phi_true.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            let bound = if direct { 1e-12 } else { 1e-6 };
            assert!(err < bound, "direct {direct}: max error {err}");
        }
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let g = grid();
        let zero = vec![0.0; g.n_cells()];
        let mut ws = PoissonWorkspace::default();
        let mut phi = Vec::new();
        solve_poisson_into(
            &g,
            &zero,
            PoissonSolver::Direct,
            1e-10,
            100,
            &mut ws,
            &mut phi,
        )
        .unwrap();
        assert!(phi.iter().all(|&x| x == 0.0));
        assert!(solve_poisson_cg(&g, &zero, 1e-10, 100)
            .iter()
            .all(|&x| x == 0.0));
    }

    #[test]
    fn solution_is_mean_free() {
        let g = grid();
        let n = g.n_cells();
        let rhs: Vec<f64> = (0..n)
            .map(|i| ((i * 37 % 11) as f64 - 5.0) * 1e-3)
            .collect();
        let phi = solve(&g, &rhs);
        let mean = phi.iter().sum::<f64>() / n as f64;
        assert!(mean.abs() < 1e-10);
    }

    #[test]
    fn laplacian_of_constant_is_zero() {
        let g = grid();
        let x = vec![3.7; g.n_cells()];
        let mut out = vec![1.0; g.n_cells()];
        apply_neg_laplacian(&g, &x, &mut out);
        assert!(out.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn operator_is_symmetric() {
        let g = AtmosGrid {
            nx: 5,
            ny: 4,
            nz: 3,
            dx: 10.0,
            dy: 10.0,
            dz: 10.0,
        };
        let n = g.n_cells();
        let a: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let mut la = vec![0.0; n];
        let mut lb = vec![0.0; n];
        apply_neg_laplacian(&g, &a, &mut la);
        apply_neg_laplacian(&g, &b, &mut lb);
        let a_lb: f64 = a.iter().zip(lb.iter()).map(|(x, y)| x * y).sum();
        let b_la: f64 = b.iter().zip(la.iter()).map(|(x, y)| x * y).sum();
        assert!((a_lb - b_la).abs() < 1e-8 * a_lb.abs().max(1.0));
    }

    /// `solver`, `tol` and `max_iter` are ignored: every setting, on a
    /// fresh or a reused workspace, returns the same bits.
    #[test]
    fn direct_solve_ignores_solver_tol_and_max_iter_bitwise() {
        let g = grid();
        let n = g.n_cells();
        let rhs: Vec<f64> = (0..n)
            .map(|i| ((i * 29 % 13) as f64 - 6.0) * 1e-3)
            .collect();
        let reference = solve(&g, &rhs);
        let mut ws = PoissonWorkspace::default();
        let mut phi = Vec::new();
        for (tol, max_iter) in [(1e-8, 500), (0.0, 0), (1.0, 1), (1e-14, usize::MAX)] {
            solve_poisson_into(
                &g,
                &rhs,
                PoissonSolver::Direct,
                tol,
                max_iter,
                &mut ws,
                &mut phi,
            )
            .unwrap();
            assert_eq!(phi, reference, "tol {tol}, max_iter {max_iter}");
        }
    }

    /// The tables follow the grid: a workspace reused across grids of
    /// different sizes and spacings solves each as a fresh one does.
    #[test]
    fn tables_rebuild_when_the_grid_changes() {
        let grids = [
            grid(),
            AtmosGrid {
                nx: 7,
                ny: 5,
                nz: 3,
                dx: 30.0,
                dy: 45.0,
                dz: 20.0,
            },
            AtmosGrid {
                nx: 16,
                ny: 12,
                nz: 8,
                dx: 50.0,
                dy: 60.0,
                dz: 41.0,
            },
        ];
        let mut ws = PoissonWorkspace::default();
        let mut phi = Vec::new();
        for g in grids {
            let rhs: Vec<f64> = (0..g.n_cells())
                .map(|i| ((i * 37 % 11) as f64 - 5.0) * 1e-3)
                .collect();
            solve_poisson_into(&g, &rhs, PoissonSolver::Direct, 0.0, 0, &mut ws, &mut phi).unwrap();
            assert_eq!(phi, solve(&g, &rhs), "{g:?}");
        }
    }

    /// A right-hand side of the wrong length is a typed error, not a panic,
    /// and leaves `out` untouched.
    #[test]
    fn wrong_length_rhs_is_a_grid_mismatch() {
        let g = grid();
        let mut ws = PoissonWorkspace::default();
        let mut phi = vec![1.0; 3];
        for len in [0, g.n_cells() - 1, g.n_cells() + 1] {
            let rhs = vec![0.5; len];
            let err =
                solve_poisson_into(&g, &rhs, PoissonSolver::Direct, 0.0, 0, &mut ws, &mut phi);
            assert_eq!(
                err,
                Err(AtmosError::GridMismatch("poisson rhs")),
                "len {len}"
            );
            assert_eq!(phi, [1.0; 3]);
        }
    }

    /// The pinned multigrid names are shims: no grid routes to multigrid,
    /// and `solve_poisson_mg_into` is the direct solve, reporting 0 cycles.
    #[test]
    fn no_grid_routes_the_projection_to_multigrid() {
        for (nx, ny, nz) in [(5, 4, 3), (8, 8, 5), (10, 10, 6), (40, 40, 6)] {
            let g = AtmosGrid {
                nx,
                ny,
                nz,
                dx: 60.0,
                dy: 60.0,
                dz: 50.0,
            };
            assert!(!PoissonSolver::default().uses_multigrid(&g), "{g:?}");
            let rhs: Vec<f64> = (0..g.n_cells())
                .map(|i| ((i * 37 % 11) as f64 - 5.0) * 1e-3)
                .collect();
            let mut phi = Vec::new();
            let mut mg = crate::MgHierarchy::new();
            let cycles =
                crate::multigrid::solve_poisson_mg_into(&g, &rhs, 1e-8, 500, &mut mg, &mut phi);
            assert_eq!(cycles, Ok(0));
            assert_eq!(phi, solve(&g, &rhs), "{g:?}");
        }
    }

    /// Arbitrary model-sized grids: a mix of even, odd, non-square and flat
    /// dimensions with anisotropic spacings.
    fn any_grid() -> impl Strategy<Value = AtmosGrid> {
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

    proptest! {
        /// The direct solve matches a 1e-14 CG solve to 1e-10 relative on an
        /// arbitrary (broadband, not mean-free) right-hand side, and its
        /// potential is mean-free to 1e-12·‖φ‖.
        #[test]
        fn direct_solve_matches_tight_cg(
            g in any_grid(),
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
            let phi = solve(&g, &rhs);
            let phi_cg = solve_poisson_cg(&g, &rhs, 1e-14, 100_000);
            let norm = |v: &[f64]| dot(v, v).sqrt();
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
    }
}
