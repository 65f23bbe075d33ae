//! Geometric multigrid for the pressure Poisson problem.
//!
//! No projection uses it any more ([`crate::poisson::solve_poisson_into`]
//! solves exactly); the module stays because the benchmark's pinned API
//! still names [`solve_poisson_mg_into`] and [`MgHierarchy`]. It solves
//! the same problem as [`crate::poisson`] — `∇²φ = f` on the cell-centered
//! grid, periodic laterally, homogeneous Neumann at the rigid lids,
//! constant null space projected out — with O(n) complexity: V-cycles of
//! red-black Gauss-Seidel smoothing over a geometric grid hierarchy.
//!
//! # Design
//!
//! * **Hierarchy** — each level halves every dimension that is even and at
//!   least 4 cells (doubling the spacing so the physical extent is
//!   preserved); odd or short dimensions stop coarsening (semicoarsening).
//!   Coarsening ends once the level fits the coarse-level budget (`COARSE_MAX`) or nothing is
//!   halvable; the coarsest problem is solved by matrix-free conjugate
//!   gradients. The whole hierarchy is preallocated inside
//!   [`MgHierarchy`] (one warm-up build per grid shape), so steady-state
//!   solves perform no heap allocation.
//! * **Smoother** — red-black Gauss-Seidel (color by `(i+j+k) mod 2`),
//!   `NU_PRE` sweeps before and `NU_POST` after each coarse-grid
//!   correction. The sweep order is fixed and single-threaded, so solves
//!   are bitwise deterministic across runs. On levels whose `nx` and `ny`
//!   are both even the sweeps run over **color-contiguous storage**
//!   ([`PackedSmoother`]): red cells packed into one array, black cells
//!   into another, with per-level index maps precomputed at hierarchy build
//!   time. Each half-sweep then reads one color and writes the other
//!   through unit-stride, branch-free inner loops the autovectorizer can
//!   chew on, instead of the stride-2 strided accesses of the naive
//!   layout. Under a proper two-coloring the cells of one color are
//!   mutually independent, so the packed traversal computes bit-for-bit
//!   the same update as the scalar reference sweep (pinned by the
//!   `packed_smoother_matches_scalar_bitwise` test); levels with an odd
//!   lateral dimension fall back to the scalar sweep.
//! * **Transfers** — full-weighting restriction (each coarse cell averages
//!   its 2×2×2 — or fewer, in semicoarsened dimensions — children) and
//!   trilinear cell-centered prolongation (weights ¾/¼ per coarsened axis,
//!   periodic wrap laterally, constant extrapolation at the lids). The
//!   prolongation stencils are tabulated per level at hierarchy build time.
//! * **Null space** — the right-hand side is projected mean-free on entry
//!   (and again on the coarsest level, where rounding drift accumulates);
//!   the converged potential is returned mean-free, matching the CG
//!   contract.
//!
//! The solver runs V-cycles until the finest-level relative residual drops
//! below the requested tolerance. Convergence is checked with a true
//! residual evaluation after every cycle, so the reported residual is never
//! an estimate.

use crate::poisson::{apply_neg_laplacian, cg_mean_free, remove_mean};
use crate::state::AtmosGrid;
use crate::{AtmosError, Result};

/// Pre-smoothing sweeps per level per V-cycle. V(2,2) measured fastest to
/// tolerance on the paper-sized grids (fewer sweeps need more cycles and
/// lose on the per-cycle transfer overhead).
const NU_PRE: usize = 2;
/// Post-smoothing sweeps per level per V-cycle.
const NU_POST: usize = 2;
/// Coarsening stops once a level has at most this many cells; the remaining
/// problem goes to the CG coarse solver.
const COARSE_MAX: usize = 64;
/// Relative tolerance of the coarsest-level CG solve — per-cycle, relative
/// to the restricted residual, so it caps the attainable V-cycle
/// contraction factor without limiting the absolute accuracy of the outer
/// solve. The coarse correction only needs to be accurate to roughly the
/// cycle's own contraction (≈ 0.07 measured on the fig1 hierarchy): 1e-2
/// leaves the cycle count unchanged on fire-like right-hand sides while
/// cutting the per-cycle coarse-solve cost enough to move the MG-vs-CG
/// crossover (tightening it to 1e-6 costs ~20% per solve and buys no
/// cycles).
const COARSE_TOL: f64 = 1e-2;

/// Whether `grid` supports a multigrid hierarchy: it must be large enough
/// that coarsening pays (more than `COARSE_MAX` cells) and at least one
/// dimension must be halvable.
pub fn can_coarsen(grid: &AtmosGrid) -> bool {
    grid.n_cells() > COARSE_MAX && coarsened(grid).is_some()
}

/// Halves every halvable dimension of `g` (even and ≥ 4 cells), doubling
/// the matching spacing. `None` when nothing is halvable.
fn coarsened(g: &AtmosGrid) -> Option<AtmosGrid> {
    let halve = |n: usize| n >= 4 && n.is_multiple_of(2);
    if !halve(g.nx) && !halve(g.ny) && !halve(g.nz) {
        return None;
    }
    let (nx, dx) = if halve(g.nx) {
        (g.nx / 2, g.dx * 2.0)
    } else {
        (g.nx, g.dx)
    };
    let (ny, dy) = if halve(g.ny) {
        (g.ny / 2, g.dy * 2.0)
    } else {
        (g.ny, g.dy)
    };
    let (nz, dz) = if halve(g.nz) {
        (g.nz / 2, g.dz * 2.0)
    } else {
        (g.nz, g.dz)
    };
    Some(AtmosGrid {
        nx,
        ny,
        nz,
        dx,
        dy,
        dz,
    })
}

/// One trilinear prolongation stencil along one axis: the two coarse
/// indices a fine cell interpolates from, with their weights.
type Stencil1 = (usize, usize, f64, f64);

/// Tabulates the cell-centered trilinear prolongation along one axis.
///
/// With coarsening factor 1 the table is the identity. With factor 2 a fine
/// cell center sits a quarter coarse-cell off its parent's center, giving
/// weights ¾ on the parent and ¼ on the neighbor toward the fine cell —
/// wrapped for periodic axes, clamped onto the parent (constant
/// extrapolation, the Neumann-consistent choice) at the lids.
fn prolong_table(n_fine: usize, n_coarse: usize, periodic: bool) -> Vec<Stencil1> {
    if n_fine == n_coarse {
        return (0..n_fine).map(|i| (i, i, 1.0, 0.0)).collect();
    }
    debug_assert_eq!(n_fine, 2 * n_coarse);
    (0..n_fine)
        .map(|i| {
            let parent = i / 2;
            let toward = if i.is_multiple_of(2) {
                // Left child: the neighbor on the low side.
                if parent > 0 {
                    Some(parent - 1)
                } else if periodic {
                    Some(n_coarse - 1)
                } else {
                    None
                }
            } else if parent + 1 < n_coarse {
                Some(parent + 1)
            } else if periodic {
                Some(0)
            } else {
                None
            };
            match toward {
                Some(nb) => (parent, nb, 0.75, 0.25),
                None => (parent, parent, 1.0, 0.0),
            }
        })
        .collect()
}

/// Color-contiguous storage for the red-black Gauss-Seidel smoother.
///
/// The naive sweep walks `i` with stride 2, so every vector lane the
/// compiler could use is half-wasted on the other color. This structure
/// packs each color into its own dense array, row-major by `(k, j)` with
/// `m = nx / 2` same-color cells per row. The neighbor algebra collapses to
/// unit stride: for a cell of color `c` at packed slot `t` of row `(k, j)`
/// (its `i` parity is `p = (k + j + c) & 1`), the `i ± 1` neighbors live in
/// the *opposite* color's same row at slots `t`/`t − 1` (`p = 0`) or
/// `t + 1`/`t` (`p = 1`, wrapping at the row ends), and the `j ± 1` and
/// `k ± 1` neighbors sit at the *same* slot `t` of the opposite color's
/// adjacent rows — the parity shift of the neighboring row exactly cancels
/// the color flip. That last identity needs `ny` even (the `j` wrap flips
/// row parity) and `nx` even (equal color counts per row); grids violating
/// either keep the scalar sweep.
///
/// Because a proper two-coloring makes same-color cells mutually
/// independent within a half-sweep, the packed traversal performs exactly
/// the per-cell arithmetic of `rbgs_half_sweep` — results are
/// bit-for-bit identical, which keeps every bitwise-determinism pin in the
/// workspace valid whether or not a level is packable.
#[derive(Debug, Clone, Default)]
pub struct PackedSmoother {
    /// Same-color cells per row: `nx / 2`.
    m: usize,
    /// Original cell index of each packed red slot (`(i+j+k) & 1 == 0`),
    /// row-major by `(k, j)`, `i` ascending within a row.
    red: Vec<u32>,
    /// Original cell index of each packed black slot.
    black: Vec<u32>,
    /// Packed iterate, per color.
    xr: Vec<f64>,
    xb: Vec<f64>,
    /// Packed right-hand side, per color.
    br: Vec<f64>,
    bb: Vec<f64>,
}

impl PackedSmoother {
    /// Builds the packed index maps for `g`, or `None` when the grid's
    /// lateral dimensions are not both even (the packing precondition).
    pub fn new(g: &AtmosGrid) -> Option<PackedSmoother> {
        if g.nx == 0 || !g.nx.is_multiple_of(2) || !g.ny.is_multiple_of(2) {
            return None;
        }
        let m = g.nx / 2;
        let half = g.n_cells() / 2;
        let mut red = Vec::with_capacity(half);
        let mut black = Vec::with_capacity(half);
        for k in 0..g.nz {
            for j in 0..g.ny {
                let p_red = (k + j) & 1;
                for t in 0..m {
                    red.push(g.cell(p_red + 2 * t, j, k) as u32);
                    black.push(g.cell((1 - p_red) + 2 * t, j, k) as u32);
                }
            }
        }
        Some(PackedSmoother {
            m,
            red,
            black,
            xr: vec![0.0; half],
            xb: vec![0.0; half],
            br: vec![0.0; half],
            bb: vec![0.0; half],
        })
    }

    /// Gathers the iterate into packed storage.
    pub fn pack_x(&mut self, x: &[f64]) {
        for (s, (&cr, &cb)) in self.red.iter().zip(self.black.iter()).enumerate() {
            self.xr[s] = x[cr as usize];
            self.xb[s] = x[cb as usize];
        }
    }

    /// Gathers the right-hand side into packed storage.
    pub fn pack_b(&mut self, b: &[f64]) {
        for (s, (&cr, &cb)) in self.red.iter().zip(self.black.iter()).enumerate() {
            self.br[s] = b[cr as usize];
            self.bb[s] = b[cb as usize];
        }
    }

    /// Zeroes the packed iterate (the packed equivalent of `x.fill(0.0)`).
    pub fn zero_x(&mut self) {
        self.xr.fill(0.0);
        self.xb.fill(0.0);
    }

    /// Scatters the packed iterate back to the naive layout.
    pub fn unpack_x(&self, x: &mut [f64]) {
        for (s, (&cr, &cb)) in self.red.iter().zip(self.black.iter()).enumerate() {
            x[cr as usize] = self.xr[s];
            x[cb as usize] = self.xb[s];
        }
    }

    /// `sweeps` full red-black sweeps on the packed-resident iterate (no
    /// pack/unpack — the caller owns the residency).
    pub fn sweep(&mut self, g: &AtmosGrid, sweeps: usize) {
        for _ in 0..sweeps {
            half_sweep_packed(g, self.m, &mut self.xr, &self.br, &self.xb, 0);
            half_sweep_packed(g, self.m, &mut self.xb, &self.bb, &self.xr, 1);
        }
    }

    /// `sweeps` full red-black sweeps over packed storage — bitwise
    /// identical to [`smooth_reference`] on the same inputs. Packs `x` and
    /// `b` on entry, unpacks `x` on exit. The V-cycle itself keeps levels
    /// packed-resident instead (see [`MgHierarchy`]); this entry point
    /// serves standalone smoothing.
    pub fn smooth(&mut self, g: &AtmosGrid, b: &[f64], x: &mut [f64], sweeps: usize) {
        self.pack_x(x);
        self.pack_b(b);
        self.sweep(g, sweeps);
        self.unpack_x(x);
    }

    /// Residual `r = b − A·x` of the packed-resident iterate, written in
    /// the naive layout (restriction and the convergence check read it
    /// there). Per-cell arithmetic matches `apply_neg_laplacian` followed
    /// by the subtraction, so the result is bitwise identical to the
    /// scalar-path residual.
    pub fn residual_into(&self, g: &AtmosGrid, b: &[f64], r: &mut [f64]) {
        let (nx, ny, nz) = (g.nx, g.ny, g.nz);
        let m = self.m;
        let c = RowCoeffs {
            inv_dx2: 1.0 / (g.dx * g.dx),
            inv_dy2: 1.0 / (g.dy * g.dy),
            inv_dz2: 1.0 / (g.dz * g.dz),
            inv_diag: 0.0,
        };
        let empty: [f64; 0] = [];
        for k in 0..nz {
            let zup = k + 1 < nz;
            let zdn = k > 0;
            for j in 0..ny {
                let row = nx * (j + ny * k);
                let rb = (j + ny * k) * m;
                let rjp = (wrap_up(j, ny) + ny * k) * m;
                let rjm = (wrap_dn(j, ny) + ny * k) * m;
                // One pass per i-parity: parity `p` cells belong to color
                // `(p + j + k) & 1` and occupy slots `t = i >> 1`.
                for p in 0..2usize {
                    let (own, opp) = if (p + j + k) & 1 == 0 {
                        (&self.xr, &self.xb)
                    } else {
                        (&self.xb, &self.xr)
                    };
                    let own = &own[rb..rb + m];
                    let same = &opp[rb..rb + m];
                    let jp = &opp[rjp..rjp + m];
                    let jm = &opp[rjm..rjm + m];
                    let km: &[f64] = if zdn {
                        let rkm = (j + ny * (k - 1)) * m;
                        &opp[rkm..rkm + m]
                    } else {
                        &empty
                    };
                    let kp: &[f64] = if zup {
                        let rkp = (j + ny * (k + 1)) * m;
                        &opp[rkp..rkp + m]
                    } else {
                        &empty
                    };
                    let rbr = &b[row..row + nx];
                    let rr = &mut r[row..row + nx];
                    match (p, zdn, zup) {
                        (0, true, true) => {
                            residual_row::<0, true, true>(rr, rbr, own, same, jp, jm, km, kp, c)
                        }
                        (0, true, false) => {
                            residual_row::<0, true, false>(rr, rbr, own, same, jp, jm, km, kp, c)
                        }
                        (0, false, true) => {
                            residual_row::<0, false, true>(rr, rbr, own, same, jp, jm, km, kp, c)
                        }
                        (0, false, false) => {
                            residual_row::<0, false, false>(rr, rbr, own, same, jp, jm, km, kp, c)
                        }
                        (_, true, true) => {
                            residual_row::<1, true, true>(rr, rbr, own, same, jp, jm, km, kp, c)
                        }
                        (_, true, false) => {
                            residual_row::<1, true, false>(rr, rbr, own, same, jp, jm, km, kp, c)
                        }
                        (_, false, true) => {
                            residual_row::<1, false, true>(rr, rbr, own, same, jp, jm, km, kp, c)
                        }
                        (_, false, false) => {
                            residual_row::<1, false, false>(rr, rbr, own, same, jp, jm, km, kp, c)
                        }
                    }
                }
            }
        }
    }
}

/// Residual of one i-parity of one row: reads the packed own-color centers
/// and opposite-color neighbors, writes `r[i] = b[i] − (A·x)[i]` at the
/// parity's stride-2 positions of the naive-layout row slices. `PAR` is the
/// `i` parity; missing vertical legs (`ZDN`/`ZUP` false) mirror the center,
/// exactly as `apply_neg_laplacian`'s Neumann ghosts.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn residual_row<const PAR: usize, const ZDN: bool, const ZUP: bool>(
    r: &mut [f64],
    b: &[f64],
    own: &[f64],
    same: &[f64],
    jp: &[f64],
    jm: &[f64],
    km: &[f64],
    kp: &[f64],
    c: RowCoeffs,
) {
    let m = own.len();
    let cell = |t: usize, ip: f64, im: f64| {
        let xc = own[t];
        let kpv = if ZUP { kp[t] } else { xc };
        let kmv = if ZDN { km[t] } else { xc };
        let lap = -((ip - 2.0 * xc + im) * c.inv_dx2
            + (jp[t] - 2.0 * xc + jm[t]) * c.inv_dy2
            + (kpv - 2.0 * xc + kmv) * c.inv_dz2);
        b[PAR + 2 * t] - lap
    };
    if PAR == 0 {
        r[0] = cell(0, same[0], same[m - 1]);
        for t in 1..m {
            r[2 * t] = cell(t, same[t], same[t - 1]);
        }
    } else {
        for t in 0..m - 1 {
            r[1 + 2 * t] = cell(t, same[t + 1], same[t]);
        }
        r[2 * m - 1] = cell(m - 1, same[0], same[m - 1]);
    }
}

/// Geometry constants one packed row update needs.
#[derive(Clone, Copy)]
struct RowCoeffs {
    inv_dx2: f64,
    inv_dy2: f64,
    inv_dz2: f64,
    inv_diag: f64,
}

/// Updates one packed row of one color. `same` is the opposite color's own
/// row (the `i ± 1` neighbors), `jp`/`jm` its `j ± 1` rows, `kp`/`km` its
/// `k ± 1` rows (present per the compile-time lid flags). `PAR` is the `i`
/// parity of the row being written. Per-cell arithmetic and operand order
/// match [`rbgs_half_sweep`] exactly; the loops are unit-stride over plain
/// slices with no branches, which is what lets them autovectorize.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn packed_row<const PAR: usize, const ZDN: bool, const ZUP: bool>(
    w: &mut [f64],
    wb: &[f64],
    same: &[f64],
    jp: &[f64],
    jm: &[f64],
    km: &[f64],
    kp: &[f64],
    c: RowCoeffs,
) {
    let m = w.len();
    let cell = |t: usize, ip: f64, im: f64| {
        let mut s = (ip + im) * c.inv_dx2 + (jp[t] + jm[t]) * c.inv_dy2;
        if ZDN {
            s += km[t] * c.inv_dz2;
        }
        if ZUP {
            s += kp[t] * c.inv_dz2;
        }
        (wb[t] + s) * c.inv_diag
    };
    if PAR == 0 {
        // Even parity: `i + 1` is the opposite color's slot `t`, `i − 1`
        // its slot `t − 1` (wrapping only at t = 0).
        w[0] = cell(0, same[0], same[m - 1]);
        for t in 1..m {
            w[t] = cell(t, same[t], same[t - 1]);
        }
    } else {
        // Odd parity: `i + 1` is slot `t + 1` (wrapping only at
        // t = m − 1), `i − 1` is slot `t`.
        for t in 0..m - 1 {
            w[t] = cell(t, same[t + 1], same[t]);
        }
        w[m - 1] = cell(m - 1, same[0], same[m - 1]);
    }
}

/// One packed half-sweep: update the cells of `color` (stored in `write`,
/// right-hand side `wb`) from the opposite color's packed iterate `read`.
/// Per-cell arithmetic and operand order match [`rbgs_half_sweep`] exactly.
fn half_sweep_packed(
    g: &AtmosGrid,
    m: usize,
    write: &mut [f64],
    wb: &[f64],
    read: &[f64],
    color: usize,
) {
    let (ny, nz) = (g.ny, g.nz);
    let inv_dx2 = 1.0 / (g.dx * g.dx);
    let inv_dy2 = 1.0 / (g.dy * g.dy);
    let inv_dz2 = 1.0 / (g.dz * g.dz);
    let empty: [f64; 0] = [];
    for k in 0..nz {
        let zdn = k > 0;
        let zup = k + 1 < nz;
        // Neumann lids drop one vertical leg from the diagonal.
        let diag = 2.0 * inv_dx2 + 2.0 * inv_dy2 + (zdn as u8 + zup as u8) as f64 * inv_dz2;
        let c = RowCoeffs {
            inv_dx2,
            inv_dy2,
            inv_dz2,
            inv_diag: 1.0 / diag,
        };
        for j in 0..ny {
            let r = (j + ny * k) * m;
            let rjp = (wrap_up(j, ny) + ny * k) * m;
            let rjm = (wrap_dn(j, ny) + ny * k) * m;
            let w = &mut write[r..r + m];
            let wb = &wb[r..r + m];
            let same = &read[r..r + m];
            let jp = &read[rjp..rjp + m];
            let jm = &read[rjm..rjm + m];
            let km: &[f64] = if zdn {
                let rkm = (j + ny * (k - 1)) * m;
                &read[rkm..rkm + m]
            } else {
                &empty
            };
            let kp: &[f64] = if zup {
                let rkp = (j + ny * (k + 1)) * m;
                &read[rkp..rkp + m]
            } else {
                &empty
            };
            let par = (k + j + color) & 1;
            match (par, zdn, zup) {
                (0, true, true) => packed_row::<0, true, true>(w, wb, same, jp, jm, km, kp, c),
                (0, true, false) => packed_row::<0, true, false>(w, wb, same, jp, jm, km, kp, c),
                (0, false, true) => packed_row::<0, false, true>(w, wb, same, jp, jm, km, kp, c),
                (0, false, false) => packed_row::<0, false, false>(w, wb, same, jp, jm, km, kp, c),
                (_, true, true) => packed_row::<1, true, true>(w, wb, same, jp, jm, km, kp, c),
                (_, true, false) => packed_row::<1, true, false>(w, wb, same, jp, jm, km, kp, c),
                (_, false, true) => packed_row::<1, false, true>(w, wb, same, jp, jm, km, kp, c),
                (_, false, false) => packed_row::<1, false, false>(w, wb, same, jp, jm, km, kp, c),
            }
        }
    }
}

/// One level of the multigrid hierarchy: the grid, its solution/right-hand
/// side/residual storage, the coarsening factors toward the next (coarser)
/// level, and the tabulated prolongation stencils from that level.
#[derive(Debug, Clone, Default)]
struct MgLevel {
    grid: AtmosGrid,
    /// Current iterate (correction on non-finest levels).
    x: Vec<f64>,
    /// Level right-hand side (restricted residual on non-finest levels).
    b: Vec<f64>,
    /// Residual scratch.
    r: Vec<f64>,
    /// Children per axis toward the next level (1 = not coarsened); 0 on
    /// the coarsest level.
    fx: usize,
    fy: usize,
    fz: usize,
    /// Trilinear prolongation stencils from the next level (empty on the
    /// coarsest level).
    tx: Vec<Stencil1>,
    ty: Vec<Stencil1>,
    tz: Vec<Stencil1>,
    /// Color-contiguous smoother storage; `None` when this level's lateral
    /// dimensions are not both even (scalar fallback).
    packed: Option<PackedSmoother>,
}

impl MgLevel {
    /// `sweeps` full red-black sweeps on this level's resident iterate —
    /// the packed arrays when the level packs, the naive `x` otherwise.
    /// Both paths are bitwise identical.
    fn smooth(&mut self, sweeps: usize) {
        match &mut self.packed {
            Some(p) => p.sweep(&self.grid, sweeps),
            None => smooth_reference(&self.grid, &self.b, &mut self.x, sweeps),
        }
    }

    /// Residual `r = b − A·x` of the resident iterate, into `self.r`
    /// (always naive layout — restriction and norms read it there).
    fn residual(&mut self) {
        match &self.packed {
            Some(p) => p.residual_into(&self.grid, &self.b, &mut self.r),
            None => residual_into(&self.grid, &self.b, &self.x, &mut self.r),
        }
    }

    /// Prepares the level to receive a fresh correction solve: loads the
    /// just-restricted `self.b` into packed storage (when packing) and
    /// zeroes the resident iterate.
    fn load_b_and_zero_x(&mut self) {
        match &mut self.packed {
            Some(p) => {
                p.pack_b(&self.b);
                p.zero_x();
            }
            None => self.x.fill(0.0),
        }
    }

    /// Scatters a packed-resident iterate back into `self.x` (no-op for
    /// scalar levels, whose iterate already lives there).
    fn publish_x(&mut self) {
        if let Some(p) = &self.packed {
            p.unpack_x(&mut self.x);
        }
    }
}

/// The preallocated multigrid hierarchy. Built lazily for the first grid it
/// sees and rebuilt only when the grid shape changes, so repeated solves on
/// one model perform no heap allocation. The caller of
/// [`solve_poisson_mg_into`] holds it.
#[derive(Debug, Clone, Default)]
pub struct MgHierarchy {
    levels: Vec<MgLevel>,
    /// CG scratch for the coarsest-level solve (search direction and
    /// operator application; the residual reuses the level's own buffer).
    cg_p: Vec<f64>,
    cg_ap: Vec<f64>,
}

impl MgHierarchy {
    /// An empty hierarchy; levels are built on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of levels currently built (0 before first use).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// (Re)builds the hierarchy when `fine` differs from the current finest
    /// grid. No-op — and no allocation — when the grid is unchanged.
    fn ensure(&mut self, fine: &AtmosGrid) {
        if self.levels.first().is_some_and(|l| l.grid == *fine) {
            return;
        }
        self.levels.clear();
        let mut g = *fine;
        loop {
            self.levels.push(MgLevel {
                grid: g,
                x: vec![0.0; g.n_cells()],
                b: vec![0.0; g.n_cells()],
                r: vec![0.0; g.n_cells()],
                packed: PackedSmoother::new(&g),
                ..Default::default()
            });
            if g.n_cells() <= COARSE_MAX {
                break;
            }
            let Some(c) = coarsened(&g) else { break };
            g = c;
        }
        for l in 0..self.levels.len() - 1 {
            let coarse = self.levels[l + 1].grid;
            let lev = &mut self.levels[l];
            lev.fx = lev.grid.nx / coarse.nx;
            lev.fy = lev.grid.ny / coarse.ny;
            lev.fz = lev.grid.nz / coarse.nz;
            lev.tx = prolong_table(lev.grid.nx, coarse.nx, true);
            lev.ty = prolong_table(lev.grid.ny, coarse.ny, true);
            lev.tz = prolong_table(lev.grid.nz, coarse.nz, false);
        }
        let coarsest = self.levels.last_mut().expect("at least one level");
        // The coarsest level is solved by CG on the naive layout (and the
        // degenerate single-level hierarchy falls back to CG outright), so
        // it never smooths and packing it would only confuse residency.
        coarsest.packed = None;
        self.cg_p = vec![0.0; coarsest.grid.n_cells()];
        self.cg_ap = vec![0.0; coarsest.grid.n_cells()];
    }
}

#[inline]
fn wrap_up(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

#[inline]
fn wrap_dn(i: usize, n: usize) -> usize {
    if i == 0 {
        n - 1
    } else {
        i - 1
    }
}

/// One red-black Gauss-Seidel half-sweep over cells of `color`
/// (`(i+j+k) mod 2 == color`) of `A x = b`, `A = −∇²` with the model's
/// boundary conditions. In-place and sequential, so the sweep is bitwise
/// deterministic.
fn rbgs_half_sweep(g: &AtmosGrid, b: &[f64], x: &mut [f64], color: usize) {
    let (nx, ny, nz) = (g.nx, g.ny, g.nz);
    let nxy = nx * ny;
    let inv_dx2 = 1.0 / (g.dx * g.dx);
    let inv_dy2 = 1.0 / (g.dy * g.dy);
    let inv_dz2 = 1.0 / (g.dz * g.dz);
    for k in 0..nz {
        let zdn = k > 0;
        let zup = k + 1 < nz;
        // Neumann lids drop one vertical leg from the diagonal.
        let diag = 2.0 * inv_dx2 + 2.0 * inv_dy2 + (zdn as u8 + zup as u8) as f64 * inv_dz2;
        let inv_diag = 1.0 / diag;
        for j in 0..ny {
            let row = nx * (j + ny * k);
            let row_jp = nx * (wrap_up(j, ny) + ny * k);
            let row_jm = nx * (wrap_dn(j, ny) + ny * k);
            let mut i = (k + j + color) & 1;
            while i < nx {
                let c = row + i;
                let mut s = (x[row + wrap_up(i, nx)] + x[row + wrap_dn(i, nx)]) * inv_dx2
                    + (x[row_jp + i] + x[row_jm + i]) * inv_dy2;
                if zdn {
                    s += x[c - nxy] * inv_dz2;
                }
                if zup {
                    s += x[c + nxy] * inv_dz2;
                }
                x[c] = (b[c] + s) * inv_diag;
                i += 2;
            }
        }
    }
}

/// `sweeps` full red-black sweeps (red then black) over the naive layout —
/// the scalar reference the packed smoother is pinned against, and the
/// fallback for levels with an odd lateral dimension.
pub fn smooth_reference(g: &AtmosGrid, b: &[f64], x: &mut [f64], sweeps: usize) {
    for _ in 0..sweeps {
        rbgs_half_sweep(g, b, x, 0);
        rbgs_half_sweep(g, b, x, 1);
    }
}

/// Residual `r = b − A·x`.
fn residual_into(g: &AtmosGrid, b: &[f64], x: &[f64], r: &mut [f64]) {
    apply_neg_laplacian(g, x, r);
    for (ri, &bi) in r.iter_mut().zip(b.iter()) {
        *ri = bi - *ri;
    }
}

/// Full-weighting restriction: each coarse cell averages its children.
fn restrict_level(fine: &MgLevel, coarse_grid: &AtmosGrid, coarse_b: &mut [f64]) {
    let fg = &fine.grid;
    let (fx, fy, fz) = (fine.fx, fine.fy, fine.fz);
    let inv_count = 1.0 / (fx * fy * fz) as f64;
    let r = &fine.r;
    for kc in 0..coarse_grid.nz {
        for jc in 0..coarse_grid.ny {
            for ic in 0..coarse_grid.nx {
                let mut sum = 0.0;
                for dk in 0..fz {
                    for dj in 0..fy {
                        for di in 0..fx {
                            sum += r[fg.cell(ic * fx + di, jc * fy + dj, kc * fz + dk)];
                        }
                    }
                }
                coarse_b[coarse_grid.cell(ic, jc, kc)] = sum * inv_count;
            }
        }
    }
}

/// Trilinear prolongation of the coarse correction, added into the fine
/// iterate: `x_fine += P·x_coarse`.
fn prolong_add(fine: &mut MgLevel, coarse_grid: &AtmosGrid, coarse_x: &[f64]) {
    let fg = fine.grid;
    let (cnx, cny) = (coarse_grid.nx, coarse_grid.ny);
    for k in 0..fg.nz {
        let (k0, k1, wz0, wz1) = fine.tz[k];
        let (zb0, zb1) = (cnx * cny * k0, cnx * cny * k1);
        for j in 0..fg.ny {
            let (j0, j1, wy0, wy1) = fine.ty[j];
            let (r00, r01) = (zb0 + cnx * j0, zb0 + cnx * j1);
            let (r10, r11) = (zb1 + cnx * j0, zb1 + cnx * j1);
            let row = fg.nx * (j + fg.ny * k);
            for i in 0..fg.nx {
                let (i0, i1, wx0, wx1) = fine.tx[i];
                let e = wz0
                    * (wy0 * (wx0 * coarse_x[r00 + i0] + wx1 * coarse_x[r00 + i1])
                        + wy1 * (wx0 * coarse_x[r01 + i0] + wx1 * coarse_x[r01 + i1]))
                    + wz1
                        * (wy0 * (wx0 * coarse_x[r10 + i0] + wx1 * coarse_x[r10 + i1])
                            + wy1 * (wx0 * coarse_x[r11 + i0] + wx1 * coarse_x[r11 + i1]));
                fine.x[row + i] += e;
            }
        }
    }
}

/// Trilinear prolongation of the coarse correction, added into a
/// packed-resident fine iterate. The interpolated value per fine cell is
/// computed exactly as in [`prolong_add`]; only the destination slot
/// changes (cell `(i, j, k)` lives at slot `i >> 1` of its color's row), so
/// the result is bitwise identical to prolonging into the naive layout.
fn prolong_add_packed(fine: &mut MgLevel, coarse_grid: &AtmosGrid, coarse_x: &[f64]) {
    let fg = fine.grid;
    let packed = fine.packed.as_mut().expect("packed-resident level");
    let m = packed.m;
    let (cnx, cny) = (coarse_grid.nx, coarse_grid.ny);
    for k in 0..fg.nz {
        let (k0, k1, wz0, wz1) = fine.tz[k];
        let (zb0, zb1) = (cnx * cny * k0, cnx * cny * k1);
        for j in 0..fg.ny {
            let (j0, j1, wy0, wy1) = fine.ty[j];
            let (r00, r01) = (zb0 + cnx * j0, zb0 + cnx * j1);
            let (r10, r11) = (zb1 + cnx * j0, zb1 + cnx * j1);
            let rb = (j + fg.ny * k) * m;
            // Red cells of this row have `i` parity `(j + k) & 1`.
            let p_red = (j + k) & 1;
            for (dest, p) in [(&mut packed.xr, p_red), (&mut packed.xb, 1 - p_red)] {
                for t in 0..m {
                    let i = p + 2 * t;
                    let (i0, i1, wx0, wx1) = fine.tx[i];
                    let e = wz0
                        * (wy0 * (wx0 * coarse_x[r00 + i0] + wx1 * coarse_x[r00 + i1])
                            + wy1 * (wx0 * coarse_x[r01 + i0] + wx1 * coarse_x[r01 + i1]))
                        + wz1
                            * (wy0 * (wx0 * coarse_x[r10 + i0] + wx1 * coarse_x[r10 + i1])
                                + wy1 * (wx0 * coarse_x[r11 + i0] + wx1 * coarse_x[r11 + i1]));
                    dest[rb + t] += e;
                }
            }
        }
    }
}

/// One V-cycle over the whole hierarchy, smoothing the finest level's
/// resident iterate toward `A x = b`.
///
/// Packable levels stay **packed-resident** through the cycle: their
/// pre-smooth, residual, prolongation target, and post-smooth all operate
/// on color-contiguous storage, and the iterate is scattered back to the
/// naive layout once per cycle (non-finest levels, whose parent reads
/// `x` during prolongation) or once per solve (the finest level — the
/// outer solver unpacks on convergence). The right-hand side is packed
/// once per restriction instead of once per smooth call.
fn v_cycle(hier: &mut MgHierarchy) {
    let n_levels = hier.levels.len();
    // Downward leg: smooth, form the residual, restrict it.
    for l in 0..n_levels - 1 {
        let (head, tail) = hier.levels.split_at_mut(l + 1);
        let fine = &mut head[l];
        let coarse = &mut tail[0];
        fine.smooth(NU_PRE);
        fine.residual();
        restrict_level(fine, &coarse.grid, &mut coarse.b);
        coarse.load_b_and_zero_x();
    }
    // Coarsest level: solve (nearly) exactly with mean-free CG. Rounding
    // drift in the restricted mean is projected out first so the singular
    // system stays consistent.
    {
        let coarsest = hier.levels.last_mut().expect("hierarchy built");
        remove_mean(&mut coarsest.b);
        let max_iter = 4 * coarsest.grid.n_cells();
        cg_mean_free(
            &coarsest.grid,
            &coarsest.b,
            COARSE_TOL,
            max_iter,
            &mut coarsest.x,
            &mut coarsest.r,
            &mut hier.cg_p,
            &mut hier.cg_ap,
        );
    }
    // Upward leg: prolong the correction, post-smooth. Non-finest levels
    // publish their iterate back to the naive layout so the next (finer)
    // level's prolongation can read it.
    for l in (0..n_levels - 1).rev() {
        let (head, tail) = hier.levels.split_at_mut(l + 1);
        let fine = &mut head[l];
        let coarse = &tail[0];
        if fine.packed.is_some() {
            prolong_add_packed(fine, &coarse.grid, &coarse.x);
        } else {
            prolong_add(fine, &coarse.grid, &coarse.x);
        }
        fine.smooth(NU_POST);
        if l > 0 {
            fine.publish_x();
        }
    }
}

/// Solves `∇²φ = rhs` by multigrid V-cycles to relative tolerance `tol`,
/// writing the mean-free potential into `out` and returning the number of
/// V-cycles used. Zero steady-state allocation once `mg` has seen the grid.
///
/// # Errors
/// [`AtmosError::PressureSolveFailed`] if the residual has not reached
/// `10·tol` within `max_cycles` V-cycles (the same relaxed acceptance the
/// CG path applies).
pub fn solve_poisson_mg_into(
    g: &AtmosGrid,
    rhs: &[f64],
    tol: f64,
    max_cycles: usize,
    mg: &mut MgHierarchy,
    out: &mut Vec<f64>,
) -> Result<usize> {
    solve_poisson_mg_inner(g, rhs, tol, max_cycles, mg, out)
}

fn solve_poisson_mg_inner(
    g: &AtmosGrid,
    rhs: &[f64],
    tol: f64,
    max_cycles: usize,
    mg: &mut MgHierarchy,
    out: &mut Vec<f64>,
) -> Result<usize> {
    let n = g.n_cells();
    assert_eq!(rhs.len(), n, "poisson rhs length mismatch");
    mg.ensure(g);
    // Same convention as the CG path: solve −∇²φ = −rhs with a mean-free
    // right-hand side.
    let finest = &mut mg.levels[0];
    finest.b.clear();
    finest.b.extend(rhs.iter().map(|&v| -v));
    remove_mean(&mut finest.b);
    let b_norm = finest.b.iter().map(|v| v * v).sum::<f64>().sqrt();
    finest.x.fill(0.0);
    // Packed finest levels stay resident for the whole solve: load the
    // right-hand side and the zero iterate once.
    if let Some(p) = &mut finest.packed {
        p.pack_b(&finest.b);
        p.zero_x();
    }
    out.clear();
    out.resize(n, 0.0);
    if b_norm == 0.0 {
        return Ok(0);
    }
    // Degenerate hierarchy (uncoarsenable or at most COARSE_MAX cells):
    // there is no downward leg to zero the iterate between cycles, so
    // repeated V-cycles would re-solve on top of the previous solution.
    // Solve directly with mean-free CG instead — the documented internal
    // fallback for grids without a coarse level (`max_cycles` caps the CG
    // iterations here).
    if mg.levels.len() == 1 {
        let lev = &mut mg.levels[0];
        let (converged, rs_final) = cg_mean_free(
            g,
            &lev.b,
            tol,
            max_cycles,
            &mut lev.x,
            &mut lev.r,
            &mut mg.cg_p,
            &mut mg.cg_ap,
        );
        let residual = rs_final.sqrt() / b_norm;
        if converged || residual <= tol * 10.0 {
            remove_mean(&mut lev.x);
            out.copy_from_slice(&lev.x);
            return Ok(1);
        }
        return Err(AtmosError::PressureSolveFailed { residual });
    }
    let target = tol * b_norm;
    let mut res_norm = b_norm;
    for cycle in 1..=max_cycles {
        v_cycle(mg);
        let finest = &mut mg.levels[0];
        finest.residual();
        res_norm = finest.r.iter().map(|v| v * v).sum::<f64>().sqrt();
        if res_norm <= target {
            finest.publish_x();
            remove_mean(&mut finest.x);
            out.copy_from_slice(&finest.x);
            return Ok(cycle);
        }
    }
    if res_norm <= target * 10.0 {
        // Accept with the relaxed tolerance rather than aborting a long
        // run, mirroring the CG path.
        let finest = &mut mg.levels[0];
        finest.publish_x();
        remove_mean(&mut finest.x);
        out.copy_from_slice(&finest.x);
        return Ok(max_cycles);
    }
    Err(AtmosError::PressureSolveFailed {
        residual: res_norm / b_norm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::solve_poisson_cg_into;
    use crate::workspace::PoissonWorkspace;

    fn fig1_grid() -> AtmosGrid {
        AtmosGrid {
            nx: 10,
            ny: 10,
            nz: 6,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
        }
    }

    /// A deterministic, smooth-ish, mean-free right-hand side.
    fn wavy_rhs(g: &AtmosGrid) -> Vec<f64> {
        let mut rhs = vec![0.0; g.n_cells()];
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let x = 2.0 * std::f64::consts::PI * i as f64 / g.nx as f64;
                    let y = 2.0 * std::f64::consts::PI * j as f64 / g.ny as f64;
                    let z = std::f64::consts::PI * (k as f64 + 0.5) / g.nz as f64;
                    rhs[g.cell(i, j, k)] = 1e-3 * (x.sin() * (2.0 * y).cos() + z.cos() * y.sin());
                }
            }
        }
        remove_mean(&mut rhs);
        rhs
    }

    #[test]
    fn hierarchy_shape_for_fig1() {
        let mut mg = MgHierarchy::new();
        mg.ensure(&fig1_grid());
        // 10×10×6 (600) → 5×5×3 (75) → stop (all odd).
        assert_eq!(mg.depth(), 2);
        assert_eq!(
            (
                mg.levels[1].grid.nx,
                mg.levels[1].grid.ny,
                mg.levels[1].grid.nz
            ),
            (5, 5, 3)
        );
        assert_eq!(mg.levels[1].grid.dx, 120.0);
        assert_eq!(mg.levels[1].grid.dz, 100.0);
    }

    #[test]
    fn can_coarsen_matches_policy() {
        assert!(can_coarsen(&fig1_grid()));
        // 5×4×3 = 60 cells: under the coarse threshold, CG territory.
        let tiny = AtmosGrid {
            nx: 5,
            ny: 4,
            nz: 3,
            dx: 10.0,
            dy: 10.0,
            dz: 10.0,
        };
        assert!(!can_coarsen(&tiny));
        // All-odd dims cannot be halved regardless of size.
        let odd = AtmosGrid {
            nx: 9,
            ny: 9,
            nz: 9,
            dx: 10.0,
            dy: 10.0,
            dz: 10.0,
        };
        assert!(!can_coarsen(&odd));
    }

    #[test]
    fn recovers_manufactured_solution() {
        let g = AtmosGrid {
            nx: 16,
            ny: 12,
            nz: 8,
            dx: 50.0,
            dy: 60.0,
            dz: 40.0,
        };
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
        let mut mg = MgHierarchy::new();
        let mut phi = Vec::new();
        solve_poisson_mg_into(&g, &rhs, 1e-10, 100, &mut mg, &mut phi).unwrap();
        let err = phi
            .iter()
            .zip(phi_true.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0_f64, f64::max);
        assert!(err < 1e-6, "max error {err}");
    }

    #[test]
    fn zero_rhs_gives_zero_in_zero_cycles() {
        let g = fig1_grid();
        let mut mg = MgHierarchy::new();
        let mut phi = Vec::new();
        let cycles =
            solve_poisson_mg_into(&g, &vec![0.0; g.n_cells()], 1e-10, 100, &mut mg, &mut phi)
                .unwrap();
        assert_eq!(cycles, 0);
        assert!(phi.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn residual_reduction_per_v_cycle_is_pinned() {
        // The quality bar for the cycle: each V(2,2) must contract the
        // residual by at least 5× on the fig1 grid (the measured factor is
        // far better; 5× is the never-regress floor).
        let g = fig1_grid();
        let rhs = wavy_rhs(&g);
        let mut mg = MgHierarchy::new();
        mg.ensure(&g);
        let finest = &mut mg.levels[0];
        finest.b.clear();
        finest.b.extend(rhs.iter().map(|&v| -v));
        remove_mean(&mut finest.b);
        finest.x.fill(0.0);
        finest.load_b_and_zero_x();
        let mut prev = finest.b.iter().map(|v| v * v).sum::<f64>().sqrt();
        for cycle in 0..6 {
            v_cycle(&mut mg);
            let finest = &mut mg.levels[0];
            finest.residual();
            let norm = finest.r.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(
                norm <= prev / 5.0 || norm < 1e-14 * prev,
                "cycle {cycle}: residual {norm:.3e} vs previous {prev:.3e} (factor {:.3})",
                norm / prev
            );
            prev = norm;
        }
    }

    #[test]
    fn agrees_with_cg_to_solver_tolerance() {
        for g in [
            fig1_grid(),
            AtmosGrid {
                nx: 16,
                ny: 12,
                nz: 8,
                dx: 50.0,
                dy: 60.0,
                dz: 40.0,
            },
        ] {
            let rhs = wavy_rhs(&g);
            let mut mg = MgHierarchy::new();
            let mut phi_mg = Vec::new();
            solve_poisson_mg_into(&g, &rhs, 1e-11, 200, &mut mg, &mut phi_mg).unwrap();
            let mut ws = PoissonWorkspace::default();
            let mut phi_cg = Vec::new();
            solve_poisson_cg_into(&g, &rhs, 1e-11, 5000, &mut ws, &mut phi_cg).unwrap();
            let scale = phi_cg.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
            let err = phi_mg
                .iter()
                .zip(phi_cg.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0_f64, f64::max);
            assert!(
                err <= 1e-6 * scale.max(1e-30),
                "grid {}x{}x{}: max |mg − cg| = {err:.3e} (scale {scale:.3e})",
                g.nx,
                g.ny,
                g.nz
            );
        }
    }

    #[test]
    fn solution_is_mean_free_and_deterministic() {
        let g = fig1_grid();
        let rhs = wavy_rhs(&g);
        let mut mg = MgHierarchy::new();
        let mut a = Vec::new();
        solve_poisson_mg_into(&g, &rhs, 1e-9, 100, &mut mg, &mut a).unwrap();
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!(mean.abs() < 1e-12);
        // Same inputs through a fresh hierarchy: bitwise identical output.
        let mut mg2 = MgHierarchy::new();
        let mut b = Vec::new();
        solve_poisson_mg_into(&g, &rhs, 1e-9, 100, &mut mg2, &mut b).unwrap();
        assert_eq!(a, b);
        // And through the warm hierarchy again: still bitwise identical.
        let mut c = Vec::new();
        solve_poisson_mg_into(&g, &rhs, 1e-9, 100, &mut mg, &mut c).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn non_square_and_semicoarsened_grids_converge() {
        // Odd y never coarsens; z stops after one halving: the cycle must
        // still converge through semicoarsened levels.
        for g in [
            AtmosGrid {
                nx: 32,
                ny: 7,
                nz: 6,
                dx: 30.0,
                dy: 45.0,
                dz: 50.0,
            },
            AtmosGrid {
                nx: 12,
                ny: 20,
                nz: 5,
                dx: 80.0,
                dy: 40.0,
                dz: 60.0,
            },
        ] {
            let rhs = wavy_rhs(&g);
            let mut mg = MgHierarchy::new();
            let mut phi = Vec::new();
            solve_poisson_mg_into(&g, &rhs, 1e-9, 200, &mut mg, &mut phi).unwrap();
            let mut r = vec![0.0; g.n_cells()];
            apply_neg_laplacian(&g, &phi, &mut r);
            let mut b = rhs.clone();
            for v in b.iter_mut() {
                *v = -*v;
            }
            remove_mean(&mut b);
            let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            let res = r
                .iter()
                .zip(b.iter())
                .map(|(a, b)| (b - a) * (b - a))
                .sum::<f64>()
                .sqrt();
            assert!(
                res <= 1e-8 * b_norm,
                "grid {}x{}x{}: relative residual {:.3e}",
                g.nx,
                g.ny,
                g.nz,
                res / b_norm
            );
        }
    }

    #[test]
    fn degenerate_single_level_hierarchy_falls_back_to_cg() {
        // An all-odd grid admits no coarse level; the direct public call
        // must still solve (via the internal CG fallback) — including on a
        // reused hierarchy, where a naive V-cycle loop would accumulate the
        // previous solution into the iterate and diverge.
        let g = AtmosGrid {
            nx: 9,
            ny: 7,
            nz: 5,
            dx: 40.0,
            dy: 50.0,
            dz: 60.0,
        };
        let rhs = wavy_rhs(&g);
        let mut mg = MgHierarchy::new();
        let mut first = Vec::new();
        solve_poisson_mg_into(&g, &rhs, 1e-10, 5000, &mut mg, &mut first).unwrap();
        assert_eq!(mg.depth(), 1);
        let mut second = Vec::new();
        solve_poisson_mg_into(&g, &rhs, 1e-10, 5000, &mut mg, &mut second).unwrap();
        assert_eq!(first, second, "warm re-solve must match the cold solve");
        let mut ax = vec![0.0; g.n_cells()];
        apply_neg_laplacian(&g, &second, &mut ax);
        let mut b: Vec<f64> = rhs.iter().map(|&v| -v).collect();
        remove_mean(&mut b);
        let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let res = ax
            .iter()
            .zip(b.iter())
            .map(|(a, b)| (b - a) * (b - a))
            .sum::<f64>()
            .sqrt();
        assert!(
            res <= 1e-9 * b_norm,
            "relative residual {:.3e}",
            res / b_norm
        );
    }

    #[test]
    fn packed_smoother_matches_scalar_bitwise() {
        // The packed layout must be a pure storage transform: same cells,
        // same per-cell arithmetic, bit-for-bit the same iterate. Covers
        // square, non-square, tall, and minimal-even lateral shapes.
        for g in [
            fig1_grid(),
            AtmosGrid {
                nx: 16,
                ny: 12,
                nz: 8,
                dx: 50.0,
                dy: 60.0,
                dz: 40.0,
            },
            AtmosGrid {
                nx: 2,
                ny: 4,
                nz: 3,
                dx: 35.0,
                dy: 55.0,
                dz: 45.0,
            },
            AtmosGrid {
                nx: 6,
                ny: 2,
                nz: 1,
                dx: 30.0,
                dy: 70.0,
                dz: 50.0,
            },
        ] {
            let b = wavy_rhs(&g);
            // A non-trivial starting iterate so both sweep directions and
            // the Gauss-Seidel coupling between colors are exercised.
            let mut x_scalar: Vec<f64> = (0..g.n_cells())
                .map(|c| ((c * 2654435761) % 1000) as f64 * 1e-4 - 0.05)
                .collect();
            let mut x_packed = x_scalar.clone();
            let mut packed = PackedSmoother::new(&g).expect("even lateral dims pack");
            smooth_reference(&g, &b, &mut x_scalar, 3);
            packed.smooth(&g, &b, &mut x_packed, 3);
            let bits_equal = x_scalar
                .iter()
                .zip(x_packed.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(bits_equal, "grid {}x{}x{} diverged", g.nx, g.ny, g.nz);
        }
        // Odd lateral dimensions must refuse to pack (scalar fallback).
        assert!(PackedSmoother::new(&AtmosGrid {
            nx: 9,
            ny: 10,
            nz: 4,
            dx: 10.0,
            dy: 10.0,
            dz: 10.0,
        })
        .is_none());
        assert!(PackedSmoother::new(&AtmosGrid {
            nx: 10,
            ny: 5,
            nz: 4,
            dx: 10.0,
            dy: 10.0,
            dz: 10.0,
        })
        .is_none());
    }

    #[test]
    fn packed_resident_solve_matches_scalar_solve_bitwise() {
        // The packed residency is a pure storage transform of the whole
        // V-cycle (sweeps, residual, prolongation target): full solves
        // must be bit-for-bit identical to a hierarchy with packing
        // stripped. Deep hierarchies (20×20×10 has three levels, two of
        // them packable) exercise the mid-level publish/prolong handoff.
        for g in [
            fig1_grid(),
            AtmosGrid {
                nx: 16,
                ny: 12,
                nz: 8,
                dx: 50.0,
                dy: 60.0,
                dz: 40.0,
            },
            AtmosGrid {
                nx: 20,
                ny: 20,
                nz: 10,
                dx: 30.0,
                dy: 30.0,
                dz: 30.0,
            },
        ] {
            // A deterministic broadband right-hand side on top of the
            // smooth one: fire forcing is broadband, and broadband content
            // drives every level of the hierarchy.
            let mut rhs = wavy_rhs(&g);
            let mut seed = 0x9e3779b97f4a7c15u64;
            for v in rhs.iter_mut() {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *v += ((seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e-3;
            }
            remove_mean(&mut rhs);
            let mut mg_packed = MgHierarchy::new();
            let mut a = Vec::new();
            solve_poisson_mg_into(&g, &rhs, 1e-10, 200, &mut mg_packed, &mut a).unwrap();
            assert!(mg_packed.levels[0].packed.is_some(), "finest should pack");
            let mut mg_scalar = MgHierarchy::new();
            mg_scalar.ensure(&g);
            for l in mg_scalar.levels.iter_mut() {
                l.packed = None;
            }
            let mut b = Vec::new();
            solve_poisson_mg_into(&g, &rhs, 1e-10, 200, &mut mg_scalar, &mut b).unwrap();
            let bits_equal = a
                .iter()
                .zip(b.iter())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(
                bits_equal,
                "grid {}x{}x{}: packed and scalar solves diverged",
                g.nx, g.ny, g.nz
            );
        }
    }

    #[test]
    fn hierarchy_rebuilds_on_grid_change_and_reuses_otherwise() {
        let g1 = fig1_grid();
        let g2 = AtmosGrid {
            nx: 8,
            ny: 8,
            nz: 5,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
        };
        let mut mg = MgHierarchy::new();
        mg.ensure(&g1);
        let d1 = mg.depth();
        mg.ensure(&g2);
        assert_eq!(mg.levels[0].grid, g2);
        mg.ensure(&g1);
        assert_eq!(mg.depth(), d1);
        assert_eq!(mg.levels[0].grid, g1);
    }
}
