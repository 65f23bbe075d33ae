//! The level-set kernels: the fused RHS, the span-taking integrator updates,
//! and the active-row bookkeeping of banded stepping.
//!
//! Three things coexist in this crate, each pinned bitwise to the one
//! before it:
//!
//! 1. **The reference RHS** — [`crate::LevelSetSolver::rhs_reference_into`],
//!    the paper-faithful per-node loop: boundary-aware `diff_x`/`diff_y`
//!    stencils, a match on the gradient scheme, the fuel palette chased
//!    through the full [`crate::FuelModel`]. The semantic oracle.
//! 2. **The fused whole-field RHS** — [`rhs_fused_into`] over every node
//!    (what the public `rhs_into` runs). The static inputs are flattened
//!    once per solver into [`KernelPlanes`]; interior rows are swept over
//!    contiguous slices with the gradient selection, the spread rate,
//!    `−S‖∇ψ‖` and the `s_max` reduction fused into one branch-free pass;
//!    only the domain boundary takes the stencil path. It keeps the
//!    reference's per-node floating-point operation order, so RHS and
//!    `s_max` are bitwise the reference's for every input
//!    (`tests/proptest_levelset_fused.rs`).
//! 3. **Banded stepping** — the same kernel and the integrator updates
//!    below, run on per-row spans ([`ActiveRows`]) instead of whole rows.
//!    This is the only stepping path; it is bitwise the whole-field sweep
//!    for every input (`tests/proptest_levelset_band.rs`, whose oracle is
//!    built from 2.).
//!
//! **The quiet-node contract.** A node is *quiet* when its ψ is finite,
//! strictly positive, and compares equal (`==`) to each of its (up to four)
//! neighbours. Every one-sided difference at a quiet node is `±0`, so under
//! either gradient scheme its RHS is exactly `+0.0` and it adds nothing to
//! `s_max`. From that alone, for a finite `dt`:
//!
//! * the predictor `ψ* = ψ + dt·k1` leaves a quiet node's value as it is;
//! * a node whose radius-1 diamond is quiet is therefore quiet in `ψ*` too,
//!   its second slope is `+0.0`, and the update `(ψ + h·k1) + h·k2` returns
//!   its ψ bit for bit; being positive it is not stamped with a `t_i`;
//! * so the first RHS and the predictor are needed on the non-quiet nodes
//!   dilated by 2, the second RHS and the update on them dilated by 1, and
//!   every other node is one the whole-field sweep would leave untouched.
//!
//! The three exclusions are what makes "untouched" literal: a NaN never
//! compares equal; `∞ − ∞` is NaN, not 0; and a non-positive plateau is
//! *not* left alone by the whole-field sweep — it stamps `t_i` on a burning
//! node that lacks one and turns `−0.0` into `+0.0`. (For a non-finite `dt`,
//! `0·dt` is NaN and nothing is quiet; the solver then marks every node.)
//!
//! Signed-distance ψ has no plateau, so something must create one:
//! `CoupledModel::ignite` caps ψ₀ at 32 cells' distance. Only the *outside*
//! (ψ > 0) is capped. Upwinding takes its differences toward lower ψ, so
//! the front is fed by the burned interior, not by the far field — a
//! positive cap reaches it only through the scheme's weak inward leak
//! (measured in `wildfire_core::FAR_FIELD_CELLS`'s docs), a negative one
//! would sit upwind of the front and move it directly. The cap is that
//! crate's approximation; nothing in this crate depends on it, and the
//! banded sweep is exact for whatever ψ it is given.

use crate::fuel::SpreadCoeffs;
use wildfire_grid::{Field2, Grid2, NodeBox, VectorField2};

use crate::mesh::FireMesh;
use crate::LevelSetSolver;

/// Static per-node inputs of the level-set RHS, flattened for streaming:
/// the fuel palette's spread coefficients (contiguous, palette order), the
/// per-node palette index plane, and the terrain gradient components
/// (central differences, exactly as [`Field2::gradient`] computes them).
///
/// Built once by [`LevelSetSolver::new`]; the solver gives no mutable
/// access to its mesh, so the planes cannot go stale.
#[derive(Debug, Clone)]
pub(crate) struct KernelPlanes {
    grid: Grid2,
    /// Flattened spread-rate coefficients, one entry per palette slot.
    coeffs: Vec<SpreadCoeffs>,
    /// Per-node palette index (a copy of the fuel map's plane).
    index: Vec<u8>,
    /// Terrain gradient `∂z/∂x` per node.
    tzx: Vec<f64>,
    /// Terrain gradient `∂z/∂y` per node.
    tzy: Vec<f64>,
    /// True when every terrain-gradient component is exactly `+0.0` (and no
    /// palette entry has the pathological `r0 = −0.0`): the slope term can
    /// then be skipped outright without changing any output bit — adding
    /// `d·(±0·n⃗)` to the base rate is the identity except for the
    /// `−0.0 + +0.0` corner the `r0` check rules out.
    flat: bool,
}

impl KernelPlanes {
    /// Flattens `mesh` into streaming form.
    pub(crate) fn build(mesh: &FireMesh) -> Self {
        let g = mesh.grid;
        let coeffs: Vec<SpreadCoeffs> = mesh
            .fuel
            .palette()
            .iter()
            .map(|f| f.spread_coeffs())
            .collect();
        let index = mesh.fuel.indices().to_vec();
        let mut tzx = vec![0.0; g.len()];
        let mut tzy = vec![0.0; g.len()];
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let (gx, gy) = mesh.terrain.gradient(ix, iy);
                let id = g.idx(ix, iy);
                tzx[id] = gx;
                tzy[id] = gy;
            }
        }
        let flat = tzx
            .iter()
            .chain(tzy.iter())
            .all(|v| v.to_bits() == 0.0_f64.to_bits())
            && coeffs
                .iter()
                .all(|c| c.r0.to_bits() != (-0.0_f64).to_bits());
        KernelPlanes {
            grid: g,
            coeffs,
            index,
            tzx,
            tzy,
            flat,
        }
    }

    /// The grid the planes were flattened on.
    #[inline]
    pub(crate) fn grid(&self) -> Grid2 {
        self.grid
    }

    /// Largest spread rate any palette entry can return (`S` is clamped to
    /// `[0, max_spread]`) — the a-priori bound on `s_max`.
    pub(crate) fn max_spread(&self) -> f64 {
        self.coeffs.iter().fold(0.0, |m, c| m.max(c.max_spread))
    }
}

/// What a sweep visits in row `iy`: the half-open column range it returns
/// (nothing when `lo >= hi`). Whole-field callers pass `&|_| (0, nx)`.
pub(crate) type RowSpan<'a> = &'a dyn Fn(usize) -> (usize, usize);

/// Per-row spans of the nodes that are **not quiet** — the nodes a step
/// can move (see the module header for the contract). One half-open
/// interval per row, the hull of that row's non-quiet nodes: a superset is
/// always exact, because a sweep over a quiet node writes what was there.
/// Recomputed from ψ by [`ActiveRows::mark`] at every step, so it is a pure
/// function of the state; the vector only carries capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActiveRows {
    nx: usize,
    rows: Vec<(usize, usize)>,
}

impl ActiveRows {
    /// Recomputes the spans from `psi`, one comparison per quiet node: a
    /// row's quiet prefix is as long as the run of its first value `c`
    /// through the row itself and through the rows below and above (less
    /// one in the row itself — the node left of a differing node has a
    /// differing neighbour), and likewise for the suffix from the right.
    pub(crate) fn mark(&mut self, psi: &Field2) {
        let g = psi.grid();
        let (nx, ny) = (g.nx, g.ny);
        self.nx = nx;
        self.rows.clear();
        // Pass 1, each row on its own: (length of the leading run of
        // row[0], start of the trailing run of row[nx − 1]) — a uniform
        // row is scanned once.
        self.rows.extend((0..ny).map(|iy| {
            let row = psi.row(iy);
            match leading_run(row, row[0]) {
                lead if lead == nx => (nx, 0),
                lead => (lead, nx - trailing_run(row, row[nx - 1])),
            }
        }));
        // Pass 2 combines each row with its neighbours in place; `below`
        // carries the pass-1 value the row underneath has just overwritten.
        // A missing neighbour row is replaced by the row itself.
        let plateau = |c: f64| c > 0.0 && c < f64::INFINITY;
        let mut below = self.rows[0];
        for iy in 0..ny {
            let own = self.rows[iy];
            let above = self.rows[(iy + 1).min(ny - 1)];
            let row = psi.row(iy);
            let rows = [
                (psi.row(iy.saturating_sub(1)), below),
                (psi.row((iy + 1).min(ny - 1)), above),
            ];
            let (first, last) = (row[0], row[nx - 1]);
            let mut lo = if own.0 == nx {
                nx
            } else {
                own.0.saturating_sub(1)
            };
            let mut hi = if own.1 == 0 { 0 } else { own.1 + 1 };
            for (other, (lead, trail)) in rows {
                lo = lo.min(if other[0] == first { lead } else { 0 });
                hi = hi.max(if other[nx - 1] == last { trail } else { nx });
            }
            if !plateau(first) {
                lo = 0;
            }
            if !plateau(last) {
                hi = nx;
            }
            self.rows[iy] = if lo < hi { (lo, hi) } else { (0, 0) };
            below = own;
        }
    }

    /// Marks every node active (the fallback for a non-finite `dt`, where
    /// `0·dt` is NaN and even a quiet node moves).
    pub(crate) fn mark_all(&mut self) {
        self.rows.fill((0, self.nx));
    }

    /// Row `iy`'s span dilated by the radius-`d` diamond: the hull of the
    /// spans of rows `iy ± j` widened by `d − j` columns, clipped to the
    /// mesh.
    pub(crate) fn dilated(&self, iy: usize, d: usize) -> (usize, usize) {
        let (mut lo, mut hi) = (usize::MAX, 0);
        for jy in iy.saturating_sub(d)..=(iy + d).min(self.rows.len() - 1) {
            let (a, b) = self.rows[jy];
            if a < b {
                let w = d - jy.abs_diff(iy);
                lo = lo.min(a.saturating_sub(w));
                hi = hi.max((b + w).min(self.nx));
            }
        }
        (lo.min(hi), hi)
    }

    /// Number of nodes in the spans dilated by `d`.
    pub(crate) fn visited(&self, d: usize) -> usize {
        (0..self.rows.len())
            .map(|iy| {
                let (lo, hi) = self.dilated(iy, d);
                hi - lo
            })
            .sum()
    }

    /// Bounding box of the undilated spans (empty when every node is quiet).
    pub(crate) fn bounding_box(&self) -> NodeBox {
        let mut bx = NodeBox::EMPTY;
        for (iy, &(lo, hi)) in self.rows.iter().enumerate() {
            bx.cover_row(iy, lo, hi);
        }
        bx
    }
}

/// Length of the run of values equal to `c` at the start of `row`
/// (eight at a time while they all match, so long plateaus cost a fraction
/// of a nanosecond per node).
pub(crate) fn leading_run(row: &[f64], c: f64) -> usize {
    let mut n = 0;
    for chunk in row.chunks_exact(8) {
        if !chunk.iter().fold(true, |all, &v| all & (v == c)) {
            break;
        }
        n += 8;
    }
    n + row[n..].iter().take_while(|&&v| v == c).count()
}

/// Length of the run of values equal to `c` at the end of `row`.
pub(crate) fn trailing_run(row: &[f64], c: f64) -> usize {
    let mut n = 0;
    for chunk in row.rchunks_exact(8) {
        if !chunk.iter().fold(true, |all, &v| all & (v == c)) {
            break;
        }
        n += 8;
    }
    n + row[..row.len() - n]
        .iter()
        .rev()
        .take_while(|&&v| v == c)
        .count()
}

/// The paper's Godunov selection per axis, on precomputed one-sided
/// differences (the central difference is their mean, as in
/// [`wildfire_grid::stencil::AxisDifferences`]).
#[inline(always)]
fn godunov_select(left: f64, right: f64) -> f64 {
    let central = 0.5 * (left + right);
    if left >= 0.0 && central >= 0.0 {
        left
    } else if right <= 0.0 && central <= 0.0 {
        right
    } else {
        0.0
    }
}

/// Boundary-node evaluation through the same stencil methods the reference
/// uses (`diff_x`/`diff_y` substitute the available one-sided difference at
/// the domain edge). Returns the RHS value and folds `s` into `s_max`.
#[inline]
fn boundary_node<const GODUNOV: bool, const FLAT: bool>(
    planes: &KernelPlanes,
    psi: &Field2,
    wind: &VectorField2,
    ix: usize,
    iy: usize,
    s_max: &mut f64,
) -> f64 {
    let grad = if GODUNOV {
        LevelSetSolver::godunov_gradient(psi, ix, iy)
    } else {
        psi.gradient(ix, iy)
    };
    let norm = (grad.0 * grad.0 + grad.1 * grad.1).sqrt();
    if norm == 0.0 {
        return 0.0;
    }
    let id = planes.grid.idx(ix, iy);
    let c = &planes.coeffs[planes.index[id] as usize];
    let n = (grad.0 / norm, grad.1 / norm);
    let (wu, wv) = wind.get(ix, iy);
    let wind_along = wu * n.0 + wv * n.1;
    let s = if FLAT {
        c.spread_rate_flat(wind_along)
    } else {
        let slope_along = planes.tzx[id] * n.0 + planes.tzy[id] * n.1;
        c.spread_rate(wind_along, slope_along)
    };
    *s_max = s_max.max(s);
    -s * norm
}

/// Fused one-pass RHS `dψ/dt = −S‖∇ψ‖` on the given row spans, with the
/// running `s_max` reduction over the visited nodes.
///
/// Interior rows sweep contiguous row slices (ψ row ± its neighbors, wind,
/// terrain-gradient and fuel-index planes) with no per-node boundary
/// checks and no gradient-scheme match — the scheme is a monomorphized
/// const parameter. Boundary rows and the two boundary columns of each
/// interior row go through [`boundary_node`], which reproduces the
/// reference's stencil behaviour at the domain edge.
///
/// Every node of the spans is overwritten (zero where the upwinded
/// gradient vanishes) and no other, so `out` is re-targeted without a
/// memset; outside the spans it keeps whatever it held.
pub(crate) fn rhs_fused_into<const GODUNOV: bool>(
    planes: &KernelPlanes,
    psi: &Field2,
    wind: &VectorField2,
    out: &mut Field2,
    span: RowSpan<'_>,
) -> f64 {
    // Monomorphize on the two landscape degeneracies the common scenarios
    // hit: a single-entry fuel palette (coefficients live in registers, no
    // per-node indirection) and exactly flat terrain (the slope term is a
    // bitwise no-op and is skipped — see `KernelPlanes::flat`).
    match (planes.coeffs.len() == 1, planes.flat) {
        (true, true) => rhs_fused_dispatch::<GODUNOV, true, true>(planes, psi, wind, out, span),
        (true, false) => rhs_fused_dispatch::<GODUNOV, true, false>(planes, psi, wind, out, span),
        (false, true) => rhs_fused_dispatch::<GODUNOV, false, true>(planes, psi, wind, out, span),
        (false, false) => rhs_fused_dispatch::<GODUNOV, false, false>(planes, psi, wind, out, span),
    }
}

/// The monomorphized sweep behind [`rhs_fused_into`]: `UNIFORM` hoists the
/// single-entry fuel palette out of the inner loop, `FLAT` drops the slope
/// term.
fn rhs_fused_dispatch<const GODUNOV: bool, const UNIFORM: bool, const FLAT: bool>(
    planes: &KernelPlanes,
    psi: &Field2,
    wind: &VectorField2,
    out: &mut Field2,
    span: RowSpan<'_>,
) -> f64 {
    let g = psi.grid();
    debug_assert_eq!(g, planes.grid, "kernel planes built for a different grid");
    out.resize_no_zero(g);
    let (nx, ny) = (g.nx, g.ny);
    let inv_dx = 1.0 / g.dx;
    let inv_dy = 1.0 / g.dy;
    let uniform_coeffs = planes.coeffs[0];
    let mut s_max = 0.0_f64;

    for iy in 0..ny {
        let (lo, hi) = span(iy);
        if lo >= hi {
            continue;
        }
        if nx < 3 || iy == 0 || iy + 1 == ny {
            // Boundary rows (and degenerate single/double-column domains):
            // every node needs the edge-aware stencils.
            for ix in lo..hi {
                let v = boundary_node::<GODUNOV, FLAT>(planes, psi, wind, ix, iy, &mut s_max);
                out.set(ix, iy, v);
            }
            continue;
        }
        // The two boundary columns of the row, when the span reaches them.
        if lo == 0 {
            let v = boundary_node::<GODUNOV, FLAT>(planes, psi, wind, 0, iy, &mut s_max);
            out.set(0, iy, v);
        }
        if hi == nx {
            let v = boundary_node::<GODUNOV, FLAT>(planes, psi, wind, nx - 1, iy, &mut s_max);
            out.set(nx - 1, iy, v);
        }
        let (lo, hi) = (lo.max(1), hi.min(nx - 1));
        let row = psi.row(iy);
        let below = psi.row(iy - 1);
        let above = psi.row(iy + 1);
        let wu = wind.u.row(iy);
        let wv = wind.v.row(iy);
        let base = iy * nx;
        let tzx = &planes.tzx[base..base + nx];
        let tzy = &planes.tzy[base..base + nx];
        let index = &planes.index[base..base + nx];
        let coeffs = planes.coeffs.as_slice();
        let out_row = out.row_mut(iy);
        for i in lo..hi {
            let here = row[i];
            // Same expressions as `diff_x`/`diff_y` at an interior node.
            let left = (here - row[i - 1]) * inv_dx;
            let right = (row[i + 1] - here) * inv_dx;
            let down = (here - below[i]) * inv_dy;
            let up = (above[i] - here) * inv_dy;
            let (gx, gy) = if GODUNOV {
                (godunov_select(left, right), godunov_select(down, up))
            } else {
                (0.5 * (left + right), 0.5 * (down + up))
            };
            let norm = (gx * gx + gy * gy).sqrt();
            if norm == 0.0 {
                // The reference leaves the zeroed output untouched here.
                out_row[i] = 0.0;
                continue;
            }
            let c = if UNIFORM {
                &uniform_coeffs
            } else {
                &coeffs[index[i] as usize]
            };
            let n = (gx / norm, gy / norm);
            let wind_along = wu[i] * n.0 + wv[i] * n.1;
            let s = if FLAT {
                c.spread_rate_flat(wind_along)
            } else {
                let slope_along = tzx[i] * n.0 + tzy[i] * n.1;
                c.spread_rate(wind_along, slope_along)
            };
            s_max = s_max.max(s);
            out_row[i] = -s * norm;
        }
    }
    s_max
}

/// `out = a + alpha·b` on the spans — one fused pass with the same per-node
/// operation order as `copy_from` followed by `axpy` (the Heun predictor),
/// at half the memory traffic. Nodes outside the spans keep whatever `out`
/// held.
pub(crate) fn scaled_sum_into(
    a: &Field2,
    alpha: f64,
    b: &Field2,
    out: &mut Field2,
    span: RowSpan<'_>,
) {
    debug_assert_eq!(a.grid(), b.grid());
    out.resize_no_zero(a.grid());
    for iy in 0..a.grid().ny {
        let (lo, hi) = span(iy);
        for ((o, &x), &y) in out.row_mut(iy)[lo..hi]
            .iter_mut()
            .zip(&a.row(iy)[lo..hi])
            .zip(&b.row(iy)[lo..hi])
        {
            *o = x + alpha * y;
        }
    }
}

/// The ignition-time crossing rule of §2.2: ψ went from `old` to `new`
/// within `(t0, t0+dt]`; linear interpolation of the crossing instant.
#[inline(always)]
fn crossing_time(old: f64, new: f64, t0: f64, dt: f64) -> f64 {
    let frac = if old > new {
        (old / (old - new)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    t0 + frac * dt
}

/// Heun corrector fused with the ignition-time crossing detection, on the
/// spans: `ψ ← (ψ + h·k1) + h·k2` (the exact operation order of two
/// consecutive `axpy` calls with `h = dt/2`), reading each node's
/// pre-update value in the same sweep — so no "ψ before the step" copy is
/// ever made — and stamping `t_i` where ψ crossed zero.
#[allow(clippy::too_many_arguments)]
pub(crate) fn heun_correct_and_mark(
    psi: &mut Field2,
    tig: &mut Field2,
    k1: &Field2,
    k2: &Field2,
    half_dt: f64,
    t0: f64,
    dt: f64,
    span: RowSpan<'_>,
) {
    debug_assert_eq!(psi.grid(), k1.grid());
    debug_assert_eq!(psi.grid(), k2.grid());
    for iy in 0..psi.grid().ny {
        let (lo, hi) = span(iy);
        for (((p, t), &x), &y) in psi.row_mut(iy)[lo..hi]
            .iter_mut()
            .zip(&mut tig.row_mut(iy)[lo..hi])
            .zip(&k1.row(iy)[lo..hi])
            .zip(&k2.row(iy)[lo..hi])
        {
            let old = *p;
            let new = (old + half_dt * x) + half_dt * y;
            *p = new;
            if new < 0.0 && *t == crate::UNBURNED {
                *t = crossing_time(old, new, t0, dt);
            }
        }
    }
}

/// Euler update fused with the ignition-time crossing detection, on the
/// spans: `ψ ← ψ + dt·k1` (the exact `axpy` operation order), stamping
/// `t_i` exactly as [`heun_correct_and_mark`] does.
pub(crate) fn euler_update_and_mark(
    psi: &mut Field2,
    tig: &mut Field2,
    k1: &Field2,
    dt: f64,
    t0: f64,
    span: RowSpan<'_>,
) {
    debug_assert_eq!(psi.grid(), k1.grid());
    for iy in 0..psi.grid().ny {
        let (lo, hi) = span(iy);
        for ((p, t), &x) in psi.row_mut(iy)[lo..hi]
            .iter_mut()
            .zip(&mut tig.row_mut(iy)[lo..hi])
            .zip(&k1.row(iy)[lo..hi])
        {
            let old = *p;
            let new = old + dt * x;
            *p = new;
            if new < 0.0 && *t == crate::UNBURNED {
                *t = crossing_time(old, new, t0, dt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FuelCategory;
    use wildfire_grid::Grid2;

    #[test]
    fn planes_cache_terrain_gradient_exactly() {
        let g = Grid2::new(7, 5, 2.0, 3.0).unwrap();
        let terrain = Field2::from_world_fn(g, |x, y| 0.1 * x * x - 0.05 * x * y);
        let mesh = FireMesh::new(
            g,
            crate::mesh::FuelMap::uniform_category(g, FuelCategory::Brush),
            terrain,
        )
        .unwrap();
        let planes = KernelPlanes::build(&mesh);
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let (gx, gy) = mesh.terrain.gradient(ix, iy);
                let id = g.idx(ix, iy);
                assert_eq!(planes.tzx[id].to_bits(), gx.to_bits());
                assert_eq!(planes.tzy[id].to_bits(), gy.to_bits());
            }
        }
        assert_eq!(planes.coeffs.len(), 1);
        assert_eq!(planes.index.len(), g.len());
    }

    #[test]
    fn godunov_select_matches_paper_rule() {
        // Positive slope: left difference wins.
        assert_eq!(godunov_select(1.0, 1.0), 1.0);
        // Negative slope: right difference wins.
        assert_eq!(godunov_select(-2.0, -2.0), -2.0);
        // Trough: zero.
        assert_eq!(godunov_select(-1.0, 1.0), 0.0);
        // Kink maximum: left ≥ 0 and central = 0 ≥ 0 keeps the outflow.
        assert_eq!(godunov_select(1.0, -1.0), 1.0);
    }

    #[test]
    fn fused_update_helpers_match_two_pass_updates() {
        let g = Grid2::new(4, 3, 1.0, 1.0).unwrap();
        let a = Field2::from_fn(g, |ix, iy| (ix + 10 * iy) as f64 * 0.37 - 2.0);
        let b1 = Field2::from_fn(g, |ix, iy| ((ix * iy) as f64).sin() - 0.5);
        let b2 = Field2::from_fn(g, |ix, iy| ((ix + iy) as f64).cos() - 0.5);
        let alpha = 0.123;
        let (t0, dt) = (7.0, 0.4);
        let whole = |_| (0, g.nx);

        // Predictor: one fused pass vs copy_from + axpy.
        let mut fused = Field2::default();
        scaled_sum_into(&a, alpha, &b1, &mut fused, &whole);
        let mut two_pass = Field2::default();
        two_pass.copy_from(&a);
        two_pass.axpy(alpha, &b1).unwrap();
        assert_eq!(fused, two_pass);

        // Heun corrector + crossing mark vs two axpys + a separate sweep.
        let mut psi_fused = a.clone();
        let mut tig_fused = Field2::filled(g, crate::UNBURNED);
        heun_correct_and_mark(
            &mut psi_fused,
            &mut tig_fused,
            &b1,
            &b2,
            alpha,
            t0,
            dt,
            &whole,
        );
        let mut psi_ref = a.clone();
        let mut tig_ref = Field2::filled(g, crate::UNBURNED);
        psi_ref.axpy(alpha, &b1).unwrap();
        psi_ref.axpy(alpha, &b2).unwrap();
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let new = psi_ref.get(ix, iy);
                if new < 0.0 && tig_ref.get(ix, iy) == crate::UNBURNED {
                    let old = a.get(ix, iy);
                    let frac = if old > new {
                        (old / (old - new)).clamp(0.0, 1.0)
                    } else {
                        0.0
                    };
                    tig_ref.set(ix, iy, t0 + frac * dt);
                }
            }
        }
        for (x, y) in psi_fused.as_slice().iter().zip(psi_ref.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(tig_fused, tig_ref);
        assert!(
            tig_fused.as_slice().iter().any(|&t| t != crate::UNBURNED),
            "the test field must actually produce crossings"
        );

        // Euler variant.
        let mut psi_e = a.clone();
        let mut tig_e = Field2::filled(g, crate::UNBURNED);
        euler_update_and_mark(&mut psi_e, &mut tig_e, &b1, alpha, t0, &whole);
        let mut psi_e_ref = a.clone();
        psi_e_ref.axpy(alpha, &b1).unwrap();
        assert_eq!(psi_e, psi_e_ref);

        // On a span the helpers write the span and nothing else.
        let part = |iy: usize| if iy == 1 { (1, 3) } else { (0, 0) };
        let mut psi_p = a.clone();
        let mut tig_p = Field2::filled(g, crate::UNBURNED);
        heun_correct_and_mark(&mut psi_p, &mut tig_p, &b1, &b2, alpha, t0, dt, &part);
        let mut star_p = Field2::filled(g, -7.0);
        scaled_sum_into(&a, alpha, &b1, &mut star_p, &part);
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let inside = iy == 1 && (1..3).contains(&ix);
                let (psi_want, tig_want, star_want) = if inside {
                    (
                        psi_ref.get(ix, iy),
                        tig_ref.get(ix, iy),
                        two_pass.get(ix, iy),
                    )
                } else {
                    (a.get(ix, iy), crate::UNBURNED, -7.0)
                };
                assert_eq!(psi_p.get(ix, iy).to_bits(), psi_want.to_bits());
                assert_eq!(tig_p.get(ix, iy), tig_want);
                assert_eq!(star_p.get(ix, iy).to_bits(), star_want.to_bits());
            }
        }
    }

    #[test]
    fn active_rows_hull_the_nodes_that_are_not_quiet() {
        let g = Grid2::new(9, 7, 1.0, 1.0).unwrap();
        let mut psi = Field2::filled(g, 5.0);
        let mut active = ActiveRows::default();
        active.mark(&psi);
        assert!(active.bounding_box().is_empty());
        assert_eq!(active.visited(2), 0);
        // One lowered node makes itself and its four neighbours non-quiet.
        psi.set(4, 3, 1.0);
        active.mark(&psi);
        assert_eq!(active.rows[2], (4, 5));
        assert_eq!(active.rows[3], (3, 6));
        assert_eq!(active.rows[4], (4, 5));
        assert_eq!(active.dilated(3, 1), (2, 7));
        assert_eq!(active.dilated(1, 1), (4, 5));
        assert_eq!(active.dilated(0, 1), (0, 0));
        assert_eq!(active.dilated(0, 2), (4, 5));
        assert_eq!(active.dilated(3, 2), (1, 8));
        // Against the definition, node by node, on plateau-heavy fields.
        for seed in 0..200u64 {
            let (nx, ny) = (1 + (seed % 11) as usize, 1 + (seed / 11 % 7) as usize);
            let g = Grid2::new(nx, ny, 1.0, 1.0).unwrap();
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let psi = Field2::from_fn(g, |_, _| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Mostly the plateau value 2.0, some other levels, a NaN.
                [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0, -1.0, 0.0, f64::NAN][(x % 10) as usize]
            });
            let quiet = |ix: usize, iy: usize| {
                let v = psi.get(ix, iy);
                v > 0.0
                    && v < f64::INFINITY
                    && v == psi.get(ix.saturating_sub(1), iy)
                    && v == psi.get((ix + 1).min(nx - 1), iy)
                    && v == psi.get(ix, iy.saturating_sub(1))
                    && v == psi.get(ix, (iy + 1).min(ny - 1))
            };
            active.mark(&psi);
            for iy in 0..ny {
                let want = match (0..nx).find(|&ix| !quiet(ix, iy)) {
                    Some(lo) => (lo, (0..nx).rfind(|&ix| !quiet(ix, iy)).unwrap() + 1),
                    None => (0, 0),
                };
                assert_eq!(active.rows[iy], want, "seed {seed}, row {iy} of {nx}x{ny}");
            }
        }
        // NaN, ±∞, zero and negative plateaus are never quiet.
        for v in [f64::NAN, f64::INFINITY, 0.0, -0.0, -3.0] {
            active.mark(&Field2::filled(g, v));
            assert_eq!(active.visited(0), g.len(), "plateau of {v}");
        }
        active.mark(&psi);
        active.mark_all();
        assert_eq!(active.visited(2), g.len());
    }
}
