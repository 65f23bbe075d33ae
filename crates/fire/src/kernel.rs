//! Fused, SIMD-friendly level-set RHS kernel.
//!
//! [`crate::LevelSetSolver::rhs_reference_into`] is the paper-faithful
//! per-node formulation: every node calls the boundary-aware
//! `diff_x`/`diff_y` stencils (four of them — two on ψ, two on the static
//! terrain), matches on the gradient scheme, and chases the fuel palette
//! through the full [`wildfire_fuel::FuelModel`] struct. None of that
//! per-node work vectorizes or even stays branch-free.
//!
//! This module is the production rewrite: the static inputs (fuel
//! spread-rate coefficients, terrain gradient components) are flattened
//! once per solver into [`KernelPlanes`], interior rows are swept over
//! contiguous slices with the gradient selection, spread-rate evaluation,
//! `−S‖∇ψ‖`, and the `s_max` reduction fused into one branch-free pass,
//! and only the domain boundary takes the stencil-based scalar path.
//!
//! **Equivalence contract.** The fused kernel preserves the reference's
//! per-node floating-point operation order exactly, so its output (RHS
//! field and `s_max`) is *bitwise identical* to the reference for every
//! input. The contract is pinned by the property suite in
//! `tests/proptest_levelset_fused.rs`; any rewrite here must keep it green.

use wildfire_fuel::SpreadCoeffs;
use wildfire_grid::{Field2, Grid2, VectorField2};

use crate::mesh::FireMesh;
use crate::LevelSetSolver;

/// Static per-node inputs of the level-set RHS, flattened for streaming:
/// the fuel palette's spread coefficients (contiguous, palette order), the
/// per-node palette index plane, and the terrain gradient components
/// (central differences, exactly as [`Field2::gradient`] computes them).
///
/// Built once by [`LevelSetSolver::new`]; owners that mutate the mesh
/// afterwards must call [`LevelSetSolver::refresh_kernel_planes`].
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

    /// Canary against stale planes, run under `debug_assert!` on every
    /// fused dispatch: true when the flattened fuel-index plane *and* the
    /// cached terrain-gradient planes still match the mesh. (Palette
    /// coefficient mutation is the one staleness this cannot see; the
    /// documented `refresh_kernel_planes` contract covers it.)
    pub(crate) fn matches_mesh(&self, mesh: &FireMesh) -> bool {
        if self.grid != mesh.grid || self.index != mesh.fuel.indices() {
            return false;
        }
        for iy in 0..self.grid.ny {
            for ix in 0..self.grid.nx {
                let (gx, gy) = mesh.terrain.gradient(ix, iy);
                let id = self.grid.idx(ix, iy);
                if self.tzx[id].to_bits() != gx.to_bits() || self.tzy[id].to_bits() != gy.to_bits()
                {
                    return false;
                }
            }
        }
        true
    }
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

/// Fused one-pass RHS `dψ/dt = −S‖∇ψ‖` with the running `s_max` reduction.
///
/// Interior rows sweep contiguous row slices (ψ row ± its neighbors, wind,
/// terrain-gradient and fuel-index planes) with no per-node boundary
/// checks and no gradient-scheme match — the scheme is a monomorphized
/// const parameter. Boundary rows and the two boundary columns of each
/// interior row go through [`boundary_node`], which reproduces the
/// reference's stencil behaviour at the domain edge.
///
/// Every node of `out` is overwritten (zero where the upwinded gradient
/// vanishes), so the memset of `resize_zeroed` is skipped.
pub(crate) fn rhs_fused_into<const GODUNOV: bool>(
    planes: &KernelPlanes,
    psi: &Field2,
    wind: &VectorField2,
    out: &mut Field2,
) -> f64 {
    // Monomorphize on the two landscape degeneracies the common scenarios
    // hit: a single-entry fuel palette (coefficients live in registers, no
    // per-node indirection) and exactly flat terrain (the slope term is a
    // bitwise no-op and is skipped — see `KernelPlanes::flat`).
    match (planes.coeffs.len() == 1, planes.flat) {
        (true, true) => rhs_fused_dispatch::<GODUNOV, true, true>(planes, psi, wind, out),
        (true, false) => rhs_fused_dispatch::<GODUNOV, true, false>(planes, psi, wind, out),
        (false, true) => rhs_fused_dispatch::<GODUNOV, false, true>(planes, psi, wind, out),
        (false, false) => rhs_fused_dispatch::<GODUNOV, false, false>(planes, psi, wind, out),
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
        if nx < 3 || iy == 0 || iy + 1 == ny {
            // Boundary rows (and degenerate single/double-column domains):
            // every node needs the edge-aware stencils.
            for ix in 0..nx {
                let v = boundary_node::<GODUNOV, FLAT>(planes, psi, wind, ix, iy, &mut s_max);
                out.set(ix, iy, v);
            }
            continue;
        }
        let v_first = boundary_node::<GODUNOV, FLAT>(planes, psi, wind, 0, iy, &mut s_max);
        let v_last = boundary_node::<GODUNOV, FLAT>(planes, psi, wind, nx - 1, iy, &mut s_max);
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
        out_row[0] = v_first;
        out_row[nx - 1] = v_last;
        if UNIFORM && !uniform_coeffs.pow.is_bitwise() {
            // Fast-math palettes batch the wind power per row block (the
            // vectorizable `PowPlan::eval_slice` form) — bitwise-identical
            // to the scalar loop below, just evaluated lanes at a time.
            interior_row_batched::<GODUNOV, FLAT>(
                &uniform_coeffs,
                row,
                below,
                above,
                wu,
                wv,
                tzx,
                tzy,
                inv_dx,
                inv_dy,
                out_row,
                &mut s_max,
            );
            continue;
        }
        for i in 1..nx - 1 {
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

/// Batched interior row for fast-math uniform-palette sweeps: stages a
/// block of nodes' head-wind operands and evaluates the wind power as one
/// [`wildfire_fuel::PowPlan::eval_slice`] call — the vectorizable form of
/// the polynomial kernel — instead of one scalar call per node.
///
/// Bitwise-identical to the scalar interior loop in
/// [`rhs_fused_dispatch`]: every lane runs the same per-node arithmetic in
/// the same order (`eval_slice` is pinned bitwise to element-wise `eval`),
/// zero-gradient nodes write the same `0.0`, and no-head-wind nodes take
/// the same precomputed zero-wind term — those lanes carry a `1.0`
/// sentinel through the batched power so the block never leaves the
/// all-positive vector path.
#[allow(clippy::too_many_arguments)]
fn interior_row_batched<const GODUNOV: bool, const FLAT: bool>(
    c: &SpreadCoeffs,
    row: &[f64],
    below: &[f64],
    above: &[f64],
    wu: &[f64],
    wv: &[f64],
    tzx: &[f64],
    tzy: &[f64],
    inv_dx: f64,
    inv_dy: f64,
    out_row: &mut [f64],
    s_max: &mut f64,
) {
    const BLOCK: usize = 32;
    let nx = row.len();
    let mut norm_b = [0.0_f64; BLOCK];
    let mut wa_b = [0.0_f64; BLOCK];
    let mut pow_b = [0.0_f64; BLOCK];
    let mut slope_b = [0.0_f64; BLOCK];
    let mut start = 1;
    while start < nx - 1 {
        let len = BLOCK.min(nx - 1 - start);
        for k in 0..len {
            let i = start + k;
            let here = row[i];
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
            norm_b[k] = norm;
            if norm == 0.0 {
                wa_b[k] = 0.0;
                pow_b[k] = 1.0;
                slope_b[k] = 0.0;
                continue;
            }
            let n = (gx / norm, gy / norm);
            let wa = (wu[i] * n.0 + wv[i] * n.1).max(0.0);
            wa_b[k] = wa;
            pow_b[k] = if wa > 0.0 { wa } else { 1.0 };
            slope_b[k] = if FLAT {
                0.0
            } else {
                tzx[i] * n.0 + tzy[i] * n.1
            };
        }
        c.pow.eval_slice(&mut pow_b[..len]);
        for k in 0..len {
            let norm = norm_b[k];
            if norm == 0.0 {
                out_row[start + k] = 0.0;
                continue;
            }
            // Same term order as `spread_rate` / `spread_rate_flat`:
            // (r0 + wind) [+ slope], damped, clamped.
            let wind_term = if wa_b[k] > 0.0 {
                c.wind_factor * pow_b[k]
            } else {
                c.zero_wind_term
            };
            let base_rate = c.r0 + wind_term;
            let s = if FLAT {
                base_rate
            } else {
                base_rate + c.slope_factor * slope_b[k]
            };
            let s = (s * c.moisture_damping).clamp(0.0, c.max_spread);
            *s_max = s_max.max(s);
            out_row[start + k] = -s * norm;
        }
        start += len;
    }
}

/// `out = a + alpha·b`, fully overwriting `out` — one fused pass with the
/// same per-node operation order as `copy_from` followed by `axpy` (the
/// Heun predictor), at half the memory traffic.
pub(crate) fn scaled_sum_into(a: &Field2, alpha: f64, b: &Field2, out: &mut Field2) {
    debug_assert_eq!(a.grid(), b.grid());
    out.resize_no_zero(a.grid());
    for ((o, &x), &y) in out
        .as_mut_slice()
        .iter_mut()
        .zip(a.as_slice())
        .zip(b.as_slice())
    {
        *o = x + alpha * y;
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

/// Heun corrector fused with the ignition-time crossing detection:
/// `ψ ← (ψ + h·k1) + h·k2` (the exact operation order of two consecutive
/// `axpy` calls with `h = dt/2`), reading each node's pre-update value in
/// the same sweep — so no "ψ before the step" copy is ever made — and
/// stamping `t_i` where ψ crossed zero.
pub(crate) fn heun_correct_and_mark(
    psi: &mut Field2,
    tig: &mut Field2,
    k1: &Field2,
    k2: &Field2,
    half_dt: f64,
    t0: f64,
    dt: f64,
) {
    debug_assert_eq!(psi.grid(), k1.grid());
    debug_assert_eq!(psi.grid(), k2.grid());
    for (((p, t), &x), &y) in psi
        .as_mut_slice()
        .iter_mut()
        .zip(tig.as_mut_slice())
        .zip(k1.as_slice())
        .zip(k2.as_slice())
    {
        let old = *p;
        let new = (old + half_dt * x) + half_dt * y;
        *p = new;
        if new < 0.0 && *t == crate::UNBURNED {
            *t = crossing_time(old, new, t0, dt);
        }
    }
}

/// Euler update fused with the ignition-time crossing detection:
/// `ψ ← ψ + dt·k1` (the exact `axpy` operation order), stamping `t_i`
/// exactly as [`heun_correct_and_mark`] does.
pub(crate) fn euler_update_and_mark(
    psi: &mut Field2,
    tig: &mut Field2,
    k1: &Field2,
    dt: f64,
    t0: f64,
) {
    debug_assert_eq!(psi.grid(), k1.grid());
    for ((p, t), &x) in psi
        .as_mut_slice()
        .iter_mut()
        .zip(tig.as_mut_slice())
        .zip(k1.as_slice())
    {
        let old = *p;
        let new = old + dt * x;
        *p = new;
        if new < 0.0 && *t == crate::UNBURNED {
            *t = crossing_time(old, new, t0, dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_fuel::FuelCategory;
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

        // Predictor: one fused pass vs copy_from + axpy.
        let mut fused = Field2::default();
        scaled_sum_into(&a, alpha, &b1, &mut fused);
        let mut two_pass = Field2::default();
        two_pass.copy_from(&a);
        two_pass.axpy(alpha, &b1).unwrap();
        assert_eq!(fused, two_pass);

        // Heun corrector + crossing mark vs two axpys + a separate sweep.
        let mut psi_fused = a.clone();
        let mut tig_fused = Field2::filled(g, crate::UNBURNED);
        heun_correct_and_mark(&mut psi_fused, &mut tig_fused, &b1, &b2, alpha, t0, dt);
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
        euler_update_and_mark(&mut psi_e, &mut tig_e, &b1, alpha, t0);
        let mut psi_e_ref = a.clone();
        psi_e_ref.axpy(alpha, &b1).unwrap();
        assert_eq!(psi_e, psi_e_ref);
    }
}
