//! First-order upwind advection on the staggered grid.
//!
//! Upwind differencing is diffusive but monotone — the right trade for a
//! substrate whose job is to carry buoyant plumes and modified surface winds
//! stably through long data-assimilation runs. Horizontal wrap-around
//! implements the periodic lateral boundaries; vertical stencils are
//! one-sided at the lids.

use crate::state::{AtmosGrid, AtmosState};

/// Upwind derivative along a periodic axis: given the values at the previous
/// (`vm`), current (`vc`), and next (`vp`) point, spacing `h`, and advecting
/// velocity `vel`, returns `vel · ∂q/∂axis`.
#[inline]
fn upwind(vel: f64, vm: f64, vc: f64, vp: f64, h: f64) -> f64 {
    if vel > 0.0 {
        vel * (vc - vm) / h
    } else {
        vel * (vp - vc) / h
    }
}

/// Writes the advective tendency `−(u⃗·∇)q` of a cell-centered scalar into
/// `out`, resizing it (reusing its storage).
///
/// The advecting velocity at the cell center is the average of the adjacent
/// face velocities.
pub(crate) fn scalar_tendency_into(state: &AtmosState, q: &[f64], out: &mut Vec<f64>) {
    let g = &state.grid;
    out.clear();
    out.resize(g.n_cells(), 0.0);
    for k in 0..g.nz {
        for j in 0..g.ny {
            for i in 0..g.nx {
                let c = g.cell(i, j, k);
                let ip = (i + 1) % g.nx;
                let im = (i + g.nx - 1) % g.nx;
                let jp = (j + 1) % g.ny;
                let jm = (j + g.ny - 1) % g.ny;
                let (uc, vc) = state.wind_at_center(i, j, k);
                let wc = 0.5 * (state.w[g.wface(i, j, k)] + state.w[g.wface(i, j, k + 1)]);
                let ddx = upwind(uc, q[g.cell(im, j, k)], q[c], q[g.cell(ip, j, k)], g.dx);
                let ddy = upwind(vc, q[g.cell(i, jm, k)], q[c], q[g.cell(i, jp, k)], g.dy);
                // One-sided at the lids.
                let qm = if k > 0 { q[g.cell(i, j, k - 1)] } else { q[c] };
                let qp = if k + 1 < g.nz {
                    q[g.cell(i, j, k + 1)]
                } else {
                    q[c]
                };
                let ddz = upwind(wc, qm, q[c], qp, g.dz);
                out[c] = -(ddx + ddy + ddz);
            }
        }
    }
}

/// Writes the horizontal Laplacian diffusion tendency `ν ∇²_h q` of a
/// cell-centered scalar (periodic lateral boundaries) into `out`, resizing
/// it (reusing its storage).
pub(crate) fn diffusion_tendency_into(g: &AtmosGrid, q: &[f64], nu: f64, out: &mut Vec<f64>) {
    out.clear();
    out.resize(g.n_cells(), 0.0);
    if nu == 0.0 {
        return;
    }
    let inv_dx2 = 1.0 / (g.dx * g.dx);
    let inv_dy2 = 1.0 / (g.dy * g.dy);
    for k in 0..g.nz {
        for j in 0..g.ny {
            for i in 0..g.nx {
                let c = g.cell(i, j, k);
                let ip = q[g.cell((i + 1) % g.nx, j, k)];
                let im = q[g.cell((i + g.nx - 1) % g.nx, j, k)];
                let jp = q[g.cell(i, (j + 1) % g.ny, k)];
                let jm = q[g.cell(i, (j + g.ny - 1) % g.ny, k)];
                out[c] = nu * ((ip - 2.0 * q[c] + im) * inv_dx2 + (jp - 2.0 * q[c] + jm) * inv_dy2);
            }
        }
    }
}

/// Writes the advective tendencies of the three staggered velocity
/// components, `−(u⃗·∇)u`, `−(u⃗·∇)v`, `−(u⃗·∇)w`, each at its own face
/// set, into `du`, `dv` and `dw`, resizing them (reusing their storage).
pub(crate) fn momentum_tendencies_into(
    state: &AtmosState,
    du: &mut Vec<f64>,
    dv: &mut Vec<f64>,
    dw: &mut Vec<f64>,
) {
    let g = &state.grid;
    let n = g.n_cells();
    du.clear();
    du.resize(n, 0.0);
    dv.clear();
    dv.resize(n, 0.0);
    dw.clear();
    dw.resize(g.nx * g.ny * (g.nz + 1), 0.0);

    // u-faces: advecting v and w averaged to the u-face location.
    for k in 0..g.nz {
        for j in 0..g.ny {
            for i in 0..g.nx {
                let c = g.cell(i, j, k);
                let ip = (i + 1) % g.nx;
                let im = (i + g.nx - 1) % g.nx;
                let jp = (j + 1) % g.ny;
                let jm = (j + g.ny - 1) % g.ny;
                let uc = state.u[c];
                // v at u-face: average the 4 surrounding v-faces.
                let vc = 0.25
                    * (state.v[g.cell(i, j, k)]
                        + state.v[g.cell(i, jp, k)]
                        + state.v[g.cell(im, j, k)]
                        + state.v[g.cell(im, jp, k)]);
                let wc = 0.25
                    * (state.w[g.wface(i, j, k)]
                        + state.w[g.wface(i, j, k + 1)]
                        + state.w[g.wface(im, j, k)]
                        + state.w[g.wface(im, j, k + 1)]);
                let ddx = upwind(
                    uc,
                    state.u[g.cell(im, j, k)],
                    uc,
                    state.u[g.cell(ip, j, k)],
                    g.dx,
                );
                let ddy = upwind(
                    vc,
                    state.u[g.cell(i, jm, k)],
                    uc,
                    state.u[g.cell(i, jp, k)],
                    g.dy,
                );
                let um = if k > 0 {
                    state.u[g.cell(i, j, k - 1)]
                } else {
                    uc
                };
                let up = if k + 1 < g.nz {
                    state.u[g.cell(i, j, k + 1)]
                } else {
                    uc
                };
                let ddz = upwind(wc, um, uc, up, g.dz);
                du[c] = -(ddx + ddy + ddz);
            }
        }
    }

    // v-faces.
    for k in 0..g.nz {
        for j in 0..g.ny {
            for i in 0..g.nx {
                let c = g.cell(i, j, k);
                let ip = (i + 1) % g.nx;
                let im = (i + g.nx - 1) % g.nx;
                let jp = (j + 1) % g.ny;
                let jm = (j + g.ny - 1) % g.ny;
                let vc = state.v[c];
                let uc = 0.25
                    * (state.u[g.cell(i, j, k)]
                        + state.u[g.cell(ip, j, k)]
                        + state.u[g.cell(i, jm, k)]
                        + state.u[g.cell(ip, jm, k)]);
                let wc = 0.25
                    * (state.w[g.wface(i, j, k)]
                        + state.w[g.wface(i, j, k + 1)]
                        + state.w[g.wface(i, jm, k)]
                        + state.w[g.wface(i, jm, k + 1)]);
                let ddx = upwind(
                    uc,
                    state.v[g.cell(im, j, k)],
                    vc,
                    state.v[g.cell(ip, j, k)],
                    g.dx,
                );
                let ddy = upwind(
                    vc,
                    state.v[g.cell(i, jm, k)],
                    vc,
                    state.v[g.cell(i, jp, k)],
                    g.dy,
                );
                let vm = if k > 0 {
                    state.v[g.cell(i, j, k - 1)]
                } else {
                    vc
                };
                let vp = if k + 1 < g.nz {
                    state.v[g.cell(i, j, k + 1)]
                } else {
                    vc
                };
                let ddz = upwind(wc, vm, vc, vp, g.dz);
                dv[c] = -(ddx + ddy + ddz);
            }
        }
    }

    // w-faces (interior levels only; lids stay zero).
    for k in 1..g.nz {
        for j in 0..g.ny {
            for i in 0..g.nx {
                let f = g.wface(i, j, k);
                let ip = (i + 1) % g.nx;
                let im = (i + g.nx - 1) % g.nx;
                let jp = (j + 1) % g.ny;
                let jm = (j + g.ny - 1) % g.ny;
                let wc = state.w[f];
                // u at w-face: average 4 u-faces from the two cells sharing
                // this face.
                let uc = 0.25
                    * (state.u[g.cell(i, j, k - 1)]
                        + state.u[g.cell(ip, j, k - 1)]
                        + state.u[g.cell(i, j, k)]
                        + state.u[g.cell(ip, j, k)]);
                let vc = 0.25
                    * (state.v[g.cell(i, j, k - 1)]
                        + state.v[g.cell(i, jp, k - 1)]
                        + state.v[g.cell(i, j, k)]
                        + state.v[g.cell(i, jp, k)]);
                let ddx = upwind(
                    uc,
                    state.w[g.wface(im, j, k)],
                    wc,
                    state.w[g.wface(ip, j, k)],
                    g.dx,
                );
                let ddy = upwind(
                    vc,
                    state.w[g.wface(i, jm, k)],
                    wc,
                    state.w[g.wface(i, jp, k)],
                    g.dy,
                );
                let ddz = upwind(
                    wc,
                    state.w[g.wface(i, j, k - 1)],
                    wc,
                    state.w[g.wface(i, j, k + 1)],
                    g.dz,
                );
                dw[f] = -(ddx + ddy + ddz);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::AtmosState;

    fn scalar_tendency(state: &AtmosState, q: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        scalar_tendency_into(state, q, &mut out);
        out
    }

    fn momentum_tendencies(state: &AtmosState) -> [Vec<f64>; 3] {
        let [mut du, mut dv, mut dw] = [vec![], vec![], vec![]];
        momentum_tendencies_into(state, &mut du, &mut dv, &mut dw);
        [du, dv, dw]
    }

    fn grid() -> AtmosGrid {
        AtmosGrid {
            nx: 8,
            ny: 8,
            nz: 4,
            dx: 10.0,
            dy: 10.0,
            dz: 10.0,
        }
    }

    #[test]
    fn uniform_scalar_has_no_advective_tendency() {
        let s = AtmosState::uniform(grid(), (5.0, -3.0));
        let q = vec![7.0; grid().n_cells()];
        let t = scalar_tendency(&s, &q);
        assert!(t.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn uniform_flow_has_no_momentum_tendency() {
        let s = AtmosState::uniform(grid(), (5.0, -3.0));
        let [du, dv, dw] = momentum_tendencies(&s);
        assert!(du.iter().all(|&x| x.abs() < 1e-12));
        assert!(dv.iter().all(|&x| x.abs() < 1e-12));
        assert!(dw.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn scalar_advects_downwind() {
        let g = grid();
        let mut s = AtmosState::uniform(g, (10.0, 0.0));
        let mut q = vec![0.0; g.n_cells()];
        q[g.cell(3, 4, 1)] = 1.0;
        let t = scalar_tendency(&s, &q);
        // The blob loses mass where it is and gains just downwind.
        assert!(t[g.cell(3, 4, 1)] < 0.0);
        assert!(t[g.cell(4, 4, 1)] > 0.0);
        assert_eq!(t[g.cell(2, 4, 1)], 0.0);
        // Reverse the wind: the gain flips to the other side.
        for u in s.u.iter_mut() {
            *u = -10.0;
        }
        let t2 = scalar_tendency(&s, &q);
        assert!(t2[g.cell(2, 4, 1)] > 0.0);
        assert_eq!(t2[g.cell(4, 4, 1)], 0.0);
    }

    #[test]
    fn upwind_conserves_scalar_sum_in_periodic_flow() {
        // With uniform horizontal wind and no vertical motion, the upwind
        // scheme is a redistribution: the total tendency sums to zero.
        let g = grid();
        let s = AtmosState::uniform(g, (4.0, 2.0));
        let q: Vec<f64> = (0..g.n_cells()).map(|i| ((i * 7) % 13) as f64).collect();
        let t = scalar_tendency(&s, &q);
        let total: f64 = t.iter().sum();
        assert!(total.abs() < 1e-9, "total tendency {total}");
    }

    #[test]
    fn diffusion_smooths_peak() {
        let g = grid();
        let mut q = vec![0.0; g.n_cells()];
        q[g.cell(4, 4, 2)] = 1.0;
        let mut t = Vec::new();
        diffusion_tendency_into(&g, &q, 5.0, &mut t);
        assert!(t[g.cell(4, 4, 2)] < 0.0);
        assert!(t[g.cell(5, 4, 2)] > 0.0);
        assert!(t[g.cell(4, 5, 2)] > 0.0);
        // Diffusion conserves the integral.
        let total: f64 = t.iter().sum();
        assert!(total.abs() < 1e-12);
        // Zero viscosity short-circuits to an all-zero tendency.
        diffusion_tendency_into(&g, &q, 0.0, &mut t);
        assert_eq!(t, vec![0.0; g.n_cells()]);
    }

    #[test]
    fn lid_faces_have_zero_w_tendency() {
        let g = grid();
        let mut s = AtmosState::uniform(g, (3.0, 1.0));
        // Put some interior vertical motion.
        s.w[g.wface(2, 2, 2)] = 1.0;
        let [_, _, dw] = momentum_tendencies(&s);
        for j in 0..g.ny {
            for i in 0..g.nx {
                assert_eq!(dw[g.wface(i, j, 0)], 0.0);
                assert_eq!(dw[g.wface(i, j, g.nz)], 0.0);
            }
        }
    }
}
