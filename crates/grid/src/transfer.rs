//! Transfer operators between the fine fire mesh and the coarse atmosphere
//! mesh.
//!
//! The paper runs the fire on a 6 m mesh under a 60 m atmospheric mesh
//! (§2.3): winds are *prolonged* (interpolated) from coarse to fine, and the
//! fire's heat fluxes are *restricted* (conservatively averaged) from fine to
//! coarse. Both grids must be node-aligned with an integer refinement ratio.

use crate::field2::{Field2, Grid2, NodeBox};
use crate::{GridError, Result};

/// Relationship between an aligned coarse/fine grid pair.
#[derive(Debug, Clone, Copy)]
pub struct Refinement {
    /// Fine points per coarse interval in `x`.
    pub rx: usize,
    /// Fine points per coarse interval in `y`.
    pub ry: usize,
}

/// Computes the refinement ratio between aligned grids.
///
/// The grids are aligned when both cover the same physical domain, share the
/// origin, and the fine node count is `r·(n_coarse − 1) + 1` per axis.
///
/// # Errors
/// [`GridError::NonIntegerRefinement`] when the counts do not admit an
/// integer ratio; [`GridError::GridMismatch`] when origins differ.
pub fn refinement_between(fine: &Grid2, coarse: &Grid2) -> Result<Refinement> {
    if fine.origin != coarse.origin {
        return Err(GridError::GridMismatch("transfer origins"));
    }
    let ratio = |nf: usize, nc: usize| -> Result<usize> {
        if nc < 2 || nf < nc {
            return Err(GridError::NonIntegerRefinement {
                fine: nf,
                coarse: nc,
            });
        }
        let intervals_f = nf - 1;
        let intervals_c = nc - 1;
        if !intervals_f.is_multiple_of(intervals_c) {
            return Err(GridError::NonIntegerRefinement {
                fine: nf,
                coarse: nc,
            });
        }
        Ok(intervals_f / intervals_c)
    };
    Ok(Refinement {
        rx: ratio(fine.nx, coarse.nx)?,
        ry: ratio(fine.ny, coarse.ny)?,
    })
}

/// Prolongs (bilinear-interpolates) a coarse field onto a fine grid: writes
/// into `out`, whose grid determines the fine target. This is how
/// near-surface winds travel from the atmosphere mesh to the fire mesh.
///
/// Grid alignment (which [`refinement_between`] validates) makes the
/// bilinear weights a pure function of the fine node's offset inside its
/// coarse interval, so the kernel walks coarse cells and emits the
/// `rx × ry` interior nodes of each with hoisted weights — no per-node
/// world-coordinate transforms or divisions. This path is the inner loop of
/// the fire–atmosphere coupling (winds travel through it every step).
///
/// # Errors
/// Propagates alignment errors from [`refinement_between`].
pub fn prolong_into(coarse: &Field2, out: &mut Field2) -> Result<()> {
    prolong_box_into(coarse, out, NodeBox::full(out.grid()))
}

/// [`prolong_into`] onto the fine nodes of `bx` only: every node of `bx`
/// gets exactly the value the whole-field call gives it (the kernel emits
/// the whole coarse cells that meet the box, so a few nodes around it are
/// written too); the rest of `out` is left as it was. This is what the
/// coupled step uses to interpolate the wind only where the fire can read
/// it.
///
/// # Errors
/// Propagates alignment errors from [`refinement_between`].
pub fn prolong_box_into(coarse: &Field2, out: &mut Field2, bx: NodeBox) -> Result<()> {
    let fine_grid = out.grid();
    let refn = refinement_between(&fine_grid, &coarse.grid())?;
    let cg = coarse.grid();
    let (rx, ry) = (refn.rx, refn.ry);
    let inv_rx = 1.0 / rx as f64;
    let inv_ry = 1.0 / ry as f64;
    let cdata = coarse.as_slice();
    let (fnx, cnx) = (fine_grid.nx, cg.nx);
    let odata = out.as_mut_slice();
    if bx.is_empty() {
        return Ok(());
    }
    // Coarse cells that meet the box (the last coarse row / column owns
    // only the final aligned fine row / column).
    let cys = bx.y0 / ry..=((bx.y1 - 1) / ry).min(cg.ny - 1);
    let cxs = bx.x0 / rx..=((bx.x1 - 1) / rx).min(cg.nx - 1);
    for cy in cys {
        // Fine rows covered by coarse row `cy`: its `ry` interior offsets,
        // or just the final aligned row for the last coarse row.
        let subs_y = if cy + 1 < cg.ny { ry } else { 1 };
        let row0 = &cdata[cy * cnx..(cy + 1) * cnx];
        let row1 = if cy + 1 < cg.ny {
            &cdata[(cy + 1) * cnx..(cy + 2) * cnx]
        } else {
            row0
        };
        for sy in 0..subs_y {
            let fy = sy as f64 * inv_ry;
            let wy0 = 1.0 - fy;
            let orow_base = (cy * ry + sy) * fnx;
            for cx in cxs.clone() {
                let subs_x = if cx + 1 < cg.nx { rx } else { 1 };
                let cx1 = if cx + 1 < cg.nx { cx + 1 } else { cx };
                let v00 = row0[cx];
                let v10 = row0[cx1];
                let v01 = row1[cx];
                let v11 = row1[cx1];
                let obase = orow_base + cx * rx;
                for sx in 0..subs_x {
                    let fx = sx as f64 * inv_rx;
                    let v0 = v00 * (1.0 - fx) + v10 * fx;
                    let v1 = v01 * (1.0 - fx) + v11 * fx;
                    odata[obase + sx] = v0 * wy0 + v1 * fy;
                }
            }
        }
    }
    Ok(())
}

/// Restricts a fine field onto a coarse grid by cell averaging: writes into
/// `out`, whose grid determines the coarse target.
///
/// Each coarse node receives the mean of the fine nodes inside its dual cell
/// (the rectangle of half a coarse spacing on each side). The weighting keeps
/// the discrete integral `Σ v · dA` unchanged up to boundary truncation, so
/// total heat flux is conserved through the transfer — exactly the property
/// the coupling needs.
///
/// # Errors
/// Propagates alignment errors from [`refinement_between`].
pub fn restrict_into(fine: &Field2, out: &mut Field2) -> Result<()> {
    restrict_box_into(fine, out, NodeBox::full(fine.grid()))
}

/// [`restrict_into`] for a fine field that is zero outside `bx`: the coarse
/// nodes whose dual cell meets `bx` are averaged exactly as the whole-field
/// call averages them, every other coarse node is set to the `0.0` that
/// call would compute. `fine` is read only inside those dual cells — at
/// most one refinement ratio beyond `bx` per axis — so it needs to hold
/// its zeros only there, not over the whole mesh.
///
/// # Errors
/// Propagates alignment errors from [`refinement_between`].
pub fn restrict_box_into(fine: &Field2, out: &mut Field2, bx: NodeBox) -> Result<()> {
    let coarse_grid = out.grid();
    let refn = refinement_between(&fine.grid(), &coarse_grid)?;
    let fg = fine.grid();
    if bx != NodeBox::full(fg) {
        out.fill(0.0);
    }
    if bx.is_empty() {
        return Ok(());
    }
    // Coarse nodes `c` with `[c·r − r/2, c·r + r/2]` meeting `[f0, f1)`.
    let meeting = |f0: usize, f1: usize, r: usize, nc: usize| {
        (f0.saturating_sub(r / 2)).div_ceil(r)..((f1 - 1 + r / 2) / r + 1).min(nc)
    };
    let cys = meeting(bx.y0, bx.y1, refn.ry, coarse_grid.ny);
    let cxs = meeting(bx.x0, bx.x1, refn.rx, coarse_grid.nx);
    // Dual cell of a coarse node spans ±r/2 fine intervals. For odd r the
    // boundary falls between fine nodes (no edge weighting needed); for even
    // r the boundary passes through fine nodes, which are shared half/half
    // with the neighboring dual cell.
    let hx = (refn.rx / 2) as isize;
    let hy = (refn.ry / 2) as isize;
    let even_x = refn.rx % 2 == 0;
    let even_y = refn.ry % 2 == 0;
    for cy in cys {
        let fy = (cy * refn.ry) as isize;
        // Clamp the dual-cell sample window to the domain up front (the
        // skipped samples contributed nothing), so the sample loops below
        // run branch-free over contiguous row slices. The surviving
        // samples accumulate in the identical order with the identical
        // weights, so the result is bit-for-bit what the bounds-checked
        // per-sample formulation produced.
        let dy_lo = (-hy).max(-fy);
        let dy_hi = hy.min(fg.ny as isize - 1 - fy);
        for cx in cxs.clone() {
            let fx = (cx * refn.rx) as isize;
            let dx_lo = (-hx).max(-fx);
            let dx_hi = hx.min(fg.nx as isize - 1 - fx);
            let mut sum = 0.0;
            let mut count = 0.0;
            for dy in dy_lo..=dy_hi {
                // Edge-of-dual-cell samples count half (trapezoid rule in
                // each axis) so adjacent dual cells tile the plane.
                let wy = if dy.unsigned_abs() == hy as usize && even_y {
                    0.5
                } else {
                    1.0
                };
                let row = fine.row((fy + dy) as usize);
                let span = &row[(fx + dx_lo) as usize..=(fx + dx_hi) as usize];
                for (k, &v) in span.iter().enumerate() {
                    let dx = dx_lo + k as isize;
                    let wx = if dx.unsigned_abs() == hx as usize && even_x {
                        0.5
                    } else {
                        1.0
                    };
                    let w = wx * wy;
                    sum += w * v;
                    count += w;
                }
            }
            out.set(cx, cy, sum / count);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prolonged(coarse: &Field2, fine_grid: Grid2) -> Field2 {
        let mut out = Field2::zeros(fine_grid);
        prolong_into(coarse, &mut out).unwrap();
        out
    }

    fn restricted(fine: &Field2, coarse_grid: Grid2) -> Field2 {
        let mut out = Field2::zeros(coarse_grid);
        restrict_into(fine, &mut out).unwrap();
        out
    }

    fn pair(r: usize, nc: usize) -> (Grid2, Grid2) {
        let coarse = Grid2::new(nc, nc, 10.0, 10.0).unwrap();
        let fine = Grid2::new(
            r * (nc - 1) + 1,
            r * (nc - 1) + 1,
            10.0 / r as f64,
            10.0 / r as f64,
        )
        .unwrap();
        (fine, coarse)
    }

    #[test]
    fn refinement_detection() {
        let (fine, coarse) = pair(10, 7);
        let r = refinement_between(&fine, &coarse).unwrap();
        assert_eq!(r.rx, 10);
        assert_eq!(r.ry, 10);
    }

    #[test]
    fn refinement_rejects_misaligned() {
        let coarse = Grid2::new(5, 5, 10.0, 10.0).unwrap();
        let fine = Grid2::new(22, 41, 1.0, 1.0).unwrap();
        assert!(refinement_between(&fine, &coarse).is_err());
        let shifted = Grid2::with_origin(41, 41, 1.0, 1.0, (5.0, 0.0)).unwrap();
        assert!(refinement_between(&shifted, &coarse).is_err());
    }

    #[test]
    fn prolong_exact_on_linear() {
        let (fine_g, coarse_g) = pair(4, 6);
        let coarse = Field2::from_world_fn(coarse_g, |x, y| 2.0 * x - y + 3.0);
        let fine = prolonged(&coarse, fine_g);
        for iy in 0..fine_g.ny {
            for ix in 0..fine_g.nx {
                let (x, y) = fine_g.world(ix, iy);
                assert!((fine.get(ix, iy) - (2.0 * x - y + 3.0)).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn restrict_preserves_constants() {
        let (fine_g, coarse_g) = pair(5, 4);
        let fine = Field2::filled(fine_g, 7.25);
        let coarse = restricted(&fine, coarse_g);
        for v in coarse.as_slice() {
            assert!((v - 7.25).abs() < 1e-12);
        }
    }

    #[test]
    fn restrict_approximates_linear() {
        let (fine_g, coarse_g) = pair(6, 5);
        let fine = Field2::from_world_fn(fine_g, |x, y| 0.5 * x + 0.25 * y);
        let coarse = restricted(&fine, coarse_g);
        // Cell-averaging a linear function reproduces it at interior nodes.
        for cy in 1..coarse_g.ny - 1 {
            for cx in 1..coarse_g.nx - 1 {
                let (x, y) = coarse_g.world(cx, cy);
                assert!(
                    (coarse.get(cx, cy) - (0.5 * x + 0.25 * y)).abs() < 1e-10,
                    "node ({cx},{cy})"
                );
            }
        }
    }

    #[test]
    fn restrict_then_prolong_roundtrip_smooth() {
        let (fine_g, coarse_g) = pair(2, 9);
        let smooth = Field2::from_world_fn(fine_g, |x, y| (0.05 * x).sin() + (0.04 * y).cos());
        let down = restricted(&smooth, coarse_g);
        let up = prolonged(&down, fine_g);
        // Smooth fields survive the roundtrip with small error (restriction
        // attenuates the resolved wave slightly; prolongation adds O(h²)).
        assert!(smooth.rmse(&up).unwrap() < 0.06);
    }

    #[test]
    fn integral_conservation_of_restriction() {
        // Total flux (integral) is preserved for interior-supported fields.
        let (fine_g, coarse_g) = pair(4, 8);
        let mut fine = Field2::zeros(fine_g);
        // Paint a blob away from the boundary.
        for iy in 8..20 {
            for ix in 8..20 {
                fine.set(ix, iy, 3.0);
            }
        }
        let coarse = restricted(&fine, coarse_g);
        let fine_int = fine.integral();
        let coarse_int = coarse.integral();
        let rel = (fine_int - coarse_int).abs() / fine_int;
        assert!(rel < 0.25, "integral drift {rel}");
    }

    #[test]
    fn box_transfers_match_whole_field_bitwise() {
        for r in [1, 2, 5, 10] {
            let (fine_g, coarse_g) = pair(r, 7);
            let coarse = Field2::from_fn(coarse_g, |ix, iy| ((ix * 7 + iy * 3) as f64).sin());
            let whole = prolonged(&coarse, fine_g);
            let n = fine_g.nx;
            let boxes = [
                NodeBox::full(fine_g),
                NodeBox::EMPTY,
                NodeBox {
                    x0: 0,
                    x1: 1,
                    y0: 0,
                    y1: 1,
                },
                NodeBox {
                    x0: n - 1,
                    x1: n,
                    y0: n - 1,
                    y1: n,
                },
                NodeBox {
                    x0: n / 3,
                    x1: n / 2 + 1,
                    y0: 1,
                    y1: n - 2,
                },
            ];
            for bx in boxes {
                // Prolongation: sentinel outside, whole-field bits inside.
                let mut out = Field2::filled(fine_g, f64::NAN);
                prolong_box_into(&coarse, &mut out, bx).unwrap();
                for iy in bx.y0..bx.y1 {
                    for ix in bx.x0..bx.x1 {
                        assert_eq!(
                            out.get(ix, iy).to_bits(),
                            whole.get(ix, iy).to_bits(),
                            "r = {r}, {bx:?}, node ({ix},{iy})"
                        );
                    }
                }
                // Restriction: a field that is zero outside the box, with
                // garbage beyond the dual cells the box meets.
                let mut fine = Field2::zeros(fine_g);
                for iy in bx.y0..bx.y1 {
                    for ix in bx.x0..bx.x1 {
                        fine.set(ix, iy, 1.0 + ((ix + 2 * iy) as f64).cos());
                    }
                }
                let expected = restricted(&fine, coarse_g);
                let halo = bx.dilated(r, fine_g);
                for iy in 0..fine_g.ny {
                    for ix in 0..fine_g.nx {
                        let inside = halo.x0 <= ix && ix < halo.x1 && halo.y0 <= iy && iy < halo.y1;
                        if !inside {
                            fine.set(ix, iy, f64::NAN);
                        }
                    }
                }
                let mut got = Field2::filled(coarse_g, f64::NAN);
                restrict_box_into(&fine, &mut got, bx).unwrap();
                for (a, b) in got.as_slice().iter().zip(expected.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "r = {r}, {bx:?}");
                }
            }
        }
    }

    #[test]
    fn unit_refinement_is_identity() {
        let g = Grid2::new(6, 6, 2.0, 2.0).unwrap();
        let f = Field2::from_fn(g, |ix, iy| (ix * 11 + iy) as f64);
        let r = restricted(&f, g);
        let p = prolonged(&f, g);
        assert_eq!(r, f);
        assert_eq!(p, f);
    }
}
