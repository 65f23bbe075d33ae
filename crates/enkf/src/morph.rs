//! The morphing algebra of §3.3.
//!
//! Given a reference field `u0` and a registration `T` of a field `u`
//! against it (`u ≈ u0∘(I + T)`), the *residual* is
//! `r = u∘(I + T)^{-1} − u0` and the family of intermediate fields is
//!
//! ```text
//! u_λ = (u0 + λr)∘(I + λT),   0 ≤ λ ≤ 1,
//! ```
//!
//! which recovers `u0` at λ = 0 and `u` at λ = 1 exactly (up to the
//! interpolation error of the discrete composition). Linear combinations in
//! `(r, T)` space are therefore *morphs* rather than pointwise averages —
//! they move fires instead of fading them in and out, which is the whole
//! point of the morphing EnKF. The reconstruction `u = (u0 + r)∘(I + T)` of
//! a state from its extended form `[r, T]` is the λ = 1 morph.

use crate::registration::{DisplacementField, Stencil};
use wildfire_grid::{Field2, Grid2};

/// The morphing residual `r = u∘(I + T)^{-1} − u0`.
///
/// Where the inverse mapping lands outside `u`'s domain there is no
/// amplitude information (the pullback would be boundary extrapolation), so
/// the residual is zeroed there: the morph then reproduces the reference in
/// that region instead of injecting clamped boundary values. Without this
/// mask, large registrations (fires displaced by a sizable fraction of the
/// domain — exactly the Fig. 4 regime) fill the residual with artifacts that
/// corrupt the EnKF update.
pub fn residual(u: &Field2, u0: &Field2, t: &DisplacementField) -> Field2 {
    let mut r = Field2::zeros(u.grid());
    residuals_into(
        std::slice::from_ref(u),
        std::slice::from_ref(u0),
        t,
        std::slice::from_mut(&mut r),
    );
    r
}

/// [`residual`] of every field of a state against its reference field at
/// once, into `out` (re-targeted to the fields' grid). All fields share
/// `fields[0]`'s grid, so a node's inverse map `(I + T)^{-1}` — the costly
/// part, a fixed-point iteration — is computed once and located once for
/// all of them.
pub(crate) fn residuals_into(
    fields: &[Field2],
    reference: &[Field2],
    t: &DisplacementField,
    out: &mut [Field2],
) {
    let g = fields[0].grid();
    for r in out.iter_mut() {
        r.resize_no_zero(g);
    }
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let (x, y) = g.world(ix, iy);
            let (qx, qy) = t.inverse_displace(x, y);
            let k = g.idx(ix, iy);
            if g.contains(qx, qy) {
                let st = Stencil::at(g, qx, qy);
                for ((r, u), u0) in out.iter_mut().zip(fields).zip(reference) {
                    r.as_mut_slice()[k] = st.apply(u.as_slice()) - u0.get(ix, iy);
                }
            } else {
                for r in out.iter_mut() {
                    r.as_mut_slice()[k] = 0.0;
                }
            }
        }
    }
}

/// The intermediate field `u_λ = (u0 + λr)∘(I + λT)` (equation (1) of the
/// paper, with the λ scaling applied to both the amplitude residual and the
/// displacement).
///
/// # Panics
/// Panics when `r` and `u0` live on different grids.
pub fn morph(u0: &Field2, r: &Field2, t: &DisplacementField, lambda: f64) -> Field2 {
    assert_eq!(
        u0.grid(),
        r.grid(),
        "morph: residual and reference grids differ"
    );
    let mut out = Field2::zeros(u0.grid());
    let c = &t.control;
    let control = (c.grid(), c.u.as_slice(), c.v.as_slice());
    morph_into(
        std::slice::from_ref(u0),
        |_| r.as_slice(),
        lambda,
        control,
        &mut [&mut out],
    );
    out
}

/// [`morph`] of every field of a state at once: `out[f] = (u0[f] +
/// λ·r(f))∘(I + λT)` for fields sharing `u0[0]`'s grid, `r(f)` holding one
/// residual value per node and `T` given by its control grid and the control
/// values of its two components. A node's displaced
/// point is located once for all fields, and the amplitude `u0 + λr` is
/// formed at the four nodes of its stencil — the same sums as forming the
/// whole amplitude field first, without that field.
pub(crate) fn morph_into<'a>(
    u0: &[Field2],
    r: impl Fn(usize) -> &'a [f64],
    lambda: f64,
    (cg, tu, tv): (Grid2, &[f64], &[f64]),
    out: &mut [&mut Field2],
) {
    let g = u0[0].grid();
    for o in out.iter_mut() {
        o.resize_no_zero(g);
    }
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let (x, y) = g.world(ix, iy);
            let ts = Stencil::at(cg, x, y);
            let (tx, ty) = (ts.apply(tu), ts.apply(tv));
            let st = Stencil::at(g, x + lambda * tx, y + lambda * ty);
            let k = g.idx(ix, iy);
            for (f, (o, u0)) in out.iter_mut().zip(u0).enumerate() {
                let (u0, r) = (u0.as_slice(), r(f));
                o.as_mut_slice()[k] = st.eval(|i| u0[i] + lambda * r[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_grid::Grid2;

    fn grid() -> Grid2 {
        Grid2::new(41, 41, 1.0, 1.0).unwrap()
    }

    fn bump(cx: f64, cy: f64) -> Field2 {
        Field2::from_world_fn(grid(), |x, y| {
            (-((x - cx).powi(2) + (y - cy).powi(2)) / 150.0).exp()
        })
    }

    fn constant_shift(sx: f64, sy: f64) -> DisplacementField {
        let mut d = DisplacementField::zero(grid(), 3);
        for iy in 0..3 {
            for ix in 0..3 {
                d.control.set(ix, iy, (sx, sy));
            }
        }
        d
    }

    #[test]
    fn morph_endpoints() {
        let u0 = bump(15.0, 20.0);
        let u = bump(25.0, 20.0);
        let t = constant_shift(-10.0, 0.0); // u ≈ u0∘(I+T): u0 at 15 sampled at x−10 ⇒ bump at 25 ✓
        let r = residual(&u, &u0, &t);
        let m0 = morph(&u0, &r, &t, 0.0);
        assert!(u0.rmse(&m0).unwrap() < 1e-12, "λ=0 must be u0");
        let m1 = morph(&u0, &r, &t, 1.0);
        // Interior agreement with u (the checked window stays clear of the
        // ±10 m boundary-clamping reach of the shift).
        let mut max_err = 0.0_f64;
        for iy in 12..28 {
            for ix in 12..28 {
                max_err = max_err.max((m1.get(ix, iy) - u.get(ix, iy)).abs());
            }
        }
        assert!(max_err < 0.02, "λ=1 error {max_err}");
    }

    #[test]
    fn morph_moves_feature_continuously() {
        // The defining property (paper Fig. 4 rationale): intermediate
        // states have the fire at intermediate POSITIONS, not two faded
        // fires. Check that the λ = 0.5 morph has a single maximum midway.
        let u0 = bump(15.0, 20.0);
        let u = bump(25.0, 20.0);
        let t = constant_shift(-10.0, 0.0);
        let r = residual(&u, &u0, &t);
        let mid = morph(&u0, &r, &t, 0.5);
        let mut best = (0usize, 0usize, f64::MIN);
        for iy in 0..41 {
            for ix in 0..41 {
                if mid.get(ix, iy) > best.2 {
                    best = (ix, iy, mid.get(ix, iy));
                }
            }
        }
        assert!(
            (best.0 as f64 - 20.0).abs() <= 1.0,
            "peak at x={} expected ≈20",
            best.0
        );
        // Peak height stays near 1 (morphing, not averaging: a pointwise
        // average of the two bumps would peak at ≈0.5 + small overlap).
        assert!(best.2 > 0.8, "peak height {}", best.2);
    }

    #[test]
    fn residual_zero_for_pure_translation() {
        let u0 = bump(15.0, 20.0);
        let u = bump(25.0, 20.0);
        let t = constant_shift(-10.0, 0.0);
        let r = residual(&u, &u0, &t);
        // Perfect registration of a pure translation leaves ~zero residual
        // away from the boundary (window clear of the ±10 m clamp reach).
        let mut max_interior = 0.0_f64;
        for iy in 12..28 {
            for ix in 12..28 {
                max_interior = max_interior.max(r.get(ix, iy).abs());
            }
        }
        assert!(max_interior < 0.02, "residual {max_interior}");
    }
}
