//! Automatic grid registration (§3.3).
//!
//! Finds a smooth mapping `T` such that `u ≈ u0∘(I + T)` by approximately
//! minimizing the paper's functional
//!
//! ```text
//! ‖u − u0∘(I + T)‖² + c₁‖T‖² + c₂‖∇T‖²  →  min
//! ```
//!
//! `T` is parameterized by its values on a coarse *control grid* and
//! interpolated bilinearly to the field grid; the optimization is
//! multilevel (coarse control grids first, each level initializing the
//! next), seeded by an exhaustive global-translation search — which is what
//! makes the method robust to the large position errors (entire fire in the
//! wrong place) that defeat the plain EnKF.

use crate::Result;
use wildfire_grid::{Field2, Grid2, VectorField2};

/// Configuration of the multilevel registration.
#[derive(Debug, Clone)]
pub struct RegistrationConfig {
    /// Search radius of the initial global-translation scan (m).
    pub max_shift: f64,
    /// Lattice points per axis in the translation scan (odd; ≥ 3).
    pub shift_samples: usize,
    /// Control-grid sizes (nodes per axis) per refinement level.
    pub levels: Vec<usize>,
    /// Weight `c₁` of the `‖T‖²` penalty (per m² of displacement · m² of
    /// area, relative to the squared-residual term).
    pub c_t: f64,
    /// Weight `c₂` of the `‖∇T‖²` smoothness penalty.
    pub c_grad: f64,
    /// Gradient-descent iterations per level.
    pub iterations: usize,
    /// Initial line-search step (m of displacement per unit gradient).
    pub initial_step: f64,
}

impl Default for RegistrationConfig {
    fn default() -> Self {
        RegistrationConfig {
            max_shift: 120.0,
            shift_samples: 9,
            levels: vec![3, 5],
            c_t: 1e-4,
            c_grad: 1e-3,
            iterations: 40,
            initial_step: 1.0,
        }
    }
}

/// A displacement mapping `T`, stored on its control grid and interpolated
/// bilinearly — the `T` of the extended state `[r, T]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DisplacementField {
    /// Control-grid displacement components (world units, m).
    pub control: VectorField2,
}

impl DisplacementField {
    /// Zero displacement on an `n × n` control grid spanning `domain`.
    pub fn zero(domain: Grid2, n: usize) -> Self {
        DisplacementField {
            control: VectorField2::zeros(control_grid(domain, n)),
        }
    }

    /// Displacement at a world point (bilinear in the control values).
    #[inline]
    pub fn sample(&self, x: f64, y: f64) -> (f64, f64) {
        self.control.sample_bilinear(x, y)
    }

    /// Materializes `T` on an arbitrary grid (e.g. the full fire mesh).
    pub fn to_grid(&self, grid: Grid2) -> VectorField2 {
        VectorField2::from_fn(grid, |ix, iy| {
            let (x, y) = grid.world(ix, iy);
            self.sample(x, y)
        })
    }

    /// Applies `(I + T)` to a world point.
    #[inline]
    pub fn displace(&self, x: f64, y: f64) -> (f64, f64) {
        let (tx, ty) = self.sample(x, y);
        (x + tx, y + ty)
    }

    /// Approximates `(I + T)^{-1}(p)` by damped fixed-point iteration.
    pub fn inverse_displace(&self, x: f64, y: f64) -> (f64, f64) {
        let mut qx = x;
        let mut qy = y;
        for _ in 0..60 {
            let (tx, ty) = self.sample(qx, qy);
            let nqx = x - tx;
            let nqy = y - ty;
            let d2 = (nqx - qx).powi(2) + (nqy - qy).powi(2);
            qx = nqx;
            qy = nqy;
            if d2 < 1e-20 {
                break;
            }
        }
        (qx, qy)
    }

    /// Maximum displacement magnitude over the control nodes (m).
    pub fn max_magnitude(&self) -> f64 {
        self.control.max_magnitude()
    }
}

/// Reusable scratch for [`register_ws`]/[`register_into`]: the reference
/// gradient fields plus one set of control-grid buffers per refinement
/// level (the scratch *pyramid* — each level's displacement, trial
/// displacement, and gradient pairs live in their own preallocated slot,
/// so multilevel descent re-runs without touching the heap). Sized on
/// first use, reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct RegistrationWorkspace {
    /// `∂u0/∂x` on the field grid (chain-rule term of the data gradient).
    u0_gx: Field2,
    /// `∂u0/∂y` on the field grid.
    u0_gy: Field2,
    /// Per-column x-lookups of the translation scan (one entry per field
    /// column, refilled for every candidate shift).
    shift_cols: Vec<(usize, usize, f64)>,
    /// Per-level control-grid scratch, coarsest first.
    levels: Vec<LevelScratch>,
}

impl RegistrationWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One level of the scratch pyramid.
#[derive(Debug, Clone, Default)]
struct LevelScratch {
    /// Current control displacement `T` of this level.
    t: VectorField2,
    /// Backtracking trial displacement.
    t_try: VectorField2,
    /// Gradient of the objective at `t`.
    gx: Field2,
    /// y-component gradient at `t`.
    gy: Field2,
    /// Gradient at `t_try`.
    gx_try: Field2,
    /// y-component gradient at `t_try`.
    gy_try: Field2,
}

/// Control grid of `n × n` nodes covering exactly the domain of `field_grid`.
fn control_grid(field_grid: Grid2, n: usize) -> Grid2 {
    let n = n.max(2);
    let (ex, ey) = field_grid.extent();
    Grid2::with_origin(
        n,
        n,
        ex / (n - 1) as f64,
        ey / (n - 1) as f64,
        field_grid.origin,
    )
    .expect("control grid dims are positive")
}

/// One axis of [`Grid2::locate`] — the cell index clamped into `[0, n−2]`
/// and the fractional offset within it — plus the upper neighbour
/// `min(i0 + 1, n − 1)` that [`Field2::sample_bilinear`] pairs it with.
/// Same operations in the same order as those two, so a sample assembled
/// from two axis lookups and [`blend`] is bit-identical to theirs.
#[inline]
fn locate_axis(p: f64, origin: f64, h: f64, n: usize) -> (usize, usize, f64) {
    let c = ((p - origin) / h).clamp(0.0, (n - 1) as f64);
    let i0 = (c.floor() as usize).min(n.saturating_sub(2));
    (i0, (i0 + 1).min(n - 1), c - i0 as f64)
}

/// The three lerps of [`Field2::sample_bilinear`] on axis lookups made by
/// [`locate_axis`] against `field`'s grid. Splitting the lookup from the
/// blend lets several fields be sampled at one point, and a whole row or
/// column of points share one axis, without redoing the lookup.
#[inline]
fn blend(
    field: &Field2,
    (ix, ix1, fx): (usize, usize, f64),
    (iy, iy1, fy): (usize, usize, f64),
) -> f64 {
    let v00 = field.get(ix, iy);
    let v10 = field.get(ix1, iy);
    let v01 = field.get(ix, iy1);
    let v11 = field.get(ix1, iy1);
    let v0 = v00 * (1.0 - fx) + v10 * fx;
    let v1 = v01 * (1.0 - fx) + v11 * fx;
    v0 * (1.0 - fy) + v1 * fy
}

/// Data misfit `Σ (u(x) − u0(x + T(x)))² dA` for a constant shift. A
/// constant shift keeps the sample points on a lattice, so the lookup is
/// separable: the x-part once per column (into `cols`), the y-part once per
/// row.
fn shift_misfit(
    u: &Field2,
    u0: &Field2,
    sx: f64,
    sy: f64,
    cols: &mut Vec<(usize, usize, f64)>,
) -> f64 {
    let g = u.grid();
    let g0 = u0.grid();
    cols.clear();
    cols.extend((0..g.nx).map(|ix| locate_axis(g.world(ix, 0).0 + sx, g0.origin.0, g0.dx, g0.nx)));
    let mut s = 0.0;
    for iy in 0..g.ny {
        let row = locate_axis(g.world(0, iy).1 + sy, g0.origin.1, g0.dy, g0.ny);
        for (ix, &col) in cols.iter().enumerate() {
            let d = u.get(ix, iy) - blend(u0, col, row);
            s += d * d;
        }
    }
    s * g.dx * g.dy
}

/// Full objective and its gradient with respect to the control values.
///
/// Returns `J`; the gradient fields `dJ/dTx`, `dJ/dTy` are written into
/// `grad_x`/`grad_y` (re-targeted to the control grid and zeroed first,
/// so warm buffers make the call allocation-free).
#[allow(clippy::too_many_arguments)]
fn objective_and_gradient_into(
    u: &Field2,
    u0: &Field2,
    u0_gx: &Field2,
    u0_gy: &Field2,
    t: &VectorField2,
    c_t: f64,
    c_grad: f64,
    grad_x: &mut Field2,
    grad_y: &mut Field2,
) -> f64 {
    let g = u.grid();
    let g0 = u0.grid();
    let cg = t.grid();
    let mut j_data = 0.0;
    grad_x.resize_zeroed(cg);
    grad_y.resize_zeroed(cg);
    let cell_area = g.dx * g.dy;

    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let (x, y) = g.world(ix, iy);
            // Bilinear control weights of this field node.
            let (ci, cj, fx, fy) = cg.locate(x, y);
            let w00 = (1.0 - fx) * (1.0 - fy);
            let w10 = fx * (1.0 - fy);
            let w01 = (1.0 - fx) * fy;
            let w11 = fx * fy;
            let ci1 = (ci + 1).min(cg.nx - 1);
            let cj1 = (cj + 1).min(cg.ny - 1);
            let tx = w00 * t.u.get(ci, cj)
                + w10 * t.u.get(ci1, cj)
                + w01 * t.u.get(ci, cj1)
                + w11 * t.u.get(ci1, cj1);
            let ty = w00 * t.v.get(ci, cj)
                + w10 * t.v.get(ci1, cj)
                + w01 * t.v.get(ci, cj1)
                + w11 * t.v.get(ci1, cj1);
            // `u0` and its two gradient fields live on one grid and are
            // sampled at the same warped point: one lookup serves all three.
            let col = locate_axis(x + tx, g0.origin.0, g0.dx, g0.nx);
            let row = locate_axis(y + ty, g0.origin.1, g0.dy, g0.ny);
            let e = blend(u0, col, row) - u.get(ix, iy);
            j_data += e * e;
            // Chain rule: dJ/dtx at this node = 2·e·∂u0/∂x(warped); scatter
            // to control nodes with the bilinear weights.
            let gx = blend(u0_gx, col, row);
            let gy = blend(u0_gy, col, row);
            let cx = 2.0 * e * gx * cell_area;
            let cy = 2.0 * e * gy * cell_area;
            for &(i, j, w) in &[
                (ci, cj, w00),
                (ci1, cj, w10),
                (ci, cj1, w01),
                (ci1, cj1, w11),
            ] {
                grad_x.set(i, j, grad_x.get(i, j) + w * cx);
                grad_y.set(i, j, grad_y.get(i, j) + w * cy);
            }
        }
    }
    j_data *= cell_area;

    // Regularizers on the control grid.
    let ctrl_area = cg.dx * cg.dy;
    let mut j_reg = 0.0;
    for jy in 0..cg.ny {
        for jx in 0..cg.nx {
            let tu = t.u.get(jx, jy);
            let tv = t.v.get(jx, jy);
            j_reg += c_t * (tu * tu + tv * tv) * ctrl_area;
            grad_x.set(jx, jy, grad_x.get(jx, jy) + 2.0 * c_t * tu * ctrl_area);
            grad_y.set(jx, jy, grad_y.get(jx, jy) + 2.0 * c_t * tv * ctrl_area);
        }
    }
    // ‖∇T‖² over control edges (forward differences).
    for jy in 0..cg.ny {
        for jx in 0..cg.nx {
            if jx + 1 < cg.nx {
                for comp in 0..2 {
                    let f = if comp == 0 { &t.u } else { &t.v };
                    let d = (f.get(jx + 1, jy) - f.get(jx, jy)) / cg.dx;
                    j_reg += c_grad * d * d * ctrl_area;
                    let gcoef = 2.0 * c_grad * d / cg.dx * ctrl_area;
                    let gf: &mut Field2 = if comp == 0 { grad_x } else { grad_y };
                    gf.set(jx + 1, jy, gf.get(jx + 1, jy) + gcoef);
                    gf.set(jx, jy, gf.get(jx, jy) - gcoef);
                }
            }
            if jy + 1 < cg.ny {
                for comp in 0..2 {
                    let f = if comp == 0 { &t.u } else { &t.v };
                    let d = (f.get(jx, jy + 1) - f.get(jx, jy)) / cg.dy;
                    j_reg += c_grad * d * d * ctrl_area;
                    let gcoef = 2.0 * c_grad * d / cg.dy * ctrl_area;
                    let gf: &mut Field2 = if comp == 0 { grad_x } else { grad_y };
                    gf.set(jx, jy + 1, gf.get(jx, jy + 1) + gcoef);
                    gf.set(jx, jy, gf.get(jx, jy) - gcoef);
                }
            }
        }
    }

    j_data + j_reg
}

/// Central-difference gradient fields of `u0` (for the chain rule),
/// written into warm buffers (every node is set, so no zeroing).
fn gradient_fields_into(u0: &Field2, gx: &mut Field2, gy: &mut Field2) {
    let g = u0.grid();
    gx.resize_no_zero(g);
    gy.resize_no_zero(g);
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let (dx, dy) = u0.gradient(ix, iy);
            gx.set(ix, iy, dx);
            gy.set(ix, iy, dy);
        }
    }
}

/// Registers `u` against the reference `u0`: returns `T` with
/// `u ≈ u0∘(I + T)`.
///
/// Both fields must live on the same grid. See the module docs for the
/// algorithm (translation scan → multilevel gradient descent with Armijo
/// backtracking).
///
/// # Errors
/// [`crate::EnkfError::Grid`] when the grids differ.
pub fn register(u: &Field2, u0: &Field2, cfg: &RegistrationConfig) -> Result<DisplacementField> {
    register_ws(u, u0, cfg, &mut RegistrationWorkspace::new())
}

/// Workspace-backed [`register`]: gradient fields and per-level descent
/// scratch come from `ws` and are reused across calls. Bit-identical to
/// the allocating wrapper; only the returned displacement is allocated.
///
/// # Errors
/// [`crate::EnkfError::Grid`] when the grids differ.
pub fn register_ws(
    u: &Field2,
    u0: &Field2,
    cfg: &RegistrationConfig,
    ws: &mut RegistrationWorkspace,
) -> Result<DisplacementField> {
    let mut out = DisplacementField::zero(u.grid(), 2);
    register_into(u, u0, cfg, ws, &mut out)?;
    Ok(out)
}

/// Fully preallocated [`register`]: the result overwrites `out` (re-sized
/// to the finest control grid) and all scratch comes from `ws`, so warm
/// buffers make the whole registration heap-allocation-free — the
/// acceptance bar for the morphing analysis' registration phase.
///
/// # Errors
/// [`crate::EnkfError::Grid`] when the grids differ.
pub fn register_into(
    u: &Field2,
    u0: &Field2,
    cfg: &RegistrationConfig,
    ws: &mut RegistrationWorkspace,
    out: &mut DisplacementField,
) -> Result<()> {
    if u.grid() != u0.grid() {
        return Err(crate::EnkfError::Grid(
            wildfire_grid::GridError::GridMismatch("registration fields"),
        ));
    }
    let fg = u.grid();

    let RegistrationWorkspace {
        u0_gx,
        u0_gy,
        shift_cols,
        levels,
    } = ws;

    // Phase 1: global translation scan (coarse lattice, then refined).
    let mut best = (0.0_f64, 0.0_f64, shift_misfit(u, u0, 0.0, 0.0, shift_cols));
    let samples = cfg.shift_samples.max(3) | 1; // force odd
    let mut radius = cfg.max_shift;
    let mut center = (0.0_f64, 0.0_f64);
    for _round in 0..3 {
        if radius <= 0.0 {
            break;
        }
        for sy in 0..samples {
            for sx in 0..samples {
                let ox = center.0 - radius + 2.0 * radius * sx as f64 / (samples - 1) as f64;
                let oy = center.1 - radius + 2.0 * radius * sy as f64 / (samples - 1) as f64;
                let j = shift_misfit(u, u0, ox, oy, shift_cols);
                if j < best.2 {
                    best = (ox, oy, j);
                }
            }
        }
        center = (best.0, best.1);
        radius *= 2.0 / (samples - 1) as f64; // refine around the winner
    }

    // Phase 2: multilevel control-grid descent on the scratch pyramid.
    gradient_fields_into(u0, u0_gx, u0_gy);
    if levels.len() < cfg.levels.len() {
        levels.resize_with(cfg.levels.len(), LevelScratch::default);
    }
    let mut last: Option<usize> = None;
    for (li, &nctrl) in cfg.levels.iter().enumerate() {
        let cg = control_grid(fg, nctrl);
        // Split so the previous level's result stays readable while this
        // level's scratch is mutated.
        let (done, rest) = levels.split_at_mut(li);
        let lvl = &mut rest[0];
        lvl.t.resize_no_zero(cg);
        match last {
            None => lvl.t.fill((best.0, best.1)),
            Some(p) => {
                let prev = &done[p].t;
                for iy in 0..cg.ny {
                    for ix in 0..cg.nx {
                        let (x, y) = cg.world(ix, iy);
                        lvl.t.set(ix, iy, prev.sample_bilinear(x, y));
                    }
                }
            }
        }
        let mut step = cfg.initial_step;
        let mut j_cur = objective_and_gradient_into(
            u,
            u0,
            u0_gx,
            u0_gy,
            &lvl.t,
            cfg.c_t,
            cfg.c_grad,
            &mut lvl.gx,
            &mut lvl.gy,
        );
        for _ in 0..cfg.iterations {
            // Normalize the step by the gradient's max magnitude so `step`
            // is in meters of control displacement.
            let gmax = lvl
                .gx
                .as_slice()
                .iter()
                .chain(lvl.gy.as_slice().iter())
                .fold(0.0_f64, |m, &v| m.max(v.abs()));
            if gmax < 1e-30 {
                break;
            }
            let scale = step / gmax;
            let mut accepted = false;
            // Trust region: no control displacement may exceed 1.5× the
            // translation-scan radius. Without this, control nodes whose
            // bilinear support sees only far-field data can run away and
            // fold the mapping (observed with fire cones near the domain
            // corners), which empties the reconstructed fire.
            let bound = 1.5 * cfg.max_shift.max(1.0);
            for _ in 0..20 {
                lvl.t_try.u.copy_from(&lvl.t.u);
                lvl.t_try.v.copy_from(&lvl.t.v);
                lvl.t_try.u.axpy(-scale, &lvl.gx).expect("same grid");
                // The x/y gradients apply to their own components.
                lvl.t_try.v.axpy(-scale, &lvl.gy).expect("same grid");
                lvl.t_try.u.map_inplace(|v| v.clamp(-bound, bound));
                lvl.t_try.v.map_inplace(|v| v.clamp(-bound, bound));
                let j_try = objective_and_gradient_into(
                    u,
                    u0,
                    u0_gx,
                    u0_gy,
                    &lvl.t_try,
                    cfg.c_t,
                    cfg.c_grad,
                    &mut lvl.gx_try,
                    &mut lvl.gy_try,
                );
                if j_try < j_cur {
                    std::mem::swap(&mut lvl.t, &mut lvl.t_try);
                    j_cur = j_try;
                    std::mem::swap(&mut lvl.gx, &mut lvl.gx_try);
                    std::mem::swap(&mut lvl.gy, &mut lvl.gy_try);
                    step *= 1.5;
                    accepted = true;
                    break;
                }
                step *= 0.5;
                if step < 1e-9 {
                    break;
                }
            }
            if !accepted {
                break;
            }
        }
        last = Some(li);
    }

    match last {
        Some(li) => {
            let t = &levels[li].t;
            out.control.u.copy_from(&t.u);
            out.control.v.copy_from(&t.v);
        }
        // No descent levels: the scan's translation is the registration.
        None => {
            out.control.resize_no_zero(control_grid(fg, 2));
            out.control.fill((best.0, best.1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Coordinates inside, exactly on the edges of, and far outside a grid
    /// axis of `n` nodes starting at `origin` with spacing `h`.
    fn axis_point(kind: usize, frac: f64, origin: f64, h: f64, n: usize) -> f64 {
        let extent = (n - 1) as f64 * h;
        match kind {
            0 => origin + frac * extent,
            1 => origin,
            2 => origin + extent,
            3 => origin - (1.0 + 1e3 * frac) * h,
            _ => origin + extent + (1.0 + 1e3 * frac) * h,
        }
    }

    proptest! {
        /// `locate_axis` is each half of `Grid2::locate` and `blend` on two
        /// of them is `Field2::sample_bilinear`, bit for bit — including
        /// one-node axes, edge points and points far outside the grid.
        #[test]
        fn axis_lookups_and_blend_match_grid_sampling_bitwise(
            nx in prop::sample::select(vec![1usize, 2, 3, 36]),
            ny in prop::sample::select(vec![1usize, 2, 3, 36]),
            (dx, dy) in (0.1f64..7.0, 0.1f64..7.0),
            (ox, oy) in (-50.0f64..50.0, -50.0f64..50.0),
            (kx, ky) in (0usize..5, 0usize..5),
            (px, py) in (0.0f64..1.0, 0.0f64..1.0),
            seed in 0u64..1000,
        ) {
            let g = Grid2::with_origin(nx, ny, dx, dy, (ox, oy)).unwrap();
            let x = axis_point(kx, px, ox, dx, nx);
            let y = axis_point(ky, py, oy, dy, ny);
            let col = locate_axis(x, g.origin.0, g.dx, g.nx);
            let row = locate_axis(y, g.origin.1, g.dy, g.ny);
            let (ix, iy, fx, fy) = g.locate(x, y);
            prop_assert_eq!((col.0, col.2.to_bits()), (ix, fx.to_bits()));
            prop_assert_eq!((row.0, row.2.to_bits()), (iy, fy.to_bits()));
            let mut rng = wildfire_math::GaussianSampler::new(seed);
            let field = Field2::from_fn(g, |_, _| rng.normal(0.0, 10.0));
            prop_assert_eq!(
                blend(&field, col, row).to_bits(),
                field.sample_bilinear(x, y).to_bits()
            );
        }

        /// The separable translation scan equals the plain double loop over
        /// `sample_bilinear` bit for bit, for shifts that push part (or all)
        /// of the field out of the domain.
        #[test]
        fn shift_misfit_matches_naive_double_loop_bitwise(
            (nx, ny) in (1usize..20, 1usize..20),
            (sx, sy) in (-30.0f64..30.0, -30.0f64..30.0),
            seed in 0u64..1000,
        ) {
            let g = Grid2::with_origin(nx, ny, 1.5, 0.75, (-3.0, 4.0)).unwrap();
            let mut rng = wildfire_math::GaussianSampler::new(seed);
            let u = Field2::from_fn(g, |_, _| rng.normal(0.0, 1.0));
            let u0 = Field2::from_fn(g, |_, _| rng.normal(0.0, 1.0));
            let mut naive = 0.0;
            for iy in 0..g.ny {
                for ix in 0..g.nx {
                    let (x, y) = g.world(ix, iy);
                    let d = u.get(ix, iy) - u0.sample_bilinear(x + sx, y + sy);
                    naive += d * d;
                }
            }
            let naive = naive * g.dx * g.dy;
            // A stale, wrongly sized column scratch must not matter.
            let mut cols = vec![(7, 8, 0.5); 3];
            prop_assert_eq!(shift_misfit(&u, &u0, sx, sy, &mut cols).to_bits(), naive.to_bits());
        }
    }

    /// A smooth bump field centered at `(cx, cy)`.
    fn bump(grid: Grid2, cx: f64, cy: f64) -> Field2 {
        Field2::from_world_fn(grid, |x, y| {
            let d2 = (x - cx).powi(2) + (y - cy).powi(2);
            (-d2 / 200.0).exp()
        })
    }

    fn test_grid() -> Grid2 {
        Grid2::new(41, 41, 1.0, 1.0).unwrap()
    }

    #[test]
    fn identity_registration_stays_near_zero() {
        let g = test_grid();
        let u0 = bump(g, 20.0, 20.0);
        let t = register(
            &u0.clone(),
            &u0,
            &RegistrationConfig {
                max_shift: 10.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(t.max_magnitude() < 1.0, "magnitude {}", t.max_magnitude());
    }

    #[test]
    fn recovers_known_translation() {
        let g = test_grid();
        // u(x) = u0(x + s): the fire in u appears at c − s relative to u0.
        let shift = (6.0, -4.0);
        let u0 = bump(g, 20.0, 20.0);
        let u = bump(g, 20.0 - shift.0, 20.0 - shift.1);
        let cfg = RegistrationConfig {
            max_shift: 12.0,
            shift_samples: 13,
            ..Default::default()
        };
        let t = register(&u, &u0, &cfg).unwrap();
        // Check at the bump location.
        let (tx, ty) = t.sample(14.0, 24.0);
        assert!((tx - shift.0).abs() < 1.5, "tx {tx} vs {}", shift.0);
        assert!((ty - shift.1).abs() < 1.5, "ty {ty} vs {}", shift.1);
        // And that the registered misfit is small: u ≈ u0∘(I+T).
        let mut misfit = 0.0;
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let (x, y) = g.world(ix, iy);
                let (px, py) = t.displace(x, y);
                misfit += (u.get(ix, iy) - u0.sample_bilinear(px, py)).powi(2);
            }
        }
        let raw: f64 = u
            .as_slice()
            .iter()
            .zip(u0.as_slice().iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(misfit < 0.05 * raw, "misfit {misfit} vs raw {raw}");
    }

    #[test]
    fn scan_translation_survives_without_descent_levels() {
        let g = Grid2::new(61, 61, 2.0, 2.0).unwrap();
        let cone = |cx: f64| {
            Field2::from_world_fn(g, |x, y| {
                ((x - cx).powi(2) + (y - 60.0).powi(2)).sqrt() - 15.0
            })
        };
        let cfg = RegistrationConfig {
            max_shift: 80.0,
            levels: vec![],
            ..Default::default()
        };
        let t = register(&cone(80.0), &cone(60.0), &cfg).unwrap();
        let (tx, ty) = t.sample(80.0, 60.0);
        let recovered = (tx * tx + ty * ty).sqrt();
        assert!(
            (recovered - 20.0).abs() <= 0.1 * 20.0 + 0.5,
            "recovered {recovered} m of 20 m"
        );
    }

    #[test]
    fn recovers_nonuniform_deformation_partially() {
        let g = test_grid();
        let u0 = bump(g, 20.0, 20.0);
        // Spatially varying warp: stretch in x.
        let u = Field2::from_world_fn(g, |x, y| {
            let xs = 20.0 + (x - 20.0) * 1.2;
            let d2 = (xs - 20.0_f64).powi(2) + (y - 20.0_f64).powi(2);
            (-d2 / 200.0).exp()
        });
        let cfg = RegistrationConfig {
            max_shift: 8.0,
            levels: vec![3, 5, 9],
            iterations: 60,
            ..Default::default()
        };
        let t = register(&u, &u0, &cfg).unwrap();
        let mut misfit = 0.0;
        let mut raw = 0.0;
        for iy in 0..g.ny {
            for ix in 0..g.nx {
                let (x, y) = g.world(ix, iy);
                let (px, py) = t.displace(x, y);
                misfit += (u.get(ix, iy) - u0.sample_bilinear(px, py)).powi(2);
                raw += (u.get(ix, iy) - u0.get(ix, iy)).powi(2);
            }
        }
        assert!(misfit < 0.5 * raw, "misfit {misfit} vs raw {raw}");
    }

    #[test]
    fn displacement_inverse_roundtrip() {
        let g = test_grid();
        let mut d = DisplacementField::zero(g, 4);
        for iy in 0..4 {
            for ix in 0..4 {
                d.control
                    .set(ix, iy, (1.5 * (ix as f64 - 1.5), -(iy as f64)));
            }
        }
        let (px, py) = d.displace(17.0, 23.0);
        let (qx, qy) = d.inverse_displace(px, py);
        assert!((qx - 17.0).abs() < 1e-6);
        assert!((qy - 23.0).abs() < 1e-6);
    }

    #[test]
    fn to_grid_matches_sample() {
        let g = test_grid();
        let mut d = DisplacementField::zero(g, 3);
        d.control.set(1, 1, (3.0, -2.0));
        let full = d.to_grid(g);
        for &(x, y) in &[(5.0, 5.0), (20.0, 20.0), (33.3, 11.1)] {
            let (sx, sy) = d.sample(x, y);
            let (fx, fy) = full.sample_bilinear(x, y);
            assert!((sx - fx).abs() < 1e-9);
            assert!((sy - fy).abs() < 1e-9);
        }
    }

    #[test]
    fn workspace_registration_matches_allocating_registration_bitwise() {
        // The scratch-pyramid path must be bit-identical to the allocating
        // one, including when a warm (stale-valued) workspace is reused
        // across different inputs and different level configurations.
        let g = test_grid();
        let u0 = bump(g, 20.0, 20.0);
        let cases = [
            (bump(g, 14.0, 24.0), vec![3, 5]),
            (bump(g, 26.0, 18.0), vec![3, 5, 9]),
            (bump(g, 20.0, 20.0), vec![5]),
        ];
        let mut ws = RegistrationWorkspace::new();
        let mut out = DisplacementField::zero(g, 2);
        for (u, levels) in cases {
            let cfg = RegistrationConfig {
                max_shift: 12.0,
                levels,
                ..Default::default()
            };
            let fresh = register(&u, &u0, &cfg).unwrap();
            let warm = register_ws(&u, &u0, &cfg, &mut ws).unwrap();
            assert_eq!(fresh, warm, "register_ws must be bit-identical");
            register_into(&u, &u0, &cfg, &mut ws, &mut out).unwrap();
            assert_eq!(fresh, out, "register_into must be bit-identical");
        }
    }

    #[test]
    fn rejects_mismatched_grids() {
        let g1 = test_grid();
        let g2 = Grid2::new(21, 21, 1.0, 1.0).unwrap();
        let a = Field2::zeros(g1);
        let b = Field2::zeros(g2);
        assert!(register(&a, &b, &RegistrationConfig::default()).is_err());
    }
}
