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
//!
//! # Cost and the bitwise contract
//!
//! A registration is a translation scan of full-field misfits followed by
//! a few dozen objective evaluations per level, each a sweep over every
//! field node. The sweeps are written so that every floating-
//! point operation of the plain per-node formulation happens with the same
//! operands in the same order — the result is bit-identical to sampling
//! through [`Grid2::locate`] and [`Field2::sample_bilinear`] node by node:
//!
//! * **Per-level lookup tables.** A field node's control-grid cell and
//!   weights do not change within a level, so each level computes them once,
//!   as `(ci, fx)` per field column and `(cj, fy)` per field row, with the
//!   expressions of [`Grid2::locate`].
//! * **Gradient scattered from registers.** While a row stays in one
//!   control cell, the cell's four corners × two components of gradient are
//!   running sums in locals, loaded from the gradient fields when the row
//!   enters the cell and stored when it leaves it: every corner receives the
//!   same additions in the same order as a per-node read-modify-write.
//! * **One lookup, three samples.** `u0` and `∂u0/∂x,y` share a grid, so one
//!   bilinear stencil (four flat indices, two offsets) serves all three.
//! * **Truncation for `floor`.** The lookups clamp the grid coordinate into
//!   `[0, n−1]` first (or it is NaN); there, `c as usize` equals
//!   `c.floor() as usize`, and the cast is not a libm call on targets
//!   without SSE4.1.
//! * **Bounded translation scan.** A scan candidate stops once its running
//!   misfit reaches the best one so far. For a grid with positive spacings
//!   the partial sums of squares never decrease under round-to-nearest, so
//!   a stopped candidate could not have won, and the winner — which never
//!   stops — keeps its exact value.
//! * **Gradients only where a step is accepted.** Every level ends in a
//!   failed line search, so most trial points are rejected. A trial point's
//!   objective is evaluated without the gradient and, by the same
//!   monotonicity, stops at the first row where `J` so far — the partial
//!   misfit plus the regularizers — reaches the current `J`. The gradient
//!   is evaluated only at an accepted point, where it is the one the full
//!   evaluation would have produced.
//!
//! Input holding a NaN or an infinity is refused up front
//! ([`crate::EnkfError::NonFiniteField`]): no misfit of it compares below
//! another, so the scan would return the zero shift as if it had won.

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

impl RegistrationConfig {
    /// The control grid of the displacement a registration of fields on
    /// `field_grid` returns: the finest level's, or `2 × 2` without
    /// descent levels.
    pub fn output_grid(&self, field_grid: Grid2) -> Grid2 {
        control_grid(field_grid, self.levels.last().copied().unwrap_or(2))
    }
}

/// A displacement mapping `T`, stored on its control grid and interpolated
/// bilinearly — the `T` of the extended state `[r, T]`.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Displacement at a world point (bilinear in the control values; one
    /// lookup serves both components).
    #[inline]
    pub fn sample(&self, x: f64, y: f64) -> (f64, f64) {
        let st = Stencil::at(self.control.grid(), x, y);
        (
            st.apply(self.control.u.as_slice()),
            st.apply(self.control.v.as_slice()),
        )
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
/// displacement, gradient pair and lookup tables live in their own
/// preallocated slot, so multilevel descent re-runs without touching the
/// heap). Sized on first use, reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct RegistrationWorkspace {
    /// `∂u0/∂x` on the field grid (chain-rule term of the data gradient).
    u0_gx: Field2,
    /// `∂u0/∂y` on the field grid.
    u0_gy: Field2,
    /// Per-column x-lookups of the translation scan (one entry per field
    /// column, refilled for every candidate shift).
    shift_cols: Vec<Axis>,
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
    /// Backtracking trial displacement (its objective is evaluated without
    /// a gradient, which is taken only at accepted points).
    t_try: VectorField2,
    /// Gradient of the objective at `t`.
    gx: Field2,
    /// y-component gradient at `t`.
    gy: Field2,
    /// Control-grid x-lookup of every field column (the `(ci, fx)` table).
    cols: Vec<Axis>,
    /// Control-grid y-lookup of every field row (the `(cj, fy)` table).
    rows: Vec<Axis>,
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

/// One axis lookup: the cell index, its upper neighbour and the offset.
type Axis = (usize, usize, f64);

/// One axis of [`Grid2::locate`] — the cell index clamped into `[0, n−2]`
/// and the fractional offset within it — plus the upper neighbour
/// `min(i0 + 1, n − 1)` that [`Field2::sample_bilinear`] pairs it with.
/// Same operations in the same order as those two, so a sample assembled
/// from two axis lookups and [`blend`] is bit-identical to theirs.
#[inline]
fn locate_axis(p: f64, origin: f64, h: f64, n: usize) -> Axis {
    let c = ((p - origin) / h).clamp(0.0, (n - 1) as f64);
    // `c` is in [0, n−1] or NaN: truncation is `floor` there.
    let i0 = (c as usize).min(n.saturating_sub(2));
    (i0, (i0 + 1).min(n - 1), c - i0 as f64)
}

/// A bilinear stencil on one grid: the four flat node indices and the two
/// offsets. Built once per sample point, it serves every field on that
/// grid with the three lerps of [`Field2::sample_bilinear`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stencil {
    i00: usize,
    i10: usize,
    i01: usize,
    i11: usize,
    fx: f64,
    fy: f64,
}

impl Stencil {
    /// The stencil of two axis lookups on a grid with `nx` columns.
    #[inline]
    fn new(nx: usize, (ix, ix1, fx): Axis, (iy, iy1, fy): Axis) -> Self {
        let (r0, r1) = (iy * nx, iy1 * nx);
        Stencil {
            i00: r0 + ix,
            i10: r0 + ix1,
            i01: r1 + ix,
            i11: r1 + ix1,
            fx,
            fy,
        }
    }

    /// The stencil of the world point `(x, y)` on `g`.
    #[inline]
    pub(crate) fn at(g: Grid2, x: f64, y: f64) -> Self {
        Stencil::new(
            g.nx,
            locate_axis(x, g.origin.0, g.dx, g.nx),
            locate_axis(y, g.origin.1, g.dy, g.ny),
        )
    }

    /// The bilinear sample of the row-major field values `data`.
    #[inline]
    pub(crate) fn apply(&self, data: &[f64]) -> f64 {
        self.eval(|i| data[i])
    }

    /// The bilinear sample of the node values `value(i)` (flat index `i`).
    #[inline]
    pub(crate) fn eval(&self, value: impl Fn(usize) -> f64) -> f64 {
        let (fx, fy) = (self.fx, self.fy);
        let v0 = value(self.i00) * (1.0 - fx) + value(self.i10) * fx;
        let v1 = value(self.i01) * (1.0 - fx) + value(self.i11) * fx;
        v0 * (1.0 - fy) + v1 * fy
    }
}

/// The three lerps of [`Field2::sample_bilinear`] on axis lookups made by
/// [`locate_axis`] against `field`'s grid.
#[inline]
fn blend(field: &Field2, col: Axis, row: Axis) -> f64 {
    Stencil::new(field.grid().nx, col, row).apply(field.as_slice())
}

/// Data misfit `Σ (u(x) − u0(x + T(x)))² dA` for a constant shift. A
/// constant shift keeps the sample points on a lattice, so the lookup is
/// separable: the x-part once per column (into `cols`), the y-part once per
/// row.
///
/// The sum stops after the first row at which it reaches `bound`, and the
/// partial value (≥ `bound`) is returned: with positive grid spacings the
/// partial sums never decrease, so the full misfit would not be below
/// `bound` either. Below `bound` the full misfit is returned exactly.
fn shift_misfit(
    u: &Field2,
    u0: &Field2,
    sx: f64,
    sy: f64,
    cols: &mut Vec<Axis>,
    bound: f64,
) -> f64 {
    let g = u.grid();
    let g0 = u0.grid();
    cols.clear();
    cols.extend((0..g.nx).map(|ix| locate_axis(g.world(ix, 0).0 + sx, g0.origin.0, g0.dx, g0.nx)));
    let mut s = 0.0;
    for iy in 0..g.ny {
        let row = locate_axis(g.world(0, iy).1 + sy, g0.origin.1, g0.dy, g0.ny);
        for (&v, &col) in u.row(iy).iter().zip(cols.iter()) {
            let d = v - blend(u0, col, row);
            s += d * d;
        }
        if s * g.dx * g.dy >= bound {
            break;
        }
    }
    s * g.dx * g.dy
}

/// What one level's objective evaluations share: the fields, the
/// reference gradient fields, the level's control-grid lookups of the
/// field columns and rows, and the regularizer weights.
struct Problem<'a> {
    u: &'a Field2,
    u0: &'a Field2,
    u0_gx: &'a Field2,
    u0_gy: &'a Field2,
    cols: &'a [Axis],
    rows: &'a [Axis],
    c_t: f64,
    c_grad: f64,
}

/// The objective `J` at the control displacement `t` and, when `grad` is
/// given, its gradient `dJ/dTx`, `dJ/dTy` (written into the two fields,
/// re-targeted to the control grid and zeroed first, so warm buffers make
/// the call allocation-free).
///
/// Without a gradient the data sweep stops after the first row at which
/// `J` so far — the partial misfit plus the regularizers — reaches `bound`,
/// and returns that value (≥ `bound`): the partial misfit never decreases
/// (see the module docs), so the full `J` would not be below `bound`
/// either. Below `bound`, and always with a gradient, `J` is exact, and the
/// same value with and without one.
fn objective(
    p: &Problem<'_>,
    t: &VectorField2,
    bound: f64,
    grad: Option<(&mut Field2, &mut Field2)>,
) -> f64 {
    let (u, g0, cg) = (p.u, p.u0.grid(), t.grid());
    let g = u.grid();
    let cell_area = g.dx * g.dy;
    let (tu, tv) = (t.u.as_slice(), t.v.as_slice());
    let (d0, dgx, dgy) = (p.u0.as_slice(), p.u0_gx.as_slice(), p.u0_gy.as_slice());
    let j_reg = regularizers(t, p.c_t, p.c_grad, None);
    let mut grad = grad.map(|(gx, gy)| {
        gx.resize_zeroed(cg);
        gy.resize_zeroed(cg);
        (gx, gy)
    });
    let mut j_data = 0.0;

    for (iy, &(cj, cj1, fy)) in p.rows.iter().enumerate() {
        let y = g.world(0, iy).1;
        let (r0, r1) = (cj * cg.nx, cj1 * cg.nx);
        // The control cell the row is in (its corners 00, 10, 01, 11 as
        // flat indices) and that cell's gradient sums, x and y component.
        let mut corners: Option<[usize; 4]> = None;
        let (mut sx, mut sy) = ([0.0_f64; 4], [0.0_f64; 4]);
        for ((ix, &(ci, ci1, fx)), &uv) in p.cols.iter().enumerate().zip(u.row(iy)) {
            let x = g.world(ix, 0).0;
            // Bilinear control weights of this field node.
            let w = [
                (1.0 - fx) * (1.0 - fy),
                fx * (1.0 - fy),
                (1.0 - fx) * fy,
                fx * fy,
            ];
            let k = [r0 + ci, r0 + ci1, r1 + ci, r1 + ci1];
            let tx = w[0] * tu[k[0]] + w[1] * tu[k[1]] + w[2] * tu[k[2]] + w[3] * tu[k[3]];
            let ty = w[0] * tv[k[0]] + w[1] * tv[k[1]] + w[2] * tv[k[2]] + w[3] * tv[k[3]];
            // `u0` and its two gradient fields live on one grid and are
            // sampled at the same warped point: one stencil serves all three.
            let st = Stencil::at(g0, x + tx, y + ty);
            let e = st.apply(d0) - uv;
            j_data += e * e;
            let Some((gx, gy)) = grad.as_mut() else {
                continue;
            };
            if corners != Some(k) {
                if let Some(kc) = corners {
                    store_corners(gx, gy, kc, &sx, &sy);
                }
                for c in 0..4 {
                    sx[c] = gx.as_slice()[k[c]];
                    sy[c] = gy.as_slice()[k[c]];
                }
                corners = Some(k);
            }
            // Chain rule: dJ/dtx at this node = 2·e·∂u0/∂x(warped); scatter
            // to control nodes with the bilinear weights.
            let cx = 2.0 * e * st.apply(dgx) * cell_area;
            let cy = 2.0 * e * st.apply(dgy) * cell_area;
            for c in 0..4 {
                sx[c] += w[c] * cx;
                sy[c] += w[c] * cy;
            }
        }
        match (grad.as_mut(), corners) {
            (Some((gx, gy)), Some(kc)) => store_corners(gx, gy, kc, &sx, &sy),
            (None, _) if j_data * cell_area + j_reg >= bound => return j_data * cell_area + j_reg,
            _ => {}
        }
    }
    j_data *= cell_area;
    // The regularizers' gradient goes in after the data term's, the order
    // the gradient's bits depend on (their value is `j_reg` again).
    if let Some((gx, gy)) = grad {
        regularizers(t, p.c_t, p.c_grad, Some((gx, gy)));
    }
    j_data + j_reg
}

/// Stores a control cell's running gradient sums into its four corners.
fn store_corners(gx: &mut Field2, gy: &mut Field2, k: [usize; 4], sx: &[f64; 4], sy: &[f64; 4]) {
    for c in 0..4 {
        gx.as_mut_slice()[k[c]] = sx[c];
        gy.as_mut_slice()[k[c]] = sy[c];
    }
}

/// The regularizers `c₁‖T‖² + c₂‖∇T‖²` on the control grid; with `grad`,
/// their gradient is added to the two fields.
fn regularizers(
    t: &VectorField2,
    c_t: f64,
    c_grad: f64,
    mut grad: Option<(&mut Field2, &mut Field2)>,
) -> f64 {
    let cg = t.grid();
    let ctrl_area = cg.dx * cg.dy;
    let mut j_reg = 0.0;
    for jy in 0..cg.ny {
        for jx in 0..cg.nx {
            let tu = t.u.get(jx, jy);
            let tv = t.v.get(jx, jy);
            j_reg += c_t * (tu * tu + tv * tv) * ctrl_area;
            if let Some((gx, gy)) = grad.as_mut() {
                gx.set(jx, jy, gx.get(jx, jy) + 2.0 * c_t * tu * ctrl_area);
                gy.set(jx, jy, gy.get(jx, jy) + 2.0 * c_t * tv * ctrl_area);
            }
        }
    }
    // ‖∇T‖² over control edges (forward differences).
    for jy in 0..cg.ny {
        for jx in 0..cg.nx {
            let edges = [
                (jx + 1 < cg.nx, jx + 1, jy, cg.dx),
                (jy + 1 < cg.ny, jx, jy + 1, cg.dy),
            ];
            for (inside, nx, ny, h) in edges {
                if !inside {
                    continue;
                }
                for comp in 0..2 {
                    let f = if comp == 0 { &t.u } else { &t.v };
                    let d = (f.get(nx, ny) - f.get(jx, jy)) / h;
                    j_reg += c_grad * d * d * ctrl_area;
                    if let Some((gx, gy)) = grad.as_mut() {
                        let gcoef = 2.0 * c_grad * d / h * ctrl_area;
                        let gf: &mut Field2 = if comp == 0 { gx } else { gy };
                        gf.set(nx, ny, gf.get(nx, ny) + gcoef);
                        gf.set(jx, jy, gf.get(jx, jy) - gcoef);
                    }
                }
            }
        }
    }
    j_reg
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
/// As [`register_into`].
pub fn register(u: &Field2, u0: &Field2, cfg: &RegistrationConfig) -> Result<DisplacementField> {
    register_ws(u, u0, cfg, &mut RegistrationWorkspace::new())
}

/// Workspace-backed [`register`]: gradient fields and per-level descent
/// scratch come from `ws` and are reused across calls. Bit-identical to
/// the allocating wrapper; only the returned displacement is allocated.
///
/// # Errors
/// As [`register_into`].
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
/// [`crate::EnkfError::Grid`] when the grids differ;
/// [`crate::EnkfError::NonFiniteField`] when either field holds a NaN or an
/// infinity.
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
    if !u.all_finite() {
        return Err(crate::EnkfError::NonFiniteField {
            what: "registered field",
        });
    }
    if !u0.all_finite() {
        return Err(crate::EnkfError::NonFiniteField {
            what: "registration reference",
        });
    }
    let fg = u.grid();

    let RegistrationWorkspace {
        u0_gx,
        u0_gy,
        shift_cols,
        levels,
    } = ws;

    // Phase 1: global translation scan (coarse lattice, then refined).
    let mut best = (
        0.0_f64,
        0.0_f64,
        shift_misfit(u, u0, 0.0, 0.0, shift_cols, f64::INFINITY),
    );
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
                let j = shift_misfit(u, u0, ox, oy, shift_cols, best.2);
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
        lvl.cols.clear();
        lvl.cols
            .extend((0..fg.nx).map(|ix| locate_axis(fg.world(ix, 0).0, cg.origin.0, cg.dx, cg.nx)));
        lvl.rows.clear();
        lvl.rows
            .extend((0..fg.ny).map(|iy| locate_axis(fg.world(0, iy).1, cg.origin.1, cg.dy, cg.ny)));
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
        let p = Problem {
            u,
            u0,
            u0_gx,
            u0_gy,
            cols: &lvl.cols,
            rows: &lvl.rows,
            c_t: cfg.c_t,
            c_grad: cfg.c_grad,
        };
        let mut step = cfg.initial_step;
        let mut j_cur = objective(&p, &lvl.t, f64::INFINITY, Some((&mut lvl.gx, &mut lvl.gy)));
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
                // Most trials are rejected (every level ends in a failed
                // line search); only an accepted one needs its gradient.
                if objective(&p, &lvl.t_try, j_cur, None) < j_cur {
                    std::mem::swap(&mut lvl.t, &mut lvl.t_try);
                    j_cur = objective(&p, &lvl.t, f64::INFINITY, Some((&mut lvl.gx, &mut lvl.gy)));
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
            prop_assert_eq!(shift_misfit(&u, &u0, sx, sy, &mut cols, f64::INFINITY).to_bits(), naive.to_bits());
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
