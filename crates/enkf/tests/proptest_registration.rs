//! The registration, the residual transform and the morphing analysis equal,
//! bit for bit, a plain per-node formulation of the same algorithm: every
//! sample located through `floor` and the bilinear formula, the full
//! objective and gradient evaluated at every trial point (the gradient
//! scattered node by node into the control fields), an unbounded
//! translation scan, and one inverse map per residual field. The copies
//! below are that formulation, built on the public grid API only.
//!
//! Inputs cover non-square grids with non-zero origins, control sizes
//! 2..=7 in zero to three levels, shifts large enough to push warped points
//! out of the domain, and plateau fields whose scan candidates tie.

use proptest::prelude::*;
use wildfire_enkf::morphing_enkf::ExtendedState;
use wildfire_enkf::{
    register_into, AnalysisWorkspace, DisplacementField, EnsembleKalmanFilter, MorphingConfig,
    MorphingEnkf, MorphingWorkspace, RegistrationConfig, RegistrationWorkspace,
};
use wildfire_grid::{Field2, Grid2, VectorField2};
use wildfire_math::{GaussianSampler, Matrix};

// --- The per-node formulation --------------------------------------------

/// `Grid2::locate` with `floor`.
fn locate(g: Grid2, x: f64, y: f64) -> (usize, usize, f64, f64) {
    let cx = ((x - g.origin.0) / g.dx).clamp(0.0, (g.nx - 1) as f64);
    let cy = ((y - g.origin.1) / g.dy).clamp(0.0, (g.ny - 1) as f64);
    let ix = (cx.floor() as usize).min(g.nx.saturating_sub(2));
    let iy = (cy.floor() as usize).min(g.ny.saturating_sub(2));
    (ix, iy, cx - ix as f64, cy - iy as f64)
}

/// `Field2::sample_bilinear` on [`locate`].
fn sample(f: &Field2, x: f64, y: f64) -> f64 {
    let g = f.grid();
    let (ix, iy, fx, fy) = locate(g, x, y);
    let ix1 = (ix + 1).min(g.nx - 1);
    let iy1 = (iy + 1).min(g.ny - 1);
    let v0 = f.get(ix, iy) * (1.0 - fx) + f.get(ix1, iy) * fx;
    let v1 = f.get(ix, iy1) * (1.0 - fx) + f.get(ix1, iy1) * fx;
    v0 * (1.0 - fy) + v1 * fy
}

fn sample_t(t: &VectorField2, x: f64, y: f64) -> (f64, f64) {
    (sample(&t.u, x, y), sample(&t.v, x, y))
}

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
    .unwrap()
}

fn shift_misfit(u: &Field2, u0: &Field2, sx: f64, sy: f64) -> f64 {
    let g = u.grid();
    let mut s = 0.0;
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let (x, y) = g.world(ix, iy);
            let d = u.get(ix, iy) - sample(u0, x + sx, y + sy);
            s += d * d;
        }
    }
    s * g.dx * g.dy
}

#[allow(clippy::too_many_arguments)]
fn objective_and_gradient(
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
    let cg = t.grid();
    let mut j_data = 0.0;
    *grad_x = Field2::zeros(cg);
    *grad_y = Field2::zeros(cg);
    let cell_area = g.dx * g.dy;
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let (x, y) = g.world(ix, iy);
            let (ci, cj, fx, fy) = locate(cg, x, y);
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
            let e = sample(u0, x + tx, y + ty) - u.get(ix, iy);
            j_data += e * e;
            let cx = 2.0 * e * sample(u0_gx, x + tx, y + ty) * cell_area;
            let cy = 2.0 * e * sample(u0_gy, x + tx, y + ty) * cell_area;
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

fn register(u: &Field2, u0: &Field2, cfg: &RegistrationConfig) -> DisplacementField {
    let fg = u.grid();
    let mut best = (0.0_f64, 0.0_f64, shift_misfit(u, u0, 0.0, 0.0));
    let samples = cfg.shift_samples.max(3) | 1;
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
                let j = shift_misfit(u, u0, ox, oy);
                if j < best.2 {
                    best = (ox, oy, j);
                }
            }
        }
        center = (best.0, best.1);
        radius *= 2.0 / (samples - 1) as f64;
    }
    let u0_gx = Field2::from_fn(fg, |ix, iy| u0.gradient(ix, iy).0);
    let u0_gy = Field2::from_fn(fg, |ix, iy| u0.gradient(ix, iy).1);
    let mut last: Option<VectorField2> = None;
    for &nctrl in &cfg.levels {
        let cg = control_grid(fg, nctrl);
        let mut t = match &last {
            None => VectorField2::from_fn(cg, |_, _| (best.0, best.1)),
            Some(prev) => VectorField2::from_fn(cg, |ix, iy| {
                let (x, y) = cg.world(ix, iy);
                sample_t(prev, x, y)
            }),
        };
        let (mut gx, mut gy) = (Field2::zeros(cg), Field2::zeros(cg));
        let mut step = cfg.initial_step;
        let mut j_cur = objective_and_gradient(
            u, u0, &u0_gx, &u0_gy, &t, cfg.c_t, cfg.c_grad, &mut gx, &mut gy,
        );
        for _ in 0..cfg.iterations {
            let gmax = gx
                .as_slice()
                .iter()
                .chain(gy.as_slice().iter())
                .fold(0.0_f64, |m, &v| m.max(v.abs()));
            if gmax < 1e-30 {
                break;
            }
            let scale = step / gmax;
            let mut accepted = false;
            let bound = 1.5 * cfg.max_shift.max(1.0);
            for _ in 0..20 {
                let mut t_try = t.clone();
                t_try.u.axpy(-scale, &gx).unwrap();
                t_try.v.axpy(-scale, &gy).unwrap();
                t_try.u.map_inplace(|v| v.clamp(-bound, bound));
                t_try.v.map_inplace(|v| v.clamp(-bound, bound));
                let (mut gx_try, mut gy_try) = (Field2::zeros(cg), Field2::zeros(cg));
                let j_try = objective_and_gradient(
                    u,
                    u0,
                    &u0_gx,
                    &u0_gy,
                    &t_try,
                    cfg.c_t,
                    cfg.c_grad,
                    &mut gx_try,
                    &mut gy_try,
                );
                if j_try < j_cur {
                    (t, gx, gy, j_cur) = (t_try, gx_try, gy_try, j_try);
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
        last = Some(t);
    }
    DisplacementField {
        control: last
            .unwrap_or_else(|| VectorField2::from_fn(control_grid(fg, 2), |_, _| (best.0, best.1))),
    }
}

fn inverse_displace(t: &DisplacementField, x: f64, y: f64) -> (f64, f64) {
    let (mut qx, mut qy) = (x, y);
    for _ in 0..60 {
        let (tx, ty) = sample_t(&t.control, qx, qy);
        let (nqx, nqy) = (x - tx, y - ty);
        let d2 = (nqx - qx).powi(2) + (nqy - qy).powi(2);
        qx = nqx;
        qy = nqy;
        if d2 < 1e-20 {
            break;
        }
    }
    (qx, qy)
}

fn residual(u: &Field2, u0: &Field2, t: &DisplacementField) -> Field2 {
    let g = u.grid();
    Field2::from_fn(g, |ix, iy| {
        let (x, y) = g.world(ix, iy);
        let (qx, qy) = inverse_displace(t, x, y);
        if g.contains(qx, qy) {
            sample(u, qx, qy) - u0.get(ix, iy)
        } else {
            0.0
        }
    })
}

fn reconstruct(u0: &Field2, r: &Field2, t: &DisplacementField) -> Field2 {
    let mut amp = u0.clone();
    amp.axpy(1.0, r).unwrap();
    let g = u0.grid();
    Field2::from_fn(g, |ix, iy| {
        let (x, y) = g.world(ix, iy);
        let (tx, ty) = sample_t(&t.control, x, y);
        sample(&amp, x + 1.0 * tx, y + 1.0 * ty)
    })
}

fn to_extended(cfg: &RegistrationConfig, fields: &[Field2], reference: &[Field2]) -> ExtendedState {
    let t = register(&fields[0], &reference[0], cfg);
    let residuals = fields
        .iter()
        .zip(reference)
        .map(|(u, u0)| residual(u, u0, &t))
        .collect();
    ExtendedState { residuals, t }
}

fn analyze_extended(
    config: &MorphingConfig,
    extended: &[ExtendedState],
    data_ext: &ExtendedState,
    reference: &[Field2],
    rng: &mut GaussianSampler,
) -> Vec<Vec<Field2>> {
    let n_ens = extended.len();
    let n_fields = reference.len();
    let field_len = reference[0].as_slice().len();
    let ctrl_grid = data_ext.t.control.grid();
    let ctrl_len = ctrl_grid.len();
    let mut x = Matrix::zeros(n_fields * field_len + 2 * ctrl_len, n_ens);
    for (j, ext) in extended.iter().enumerate() {
        let col: Vec<f64> = ext
            .residuals
            .iter()
            .flat_map(|r| r.as_slice().iter().copied())
            .chain(ext.t.control.u.as_slice().iter().copied())
            .chain(ext.t.control.v.as_slice().iter().copied())
            .collect();
        x.col_mut(j).copy_from_slice(&col);
    }
    let mut rows = Vec::new();
    let (mut d, mut var) = (Vec::new(), Vec::new());
    for &f in &config.observed_fields {
        rows.extend(f * field_len..(f + 1) * field_len);
        d.extend_from_slice(data_ext.residuals[f].as_slice());
        var.extend(std::iter::repeat_n(
            config.sigma_amplitude * config.sigma_amplitude,
            field_len,
        ));
    }
    rows.extend(n_fields * field_len..n_fields * field_len + 2 * ctrl_len);
    d.extend_from_slice(data_ext.t.control.u.as_slice());
    d.extend_from_slice(data_ext.t.control.v.as_slice());
    var.extend(std::iter::repeat_n(
        config.sigma_displacement * config.sigma_displacement,
        2 * ctrl_len,
    ));
    let mut y = Matrix::zeros(rows.len(), n_ens);
    for j in 0..n_ens {
        for (r, &i) in rows.iter().enumerate() {
            y[(r, j)] = x[(i, j)];
        }
    }
    EnsembleKalmanFilter::new(config.enkf)
        .analyze_ws(&mut x, &y, &d, &var, rng, &mut AnalysisWorkspace::new())
        .unwrap();
    (0..n_ens)
        .map(|j| {
            let col = x.col(j);
            let tu = Field2::from_vec(ctrl_grid, col[n_fields * field_len..][..ctrl_len].to_vec());
            let tv = Field2::from_vec(ctrl_grid, col[n_fields * field_len + ctrl_len..].to_vec());
            let t = DisplacementField {
                control: VectorField2::new(tu, tv).unwrap(),
            };
            reference
                .iter()
                .enumerate()
                .map(|(f, u0)| {
                    let r = Field2::from_vec(u0.grid(), col[f * field_len..][..field_len].to_vec());
                    reconstruct(u0, &r, &t)
                })
                .collect()
        })
        .collect()
}

// --- Inputs ----------------------------------------------------------------

fn bits(f: &Field2) -> Vec<u64> {
    f.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// A non-square grid with a non-zero origin.
fn grid((nx, ny): (usize, usize), (dx, dy): (f64, f64), origin: (f64, f64)) -> Grid2 {
    Grid2::with_origin(nx, ny, dx, dy, origin).unwrap()
}

/// A fire-like field on `g`: a cone (signed distance to a circle) centred
/// at domain fraction `(fx, fy)`. `kind` 1 caps it into a plateau outside
/// the circle, `kind` 2 is a constant field — both make scan candidates
/// tie.
fn fire(g: Grid2, (fx, fy): (f64, f64), radius: f64, kind: usize) -> Field2 {
    let (ex, ey) = g.extent();
    let (cx, cy) = (g.origin.0 + fx * ex, g.origin.1 + fy * ey);
    Field2::from_world_fn(g, |x, y| {
        let d = ((x - cx).powi(2) + (y - cy).powi(2)).sqrt() - radius * ex.max(ey);
        match kind {
            0 => d,
            1 => d.min(2.0),
            _ => 3.0,
        }
    })
}

fn config(
    levels: Vec<usize>,
    samples: usize,
    shift: f64,
    iterations: usize,
    g: Grid2,
) -> RegistrationConfig {
    let (ex, ey) = g.extent();
    RegistrationConfig {
        max_shift: shift * ex.max(ey),
        shift_samples: samples,
        levels,
        iterations,
        ..Default::default()
    }
}

proptest! {
    /// `register_into` (through a workspace warmed on other inputs) is the
    /// per-node registration.
    #[test]
    fn register_into_matches_per_node_registration_bitwise(
        dims in (3usize..24, 3usize..24),
        spacing in (0.5f64..3.0, 0.5f64..3.0),
        origin in (-40.0f64..40.0, -40.0f64..40.0),
        centres in ((0.0f64..1.0, 0.0f64..1.0), (0.0f64..1.0, 0.0f64..1.0)),
        shape in (0.05f64..0.4, 0usize..3, 0usize..3),
        reg in (prop::collection::vec(2usize..8, 0..4), 1usize..6, 0.05f64..1.2, 1usize..12),
    ) {
        let g = grid(dims, spacing, origin);
        let (r, kind0, kind) = shape;
        let u0 = fire(g, centres.0, r, kind0);
        let u = fire(g, centres.1, r, kind);
        let cfg = config(reg.0, 2 * reg.1 + 1, reg.2, reg.3, g);
        let mut ws = RegistrationWorkspace::new();
        let mut out = DisplacementField::default();
        register_into(&u0, &u, &cfg, &mut ws, &mut out).unwrap();
        register_into(&u, &u0, &cfg, &mut ws, &mut out).unwrap();
        let want = register(&u, &u0, &cfg);
        prop_assert_eq!(out.control.grid(), want.control.grid());
        prop_assert_eq!(bits(&out.control.u), bits(&want.control.u));
        prop_assert_eq!(bits(&out.control.v), bits(&want.control.v));
    }

    /// `to_extended_ws` is the per-node registration plus one per-node
    /// residual per field.
    #[test]
    fn to_extended_matches_per_node_transform_bitwise(
        dims in (3usize..20, 3usize..20),
        spacing in (0.5f64..3.0, 0.5f64..3.0),
        origin in (-40.0f64..40.0, -40.0f64..40.0),
        centres in ((0.0f64..1.0, 0.0f64..1.0), (0.0f64..1.0, 0.0f64..1.0)),
        shape in (0.05f64..0.4, 0usize..2),
        reg in (prop::collection::vec(2usize..8, 0..3), 0.05f64..1.2, 1usize..10),
    ) {
        let g = grid(dims, spacing, origin);
        let (r, kind) = shape;
        let reference = [fire(g, centres.0, r, kind), fire(g, centres.0, 0.5 * r, 0)];
        let fields = [fire(g, centres.1, r, kind), fire(g, centres.1, 0.5 * r, 0)];
        let morph = MorphingConfig {
            registration: config(reg.0, 5, reg.1, reg.2, g),
            ..Default::default()
        };
        let got = MorphingEnkf::new(morph.clone())
            .to_extended_ws(&fields, &reference, 0, &mut RegistrationWorkspace::new())
            .unwrap();
        let want = to_extended(&morph.registration, &fields, &reference);
        prop_assert_eq!(bits(&got.t.control.u), bits(&want.t.control.u));
        prop_assert_eq!(bits(&got.t.control.v), bits(&want.t.control.v));
        for (a, b) in got.residuals.iter().zip(&want.residuals) {
            prop_assert_eq!(bits(a), bits(b));
        }
    }

    /// `analyze_extended_ws` is the packed inner EnKF followed by one
    /// per-node reconstruction per field.
    #[test]
    fn analyze_extended_matches_per_node_morph_back_bitwise(
        dims in (4usize..16, 4usize..16),
        spacing in (0.5f64..3.0, 0.5f64..3.0),
        origin in (-40.0f64..40.0, -40.0f64..40.0),
        spread in (0.05f64..0.3, 2usize..6),
        reg in (prop::collection::vec(2usize..8, 0..3), 0.05f64..1.2, 1usize..8),
        seed in 0u64..1000,
    ) {
        let g = grid(dims, spacing, origin);
        let mut rng = GaussianSampler::new(seed);
        let mut state = || {
            let c = (rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8));
            vec![fire(g, c, 0.2, 0), fire(g, c, 0.1, 1)]
        };
        let reference = state();
        let members: Vec<Vec<Field2>> = (0..spread.1 + 1).map(|_| state()).collect();
        let data = state();
        let morph = MorphingConfig {
            registration: config(reg.0, 5, reg.1, reg.2, g),
            sigma_amplitude: spread.0 * 10.0,
            ..Default::default()
        };
        let filter = MorphingEnkf::new(morph.clone());
        let mut reg_ws = RegistrationWorkspace::new();
        let extended: Vec<ExtendedState> = members
            .iter()
            .map(|m| filter.to_extended_ws(m, &reference, 0, &mut reg_ws).unwrap())
            .collect();
        let data_ext = filter.to_extended_ws(&data, &reference, 0, &mut reg_ws).unwrap();
        let got = filter
            .analyze_extended_ws(
                &extended,
                &data_ext,
                &reference,
                &mut GaussianSampler::new(seed + 1),
                &mut MorphingWorkspace::new(),
            )
            .unwrap();
        let want = analyze_extended(
            &morph,
            &extended,
            &data_ext,
            &reference,
            &mut GaussianSampler::new(seed + 1),
        );
        for (m_got, m_want) in got.iter().zip(&want) {
            for (a, b) in m_got.iter().zip(m_want) {
                prop_assert_eq!(bits(a), bits(b));
            }
        }
    }
}
