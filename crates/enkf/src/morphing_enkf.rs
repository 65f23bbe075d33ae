//! The morphing ensemble Kalman filter (§3.3, and Beezley & Mandel 2008).
//!
//! The plain EnKF fails "when the data indicate a fire in a different
//! location than in the state, because such data have infinitesimally small
//! likelihood and the span of the ensemble does not contain a state
//! consistent with the data". The fix: transform every ensemble member (and
//! the data) into an *extended state* `[r, T]` — amplitude residual plus
//! registration displacement against a common reference — run the EnKF on
//! extended states, whose linear combinations are *morphs* (position
//! blends), and transform back.
//!
//! The implementation is generic over multi-field states (the fire model's
//! state is the pair `(ψ, t_i)`): one field drives the registration, all
//! fields share the member's displacement `T`, and any subset of fields can
//! be declared observed (the others update through ensemble
//! cross-covariances, as usual in the EnKF).

use crate::enkf::{EnkfConfig, EnsembleKalmanFilter};
use crate::morph::{morph_into, residuals_into};
use crate::registration::{
    register_into, DisplacementField, RegistrationConfig, RegistrationWorkspace,
};
use crate::workspace::AnalysisWorkspace;
use crate::{EnkfError, Result};
use wildfire_grid::{Field2, Grid2};
use wildfire_math::{GaussianSampler, Matrix};

/// Scratch buffers for one morphing-EnKF analysis: the observation matrices
/// and the inner EnKF's [`AnalysisWorkspace`], plus the packed extended
/// ensemble of the owned-result
/// [`MorphingEnkf::analyze_extended_ws`] ([`analyze_packed_ws`] updates the
/// caller's matrix instead). Sized on first use, reused thereafter.
#[derive(Debug, Clone, Default)]
pub struct MorphingWorkspace {
    /// Packed extended ensemble `X` (`n_state × N`) of
    /// [`MorphingEnkf::analyze_extended_ws`].
    pub(crate) x: Matrix,
    /// Packed data extended state of [`MorphingEnkf::analyze_extended_ws`].
    pub(crate) data: Vec<f64>,
    /// Packed observed blocks `Y` (`m × N`).
    pub(crate) y: Matrix,
    /// Observation vector.
    pub(crate) d: Vec<f64>,
    /// Observation error variances.
    pub(crate) obs_var: Vec<f64>,
    /// Inner stochastic-EnKF scratch.
    pub enkf: AnalysisWorkspace,
}

impl MorphingWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Configuration of the morphing EnKF.
#[derive(Debug, Clone)]
pub struct MorphingConfig {
    /// Registration settings (shared by members and data).
    pub registration: RegistrationConfig,
    /// Inner EnKF settings.
    pub enkf: EnkfConfig,
    /// Observation error std on the amplitude-residual components, in field
    /// units.
    pub sigma_amplitude: f64,
    /// Observation error std on the displacement components (m).
    pub sigma_displacement: f64,
    /// Indices (into the member field list) of the *observed* fields; the
    /// displacement block is always observed (fire position is what the
    /// thermal image measures best).
    pub observed_fields: Vec<usize>,
}

impl Default for MorphingConfig {
    fn default() -> Self {
        MorphingConfig {
            registration: RegistrationConfig::default(),
            enkf: EnkfConfig::default(),
            sigma_amplitude: 1.0,
            sigma_displacement: 5.0,
            observed_fields: vec![0],
        }
    }
}

/// Extended representation `[r, T]` of one member.
#[derive(Debug, Clone, Default)]
pub struct ExtendedState {
    /// Amplitude residuals, one per state field.
    pub residuals: Vec<Field2>,
    /// Registration displacement of this member against the reference.
    pub t: DisplacementField,
}

impl ExtendedState {
    /// Writes the state as one ensemble column `[r_0, …, r_{F−1}, T_u, T_v]`
    /// (each block row-major) — the layout [`analyze_packed_ws`] and
    /// [`from_packed_into`] read.
    ///
    /// # Panics
    /// Panics when `col` is not exactly that long.
    pub fn pack_into(&self, col: &mut [f64]) {
        let mut off = 0;
        for r in &self.residuals {
            let len = r.as_slice().len();
            col[off..off + len].copy_from_slice(r.as_slice());
            off += len;
        }
        let ctrl_len = self.t.control.u.as_slice().len();
        assert_eq!(
            col.len(),
            off + 2 * ctrl_len,
            "packed extended state length"
        );
        col[off..off + ctrl_len].copy_from_slice(self.t.control.u.as_slice());
        col[off + ctrl_len..].copy_from_slice(self.t.control.v.as_slice());
    }
}

/// Length of a packed extended state of fields on `field_grid`: the
/// residual of every field plus both components of the displacement on
/// [`RegistrationConfig::output_grid`].
pub fn packed_len(config: &MorphingConfig, n_fields: usize, field_grid: Grid2) -> usize {
    n_fields * field_grid.len() + 2 * config.registration.output_grid(field_grid).len()
}

/// Transforms a member (list of fields) into its extended state, reusing
/// `out`: the registration
/// scratch comes from `reg` and the residuals and displacement overwrite
/// `out`, so warm buffers make the transform allocation-free. Field
/// `reg_index` drives the registration; every residual is taken at the one
/// inverse map of the member's displacement.
///
/// # Errors
/// [`EnkfError::DimensionMismatch`] for mismatched field counts or an
/// out-of-range `reg_index`; [`EnkfError::Grid`] when the fields do not all
/// share one grid; registration failures ([`register_into`]).
pub fn to_extended_into(
    config: &MorphingConfig,
    fields: &[Field2],
    reference: &[Field2],
    reg_index: usize,
    reg: &mut RegistrationWorkspace,
    out: &mut ExtendedState,
) -> Result<()> {
    if fields.len() != reference.len() || fields.is_empty() {
        return Err(EnkfError::DimensionMismatch {
            what: "member and reference field counts differ",
        });
    }
    if reg_index >= fields.len() {
        return Err(EnkfError::DimensionMismatch {
            what: "registration field index out of range",
        });
    }
    let g = reference[reg_index].grid();
    if fields.iter().chain(reference).any(|f| f.grid() != g) {
        return Err(EnkfError::Grid(wildfire_grid::GridError::GridMismatch(
            "morphing state fields",
        )));
    }
    register_into(
        &fields[reg_index],
        &reference[reg_index],
        &config.registration,
        reg,
        &mut out.t,
    )?;
    out.residuals.resize_with(fields.len(), Field2::default);
    residuals_into(fields, reference, &out.t, &mut out.residuals);
    Ok(())
}

/// The inner EnKF of a morphing analysis, in place on a packed extended
/// ensemble: column `j` of `x` is member `j`'s extended state and `data`
/// the data's, both in the [`ExtendedState::pack_into`] layout for the
/// fields of `reference`. The observation is the observed fields' residual
/// blocks plus the whole displacement block. Observation matrices and EnKF
/// temporaries come from `ws`.
///
/// # Errors
/// [`EnkfError::EnsembleTooSmall`]; [`EnkfError::DimensionMismatch`] for a
/// column length that does not fit `reference`'s fields or an out-of-range
/// observed field; numerical failures from the inner EnKF.
pub fn analyze_packed_ws(
    config: &MorphingConfig,
    x: &mut Matrix,
    data: &[f64],
    reference: &[Field2],
    rng: &mut GaussianSampler,
    ws: &mut MorphingWorkspace,
) -> Result<()> {
    let (n_state, n_ens) = x.dims();
    if n_ens < 2 {
        return Err(EnkfError::EnsembleTooSmall);
    }
    let n_fields = reference.len();
    let field_len = reference[0].as_slice().len();
    let t_start = n_fields * field_len;
    if data.len() != n_state || n_state < t_start || !(n_state - t_start).is_multiple_of(2) {
        return Err(EnkfError::DimensionMismatch {
            what: "packed extended state length",
        });
    }
    if config.observed_fields.iter().any(|&f| f >= n_fields) {
        return Err(EnkfError::DimensionMismatch {
            what: "observed field index out of range",
        });
    }
    let t_len = n_state - t_start;

    // --- Observation: observed residual blocks + displacement block. -----
    let m_obs = config.observed_fields.len() * field_len + t_len;
    let y = &mut ws.y;
    y.resize_zeroed(m_obs, n_ens);
    let d = &mut ws.d;
    d.clear();
    d.resize(m_obs, 0.0);
    let obs_var = &mut ws.obs_var;
    obs_var.clear();
    obs_var.resize(m_obs, 0.0);
    let mut off = 0;
    for &f in &config.observed_fields {
        let start = f * field_len;
        for j in 0..n_ens {
            y.col_mut(j)[off..off + field_len].copy_from_slice(&x.col(j)[start..start + field_len]);
        }
        d[off..off + field_len].copy_from_slice(&data[start..start + field_len]);
        obs_var[off..off + field_len].fill(config.sigma_amplitude * config.sigma_amplitude);
        off += field_len;
    }
    for j in 0..n_ens {
        y.col_mut(j)[off..].copy_from_slice(&x.col(j)[t_start..]);
    }
    d[off..].copy_from_slice(&data[t_start..]);
    obs_var[off..].fill(config.sigma_displacement * config.sigma_displacement);

    // --- Inner EnKF on the extended ensemble. -----------------------------
    EnsembleKalmanFilter::new(config.enkf).analyze_ws(x, y, d, obs_var, rng, &mut ws.enkf)
}

/// Morphs one packed extended state back into physical fields:
/// `out[f] = (u0_f + r_f)∘(I + T)` with `u0_f = reference[f]` and the
/// displacement on the control grid `ctrl` (outputs re-targeted to the
/// reference grid). Reads the column in place; needs no scratch.
///
/// # Panics
/// Panics when `col` does not have the [`ExtendedState::pack_into`] layout
/// for `reference` and `ctrl`.
pub fn from_packed_into(reference: &[Field2], ctrl: Grid2, col: &[f64], out: &mut [&mut Field2]) {
    let field_len = reference[0].as_slice().len();
    let t_start = reference.len() * field_len;
    assert_eq!(
        col.len(),
        t_start + 2 * ctrl.len(),
        "packed extended state length"
    );
    let (tu, tv) = col[t_start..].split_at(ctrl.len());
    let residual = |f: usize| &col[f * field_len..(f + 1) * field_len];
    morph_into(reference, residual, 1.0, (ctrl, tu, tv), out);
}

/// The morphing EnKF.
#[derive(Debug, Clone, Default)]
pub struct MorphingEnkf {
    /// Filter configuration.
    pub config: MorphingConfig,
}

impl MorphingEnkf {
    /// Creates the filter with a configuration.
    pub fn new(config: MorphingConfig) -> Self {
        MorphingEnkf { config }
    }

    /// Transforms a member (list of fields) into its extended state, using
    /// field `reg_index` to drive the registration and caller-provided
    /// registration scratch; an owned-result wrapper of
    /// [`to_extended_into`].
    ///
    /// # Errors
    /// As [`to_extended_into`].
    pub fn to_extended_ws(
        &self,
        fields: &[Field2],
        reference: &[Field2],
        reg_index: usize,
        reg: &mut RegistrationWorkspace,
    ) -> Result<ExtendedState> {
        let mut out = ExtendedState::default();
        to_extended_into(&self.config, fields, reference, reg_index, reg, &mut out)?;
        Ok(out)
    }

    /// One morphing-EnKF analysis on precomputed extended states: packs the
    /// states into `ws`, runs [`analyze_packed_ws`] and morphs every column
    /// back with [`from_packed_into`] into freshly allocated fields (same
    /// layout as `reference`).
    ///
    /// # Errors
    /// Dimension mismatches and numerical failures from the inner EnKF.
    pub fn analyze_extended_ws(
        &self,
        extended: &[ExtendedState],
        data_ext: &ExtendedState,
        reference: &[Field2],
        rng: &mut GaussianSampler,
        ws: &mut MorphingWorkspace,
    ) -> Result<Vec<Vec<Field2>>> {
        let n_ens = extended.len();
        if n_ens < 2 {
            return Err(EnkfError::EnsembleTooSmall);
        }
        let ctrl = data_ext.t.control.grid();
        let n_state = reference.len() * reference[0].as_slice().len() + 2 * ctrl.len();
        let mut x = std::mem::take(&mut ws.x);
        x.resize_no_zero(n_state, n_ens);
        for (j, ext) in extended.iter().enumerate() {
            ext.pack_into(x.col_mut(j));
        }
        let mut data = std::mem::take(&mut ws.data);
        data.resize(n_state, 0.0);
        data_ext.pack_into(&mut data);
        let result = analyze_packed_ws(&self.config, &mut x, &data, reference, rng, ws).map(|()| {
            (0..n_ens)
                .map(|j| {
                    let mut fields: Vec<Field2> = reference
                        .iter()
                        .map(|u0| Field2::zeros(u0.grid()))
                        .collect();
                    let mut outs: Vec<&mut Field2> = fields.iter_mut().collect();
                    from_packed_into(reference, ctrl, x.col(j), &mut outs);
                    fields
                })
                .collect()
        });
        ws.x = x;
        ws.data = data;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_grid::Grid2;

    fn grid() -> Grid2 {
        Grid2::new(33, 33, 2.0, 2.0).unwrap()
    }

    /// A fire-like cone field: negative inside radius, positive outside —
    /// shaped like a signed distance to a circle at (cx, cy).
    fn cone(cx: f64, cy: f64) -> Field2 {
        Field2::from_world_fn(grid(), |x, y| {
            ((x - cx).powi(2) + (y - cy).powi(2)).sqrt() - 10.0
        })
    }

    /// The extended state of `fields`, registered on field 0.
    fn extend(filter: &MorphingEnkf, fields: &[Field2], reference: &[Field2]) -> ExtendedState {
        filter
            .to_extended_ws(fields, reference, 0, &mut RegistrationWorkspace::new())
            .unwrap()
    }

    /// Members and data through `to_extended_ws`, then one
    /// `analyze_extended_ws` with a fresh workspace.
    fn analyze(
        filter: &MorphingEnkf,
        members: &[Vec<Field2>],
        reference: &[Field2],
        data: &[Field2],
        reg_index: usize,
        rng: &mut GaussianSampler,
    ) -> Result<Vec<Vec<Field2>>> {
        let mut reg = RegistrationWorkspace::new();
        let mut to_ext =
            |fields: &[Field2]| filter.to_extended_ws(fields, reference, reg_index, &mut reg);
        let extended = members
            .iter()
            .map(|m| to_ext(m))
            .collect::<Result<Vec<_>>>()?;
        let data_ext = to_ext(data)?;
        filter.analyze_extended_ws(
            &extended,
            &data_ext,
            reference,
            rng,
            &mut MorphingWorkspace::new(),
        )
    }

    fn cfg() -> MorphingConfig {
        MorphingConfig {
            registration: RegistrationConfig {
                max_shift: 30.0,
                shift_samples: 9,
                levels: vec![3],
                iterations: 25,
                ..Default::default()
            },
            sigma_amplitude: 0.5,
            sigma_displacement: 2.0,
            observed_fields: vec![0],
            ..Default::default()
        }
    }

    #[test]
    fn extended_roundtrip_is_accurate() {
        let filter = MorphingEnkf::new(cfg());
        let reference = vec![cone(32.0, 32.0)];
        let member = vec![cone(44.0, 32.0)];
        let ext = extend(&filter, &member, &reference);
        let mut packed = vec![0.0; packed_len(&filter.config, 1, grid())];
        ext.pack_into(&mut packed);
        let mut back = [Field2::zeros(grid())];
        let mut outs: Vec<&mut Field2> = back.iter_mut().collect();
        from_packed_into(&reference, ext.t.control.grid(), &packed, &mut outs);
        // Interior reconstruction error should be small (window clear of
        // the ~12 m displacement's boundary-clamping reach).
        let mut max_err = 0.0_f64;
        for iy in 8..25 {
            for ix in 8..25 {
                max_err = max_err.max((back[0].get(ix, iy) - member[0].get(ix, iy)).abs());
            }
        }
        assert!(max_err < 1.5, "roundtrip error {max_err}");
    }

    #[test]
    fn analysis_moves_fires_toward_data_position() {
        // Ensemble of fires at x ≈ 20–28; data at x = 44. The morphing
        // analysis must MOVE the members toward the data location.
        let filter = MorphingEnkf::new(cfg());
        let reference = vec![cone(24.0, 32.0)];
        let members: Vec<Vec<Field2>> = (0..8).map(|i| vec![cone(20.0 + i as f64, 32.0)]).collect();
        let data = vec![cone(44.0, 32.0)];
        let mut rng = GaussianSampler::new(31);
        let analyzed = analyze(&filter, &members, &reference, &data, 0, &mut rng).unwrap();
        // Fire "position" = argmin of the cone field.
        let locate = |f: &Field2| -> f64 {
            let g = f.grid();
            let mut best = (0usize, f64::MAX);
            for iy in 0..g.ny {
                for ix in 0..g.nx {
                    if f.get(ix, iy) < best.1 {
                        best = (ix, f.get(ix, iy));
                    }
                }
            }
            g.world(best.0, 0).0
        };
        let before: f64 = members.iter().map(|m| locate(&m[0])).sum::<f64>() / members.len() as f64;
        let after: f64 =
            analyzed.iter().map(|m| locate(&m[0])).sum::<f64>() / analyzed.len() as f64;
        assert!(before < 30.0);
        assert!(
            after > before + 5.0,
            "analysis must move fires toward x=44: {before} → {after}"
        );
    }

    #[test]
    fn analysis_keeps_fields_finite_and_fire_like() {
        let filter = MorphingEnkf::new(cfg());
        let reference = vec![cone(30.0, 30.0)];
        let members: Vec<Vec<Field2>> = (0..6)
            .map(|i| vec![cone(26.0 + 2.0 * i as f64, 30.0 + i as f64)])
            .collect();
        let data = vec![cone(40.0, 36.0)];
        let mut rng = GaussianSampler::new(5);
        let analyzed = analyze(&filter, &members, &reference, &data, 0, &mut rng).unwrap();
        for m in &analyzed {
            assert!(m[0].all_finite());
            // Still has a burning region (negative values) — the morph does
            // not wash the fire out.
            let (lo, hi) = m[0].min_max();
            assert!(lo < 0.0, "fire vanished: min {lo}");
            assert!(hi > 0.0);
        }
    }

    #[test]
    fn multi_field_states_share_displacement() {
        let filter = MorphingEnkf::new(MorphingConfig {
            observed_fields: vec![0],
            ..cfg()
        });
        let reference = vec![cone(30.0, 30.0), cone(30.0, 30.0)];
        let members: Vec<Vec<Field2>> = (0..4)
            .map(|i| {
                let c = 24.0 + 2.0 * i as f64;
                vec![cone(c, 30.0), cone(c, 30.0)]
            })
            .collect();
        let data = vec![cone(40.0, 30.0), cone(40.0, 30.0)];
        let mut rng = GaussianSampler::new(77);
        let analyzed = analyze(&filter, &members, &reference, &data, 0, &mut rng).unwrap();
        // The unobserved second field must track the observed first one
        // (same displacement, correlated residuals).
        for m in &analyzed {
            let diff = m[0].rmse(&m[1]).unwrap();
            assert!(diff < 2.0, "fields diverged: rmse {diff}");
        }
    }

    #[test]
    fn workspace_analysis_matches_allocating_analysis_bitwise() {
        let filter = MorphingEnkf::new(cfg());
        let reference = vec![cone(24.0, 32.0)];
        let members: Vec<Vec<Field2>> = (0..5).map(|i| vec![cone(20.0 + i as f64, 32.0)]).collect();
        let data = vec![cone(40.0, 32.0)];
        let extended: Vec<ExtendedState> = members
            .iter()
            .map(|m| extend(&filter, m, &reference))
            .collect();
        let data_ext = extend(&filter, &data, &reference);

        let mut rng_a = GaussianSampler::new(97);
        let alloc = filter
            .analyze_extended_ws(
                &extended,
                &data_ext,
                &reference,
                &mut rng_a,
                &mut MorphingWorkspace::new(),
            )
            .unwrap();
        // A workspace warmed by an analysis of a smaller ensemble.
        let mut ws = MorphingWorkspace::new();
        filter
            .analyze_extended_ws(&extended[..3], &data_ext, &reference, &mut rng_a, &mut ws)
            .unwrap();
        let mut rng_b = GaussianSampler::new(97);
        let with_ws = filter
            .analyze_extended_ws(&extended, &data_ext, &reference, &mut rng_b, &mut ws)
            .unwrap();
        for (ma, mw) in alloc.iter().zip(with_ws.iter()) {
            for (fa, fw) in ma.iter().zip(mw.iter()) {
                assert_eq!(fa, fw, "morphing workspace path must be bit-identical");
            }
        }
    }

    /// The inner solve is in ensemble space: a whole observed field
    /// (m = 36² + 2·5² = 1346 rows) against 6 members leaves only 6 × 6
    /// matrices in the workspace — no `m × m` buffer exists.
    #[test]
    fn analysis_workspace_holds_no_observation_space_matrix() {
        let g = Grid2::new(36, 36, 2.0, 2.0).unwrap();
        let cone = |cx: f64| {
            Field2::from_world_fn(g, |x, y| {
                ((x - cx).powi(2) + (y - 35.0).powi(2)).sqrt() - 10.0
            })
        };
        let filter = MorphingEnkf::new(MorphingConfig {
            registration: RegistrationConfig {
                max_shift: 30.0,
                levels: vec![3, 5],
                iterations: 5,
                ..Default::default()
            },
            ..cfg()
        });
        let reference = vec![cone(30.0)];
        let extended: Vec<ExtendedState> = (0..6)
            .map(|i| {
                let member = [cone(26.0 + 2.0 * i as f64)];
                extend(&filter, &member, &reference)
            })
            .collect();
        let data_ext = extend(&filter, &[cone(40.0)], &reference);
        let mut ws = MorphingWorkspace::new();
        let mut rng = GaussianSampler::new(3);
        filter
            .analyze_extended_ws(&extended, &data_ext, &reference, &mut rng, &mut ws)
            .unwrap();
        assert_eq!(ws.enkf.delta.dims(), (1346, 6));
        assert_eq!(ws.enkf.c.dims(), (6, 6));
        assert_eq!(ws.enkf.l.dims(), (6, 6));
    }

    /// Every buffer of an analysis workspace, by name and element count.
    fn buffer_sizes(ws: &AnalysisWorkspace) -> Vec<(&'static str, usize)> {
        let m = |name, m: &Matrix| (name, m.as_slice().len());
        let v = |name, v: &Vec<f64>| (name, v.len());
        vec![
            m("a", &ws.a),
            m("ha", &ws.ha),
            m("c", &ws.c),
            m("l", &ws.l),
            m("delta", &ws.delta),
            m("w", &ws.w),
            v("update", &ws.update),
            v("mean_x", &ws.mean_x),
            v("mean_y", &ws.mean_y),
            v("innov", &ws.innov),
            v("wvec", &ws.wvec),
            v("wvec2", &ws.wvec2),
            v("xvec", &ws.xvec),
            v("eig.values", &ws.eig.values),
            m("eig.vectors", &ws.eig.vectors),
        ]
    }

    /// The analyses update the ensemble in place: after a standard, an
    /// ETKF and a morphing analysis (each observing fewer rows than the
    /// state has) no workspace buffer holds a copy of the ensemble.
    #[test]
    fn analysis_workspace_holds_no_ensemble_sized_matrix() {
        let assert_small = |ws: &AnalysisWorkspace, n: usize, n_ens: usize, what: &str| {
            for (name, len) in buffer_sizes(ws) {
                assert!(
                    len < n * n_ens,
                    "{what}: {name} holds {len} ≥ n·N = {}",
                    n * n_ens
                );
            }
        };
        let mut rng = GaussianSampler::new(41);
        let (n, m, n_ens) = (300, 40, 8);
        let x0 = rng.normal_matrix(n, n_ens, 1.0);
        let y = x0.submatrix(0, m, 0, n_ens);
        let data = vec![0.5; m];
        let var = vec![0.3; m];
        let mut ws = AnalysisWorkspace::new();
        EnsembleKalmanFilter::new(EnkfConfig {
            inflation: 1.1,
            ..Default::default()
        })
        .analyze_ws(&mut x0.clone(), &y, &data, &var, &mut rng, &mut ws)
        .unwrap();
        assert_small(&ws, n, n_ens, "standard");
        let mut ws = AnalysisWorkspace::new();
        crate::Etkf::new(1.1)
            .analyze_ws(&mut x0.clone(), &y, &data, &var, &mut ws)
            .unwrap();
        assert_small(&ws, n, n_ens, "etkf");

        // Two fields, the first observed: n = 2·33² + 2·ctrl, m = 33² + 2·ctrl.
        let filter = MorphingEnkf::new(cfg());
        let reference = vec![cone(30.0, 30.0), cone(30.0, 30.0)];
        let extended: Vec<ExtendedState> = (0..4)
            .map(|i| {
                let c = 24.0 + 2.0 * i as f64;
                extend(&filter, &[cone(c, 30.0), cone(c, 30.0)], &reference)
            })
            .collect();
        let data_ext = extend(&filter, &[cone(40.0, 30.0), cone(40.0, 30.0)], &reference);
        let mut ws = MorphingWorkspace::new();
        filter
            .analyze_extended_ws(&extended, &data_ext, &reference, &mut rng, &mut ws)
            .unwrap();
        let (n_state, n_ens) = ws.x.dims();
        assert!(ws.enkf.delta.rows() < n_state);
        assert_small(&ws.enkf, n_state, n_ens, "morphing");
    }

    #[test]
    fn rejects_small_ensembles_and_bad_indices() {
        let filter = MorphingEnkf::new(cfg());
        let reference = vec![cone(30.0, 30.0)];
        let one = vec![vec![cone(30.0, 30.0)]];
        let mut rng = GaussianSampler::new(1);
        assert!(matches!(
            analyze(&filter, &one, &reference, &reference.clone(), 0, &mut rng),
            Err(EnkfError::EnsembleTooSmall)
        ));
        let two = vec![vec![cone(30.0, 30.0)], vec![cone(31.0, 30.0)]];
        assert!(analyze(&filter, &two, &reference, &reference.clone(), 5, &mut rng).is_err());
    }
}
