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
use crate::morph::{reconstruct, residual};
use crate::registration::{
    register_ws, DisplacementField, RegistrationConfig, RegistrationWorkspace,
};
use crate::workspace::AnalysisWorkspace;
use crate::{EnkfError, Result};
use wildfire_grid::Field2;
use wildfire_math::{GaussianSampler, Matrix};

/// Scratch buffers for one morphing-EnKF analysis: the packed extended
/// ensemble and observation matrices plus the inner EnKF's
/// [`AnalysisWorkspace`]. Sized on first use, reused thereafter; the
/// returned analysis fields are the only steady-state allocations left.
#[derive(Debug, Clone, Default)]
pub struct MorphingWorkspace {
    /// Packed extended ensemble `X` (`n_state × N`).
    pub(crate) x: Matrix,
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
#[derive(Debug, Clone)]
pub struct ExtendedState {
    /// Amplitude residuals, one per state field.
    pub residuals: Vec<Field2>,
    /// Registration displacement of this member against the reference.
    pub t: DisplacementField,
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
    /// field `reg_index` to drive the registration.
    ///
    /// # Errors
    /// Registration/grid failures.
    pub fn to_extended(
        &self,
        fields: &[Field2],
        reference: &[Field2],
        reg_index: usize,
    ) -> Result<ExtendedState> {
        self.to_extended_ws(
            fields,
            reference,
            reg_index,
            &mut RegistrationWorkspace::new(),
        )
    }

    /// [`MorphingEnkf::to_extended`] with caller-provided registration
    /// scratch (one workspace per worker when registrations fan out in
    /// parallel). Bit-identical to the allocating wrapper.
    ///
    /// # Errors
    /// Registration/grid failures.
    pub fn to_extended_ws(
        &self,
        fields: &[Field2],
        reference: &[Field2],
        reg_index: usize,
        reg: &mut RegistrationWorkspace,
    ) -> Result<ExtendedState> {
        if fields.len() != reference.len() || fields.is_empty() {
            return Err(EnkfError::DimensionMismatch {
                what: "member and reference field counts differ",
            });
        }
        let t = register_ws(
            &fields[reg_index],
            &reference[reg_index],
            &self.config.registration,
            reg,
        )?;
        let residuals = fields
            .iter()
            .zip(reference.iter())
            .map(|(u, u0)| residual(u, u0, &t))
            .collect();
        Ok(ExtendedState { residuals, t })
    }

    /// Reconstructs the physical fields from an extended state.
    pub fn from_extended(&self, ext: &ExtendedState, reference: &[Field2]) -> Vec<Field2> {
        ext.residuals
            .iter()
            .zip(reference.iter())
            .map(|(r, u0)| reconstruct(u0, r, &ext.t))
            .collect()
    }

    /// One morphing-EnKF analysis.
    ///
    /// * `members` — the ensemble; each member is a list of fields (all
    ///   members and the reference share layouts and grids);
    /// * `reference` — the common registration reference `u0` (e.g. the
    ///   forecast of a designated member);
    /// * `data` — the observed fields in the same layout (the identical-twin
    ///   experiments pass the truth state as retrieved from imagery);
    /// * `reg_index` — which field drives registration (the fire experiments
    ///   use the level-set function ψ).
    ///
    /// Returns the analysis ensemble (same layout).
    ///
    /// # Errors
    /// Dimension mismatches and numerical failures from the inner EnKF.
    pub fn analyze(
        &self,
        members: &[Vec<Field2>],
        reference: &[Field2],
        data: &[Field2],
        reg_index: usize,
        rng: &mut GaussianSampler,
    ) -> Result<Vec<Vec<Field2>>> {
        let n_ens = members.len();
        if n_ens < 2 {
            return Err(EnkfError::EnsembleTooSmall);
        }
        let n_fields = reference.len();
        if data.len() != n_fields {
            return Err(EnkfError::DimensionMismatch {
                what: "data field count differs from reference",
            });
        }
        if reg_index >= n_fields {
            return Err(EnkfError::DimensionMismatch {
                what: "registration field index out of range",
            });
        }
        for obs in &self.config.observed_fields {
            if *obs >= n_fields {
                return Err(EnkfError::DimensionMismatch {
                    what: "observed field index out of range",
                });
            }
        }

        // --- Transform members and data into extended space. -------------
        let mut extended = Vec::with_capacity(n_ens);
        for m in members {
            extended.push(self.to_extended(m, reference, reg_index)?);
        }
        let data_ext = self.to_extended(data, reference, reg_index)?;
        self.analyze_extended(&extended, &data_ext, reference, rng)
    }

    /// The analysis core operating on precomputed extended states — exposed
    /// so the parallel ensemble driver can fan the (expensive) registrations
    /// out across worker threads and feed the results here.
    ///
    /// # Errors
    /// Dimension mismatches and numerical failures from the inner EnKF.
    pub fn analyze_extended(
        &self,
        extended: &[ExtendedState],
        data_ext: &ExtendedState,
        reference: &[Field2],
        rng: &mut GaussianSampler,
    ) -> Result<Vec<Vec<Field2>>> {
        let mut ws = MorphingWorkspace::new();
        self.analyze_extended_ws(extended, data_ext, reference, rng, &mut ws)
    }

    /// Workspace-backed [`MorphingEnkf::analyze_extended`]: the packed
    /// ensemble/observation matrices and the inner EnKF temporaries come
    /// from `ws` and are reused across analyses. Bit-identical to the
    /// allocating wrapper.
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
        let n_fields = reference.len();

        // --- Pack extended states into the ensemble matrix. --------------
        let field_len = reference[0].as_slice().len();
        let ctrl_len = data_ext.t.control.u.as_slice().len();
        let n_state = n_fields * field_len + 2 * ctrl_len;
        let x = &mut ws.x;
        x.resize_zeroed(n_state, n_ens);
        for (j, ext) in extended.iter().enumerate() {
            let col = x.col_mut(j);
            let mut off = 0;
            for r in &ext.residuals {
                col[off..off + field_len].copy_from_slice(r.as_slice());
                off += field_len;
            }
            col[off..off + ctrl_len].copy_from_slice(ext.t.control.u.as_slice());
            off += ctrl_len;
            col[off..off + ctrl_len].copy_from_slice(ext.t.control.v.as_slice());
        }

        // --- Observation: observed residual blocks + displacement block. --
        let m_obs = self.config.observed_fields.len() * field_len + 2 * ctrl_len;
        let y = &mut ws.y;
        y.resize_zeroed(m_obs, n_ens);
        let d = &mut ws.d;
        d.clear();
        d.resize(m_obs, 0.0);
        let obs_var = &mut ws.obs_var;
        obs_var.clear();
        obs_var.resize(m_obs, 0.0);
        {
            let mut off = 0;
            for &f in &self.config.observed_fields {
                let start = f * field_len;
                for j in 0..n_ens {
                    let col = x.col(j);
                    y.col_mut(j)[off..off + field_len]
                        .copy_from_slice(&col[start..start + field_len]);
                }
                d[off..off + field_len].copy_from_slice(data_ext.residuals[f].as_slice());
                let var = self.config.sigma_amplitude * self.config.sigma_amplitude;
                for v in &mut obs_var[off..off + field_len] {
                    *v = var;
                }
                off += field_len;
            }
            let t_start = n_fields * field_len;
            for j in 0..n_ens {
                let col = x.col(j);
                y.col_mut(j)[off..off + 2 * ctrl_len]
                    .copy_from_slice(&col[t_start..t_start + 2 * ctrl_len]);
            }
            d[off..off + ctrl_len].copy_from_slice(data_ext.t.control.u.as_slice());
            d[off + ctrl_len..off + 2 * ctrl_len].copy_from_slice(data_ext.t.control.v.as_slice());
            let var = self.config.sigma_displacement * self.config.sigma_displacement;
            for v in &mut obs_var[off..off + 2 * ctrl_len] {
                *v = var;
            }
        }

        // --- Inner EnKF on the extended ensemble. -------------------------
        let filter = EnsembleKalmanFilter::new(self.config.enkf);
        filter.analyze_ws(x, y, d, obs_var, rng, &mut ws.enkf)?;

        // --- Unpack and morph back. ---------------------------------------
        let grid = reference[0].grid();
        let ctrl_grid = data_ext.t.control.grid();
        let mut out = Vec::with_capacity(n_ens);
        for j in 0..n_ens {
            let col = x.col(j);
            let mut off = 0;
            let mut residuals = Vec::with_capacity(n_fields);
            for f in 0..n_fields {
                let r = Field2::from_vec(reference[f].grid(), col[off..off + field_len].to_vec());
                residuals.push(r);
                off += field_len;
            }
            let tu = Field2::from_vec(ctrl_grid, col[off..off + ctrl_len].to_vec());
            off += ctrl_len;
            let tv = Field2::from_vec(ctrl_grid, col[off..off + ctrl_len].to_vec());
            let t = DisplacementField {
                control: wildfire_grid::VectorField2::new(tu, tv)?,
            };
            let ext = ExtendedState { residuals, t };
            let fields = self.from_extended(&ext, reference);
            debug_assert_eq!(fields[0].grid(), grid);
            out.push(fields);
        }
        Ok(out)
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
        let ext = filter.to_extended(&member, &reference, 0).unwrap();
        let back = filter.from_extended(&ext, &reference);
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
        let analyzed = filter
            .analyze(&members, &reference, &data, 0, &mut rng)
            .unwrap();
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
        let analyzed = filter
            .analyze(&members, &reference, &data, 0, &mut rng)
            .unwrap();
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
        let analyzed = filter
            .analyze(&members, &reference, &data, 0, &mut rng)
            .unwrap();
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
            .map(|m| filter.to_extended(m, &reference, 0).unwrap())
            .collect();
        let data_ext = filter.to_extended(&data, &reference, 0).unwrap();

        let mut rng_a = GaussianSampler::new(97);
        let alloc = filter
            .analyze_extended(&extended, &data_ext, &reference, &mut rng_a)
            .unwrap();
        let mut rng_b = GaussianSampler::new(97);
        let mut ws = MorphingWorkspace::new();
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
                filter.to_extended(&member, &reference, 0).unwrap()
            })
            .collect();
        let data_ext = filter.to_extended(&[cone(40.0)], &reference, 0).unwrap();
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
                filter
                    .to_extended(&[cone(c, 30.0), cone(c, 30.0)], &reference, 0)
                    .unwrap()
            })
            .collect();
        let data_ext = filter
            .to_extended(&[cone(40.0, 30.0), cone(40.0, 30.0)], &reference, 0)
            .unwrap();
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
            filter.analyze(&one, &reference, &reference.clone(), 0, &mut rng),
            Err(EnkfError::EnsembleTooSmall)
        ));
        let two = vec![vec![cone(30.0, 30.0)], vec![cone(31.0, 30.0)]];
        assert!(filter
            .analyze(&two, &reference, &reference.clone(), 5, &mut rng)
            .is_err());
    }
}
