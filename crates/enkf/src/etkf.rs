//! Deterministic square-root filter (ensemble transform Kalman filter).
//!
//! An extension beyond the paper's stochastic EnKF: the analysis is computed
//! in the `N`-dimensional ensemble space without perturbing the
//! observations, which removes the sampling noise of the stochastic variant
//! at small ensemble sizes. Useful as a cross-check baseline in the filter
//! experiments.

use crate::enkf::{anomaly_block, check_inputs, ROW_BLOCK};
use crate::workspace::AnalysisWorkspace;
use crate::Result;
use wildfire_math::Matrix;

/// `X ← x̄ + A·w̄ + A·M^{-1/2}` in place, block by block of [`ROW_BLOCK`]
/// rows, with `A = inflation·(X − x̄)`; `a`, `dx` and `u` are block scratch.
/// Bit-identical to forming the `n × N` matrices `A` and `A·M^{-1/2}` and
/// the length-`n` `A·w̄` (the `matvec_into`/`matmul_into` order).
#[allow(clippy::too_many_arguments)]
fn transform_in_place(
    ensemble: &mut Matrix,
    mean: &[f64],
    inflation: f64,
    wbar: &[f64],
    m_inv_sqrt: &Matrix,
    a: &mut Matrix,
    dx: &mut Vec<f64>,
    u: &mut Vec<f64>,
) -> Result<()> {
    let (n, n_ens) = ensemble.dims();
    for r0 in (0..n).step_by(ROW_BLOCK) {
        let rows = r0..n.min(r0 + ROW_BLOCK);
        anomaly_block(ensemble, mean, inflation, rows.clone(), a);
        dx.resize(rows.len(), 0.0);
        u.resize(rows.len(), 0.0);
        a.matvec_into(wbar, dx)?;
        for j in 0..n_ens {
            a.matvec_into(m_inv_sqrt.col(j), u)?;
            let x = &mut ensemble.col_mut(j)[rows.clone()];
            for (((xi, &m), &d), &ui) in x
                .iter_mut()
                .zip(&mean[rows.clone()])
                .zip(dx.iter())
                .zip(u.iter())
            {
                *xi = m + d + ui;
            }
        }
    }
    Ok(())
}

/// The ensemble transform Kalman filter.
#[derive(Debug, Clone, Default)]
pub struct Etkf {
    /// Multiplicative inflation applied to the forecast anomalies.
    pub inflation: f64,
}

impl Etkf {
    /// Creates an ETKF with the given inflation (1.0 = none).
    pub fn new(inflation: f64) -> Self {
        Etkf { inflation }
    }

    /// One deterministic analysis step in place. Arguments mirror
    /// [`crate::EnsembleKalmanFilter::analyze_ws`] minus the RNG (no
    /// perturbations are drawn). Every temporary — the observation
    /// anomalies, the scaled observation anomalies, the `N × N`
    /// ensemble-space eigendecomposition (`SymmetricEigen::factor_into`
    /// with Jacobi scratch in `ws`) and a block of state anomalies — comes
    /// from `ws` and is reused across calls, so a steady-state analysis
    /// performs no heap allocation.
    ///
    /// `M^{-1/2}` and the mean weights `w̄` depend only on `HA`, the data
    /// and `R`, so they are computed first; `X` is then rewritten in place,
    /// one block of rows at a time, and no `n × N` temporary exists.
    ///
    /// # Errors
    /// Same classes as the stochastic filter, checked before `ensemble` is
    /// touched.
    pub fn analyze_ws(
        &self,
        ensemble: &mut Matrix,
        synthetic: &Matrix,
        data: &[f64],
        obs_var: &[f64],
        ws: &mut AnalysisWorkspace,
    ) -> Result<()> {
        if !check_inputs(ensemble, synthetic, data, obs_var)? {
            return Ok(());
        }
        let n_ens = ensemble.cols();
        let m = synthetic.rows();
        let inflation = if self.inflation > 0.0 {
            self.inflation
        } else {
            1.0
        };

        ensemble.col_mean_into(&mut ws.mean_x);
        synthetic.anomalies_into(&mut ws.ha, &mut ws.mean_y);

        // S = R^{-1/2} HA / √(N−1)  (m × N), with diagonal R.
        let scale = 1.0 / ((n_ens as f64 - 1.0).sqrt());
        let s = &mut ws.delta;
        s.copy_from(&ws.ha);
        for i in 0..m {
            let inv_sqrt_r = 1.0 / obs_var[i].sqrt();
            for j in 0..n_ens {
                s[(i, j)] *= inv_sqrt_r * scale;
            }
        }
        // Ensemble-space matrix M = I + SᵀS (N × N, SPD).
        let m_mat = &mut ws.c;
        s.tr_matmul_into(s, m_mat)?;
        m_mat.add_diagonal_mut(1.0);
        ws.eig.factor_into(&ws.c, &mut ws.eig_ws)?;
        // M⁻¹ into the (otherwise idle) stochastic-filter weight slot and
        // M^{-1/2} into the Cholesky slot; `c` is free again after the
        // factorization and serves as the map scratch.
        ws.eig
            .map_into(|lam| 1.0 / lam.max(1e-14), &mut ws.c, &mut ws.w);
        let m_inv = &ws.w;
        ws.eig
            .map_into(|lam| 1.0 / lam.max(1e-14).sqrt(), &mut ws.c, &mut ws.l);
        let m_inv_sqrt = &ws.l;

        // Mean weights w̄ = M⁻¹·Sᵀ·R^{-1/2}(d − ȳ)/√(N−1).
        let innov = &mut ws.innov;
        innov.clear();
        innov.resize(m, 0.0);
        for i in 0..m {
            innov[i] = (data[i] - ws.mean_y[i]) / obs_var[i].sqrt() * scale;
        }
        let st_innov = &mut ws.wvec;
        st_innov.clear();
        st_innov.resize(n_ens, 0.0);
        ws.delta.tr_matvec_into(innov, st_innov)?;
        let wbar = &mut ws.wvec2;
        wbar.clear();
        wbar.resize(n_ens, 0.0);
        m_inv.matvec_into(&ws.wvec, wbar)?;

        // Mean update x̄ + A·w̄ and anomaly update A·M^{-1/2} (the symmetric
        // square root keeps the ensemble mean-free).
        transform_in_place(
            ensemble,
            &ws.mean_x,
            inflation,
            &ws.wvec2,
            m_inv_sqrt,
            &mut ws.a,
            &mut ws.xvec,
            &mut ws.update,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnkfError;
    use proptest::prelude::*;
    use wildfire_math::{stats, GaussianSampler};

    /// `N` is the dimension of the eigendecomposition, so the "large
    /// ensemble" stays at a few hundred members.
    #[test]
    fn scalar_case_matches_kalman_filter() {
        let mut rng = GaussianSampler::new(21);
        let n_ens = 400;
        let mut x = Matrix::zeros(1, n_ens);
        for j in 0..n_ens {
            x[(0, j)] = rng.normal(1.0, 2.0);
        }
        let y = x.clone();
        Etkf::new(1.0)
            .analyze_ws(&mut x, &y, &[3.0], &[1.0], &mut AnalysisWorkspace::new())
            .unwrap();
        let vals = x.row(0);
        // Posterior: mean 2.6, var 0.8 (same as the stochastic test).
        assert!((stats::mean(&vals) - 2.6).abs() < 0.1);
        assert!((stats::variance(&vals) - 0.8).abs() < 0.1);
    }

    #[test]
    fn deterministic_repeatability() {
        let mut rng = GaussianSampler::new(5);
        let x0 = rng.normal_matrix(6, 12, 1.0);
        let y0 = x0.clone();
        let mut x1 = x0.clone();
        let mut x2 = x0.clone();
        let f = Etkf::new(1.0);
        f.analyze_ws(
            &mut x1,
            &y0,
            &[1.0; 6],
            &[0.5; 6],
            &mut AnalysisWorkspace::new(),
        )
        .unwrap();
        f.analyze_ws(
            &mut x2,
            &y0,
            &[1.0; 6],
            &[0.5; 6],
            &mut AnalysisWorkspace::new(),
        )
        .unwrap();
        assert_eq!(x1, x2, "ETKF must be deterministic");
    }

    #[test]
    fn mean_preserved_with_infinite_obs_error() {
        let mut rng = GaussianSampler::new(8);
        let x0 = rng.normal_matrix(3, 10, 1.0);
        let mut x = x0.clone();
        let y = x0.clone();
        Etkf::new(1.0)
            .analyze_ws(
                &mut x,
                &y,
                &[100.0; 3],
                &[1e14; 3],
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();
        let m0 = x0.col_mean();
        let m1 = x.col_mean();
        for (a, b) in m0.iter().zip(m1.iter()) {
            assert!((a - b).abs() < 1e-4, "mean must be unchanged: {a} vs {b}");
        }
    }

    #[test]
    fn spread_shrinks_with_accurate_obs() {
        let mut rng = GaussianSampler::new(17);
        let mut x = rng.normal_matrix(4, 20, 2.0);
        let y = x.clone();
        let before = stats::ensemble_spread(&x);
        Etkf::new(1.0)
            .analyze_ws(
                &mut x,
                &y,
                &[0.0; 4],
                &[0.01; 4],
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();
        let after = stats::ensemble_spread(&x);
        assert!(after < 0.2 * before, "{before} → {after}");
    }

    #[test]
    fn workspace_analysis_matches_allocating_analysis_bitwise() {
        let mut rng = GaussianSampler::new(23);
        let x0 = rng.normal_matrix(40, 12, 1.0);
        let y0 = x0.submatrix(0, 8, 0, 12);
        let data: Vec<f64> = (0..8).map(|i| i as f64 * 0.2).collect();
        let obs_var = vec![0.5; 8];
        let f = Etkf::new(1.1);
        // A workspace warmed on another shape against a fresh one.
        let mut ws = AnalysisWorkspace::new();
        let mut warm = rng.normal_matrix(20, 6, 1.0);
        let warm_y = warm.submatrix(0, 5, 0, 6);
        f.analyze_ws(&mut warm, &warm_y, &[0.0; 5], &[1.0; 5], &mut ws)
            .unwrap();
        let mut x_alloc = x0.clone();
        f.analyze_ws(
            &mut x_alloc,
            &y0,
            &data,
            &obs_var,
            &mut AnalysisWorkspace::new(),
        )
        .unwrap();
        let mut x_ws = x0.clone();
        f.analyze_ws(&mut x_ws, &y0, &data, &obs_var, &mut ws)
            .unwrap();
        assert_eq!(x_alloc.as_slice(), x_ws.as_slice());
    }

    /// The transform as it was before it went in place — `A`, `A·M^{-1/2}`
    /// as whole `n × N` matrices and `A·w̄` of length `n`: the oracle of
    /// [`transform_in_place`].
    fn transform_two_matrix(
        ensemble: &mut Matrix,
        inflation: f64,
        wbar: &[f64],
        m_inv_sqrt: &Matrix,
    ) {
        let (n, n_ens) = ensemble.dims();
        let (mut a, mut mean, mut a_new) = (Matrix::default(), Vec::new(), Matrix::default());
        ensemble.anomalies_into(&mut a, &mut mean);
        a.scale_mut(inflation);
        let mut dx = vec![0.0; n];
        a.matvec_into(wbar, &mut dx).unwrap();
        a.matmul_into(m_inv_sqrt, &mut a_new).unwrap();
        for j in 0..n_ens {
            for i in 0..n {
                ensemble[(i, j)] = mean[i] + dx[i] + a_new[(i, j)];
            }
        }
    }

    proptest! {
        /// The in-place block transform lands on the bits of the
        /// two-matrix form, over state sizes across and between block
        /// boundaries, with and without inflation, and with exact zeros in
        /// `w̄` and `M^{-1/2}`.
        #[test]
        fn in_place_transform_matches_two_matrix_oracle_bitwise(
            n in 1usize..300,
            n_ens in 2usize..12,
            inflated in 0usize..2,
            zero_every in 0usize..4,
            seed in 0u64..10_000,
        ) {
            let mut rng = GaussianSampler::new(seed);
            let x0 = rng.normal_matrix(n, n_ens, 2.0);
            let mut t = rng.normal_matrix(n_ens, n_ens, 0.5);
            let mut wbar: Vec<f64> = (0..n_ens).map(|_| rng.normal(0.0, 0.5)).collect();
            if zero_every > 0 {
                for v in t.as_mut_slice().iter_mut().step_by(zero_every) {
                    *v = 0.0;
                }
                for v in wbar.iter_mut().step_by(zero_every) {
                    *v = 0.0;
                }
            }
            let inflation = [1.0, rng.uniform(1.0, 1.5)][inflated];

            let mut x = x0.clone();
            let mut ws = AnalysisWorkspace::new();
            x.col_mean_into(&mut ws.mean_x);
            transform_in_place(
                &mut x, &ws.mean_x, inflation, &wbar, &t, &mut ws.a, &mut ws.xvec, &mut ws.update,
            )
            .unwrap();
            let mut x_ref = x0;
            transform_two_matrix(&mut x_ref, inflation, &wbar, &t);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert!(bits(&x) == bits(&x_ref), "n={n} N={n_ens} inflation {inflation}");
        }
    }

    #[test]
    fn hostile_obs_variance_is_rejected_before_the_ensemble_is_touched() {
        let mut rng = GaussianSampler::new(29);
        let x0 = rng.normal_matrix(5, 6, 1.0);
        let y = x0.submatrix(0, 3, 0, 6);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut x = x0.clone();
            let err = Etkf::new(1.2).analyze_ws(
                &mut x,
                &y,
                &[0.0; 3],
                &[bad, 0.5, 0.5],
                &mut AnalysisWorkspace::new(),
            );
            assert_eq!(err, Err(EnkfError::NonPositiveObsVariance { row: 0 }));
            assert_eq!(x, x0, "ensemble touched for variance {bad}");
        }
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let mut x = Matrix::zeros(3, 5);
        let y = Matrix::zeros(2, 5);
        assert!(Etkf::new(1.0)
            .analyze_ws(&mut x, &y, &[0.0], &[1.0], &mut AnalysisWorkspace::new())
            .is_err());
    }
}
