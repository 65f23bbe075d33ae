//! The stochastic ensemble Kalman filter with perturbed observations
//! (Evensen 2003) — the paper's reference filter.
//!
//! States are the columns of an `n × N` matrix. With the perturbed
//! innovations `δ_j = d + ε_j − y_j` (the columns of `Δ`, `m × N`) the
//! analysis is `X ← X + A·W`, `W = HAᵀ(HA·HAᵀ/(N−1) + R)⁻¹Δ/(N−1)`, i.e.
//! the ensemble is replaced by linear combinations of its members —
//! exactly the "least squares problem to balance the change in the state
//! and the difference from the data" of §3.3.
//!
//! `R` is diagonal and `N ≪ m` on every workload (25 members against a
//! whole residual field), so the weights are computed in *ensemble space*
//! through the Sherman–Morrison–Woodbury identity: with the whitened
//! `S̃ = R^{-1/2}·HA` and `Δ̃ = R^{-1/2}·Δ`,
//!
//! ```text
//! M = I + S̃ᵀS̃/(N−1)          (N × N, SPD, λ_min ≥ 1 whatever the ensemble rank)
//! W = M⁻¹·S̃ᵀΔ̃/(N−1)
//! ```
//!
//! which is the same analysis at `O(mN² + N³)` instead of `O(m³ + m²N)` and
//! never forms an `m × m` matrix. The observation-space form survives only
//! as the test oracle of this module.

use crate::workspace::AnalysisWorkspace;
use crate::{EnkfError, Result};
use std::ops::Range;
use wildfire_math::{Cholesky, GaussianSampler, Matrix};

/// Configuration of the stochastic EnKF.
#[derive(Debug, Clone, Copy)]
pub struct EnkfConfig {
    /// Multiplicative covariance inflation applied to the forecast
    /// anomalies before the analysis (1.0 = none). Compensates for the
    /// spread deficit of small ensembles.
    pub inflation: f64,
    /// Additive jitter on the observation error variances, as a fraction
    /// of their mean — a regularization backstop against rank-deficient
    /// ensembles (cf. the paper's reference \[7\]).
    pub ridge: f64,
}

impl Default for EnkfConfig {
    fn default() -> Self {
        EnkfConfig {
            inflation: 1.0,
            ridge: 1e-10,
        }
    }
}

/// State rows the in-place analyses update together: a block of anomalies
/// (`ROW_BLOCK × N`) stays cache-resident while it is combined.
pub(crate) const ROW_BLOCK: usize = 64;

/// Loads the anomaly block `A_blk = inflation·(X_blk − x̄_blk)` of the state
/// rows `rows` into `a` (`rows.len() × N`). Shared by both filters' in-place
/// updates; the arithmetic is that of `Matrix::anomalies_into` followed by
/// `Matrix::scale_mut` (a product with 1.0 is exact, so inflation 1 changes
/// no bit).
pub(crate) fn anomaly_block(
    ensemble: &Matrix,
    mean: &[f64],
    inflation: f64,
    rows: Range<usize>,
    a: &mut Matrix,
) {
    a.resize_no_zero(rows.len(), ensemble.cols());
    let mean = &mean[rows.clone()];
    for k in 0..ensemble.cols() {
        let x = &ensemble.col(k)[rows.clone()];
        for ((v, &xi), &m) in a.col_mut(k).iter_mut().zip(x).zip(mean) {
            *v = (xi - m) * inflation;
        }
    }
}

/// `X ← X + A·W` in place, block by block of [`ROW_BLOCK`] rows, with
/// `A = inflation·(X − x̄)`; when `inflation ≠ 1` each block of `X` is first
/// rebuilt as `x̄ + A`. `a` and `u` are block scratch. Bit-identical to
/// forming the `n × N` matrices `A` and `A·W` and adding (the
/// `matmul_into`/`axpy_mut` order): each output column accumulates
/// `W[k, j]·A[:, k]` for ascending `k`, skipping exact zeros.
pub(crate) fn add_anomaly_update(
    ensemble: &mut Matrix,
    mean: &[f64],
    inflation: f64,
    w: &Matrix,
    a: &mut Matrix,
    u: &mut Vec<f64>,
) -> Result<()> {
    let (n, n_ens) = ensemble.dims();
    for r0 in (0..n).step_by(ROW_BLOCK) {
        let rows = r0..n.min(r0 + ROW_BLOCK);
        anomaly_block(ensemble, mean, inflation, rows.clone(), a);
        u.resize(rows.len(), 0.0);
        for j in 0..n_ens {
            let x = &mut ensemble.col_mut(j)[rows.clone()];
            if inflation != 1.0 {
                for ((xi, &m), &ai) in x.iter_mut().zip(&mean[rows.clone()]).zip(a.col(j)) {
                    *xi = m + ai;
                }
            }
            a.matvec_into(w.col(j), u)?;
            for (xi, &ui) in x.iter_mut().zip(u.iter()) {
                *xi += ui;
            }
        }
    }
    Ok(())
}

/// Input checks shared by the stochastic filter and the ETKF, made before
/// the ensemble or an RNG is touched. `Ok(false)` means the inputs are
/// consistent but there is nothing to assimilate.
pub(crate) fn check_inputs(
    ensemble: &Matrix,
    synthetic: &Matrix,
    data: &[f64],
    obs_var: &[f64],
) -> Result<bool> {
    let (n, n_ens) = ensemble.dims();
    let (m, n_ens2) = synthetic.dims();
    if n_ens < 2 {
        return Err(EnkfError::EnsembleTooSmall);
    }
    if n_ens2 != n_ens {
        return Err(EnkfError::DimensionMismatch {
            what: "synthetic-data ensemble size differs from state ensemble size",
        });
    }
    if data.len() != m || obs_var.len() != m {
        return Err(EnkfError::DimensionMismatch {
            what: "data/obs_var length differs from synthetic data rows",
        });
    }
    // Both filters scale by 1/√R: a zero, negative or non-finite variance
    // would become a silent ∞/NaN weight.
    if let Some(row) = obs_var.iter().position(|&v| !(v > 0.0 && v.is_finite())) {
        return Err(EnkfError::NonPositiveObsVariance { row });
    }
    Ok(m > 0 && n > 0)
}

/// The stochastic EnKF.
#[derive(Debug, Clone, Default)]
pub struct EnsembleKalmanFilter {
    /// Filter configuration.
    pub config: EnkfConfig,
}

impl EnsembleKalmanFilter {
    /// Creates a filter with the given configuration.
    pub fn new(config: EnkfConfig) -> Self {
        EnsembleKalmanFilter { config }
    }

    /// Performs one analysis step in place.
    ///
    /// * `ensemble` — state matrix `X` (`n × N`), one member per column;
    /// * `synthetic` — observed ensemble `Y = h(X)` (`m × N`), one synthetic
    ///   observation vector per member (computed by the caller's
    ///   observation function — the model stays a black box);
    /// * `data` — the real observation vector `d` (`m`);
    /// * `obs_var` — observation error variances (diagonal of `R`, `m`),
    ///   each positive and finite;
    /// * `rng` — source of the observation perturbations;
    /// * `ws` — every dense temporary, sized on the first call with a given
    ///   shape and reused thereafter (zero heap allocation in steady state).
    ///
    /// The ensemble-space weights `W` depend only on `HA`, the data and
    /// `R`, so they are computed first; `X` is then updated in place, one
    /// block of rows at a time, and no `n × N` temporary exists.
    ///
    /// # Errors
    /// Dimension mismatches, ensembles smaller than 2,
    /// [`EnkfError::NonPositiveObsVariance`], and linear-algebra failures.
    /// The first three are returned before `ensemble` or `rng` is touched.
    pub fn analyze_ws(
        &self,
        ensemble: &mut Matrix,
        synthetic: &Matrix,
        data: &[f64],
        obs_var: &[f64],
        rng: &mut GaussianSampler,
        ws: &mut AnalysisWorkspace,
    ) -> Result<()> {
        if !check_inputs(ensemble, synthetic, data, obs_var)? {
            return Ok(());
        }
        let n_ens = ensemble.cols();
        let m = synthetic.rows();

        ensemble.col_mean_into(&mut ws.mean_x);
        synthetic.anomalies_into(&mut ws.ha, &mut ws.mean_y);

        // R̃^{-1/2} with R̃ = R + ridge·mean(R).
        let mean_var = obs_var.iter().sum::<f64>() / m as f64;
        let jitter = self.config.ridge * mean_var.max(f64::MIN_POSITIVE);
        let inv_sqrt_r = &mut ws.innov;
        inv_sqrt_r.clear();
        inv_sqrt_r.extend(obs_var.iter().map(|&v| 1.0 / (v + jitter).sqrt()));

        // Whitened observation anomalies S̃ = R̃^{-1/2}·HA, in place.
        for j in 0..n_ens {
            for (v, &r) in ws.ha.col_mut(j).iter_mut().zip(inv_sqrt_r.iter()) {
                *v *= r;
            }
        }
        let s = &ws.ha;

        // Whitened perturbed innovations Δ̃ (m × N): δ_j = d + ε_j − y_j.
        let delta = &mut ws.delta;
        delta.resize_no_zero(m, n_ens);
        for j in 0..n_ens {
            let y = synthetic.col(j);
            for (i, v) in delta.col_mut(j).iter_mut().enumerate() {
                let eps = rng.normal(0.0, obs_var[i].sqrt());
                *v = (data[i] + eps - y[i]) * inv_sqrt_r[i];
            }
        }

        // M = I + S̃ᵀS̃/(N−1), W = M⁻¹·S̃ᵀΔ̃/(N−1).
        let scale = 1.0 / (n_ens as f64 - 1.0);
        let m_mat = &mut ws.c;
        s.tr_matmul_into(s, m_mat)?;
        m_mat.scale_mut(scale);
        m_mat.add_diagonal_mut(1.0);
        Cholesky::factor_into(m_mat, &mut ws.l)?;
        let w = &mut ws.w;
        s.tr_matmul_into(delta, w)?;
        w.scale_mut(scale);
        for j in 0..n_ens {
            Cholesky::solve_in_place_with(&ws.l, w.col_mut(j));
        }

        // X ← X + A·W, with the inflated ensemble rebuilt around its mean.
        add_anomaly_update(
            ensemble,
            &ws.mean_x,
            self.config.inflation,
            w,
            &mut ws.a,
            &mut ws.update,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wildfire_math::stats;

    /// The observation-space form of the same analysis — the oracle the
    /// ensemble-space solver is checked against: forms and Cholesky-factors
    /// the `m × m` innovation covariance `HA·HAᵀ/(N−1) + R̃` and solves it
    /// once per member. Draws its perturbations in the production order.
    fn analyze_in_observation_space(
        config: EnkfConfig,
        ensemble: &mut Matrix,
        synthetic: &Matrix,
        data: &[f64],
        obs_var: &[f64],
        rng: &mut GaussianSampler,
    ) {
        let (n, n_ens) = ensemble.dims();
        let m = synthetic.rows();
        let (mut a, mean_x) = ensemble.anomalies();
        if config.inflation != 1.0 {
            a.scale_mut(config.inflation);
            for j in 0..n_ens {
                for i in 0..n {
                    ensemble[(i, j)] = mean_x[i] + a[(i, j)];
                }
            }
        }
        let (ha, _) = synthetic.anomalies();
        let scale = 1.0 / (n_ens as f64 - 1.0);
        let mut c = Matrix::from_fn(m, m, |i, k| {
            (0..n_ens).map(|j| ha[(i, j)] * ha[(k, j)]).sum::<f64>()
        });
        c.scale_mut(scale);
        let mean_var = obs_var.iter().sum::<f64>() / m as f64;
        for i in 0..m {
            c[(i, i)] += obs_var[i] + config.ridge * mean_var.max(f64::MIN_POSITIVE);
        }
        let chol = Cholesky::new(&c).unwrap();
        let mut delta = Matrix::zeros(m, n_ens);
        for j in 0..n_ens {
            for i in 0..m {
                let eps = rng.normal(0.0, obs_var[i].sqrt());
                delta[(i, j)] = data[i] + eps - synthetic[(i, j)];
            }
        }
        let mut z = delta;
        for j in 0..n_ens {
            Cholesky::solve_in_place_with(chol.l(), z.col_mut(j));
        }
        let (mut w, mut aw) = (Matrix::default(), Matrix::default());
        ha.tr_matmul_into(&z, &mut w).unwrap();
        w.scale_mut(scale);
        a.matmul_into(&w, &mut aw).unwrap();
        ensemble.axpy_mut(1.0, &aw).unwrap();
    }

    /// Same inputs and seed through the production filter and the oracle:
    /// returns `max|Δx| / max|x|`, and checks that both consumed the RNG
    /// identically (the next draws agree).
    fn relative_difference_from_oracle(
        (n, m, n_ens): (usize, usize, usize),
        config: EnkfConfig,
        var_range: (f64, f64),
        seed: u64,
    ) -> f64 {
        let mut init = GaussianSampler::new(seed);
        let x0 = init.normal_matrix(n, n_ens, 2.0);
        // A dense random observation operator, so that m may exceed n.
        let h = init.normal_matrix(m, n, 1.0);
        let mut y0 = Matrix::default();
        h.matmul_into(&x0, &mut y0).unwrap();
        let data: Vec<f64> = (0..m).map(|_| init.normal(1.0, 2.0)).collect();
        let (lo, hi) = (var_range.0.ln(), var_range.1.ln());
        let obs_var: Vec<f64> = (0..m).map(|_| init.uniform(lo, hi).exp()).collect();

        let mut x = x0.clone();
        let mut rng = GaussianSampler::new(seed ^ 0x5eed);
        EnsembleKalmanFilter::new(config)
            .analyze_ws(
                &mut x,
                &y0,
                &data,
                &obs_var,
                &mut rng,
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();
        let mut x_ref = x0;
        let mut rng_ref = GaussianSampler::new(seed ^ 0x5eed);
        analyze_in_observation_space(config, &mut x_ref, &y0, &data, &obs_var, &mut rng_ref);
        assert_eq!(
            rng.standard_normal().to_bits(),
            rng_ref.standard_normal().to_bits(),
            "draw count differs from the oracle's"
        );
        let diff = x
            .as_slice()
            .iter()
            .zip(x_ref.as_slice())
            .fold(0.0_f64, |d, (a, b)| d.max((a - b).abs()));
        diff / x_ref.max_abs()
    }

    /// Pinned shapes: `m < N`, `m = N`, `m ≫ N`, the smallest ensemble
    /// `N = 2`, and the morphing filter's proportions (a quarter of its
    /// benchmark-domain size, so the oracle's `m³` stays cheap in a debug
    /// run) with variances spanning eight decades.
    #[test]
    fn ensemble_space_solver_matches_observation_space_oracle() {
        for (shape, var_range) in [
            ((30, 3, 8), (1e-3, 1e3)),
            ((30, 8, 8), (1e-3, 1e3)),
            ((12, 90, 5), (1e-3, 1e3)),
            ((9, 1, 2), (1e-3, 1e3)),
            ((9, 40, 2), (1e-3, 1e3)),
            ((660, 336, 25), (1e-4, 1e4)),
        ] {
            for inflation in [1.0, 1.2] {
                for ridge in [0.0, EnkfConfig::default().ridge] {
                    let config = EnkfConfig { inflation, ridge };
                    let rel = relative_difference_from_oracle(shape, config, var_range, 17);
                    assert!(
                        rel <= 1e-6,
                        "{shape:?} {config:?}: relative difference {rel}"
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn ensemble_space_solver_matches_oracle_on_random_shapes(
            n in 1usize..40,
            n_ens in 2usize..12,
            // Observation rows relative to the ensemble size: fewer, as
            // many, or many more.
            m_class in 0usize..3,
            m_extra in 1usize..60,
            inflated in 0usize..2,
            ridged in 0usize..2,
            seed in 0u64..10_000,
        ) {
            let m = match m_class {
                0 => 1 + m_extra % (n_ens - 1),
                1 => n_ens,
                _ => n_ens + m_extra,
            };
            let config = EnkfConfig {
                inflation: [1.0, 1.2][inflated],
                ridge: [0.0, EnkfConfig::default().ridge][ridged],
            };
            let rel = relative_difference_from_oracle((n, m, n_ens), config, (1e-3, 1e3), seed);
            prop_assert!(rel <= 1e-6, "n={n} m={m} N={n_ens} {config:?}: {rel}");
        }

        /// The in-place block update lands on the bits of the two-matrix
        /// form, over state sizes across and between block boundaries,
        /// with and without inflation, and with exact zeros in `W`.
        #[test]
        fn in_place_update_matches_two_matrix_oracle_bitwise(
            n in 1usize..300,
            n_ens in 2usize..12,
            inflated in 0usize..2,
            zero_every in 0usize..4,
            seed in 0u64..10_000,
        ) {
            let mut rng = GaussianSampler::new(seed);
            let x0 = rng.normal_matrix(n, n_ens, 2.0);
            let mut w = rng.normal_matrix(n_ens, n_ens, 0.5);
            if zero_every > 0 {
                for v in w.as_mut_slice().iter_mut().step_by(zero_every) {
                    *v = 0.0;
                }
            }
            let inflation = [1.0, rng.uniform(1.0, 1.5)][inflated];

            let mut x = x0.clone();
            let mut ws = AnalysisWorkspace::new();
            x.col_mean_into(&mut ws.mean_x);
            add_anomaly_update(&mut x, &ws.mean_x, inflation, &w, &mut ws.a, &mut ws.update)
                .unwrap();
            let mut x_ref = x0;
            add_anomaly_update_two_matrix(&mut x_ref, inflation, &w);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert!(bits(&x) == bits(&x_ref), "n={n} N={n_ens} inflation {inflation}");
        }
    }

    /// The update as it was before it went in place — anomalies `A` and
    /// the update `A·W` as whole `n × N` matrices: the oracle of
    /// [`add_anomaly_update`].
    fn add_anomaly_update_two_matrix(ensemble: &mut Matrix, inflation: f64, w: &Matrix) {
        let (n, n_ens) = ensemble.dims();
        let (mut a, mut mean, mut update) = (Matrix::default(), Vec::new(), Matrix::default());
        ensemble.anomalies_into(&mut a, &mut mean);
        if inflation != 1.0 {
            a.scale_mut(inflation);
            for j in 0..n_ens {
                for i in 0..n {
                    ensemble[(i, j)] = mean[i] + a[(i, j)];
                }
            }
        }
        a.matmul_into(w, &mut update).unwrap();
        ensemble.axpy_mut(1.0, &update).unwrap();
    }

    /// A zero, negative or non-finite observation variance is a typed error
    /// raised before the inflation rewrites the ensemble or a perturbation
    /// is drawn.
    #[test]
    fn hostile_obs_variance_is_rejected_before_anything_is_touched() {
        let mut rng = GaussianSampler::new(19);
        let x0 = rng.normal_matrix(5, 6, 1.0);
        let y = x0.submatrix(0, 3, 0, 6);
        let filter = EnsembleKalmanFilter::new(EnkfConfig {
            inflation: 1.2,
            ..Default::default()
        });
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut x = x0.clone();
            let rng_before = rng.state();
            let err = filter.analyze_ws(
                &mut x,
                &y,
                &[0.0; 3],
                &[0.5, 0.5, bad],
                &mut rng,
                &mut AnalysisWorkspace::new(),
            );
            assert_eq!(err, Err(EnkfError::NonPositiveObsVariance { row: 2 }));
            assert!(err.unwrap_err().to_string().contains("row 2"));
            assert_eq!(x, x0, "ensemble touched for variance {bad}");
            assert_eq!(rng.state(), rng_before, "rng touched for variance {bad}");
        }
    }

    /// Scalar linear-Gaussian case: the EnKF analysis must match the exact
    /// Kalman filter in the large-ensemble limit. (`N` is the dimension the
    /// solver factors, so the ensemble is kept at a few hundred members.)
    #[test]
    fn scalar_case_matches_kalman_filter() {
        let mut rng = GaussianSampler::new(42);
        let n_ens = 400;
        let prior_mean = 1.0;
        let prior_var: f64 = 4.0;
        let obs = 3.0;
        let obs_var = 1.0;

        let mut x = Matrix::zeros(1, n_ens);
        for j in 0..n_ens {
            x[(0, j)] = rng.normal(prior_mean, prior_var.sqrt());
        }
        let y = x.clone(); // identity observation operator

        let filter = EnsembleKalmanFilter::default();
        filter
            .analyze_ws(
                &mut x,
                &y,
                &[obs],
                &[obs_var],
                &mut rng,
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();

        // Exact posterior: K = 4/5; mean = 1 + K(3−1) = 2.6; var = (1−K)·4 = 0.8.
        let vals = x.row(0);
        let mean = stats::mean(&vals);
        let var = stats::variance(&vals);
        assert!((mean - 2.6).abs() < 0.1, "posterior mean {mean}");
        assert!((var - 0.8).abs() < 0.1, "posterior variance {var}");
    }

    #[test]
    fn analysis_pulls_ensemble_toward_data() {
        let mut rng = GaussianSampler::new(7);
        let n = 20;
        let n_ens = 30;
        // Prior ensemble centered at 0; truth at 5.
        let mut x = rng.normal_matrix(n, n_ens, 1.0);
        let y = x.clone();
        let data = vec![5.0; n];
        let obs_var = vec![0.25; n];
        let before: f64 = x.col_mean().iter().sum::<f64>() / n as f64;
        EnsembleKalmanFilter::default()
            .analyze_ws(
                &mut x,
                &y,
                &data,
                &obs_var,
                &mut rng,
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();
        let after: f64 = x.col_mean().iter().sum::<f64>() / n as f64;
        assert!(before.abs() < 0.5);
        assert!(after > 2.0, "analysis mean {after} should move toward 5");
        assert!(x.all_finite());
    }

    #[test]
    fn analysis_reduces_spread() {
        let mut rng = GaussianSampler::new(9);
        let mut x = rng.normal_matrix(5, 50, 2.0);
        let y = x.clone();
        let data = vec![0.0; 5];
        let obs_var = vec![0.5; 5];
        let spread_before = stats::ensemble_spread(&x);
        EnsembleKalmanFilter::default()
            .analyze_ws(
                &mut x,
                &y,
                &data,
                &obs_var,
                &mut rng,
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();
        let spread_after = stats::ensemble_spread(&x);
        assert!(
            spread_after < spread_before,
            "spread must shrink: {spread_before} → {spread_after}"
        );
    }

    #[test]
    fn partial_observation_updates_unobserved_via_correlation() {
        // Two perfectly correlated components; only the first is observed.
        let mut rng = GaussianSampler::new(11);
        let n_ens = 200;
        let mut x = Matrix::zeros(2, n_ens);
        for j in 0..n_ens {
            let v = rng.normal(0.0, 1.0);
            x[(0, j)] = v;
            x[(1, j)] = v; // copy: correlation 1
        }
        let y = x.submatrix(0, 1, 0, n_ens);
        EnsembleKalmanFilter::default()
            .analyze_ws(
                &mut x,
                &y,
                &[4.0],
                &[0.01],
                &mut rng,
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();
        let m0 = stats::mean(&x.row(0));
        let m1 = stats::mean(&x.row(1));
        assert!((m0 - 4.0).abs() < 0.3, "observed component {m0}");
        assert!(
            (m1 - 4.0).abs() < 0.3,
            "unobserved component {m1} must follow"
        );
    }

    #[test]
    fn inflation_increases_prior_spread() {
        let mut rng = GaussianSampler::new(13);
        let x0 = rng.normal_matrix(4, 40, 1.0);
        let run = |inflation: f64, rng: &mut GaussianSampler| {
            let mut x = x0.clone();
            let y = x.clone();
            let f = EnsembleKalmanFilter::new(EnkfConfig {
                inflation,
                ..Default::default()
            });
            // Huge obs error → analysis ≈ prior, exposing the inflation.
            f.analyze_ws(
                &mut x,
                &y,
                &[0.0; 4],
                &[1e12; 4],
                rng,
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();
            stats::ensemble_spread(&x)
        };
        let s1 = run(1.0, &mut rng);
        let s2 = run(1.5, &mut rng);
        assert!(
            (s2 / s1 - 1.5).abs() < 0.05,
            "inflation ratio {} should be ≈1.5",
            s2 / s1
        );
    }

    #[test]
    fn workspace_analysis_matches_allocating_analysis_bitwise() {
        let mut rng_init = GaussianSampler::new(101);
        let filter = EnsembleKalmanFilter::new(EnkfConfig {
            inflation: 1.2,
            ..Default::default()
        });
        let mut ws = AnalysisWorkspace::new();
        // Two rounds with different shapes through ONE workspace: the second
        // round checks the resize path stays bit-identical too.
        for (n, m, n_ens) in [(60, 12, 10), (90, 20, 14)] {
            let x0 = rng_init.normal_matrix(n, n_ens, 1.0);
            let y0 = x0.submatrix(0, m, 0, n_ens);
            let data: Vec<f64> = (0..m).map(|i| (i as f64 * 0.3).cos()).collect();
            let obs_var = vec![0.4; m];

            let mut x_alloc = x0.clone();
            let mut rng_a = GaussianSampler::new(55);
            filter
                .analyze_ws(
                    &mut x_alloc,
                    &y0,
                    &data,
                    &obs_var,
                    &mut rng_a,
                    &mut AnalysisWorkspace::new(),
                )
                .unwrap();

            let mut x_ws = x0.clone();
            let mut rng_b = GaussianSampler::new(55);
            filter
                .analyze_ws(&mut x_ws, &y0, &data, &obs_var, &mut rng_b, &mut ws)
                .unwrap();
            assert_eq!(
                x_alloc.as_slice(),
                x_ws.as_slice(),
                "workspace path must be bit-identical ({n}x{n_ens}, m={m})"
            );
        }
    }

    #[test]
    fn rejects_bad_dimensions() {
        let mut rng = GaussianSampler::new(1);
        let mut x = Matrix::zeros(3, 10);
        let y = Matrix::zeros(2, 9);
        let err = EnsembleKalmanFilter::default().analyze_ws(
            &mut x,
            &y,
            &[0.0; 2],
            &[1.0; 2],
            &mut rng,
            &mut AnalysisWorkspace::new(),
        );
        assert!(matches!(err, Err(EnkfError::DimensionMismatch { .. })));
        let y2 = Matrix::zeros(2, 10);
        let err2 = EnsembleKalmanFilter::default().analyze_ws(
            &mut x,
            &y2,
            &[0.0; 3],
            &[1.0; 3],
            &mut rng,
            &mut AnalysisWorkspace::new(),
        );
        assert!(matches!(err2, Err(EnkfError::DimensionMismatch { .. })));
    }

    #[test]
    fn rejects_single_member() {
        let mut rng = GaussianSampler::new(1);
        let mut x = Matrix::zeros(3, 1);
        let y = Matrix::zeros(2, 1);
        assert!(matches!(
            EnsembleKalmanFilter::default().analyze_ws(
                &mut x,
                &y,
                &[0.0; 2],
                &[1.0; 2],
                &mut rng,
                &mut AnalysisWorkspace::new()
            ),
            Err(EnkfError::EnsembleTooSmall)
        ));
    }

    #[test]
    fn zero_observations_is_identity() {
        let mut rng = GaussianSampler::new(3);
        let mut x = rng.normal_matrix(4, 6, 1.0);
        let before = x.clone();
        let y = Matrix::zeros(0, 6);
        EnsembleKalmanFilter::default()
            .analyze_ws(
                &mut x,
                &y,
                &[],
                &[],
                &mut rng,
                &mut AnalysisWorkspace::new(),
            )
            .unwrap();
        assert_eq!(x, before);
    }
}
