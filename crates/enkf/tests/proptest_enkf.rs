//! Property-based tests on the filters and the morphing algebra.

use proptest::prelude::*;
use wildfire_enkf::morph::{morph, residual};
use wildfire_enkf::registration::DisplacementField;
use wildfire_enkf::{AnalysisWorkspace, EnkfConfig, EnsembleKalmanFilter, Etkf};
use wildfire_grid::{Field2, Grid2};
use wildfire_math::{stats, GaussianSampler, Matrix};

proptest! {
    /// EnKF analysis keeps the ensemble finite and moves its mean into the
    /// interval spanned by (prior mean, data) for identity observations.
    #[test]
    fn enkf_mean_moves_toward_data(
        seed in 0u64..500,
        prior_mean in -5.0f64..5.0,
        data_val in -5.0f64..5.0,
        obs_var in 0.01f64..4.0,
    ) {
        let mut rng = GaussianSampler::new(seed);
        let n = 6;
        let n_ens = 40;
        let mut x = Matrix::zeros(n, n_ens);
        for j in 0..n_ens {
            for i in 0..n {
                x[(i, j)] = prior_mean + rng.standard_normal();
            }
        }
        let y = x.clone();
        let data = vec![data_val; n];
        EnsembleKalmanFilter::default()
            .analyze_ws(&mut x, &y, &data, &vec![obs_var; n], &mut rng, &mut AnalysisWorkspace::new())
            .unwrap();
        prop_assert!(x.all_finite());
        let post_mean: f64 = x.col_mean().iter().sum::<f64>() / n as f64;
        // Posterior mean lies between prior mean and data (with sampling
        // slack proportional to the spread).
        let lo = prior_mean.min(data_val) - 0.8;
        let hi = prior_mean.max(data_val) + 0.8;
        prop_assert!(post_mean >= lo && post_mean <= hi,
            "posterior mean {post_mean} outside [{lo}, {hi}]");
    }

    /// ETKF never increases ensemble spread with any positive obs error.
    #[test]
    fn etkf_never_inflates_spread(seed in 0u64..500, obs_var in 0.01f64..100.0) {
        let mut rng = GaussianSampler::new(seed);
        let mut x = rng.normal_matrix(5, 15, 1.0);
        let y = x.clone();
        let before = stats::ensemble_spread(&x);
        Etkf::new(1.0)
            .analyze_ws(&mut x, &y, &[0.0; 5], &[obs_var; 5], &mut AnalysisWorkspace::new())
            .unwrap();
        let after = stats::ensemble_spread(&x);
        prop_assert!(after <= before + 1e-9, "{before} -> {after}");
        prop_assert!(x.all_finite());
    }

    /// The stochastic filter with enormous observation error is ≈ identity
    /// on the ensemble mean.
    #[test]
    fn enkf_huge_obs_error_is_identity(seed in 0u64..500) {
        let mut rng = GaussianSampler::new(seed);
        let x0 = rng.normal_matrix(4, 20, 1.0);
        let mut x = x0.clone();
        let y = x0.clone();
        EnsembleKalmanFilter::new(EnkfConfig { inflation: 1.0, ridge: 0.0 })
            .analyze_ws(&mut x, &y, &[0.0; 4], &[1e14; 4], &mut rng, &mut AnalysisWorkspace::new())
            .unwrap();
        let m0 = x0.col_mean();
        let m1 = x.col_mean();
        for (a, b) in m0.iter().zip(m1.iter()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Morphing endpoints: λ=0 reproduces the reference exactly for any
    /// residual and displacement.
    #[test]
    fn morph_lambda_zero_is_reference(
        shift_x in -6.0f64..6.0,
        shift_y in -6.0f64..6.0,
        amp in -2.0f64..2.0,
    ) {
        let g = Grid2::new(21, 21, 1.0, 1.0).unwrap();
        let u0 = Field2::from_world_fn(g, |x, y| (0.3 * x).sin() + (0.2 * y).cos());
        let r = Field2::from_world_fn(g, |x, _| amp * (0.1 * x).cos());
        let mut t = DisplacementField::zero(g, 3);
        for iy in 0..3 {
            for ix in 0..3 {
                t.control.set(ix, iy, (shift_x, shift_y));
            }
        }
        let m0 = morph(&u0, &r, &t, 0.0);
        prop_assert!(u0.rmse(&m0).unwrap() < 1e-12);
    }

    /// Residual + morph λ=1 reconstructs the original field in the interior
    /// for pure translations (discrete-composition error only).
    #[test]
    fn morph_reconstruction_interior(shift in -5.0f64..5.0) {
        let g = Grid2::new(41, 41, 1.0, 1.0).unwrap();
        let mk = |c: f64| Field2::from_world_fn(g, move |x, y| {
            (-((x - c).powi(2) + (y - 20.0_f64).powi(2)) / 100.0).exp()
        });
        let u0 = mk(20.0);
        let u = mk(20.0 - shift);
        let mut t = DisplacementField::zero(g, 3);
        for iy in 0..3 {
            for ix in 0..3 {
                t.control.set(ix, iy, (shift, 0.0));
            }
        }
        let r = residual(&u, &u0, &t);
        let m1 = morph(&u0, &r, &t, 1.0);
        let margin = (shift.abs().ceil() as usize) + 2;
        let mut max_err = 0.0_f64;
        for iy in margin..41 - margin {
            for ix in margin..41 - margin {
                max_err = max_err.max((m1.get(ix, iy) - u.get(ix, iy)).abs());
            }
        }
        prop_assert!(max_err < 0.05, "reconstruction error {max_err}");
    }
}
