//! Property-based tests on the fuel model's physical invariants.

use proptest::prelude::*;
use wildfire_fire::{FuelCategory, FuelModel};

fn arb_category() -> impl Strategy<Value = FuelCategory> {
    prop::sample::select(FuelCategory::ALL.to_vec())
}

proptest! {
    /// Spread rate is always within [0, Smax] for any inputs.
    #[test]
    fn spread_rate_bounded(
        cat in arb_category(),
        wind in -100.0f64..100.0,
        slope in -5.0f64..5.0,
    ) {
        let f = FuelModel::for_category(cat);
        let s = f.spread_rate(wind, slope);
        prop_assert!(s >= 0.0);
        prop_assert!(s <= f.max_spread);
    }

    /// Spread rate is monotone non-decreasing in head wind.
    #[test]
    fn spread_monotone_in_wind(
        cat in arb_category(),
        w1 in 0.0f64..30.0,
        dw in 0.0f64..30.0,
        slope in -1.0f64..1.0,
    ) {
        let f = FuelModel::for_category(cat);
        prop_assert!(f.spread_rate(w1 + dw, slope) >= f.spread_rate(w1, slope) - 1e-12);
    }

    /// Mass fraction is in [0, 1], equals 1 before ignition, and is
    /// monotone non-increasing in time.
    #[test]
    fn mass_fraction_invariants(cat in arb_category(), t1 in 0.0f64..2000.0, dt in 0.0f64..2000.0) {
        let f = FuelModel::for_category(cat);
        let m1 = f.mass_fraction(t1);
        let m2 = f.mass_fraction(t1 + dt);
        prop_assert!((0.0..=1.0).contains(&m1));
        prop_assert!(m2 <= m1 + 1e-12);
        prop_assert_eq!(f.mass_fraction(-t1 - 1.0), 1.0);
    }

    /// Heat fluxes are nonnegative and their total equals burning rate
    /// times heat content.
    #[test]
    fn heat_flux_consistency(cat in arb_category(), t in 0.01f64..1000.0) {
        let f = FuelModel::for_category(cat);
        let hf = f.heat_fluxes(t);
        prop_assert!(hf.sensible >= 0.0);
        prop_assert!(hf.latent >= 0.0);
        let expected = f.burning_rate(t) * f.heat_content;
        prop_assert!((hf.total() - expected).abs() <= 1e-9 * expected.max(1.0));
    }
}
