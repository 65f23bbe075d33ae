//! Planck radiometry over the sensor band.
//!
//! The paper's camera (RIT's WASP system) images the mid-wave infrared,
//! 3–5 µm. Band radiances are integrals of the Planck spectral radiance;
//! Gauss–Legendre quadrature evaluates them to high accuracy with a handful
//! of nodes, and a bisection inverse recovers brightness temperature from a
//! measured band radiance.

use wildfire_math::quadrature::{integrate, FixedRule};

/// First radiation constant `2hc²` (W·m²).
pub const C1: f64 = 1.191042972e-16;
/// Second radiation constant `hc/k_B` (m·K).
pub const C2: f64 = 1.438776877e-2;
/// Stefan–Boltzmann constant (W·m⁻²·K⁻⁴).
pub const STEFAN_BOLTZMANN: f64 = 5.670374419e-8;

/// Planck spectral radiance `B(λ, T)` in W·m⁻²·sr⁻¹·m⁻¹ (per meter of
/// wavelength), with λ in meters and T in kelvin. Zero for non-positive
/// temperature or wavelength.
pub(crate) fn planck(lambda: f64, t: f64) -> f64 {
    if t <= 0.0 || lambda <= 0.0 {
        return 0.0;
    }
    let x = C2 / (lambda * t);
    // Guard against overflow for short wavelengths / low temperatures.
    if x > 700.0 {
        return 0.0;
    }
    C1 / (lambda.powi(5) * (x.exp() - 1.0))
}

/// Quadrature order of the band-radiance integral (and of the rules the
/// per-pixel path builds once per render).
pub const BAND_QUADRATURE_ORDER: usize = 24;

/// Band radiance `∫ B(λ, T) dλ` over `[lo, hi]` (W·m⁻²·sr⁻¹).
///
/// A 24-node Gauss–Legendre rule resolves the smooth Planck curve over the
/// mid-wave band to ~machine precision. Builds the rule (two heap buffers +
/// a Newton solve) per call; per-pixel loops should hoist a [`band_rule`]
/// and use [`band_radiance_rule`], which is bitwise identical.
pub(crate) fn band_radiance(lo: f64, hi: f64, t: f64) -> f64 {
    if t <= 0.0 || hi <= lo {
        return 0.0;
    }
    integrate(|lam| planck(lam, t), lo, hi, BAND_QUADRATURE_ORDER)
}

/// The hoisted quadrature rule for band `[lo, hi]`, for
/// [`band_radiance_rule`].
pub(crate) fn band_rule(lo: f64, hi: f64) -> FixedRule {
    FixedRule::new(lo, hi, BAND_QUADRATURE_ORDER)
}

/// [`band_radiance`] with the quadrature rule hoisted out: bitwise equal to
/// `band_radiance(lo, hi, t)` when `rule = band_rule(lo, hi)`, with no heap
/// traffic per evaluation.
pub(crate) fn band_radiance_rule(rule: &FixedRule, t: f64) -> f64 {
    if t <= 0.0 || rule.half_width() <= 0.0 {
        return 0.0;
    }
    rule.integrate(|lam| planck(lam, t))
}

/// Inverse of [`band_radiance`] in temperature: the brightness temperature
/// whose blackbody band radiance equals `l`. Bisection on `[t_min, t_max]`;
/// clamps to the bracket ends when `l` is outside their radiance range.
pub(crate) fn brightness_temperature(lo: f64, hi: f64, l: f64, t_min: f64, t_max: f64) -> f64 {
    let r_min = band_radiance(lo, hi, t_min);
    let r_max = band_radiance(lo, hi, t_max);
    if l <= r_min {
        return t_min;
    }
    if l >= r_max {
        return t_max;
    }
    let mut a = t_min;
    let mut b = t_max;
    for _ in 0..100 {
        let mid = 0.5 * (a + b);
        if band_radiance(lo, hi, mid) < l {
            a = mid;
        } else {
            b = mid;
        }
        if b - a < 1e-6 {
            break;
        }
    }
    0.5 * (a + b)
}

/// Total hemispherical emissive power `σT⁴` (W/m²) — used for the fire
/// radiated energy (FRE) validation against Wooster et al. (2003).
pub(crate) fn total_emissive_power(t: f64) -> f64 {
    STEFAN_BOLTZMANN * t * t * t * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planck_peak_location_wien() {
        // Wien: λ_max ≈ 2898 µm·K / T. At T = 1000 K, λ_max ≈ 2.898 µm.
        let t = 1000.0;
        let lam_peak = 2.897771955e-3 / t;
        let at_peak = planck(lam_peak, t);
        assert!(at_peak > planck(lam_peak * 0.8, t));
        assert!(at_peak > planck(lam_peak * 1.2, t));
    }

    #[test]
    fn planck_integrates_to_stefan_boltzmann() {
        // π·∫B dλ over all wavelengths = σT⁴; integrate a wide band.
        let t = 800.0;
        let total: f64 = integrate(|lam| planck(lam, t), 1e-7, 2e-4, 200);
        let expected = total_emissive_power(t) / std::f64::consts::PI;
        assert!(
            (total - expected).abs() / expected < 1e-3,
            "{total} vs {expected}"
        );
    }

    #[test]
    fn band_radiance_monotone_in_temperature() {
        let mut prev = 0.0;
        for t in [300.0, 500.0, 700.0, 900.0, 1100.0] {
            let r = band_radiance(3e-6, 5e-6, t);
            assert!(r > prev, "T={t}");
            prev = r;
        }
    }

    #[test]
    fn midwave_contrast_is_enormous() {
        // The reason 3–5 µm imaging works: a 1075 K front outshines 300 K
        // ground by orders of magnitude in-band.
        let hot = band_radiance(3e-6, 5e-6, 1075.0);
        let cold = band_radiance(3e-6, 5e-6, 300.0);
        assert!(hot / cold > 1000.0, "contrast {}", hot / cold);
    }

    #[test]
    fn brightness_temperature_inverts_band_radiance() {
        for t in [320.0, 500.0, 750.0, 1000.0] {
            let l = band_radiance(3e-6, 5e-6, t);
            let tb = brightness_temperature(3e-6, 5e-6, l, 250.0, 1400.0);
            assert!((tb - t).abs() < 1e-3, "T={t} recovered {tb}");
        }
    }

    #[test]
    fn brightness_temperature_clamps() {
        assert_eq!(
            brightness_temperature(3e-6, 5e-6, 0.0, 250.0, 1400.0),
            250.0
        );
        assert_eq!(
            brightness_temperature(3e-6, 5e-6, 1e12, 250.0, 1400.0),
            1400.0
        );
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(planck(-1.0, 300.0), 0.0);
        assert_eq!(planck(4e-6, 0.0), 0.0);
        assert_eq!(band_radiance(5e-6, 3e-6, 300.0), 0.0);
    }
}
