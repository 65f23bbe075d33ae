//! Fuel characterization for the semi-empirical spread model of §2.1:
//! per-category spread-rate coefficients (`R0`, `a`, `b`, `d`, `S_max`),
//! post-frontal mass-loss kinetics (exponential decay with a fuel-dependent
//! time constant — "rapid mass loss in grass, slow mass loss in larger fuel
//! particles"), and the partitioning of released heat into sensible and
//! latent fluxes delivered to the atmosphere.
//!
//! The paper takes its coefficients from laboratory experiments via
//! Rothermel (1972) and Clark/Coen (2004). The numerical values used here
//! are in the range of the BEHAVE/WRF-SFIRE lineage of those models and are
//! documented per category; they are plain data, so calibrated values can be
//! substituted through [`FuelModel::custom`].

/// Latent heat of vaporization of water at fire temperatures, J/kg.
const LATENT_HEAT_VAPORIZATION: f64 = 2.5e6;

/// Mass of water produced by combustion per unit mass of cellulose-dominated
/// fuel burned (kg water / kg fuel). Combustion of cellulose releases about
/// 0.56 kg of water vapor per kg of dry fuel.
const COMBUSTION_WATER_YIELD: f64 = 0.56;

/// Standard fuel categories.
///
/// The taxonomy mirrors the coarse classes of the Anderson/Rothermel fuel
/// models that the Clark–Coen coupled model (the paper's reference \[3\]) was
/// run with: grasses carry fast, light fuel; brush and chaparral intermediate;
/// timber litter and slash are heavy and slow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuelCategory {
    /// Cured short grass (~0.3 m), very fast spread, rapid burnout.
    ShortGrass,
    /// Tall grass (~0.75 m), fast spread, somewhat higher load.
    TallGrass,
    /// Mixed brush, moderate spread and load.
    Brush,
    /// Chaparral: high-intensity shrub fuel.
    Chaparral,
    /// Compact timber litter under canopy: slow spread, long burnout.
    TimberLitter,
    /// Heavy logging slash: slowest spread, heaviest load, longest burnout.
    HeavySlash,
}

impl FuelCategory {
    /// All built-in categories, lightest to heaviest.
    pub const ALL: [FuelCategory; 6] = [
        FuelCategory::ShortGrass,
        FuelCategory::TallGrass,
        FuelCategory::Brush,
        FuelCategory::Chaparral,
        FuelCategory::TimberLitter,
        FuelCategory::HeavySlash,
    ];
}

/// Sensible and latent heat fluxes delivered by the fire to the atmosphere,
/// in W/m².
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HeatFluxes {
    /// Sensible heat flux (drives temperature tendencies), W/m².
    pub sensible: f64,
    /// Latent heat flux (drives water-vapor tendencies), W/m².
    pub latent: f64,
}

impl HeatFluxes {
    /// Total flux, W/m².
    pub fn total(&self) -> f64 {
        self.sensible + self.latent
    }
}

/// Complete parameter set of the §2.1 fire model for one fuel type.
///
/// Spread rate in the direction of the front normal `n`:
///
/// ```text
/// S = R0 + a · max(0, v⃗·n⃗)^b + d · (∇z·n⃗),   clipped to 0 ≤ S ≤ Smax
/// ```
///
/// Fuel fraction remaining `t` seconds after ignition: `exp(−t/τ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FuelModel {
    /// Category this model was built from (None for custom models).
    pub category: Option<FuelCategory>,
    /// Background (no-wind, no-slope) rate of spread, m/s.
    pub r0: f64,
    /// Wind coefficient `a` in `a·(v·n)^b`, (m/s)^(1−b).
    pub wind_factor: f64,
    /// Wind exponent `b` (dimensionless, ≥ 1 for convex response).
    pub wind_exponent: f64,
    /// Slope coefficient `d`, m/s per unit slope.
    pub slope_factor: f64,
    /// Maximum spread rate cutoff `Smax`, m/s.
    pub max_spread: f64,
    /// Mass-loss e-folding time τ after ignition, s.
    pub burn_time: f64,
    /// Initial dry fuel load `w0`, kg/m².
    pub fuel_load: f64,
    /// Heat (higher heating) content of dry fuel, J/kg.
    pub heat_content: f64,
    /// Fuel moisture content as a fraction of dry mass.
    pub moisture: f64,
    /// Moisture fraction at which spread stops entirely.
    pub moisture_extinction: f64,
}

impl FuelModel {
    /// Builds the reference parameter set for a standard category.
    pub fn for_category(cat: FuelCategory) -> FuelModel {
        // Columns: r0 m/s, a, b, d, Smax m/s, τ s, w0 kg/m², moisture.
        let (r0, a, b, d, smax, tau, w0, m) = match cat {
            FuelCategory::ShortGrass => (0.030, 0.22, 1.20, 0.18, 6.0, 8.5, 0.40, 0.06),
            FuelCategory::TallGrass => (0.035, 0.28, 1.25, 0.20, 6.7, 15.0, 0.90, 0.07),
            FuelCategory::Brush => (0.020, 0.14, 1.30, 0.22, 3.0, 80.0, 2.20, 0.10),
            FuelCategory::Chaparral => (0.025, 0.18, 1.35, 0.25, 4.0, 120.0, 3.50, 0.08),
            FuelCategory::TimberLitter => (0.008, 0.06, 1.20, 0.15, 1.0, 400.0, 5.00, 0.12),
            FuelCategory::HeavySlash => (0.006, 0.05, 1.15, 0.12, 0.8, 700.0, 8.00, 0.14),
        };
        FuelModel {
            category: Some(cat),
            r0,
            wind_factor: a,
            wind_exponent: b,
            slope_factor: d,
            max_spread: smax,
            burn_time: tau,
            fuel_load: w0,
            heat_content: 17.4e6,
            moisture: m,
            moisture_extinction: 0.30,
        }
    }

    /// Fully custom parameter set (e.g. laboratory-calibrated values).
    #[allow(clippy::too_many_arguments)]
    pub fn custom(
        r0: f64,
        wind_factor: f64,
        wind_exponent: f64,
        slope_factor: f64,
        max_spread: f64,
        burn_time: f64,
        fuel_load: f64,
        heat_content: f64,
        moisture: f64,
    ) -> FuelModel {
        FuelModel {
            category: None,
            r0,
            wind_factor,
            wind_exponent,
            slope_factor,
            max_spread,
            burn_time,
            fuel_load,
            heat_content,
            moisture,
            moisture_extinction: 0.30,
        }
    }

    /// Spread rate `S` (m/s) given the wind and terrain-gradient components
    /// along the outward front normal (§2.1).
    ///
    /// * `wind_along_normal` — `v⃗·n⃗`, m/s; only the component blowing *with*
    ///   the front contributes (the empirical laws are fit for head fire).
    /// * `slope_along_normal` — `∇z·n⃗`, dimensionless rise/run; downslope
    ///   (negative) retards spread through the same linear law.
    ///
    /// The result is damped by fuel moisture (linear to extinction) and
    /// clipped into `[0, Smax]`, both as the paper prescribes.
    pub fn spread_rate(&self, wind_along_normal: f64, slope_along_normal: f64) -> f64 {
        let wind_term = self.wind_factor * wind_along_normal.max(0.0).powf(self.wind_exponent);
        let slope_term = self.slope_factor * slope_along_normal;
        let moisture_damping = (1.0 - self.moisture / self.moisture_extinction).clamp(0.0, 1.0);
        let s = (self.r0 + wind_term + slope_term) * moisture_damping;
        s.clamp(0.0, self.max_spread)
    }

    /// Fraction of the initial fuel load remaining `t_since_ignition`
    /// seconds after the front arrived: `exp(−t/τ)`, 1 before ignition.
    pub fn mass_fraction(&self, t_since_ignition: f64) -> f64 {
        if t_since_ignition <= 0.0 {
            1.0
        } else {
            (-t_since_ignition / self.burn_time).exp()
        }
    }

    /// Instantaneous burning rate (kg/m²/s) `t` seconds after ignition:
    /// `w0/τ · exp(−t/τ)`, 0 before ignition.
    pub fn burning_rate(&self, t_since_ignition: f64) -> f64 {
        if t_since_ignition <= 0.0 {
            0.0
        } else {
            self.fuel_load / self.burn_time * self.mass_fraction(t_since_ignition)
        }
    }

    /// Sensible/latent heat fluxes (W/m²) `t` seconds after ignition.
    ///
    /// The total heat release is proportional to the amount of fuel burned
    /// (§2.1). The latent component carries the water evaporated from fuel
    /// moisture plus the water produced by combustion; the remainder is
    /// sensible. Both are zero before ignition.
    pub fn heat_fluxes(&self, t_since_ignition: f64) -> HeatFluxes {
        let rate = self.burning_rate(t_since_ignition);
        if rate == 0.0 {
            return HeatFluxes::default();
        }
        let water_mass_rate = rate * (self.moisture + COMBUSTION_WATER_YIELD);
        let latent = water_mass_rate * LATENT_HEAT_VAPORIZATION;
        let total = rate * self.heat_content;
        HeatFluxes {
            sensible: (total - latent).max(0.0),
            latent,
        }
    }

    /// Flattens the spread-rate law into the per-evaluation constants the
    /// level-set kernels stream: the moisture damping (a pure function of
    /// the fuel constants) and the zero-wind wind term are folded in once,
    /// so the hot loop does not recompute them per node.
    ///
    /// [`SpreadCoeffs::spread_rate`] is bitwise-identical to
    /// [`FuelModel::spread_rate`] for every input — the equivalence is
    /// pinned by a property test below.
    pub(crate) fn spread_coeffs(&self) -> SpreadCoeffs {
        SpreadCoeffs {
            r0: self.r0,
            wind_factor: self.wind_factor,
            wind_exponent: self.wind_exponent,
            slope_factor: self.slope_factor,
            max_spread: self.max_spread,
            moisture_damping: (1.0 - self.moisture / self.moisture_extinction).clamp(0.0, 1.0),
            zero_wind_term: self.wind_factor * 0.0_f64.powf(self.wind_exponent),
        }
    }
}

/// The §2.1 spread-rate law of one [`FuelModel`], flattened to the constants
/// an evaluation actually needs. Extracted once per solver (palette entry)
/// and stored in contiguous arrays by the fused level-set kernel, so the hot
/// loop reads plain `f64` planes instead of chasing the full model struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SpreadCoeffs {
    /// Background (no-wind, no-slope) rate of spread, m/s.
    pub(crate) r0: f64,
    /// Wind coefficient `a` in `a·(v·n)^b`.
    pub(crate) wind_factor: f64,
    /// Wind exponent `b` in `a·(v·n)^b`.
    pub(crate) wind_exponent: f64,
    /// Slope coefficient `d`, m/s per unit slope.
    pub(crate) slope_factor: f64,
    /// Maximum spread rate cutoff `Smax`, m/s.
    pub(crate) max_spread: f64,
    /// Precomputed moisture damping `(1 − m/m_ext)` clipped to `[0, 1]`.
    pub(crate) moisture_damping: f64,
    /// Precomputed `a · 0^b` — the wind term at zero head wind (0 for
    /// `b > 0`, `a` for `b = 0`), so the no-head-wind branch skips `powf`
    /// while staying bitwise-identical to evaluating it.
    pub(crate) zero_wind_term: f64,
}

impl SpreadCoeffs {
    /// Spread rate `S` (m/s) — bitwise-identical to
    /// [`FuelModel::spread_rate`] with the same wind/slope components, but
    /// without recomputing the moisture damping, and skipping `powf` when
    /// the along-normal wind is not a head wind.
    #[inline]
    pub(crate) fn spread_rate(&self, wind_along_normal: f64, slope_along_normal: f64) -> f64 {
        let s =
            (self.r0 + self.wind_term(wind_along_normal) + self.slope_factor * slope_along_normal)
                * self.moisture_damping;
        s.clamp(0.0, self.max_spread)
    }

    /// Spread rate on exactly flat terrain — bitwise-identical to
    /// [`SpreadCoeffs::spread_rate`] with a zero terrain gradient: adding
    /// the slope term `d · (±0·n⃗)` never changes the bits of the
    /// (nonnegative) base rate, so the flat-terrain kernel skips the two
    /// multiplies and the add outright.
    #[inline]
    pub(crate) fn spread_rate_flat(&self, wind_along_normal: f64) -> f64 {
        let s = (self.r0 + self.wind_term(wind_along_normal)) * self.moisture_damping;
        s.clamp(0.0, self.max_spread)
    }

    /// The wind term `a · max(0, v⃗·n⃗)^b`, with the `powf` skipped when
    /// there is no head wind.
    #[inline]
    fn wind_term(&self, wind_along_normal: f64) -> f64 {
        let wa = wind_along_normal.max(0.0);
        if wa > 0.0 {
            self.wind_factor * wa.powf(self.wind_exponent)
        } else {
            self.zero_wind_term
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn grass_faster_than_timber() {
        let grass = FuelModel::for_category(FuelCategory::ShortGrass);
        let timber = FuelModel::for_category(FuelCategory::TimberLitter);
        for wind in [0.0, 2.0, 5.0, 10.0] {
            assert!(
                grass.spread_rate(wind, 0.0) > timber.spread_rate(wind, 0.0),
                "wind {wind}"
            );
        }
        assert!(grass.burn_time < timber.burn_time);
    }

    #[test]
    fn spread_rate_clipped_to_bounds() {
        let grass = FuelModel::for_category(FuelCategory::ShortGrass);
        // Hurricane wind saturates at Smax.
        assert_eq!(grass.spread_rate(500.0, 0.0), grass.max_spread);
        // Strong downslope with no wind cannot go negative.
        assert_eq!(grass.spread_rate(0.0, -100.0), 0.0);
    }

    #[test]
    fn headwind_does_not_accelerate() {
        let f = FuelModel::for_category(FuelCategory::TallGrass);
        let back = f.spread_rate(-8.0, 0.0);
        let calm = f.spread_rate(0.0, 0.0);
        assert_eq!(back, calm, "negative v·n must not add spread");
    }

    #[test]
    fn wind_monotonically_increases_spread() {
        let f = FuelModel::for_category(FuelCategory::Brush);
        let mut prev = f.spread_rate(0.0, 0.0);
        for w in 1..30 {
            let s = f.spread_rate(w as f64 * 0.5, 0.0);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn upslope_helps_downslope_hurts() {
        let f = FuelModel::for_category(FuelCategory::Chaparral);
        let flat = f.spread_rate(1.0, 0.0);
        assert!(f.spread_rate(1.0, 0.3) > flat);
        assert!(f.spread_rate(1.0, -0.3) < flat);
    }

    #[test]
    fn moisture_extinction_stops_fire() {
        let mut f = FuelModel::for_category(FuelCategory::ShortGrass);
        f.moisture = 0.35; // above extinction 0.30
        assert_eq!(f.spread_rate(10.0, 0.5), 0.0);
    }

    #[test]
    fn mass_fraction_decay() {
        let f = FuelModel::for_category(FuelCategory::ShortGrass);
        assert_eq!(f.mass_fraction(-5.0), 1.0);
        assert_eq!(f.mass_fraction(0.0), 1.0);
        let one_tau = f.mass_fraction(f.burn_time);
        assert!((one_tau - (-1.0_f64).exp()).abs() < 1e-12);
        assert!(f.mass_fraction(10.0 * f.burn_time) < 1e-4);
        // Monotone decreasing.
        let mut prev = 1.0;
        for i in 1..50 {
            let m = f.mass_fraction(i as f64);
            assert!(m < prev);
            prev = m;
        }
    }

    #[test]
    fn burning_rate_integrates_to_fuel_load() {
        let f = FuelModel::for_category(FuelCategory::TallGrass);
        // ∫₀^∞ w0/τ e^{−t/τ} dt = w0; integrate numerically to 20τ.
        let n = 20_000;
        let t_max = 20.0 * f.burn_time;
        let dt = t_max / n as f64;
        let mut total = 0.0;
        for i in 0..n {
            let t = (i as f64 + 0.5) * dt;
            total += f.burning_rate(t) * dt;
        }
        assert!((total - f.fuel_load).abs() / f.fuel_load < 1e-3);
    }

    #[test]
    fn heat_fluxes_positive_and_partitioned() {
        let f = FuelModel::for_category(FuelCategory::Chaparral);
        let hf = f.heat_fluxes(5.0);
        assert!(hf.sensible > 0.0);
        assert!(hf.latent > 0.0);
        // Sensible dominates for reasonably dry fuel.
        assert!(hf.sensible > hf.latent);
        let rate = f.burning_rate(5.0);
        assert!((hf.total() - rate * f.heat_content).abs() < 1e-9 * hf.total());
        // Nothing before ignition.
        assert_eq!(f.heat_fluxes(-1.0).total(), 0.0);
    }

    #[test]
    fn custom_model_is_usable() {
        let f = FuelModel::custom(0.05, 0.3, 1.5, 0.2, 2.0, 30.0, 1.0, 18.0e6, 0.05);
        assert!(f.category.is_none());
        assert!(f.spread_rate(3.0, 0.0) > 0.0);
        assert!((f.fuel_load * f.heat_content - 18.0e6).abs() < 1.0);
    }

    proptest! {
        /// The flattened [`SpreadCoeffs`] evaluate the spread law
        /// bitwise-identically to the full model, for built-in categories
        /// and custom parameter sets (including the `powf`-skipping
        /// no-head-wind branch and degenerate wind exponents).
        #[test]
        fn spread_coeffs_match_model_bitwise(
            cat in prop::sample::select(FuelCategory::ALL.to_vec()),
            r0 in 0.0f64..0.1,
            a in 0.0f64..0.5,
            b in 0.0f64..3.0,
            d in -0.3f64..0.3,
            smax in 0.1f64..8.0,
            moisture in 0.0f64..0.4,
            wind in -100.0f64..100.0,
            slope in -5.0f64..5.0,
        ) {
            let custom = FuelModel::custom(r0, a, b, d, smax, 30.0, 1.0, 17.4e6, moisture);
            for f in [FuelModel::for_category(cat), custom] {
                let c = f.spread_coeffs();
                for w in [wind, 0.0, -wind] {
                    let reference = f.spread_rate(w, slope);
                    let flattened = c.spread_rate(w, slope);
                    prop_assert!(
                        reference.to_bits() == flattened.to_bits(),
                        "model {reference} vs coeffs {flattened} at wind {w}"
                    );
                }
            }
        }
    }
}
