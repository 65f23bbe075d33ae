//! Weather-station observations (§3.1).
//!
//! "Consider an example of a weather station that reports its location, a
//! timestamp, temperature, wind velocity, and humidity. … For a given grid,
//! we have to determine in which cell the weather station is located, which
//! is done using linear interpolation of the location. The data is
//! determined at relevant grid points using biquadratic interpolation. We
//! compare the computed results with the weather station data. We determine
//! if a fireline is in the cell (or neighboring ones) … to see if there
//! really is a fire in the cell."

use wildfire_core::CoupledState;
use wildfire_grid::Field2;

/// A fixed ground station.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherStation {
    /// Station identifier.
    pub id: String,
    /// World location (m).
    pub location: (f64, f64),
}

/// One report from a station (real data).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationReport {
    /// Observation time (s, simulation clock).
    pub time: f64,
    /// 2-m air temperature (K).
    pub temperature: f64,
    /// Horizontal wind (m/s).
    pub wind: (f64, f64),
    /// Relative humidity (fraction).
    pub humidity: f64,
}

/// Model equivalent of a station report, plus the fire-proximity check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StationObservation {
    /// Model 2-m temperature at the station (K).
    pub temperature: f64,
    /// Model wind at the station (m/s).
    pub wind: (f64, f64),
    /// Model humidity proxy at the station (fraction).
    pub humidity: f64,
    /// Whether the fireline passes through the station's cell or one of its
    /// neighbors.
    pub fire_nearby: bool,
    /// The atmosphere cell containing the station.
    pub cell: (usize, usize),
}

/// Reusable near-surface fields shared by every station of a network when
/// observing one state: 2-m temperature, vapor, and the cell-centered
/// horizontal wind on the atmosphere's horizontal grid. Building these once
/// per state (instead of once per station, as the seed did) makes network
/// evaluation `O(grid + stations)` and allocation-free in steady state.
#[derive(Debug, Clone, Default)]
pub struct SurfaceFields {
    /// 2-m air temperature `θ0 + θ'` (K).
    pub temperature: Field2,
    /// Water-vapor perturbation (kg/kg).
    pub qv: Field2,
    /// Cell-centered surface wind, `u` component (m/s).
    pub u: Field2,
    /// Cell-centered surface wind, `v` component (m/s).
    pub v: Field2,
}

impl SurfaceFields {
    /// An empty scratch; fields are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Evaluates the surface fields of `state` into this scratch
    /// (allocation-free once the buffers are sized).
    pub fn evaluate(&mut self, state: &CoupledState, theta0: f64) {
        let agrid = state.atmos.grid;
        let h = agrid.horizontal();
        self.evaluate_temperature(state, theta0);
        self.qv.resize_zeroed(h);
        self.u.resize_zeroed(h);
        self.v.resize_zeroed(h);
        for j in 0..agrid.ny {
            for i in 0..agrid.nx {
                self.qv.set(i, j, state.atmos.qv[agrid.cell(i, j, 0)]);
                let (uc, vc) = state.atmos.wind_at_center(i, j, 0);
                self.u.set(i, j, uc);
                self.v.set(i, j, vc);
            }
        }
    }

    /// Evaluates only the 2-m temperature field — the sweep a
    /// temperature-only network needs; the vapor and wind fills (3/4 of the
    /// full [`SurfaceFields::evaluate`] cost) are skipped.
    pub(crate) fn evaluate_temperature(&mut self, state: &CoupledState, theta0: f64) {
        let agrid = state.atmos.grid;
        self.temperature.resize_zeroed(agrid.horizontal());
        for j in 0..agrid.ny {
            for i in 0..agrid.nx {
                self.temperature
                    .set(i, j, theta0 + state.atmos.theta[agrid.cell(i, j, 0)]);
            }
        }
    }
}

impl WeatherStation {
    /// Creates a station.
    pub fn new(id: impl Into<String>, x: f64, y: f64) -> Self {
        WeatherStation {
            id: id.into(),
            location: (x, y),
        }
    }

    /// Evaluates the model equivalent of this station's report from a
    /// coupled state: cell lookup by linear interpolation of the location,
    /// biquadratic interpolation of the surface fields, fireline check in
    /// the cell and its 8 neighbors.
    pub fn observe(&self, state: &CoupledState, theta0: f64) -> StationObservation {
        let mut surface = SurfaceFields::new();
        surface.evaluate(state, theta0);
        self.observe_with(state, &surface)
    }

    /// Scratch-backed [`WeatherStation::observe`]: samples pre-evaluated
    /// [`SurfaceFields`], so a station network pays the surface-field sweep
    /// once per state instead of once per station. Bit-identical to
    /// [`WeatherStation::observe`].
    pub(crate) fn observe_with(
        &self,
        state: &CoupledState,
        surface: &SurfaceFields,
    ) -> StationObservation {
        let h = state.atmos.grid.horizontal();
        let (x, y) = self.location;
        // §3.1: locate the cell (linear interpolation of the location) …
        let (ci, cj, _, _) = h.locate(x, y);
        // … and evaluate the fields by biquadratic interpolation.
        let temperature = surface.temperature.sample_biquadratic(x, y);
        let wind = (
            surface.u.sample_biquadratic(x, y),
            surface.v.sample_biquadratic(x, y),
        );
        // Humidity proxy: vapor perturbation mapped to a relative scale.
        let humidity = (0.4 + surface.qv.sample_biquadratic(x, y) * 50.0).clamp(0.0, 1.0);

        // Fireline proximity: any front crossing in the station's atmosphere
        // cell or its neighbors, measured on the fire mesh.
        let fire_nearby = fireline_near_cell(state, ci, cj);

        StationObservation {
            temperature,
            wind,
            humidity,
            fire_nearby,
            cell: (ci, cj),
        }
    }

    /// Innovation (observed − model) for a report, used for the comparison
    /// the paper describes and for assimilation.
    pub fn innovation(&self, report: &StationReport, state: &CoupledState, theta0: f64) -> f64 {
        let obs = self.observe(state, theta0);
        report.temperature - obs.temperature
    }
}

/// Whether the fireline (sign change of ψ) intersects the atmosphere cell
/// `(ci, cj)` or any of its 8 neighbors.
fn fireline_near_cell(state: &CoupledState, ci: usize, cj: usize) -> bool {
    let h = state.atmos.grid.horizontal();
    let fire_psi = &state.fire.psi;
    let fgrid = fire_psi.grid();
    // World bounds of the 3×3 cell neighborhood.
    let (cx0, cy0) = h.world(ci.saturating_sub(1), cj.saturating_sub(1));
    let (cx1, cy1) = h.world((ci + 1).min(h.nx - 1), (cj + 1).min(h.ny - 1));
    // Scan fire-mesh nodes in the bounding box for burning and non-burning
    // nodes; a mixed region contains the fireline.
    let mut any_burn = false;
    let mut any_clear = false;
    for iy in 0..fgrid.ny {
        for ix in 0..fgrid.nx {
            let (x, y) = fgrid.world(ix, iy);
            if x < cx0 - fgrid.dx || x > cx1 + fgrid.dx || y < cy0 - fgrid.dy || y > cy1 + fgrid.dy
            {
                continue;
            }
            if fire_psi.get(ix, iy) < 0.0 {
                any_burn = true;
            } else {
                any_clear = true;
            }
            if any_burn && any_clear {
                return true;
            }
        }
    }
    false
}

/// Generates "real" station reports from a truth state by adding Gaussian
/// noise — the identical-twin data source for experiment E7.
pub fn synthesize_reports(
    stations: &[WeatherStation],
    truth: &CoupledState,
    theta0: f64,
    noise_temp: f64,
    noise_wind: f64,
    rng: &mut wildfire_math::GaussianSampler,
) -> Vec<StationReport> {
    let mut surface = SurfaceFields::new();
    surface.evaluate(truth, theta0);
    stations
        .iter()
        .map(|s| {
            let o = s.observe_with(truth, &surface);
            StationReport {
                time: truth.time(),
                temperature: o.temperature + rng.normal(0.0, noise_temp),
                wind: (
                    o.wind.0 + rng.normal(0.0, noise_wind),
                    o.wind.1 + rng.normal(0.0, noise_wind),
                ),
                humidity: o.humidity,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_atmos::state::AtmosGrid;
    use wildfire_atmos::AtmosParams;
    use wildfire_core::CoupledModel;
    use wildfire_fire::ignition::IgnitionShape;
    use wildfire_fire::FuelCategory;

    fn model() -> CoupledModel {
        CoupledModel::new(
            AtmosGrid {
                nx: 8,
                ny: 8,
                nz: 4,
                dx: 60.0,
                dy: 60.0,
                dz: 50.0,
            },
            AtmosParams::default(),
            FuelCategory::ShortGrass,
            5,
        )
        .unwrap()
    }

    fn burning_state(m: &CoupledModel) -> CoupledState {
        m.ignite(
            &[IgnitionShape::Circle {
                center: (240.0, 240.0),
                radius: 30.0,
            }],
            0.0,
        )
    }

    #[test]
    fn observe_ambient_state() {
        let m = model();
        let s = m.ignite(&[], 0.0);
        let station = WeatherStation::new("KDEN", 200.0, 200.0);
        let obs = station.observe(&s, 300.0);
        assert!((obs.temperature - 300.0).abs() < 1e-9);
        assert!((obs.wind.0 - 3.0).abs() < 1e-9);
        assert!(!obs.fire_nearby);
    }

    #[test]
    fn cell_lookup_is_correct() {
        let m = model();
        let s = m.ignite(&[], 0.0);
        // Horizontal grid origin is (30, 30) with dx = 60: x = 200 lies in
        // cell index 2 (nodes at 30, 90, 150, 210 …).
        let station = WeatherStation::new("X", 200.0, 95.0);
        let obs = station.observe(&s, 300.0);
        assert_eq!(obs.cell, (2, 1));
    }

    #[test]
    fn fire_detected_near_station_only() {
        let m = model();
        let s = burning_state(&m);
        let near = WeatherStation::new("NEAR", 240.0, 240.0).observe(&s, 300.0);
        assert!(near.fire_nearby);
        let far = WeatherStation::new("FAR", 60.0, 60.0).observe(&s, 300.0);
        assert!(!far.fire_nearby);
    }

    #[test]
    fn heated_air_shows_in_station_temperature() {
        let m = model();
        let mut s = burning_state(&m);
        m.run(&mut s, 8.0, 0.5, |_, _| {}).unwrap();
        let at_fire = WeatherStation::new("F", 240.0, 240.0).observe(&s, 300.0);
        let away = WeatherStation::new("A", 60.0, 420.0).observe(&s, 300.0);
        assert!(
            at_fire.temperature > away.temperature,
            "fire column must be warmer: {} vs {}",
            at_fire.temperature,
            away.temperature
        );
    }

    #[test]
    fn innovation_sign() {
        let m = model();
        let s = m.ignite(&[], 0.0);
        let station = WeatherStation::new("I", 150.0, 150.0);
        let report = StationReport {
            time: 0.0,
            temperature: 310.0,
            wind: (3.0, 0.0),
            humidity: 0.4,
        };
        let innov = station.innovation(&report, &s, 300.0);
        assert!((innov - 10.0).abs() < 1e-6);
    }

    #[test]
    fn synthesized_reports_scatter_around_truth() {
        let m = model();
        let s = m.ignite(&[], 0.0);
        let stations: Vec<WeatherStation> = (0..20)
            .map(|i| WeatherStation::new(format!("S{i}"), 60.0 + 18.0 * i as f64, 240.0))
            .collect();
        let mut rng = wildfire_math::GaussianSampler::new(3);
        let reports = synthesize_reports(&stations, &s, 300.0, 1.0, 0.5, &mut rng);
        assert_eq!(reports.len(), 20);
        let mean_t: f64 = reports.iter().map(|r| r.temperature).sum::<f64>() / reports.len() as f64;
        assert!((mean_t - 300.0).abs() < 1.5, "mean temp {mean_t}");
        // Not all identical (noise applied).
        assert!(reports
            .windows(2)
            .any(|w| w[0].temperature != w[1].temperature));
    }

    #[test]
    fn observe_with_shared_surface_matches_observe() {
        // One SurfaceFields evaluation must serve every station of a
        // network bit-identically to the per-station path.
        let m = model();
        let mut s = burning_state(&m);
        m.run(&mut s, 6.0, 0.5, |_, _| {}).unwrap();
        let mut surface = SurfaceFields::new();
        surface.evaluate(&s, 300.0);
        for (x, y) in [(240.0, 240.0), (95.0, 310.0), (60.0, 60.0)] {
            let st = WeatherStation::new("W", x, y);
            assert_eq!(st.observe(&s, 300.0), st.observe_with(&s, &surface));
        }
    }
}
