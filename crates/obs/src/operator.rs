//! The observation-function seam of §3.1: [`ObservationOperator`].
//!
//! The paper insists that "the model, the observation function, and the
//! EnKF are in separate executables" and that a thin software layer insulate
//! the assimilation components from where the data comes from. This module
//! is that layer for in-process use: an operator maps a model state to the
//! vector of values the instrument would report (`h(x)`), and declares the
//! error variances of the corresponding real measurements. The filter sees
//! only flat `f64` vectors — it cannot tell a strided ψ grid from a weather
//! station from a thermal-image pixel, which is exactly the point.
//!
//! Concrete operators:
//!
//! * [`StridedPsi`] — the identical-twin baseline: ψ at every `stride`-th
//!   fire-mesh node (by linear node index, reproducing the seed's
//!   `obs_stride` convention bit-for-bit);
//! * [`StationTemperatures`] — 2-m temperature at each station of a
//!   network, through the station's cell lookup and biquadratic sampling
//!   (§3.1);
//! * [`ImagePixels`] — radiance at every pixel of a synthetic infrared
//!   image rendered from the member state (§3.2).

use crate::image_obs::{ImageObsScratch, ImageObservation};
use crate::station::{SurfaceFields, WeatherStation};
use crate::{ObsError, Result};
use wildfire_core::{CoupledModel, CoupledState};
use wildfire_fire::FireState;
use wildfire_grid::{Field2, Grid2};

/// Shared scratch for operator evaluation. One scratch serves any mix of
/// operators (each uses only the parts it needs); hold one per worker and
/// reuse it across states so steady-state evaluation is allocation-free —
/// including the synthetic-image renderer, whose scene buffers live in the
/// [`ImageObsScratch`] half.
#[derive(Debug, Clone, Default)]
pub struct ObsScratch {
    /// Near-surface fields for station networks, evaluated once per state.
    pub surface: SurfaceFields,
    /// Rendering buffers for image operators, reused across members.
    pub image: ImageObsScratch,
}

impl ObsScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// An observation function `h`: maps a coupled model state to the vector a
/// real instrument would report, plus the error variances of those
/// measurements. Implementations must be deterministic — the ensemble
/// filter relies on `h` being the same function for every member. The
/// `Send + Sync` bound lets one operator serve every worker of a
/// member-parallel packing fan-out (and move into a background service
/// thread); evaluation takes `&self`, so implementations are naturally
/// shareable.
pub trait ObservationOperator: Send + Sync {
    /// Number of scalar observations this operator produces.
    fn dim(&self) -> usize;

    /// A short human-readable tag for diagnostics ("strided-psi", …).
    fn name(&self) -> &'static str;

    /// Evaluates `h(state)` into `out` (`out.len() == self.dim()`), using
    /// caller-provided scratch — the workspace-friendly form the batched
    /// [`crate::ObsSet::pack_into`] drives.
    ///
    /// # Errors
    /// Operator/state mismatches and rendering failures.
    fn observe_into_ws(
        &self,
        state: &CoupledState,
        out: &mut [f64],
        scratch: &mut ObsScratch,
    ) -> Result<()>;

    /// Writes the measurement-error variances (the diagonal of `R`) into
    /// `out` (`out.len() == self.dim()`).
    fn variances_into(&self, out: &mut [f64]);

    /// Convenience [`ObservationOperator::observe_into_ws`] with a fresh
    /// scratch (allocates; use the `_ws` form in loops).
    ///
    /// # Errors
    /// As [`ObservationOperator::observe_into_ws`].
    fn observe_into(&self, state: &CoupledState, out: &mut [f64]) -> Result<()> {
        self.observe_into_ws(state, out, &mut ObsScratch::new())
    }

    /// Allocating convenience: evaluates `h(state)` into a fresh vector.
    ///
    /// # Errors
    /// As [`ObservationOperator::observe_into_ws`].
    fn observe(&self, state: &CoupledState) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.dim()];
        self.observe_into(state, &mut out)?;
        Ok(out)
    }

    /// Scatters this operator's measurement vector back onto a full
    /// fire-mesh ψ field, when the measurements are a (possibly subsampled)
    /// ψ grid. Returns `false` (leaving `out` untouched) for operators
    /// without a gridded-ψ interpretation. The morphing-EnKF entry point
    /// uses this to turn gridded data streams into the field-valued
    /// observation its registration step needs.
    fn scatter_psi(&self, _values: &[f64], _out: &mut Field2) -> bool {
        false
    }
}

/// Identical-twin data synthesis for any operator: evaluates `h(truth)` and
/// perturbs each component with Gaussian noise drawn from the operator's
/// own error variances — the "real data" generator of the paper's Fig. 4
/// setup, instrument-agnostic. Appends `op.dim()` values to `out`.
///
/// # Errors
/// Operator failures.
pub fn synthesize_measurements(
    op: &dyn ObservationOperator,
    truth: &CoupledState,
    rng: &mut wildfire_math::GaussianSampler,
    out: &mut Vec<f64>,
) -> Result<()> {
    let start = out.len();
    let d = op.dim();
    out.resize(start + 2 * d, 0.0);
    // Lay out [h(truth) | variances] in the appended block, then collapse.
    let (obs, var) = out[start..].split_at_mut(d);
    if let Err(e) = op.observe_into(truth, obs) {
        // Keep the append-only contract: a failed stream must not leave
        // scratch entries behind (callers accumulate blocks in one vector).
        out.truncate(start);
        return Err(e);
    }
    op.variances_into(var);
    for i in 0..d {
        out[start + i] += rng.normal(0.0, out[start + d + i].sqrt());
    }
    out.truncate(start + d);
    Ok(())
}

/// ψ observed at every `stride`-th fire-mesh node (linear node index) — the
/// operator behind the seed's `obs_stride` analysis paths, now explicit.
/// With `stride == 1` this is a dense gridded ψ observation, the
/// identical-twin stand-in for a georegistered thermal map.
#[derive(Debug, Clone, PartialEq)]
pub struct StridedPsi {
    grid: Grid2,
    stride: usize,
    sigma: f64,
}

impl StridedPsi {
    /// Creates the operator over `grid` with observation-error std `sigma`.
    /// A `stride` of 0 is clamped to 1 (the seed convention).
    pub fn new(grid: Grid2, stride: usize, sigma: f64) -> Self {
        StridedPsi {
            grid,
            stride: stride.max(1),
            sigma,
        }
    }

    /// The fire grid this operator samples.
    pub fn grid(&self) -> Grid2 {
        self.grid
    }

    /// The node stride (≥ 1).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Linear fire-mesh node indices of the observed samples.
    pub(crate) fn node_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.grid.len()).step_by(self.stride)
    }

    /// Samples a bare fire state (used both by the member-side observation
    /// and by identical-twin data synthesis from a truth state).
    ///
    /// # Errors
    /// [`ObsError::Operator`] when the state lives on a different grid.
    pub(crate) fn observe_fire_into(&self, fire: &FireState, out: &mut [f64]) -> Result<()> {
        if fire.psi.grid() != self.grid {
            return Err(ObsError::Operator("strided-psi grid mismatch"));
        }
        debug_assert_eq!(out.len(), self.dim());
        let psi = fire.psi.as_slice();
        for (o, idx) in out.iter_mut().zip(self.node_indices()) {
            *o = psi[idx];
        }
        Ok(())
    }

    /// Appends the identical-twin measurement vector for a truth fire state
    /// (noise-free truth ψ at the observed nodes) to `out`.
    ///
    /// # Errors
    /// [`ObsError::Operator`] on grid mismatch.
    pub fn measure_truth_into(&self, truth: &FireState, out: &mut Vec<f64>) -> Result<()> {
        let start = out.len();
        out.resize(start + self.dim(), 0.0);
        let result = self.observe_fire_into(truth, &mut out[start..]);
        if result.is_err() {
            // Append-only contract: a failed stream must not leave scratch
            // entries behind (callers accumulate blocks in one vector).
            out.truncate(start);
        }
        result
    }
}

impl ObservationOperator for StridedPsi {
    fn dim(&self) -> usize {
        self.grid.len().div_ceil(self.stride)
    }

    fn name(&self) -> &'static str {
        "strided-psi"
    }

    fn observe_into_ws(
        &self,
        state: &CoupledState,
        out: &mut [f64],
        _scratch: &mut ObsScratch,
    ) -> Result<()> {
        self.observe_fire_into(&state.fire, out)
    }

    fn variances_into(&self, out: &mut [f64]) {
        out.fill(self.sigma * self.sigma);
    }

    fn scatter_psi(&self, values: &[f64], out: &mut Field2) -> bool {
        if values.len() != self.dim() {
            return false;
        }
        // Nearest-sample fill in linear-index space: exact for stride 1;
        // for coarser strides every node takes the nearest observed sample,
        // which preserves the burned-region geometry the morphing
        // registration keys on.
        out.resize_zeroed(self.grid);
        let slice = out.as_mut_slice();
        for (k, v) in slice.iter_mut().enumerate() {
            let sample = ((k + self.stride / 2) / self.stride).min(values.len() - 1);
            *v = values[sample];
        }
        true
    }
}

/// 2-m temperature reported by each station of a weather-station network —
/// the §3.1 station observation wrapped as an operator. The surface fields
/// are evaluated once per state (through the scratch) and sampled
/// biquadratically per station, identically to [`WeatherStation::observe`].
#[derive(Debug, Clone)]
pub struct StationTemperatures {
    stations: Vec<WeatherStation>,
    theta0: f64,
    sigma: f64,
}

impl StationTemperatures {
    /// Creates the operator: `theta0` is the reference surface temperature
    /// (K), `sigma` the report-error std (K).
    pub fn new(stations: Vec<WeatherStation>, theta0: f64, sigma: f64) -> Self {
        StationTemperatures {
            stations,
            theta0,
            sigma,
        }
    }

    /// The wrapped station network.
    pub fn stations(&self) -> &[WeatherStation] {
        &self.stations
    }

    /// The reference surface temperature (K).
    pub fn theta0(&self) -> f64 {
        self.theta0
    }
}

impl ObservationOperator for StationTemperatures {
    fn dim(&self) -> usize {
        self.stations.len()
    }

    fn name(&self) -> &'static str {
        "station-temperatures"
    }

    fn observe_into_ws(
        &self,
        state: &CoupledState,
        out: &mut [f64],
        scratch: &mut ObsScratch,
    ) -> Result<()> {
        debug_assert_eq!(out.len(), self.dim());
        // Evaluate and sample only what this operator reports — the
        // vapor/wind sweeps and the fireline proximity scan of the full
        // station observation would be discarded, and this runs once per
        // member per packing.
        scratch.surface.evaluate_temperature(state, self.theta0);
        for (o, s) in out.iter_mut().zip(self.stations.iter()) {
            let (x, y) = s.location;
            *o = scratch.surface.temperature.sample_biquadratic(x, y);
        }
        Ok(())
    }

    fn variances_into(&self, out: &mut [f64]) {
        out.fill(self.sigma * self.sigma);
    }
}

/// Radiance at every pixel of the synthetic infrared image rendered from
/// the member state (§3.2) — [`ImageObservation`] wrapped as an operator.
/// Rendering draws every buffer (wind transfer, scene intermediates, the
/// image itself) from the [`ObsScratch`], so packing an imagery stream is
/// as steady-state allocation-free as the grid/station operators.
#[derive(Debug, Clone)]
pub struct ImagePixels {
    model: CoupledModel,
    image: ImageObservation,
    sigma: f64,
}

impl ImagePixels {
    /// Creates the operator from a camera/scene binding and the coupled
    /// model used to render member states. `sigma` is the per-pixel
    /// radiance-error std (W·sr⁻¹·m⁻²).
    pub fn new(model: CoupledModel, image: ImageObservation, sigma: f64) -> Self {
        ImagePixels {
            model,
            image,
            sigma,
        }
    }

    /// Camera covering the model's fire domain at `pixels` resolution from
    /// `altitude` (the paper's reference: ~3000 m).
    pub fn over_fire_domain(model: CoupledModel, altitude: f64, pixels: usize, sigma: f64) -> Self {
        let image = ImageObservation::over_fire_domain(&model, altitude, pixels);
        ImagePixels {
            model,
            image,
            sigma,
        }
    }

    /// Synthesizes a noisy identical-twin "real" image from a truth state
    /// and appends its pixels to `out`.
    ///
    /// # Errors
    /// Rendering failures.
    pub fn measure_truth_into(
        &self,
        truth: &CoupledState,
        noise_rel: f64,
        rng: &mut wildfire_math::GaussianSampler,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let img = self
            .image
            .real_image_from_truth(&self.model, truth, noise_rel, rng)?;
        out.extend_from_slice(&img.data);
        Ok(())
    }
}

impl ObservationOperator for ImagePixels {
    fn dim(&self) -> usize {
        self.image.camera.pixels.0 * self.image.camera.pixels.1
    }

    fn name(&self) -> &'static str {
        "image-pixels"
    }

    fn observe_into_ws(
        &self,
        state: &CoupledState,
        out: &mut [f64],
        scratch: &mut ObsScratch,
    ) -> Result<()> {
        debug_assert_eq!(out.len(), self.dim());
        self.image
            .synthetic_image_into(&self.model, state, &mut scratch.image)?;
        out.copy_from_slice(&scratch.image.rendered.data);
        Ok(())
    }

    fn variances_into(&self, out: &mut [f64]) {
        out.fill(self.sigma * self.sigma);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_atmos::state::AtmosGrid;
    use wildfire_atmos::AtmosParams;
    use wildfire_fire::ignition::IgnitionShape;
    use wildfire_fire::FuelCategory;

    fn model() -> CoupledModel {
        CoupledModel::new(
            AtmosGrid {
                nx: 6,
                ny: 6,
                nz: 4,
                dx: 60.0,
                dy: 60.0,
                dz: 50.0,
            },
            AtmosParams::default(),
            FuelCategory::ShortGrass,
            4,
        )
        .unwrap()
    }

    fn burning(m: &CoupledModel) -> CoupledState {
        m.ignite(
            &[IgnitionShape::Circle {
                center: (150.0, 150.0),
                radius: 30.0,
            }],
            0.0,
        )
    }

    #[test]
    fn strided_psi_reproduces_seed_convention() {
        let m = model();
        let s = burning(&m);
        let op = StridedPsi::new(m.fire_grid, 7, 2.0);
        let obs = op.observe(&s).unwrap();
        let psi = s.fire.psi.as_slice();
        let expected: Vec<f64> = (0..m.fire_grid.len()).step_by(7).map(|i| psi[i]).collect();
        assert_eq!(obs, expected, "must match the seed's obs_stride sampling");
        assert_eq!(op.dim(), expected.len());
        let mut var = vec![0.0; op.dim()];
        op.variances_into(&mut var);
        assert!(var.iter().all(|&v| v == 4.0));
    }

    #[test]
    fn strided_psi_rejects_wrong_grid() {
        let m = model();
        let s = burning(&m);
        let other = Grid2::new(9, 9, 5.0, 5.0).unwrap();
        let op = StridedPsi::new(other, 3, 1.0);
        assert!(op.observe(&s).is_err());
    }

    #[test]
    fn strided_psi_scatter_is_exact_at_stride_one() {
        let m = model();
        let s = burning(&m);
        let op = StridedPsi::new(m.fire_grid, 1, 1.0);
        let obs = op.observe(&s).unwrap();
        let mut field = Field2::default();
        assert!(op.scatter_psi(&obs, &mut field));
        assert_eq!(field.as_slice(), s.fire.psi.as_slice());
    }

    #[test]
    fn strided_psi_scatter_preserves_burned_region_coarsely() {
        let m = model();
        let s = burning(&m);
        let op = StridedPsi::new(m.fire_grid, 5, 1.0);
        let obs = op.observe(&s).unwrap();
        let mut field = Field2::default();
        assert!(op.scatter_psi(&obs, &mut field));
        // The scattered field must agree in sign with the truth on the
        // overwhelming majority of nodes (nearest-sample fill).
        let agree = field
            .as_slice()
            .iter()
            .zip(s.fire.psi.as_slice())
            .filter(|(a, b)| (**a < 0.0) == (**b < 0.0))
            .count();
        let frac = agree as f64 / field.as_slice().len() as f64;
        assert!(frac > 0.9, "sign agreement {frac}");
    }

    #[test]
    fn station_operator_matches_station_observe() {
        let m = model();
        let s = burning(&m);
        let stations = vec![
            WeatherStation::new("A", 150.0, 150.0),
            WeatherStation::new("B", 80.0, 220.0),
        ];
        let op = StationTemperatures::new(stations.clone(), 300.0, 1.0);
        let obs = op.observe(&s).unwrap();
        for (o, st) in obs.iter().zip(stations.iter()) {
            assert_eq!(*o, st.observe(&s, 300.0).temperature);
        }
        assert!(!op.scatter_psi(&obs, &mut Field2::default()));
    }

    #[test]
    fn image_operator_dim_matches_resolution() {
        let m = model();
        let s = burning(&m);
        let op = ImagePixels::over_fire_domain(m, 3000.0, 8, 0.5);
        assert_eq!(op.dim(), 64);
        let obs = op.observe(&s).unwrap();
        assert_eq!(obs.len(), 64);
        assert!(obs.iter().all(|v| v.is_finite()));
    }
}
