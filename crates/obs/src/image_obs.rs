//! Thermal-image observations.
//!
//! "Thermal images of a fire will provide the observations and will be
//! compared to a synthetic image from the model state" (abstract). For each
//! ensemble member the observation function renders the synthetic image
//! from the member's state; the "real" image comes from the airborne sensor
//! — here synthesized from a truth run plus sensor noise (identical-twin
//! setting, exactly as the paper's Fig. 4 uses simulated data).

use crate::Result;
use wildfire_core::{CoupledModel, CoupledState};
use wildfire_grid::VectorField2;
use wildfire_math::GaussianSampler;
use wildfire_scene::render::SceneConfig;
use wildfire_scene::{render_scene_into, Camera, RenderScratch, SceneImage};

/// Reusable buffers for rendering member states: the wind-transfer scratch,
/// the scene renderer's intermediates, and the rendered image itself. One
/// per rendering worker; after the first render every buffer is re-targeted
/// in place, so steady-state synthetic imaging is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct ImageObsScratch {
    /// Coarse-grid surface wind (wind-transfer scratch).
    pub surface_wind: VectorField2,
    /// Fire-mesh wind the renderer tilts flames with.
    pub wind: VectorField2,
    /// Scene-renderer intermediates.
    pub render: RenderScratch,
    /// The rendered synthetic image (the output buffer).
    pub rendered: SceneImage,
}

impl ImageObsScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The image observation operator bound to a camera and scene settings.
#[derive(Debug, Clone)]
pub struct ImageObservation {
    /// Airborne camera geometry.
    pub camera: Camera,
    /// Scene-generation parameters.
    pub scene: SceneConfig,
}

impl ImageObservation {
    /// A camera covering the model's fire domain at `pixels` resolution
    /// from `altitude` (the paper's reference: ~3000 m).
    pub fn over_fire_domain(model: &CoupledModel, altitude: f64, pixels: usize) -> Self {
        let g = model.fire_grid;
        let (ex, ey) = g.extent();
        ImageObservation {
            camera: Camera::over_footprint(altitude, g.origin, (ex, ey), (pixels, pixels)),
            scene: SceneConfig::default(),
        }
    }

    /// Renders the synthetic image for one member state (the observation
    /// function `h` of the assimilation loop).
    ///
    /// Allocates a fresh [`ImageObsScratch`] per call; per-member loops go
    /// through the [`crate::ImagePixels`] operator, which reuses one.
    ///
    /// # Errors
    /// Rendering failures.
    pub fn synthetic_image(
        &self,
        model: &CoupledModel,
        state: &CoupledState,
    ) -> Result<SceneImage> {
        let mut scratch = ImageObsScratch::new();
        self.synthetic_image_into(model, state, &mut scratch)?;
        Ok(scratch.rendered)
    }

    /// Allocation-free [`ImageObservation::synthetic_image`]: renders into
    /// `scratch.rendered`, drawing the wind transfer and every scene
    /// intermediate from `scratch`. Bitwise identical to the allocating
    /// form; no heap traffic once every shape has been seen.
    ///
    /// # Errors
    /// [`crate::ObsError::Operator`] when `state` is not on `model`'s grids;
    /// rendering failures.
    pub(crate) fn synthetic_image_into(
        &self,
        model: &CoupledModel,
        state: &CoupledState,
        scratch: &mut ImageObsScratch,
    ) -> Result<()> {
        model
            .fire_wind_into(state, &mut scratch.surface_wind, &mut scratch.wind)
            .map_err(|_| crate::ObsError::Operator("wind transfer failed"))?;
        render_scene_into(
            model.fire.mesh(),
            &state.fire,
            &scratch.wind,
            state.time(),
            &self.camera,
            &self.scene,
            &mut scratch.rendered,
            &mut scratch.render,
        )?;
        Ok(())
    }

    /// Synthesizes a noisy "real" image from a truth state (identical-twin
    /// data): multiplicative + additive Gaussian sensor noise on radiance.
    ///
    /// # Errors
    /// Rendering failures.
    pub(crate) fn real_image_from_truth(
        &self,
        model: &CoupledModel,
        truth: &CoupledState,
        noise_rel: f64,
        rng: &mut GaussianSampler,
    ) -> Result<SceneImage> {
        let mut img = self.synthetic_image(model, truth)?;
        let mean = img.mean();
        for v in img.data.iter_mut() {
            let rel = 1.0 + rng.normal(0.0, noise_rel);
            *v = (*v * rel + rng.normal(0.0, noise_rel * mean)).max(0.0);
        }
        Ok(img)
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

    #[test]
    fn camera_covers_fire_domain() {
        let m = model();
        let obs = ImageObservation::over_fire_domain(&m, 3000.0, 32);
        let g = m.fire_grid;
        assert_eq!(obs.camera.footprint_origin, g.origin);
        assert_eq!(obs.camera.footprint_size, g.extent());
        assert_eq!(obs.camera.pixels, (32, 32));
    }

    #[test]
    fn synthetic_image_sees_the_fire() {
        let m = model();
        let mut s = m.ignite(
            &[IgnitionShape::Circle {
                center: (180.0, 180.0),
                radius: 30.0,
            }],
            0.0,
        );
        s.fire.time = 15.0;
        let obs = ImageObservation::over_fire_domain(&m, 3000.0, 32);
        let img = obs.synthetic_image(&m, &s).unwrap();
        let (lo, hi) = img.min_max();
        assert!(hi / lo > 10.0, "fire contrast {}", hi / lo);
    }

    #[test]
    fn noisy_real_image_differs_but_correlates() {
        let m = model();
        let mut s = m.ignite(
            &[IgnitionShape::Circle {
                center: (180.0, 180.0),
                radius: 30.0,
            }],
            0.0,
        );
        s.fire.time = 15.0;
        let obs = ImageObservation::over_fire_domain(&m, 3000.0, 16);
        let clean = obs.synthetic_image(&m, &s).unwrap();
        let mut rng = GaussianSampler::new(3);
        let noisy = obs.real_image_from_truth(&m, &s, 0.05, &mut rng).unwrap();
        assert_ne!(clean.data, noisy.data);
        let corr = wildfire_math::stats::correlation(&clean.data, &noisy.data);
        assert!(corr > 0.95, "correlation {corr}");
        assert!(noisy.data.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn observation_vector_matches_image() {
        let m = model();
        let s = m.ignite(&[], 0.0);
        let obs = ImageObservation::over_fire_domain(&m, 3000.0, 8);
        let img = obs.synthetic_image(&m, &s).unwrap();
        // The image data, row-major, is the observation vector.
        let v = &img.data;
        assert_eq!(v.len(), 64);
        assert_eq!(v[0], img.get(0, 0));
    }

    #[test]
    fn state_on_the_wrong_grid_is_an_operator_error() {
        let m = model();
        let other = CoupledModel::new(
            AtmosGrid {
                nx: 7,
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
        .unwrap();
        let s = other.ignite(&[], 0.0);
        let obs = ImageObservation::over_fire_domain(&m, 3000.0, 8);
        let err = obs.synthetic_image(&m, &s).unwrap_err();
        assert!(
            matches!(err, crate::ObsError::Operator("wind transfer failed")),
            "got: {err}"
        );
    }
}
