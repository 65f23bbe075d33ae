//! The rendering pipeline: the three radiance components of §3.2 composed
//! along camera rays, with Beer–Lambert atmospheric transmission.

use crate::camera::Camera;
use crate::flame::{FlameModel, FlameVolume};
use crate::ground::GroundThermalModel;
use crate::image::SceneImage;
use crate::radiance::{band_radiance_rule, band_rule, total_emissive_power};
use crate::Result;
use wildfire_fire::heat::{heat_fluxes_at, HeatFluxFields};
use wildfire_fire::{FireMesh, FireState};
use wildfire_grid::{Field2, VectorField2};
use wildfire_math::quadrature::FixedRule;

/// Scene generation parameters.
#[derive(Debug, Clone)]
pub struct SceneConfig {
    /// Sensor band (m); default mid-wave 3–5 µm.
    pub band: (f64, f64),
    /// Ground cooling model (double exponential of §3.2).
    pub ground: GroundThermalModel,
    /// Flame geometry model.
    pub flame: FlameModel,
    /// Ground emissivity in-band (burn scars are highly emissive, §3.2).
    pub ground_emissivity: f64,
    /// Ground reflectivity in-band (drives the reflected-flame halo; the
    /// paper notes this term matters in the near/mid-wave).
    pub ground_reflectivity: f64,
    /// Atmospheric extinction coefficient (1/m); Beer–Lambert along the
    /// slant path.
    pub atm_extinction: f64,
    /// Radius (m) within which flame voxels illuminate the ground for the
    /// reflected component (truncates the O(pixels·voxels) sum).
    pub reflection_radius: f64,
    /// Ray-march step (m) through the flame volume.
    pub march_step: f64,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            band: (3.0e-6, 5.0e-6),
            ground: GroundThermalModel::default(),
            flame: FlameModel::default(),
            ground_emissivity: 0.95,
            ground_reflectivity: 0.05,
            atm_extinction: 4.0e-5,
            reflection_radius: 60.0,
            march_step: 1.0,
        }
    }
}

/// Reusable intermediates of [`render_scene_into`]: the ground-temperature
/// field, the voxelized flame (with its heat-flux scratch), and the
/// reflection source list. One scratch per rendering worker; every buffer
/// is re-targeted in place, so steady-state rendering is allocation-free.
#[derive(Debug, Clone, Default)]
pub struct RenderScratch {
    /// Ground temperature (K) on the fire grid.
    pub ground_temp: Field2,
    /// Voxelized flame emission.
    pub flames: FlameVolume,
    /// Heat-flux evaluation scratch for the flame rebuild.
    pub fluxes: HeatFluxFields,
    /// Flame-voxel point sources `(x, y, z, band power)` for the
    /// reflected-radiance term.
    pub sources: Vec<(f64, f64, f64, f64)>,
    /// Cached band-quadrature rule, keyed by the sensor band it was built
    /// for; rebuilt only when the band changes (the per-pixel Planck
    /// integrals all share it).
    band_rule: Option<((f64, f64), FixedRule)>,
}

impl RenderScratch {
    /// An empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Renders the synthetic mid-wave image of the fire state at time `t` as
/// seen by `camera` — the synthetic-data half of the assimilation loop —
/// into `img` (re-targeted to the camera resolution), drawing every
/// intermediate from `scratch`: no heap traffic once every shape has been
/// seen.
///
/// # Errors
/// Propagates image-construction failures.
#[allow(clippy::too_many_arguments)]
pub fn render_scene_into(
    mesh: &FireMesh,
    state: &FireState,
    wind: &VectorField2,
    t: f64,
    camera: &Camera,
    config: &SceneConfig,
    img: &mut SceneImage,
    scratch: &mut RenderScratch,
) -> Result<()> {
    let (w, h) = camera.pixels;
    img.resize(w, h, config.band)?;

    // Component inputs.
    config
        .ground
        .temperature_field_into(mesh, state, t, &mut scratch.ground_temp);
    if scratch
        .band_rule
        .as_ref()
        .is_none_or(|(band, _)| *band != config.band)
    {
        scratch.band_rule = Some((config.band, band_rule(config.band.0, config.band.1)));
    }
    let ground_temp = &scratch.ground_temp;
    scratch
        .flames
        .rebuild(mesh, state, wind, t, config.flame, &mut scratch.fluxes);
    let flames = &scratch.flames;
    let fg3 = flames.emission.grid();
    let rule = &scratch.band_rule.as_ref().expect("band rule built above").1;
    let flame_band_radiance = band_radiance_rule(rule, config.flame.flame_temperature);
    let ambient_radiance = band_radiance_rule(rule, config.ground.ambient);

    // Precompute, per flame voxel, its band power for the reflection term:
    // P = ε_vox · B_band(T_f) · π · A_cross (W/sr integrated over the
    // hemisphere ≈ isotropic point source of band power 4π·I).
    let sources = &mut scratch.sources; // (x, y, z, band power)
    sources.clear();
    for k in 0..fg3.nz {
        for j in 0..fg3.ny {
            for i in 0..fg3.nx {
                if flames.emission.get(i, j, k) <= 0.0 {
                    continue;
                }
                let eps = 1.0 - (-config.flame.kappa * fg3.dz).exp();
                // A flame above a fire-mesh node is at most flame_depth wide,
                // which can be well below the mesh cell — use the smaller
                // cross-section as the emitting face.
                let face =
                    (config.flame.flame_depth * config.flame.flame_depth).min(fg3.dx * fg3.dy);
                let p_band = eps * flame_band_radiance * std::f64::consts::PI * face;
                let g2 = mesh.grid;
                let (ox, oy) = g2.origin;
                sources.push((
                    ox + i as f64 * g2.dx,
                    oy + j as f64 * g2.dy,
                    (k as f64 + 0.5) * fg3.dz,
                    p_band,
                ));
            }
        }
    }

    let g2 = mesh.grid;
    let (ox, oy) = g2.origin;
    let refl_r2 = config.reflection_radius * config.reflection_radius;
    // Hoisted out of the pixel loop: the flame-top scan is O(voxels).
    let flame_top = flames.flame_top();
    for py in 0..h {
        for px in 0..w {
            let (gx, gy) = camera.pixel_ground_point(px, py);

            // (1) Hot-ground emission.
            let tg = ground_temp.sample_bilinear(gx, gy);
            let l_ground = config.ground_emissivity * band_radiance_rule(rule, tg)
                + (1.0 - config.ground_emissivity) * ambient_radiance;

            // (3) Flame radiance reflected from the ground (Lambertian).
            let mut irradiance = 0.0;
            for &(sx, sy, sz, p) in sources.iter() {
                let dx = sx - gx;
                let dy = sy - gy;
                let d2h = dx * dx + dy * dy;
                if d2h > refl_r2 {
                    continue;
                }
                let d2 = d2h + sz * sz;
                if d2 < 1.0 {
                    continue; // the pixel is inside the flame footprint
                }
                let cos_inc = sz / d2.sqrt();
                irradiance += p * cos_inc / (4.0 * std::f64::consts::PI * d2);
            }
            let l_reflected = config.ground_reflectivity * irradiance / std::f64::consts::PI;

            // (2) Direct flame emission + flame transmittance along the ray.
            // March upward from the ground point along the (reversed) view
            // ray through the flame layer.
            let (rdx, rdy, rdz) = camera.ray_direction(px, py);
            // Upward direction = −ray direction.
            let (ux, uy, uz) = (-rdx, -rdy, -rdz);
            let mut l_flame = 0.0;
            let mut trans = 1.0;
            if !sources.is_empty() && uz > 1e-6 {
                let max_s = flame_top / uz;
                let mut s = 0.5 * config.march_step;
                while s <= max_s {
                    let x = gx + s * ux;
                    let y = gy + s * uy;
                    let z = s * uz;
                    // Locate the voxel.
                    let vi = ((x - ox) / g2.dx).round();
                    let vj = ((y - oy) / g2.dy).round();
                    let vk = (z / fg3.dz).floor();
                    if vi >= 0.0
                        && vj >= 0.0
                        && vk >= 0.0
                        && (vi as usize) < fg3.nx
                        && (vj as usize) < fg3.ny
                        && (vk as usize) < fg3.nz
                        && flames.emission.get(vi as usize, vj as usize, vk as usize) > 0.0
                    {
                        let seg_eps = 1.0 - (-config.flame.kappa * config.march_step).exp();
                        // Emission attenuated by what is in front of it
                        // (between the voxel and the sensor = already
                        // accumulated transmittance).
                        l_flame += trans * seg_eps * flame_band_radiance;
                        trans *= 1.0 - seg_eps;
                    }
                    s += config.march_step;
                }
            }

            // Compose: ground signal attenuated by the flame above it, plus
            // direct flame, all attenuated by the atmosphere.
            let path = camera.path_length(px, py);
            let tau_atm = (-config.atm_extinction * path).exp();
            img.set(
                px,
                py,
                tau_atm * (trans * (l_ground + l_reflected) + l_flame),
            );
        }
    }
    Ok(())
}

/// Fire radiative power (W, full spectrum): hot-ground excess emission plus
/// flame-surface emission — the quantity compared against satellite-derived
/// values in the paper's validation (Wooster et al. 2003).
pub(crate) fn fire_radiative_power(
    mesh: &FireMesh,
    state: &FireState,
    wind: &VectorField2,
    t: f64,
    config: &SceneConfig,
) -> f64 {
    let g = mesh.grid;
    let ground_temp = config.ground.temperature_field(mesh, state, t);
    let ambient_power = total_emissive_power(config.ground.ambient);
    let mut frp = 0.0;
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let tg = ground_temp.get(ix, iy);
            if tg > config.ground.ambient {
                frp += config.ground_emissivity
                    * (total_emissive_power(tg) - ambient_power)
                    * g.dx
                    * g.dy;
            }
        }
    }
    // Flame contribution: emitting voxel faces at the flame temperature.
    let flames = FlameVolume::build(mesh, state, wind, t, config.flame);
    let fg3 = flames.emission.grid();
    let eps = 1.0 - (-config.flame.kappa * fg3.dz).exp();
    // Same face-area bound as the renderer: the flame is at most
    // flame_depth wide regardless of the mesh cell size.
    let face_area = (config.flame.flame_depth * config.flame.flame_depth).min(fg3.dx * fg3.dy);
    let flame_power_per_voxel =
        eps * total_emissive_power(config.flame.flame_temperature) * face_area;
    let n_vox = flames
        .emission
        .as_slice()
        .iter()
        .filter(|&&e| e > 0.0)
        .count();
    frp + n_vox as f64 * flame_power_per_voxel
}

/// Radiative fraction: the fire radiative power divided by the fire's total
/// heat release rate. Published biomass-burning values fall in roughly
/// 0.05–0.25; the README's "Paper claims" table (E3) records where this
/// implementation lands.
pub fn radiative_fraction(
    mesh: &FireMesh,
    state: &FireState,
    wind: &VectorField2,
    t: f64,
    config: &SceneConfig,
) -> f64 {
    let fluxes = heat_fluxes_at(mesh, state, t);
    let total = fluxes.sensible.integral() + fluxes.latent.integral();
    if total <= 0.0 {
        return 0.0;
    }
    fire_radiative_power(mesh, state, wind, t, config) / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_fire::ignition::IgnitionShape;
    use wildfire_fire::FuelCategory;
    use wildfire_grid::Grid2;

    /// [`render_scene_into`] with a fresh image and scratch.
    fn render_scene(
        mesh: &FireMesh,
        state: &FireState,
        wind: &VectorField2,
        t: f64,
        camera: &Camera,
        config: &SceneConfig,
    ) -> Result<SceneImage> {
        let mut img = SceneImage::default();
        let mut scratch = RenderScratch::new();
        render_scene_into(mesh, state, wind, t, camera, config, &mut img, &mut scratch)?;
        Ok(img)
    }

    fn setup() -> (FireMesh, FireState, VectorField2, Camera) {
        let g = Grid2::new(41, 41, 4.0, 4.0).unwrap();
        let mesh = FireMesh::flat(g, FuelCategory::TallGrass);
        let state = {
            let mut s = FireState::ignite(
                g,
                &[IgnitionShape::Circle {
                    center: (80.0, 80.0),
                    radius: 24.0,
                }],
                0.0,
            );
            s.time = 20.0;
            s
        };
        let wind = VectorField2::from_fn(g, |_, _| (4.0, 0.0));
        let camera = Camera::over_footprint(3000.0, (0.0, 0.0), (160.0, 160.0), (32, 32));
        (mesh, state, wind, camera)
    }

    #[test]
    fn fire_pixels_vastly_brighter_than_background() {
        let (mesh, state, wind, camera) = setup();
        let img =
            render_scene(&mesh, &state, &wind, 20.0, &camera, &SceneConfig::default()).unwrap();
        let center = img.get(16, 16); // over the fire
        let corner = img.get(0, 0); // unburned
        assert!(center > 10.0 * corner, "contrast {center} vs {corner}");
        assert!(corner > 0.0, "background radiance must not vanish");
    }

    #[test]
    fn brightness_temperature_sensible() {
        let (mesh, state, wind, camera) = setup();
        let img =
            render_scene(&mesh, &state, &wind, 20.0, &camera, &SceneConfig::default()).unwrap();
        let t = img.to_brightness_temperature();
        let t_corner = t[0];
        let t_center = t[16 * img.width + 16];
        assert!(
            (t_corner - 300.0).abs() < 25.0,
            "background brightness T {t_corner}"
        );
        assert!(t_center > 600.0, "fire brightness T {t_center}");
    }

    #[test]
    fn reflected_halo_brightens_near_fire_background() {
        let (mesh, state, wind, camera) = setup();
        let mut cfg = SceneConfig::default();
        let with_refl = render_scene(&mesh, &state, &wind, 20.0, &camera, &cfg).unwrap();
        cfg.ground_reflectivity = 0.0;
        let without = render_scene(&mesh, &state, &wind, 20.0, &camera, &cfg).unwrap();
        // Find an unburned pixel adjacent to the fire: one ring out from the
        // front (the fire has radius 24 m + 20 s growth within a 160 m
        // footprint; pixel (16, 6) sits ~50 m from the center).
        let p = (16usize, 6usize);
        let a = with_refl.get(p.0, p.1);
        let b = without.get(p.0, p.1);
        assert!(
            a > b,
            "reflection must brighten near-fire ground: {a} vs {b}"
        );
    }

    #[test]
    fn no_fire_scene_is_uniform_ambient() {
        let g = Grid2::new(21, 21, 4.0, 4.0).unwrap();
        let mesh = FireMesh::flat(g, FuelCategory::Brush);
        let state = FireState::unburned(g);
        let wind = VectorField2::zeros(g);
        let camera = Camera::over_footprint(3000.0, (0.0, 0.0), (80.0, 80.0), (16, 16));
        let img =
            render_scene(&mesh, &state, &wind, 0.0, &camera, &SceneConfig::default()).unwrap();
        let (lo, hi) = img.min_max();
        assert!(lo > 0.0);
        // Only the slant-path atmospheric variation remains (< 1%).
        assert!((hi - lo) / hi < 0.01, "spread {}", (hi - lo) / hi);
    }

    #[test]
    fn radiative_fraction_in_published_range() {
        let (mesh, state, wind, _) = setup();
        let frac = radiative_fraction(&mesh, &state, &wind, 20.0, &SceneConfig::default());
        assert!(
            (0.02..0.40).contains(&frac),
            "radiative fraction {frac} outside plausible range"
        );
    }

    /// The workspace path is the same renderer: `render_scene_into` with a
    /// warm (and even a cross-contaminated) scratch must reproduce the
    /// allocating `render_scene` bit for bit, frame after frame.
    #[test]
    fn render_into_matches_allocating_render_bitwise() {
        let (mesh, state, wind, camera) = setup();
        let cfg = SceneConfig::default();
        let mut img = SceneImage::default();
        let mut scratch = RenderScratch::new();
        for t in [5.0, 20.0, 60.0] {
            let reference = render_scene(&mesh, &state, &wind, t, &camera, &cfg).unwrap();
            render_scene_into(
                &mesh,
                &state,
                &wind,
                t,
                &camera,
                &cfg,
                &mut img,
                &mut scratch,
            )
            .unwrap();
            assert_eq!(img, reference, "t = {t}");
        }
        // A smaller camera re-targets the warm buffers without residue.
        let small = Camera::over_footprint(3000.0, (0.0, 0.0), (160.0, 160.0), (16, 16));
        let reference = render_scene(&mesh, &state, &wind, 20.0, &small, &cfg).unwrap();
        render_scene_into(
            &mesh,
            &state,
            &wind,
            20.0,
            &small,
            &cfg,
            &mut img,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(img, reference);
    }

    #[test]
    fn render_into_rejects_zero_resolution() {
        let (mesh, state, wind, _) = setup();
        let camera = Camera::over_footprint(3000.0, (0.0, 0.0), (160.0, 160.0), (0, 16));
        let mut img = SceneImage::default();
        let mut scratch = RenderScratch::new();
        assert!(render_scene_into(
            &mesh,
            &state,
            &wind,
            20.0,
            &camera,
            &SceneConfig::default(),
            &mut img,
            &mut scratch
        )
        .is_err());
    }

    #[test]
    fn frp_zero_without_fire() {
        let g = Grid2::new(11, 11, 4.0, 4.0).unwrap();
        let mesh = FireMesh::flat(g, FuelCategory::Brush);
        let state = FireState::unburned(g);
        let wind = VectorField2::zeros(g);
        assert_eq!(
            fire_radiative_power(&mesh, &state, &wind, 0.0, &SceneConfig::default()),
            0.0
        );
        assert_eq!(
            radiative_fraction(&mesh, &state, &wind, 0.0, &SceneConfig::default()),
            0.0
        );
    }
}
