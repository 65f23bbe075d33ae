//! Voxelized 3-D flame structure (§3.2).
//!
//! "The 3D flame structure is estimated by using the heat release rate and
//! experimental estimates of flame width and length and the flame is tilted
//! based on wind speed. This 3D structure is represented by a 3D grid of
//! voxels."
//!
//! Flame length follows Byram's classic correlation
//! `L = 0.0775 · I^0.46` (L in m, I = fireline intensity in kW/m), the
//! standard "experimental estimate" for surface fires; the tilt angle comes
//! from the wind-speed/buoyancy ratio.

use wildfire_fire::heat::{heat_fluxes_into, HeatFluxFields};
use wildfire_fire::{FireMesh, FireState};
use wildfire_grid::{Field3, Grid3, VectorField2};

/// Parameters of the flame geometry model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlameModel {
    /// Byram coefficient (m per (kW/m)^exponent).
    pub byram_coeff: f64,
    /// Byram exponent.
    pub byram_exp: f64,
    /// Effective flame-depth (m) converting area flux to fireline intensity.
    pub flame_depth: f64,
    /// Nominal flame gas temperature (K).
    pub flame_temperature: f64,
    /// Buoyant velocity scale (m/s) against which wind tilts the flame.
    pub buoyant_velocity: f64,
    /// Vertical voxel resolution (m).
    pub dz: f64,
    /// Maximum flame height considered (m); bounds the voxel volume.
    pub max_height: f64,
    /// Optical extinction coefficient of flame gas (1/m) — controls voxel
    /// emissivity via Beer's law.
    pub kappa: f64,
}

impl Default for FlameModel {
    fn default() -> Self {
        FlameModel {
            byram_coeff: 0.0775,
            byram_exp: 0.46,
            flame_depth: 3.0,
            flame_temperature: 1200.0,
            buoyant_velocity: 3.0,
            dz: 1.5,
            max_height: 18.0,
            kappa: 0.25,
        }
    }
}

impl FlameModel {
    /// Flame length (m) for a local heat flux (W/m²), through Byram's
    /// correlation with `I = flux · flame_depth`.
    pub(crate) fn flame_length(&self, flux_w_m2: f64) -> f64 {
        if flux_w_m2 <= 0.0 {
            return 0.0;
        }
        let intensity_kw_m = flux_w_m2 * self.flame_depth / 1000.0;
        (self.byram_coeff * intensity_kw_m.powf(self.byram_exp)).min(self.max_height)
    }

    /// Flame tilt from vertical (radians) for a wind speed (m/s):
    /// `atan(wind / buoyant_velocity)`, capped at 75°.
    pub(crate) fn tilt(&self, wind_speed: f64) -> f64 {
        (wind_speed.max(0.0) / self.buoyant_velocity)
            .atan()
            .min(75.0_f64.to_radians())
    }
}

/// The voxelized flame: emission density (W·m⁻³ proxy) on a 3-D grid over
/// the fire domain.
#[derive(Debug, Clone, Default)]
pub struct FlameVolume {
    /// Emission-weighted voxel field; value is the local volumetric heat
    /// release density (W/m³) assigned to flame gas.
    pub emission: Field3,
    /// The geometry model used to build the volume.
    pub model: FlameModel,
}

impl FlameVolume {
    /// Builds the flame volume for `state` at time `t` under the given
    /// surface wind (fire-grid resolution; used for the tilt).
    ///
    /// Every burning fire-mesh node contributes a tilted column of voxels
    /// whose height is the local flame length and whose total emission is
    /// the local sensible heat release (radiation is later taken as a
    /// fraction of it via the voxel emissivities).
    pub fn build(
        mesh: &FireMesh,
        state: &FireState,
        wind: &VectorField2,
        t: f64,
        model: FlameModel,
    ) -> FlameVolume {
        let mut out = FlameVolume {
            emission: Field3::default(),
            model,
        };
        let mut fluxes = HeatFluxFields::default();
        out.rebuild(mesh, state, wind, t, model, &mut fluxes);
        out
    }

    /// Allocation-free [`FlameVolume::build`]: re-targets the emission
    /// voxel grid and overwrites it in place, drawing the heat-flux
    /// evaluation through the caller's `fluxes` scratch (no heap traffic
    /// once every shape has been seen).
    pub fn rebuild(
        &mut self,
        mesh: &FireMesh,
        state: &FireState,
        wind: &VectorField2,
        t: f64,
        model: FlameModel,
        fluxes: &mut HeatFluxFields,
    ) {
        self.model = model;
        let g2 = mesh.grid;
        let nz = ((model.max_height / model.dz).ceil() as usize).max(1);
        let g3 = Grid3::new(g2.nx, g2.ny, nz, g2.dx, g2.dy, model.dz)
            .expect("fire grid dims are positive");
        self.emission.resize_zeroed(g3);
        let emission = &mut self.emission;
        heat_fluxes_into(mesh, state, t, fluxes);
        for iy in 0..g2.ny {
            for ix in 0..g2.nx {
                let q = fluxes.sensible.get(ix, iy);
                if q <= 0.0 {
                    continue;
                }
                let length = model.flame_length(q);
                if length <= 0.0 {
                    continue;
                }
                let (wu, wv) = wind.get(ix, iy);
                let speed = (wu * wu + wv * wv).sqrt();
                let tilt = model.tilt(speed);
                // Unit tilt direction in the horizontal plane.
                let (dirx, diry) = if speed > 1e-9 {
                    (wu / speed, wv / speed)
                } else {
                    (0.0, 0.0)
                };
                let height = length * tilt.cos();
                let n_vox = ((height / model.dz).ceil() as usize).clamp(1, nz);
                // Column emission density: total flux spread over the flame
                // volume above this node.
                let density = q / (n_vox as f64 * model.dz);
                for kv in 0..n_vox {
                    let z = (kv as f64 + 0.5) * model.dz;
                    // Horizontal offset of the tilted axis at this height.
                    let off = z * tilt.tan();
                    let jx = ((ix as f64 + off * dirx / g2.dx).round() as isize)
                        .clamp(0, g2.nx as isize - 1) as usize;
                    let jy = ((iy as f64 + off * diry / g2.dy).round() as isize)
                        .clamp(0, g2.ny as isize - 1) as usize;
                    emission.add(jx, jy, kv, density);
                }
            }
        }
    }

    /// Total emitted power represented by the volume (W).
    pub fn total_power(&self) -> f64 {
        self.emission.integral() / self.emission.grid().dz * self.model.dz
    }

    /// Maximum flame-top height with nonzero emission (m).
    pub(crate) fn flame_top(&self) -> f64 {
        let g = self.emission.grid();
        let mut top = 0.0;
        for k in 0..g.nz {
            let any = (0..g.ny).any(|j| (0..g.nx).any(|i| self.emission.get(i, j, k) > 0.0));
            if any {
                top = (k as f64 + 1.0) * g.dz;
            }
        }
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_fire::ignition::IgnitionShape;
    use wildfire_fire::FuelCategory;
    use wildfire_grid::Grid2;

    fn setup() -> (FireMesh, FireState) {
        let g = Grid2::new(31, 31, 2.0, 2.0).unwrap();
        let mesh = FireMesh::flat(g, FuelCategory::TallGrass);
        let state = FireState::ignite(
            g,
            &[IgnitionShape::Circle {
                center: (30.0, 30.0),
                radius: 10.0,
            }],
            0.0,
        );
        (mesh, state)
    }

    #[test]
    fn byram_length_monotone() {
        let m = FlameModel::default();
        assert_eq!(m.flame_length(0.0), 0.0);
        let l1 = m.flame_length(50_000.0);
        let l2 = m.flame_length(200_000.0);
        assert!(l1 > 0.0);
        assert!(l2 > l1);
        assert!(m.flame_length(1e12) <= m.max_height);
    }

    #[test]
    fn tilt_increases_with_wind_and_caps() {
        let m = FlameModel::default();
        assert_eq!(m.tilt(0.0), 0.0);
        assert!(m.tilt(3.0) > 0.7); // atan(1) ≈ 0.785
        assert!(m.tilt(1000.0) <= 75.0_f64.to_radians() + 1e-12);
    }

    #[test]
    fn volume_has_emission_over_fire_only() {
        let (mesh, state) = setup();
        let wind = VectorField2::zeros(mesh.grid);
        let vol = FlameVolume::build(&mesh, &state, &wind, 5.0, FlameModel::default());
        // Emission above the burning center, none in the far corner.
        assert!(vol.emission.get(15, 15, 0) > 0.0);
        assert_eq!(vol.emission.get(30, 30, 0), 0.0);
        assert!(vol.flame_top() > 0.0);
    }

    #[test]
    fn wind_tilts_flame_downwind() {
        let (mesh, state) = setup();
        let calm = VectorField2::zeros(mesh.grid);
        let windy = VectorField2::from_fn(mesh.grid, |_, _| (12.0, 0.0));
        let model = FlameModel::default();
        let v_calm = FlameVolume::build(&mesh, &state, &calm, 5.0, model);
        let v_wind = FlameVolume::build(&mesh, &state, &windy, 5.0, model);
        // With wind, even the lowest voxel layer (z = dz/2 up the tilted
        // axis) is displaced downwind: compare the emission-weighted mean x.
        let g = v_calm.emission.grid();
        let k = 0;
        let mean_x = |v: &FlameVolume| -> f64 {
            let mut sx = 0.0;
            let mut s = 0.0;
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let e = v.emission.get(i, j, k);
                    sx += e * i as f64;
                    s += e;
                }
            }
            if s > 0.0 {
                sx / s
            } else {
                f64::NAN
            }
        };
        let mx_calm = mean_x(&v_calm);
        let mx_wind = mean_x(&v_wind);
        assert!(
            mx_wind > mx_calm + 0.3,
            "tilt must displace emission downwind: {mx_calm} vs {mx_wind}"
        );
    }

    #[test]
    fn no_fire_no_flame() {
        let g = Grid2::new(11, 11, 2.0, 2.0).unwrap();
        let mesh = FireMesh::flat(g, FuelCategory::Brush);
        let state = FireState::unburned(g);
        let wind = VectorField2::zeros(g);
        let vol = FlameVolume::build(&mesh, &state, &wind, 100.0, FlameModel::default());
        assert_eq!(vol.flame_top(), 0.0);
        assert_eq!(vol.emission.sum(), 0.0);
    }
}
