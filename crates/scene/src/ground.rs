//! Ground temperature history under and behind the fire front (§3.2).
//!
//! "The 2D fire front and cooling are estimated with a double exponential.
//! The time constants are 75 seconds and 250 seconds and the peak
//! temperature at the fire front is constrained to 1075 K."

use wildfire_fire::{FireMesh, FireState, UNBURNED};
use wildfire_grid::Field2;

/// Parameters of the double-exponential ground thermal model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundThermalModel {
    /// Ambient ground temperature (K).
    pub ambient: f64,
    /// Peak temperature at the fire front (K) — the paper constrains 1075 K.
    pub peak: f64,
    /// Fast cooling time constant (s) — the paper: 75 s.
    pub tau_fast: f64,
    /// Slow cooling time constant (s) — the paper: 250 s.
    pub tau_slow: f64,
    /// Fraction of the peak excess carried by the fast mode.
    pub fast_fraction: f64,
}

impl Default for GroundThermalModel {
    fn default() -> Self {
        GroundThermalModel {
            ambient: 300.0,
            peak: 1075.0,
            tau_fast: 75.0,
            tau_slow: 250.0,
            fast_fraction: 0.6,
        }
    }
}

impl GroundThermalModel {
    /// Ground temperature (K) `dt` seconds after front passage; ambient for
    /// `dt < 0` (front not yet arrived).
    pub fn temperature(&self, dt: f64) -> f64 {
        if dt < 0.0 {
            return self.ambient;
        }
        let excess = self.peak - self.ambient;
        self.ambient
            + excess
                * (self.fast_fraction * (-dt / self.tau_fast).exp()
                    + (1.0 - self.fast_fraction) * (-dt / self.tau_slow).exp())
    }

    /// Ground-temperature field (K) for a fire state at time `t`, using the
    /// ignition-time field as the front arrival time.
    pub(crate) fn temperature_field(&self, mesh: &FireMesh, state: &FireState, t: f64) -> Field2 {
        let mut out = Field2::default();
        self.temperature_field_into(mesh, state, t, &mut out);
        out
    }

    /// Allocation-free [`GroundThermalModel::temperature_field`]: re-targets
    /// `out` to the fire grid and overwrites every node (no heap traffic
    /// once the shape has been seen).
    pub(crate) fn temperature_field_into(
        &self,
        mesh: &FireMesh,
        state: &FireState,
        t: f64,
        out: &mut Field2,
    ) {
        let g = mesh.grid;
        out.resize_no_zero(g);
        let tig = state.tig.as_slice();
        for (o, &ti) in out.as_mut_slice().iter_mut().zip(tig) {
            *o = if ti == UNBURNED {
                self.ambient
            } else {
                self.temperature(t - ti)
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wildfire_fire::ignition::IgnitionShape;
    use wildfire_fire::FuelCategory;
    use wildfire_grid::Grid2;

    #[test]
    fn peak_at_front_and_ambient_before() {
        let m = GroundThermalModel::default();
        assert_eq!(m.temperature(-10.0), 300.0);
        assert!((m.temperature(0.0) - 1075.0).abs() < 1e-9);
    }

    #[test]
    fn cooling_is_monotone_to_ambient() {
        let m = GroundThermalModel::default();
        let mut prev = m.temperature(0.0);
        for i in 1..200 {
            let t = m.temperature(i as f64 * 10.0);
            assert!(t <= prev + 1e-12);
            assert!(t >= m.ambient);
            prev = t;
        }
        assert!((m.temperature(1e5) - 300.0).abs() < 1e-6);
    }

    #[test]
    fn double_exponential_structure() {
        let m = GroundThermalModel::default();
        // At one fast time constant, the fast mode has decayed to 1/e.
        let expected = 300.0 + 775.0 * (0.6 * (-1.0_f64).exp() + 0.4 * (-75.0_f64 / 250.0).exp());
        assert!((m.temperature(75.0) - expected).abs() < 1e-9);
    }

    #[test]
    fn field_mixes_burned_and_unburned() {
        let g = Grid2::new(21, 21, 2.0, 2.0).unwrap();
        let mesh = FireMesh::flat(g, FuelCategory::ShortGrass);
        let state = FireState::ignite(
            g,
            &[IgnitionShape::Circle {
                center: (20.0, 20.0),
                radius: 8.0,
            }],
            0.0,
        );
        let m = GroundThermalModel::default();
        let field = m.temperature_field(&mesh, &state, 10.0);
        assert_eq!(field.get(0, 0), 300.0); // unburned corner
        let center = field.get(10, 10);
        assert!(center > 900.0, "center {center}"); // 10 s after ignition
    }
}
