//! Post-frontal heat release (§2.1).
//!
//! "The output of the model is the sensible and the latent heat fluxes
//! (temperature and water vapor) from the fire to the atmosphere, taken to
//! be proportional to the amount of fuel burned." Fuel burns exponentially
//! after the front arrival recorded in `t_i`, so the flux at time `t` is a
//! pure function of `(t − t_i)` and the local fuel model.

use crate::mesh::FireMesh;
use crate::state::FireState;
use crate::UNBURNED;
use wildfire_grid::{Field2, NodeBox};

/// Sensible and latent heat flux fields (W/m²) on the fire grid.
#[derive(Debug, Clone, Default)]
pub struct HeatFluxFields {
    /// Sensible heat flux, W/m².
    pub sensible: Field2,
    /// Latent heat flux, W/m².
    pub latent: Field2,
}

impl HeatFluxFields {
    /// Zero flux fields on `grid` (a reusable output buffer for
    /// [`heat_fluxes_into`]).
    pub fn zeros(grid: wildfire_grid::Grid2) -> Self {
        HeatFluxFields {
            sensible: Field2::zeros(grid),
            latent: Field2::zeros(grid),
        }
    }

    /// Domain-integrated total heat release rate, W.
    pub fn total_power(&self) -> f64 {
        self.sensible.integral() + self.latent.integral()
    }
}

/// Computes the heat flux fields for `state` at its current time.
pub fn heat_fluxes(mesh: &FireMesh, state: &FireState) -> HeatFluxFields {
    heat_fluxes_at(mesh, state, state.time)
}

/// Computes the heat flux fields for `state` evaluated at an arbitrary
/// time `t` (used by the scene generator to render past/future frames from
/// one arrival-time field).
pub fn heat_fluxes_at(mesh: &FireMesh, state: &FireState, t: f64) -> HeatFluxFields {
    let mut out = HeatFluxFields::zeros(mesh.grid);
    heat_fluxes_into(mesh, state, t, &mut out);
    out
}

/// Allocation-free [`heat_fluxes_at`]: overwrites `out`, re-targeting its
/// fields to the fire grid (no allocation once the shape has been seen).
/// Not-yet-burning nodes read as exactly 0 flux.
pub fn heat_fluxes_into(mesh: &FireMesh, state: &FireState, t: f64, out: &mut HeatFluxFields) {
    heat_fluxes_box_into(mesh, state, t, out, NodeBox::full(mesh.grid));
}

/// [`heat_fluxes_into`] on the nodes of `bx` only: every node of the box is
/// written (flux, or exactly 0 where nothing burns yet), the rest of `out`
/// is left as it was. Returns the plain sums `(Σ sensible, Σ latent)` over
/// the box, accumulated in row-major order over the burning nodes — when
/// `bx` holds every ignited node these are bit for bit the
/// [`Field2::sum`]s of the whole-field result, because adding that
/// result's zeros changes nothing.
///
/// Swept over contiguous row slices (arrival times, palette indices and
/// both outputs share the row-major layout).
pub fn heat_fluxes_box_into(
    mesh: &FireMesh,
    state: &FireState,
    t: f64,
    out: &mut HeatFluxFields,
    bx: NodeBox,
) -> (f64, f64) {
    let g = mesh.grid;
    out.sensible.resize_no_zero(g);
    out.latent.resize_no_zero(g);
    let palette = mesh.fuel.palette();
    let indices = mesh.fuel.indices();
    let (mut sum_s, mut sum_l) = (0.0, 0.0);
    for iy in bx.y0..bx.y1 {
        let cols = bx.x0..bx.x1;
        let index = &indices[iy * g.nx..][cols.clone()];
        let tig = &state.tig.row(iy)[cols.clone()];
        let sensible = &mut out.sensible.row_mut(iy)[cols.clone()];
        let latent = &mut out.latent.row_mut(iy)[cols];
        for i in 0..tig.len() {
            let ti = tig[i];
            if ti == UNBURNED || t <= ti {
                sensible[i] = 0.0;
                latent[i] = 0.0;
                continue;
            }
            let hf = palette[index[i] as usize].heat_fluxes(t - ti);
            sensible[i] = hf.sensible;
            latent[i] = hf.latent;
            sum_s += hf.sensible;
            sum_l += hf.latent;
        }
    }
    (sum_s, sum_l)
}

/// Total energy released between ignition and time `t`, J — the time
/// integral of the heat release, evaluated in closed form from the
/// exponential mass-loss law: `w0·h·(1 − e^{−Δt/τ})` per unit area.
pub fn energy_released(mesh: &FireMesh, state: &FireState, t: f64) -> f64 {
    let g = mesh.grid;
    let cell_area = g.dx * g.dy;
    let mut total = 0.0;
    for iy in 0..g.ny {
        for ix in 0..g.nx {
            let tig = state.tig.get(ix, iy);
            if tig == UNBURNED || t <= tig {
                continue;
            }
            let fuel = mesh.fuel.at(ix, iy);
            let burned_fraction = 1.0 - fuel.mass_fraction(t - tig);
            total += fuel.fuel_load * burned_fraction * fuel.heat_content * cell_area;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ignition::IgnitionShape;
    use crate::state::FireState;
    use crate::FuelCategory;
    use wildfire_grid::Grid2;

    fn setup() -> (FireMesh, FireState) {
        let g = Grid2::new(21, 21, 2.0, 2.0).unwrap();
        let mesh = FireMesh::flat(g, FuelCategory::TallGrass);
        let state = FireState::ignite(
            g,
            &[IgnitionShape::Circle {
                center: (20.0, 20.0),
                radius: 6.0,
            }],
            0.0,
        );
        (mesh, state)
    }

    #[test]
    fn fluxes_zero_outside_fire() {
        let (mesh, mut state) = setup();
        state.time = 10.0;
        let hf = heat_fluxes(&mesh, &state);
        assert_eq!(hf.sensible.get(0, 0), 0.0);
        assert_eq!(hf.latent.get(0, 0), 0.0);
        assert!(hf.sensible.get(10, 10) > 0.0);
        assert!(hf.latent.get(10, 10) > 0.0);
    }

    #[test]
    fn box_sweep_matches_whole_field_bitwise() {
        let (mesh, mut state) = setup();
        state.time = 10.0;
        // A second, later ignition so the box is not one blob.
        state.tig.set(2, 17, 4.0);
        let whole = heat_fluxes(&mesh, &state);
        let bx = state.ignited_box();
        assert_eq!((bx.x0, bx.x1, bx.y0, bx.y1), (2, 13, 8, 18));
        let mut part = HeatFluxFields {
            sensible: Field2::filled(mesh.grid, f64::NAN),
            latent: Field2::filled(mesh.grid, f64::NAN),
        };
        let (sum_s, sum_l) = heat_fluxes_box_into(&mesh, &state, state.time, &mut part, bx);
        assert_eq!(sum_s.to_bits(), whole.sensible.sum().to_bits());
        assert_eq!(sum_l.to_bits(), whole.latent.sum().to_bits());
        for iy in 0..mesh.grid.ny {
            for ix in 0..mesh.grid.nx {
                let inside = (bx.x0..bx.x1).contains(&ix) && (bx.y0..bx.y1).contains(&iy);
                if inside {
                    assert_eq!(part.sensible.get(ix, iy), whole.sensible.get(ix, iy));
                    assert_eq!(part.latent.get(ix, iy), whole.latent.get(ix, iy));
                } else {
                    assert!(part.sensible.get(ix, iy).is_nan());
                    assert_eq!(whole.sensible.get(ix, iy), 0.0);
                }
            }
        }
        // Nothing ignited: an empty box, zero sums.
        let cold = FireState::unburned(mesh.grid);
        assert!(cold.ignited_box().is_empty());
        let sums = heat_fluxes_box_into(&mesh, &cold, 5.0, &mut part, cold.ignited_box());
        assert_eq!(sums, (0.0, 0.0));
    }

    #[test]
    fn fluxes_decay_with_time() {
        let (mesh, mut state) = setup();
        state.time = 1.0;
        let early = heat_fluxes(&mesh, &state).sensible.get(10, 10);
        state.time = 100.0;
        let late = heat_fluxes(&mesh, &state).sensible.get(10, 10);
        assert!(early > late, "flux must decay: {early} vs {late}");
    }

    #[test]
    fn zero_before_ignition_time() {
        let (mesh, state) = setup();
        // Evaluate at t = 0 exactly: no time has elapsed since ignition.
        let hf = heat_fluxes_at(&mesh, &state, 0.0);
        assert_eq!(hf.total_power(), 0.0);
    }

    #[test]
    fn energy_released_monotone_and_bounded() {
        let (mesh, state) = setup();
        let e1 = energy_released(&mesh, &state, 10.0);
        let e2 = energy_released(&mesh, &state, 100.0);
        let e3 = energy_released(&mesh, &state, 10_000.0);
        assert!(e1 > 0.0);
        assert!(e2 > e1);
        assert!(e3 >= e2);
        // Upper bound: everything inside the circle burned completely.
        let fuel = mesh.fuel.at(0, 0);
        let burned_cells = state.burned_nodes() as f64;
        let cap = burned_cells * 4.0 * fuel.fuel_load * fuel.heat_content;
        assert!(e3 <= cap * 1.001);
    }

    #[test]
    fn total_power_consistent_with_flux_integral() {
        let (mesh, mut state) = setup();
        state.time = 5.0;
        let hf = heat_fluxes(&mesh, &state);
        let direct: f64 = hf.sensible.integral() + hf.latent.integral();
        assert!((hf.total_power() - direct).abs() < 1e-9 * direct.max(1.0));
    }
}
