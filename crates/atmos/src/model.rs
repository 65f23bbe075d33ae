//! The atmospheric model driver: tendencies, forcing, projection.

use crate::advect::{diffusion_tendency_into, momentum_tendencies_into, scalar_tendency_into};
use crate::params::AtmosParams;
use crate::poisson::solve_poisson_into;
use crate::state::{AtmosGrid, AtmosState};
use crate::workspace::AtmosWorkspace;
use crate::{AtmosError, Result};
use wildfire_grid::{Field2, VectorField2};

/// The simplified WRF-substitute atmosphere (see crate docs).
#[derive(Debug, Clone)]
pub struct AtmosModel {
    /// Grid descriptor (cells).
    pub grid: AtmosGrid,
    /// Physical/numerical parameters.
    pub params: AtmosParams,
}

impl AtmosModel {
    /// Builds a model, validating the grid.
    ///
    /// # Errors
    /// [`AtmosError::GridTooSmall`] below 4×4×3 cells (the staggered
    /// stencils and the damping layer need that much room).
    pub fn new(grid: AtmosGrid, params: AtmosParams) -> Result<Self> {
        if grid.nx < 4 || grid.ny < 4 || grid.nz < 3 {
            return Err(AtmosError::GridTooSmall);
        }
        Ok(AtmosModel { grid, params })
    }

    /// The ambient initial state (uniform [`AtmosParams::ambient_wind`], no
    /// perturbations).
    pub fn initial_state(&self) -> AtmosState {
        AtmosState::uniform(self.grid, self.params.ambient_wind)
    }

    /// Advective CFL bound for the current state (with a 1e-6 m/s floor on
    /// speeds so a quiescent atmosphere returns a large but finite step).
    pub fn max_stable_dt(&self, state: &AtmosState) -> f64 {
        let (mu, mv, mw) = state.max_speed();
        let g = &self.grid;
        let bound = (g.dx / mu.max(1e-6))
            .min(g.dy / mv.max(1e-6))
            .min(g.dz / mw.max(1e-6));
        0.8 * bound
    }

    /// Advances the state by `dt`, forced by the fire's sensible and latent
    /// heat fluxes (W/m² on the horizontal cell-center grid, §2.3) and
    /// relaxed toward the state's [`AtmosState::ambient_wind`]. All
    /// tendency buffers and the pressure solve's tables come from `ws`,
    /// which is sized on first use and reused thereafter.
    ///
    /// # Errors
    /// [`AtmosError::GridMismatch`] when the flux fields are not on
    /// [`AtmosGrid::horizontal`]; [`AtmosError::CflViolation`] when `dt`
    /// exceeds the advective bound or is NaN. Either leaves `state`
    /// untouched.
    pub fn step_ws(
        &self,
        state: &mut AtmosState,
        sensible: &Field2,
        latent: &Field2,
        dt: f64,
        ws: &mut AtmosWorkspace,
    ) -> Result<()> {
        let g = self.grid;
        let h2 = g.horizontal();
        if sensible.grid() != h2 || latent.grid() != h2 {
            return Err(AtmosError::GridMismatch("fire heat flux fields"));
        }
        let dt_max = self.max_stable_dt(state);
        if dt.is_nan() || dt > dt_max {
            return Err(AtmosError::CflViolation { dt, dt_max });
        }
        let p = &self.params;
        let ambient = state.ambient_wind;

        // --- 1. Advective + diffusive tendencies (explicit). -------------
        momentum_tendencies_into(state, &mut ws.du_adv, &mut ws.dv_adv, &mut ws.dw_adv);
        scalar_tendency_into(state, &state.theta, &mut ws.dtheta_adv);
        scalar_tendency_into(state, &state.qv, &mut ws.dqv_adv);
        diffusion_tendency_into(&g, &state.u, p.eddy_viscosity, &mut ws.du_dif);
        diffusion_tendency_into(&g, &state.v, p.eddy_viscosity, &mut ws.dv_dif);
        diffusion_tendency_into(&g, &state.theta, p.eddy_viscosity, &mut ws.dtheta_dif);
        diffusion_tendency_into(&g, &state.qv, p.eddy_viscosity, &mut ws.dqv_dif);
        let (du_adv, dv_adv, dw_adv) = (&ws.du_adv, &ws.dv_adv, &ws.dw_adv);
        let (dtheta_adv, dqv_adv) = (&ws.dtheta_adv, &ws.dqv_adv);
        let (du_dif, dv_dif) = (&ws.du_dif, &ws.dv_dif);
        let (dtheta_dif, dqv_dif) = (&ws.dtheta_dif, &ws.dqv_dif);

        for (i, (a, d)) in du_adv.iter().zip(du_dif.iter()).enumerate() {
            state.u[i] += dt * (a + d);
        }
        for (i, (a, d)) in dv_adv.iter().zip(dv_dif.iter()).enumerate() {
            state.v[i] += dt * (a + d);
        }
        for (i, a) in dw_adv.iter().enumerate() {
            state.w[i] += dt * a;
        }
        for (i, (a, d)) in dtheta_adv.iter().zip(dtheta_dif.iter()).enumerate() {
            state.theta[i] += dt * (a + d);
        }
        for (i, (a, d)) in dqv_adv.iter().zip(dqv_dif.iter()).enumerate() {
            state.qv[i] += dt * (a + d);
        }

        // --- 2. Buoyancy on interior w-faces. -----------------------------
        // B = g·(θ′/θ₀ + 0.61·q′), θ′ and q′ averaged to the face.
        for k in 1..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let th =
                        0.5 * (state.theta[g.cell(i, j, k - 1)] + state.theta[g.cell(i, j, k)]);
                    let qv = 0.5 * (state.qv[g.cell(i, j, k - 1)] + state.qv[g.cell(i, j, k)]);
                    let b = p.gravity * (th / p.theta0 + 0.61 * qv);
                    state.w[g.wface(i, j, k)] += dt * b;
                }
            }
        }

        // --- 3. Fire heat and moisture insertion (§2.3). ------------------
        // Exponential profile over depth, column-normalized so the
        // column-integrated heating equals the surface flux.
        let weights = &mut ws.weights;
        weights.clear();
        let mut norm = 0.0;
        for k in 0..g.nz {
            let zc = (k as f64 + 0.5) * g.dz;
            let wgt = (-zc / p.heat_depth).exp();
            weights.push(wgt);
            norm += wgt * g.dz;
        }
        for j in 0..g.ny {
            for i in 0..g.nx {
                let qs = sensible.get(i, j);
                let ql = latent.get(i, j);
                if qs == 0.0 && ql == 0.0 {
                    continue;
                }
                for k in 0..g.nz {
                    let c = g.cell(i, j, k);
                    state.theta[c] += dt * qs * weights[k] / (p.rho * p.cp * norm);
                    state.qv[c] += dt * ql * weights[k] / (p.rho * p.latent_heat * norm);
                }
            }
        }

        // --- 4. Surface drag (lowest level) and Rayleigh damping aloft. ---
        let drag = (-p.surface_drag * dt).exp();
        for j in 0..g.ny {
            for i in 0..g.nx {
                let c = g.cell(i, j, 0);
                state.u[c] = ambient.0 + (state.u[c] - ambient.0) * drag;
                state.v[c] = ambient.1 + (state.v[c] - ambient.1) * drag;
            }
        }
        let damp_start = 2 * g.nz / 3;
        for k in damp_start..g.nz {
            let frac = (k - damp_start + 1) as f64 / (g.nz - damp_start) as f64;
            let rate = p.damping_rate * frac * frac;
            let decay = (-rate * dt).exp();
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let c = g.cell(i, j, k);
                    state.u[c] = ambient.0 + (state.u[c] - ambient.0) * decay;
                    state.v[c] = ambient.1 + (state.v[c] - ambient.1) * decay;
                    state.theta[c] *= decay;
                    state.qv[c] *= decay;
                }
            }
        }
        for k in damp_start..=g.nz {
            let frac = if g.nz == damp_start {
                1.0
            } else {
                (k.saturating_sub(damp_start) + 1) as f64 / (g.nz - damp_start + 1) as f64
            };
            let decay = (-p.damping_rate * frac * frac * dt).exp();
            for j in 0..g.ny {
                for i in 0..g.nx {
                    state.w[g.wface(i, j, k)] *= decay;
                }
            }
        }

        // --- 5. Mean-wind nudging (keeps the periodic domain anchored). ---
        if p.nudge_rate > 0.0 {
            let n = g.n_cells() as f64;
            let mean_u: f64 = state.u.iter().sum::<f64>() / n;
            let mean_v: f64 = state.v.iter().sum::<f64>() / n;
            let fac = 1.0 - (-p.nudge_rate * dt).exp();
            let du = (ambient.0 - mean_u) * fac;
            let dv = (ambient.1 - mean_v) * fac;
            for u in state.u.iter_mut() {
                *u += du;
            }
            for v in state.v.iter_mut() {
                *v += dv;
            }
        }

        // --- 6. Pressure projection. --------------------------------------
        let div = &mut ws.div;
        div.clear();
        div.resize(g.n_cells(), 0.0);
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    div[g.cell(i, j, k)] = state.divergence(i, j, k) / dt;
                }
            }
        }
        solve_poisson_into(
            &g,
            div,
            p.pressure_solver,
            p.pressure_tol,
            p.pressure_max_iter,
            &mut ws.poisson,
            &mut ws.phi,
        )?;
        let phi = &ws.phi;
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    let im = (i + g.nx - 1) % g.nx;
                    let jm = (j + g.ny - 1) % g.ny;
                    state.u[g.cell(i, j, k)] -=
                        dt * (phi[g.cell(i, j, k)] - phi[g.cell(im, j, k)]) / g.dx;
                    state.v[g.cell(i, j, k)] -=
                        dt * (phi[g.cell(i, j, k)] - phi[g.cell(i, jm, k)]) / g.dy;
                }
            }
        }
        for k in 1..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    state.w[g.wface(i, j, k)] -=
                        dt * (phi[g.cell(i, j, k)] - phi[g.cell(i, j, k - 1)]) / g.dz;
                }
            }
        }

        state.time += dt;
        Ok(())
    }

    /// Writes the near-surface horizontal wind (lowest model level,
    /// interpolated to cell centers) into `out`, re-targeted to
    /// [`AtmosGrid::horizontal`]: the wind the fire model consumes.
    pub fn surface_wind_into(&self, state: &AtmosState, out: &mut VectorField2) {
        let h = self.grid.horizontal();
        // Every node is overwritten below; skip the memset.
        out.resize_no_zero(h);
        for j in 0..h.ny {
            for i in 0..h.nx {
                out.set(i, j, state.wind_at_center(i, j, 0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> AtmosModel {
        AtmosModel::new(
            AtmosGrid {
                nx: 10,
                ny: 10,
                nz: 6,
                dx: 60.0,
                dy: 60.0,
                dz: 50.0,
            },
            AtmosParams::calm(),
        )
        .unwrap()
    }

    /// `max|∇·u|·Δx / max|u|`: the divergence left after projection, as a
    /// fraction of what one cell of the flow could carry.
    fn relative_divergence(s: &AtmosState) -> f64 {
        let (mu, mv, mw) = s.max_speed();
        s.max_divergence() * s.grid.dx / mu.max(mv).max(mw)
    }

    /// One step on a fresh workspace.
    fn step(
        model: &AtmosModel,
        s: &mut AtmosState,
        qs: &Field2,
        ql: &Field2,
        dt: f64,
    ) -> Result<()> {
        model.step_ws(s, qs, ql, dt, &mut AtmosWorkspace::new())
    }

    fn zero_flux(model: &AtmosModel) -> (Field2, Field2) {
        let h = model.grid.horizontal();
        (Field2::zeros(h), Field2::zeros(h))
    }

    #[test]
    fn rejects_tiny_grid() {
        let bad = AtmosGrid {
            nx: 2,
            ny: 4,
            nz: 3,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
        };
        assert!(matches!(
            AtmosModel::new(bad, AtmosParams::default()),
            Err(AtmosError::GridTooSmall)
        ));
    }

    #[test]
    fn quiescent_atmosphere_stays_quiescent() {
        let model = small_model();
        let mut s = model.initial_state();
        let (qs, ql) = zero_flux(&model);
        for _ in 0..5 {
            step(&model, &mut s, &qs, &ql, 0.5).unwrap();
        }
        let (mu, mv, mw) = s.max_speed();
        assert!(mu < 1e-10 && mv < 1e-10 && mw < 1e-10);
        assert!(s.max_divergence() < 1e-10);
    }

    #[test]
    fn uniform_wind_survives_stepping() {
        let mut model = small_model();
        model.params.ambient_wind = (3.0, 0.0);
        let mut s = model.initial_state();
        let (qs, ql) = zero_flux(&model);
        for _ in 0..10 {
            step(&model, &mut s, &qs, &ql, 0.5).unwrap();
        }
        // Mean u stays at ambient; no spurious w develops.
        let n = s.u.len() as f64;
        let mean_u: f64 = s.u.iter().sum::<f64>() / n;
        assert!((mean_u - 3.0).abs() < 0.05, "mean u drifted to {mean_u}");
        assert!(s.max_updraft() < 1e-8);
        assert!(s.all_finite());
    }

    #[test]
    fn heat_source_drives_updraft() {
        let model = small_model();
        let mut s = model.initial_state();
        let h = model.grid.horizontal();
        // 50 kW/m² sensible flux over a central patch — a vigorous fire.
        let qs = Field2::from_fn(h, |i, j| {
            if (4..6).contains(&i) && (4..6).contains(&j) {
                50_000.0
            } else {
                0.0
            }
        });
        let ql = Field2::zeros(h);
        for _ in 0..40 {
            let dt = model.max_stable_dt(&s).min(0.5);
            step(&model, &mut s, &qs, &ql, dt).unwrap();
        }
        assert!(
            s.max_updraft() > 0.5,
            "expected a buoyant updraft, got {} m/s",
            s.max_updraft()
        );
        assert!(
            relative_divergence(&s) <= 1e-13,
            "projection must keep flow solenoidal: {:e}",
            relative_divergence(&s)
        );
        assert!(s.all_finite());
        // Updraft must sit above the heated patch.
        let g = model.grid;
        let mut best = (0, 0, 0.0_f64);
        for j in 0..g.ny {
            for i in 0..g.nx {
                let w = s.w[g.wface(i, j, g.nz / 2)];
                if w > best.2 {
                    best = (i, j, w);
                }
            }
        }
        assert!(
            (4..=6).contains(&best.0) && (4..=6).contains(&best.1),
            "updraft at ({}, {}) not over the fire",
            best.0,
            best.1
        );
    }

    #[test]
    fn heat_insertion_conserves_column_energy() {
        let mut model = small_model();
        // Disable everything that moves heat around so the budget is exact.
        model.params.eddy_viscosity = 0.0;
        model.params.damping_rate = 0.0;
        model.params.nudge_rate = 0.0;
        model.params.surface_drag = 0.0;
        let mut s = model.initial_state();
        let h = model.grid.horizontal();
        let flux = 10_000.0;
        let qs = Field2::filled(h, flux);
        let ql = Field2::filled(h, 2_000.0);
        let dt = 0.5;
        let e0 = s.thermal_energy(model.params.rho, model.params.cp);
        let m0 = s.vapor_mass(model.params.rho);
        step(&model, &mut s, &qs, &ql, dt).unwrap();
        let de = s.thermal_energy(model.params.rho, model.params.cp) - e0;
        let dm = s.vapor_mass(model.params.rho) - m0;
        let area = (model.grid.nx as f64 * model.grid.dx) * (model.grid.ny as f64 * model.grid.dy);
        let expected_de = flux * area * dt;
        let expected_dm = 2_000.0 * area * dt / model.params.latent_heat;
        assert!(
            (de - expected_de).abs() / expected_de < 1e-9,
            "energy {de} vs {expected_de}"
        );
        assert!(
            (dm - expected_dm).abs() / expected_dm < 1e-9,
            "vapor {dm} vs {expected_dm}"
        );
    }

    #[test]
    fn heating_profile_decays_with_height() {
        let model = small_model();
        let mut s = model.initial_state();
        let h = model.grid.horizontal();
        let qs = Field2::filled(h, 20_000.0);
        let ql = Field2::zeros(h);
        step(&model, &mut s, &qs, &ql, 0.5).unwrap();
        let g = model.grid;
        // θ′ decreases monotonically with height in each column after one
        // step of pure insertion (advection of zero field does nothing).
        for j in 0..g.ny {
            for i in 0..g.nx {
                for k in 1..g.nz {
                    assert!(
                        s.theta[g.cell(i, j, k)] <= s.theta[g.cell(i, j, k - 1)] + 1e-12,
                        "θ′ must decay with height"
                    );
                }
            }
        }
        assert!(s.theta[g.cell(0, 0, 0)] > 0.0);
    }

    /// The workspace is scratch only: a fresh one per step (what the
    /// deleted allocating `step` did) lands on the same bits as one warm
    /// workspace reused across steps.
    #[test]
    fn workspace_step_matches_allocating_step_bitwise() {
        let model = small_model();
        let h = model.grid.horizontal();
        let qs = Field2::from_fn(h, |i, j| if i == 4 && j == 5 { 30_000.0 } else { 0.0 });
        let ql = Field2::from_fn(h, |i, j| if i == 5 && j == 4 { 6_000.0 } else { 0.0 });
        let mut fresh = model.initial_state();
        let mut warm = model.initial_state();
        let mut ws = AtmosWorkspace::new();
        for _ in 0..8 {
            let dt = model.max_stable_dt(&fresh).min(0.5);
            step(&model, &mut fresh, &qs, &ql, dt).unwrap();
            model.step_ws(&mut warm, &qs, &ql, dt, &mut ws).unwrap();
        }
        assert_eq!(fresh, warm);
    }

    #[test]
    fn pressure_solvers_produce_equivalent_physics() {
        // The solver settings of the former iterative solvers are inert: a
        // forced run with settings that would have crippled them lands on
        // the same bits, and the flow stays solenoidal to round-off.
        let run = |tol: f64, max_iter: usize| {
            let mut model = small_model();
            model.params.pressure_tol = tol;
            model.params.pressure_max_iter = max_iter;
            let mut s = model.initial_state();
            let h = model.grid.horizontal();
            let qs = Field2::from_fn(h, |i, j| if i == 4 && j == 5 { 30_000.0 } else { 0.0 });
            let ql = Field2::zeros(h);
            let mut ws = AtmosWorkspace::new();
            for _ in 0..20 {
                let dt = model.max_stable_dt(&s).min(0.5);
                model.step_ws(&mut s, &qs, &ql, dt, &mut ws).unwrap();
            }
            s
        };
        let default = run(1e-8, 500);
        let crippled = run(0.5, 1);
        assert!(relative_divergence(&default) <= 1e-13);
        assert_eq!(default.u, crippled.u);
        assert_eq!(default.v, crippled.v);
        assert_eq!(default.w, crippled.w);
        assert_eq!(default.theta, crippled.theta);
    }

    #[test]
    fn cfl_violation_rejected() {
        let mut model = small_model();
        model.params.ambient_wind = (30.0, 0.0);
        let mut s = model.initial_state();
        let (qs, ql) = zero_flux(&model);
        // 60 m cells, 30 m/s wind → bound = 0.8·2 s = 1.6 s.
        assert!(matches!(
            step(&model, &mut s, &qs, &ql, 5.0),
            Err(AtmosError::CflViolation { .. })
        ));
    }

    /// A NaN step fails the CFL check (`NaN > dt_max` alone is false) and
    /// leaves every field, and the clock, as they were.
    #[test]
    fn nan_step_rejected_before_any_field_changes() {
        let model = small_model();
        let h = model.grid.horizontal();
        let qs = Field2::from_fn(h, |i, j| if i == 4 && j == 5 { 30_000.0 } else { 0.0 });
        let ql = Field2::zeros(h);
        let mut s = model.initial_state();
        step(&model, &mut s, &qs, &ql, 0.5).unwrap();
        let before = s.clone();
        assert!(matches!(
            step(&model, &mut s, &qs, &ql, f64::NAN),
            Err(AtmosError::CflViolation { .. })
        ));
        assert_eq!(s, before);
    }

    #[test]
    fn flux_grid_mismatch_rejected() {
        let model = small_model();
        let mut s = model.initial_state();
        let wrong = Field2::zeros(wildfire_grid::Grid2::new(3, 3, 1.0, 1.0).unwrap());
        assert!(matches!(
            step(&model, &mut s, &wrong.clone(), &wrong, 0.5),
            Err(AtmosError::GridMismatch(_))
        ));
    }

    #[test]
    fn surface_wind_exports_lowest_level() {
        let mut model = small_model();
        model.params.ambient_wind = (2.0, -1.0);
        let s = model.initial_state();
        let mut wind = VectorField2::default();
        model.surface_wind_into(&s, &mut wind);
        assert_eq!(wind.grid(), model.grid.horizontal());
        let (u, v) = wind.get(3, 3);
        assert!((u - 2.0).abs() < 1e-12);
        assert!((v + 1.0).abs() < 1e-12);
    }
}
