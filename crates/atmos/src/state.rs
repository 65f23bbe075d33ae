//! Staggered-grid atmospheric state.
//!
//! Arakawa-C staggering: `u` lives on x-faces, `v` on y-faces, `w` on
//! z-faces, scalars (potential-temperature perturbation θ′ and water-vapor
//! perturbation q′) at cell centers. Horizontal directions are periodic, so
//! `u` and `v` carry exactly `nx·ny·nz` faces (face `i` sits between cells
//! `i−1 mod nx` and `i`); `w` carries `nz+1` levels with `w = 0` at both
//! rigid lids.

use wildfire_grid::Grid2;

/// Dimensions and spacings of the atmospheric grid (cell counts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtmosGrid {
    /// Cells in x.
    pub nx: usize,
    /// Cells in y.
    pub ny: usize,
    /// Cells (layers) in z.
    pub nz: usize,
    /// Cell size in x (m).
    pub dx: f64,
    /// Cell size in y (m).
    pub dy: f64,
    /// Layer thickness (m).
    pub dz: f64,
}

/// A degenerate 1×1×1 unit grid — a placeholder for lazily-built
/// structures that are re-targeted to a real grid before first use.
impl Default for AtmosGrid {
    fn default() -> Self {
        AtmosGrid {
            nx: 1,
            ny: 1,
            nz: 1,
            dx: 1.0,
            dy: 1.0,
            dz: 1.0,
        }
    }
}

impl AtmosGrid {
    /// Number of cells.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Flat index of cell `(i, j, k)`.
    #[inline]
    pub fn cell(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Flat index of the w-face below level `k` of column `(i, j)`;
    /// `k ∈ 0..=nz`.
    #[inline]
    pub fn wface(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k <= self.nz);
        i + self.nx * (j + self.ny * k)
    }

    /// Cell-center world coordinates.
    #[inline]
    pub fn center(&self, i: usize, j: usize, k: usize) -> (f64, f64, f64) {
        (
            (i as f64 + 0.5) * self.dx,
            (j as f64 + 0.5) * self.dy,
            (k as f64 + 0.5) * self.dz,
        )
    }

    /// 2-D grid of the horizontal cell centers (for coupling with the fire
    /// mesh): `nx × ny` nodes spaced `dx, dy`, origin at the first center.
    pub fn horizontal(&self) -> Grid2 {
        Grid2::with_origin(
            self.nx,
            self.ny,
            self.dx,
            self.dy,
            (0.5 * self.dx, 0.5 * self.dy),
        )
        .expect("atmos grid dims validated at construction")
    }

    /// Domain extent `(Lx, Ly, Lz)` in meters.
    pub fn extent(&self) -> (f64, f64, f64) {
        (
            self.nx as f64 * self.dx,
            self.ny as f64 * self.dy,
            self.nz as f64 * self.dz,
        )
    }
}

/// Prognostic fields of the atmosphere.
#[derive(Debug, Clone, PartialEq)]
pub struct AtmosState {
    /// Grid descriptor.
    pub grid: AtmosGrid,
    /// x-velocity on x-faces, size `nx·ny·nz` (periodic).
    pub u: Vec<f64>,
    /// y-velocity on y-faces, size `nx·ny·nz` (periodic).
    pub v: Vec<f64>,
    /// z-velocity on z-faces, size `nx·ny·(nz+1)`; `w[·,·,0] = w[·,·,nz] = 0`.
    pub w: Vec<f64>,
    /// Potential-temperature perturbation θ′ (K) at cell centers.
    pub theta: Vec<f64>,
    /// Water-vapor perturbation (kg/kg) at cell centers.
    pub qv: Vec<f64>,
    /// Simulation time (s).
    pub time: f64,
    /// Ambient (geostrophic) wind `(u, v)` in force (m/s): what surface
    /// drag, damping aloft and mean-wind nudging relax the flow toward.
    /// Part of the state, so one model can step members whose forcing
    /// differs in time.
    pub ambient_wind: (f64, f64),
}

impl AtmosState {
    /// Quiescent state with a uniform horizontal wind, which is also the
    /// ambient wind in force.
    pub fn uniform(grid: AtmosGrid, wind: (f64, f64)) -> Self {
        let n = grid.n_cells();
        let nw = grid.nx * grid.ny * (grid.nz + 1);
        AtmosState {
            grid,
            u: vec![wind.0; n],
            v: vec![wind.1; n],
            w: vec![0.0; nw],
            theta: vec![0.0; n],
            qv: vec![0.0; n],
            time: 0.0,
            ambient_wind: wind,
        }
    }

    /// Discrete divergence at cell `(i, j, k)`:
    /// `(u_{i+1}−u_i)/dx + (v_{j+1}−v_j)/dy + (w_{k+1}−w_k)/dz`.
    pub fn divergence(&self, i: usize, j: usize, k: usize) -> f64 {
        let g = &self.grid;
        let ip = (i + 1) % g.nx;
        let jp = (j + 1) % g.ny;
        (self.u[g.cell(ip, j, k)] - self.u[g.cell(i, j, k)]) / g.dx
            + (self.v[g.cell(i, jp, k)] - self.v[g.cell(i, j, k)]) / g.dy
            + (self.w[g.wface(i, j, k + 1)] - self.w[g.wface(i, j, k)]) / g.dz
    }

    /// Maximum |divergence| over all cells — the incompressibility residual.
    pub fn max_divergence(&self) -> f64 {
        let g = self.grid;
        let mut m = 0.0_f64;
        for k in 0..g.nz {
            for j in 0..g.ny {
                for i in 0..g.nx {
                    m = m.max(self.divergence(i, j, k).abs());
                }
            }
        }
        m
    }

    /// Maximum vertical velocity (m/s) — the updraft diagnostic plotted in
    /// the paper's Fig. 4 (vorticity/updraft volume rendering).
    pub fn max_updraft(&self) -> f64 {
        self.w.iter().fold(0.0_f64, |m, &x| m.max(x))
    }

    /// Maximum absolute velocity component (for CFL bounds).
    pub fn max_speed(&self) -> (f64, f64, f64) {
        let fmax = |v: &[f64]| v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        (fmax(&self.u), fmax(&self.v), fmax(&self.w))
    }

    /// Total kinetic energy (J), Boussinesq density `rho`.
    pub fn kinetic_energy(&self, rho: f64) -> f64 {
        let g = &self.grid;
        let vol = g.dx * g.dy * g.dz;
        let sum_sq = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>();
        0.5 * rho * vol * (sum_sq(&self.u) + sum_sq(&self.v) + sum_sq(&self.w))
    }

    /// Domain-integrated sensible heat content of the θ′ field (J):
    /// `ρ·cp·Σ θ′·dV`. Used to verify that heat insertion conserves energy.
    pub fn thermal_energy(&self, rho: f64, cp: f64) -> f64 {
        let g = &self.grid;
        let vol = g.dx * g.dy * g.dz;
        rho * cp * vol * self.theta.iter().sum::<f64>()
    }

    /// Domain-integrated water vapor mass (kg): `ρ·Σ q′·dV`.
    pub fn vapor_mass(&self, rho: f64) -> f64 {
        let g = &self.grid;
        rho * g.dx * g.dy * g.dz * self.qv.iter().sum::<f64>()
    }

    /// All fields finite.
    pub fn all_finite(&self) -> bool {
        self.u.iter().all(|x| x.is_finite())
            && self.v.iter().all(|x| x.is_finite())
            && self.w.iter().all(|x| x.is_finite())
            && self.theta.iter().all(|x| x.is_finite())
            && self.qv.iter().all(|x| x.is_finite())
    }

    /// Horizontal wind interpolated to the cell center `(i, j, k)`.
    #[inline]
    pub fn wind_at_center(&self, i: usize, j: usize, k: usize) -> (f64, f64) {
        let g = &self.grid;
        let ip = (i + 1) % g.nx;
        let jp = (j + 1) % g.ny;
        (
            0.5 * (self.u[g.cell(i, j, k)] + self.u[g.cell(ip, j, k)]),
            0.5 * (self.v[g.cell(i, j, k)] + self.v[g.cell(i, jp, k)]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> AtmosGrid {
        AtmosGrid {
            nx: 6,
            ny: 5,
            nz: 4,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
        }
    }

    #[test]
    fn uniform_state_is_divergence_free() {
        let s = AtmosState::uniform(grid(), (3.0, -1.0));
        assert!(s.max_divergence() < 1e-14);
        assert!(s.all_finite());
        assert_eq!(s.max_updraft(), 0.0);
    }

    #[test]
    fn divergence_detects_source() {
        let g = grid();
        let mut s = AtmosState::uniform(g, (0.0, 0.0));
        // Open one u-face: creates divergence in the two adjacent cells.
        s.u[g.cell(3, 2, 1)] = 6.0;
        assert!((s.divergence(3, 2, 1) - (-6.0 / 60.0)).abs() < 1e-12);
        assert!((s.divergence(2, 2, 1) - (6.0 / 60.0)).abs() < 1e-12);
        assert!((s.max_divergence() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn energies_scale_with_fields() {
        let g = grid();
        let mut s = AtmosState::uniform(g, (2.0, 0.0));
        let ke = s.kinetic_energy(1.2);
        // 0.5·ρ·V·Σu² with u = 2 on all 120 faces, V = 60·60·50.
        let expected = 0.5 * 1.2 * 60.0 * 60.0 * 50.0 * (120.0 * 4.0);
        assert!((ke - expected).abs() / expected < 1e-12);
        s.theta = vec![0.5; g.n_cells()];
        let te = s.thermal_energy(1.2, 1000.0);
        let expected_te = 1.2 * 1000.0 * 180_000.0 * 0.5 * 120.0;
        assert!((te - expected_te).abs() / expected_te < 1e-12);
    }

    #[test]
    fn horizontal_grid_matches_centers() {
        let g = grid();
        let h = g.horizontal();
        assert_eq!(h.nx, 6);
        assert_eq!(h.ny, 5);
        let (x, y) = h.world(0, 0);
        assert_eq!((x, y), (30.0, 30.0));
        let (cx, cy, _) = g.center(0, 0, 0);
        assert_eq!((cx, cy), (x, y));
    }

    #[test]
    fn wind_at_center_averages_faces() {
        let g = grid();
        let mut s = AtmosState::uniform(g, (0.0, 0.0));
        s.u[g.cell(1, 1, 0)] = 2.0;
        s.u[g.cell(2, 1, 0)] = 4.0;
        let (uc, vc) = s.wind_at_center(1, 1, 0);
        assert_eq!(uc, 3.0);
        assert_eq!(vc, 0.0);
    }

    #[test]
    fn max_speed_components() {
        let g = grid();
        let mut s = AtmosState::uniform(g, (1.0, -2.0));
        s.w[g.wface(0, 0, 1)] = 0.5;
        let (mu, mv, mw) = s.max_speed();
        assert_eq!((mu, mv, mw), (1.0, 2.0, 0.5));
    }
}
