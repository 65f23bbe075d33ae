//! The [`Scenario`] descriptor: a complete, serializable-in-spirit
//! description of one simulation setup, decoupled from the model objects it
//! builds.

use crate::builder::{Simulation, SimulationBuilder};
use crate::Result;
use wildfire_atmos::state::AtmosGrid;
use wildfire_core::{CoupledModel, CoupledState};
use wildfire_fire::IgnitionShape;
use wildfire_fuel::FuelCategory;
use wildfire_obs::{ObsStreamSpec, ObsTimeline};

/// Discretization of the coupled domain: the atmosphere grid plus the fire
/// mesh refinement ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainSpec {
    /// Atmosphere cells in `x`.
    pub nx: usize,
    /// Atmosphere cells in `y`.
    pub ny: usize,
    /// Atmosphere levels in `z`.
    pub nz: usize,
    /// Horizontal cell size in `x` (m).
    pub dx: f64,
    /// Horizontal cell size in `y` (m).
    pub dy: f64,
    /// Level thickness (m).
    pub dz: f64,
    /// Fire-mesh refinement relative to the atmosphere cells (the paper
    /// couples a 6 m fire mesh to a 60 m atmosphere mesh: refinement 10).
    pub refinement: usize,
}

impl DomainSpec {
    /// The paper's standard configuration: 600 m × 600 m, 60 m atmosphere
    /// cells × 6 levels, fire mesh at 6 m when `refinement = 10`.
    pub const PAPER: DomainSpec = DomainSpec {
        nx: 10,
        ny: 10,
        nz: 6,
        dx: 60.0,
        dy: 60.0,
        dz: 50.0,
        refinement: 10,
    };

    /// A smaller, faster domain for ensemble experiments: 480 m × 480 m,
    /// 12 m fire mesh.
    pub const SMALL: DomainSpec = DomainSpec {
        nx: 8,
        ny: 8,
        nz: 5,
        dx: 60.0,
        dy: 60.0,
        dz: 50.0,
        refinement: 5,
    };

    /// The atmosphere grid this spec describes.
    pub fn atmos_grid(&self) -> AtmosGrid {
        AtmosGrid {
            nx: self.nx,
            ny: self.ny,
            nz: self.nz,
            dx: self.dx,
            dy: self.dy,
            dz: self.dz,
        }
    }

    /// Horizontal world extent `(x, y)` of the physical domain (m):
    /// `n` cells × spacing, the seed's convention (PAPER = 600 m × 600 m,
    /// SMALL = 480 m × 480 m). The node-aligned fire mesh spans one cell
    /// less, `(n − 1) · dx`.
    pub fn extent(&self) -> (f64, f64) {
        (self.nx as f64 * self.dx, self.ny as f64 * self.dy)
    }

    /// World coordinates of the physical domain center (m) — (300, 300)
    /// for [`DomainSpec::PAPER`], (240, 240) for [`DomainSpec::SMALL`],
    /// matching where the seed experiments placed their "center" fires.
    pub fn center(&self) -> (f64, f64) {
        let (ex, ey) = self.extent();
        (ex / 2.0, ey / 2.0)
    }

    /// Returns the spec with a different refinement ratio.
    pub fn with_refinement(mut self, refinement: usize) -> Self {
        self.refinement = refinement;
        self
    }
}

/// A rectangular fuel patch painted over the base fuel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuelPatch {
    /// Patch rectangle `(x0, y0, x1, y1)` in world coordinates (m).
    pub rect: (f64, f64, f64, f64),
    /// Fuel inside the rectangle.
    pub fuel: FuelCategory,
}

/// Fuel layout over the fire mesh.
#[derive(Debug, Clone, PartialEq)]
pub enum FuelSpec {
    /// One category everywhere.
    Uniform(FuelCategory),
    /// A base category with rectangular patches painted over it, in order.
    Patches {
        /// Fuel outside all patches.
        base: FuelCategory,
        /// Painted rectangles; later entries overwrite earlier ones.
        patches: Vec<FuelPatch>,
    },
}

impl FuelSpec {
    /// Whether more than one fuel category can appear on the mesh.
    pub fn is_heterogeneous(&self) -> bool {
        match self {
            FuelSpec::Uniform(_) => false,
            FuelSpec::Patches { patches, .. } => !patches.is_empty(),
        }
    }
}

/// A scheduled change of the ambient wind during the run — frontal passages
/// and diurnal shifts are the classic drivers of blow-up fire behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindShift {
    /// Simulation time at which the shift applies (s).
    pub at: f64,
    /// New ambient wind `(u, v)` (m/s).
    pub to: (f64, f64),
}

/// Ambient wind forcing: initial value plus optional scheduled shifts.
#[derive(Debug, Clone, PartialEq)]
pub struct WindSpec {
    /// Initial ambient wind `(u, v)` (m/s).
    pub ambient: (f64, f64),
    /// Scheduled mid-run shifts, applied in time order by [`Simulation`].
    pub shifts: Vec<WindShift>,
}

impl WindSpec {
    /// Constant ambient wind, no shifts.
    pub fn steady(u: f64, v: f64) -> Self {
        WindSpec {
            ambient: (u, v),
            shifts: Vec::new(),
        }
    }
}

/// A complete simulation setup. Construct via [`SimulationBuilder`], the
/// [`crate::registry`], or literal struct syntax; realize into model objects
/// with [`Scenario::build`] / [`Scenario::model`].
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable identifier (kebab-case for registry entries).
    pub name: String,
    /// One-line description of what the scenario exercises.
    pub description: String,
    /// Domain discretization.
    pub domain: DomainSpec,
    /// Fuel layout.
    pub fuel: FuelSpec,
    /// Wind forcing.
    pub wind: WindSpec,
    /// Ignition geometry (at least one shape).
    pub ignitions: Vec<IgnitionShape>,
    /// Ignition time (s).
    pub ignition_time: f64,
    /// Two-way fire–atmosphere coupling switch.
    pub coupled: bool,
    /// Opt-in fast-math mode: evaluate the spread-law wind power through
    /// the polynomial `pow` kernel (`wildfire_fuel::fast_pow`) instead of
    /// bitwise libm `powf`. Off by default; enabling it relaxes trajectories
    /// to within `1e-12` relative error per spread-rate evaluation.
    pub fast_math: bool,
    /// Reference coupled time step (s); the paper uses 0.5 s.
    pub dt: f64,
    /// Declared observation data streams (Fig. 2's "real data pool"):
    /// instruments plus reporting cadence. Empty for forward-only
    /// scenarios; assimilation harnesses expand them over a run window via
    /// [`Scenario::timeline`].
    pub streams: Vec<ObsStreamSpec>,
}

impl Scenario {
    /// Realizes the coupled model described by this scenario (no state).
    ///
    /// # Errors
    /// [`crate::SimError`] for invalid configurations.
    pub fn model(&self) -> Result<CoupledModel> {
        SimulationBuilder::from_scenario(self.clone()).build_model()
    }

    /// Realizes model + ignited initial state, wiring the wind-shift
    /// schedule into the returned [`Simulation`].
    ///
    /// # Errors
    /// [`crate::SimError`] for invalid configurations.
    pub fn build(&self) -> Result<Simulation> {
        SimulationBuilder::from_scenario(self.clone()).build()
    }

    /// Ignites this scenario's geometry on an already-built model (useful
    /// when many states share one model, e.g. ensemble members).
    pub fn ignite(&self, model: &CoupledModel) -> CoupledState {
        model.ignite(&self.ignitions, self.ignition_time)
    }

    /// Returns the scenario with every ignition shape translated by
    /// `(dx, dy)` — the primitive the ensemble-perturbation hooks build on.
    pub fn translated(&self, dx: f64, dy: f64) -> Scenario {
        let mut s = self.clone();
        s.ignitions = s.ignitions.iter().map(|sh| sh.translated(dx, dy)).collect();
        s
    }

    /// Returns the scenario with coupling toggled.
    pub fn with_coupling(mut self, coupled: bool) -> Self {
        self.coupled = coupled;
        self
    }

    /// Returns the scenario with fast-math pow evaluation toggled (see the
    /// [`Scenario::fast_math`] field).
    pub fn with_fast_math(mut self, fast_math: bool) -> Self {
        self.fast_math = fast_math;
        self
    }

    /// Returns the scenario with a replaced ignition set.
    pub fn with_ignitions(mut self, ignitions: Vec<IgnitionShape>) -> Self {
        self.ignitions = ignitions;
        self
    }

    /// Returns the scenario with a different initial ambient wind (shift
    /// schedule preserved).
    pub fn with_ambient_wind(mut self, wind: (f64, f64)) -> Self {
        self.wind.ambient = wind;
        self
    }

    /// Returns the scenario with a different fuel layout.
    pub fn with_fuel(mut self, fuel: FuelSpec) -> Self {
        self.fuel = fuel;
        self
    }

    /// Returns the scenario with an additional declared data stream.
    pub fn with_stream(mut self, stream: ObsStreamSpec) -> Self {
        self.streams.push(stream);
        self
    }

    /// Expands this scenario's declared data streams over `[0, t_end]` into
    /// the merged, sorted schedule of analysis times (empty when the
    /// scenario declares no streams).
    pub fn timeline(&self, t_end: f64) -> ObsTimeline {
        ObsTimeline::from_streams(&self.streams, t_end)
    }

    /// A stable 64-bit FNV-1a digest of every scenario field that shapes
    /// the simulated trajectory: name, domain, fuel layout, wind forcing
    /// and shift schedule, ignition geometry and time, the coupling and
    /// fast-math switches, and dt. Floats are hashed by bit pattern, so
    /// two scenarios fingerprint equal iff they run bitwise identically.
    /// Checkpoints embed this so a snapshot refuses to restore into a
    /// simulation built from a different scenario. Declared observation
    /// streams are excluded — they feed the data pool, not the dynamics.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.bytes(self.name.as_bytes());
        let d = &self.domain;
        for v in [d.nx, d.ny, d.nz, d.refinement] {
            h.u64(v as u64);
        }
        for v in [d.dx, d.dy, d.dz] {
            h.f64(v);
        }
        match &self.fuel {
            FuelSpec::Uniform(cat) => {
                h.u64(0);
                h.u64(*cat as u64);
            }
            FuelSpec::Patches { base, patches } => {
                h.u64(1);
                h.u64(*base as u64);
                h.u64(patches.len() as u64);
                for p in patches {
                    let (x0, y0, x1, y1) = p.rect;
                    for v in [x0, y0, x1, y1] {
                        h.f64(v);
                    }
                    h.u64(p.fuel as u64);
                }
            }
        }
        h.f64(self.wind.ambient.0);
        h.f64(self.wind.ambient.1);
        h.u64(self.wind.shifts.len() as u64);
        for s in &self.wind.shifts {
            h.f64(s.at);
            h.f64(s.to.0);
            h.f64(s.to.1);
        }
        h.u64(self.ignitions.len() as u64);
        for shape in &self.ignitions {
            match *shape {
                IgnitionShape::Circle { center, radius } => {
                    h.u64(0);
                    for v in [center.0, center.1, radius] {
                        h.f64(v);
                    }
                }
                IgnitionShape::Line {
                    start,
                    end,
                    half_width,
                } => {
                    h.u64(1);
                    for v in [start.0, start.1, end.0, end.1, half_width] {
                        h.f64(v);
                    }
                }
            }
        }
        h.f64(self.ignition_time);
        h.u64(self.coupled as u64);
        h.u64(self.fast_math as u64);
        h.f64(self.dt);
        h.0
    }
}

/// FNV-1a accumulator for [`Scenario::fingerprint`].
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use crate::registry;

    #[test]
    fn fingerprint_stable_and_field_sensitive() {
        let s = registry::all()[0].clone();
        let fp = s.fingerprint();
        assert_eq!(fp, s.clone().fingerprint(), "fingerprint must be pure");
        assert_ne!(fp, s.clone().with_coupling(!s.coupled).fingerprint());
        assert_ne!(fp, s.clone().with_ambient_wind((9.75, -1.0)).fingerprint());
        assert_ne!(fp, s.translated(1e-9, 0.0).fingerprint());
        let mut dt = s.clone();
        dt.dt += 1e-12;
        assert_ne!(fp, dt.fingerprint(), "dt is hashed by bit pattern");
    }
}
