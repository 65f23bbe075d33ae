//! [`SimBatch`]: many concurrent fire forecasts advanced as one batch.
//!
//! The paper's end goal is an operational service running many data-driven
//! fire forecasts at once, not one simulation per process. `SimBatch` is
//! the offline form of that: it owns N realized [`Simulation`]s (each a
//! coupled model + state + private workspace) and advances them toward a
//! shared horizon the way the paper's Fig. 2 loop advances ensemble
//! members — independently, in parallel. Every slot is one work item,
//! claimed from a shared atomic cursor by the ensemble worker pool
//! (`wildfire_ensemble::pool::parallel_for_each_ws`), so a cheap
//! or already-finished fire never pins a worker while another grinds
//! through an expensive one. There is no lockstep and no compatibility
//! rule: slots may differ in grid, fuels, reference dt and clock. (The
//! long-lived `wildfire-service` schedules whole requests on its own
//! workers and does not go through this type.)
//!
//! **Bitwise contract.** A slot's advance *is* [`Simulation::run_until`],
//! so batched results are bit-identical to running every slot alone, for
//! every batch composition and thread count, by construction. The proptest
//! suite in `crates/sim/tests/` pins the schedule independence.
//!
//! ```no_run
//! use wildfire_sim::batch::SimBatch;
//! use wildfire_sim::registry;
//!
//! let mut batch = SimBatch::new(4);
//! for name in [registry::FIG1_FIRELINE, registry::WIND_SHIFT] {
//!     let scenario = registry::by_name(name).unwrap();
//!     batch.push_scenario(&scenario).unwrap();
//! }
//! batch.advance_to(60.0).unwrap();
//! for p in batch.products() {
//!     println!("{}: burned {:.0} m², perimeter {:.0} m", p.name, p.burned_area, p.perimeter_length);
//! }
//! ```

use crate::builder::Simulation;
use crate::scenario::Scenario;
use crate::{Result, SimulationBuilder};
use wildfire_core::StepDiagnostics;
use wildfire_ensemble::pool;
use wildfire_fire::perimeter::perimeter_length;

/// Per-slot rollup of the diagnostics stream a slot produced while the
/// batch advanced — running maxima/counters only, so it composes across
/// repeated [`SimBatch::advance_to`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Rollup {
    steps: usize,
    max_spread_rate: f64,
    max_updraft: f64,
    max_surface_wind: f64,
    peak_sensible_power: f64,
    peak_latent_power: f64,
}

impl Rollup {
    fn absorb(&mut self, d: &StepDiagnostics) {
        self.steps += 1;
        self.max_spread_rate = self.max_spread_rate.max(d.max_spread_rate);
        self.max_updraft = self.max_updraft.max(d.max_updraft);
        self.max_surface_wind = self.max_surface_wind.max(d.max_surface_wind);
        self.peak_sensible_power = self.peak_sensible_power.max(d.total_sensible_power);
        self.peak_latent_power = self.peak_latent_power.max(d.total_latent_power);
    }
}

/// One owned simulation inside the batch plus its rollup and the outcome
/// of its last advance.
struct Slot {
    sim: Simulation,
    rollup: Rollup,
    outcome: Result<()>,
}

impl Slot {
    /// Burned area, perimeter length, and the diagnostics rollups
    /// accumulated across every advance so far.
    fn products(&self) -> SlotProducts {
        SlotProducts {
            name: self.sim.scenario.name.clone(),
            time: self.sim.time(),
            coupled_steps: self.rollup.steps,
            burned_area: self.sim.state.fire.burned_area(),
            perimeter_length: perimeter_length(&self.sim.state.fire.psi),
            max_spread_rate: self.rollup.max_spread_rate,
            max_updraft: self.rollup.max_updraft,
            max_surface_wind: self.rollup.max_surface_wind,
            peak_sensible_power: self.rollup.peak_sensible_power,
            peak_latent_power: self.rollup.peak_latent_power,
        }
    }
}

/// Batch-level products for one slot, as reported by
/// [`SimBatch::products`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProducts {
    /// Scenario name of the slot.
    pub name: String,
    /// Slot simulation time (s).
    pub time: f64,
    /// Coupled steps taken since the slot joined the batch.
    pub coupled_steps: usize,
    /// Burned area (m²).
    pub burned_area: f64,
    /// Fire-front perimeter length (m), via the marching-front extractor
    /// in [`wildfire_fire::perimeter`].
    pub perimeter_length: f64,
    /// Largest front spread rate seen by any level-set sub-step (m/s).
    pub max_spread_rate: f64,
    /// Largest updraft seen after any coupled step (m/s).
    pub max_updraft: f64,
    /// Largest near-surface wind speed seen after any coupled step (m/s).
    pub max_surface_wind: f64,
    /// Peak domain-integrated sensible heat release (W).
    pub peak_sensible_power: f64,
    /// Peak domain-integrated latent heat release (W).
    pub peak_latent_power: f64,
}

/// A batch of concurrent fire forecasts; see the [module docs](self).
pub struct SimBatch {
    slots: Vec<Slot>,
    threads: usize,
}

impl SimBatch {
    /// An empty batch that will step its slots on up to `threads` workers
    /// (clamped to at least one; a value of 1 runs inline).
    pub fn new(threads: usize) -> Self {
        SimBatch {
            slots: Vec::new(),
            threads: threads.max(1),
        }
    }

    /// Adds a realized simulation; returns its slot index.
    pub fn push(&mut self, sim: Simulation) -> usize {
        self.slots.push(Slot {
            sim,
            rollup: Rollup::default(),
            outcome: Ok(()),
        });
        self.slots.len() - 1
    }

    /// Builds and adds a simulation from a scenario; returns its slot
    /// index.
    ///
    /// # Errors
    /// Propagates [`SimulationBuilder::build`] failures.
    pub fn push_scenario(&mut self, scenario: &Scenario) -> Result<usize> {
        let sim = SimulationBuilder::from_scenario(scenario.clone()).build()?;
        Ok(self.push(sim))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the batch holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The simulation in slot `index`.
    ///
    /// # Panics
    /// Panics when `index` is out of range.
    pub fn simulation(&self, index: usize) -> &Simulation {
        &self.slots[index].sim
    }

    /// Advances every slot to `horizon` (slots already past it are left
    /// untouched). Each slot is its own work item: workers claim slots from
    /// the pool's shared cursor and run [`Simulation::run_until`] on them,
    /// so results are bit-identical to advancing each slot alone, for every
    /// thread count. Allocation-free once the slots' workspaces are warm.
    ///
    /// # Errors
    /// The error of the first (lowest-index) failing slot, with the batch
    /// left partially advanced: a failed slot stops at its failing step,
    /// every other slot completes.
    pub fn advance_to(&mut self, horizon: f64) -> Result<()> {
        // The simulations carry their own workspaces; the pool only needs
        // a worker count (a `Vec` of zero-sized items never allocates).
        let mut workers = vec![(); self.threads];
        pool::parallel_for_each_ws(&mut self.slots, &mut workers, |_, slot, ()| {
            let rollup = &mut slot.rollup;
            slot.outcome = slot.sim.run_until(horizon, |_, diag| rollup.absorb(diag));
        });
        self.slots.iter().try_for_each(|s| s.outcome.clone())
    }

    /// The batch product table, in slot order.
    pub fn products(&self) -> Vec<SlotProducts> {
        self.slots.iter().map(Slot::products).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DomainSpec;
    use wildfire_fire::IgnitionShape;

    /// 13×13 fire mesh, so the tests below stay cheap.
    const TINY: DomainSpec = DomainSpec {
        nx: 5,
        ny: 5,
        nz: 4,
        dx: 60.0,
        dy: 60.0,
        dz: 50.0,
        refinement: 3,
    };

    fn tiny_sim(k: usize) -> Simulation {
        let center = TINY.center();
        SimulationBuilder::new()
            .name(format!("tiny-{k}"))
            .domain(TINY)
            .ignite(IgnitionShape::Circle {
                center: (center.0 + 10.0 * k as f64, center.1),
                radius: 25.0,
            })
            .build()
            .expect("tiny scenario builds")
    }

    #[test]
    fn more_slots_than_threads_are_deterministic_across_thread_counts() {
        // More slots than workers, so which worker claims which slot
        // varies run to run; every thread count must still produce
        // bitwise-identical states (the schedule never touches arithmetic).
        let n = 6;
        let t_end = 1.5;
        let mut reference: Option<Vec<crate::Simulation>> = None;
        for threads in [1usize, 3] {
            let mut batch = SimBatch::new(threads);
            for k in 0..n {
                batch.push(tiny_sim(k));
            }
            batch.advance_to(t_end).expect("advance");
            let states: Vec<Simulation> = (0..n).map(|id| batch.simulation(id).clone()).collect();
            match &reference {
                None => reference = Some(states),
                Some(re) => {
                    for (r, s) in re.iter().zip(&states) {
                        assert_eq!(r.state.fire.psi, s.state.fire.psi);
                        assert_eq!(r.state.fire.tig, s.state.fire.tig);
                        assert_eq!(r.state.fire.time.to_bits(), s.state.fire.time.to_bits());
                        assert_eq!(r.state.atmos.theta, s.state.atmos.theta);
                    }
                }
            }
        }
    }
}
