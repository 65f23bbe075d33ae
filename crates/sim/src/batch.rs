//! `SimBatch`: N realized [`Simulation`]s advanced over the worker pool,
//! kept only for `benchmark/src/api.rs`; deleted by ROADMAP 1a. Many fires
//! at once are `wildfire_service::ForecastService` requests, or one
//! [`wildfire_ensemble::EnsembleDriver`] over N states of one model.
//!
//! ```no_run
//! # let sims: Vec<wildfire_sim::Simulation> = Vec::new();
//! let mut batch = wildfire_sim::SimBatch::new(2);
//! for sim in sims {
//!     batch.push(sim);
//! }
//! batch.advance_to(60.0).unwrap();
//! let area: f64 = batch.products().iter().map(|p| p.burned_area).sum();
//! ```

use crate::builder::Simulation;
use crate::Result;
use wildfire_ensemble::pool;

/// One slot's product: kept only for `benchmark/src/api.rs`; deleted by
/// ROADMAP 1a.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProducts {
    /// Burned area (m²).
    pub burned_area: f64,
}

/// N simulations stepped over the pool: kept only for
/// `benchmark/src/api.rs`; deleted by ROADMAP 1a.
#[doc(hidden)]
pub struct SimBatch {
    sims: Vec<Simulation>,
    threads: usize,
}

impl SimBatch {
    /// An empty batch stepped on up to `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        SimBatch {
            sims: Vec::new(),
            threads: threads.max(1),
        }
    }

    /// Adds a simulation; returns its slot index.
    pub fn push(&mut self, sim: Simulation) -> usize {
        self.sims.push(sim);
        self.sims.len() - 1
    }

    /// Runs every slot to `horizon` with [`Simulation::run_until`], one
    /// pool item per slot, so results are bit-identical for every thread
    /// count.
    ///
    /// # Errors
    /// The lowest-indexed failing slot's error; every other slot completes.
    pub fn advance_to(&mut self, horizon: f64) -> Result<()> {
        // Each simulation carries its own workspace; the pool needs only a
        // worker count (a `Vec` of `()` never allocates).
        let mut workers = vec![(); self.threads];
        pool::try_for_each_ws(&mut self.sims, &mut workers, |_, sim, ()| {
            sim.run_until(horizon, |_, _| {})
        })
    }

    /// Every slot's product, in slot order.
    pub fn products(&self) -> Vec<SlotProducts> {
        self.sims
            .iter()
            .map(|sim| SlotProducts {
                burned_area: sim.state.fire.burned_area(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DomainSpec;
    use crate::SimulationBuilder;
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
        let mut reference: Option<Vec<Simulation>> = None;
        for threads in [1usize, 3] {
            let mut batch = SimBatch::new(threads);
            for k in 0..n {
                batch.push(tiny_sim(k));
            }
            batch.advance_to(t_end).expect("advance");
            let states = batch.sims;
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
