//! Property suite pinning batched execution **bitwise** to independent
//! per-slot stepping.
//!
//! This is the PR-5/6-style contract for the `SimBatch` layer: for random
//! small batches — mixed ignitions, winds, coupling flags,
//! reference steps, wind-shift schedules and starting clocks, with fewer
//! or more slots than workers — every slot advanced through the batch
//! (one work item per slot, work-stolen over the pool) must end in exactly
//! the state the plain [`Simulation::run_until`] loop produces, and the
//! batch rollups must equal the rollup of the independent diagnostics
//! stream bit for bit. Scheduling is allowed to change *when* work
//! happens, never *what* is computed.

use proptest::prelude::*;
use wildfire_fire::IgnitionShape;
use wildfire_sim::batch::SimBatch;
use wildfire_sim::{DomainSpec, Simulation, SimulationBuilder};

/// Specification of one randomized slot.
#[derive(Debug, Clone)]
struct SlotSpec {
    offset: (f64, f64),
    wind: (f64, f64),
    coupled: bool,
    half_dt: bool,
    shift: Option<(f64, f64)>,
    /// Clock the slot has already reached when it joins the batch: `0`,
    /// part-way, or past the batch horizon.
    head_start: f64,
}

fn slot_spec() -> impl Strategy<Value = SlotSpec> {
    (
        (-50.0f64..50.0, -50.0f64..50.0),
        (-5.0f64..5.0, -5.0f64..5.0),
        0u32..4,
        (0u32..2, (-4.0f64..4.0, -4.0f64..4.0)),
        0u32..4,
    )
        .prop_map(
            |(offset, wind, flags, (has_shift, shift_to), clock)| SlotSpec {
                offset,
                wind,
                coupled: flags & 1 != 0,
                half_dt: flags & 2 != 0,
                shift: (has_shift == 1).then_some(shift_to),
                head_start: [0.0, 0.0, 0.75, 3.0][clock as usize],
            },
        )
}

/// A deliberately tiny domain (13×13 fire mesh over a 5×5×4 atmosphere)
/// so the 64-case default stays cheap in debug builds; the kernels under
/// test are dimension-generic.
const TINY: DomainSpec = DomainSpec {
    nx: 5,
    ny: 5,
    nz: 4,
    dx: 60.0,
    dy: 60.0,
    dz: 50.0,
    refinement: 3,
};

fn build_slot(spec: &SlotSpec) -> Simulation {
    let domain = TINY;
    let center = domain.center();
    let mut b = SimulationBuilder::new()
        .domain(domain)
        .ambient_wind(spec.wind.0, spec.wind.1)
        .ignite(IgnitionShape::Circle {
            center: (center.0 + spec.offset.0, center.1 + spec.offset.1),
            radius: 25.0,
        })
        .coupled(spec.coupled)
        .dt(if spec.half_dt { 0.25 } else { 0.5 });
    if let Some(to) = spec.shift {
        b = b.wind_shift(1.0, to);
    }
    let mut sim = b.build().expect("slot scenario builds");
    sim.run_until(spec.head_start, |_, _| {})
        .expect("head start");
    sim
}

proptest! {
    /// Random batches against the independent loop: final ψ, ignition
    /// times, clocks, full atmospheric state and diagnostics rollups all
    /// bitwise-equal, for every worker count.
    #[test]
    fn batch_advance_is_bitwise_identical_to_independent_runs(
        specs in prop::collection::vec(slot_spec(), 1..9),
        threads in 1usize..5,
    ) {
        let t_end = 2.0;
        let sims: Vec<Simulation> = specs.iter().map(build_slot).collect();
        let mut batch = SimBatch::new(threads);
        let mut independent: Vec<Simulation> = Vec::new();
        for sim in sims {
            independent.push(sim.clone());
            batch.push(sim);
        }
        batch.advance_to(t_end).expect("batch advance");

        for (i, sim) in independent.iter_mut().enumerate() {
            let mut steps = 0usize;
            let mut max_spread = 0.0f64;
            let mut max_updraft = 0.0f64;
            sim.run_until(t_end, |_, d| {
                steps += 1;
                max_spread = max_spread.max(d.max_spread_rate);
                max_updraft = max_updraft.max(d.max_updraft);
            })
            .expect("independent run");
            let batched = &batch.simulation(i).state;
            let solo = &sim.state;
            prop_assert_eq!(&batched.fire.psi, &solo.fire.psi);
            prop_assert_eq!(&batched.fire.tig, &solo.fire.tig);
            prop_assert_eq!(batched.fire.time.to_bits(), solo.fire.time.to_bits());
            prop_assert_eq!(&batched.atmos.u, &solo.atmos.u);
            prop_assert_eq!(&batched.atmos.v, &solo.atmos.v);
            prop_assert_eq!(&batched.atmos.w, &solo.atmos.w);
            prop_assert_eq!(&batched.atmos.theta, &solo.atmos.theta);
            prop_assert_eq!(&batched.atmos.qv, &solo.atmos.qv);
            let p = &batch.products()[i];
            prop_assert_eq!(p.coupled_steps, steps);
            prop_assert_eq!(p.max_spread_rate.to_bits(), max_spread.to_bits());
            prop_assert_eq!(p.max_updraft.to_bits(), max_updraft.to_bits());
        }
    }
}
