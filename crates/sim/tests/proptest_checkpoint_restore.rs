//! Property suite pinning the headline checkpoint contract **bitwise**:
//! checkpoint mid-run → serialize → restore into a freshly built
//! simulation → continue must equal the uninterrupted run exactly, over
//! random scenarios (ignition geometry, wind + shift schedules, coupling,
//! fast-math, dt) and random checkpoint times.
//!
//! The restore always goes through the full byte round-trip
//! (`Snapshot::to_bytes` → `from_bytes`), so the property also covers the
//! serialization layer: an encoding that loses even one bit of ψ, ignition
//! time, atmosphere, or schedule cursor fails here.

use proptest::prelude::*;
use wildfire_fire::IgnitionShape;
use wildfire_obs::Snapshot;
use wildfire_sim::{DomainSpec, Scenario, Simulation, SimulationBuilder};

/// Specification of one randomized scenario + checkpoint schedule.
#[derive(Debug, Clone)]
struct CkptSpec {
    offset: (f64, f64),
    wind: (f64, f64),
    coupled: bool,
    fast_math: bool,
    half_dt: bool,
    shift: Option<(f64, f64)>,
    /// Coupled steps to run before the checkpoint (the shift at t = 1.0
    /// can land before, at, or after it).
    steps_before: usize,
    /// Coupled steps to run after the restore.
    steps_after: usize,
}

fn ckpt_spec() -> impl Strategy<Value = CkptSpec> {
    (
        (-50.0f64..50.0, -50.0f64..50.0),
        (-5.0f64..5.0, -5.0f64..5.0),
        0u32..8,
        (0u32..2, (-4.0f64..4.0, -4.0f64..4.0)),
        (1usize..5, 1usize..4),
    )
        .prop_map(
            |(offset, wind, flags, (has_shift, shift_to), (steps_before, steps_after))| CkptSpec {
                offset,
                wind,
                coupled: flags & 1 != 0,
                fast_math: flags & 2 != 0,
                half_dt: flags & 4 != 0,
                shift: (has_shift == 1).then_some(shift_to),
                steps_before,
                steps_after,
            },
        )
}

/// Tiny domain (same rationale as the batch-equivalence suite): the
/// snapshot codec and restore paths are dimension-generic, so small grids
/// keep the 64-case default cheap.
const TINY: DomainSpec = DomainSpec {
    nx: 5,
    ny: 5,
    nz: 4,
    dx: 60.0,
    dy: 60.0,
    dz: 50.0,
    refinement: 3,
};

fn scenario_for(spec: &CkptSpec) -> Scenario {
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
        .fast_math(spec.fast_math)
        .dt(if spec.half_dt { 0.25 } else { 0.5 });
    if let Some(to) = spec.shift {
        b = b.wind_shift(1.0, to);
    }
    b.into_scenario()
}

fn assert_states_equal(a: &Simulation, b: &Simulation) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.state.fire.psi, &b.state.fire.psi);
    prop_assert_eq!(&a.state.fire.tig, &b.state.fire.tig);
    prop_assert_eq!(a.state.fire.time.to_bits(), b.state.fire.time.to_bits());
    prop_assert_eq!(&a.state.atmos.u, &b.state.atmos.u);
    prop_assert_eq!(&a.state.atmos.v, &b.state.atmos.v);
    prop_assert_eq!(&a.state.atmos.w, &b.state.atmos.w);
    prop_assert_eq!(&a.state.atmos.theta, &b.state.atmos.theta);
    prop_assert_eq!(&a.state.atmos.qv, &b.state.atmos.qv);
    prop_assert_eq!(a.state.atmos.time.to_bits(), b.state.atmos.time.to_bits());
    Ok(())
}

proptest! {
    /// Checkpoint → byte round-trip → restore into a fresh build →
    /// continue, against the uninterrupted run: bitwise equal at the
    /// checkpoint and after every continued step.
    #[test]
    fn restore_and_continue_is_bitwise_identical(spec in ckpt_spec()) {
        let scenario = scenario_for(&spec);
        let mut original = scenario.build().expect("scenario builds");
        for _ in 0..spec.steps_before {
            original.step().expect("pre-checkpoint step");
        }

        // Checkpoint through the full serialization path.
        let mut snap = Snapshot::new();
        original.snapshot_into(&mut snap);
        let bytes = snap.to_bytes();
        let snap = Snapshot::from_bytes(&bytes).expect("snapshot parses");

        // Restore into a *freshly built* simulation (cold workspace, state
        // at t = 0) — the disaster-recovery path.
        let mut restored = scenario.build().expect("scenario rebuilds");
        restored.restore_from(&snap).expect("restore succeeds");
        assert_states_equal(&original, &restored)?;

        // Continue both; every step must stay bitwise identical (wind
        // shifts fire from the restored cursor).
        for _ in 0..spec.steps_after {
            original.step().expect("original continues");
            restored.step().expect("restored continues");
            assert_states_equal(&original, &restored)?;
        }
        prop_assert_eq!(
            original.model.atmos.params.ambient_wind,
            restored.model.atmos.params.ambient_wind
        );
    }

    /// A snapshot from one scenario must refuse to restore into a
    /// different one (perturbed ignition), never silently mis-restore.
    #[test]
    fn restore_rejects_cross_scenario_checkpoints(spec in ckpt_spec()) {
        let scenario = scenario_for(&spec);
        let mut original = scenario.build().expect("scenario builds");
        original.step().expect("step");
        let mut snap = Snapshot::new();
        original.snapshot_into(&mut snap);

        let other = scenario.translated(3.0, -2.0);
        let mut victim = other.build().expect("perturbed scenario builds");
        prop_assert!(victim.restore_from(&snap).is_err());
    }
}
