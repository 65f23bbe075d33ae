//! Property suite pinning the ensemble forecast **bitwise** to each member
//! run alone.
//!
//! Each case draws one model (ambient wind, coupling flag, reference step,
//! an optional wind shift) and 1–8 members of it from
//! [`perturbed_states`], each with its own head start — at `0`, part-way,
//! or past the forecast target — and a worker count of 1–4, so there are
//! fewer or more members than workers. Every member advanced by
//! [`EnsembleDriver::forecast_ws`] (one pool item per member, claimed from
//! a shared cursor) must end in exactly the state the plain
//! `CoupledModel::run_ws` loop produces for it alone: ψ, ignition times,
//! both clocks and the full atmospheric state. Scheduling is allowed to
//! change *when* work happens, never *what* is computed.

use proptest::prelude::*;
use wildfire_core::CoupledWorkspace;
use wildfire_ensemble::{EnsembleDriver, EnsembleWorkspace};
use wildfire_fire::IgnitionShape;
use wildfire_sim::perturb::perturbed_states;
use wildfire_sim::{DomainSpec, PerturbationSpec, Scenario, SimulationBuilder};

/// Specification of one randomized model.
#[derive(Debug, Clone)]
struct ModelSpec {
    wind: (f64, f64),
    coupled: bool,
    half_dt: bool,
    shift: Option<(f64, f64)>,
}

fn model_spec() -> impl Strategy<Value = ModelSpec> {
    (
        (-5.0f64..5.0, -5.0f64..5.0),
        0u32..4,
        (0u32..2, (-4.0f64..4.0, -4.0f64..4.0)),
    )
        .prop_map(|(wind, flags, (has_shift, shift_to))| ModelSpec {
            wind,
            coupled: flags & 1 != 0,
            half_dt: flags & 2 != 0,
            shift: (has_shift == 1).then_some(shift_to),
        })
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

fn scenario(spec: &ModelSpec) -> Scenario {
    let mut b = SimulationBuilder::new()
        .domain(TINY)
        .ambient_wind(spec.wind.0, spec.wind.1)
        .ignite(IgnitionShape::Circle {
            center: TINY.center(),
            radius: 25.0,
        })
        .coupled(spec.coupled)
        .dt(if spec.half_dt { 0.25 } else { 0.5 });
    if let Some(to) = spec.shift {
        b = b.wind_shift(1.0, to);
    }
    b.into_scenario()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Random ensembles against the member-alone loop, for every worker
    /// count.
    #[test]
    fn forecast_is_bitwise_identical_to_each_member_run_alone(
        spec in model_spec(),
        clocks in prop::collection::vec(0u32..4, 1..9),
        (spread, seed) in (0.0f64..40.0, 0u64..1000),
        threads in 1usize..5,
    ) {
        let t_end = 2.0;
        let scenario = scenario(&spec);
        let dt = scenario.dt;
        let model = scenario.model().expect("model builds");
        let perturbation = PerturbationSpec::position_only(spread, seed);
        let mut members = perturbed_states(&scenario, &perturbation, clocks.len(), &model)
            .expect("members");
        let mut ws = CoupledWorkspace::new();
        for (member, &clock) in members.iter_mut().zip(&clocks) {
            let head_start = [0.0, 0.0, 0.75, 3.0][clock as usize];
            model.run_ws(member, head_start, dt, &mut ws, |_, _| {}).expect("head start");
        }
        let mut alone = members.clone();
        let driver = EnsembleDriver::new(model, threads);
        driver
            .forecast_ws(&mut members, t_end, dt, &mut EnsembleWorkspace::new())
            .expect("forecast");

        for (solo, forecast) in alone.iter_mut().zip(&members) {
            driver.model.run_ws(solo, t_end, dt, &mut ws, |_, _| {}).expect("run alone");
            let (f, g) = (&forecast.fire, &solo.fire);
            prop_assert_eq!(bits(f.psi.as_slice()), bits(g.psi.as_slice()));
            prop_assert_eq!(bits(f.tig.as_slice()), bits(g.tig.as_slice()));
            prop_assert_eq!(f.time.to_bits(), g.time.to_bits());
            let (a, b) = (&forecast.atmos, &solo.atmos);
            prop_assert_eq!(a.time.to_bits(), b.time.to_bits());
            prop_assert_eq!(bits(&a.u), bits(&b.u));
            prop_assert_eq!(bits(&a.v), bits(&b.v));
            prop_assert_eq!(bits(&a.w), bits(&b.w));
            prop_assert_eq!(bits(&a.theta), bits(&b.theta));
            prop_assert_eq!(bits(&a.qv), bits(&b.qv));
        }
    }
}
