//! Ensemble-perturbation hooks: turn one [`Scenario`] into a family of
//! member scenarios by randomly displacing ignitions and jittering winds —
//! the identical-twin setup of the paper's Fig. 4 ("the initial ensemble was
//! created by a random perturbation of the comparison solution, with the
//! fire ignited at an intentionally incorrect location").

use crate::builder::Simulation;
use crate::scenario::Scenario;
use crate::{Result, SimError};
use wildfire_core::{CoupledModel, CoupledState};
use wildfire_fire::ignition::displaced;
use wildfire_math::GaussianSampler;

/// How member scenarios are perturbed relative to the base scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbationSpec {
    /// Std of the per-member rigid translation of all ignition shapes (m).
    /// The draws come from [`wildfire_fire::ignition::displaced`] (Δx then
    /// Δy per member), the same primitive behind
    /// `EnsembleDriver::initial_ensemble`, so circle scenarios produce
    /// bit-identical ensembles for equal seeds through either API.
    pub position_spread: f64,
    /// Std of the per-member perturbation of each ambient-wind component
    /// (m/s); zero leaves the wind deterministic. Wind jitter changes the
    /// member's initial wind, which is model data, so only the per-member
    /// paths ([`perturbed_scenarios`], [`perturbed_simulations`]) honor
    /// it; the shared-model paths reject it.
    pub wind_spread: f64,
    /// RNG seed; equal seeds give equal member families.
    pub seed: u64,
}

impl PerturbationSpec {
    /// Position-only perturbation (the paper's Fig. 4 setup).
    pub fn position_only(position_spread: f64, seed: u64) -> Self {
        PerturbationSpec {
            position_spread,
            wind_spread: 0.0,
            seed,
        }
    }
}

/// Generates `n_members` perturbed copies of `base`.
pub fn perturbed_scenarios(
    base: &Scenario,
    spec: &PerturbationSpec,
    n_members: usize,
) -> Vec<Scenario> {
    let mut rng = GaussianSampler::new(spec.seed);
    (0..n_members)
        .map(|i| {
            let mut member = base.clone();
            member.ignitions = displaced(&base.ignitions, spec.position_spread, &mut rng);
            if spec.wind_spread > 0.0 {
                member.wind.ambient.0 += rng.normal(0.0, spec.wind_spread);
                member.wind.ambient.1 += rng.normal(0.0, spec.wind_spread);
            }
            member.name = format!("{}#{i}", base.name);
            member
        })
        .collect()
}

/// Builds one full [`Simulation`] (own model + state) per perturbed
/// member — the path that honors every field of the spec, including wind
/// jitter.
///
/// # Errors
/// Propagates model-construction failures.
pub fn perturbed_simulations(
    base: &Scenario,
    spec: &PerturbationSpec,
    n_members: usize,
) -> Result<Vec<Simulation>> {
    perturbed_scenarios(base, spec, n_members)
        .iter()
        .map(Scenario::build)
        .collect()
}

/// Ignites one state per perturbed member on a shared model — the common
/// case where all members run the same physics and differ only in initial
/// condition. A model built from `base` ([`Scenario::model`]) carries its
/// wind-shift schedule, so the members follow it as they step.
///
/// # Errors
/// [`SimError::Scenario`] when `base` has no ignition shapes (as
/// [`Scenario::build`]), or when `spec.wind_spread > 0`: per-member initial
/// winds need per-member models ([`perturbed_simulations`]).
pub fn perturbed_states(
    base: &Scenario,
    spec: &PerturbationSpec,
    n_members: usize,
    model: &CoupledModel,
) -> Result<Vec<CoupledState>> {
    if base.ignitions.is_empty() {
        return Err(SimError::Scenario("scenario has no ignition shapes"));
    }
    if spec.wind_spread > 0.0 {
        return Err(SimError::Scenario(
            "wind_spread requires per-member models; use perturbed_simulations",
        ));
    }
    Ok(perturbed_scenarios(base, spec, n_members)
        .iter()
        .map(|s| s.ignite(model))
        .collect())
}

/// Builds the shared model from `base` and ignites one state per member:
/// the one-call ensemble bootstrap.
///
/// # Errors
/// Propagates model-construction failures; rejects `wind_spread > 0` as
/// [`perturbed_states`] does.
pub fn build_ensemble(
    base: &Scenario,
    spec: &PerturbationSpec,
    n_members: usize,
) -> Result<(CoupledModel, Vec<CoupledState>)> {
    let model = base.model()?;
    let states = perturbed_states(base, spec, n_members, &model)?;
    Ok((model, states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use wildfire_fire::IgnitionShape;

    fn base() -> Scenario {
        registry::by_name(registry::CIRCLE_IGNITION).expect("registry scenario")
    }

    #[test]
    fn equal_seeds_give_identical_families() {
        let spec = PerturbationSpec::position_only(12.0, 42);
        let a = perturbed_scenarios(&base(), &spec, 5);
        let b = perturbed_scenarios(&base(), &spec, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = perturbed_scenarios(&base(), &PerturbationSpec::position_only(12.0, 1), 4);
        let b = perturbed_scenarios(&base(), &PerturbationSpec::position_only(12.0, 2), 4);
        assert_ne!(a, b);
    }

    #[test]
    fn members_are_rigid_translations() {
        let spec = PerturbationSpec::position_only(20.0, 7);
        let scn = base();
        let members = perturbed_scenarios(&scn, &spec, 8);
        let IgnitionShape::Circle {
            center: c0,
            radius: r0,
        } = scn.ignitions[0]
        else {
            panic!("circle scenario expected");
        };
        let mut any_moved = false;
        for m in &members {
            let IgnitionShape::Circle { center, radius } = m.ignitions[0] else {
                panic!("member must stay a circle");
            };
            assert_eq!(radius, r0, "translation must not scale shapes");
            if (center.0 - c0.0).abs() > 1e-12 || (center.1 - c0.1).abs() > 1e-12 {
                any_moved = true;
            }
        }
        assert!(any_moved, "perturbation must displace ignitions");
    }

    #[test]
    fn build_ensemble_shares_one_model() {
        let spec = PerturbationSpec::position_only(10.0, 3);
        let (model, states) = build_ensemble(&base(), &spec, 4).expect("build");
        assert_eq!(states.len(), 4);
        for s in &states {
            assert_eq!(s.fire.grid(), model.fire_grid);
            assert!(s.fire.burned_area() > 0.0);
        }
    }

    #[test]
    fn wind_spread_jitters_wind_in_scenarios_and_simulations() {
        let spec = PerturbationSpec {
            position_spread: 0.0,
            wind_spread: 1.0,
            seed: 9,
        };
        let members = perturbed_scenarios(&base(), &spec, 4);
        let base_wind = base().wind.ambient;
        assert!(
            members.iter().any(|m| m.wind.ambient != base_wind),
            "wind jitter must change some member's wind"
        );
        // And the per-member simulations carry it into their models.
        let sims = perturbed_simulations(&base(), &spec, 4).expect("sims");
        assert!(
            sims.iter()
                .any(|s| s.model.atmos.params.ambient_wind != base_wind),
            "wind jitter must reach the member models"
        );
    }

    #[test]
    fn shared_model_paths_reject_wind_spread() {
        let spec = PerturbationSpec {
            position_spread: 5.0,
            wind_spread: 0.5,
            seed: 1,
        };
        assert!(build_ensemble(&base(), &spec, 3).is_err());
        let model = base().model().expect("model");
        assert!(perturbed_states(&base(), &spec, 3, &model).is_err());
    }

    #[test]
    fn shared_model_paths_reject_empty_ignitions() {
        // As `Scenario::build` does: a member with no fire is no member.
        let spec = PerturbationSpec::position_only(5.0, 1);
        let bare = base().with_ignitions(Vec::new());
        assert!(build_ensemble(&bare, &spec, 3).is_err());
    }

    #[test]
    fn shared_model_members_follow_wind_shift_schedules() {
        // One model, N states, forecast past the 60 s shift: member for
        // member the bits of N simulations run alone.
        let shifted = registry::by_name(registry::WIND_SHIFT).expect("registry scenario");
        let spec = PerturbationSpec::position_only(5.0, 1);
        let (model, mut states) = build_ensemble(&shifted, &spec, 2).expect("shared model");
        let driver = wildfire_ensemble::EnsembleDriver::new(model, 2);
        let mut ws = wildfire_ensemble::EnsembleWorkspace::new();
        driver
            .forecast_ws(&mut states, 61.0, shifted.dt, &mut ws)
            .expect("forecast");
        let bits = |s: &CoupledState| -> Vec<u64> {
            let (f, a) = (&s.fire, &s.atmos);
            [
                f.psi.as_slice(),
                f.tig.as_slice(),
                &a.u,
                &a.v,
                &a.w,
                &a.theta,
                &a.qv,
            ]
            .concat()
            .iter()
            .chain(&[f.time, a.time, a.ambient_wind.0, a.ambient_wind.1])
            .map(|v| v.to_bits())
            .collect()
        };
        let mut sims = perturbed_simulations(&shifted, &spec, 2).expect("sims");
        for (state, sim) in states.iter().zip(&mut sims) {
            sim.run_until(61.0, |_, _| {}).expect("run");
            assert!(
                bits(state) == bits(&sim.state),
                "member differs from its simulation"
            );
            assert_eq!(state.atmos.ambient_wind, (0.0, 4.0), "the shift applied");
        }
    }
}
