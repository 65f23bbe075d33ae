//! Ensemble-perturbation hooks: turn one [`Scenario`] into a family of
//! members by randomly displacing its ignitions — the identical-twin setup
//! of the paper's Fig. 4 ("the initial ensemble was created by a random
//! perturbation of the comparison solution, with the fire ignited at an
//! intentionally incorrect location"). The members are N states of one
//! model ([`perturbed_states`], [`build_ensemble`]).

use crate::builder::Simulation;
use crate::scenario::Scenario;
use crate::{Result, SimError};
use wildfire_core::{CoupledModel, CoupledState};
use wildfire_fire::ignition::displaced;
use wildfire_math::GaussianSampler;

/// How members are perturbed relative to the base scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbationSpec {
    /// Std of the per-member rigid translation of all ignition shapes (m);
    /// finite and non-negative. The draws come from
    /// [`wildfire_fire::ignition::displaced`] (Δx then Δy per member).
    pub position_spread: f64,
    /// RNG seed; equal seeds give equal member families.
    pub seed: u64,
}

impl PerturbationSpec {
    /// Position-only perturbation (the paper's Fig. 4 setup).
    pub fn position_only(position_spread: f64, seed: u64) -> Self {
        PerturbationSpec {
            position_spread,
            seed,
        }
    }
}

/// Generates `n_members` perturbed copies of `base`.
///
/// # Errors
/// [`SimError::Scenario`] for a non-finite or negative spread: a NaN or
/// infinite ignition offset ignites nothing, and the forecast would run on
/// fireless members without a word.
fn perturbed_scenarios(
    base: &Scenario,
    spec: &PerturbationSpec,
    n_members: usize,
) -> Result<Vec<Scenario>> {
    let spread = spec.position_spread;
    if !(spread.is_finite() && spread >= 0.0) {
        return Err(SimError::Scenario(
            "position_spread must be finite and non-negative",
        ));
    }
    let mut rng = GaussianSampler::new(spec.seed);
    Ok((0..n_members)
        .map(|i| {
            let mut member = base.clone();
            member.ignitions = displaced(&base.ignitions, spread, &mut rng);
            member.name = format!("{}#{i}", base.name);
            member
        })
        .collect())
}

/// Builds one full [`Simulation`] (own model + state) per perturbed
/// member, with the same draws as [`perturbed_states`].
///
/// # Errors
/// [`SimError::Scenario`] for a non-finite or negative
/// `spec.position_spread`; model-construction failures.
pub fn perturbed_simulations(
    base: &Scenario,
    spec: &PerturbationSpec,
    n_members: usize,
) -> Result<Vec<Simulation>> {
    perturbed_scenarios(base, spec, n_members)?
        .iter()
        .map(Scenario::build)
        .collect()
}

/// Ignites one state per perturbed member on a shared model — all members
/// run the same physics and differ only in initial condition. A model
/// built from `base` ([`Scenario::model`]) carries its wind-shift
/// schedule, so the members follow it as they step.
///
/// # Errors
/// [`SimError::Scenario`] when `base` has no ignition shapes (as
/// [`Scenario::build`]), or for a non-finite or negative
/// `spec.position_spread`.
pub fn perturbed_states(
    base: &Scenario,
    spec: &PerturbationSpec,
    n_members: usize,
    model: &CoupledModel,
) -> Result<Vec<CoupledState>> {
    if base.ignitions.is_empty() {
        return Err(SimError::Scenario("scenario has no ignition shapes"));
    }
    Ok(perturbed_scenarios(base, spec, n_members)?
        .iter()
        .map(|s| s.ignite(model))
        .collect())
}

/// Builds the shared model from `base` and ignites one state per member:
/// the one-call ensemble bootstrap.
///
/// # Errors
/// Model-construction failures, and those of [`perturbed_states`].
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
        let a = perturbed_scenarios(&base(), &spec, 5).unwrap();
        let b = perturbed_scenarios(&base(), &spec, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = perturbed_scenarios(&base(), &PerturbationSpec::position_only(12.0, 1), 4).unwrap();
        let b = perturbed_scenarios(&base(), &PerturbationSpec::position_only(12.0, 2), 4).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn members_are_rigid_translations() {
        let spec = PerturbationSpec::position_only(20.0, 7);
        let scn = base();
        let members = perturbed_scenarios(&scn, &spec, 8).unwrap();
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
    fn non_finite_or_negative_spread_is_refused() {
        // A NaN or infinite spread would ignite nothing and forecast
        // fireless members in silence.
        let model = base().model().expect("model");
        for spread in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let spec = PerturbationSpec::position_only(spread, 1);
            assert!(
                matches!(
                    perturbed_states(&base(), &spec, 3, &model),
                    Err(SimError::Scenario(_))
                ),
                "states, spread {spread}"
            );
            assert!(
                matches!(
                    perturbed_simulations(&base(), &spec, 3),
                    Err(SimError::Scenario(_))
                ),
                "simulations, spread {spread}"
            );
            assert!(
                build_ensemble(&base(), &spec, 3).is_err(),
                "spread {spread}"
            );
        }
        let zero = PerturbationSpec::position_only(0.0, 1);
        assert_eq!(
            perturbed_states(&base(), &zero, 2, &model).unwrap().len(),
            2
        );
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
