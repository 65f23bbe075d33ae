//! Named, ready-to-run scenarios. Each entry is a complete [`Scenario`]
//! that examples, the benchmark, and tests share by name instead of
//! re-stating geometry.

use crate::scenario::{DomainSpec, FuelPatch, FuelSpec, Scenario, WindShift, WindSpec};
use wildfire_fire::IgnitionShape;
use wildfire_fuel::FuelCategory;
use wildfire_obs::{ObsStreamKind, ObsStreamSpec};

/// Fig. 1 fireline of the paper: two line ignitions and one circle that
/// merge while coupling to the atmosphere.
pub const FIG1_FIRELINE: &str = "fig1-fireline";
/// Fig. 1 geometry with coupling severed — the "empirical spread model
/// alone" baseline of the figure's caption.
pub const UNCOUPLED_BASELINE: &str = "uncoupled-baseline";
/// One circular ignition at the domain center of the small ensemble domain.
pub const CIRCLE_IGNITION: &str = "circle-ignition";
/// Three separate circular spot fires placed to merge under wind.
pub const MULTI_IGNITION_MERGE: &str = "multi-ignition-merge";
/// A circular fire whose ambient wind veers 90° mid-run (frontal passage).
pub const WIND_SHIFT: &str = "wind-shift";
/// Grass plain with a chaparral stand and a timber-litter fuel break.
pub const HETEROGENEOUS_FUEL: &str = "heterogeneous-fuel";
/// Tall-grass circle burn framed for the Fig. 3 infrared scene.
pub const GRASS_SCENE: &str = "grass-scene";
/// The Fig. 2 data-driven loop: a circle burn with a declared observation
/// pool — gridded ψ every 60 s plus a 2×2 weather-station network every
/// 30 s — for identical-twin assimilation cycles.
pub const FIG2_DATA_DRIVEN: &str = "fig2-data-driven";

/// The paper's Fig. 1 ignition geometry, shared by several scenarios.
fn fig1_ignitions() -> Vec<IgnitionShape> {
    vec![
        IgnitionShape::Line {
            start: (150.0, 210.0),
            end: (150.0, 330.0),
            half_width: 6.0,
        },
        IgnitionShape::Line {
            start: (210.0, 150.0),
            end: (330.0, 150.0),
            half_width: 6.0,
        },
        IgnitionShape::Circle {
            center: (330.0, 330.0),
            radius: 25.0,
        },
    ]
}

fn scenario(
    name: &str,
    description: &str,
    domain: DomainSpec,
    fuel: FuelSpec,
    wind: WindSpec,
    ignitions: Vec<IgnitionShape>,
    coupled: bool,
) -> Scenario {
    Scenario {
        name: name.to_string(),
        description: description.to_string(),
        domain,
        fuel,
        wind,
        ignitions,
        ignition_time: 0.0,
        coupled,
        fast_math: false,
        dt: 0.5,
        streams: Vec::new(),
    }
}

/// All registry scenarios, cheapest-to-build first.
pub fn all() -> Vec<Scenario> {
    vec![
        scenario(
            CIRCLE_IGNITION,
            "single 25 m circle at the center of the small ensemble domain",
            DomainSpec::SMALL,
            FuelSpec::Uniform(FuelCategory::ShortGrass),
            WindSpec::steady(3.0, 0.0),
            vec![IgnitionShape::Circle {
                center: (240.0, 240.0),
                radius: 25.0,
            }],
            true,
        ),
        scenario(
            FIG1_FIRELINE,
            "paper Fig. 1: two line ignitions and a circle merging under two-way coupling",
            DomainSpec::PAPER,
            FuelSpec::Uniform(FuelCategory::ShortGrass),
            WindSpec::steady(3.0, 0.0),
            fig1_ignitions(),
            true,
        ),
        scenario(
            UNCOUPLED_BASELINE,
            "Fig. 1 geometry with coupling severed (empirical spread model alone)",
            DomainSpec::PAPER,
            FuelSpec::Uniform(FuelCategory::ShortGrass),
            WindSpec::steady(3.0, 0.0),
            fig1_ignitions(),
            false,
        ),
        scenario(
            MULTI_IGNITION_MERGE,
            "three spot fires placed crosswind that merge into one perimeter",
            DomainSpec::SMALL,
            FuelSpec::Uniform(FuelCategory::ShortGrass),
            WindSpec::steady(4.0, 0.0),
            vec![
                IgnitionShape::Circle {
                    center: (150.0, 150.0),
                    radius: 18.0,
                },
                IgnitionShape::Circle {
                    center: (150.0, 240.0),
                    radius: 18.0,
                },
                IgnitionShape::Circle {
                    center: (150.0, 330.0),
                    radius: 18.0,
                },
            ],
            true,
        ),
        Scenario {
            name: WIND_SHIFT.to_string(),
            description: "circular burn whose ambient wind veers 90 degrees at t = 60 s"
                .to_string(),
            domain: DomainSpec::SMALL,
            fuel: FuelSpec::Uniform(FuelCategory::ShortGrass),
            wind: WindSpec {
                ambient: (4.0, 0.0),
                shifts: vec![WindShift {
                    at: 60.0,
                    to: (0.0, 4.0),
                }],
            },
            ignitions: vec![IgnitionShape::Circle {
                center: (180.0, 240.0),
                radius: 25.0,
            }],
            ignition_time: 0.0,
            coupled: true,
            fast_math: false,
            dt: 0.5,
            streams: Vec::new(),
        },
        scenario(
            HETEROGENEOUS_FUEL,
            "grass plain with a chaparral stand downwind and a timber-litter fuel break",
            DomainSpec::PAPER,
            FuelSpec::Patches {
                base: FuelCategory::ShortGrass,
                patches: vec![
                    FuelPatch {
                        rect: (330.0, 120.0, 540.0, 480.0),
                        fuel: FuelCategory::Chaparral,
                    },
                    FuelPatch {
                        rect: (270.0, 0.0, 300.0, 540.0),
                        fuel: FuelCategory::TimberLitter,
                    },
                ],
            },
            WindSpec::steady(3.0, 0.0),
            vec![IgnitionShape::Circle {
                center: (120.0, 300.0),
                radius: 25.0,
            }],
            true,
        ),
        scenario(
            GRASS_SCENE,
            "tall-grass circle burn framed for the Fig. 3 synthetic infrared scene",
            DomainSpec::PAPER,
            FuelSpec::Uniform(FuelCategory::TallGrass),
            WindSpec::steady(4.0, 0.0),
            vec![IgnitionShape::Circle {
                center: (300.0, 300.0),
                radius: 40.0,
            }],
            true,
        ),
        scenario(
            FIG2_DATA_DRIVEN,
            "Fig. 2 loop: circle burn with a declared data pool (gridded psi + station network)",
            DomainSpec::SMALL,
            FuelSpec::Uniform(FuelCategory::ShortGrass),
            WindSpec::steady(2.0, 1.0),
            vec![IgnitionShape::Circle {
                center: (240.0, 240.0),
                radius: 25.0,
            }],
            true,
        )
        .with_stream(ObsStreamSpec::new(
            ObsStreamKind::StridedPsi {
                stride: 5,
                sigma: 1.0,
            },
            60.0,
            60.0,
        ))
        .with_stream(ObsStreamSpec::new(
            ObsStreamKind::Stations {
                locations: vec![
                    (150.0, 150.0),
                    (330.0, 150.0),
                    (150.0, 330.0),
                    (330.0, 330.0),
                ],
                theta0: 300.0,
                sigma: 1.0,
            },
            30.0,
            30.0,
        )),
    ]
}

/// Looks a scenario up by name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

/// The names of every registry scenario, in [`all`] order.
pub fn names() -> Vec<String> {
    all().into_iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FuelSpec;

    #[test]
    fn registry_has_at_least_six_unique_scenarios() {
        let names = names();
        assert!(names.len() >= 6, "registry has {} scenarios", names.len());
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names must be unique");
    }

    #[test]
    fn every_registry_scenario_builds_and_steps() {
        for scn in all() {
            let mut sim = scn
                .build()
                .unwrap_or_else(|e| panic!("scenario {} failed to build: {e}", scn.name));
            sim.step()
                .unwrap_or_else(|e| panic!("scenario {} failed to step: {e:?}", scn.name));
            assert!(
                sim.state.fire.burned_area() > 0.0,
                "scenario {} ignited nothing",
                scn.name
            );
        }
    }

    #[test]
    fn by_name_roundtrips_and_rejects_unknown() {
        for name in names() {
            assert_eq!(by_name(&name).expect("present").name, name);
        }
        assert!(by_name("no-such-scenario").is_none());
    }

    #[test]
    fn fig1_and_baseline_differ_only_in_coupling() {
        let fig1 = by_name(FIG1_FIRELINE).expect("fig1");
        let base = by_name(UNCOUPLED_BASELINE).expect("baseline");
        assert!(fig1.coupled && !base.coupled);
        assert_eq!(fig1.ignitions, base.ignitions);
        assert_eq!(fig1.domain, base.domain);
    }

    #[test]
    fn heterogeneous_fuel_scenario_is_heterogeneous() {
        let scn = by_name(HETEROGENEOUS_FUEL).expect("present");
        assert!(scn.fuel.is_heterogeneous());
        match &scn.fuel {
            FuelSpec::Patches { patches, .. } => assert!(patches.len() >= 2),
            FuelSpec::Uniform(_) => panic!("expected patches"),
        }
    }

    #[test]
    fn wind_shift_scenario_changes_wind_mid_run() {
        let scn = by_name(WIND_SHIFT).expect("present");
        assert!(!scn.wind.shifts.is_empty());
        let mut sim = scn.build().expect("builds");
        let before = sim.model.atmos.params.ambient_wind;
        // Jump the clock past the shift time cheaply: step a few times with
        // a large dt (components sub-step internally to stay stable).
        while sim.time() < 61.0 {
            sim.step_by(10.0).expect("step");
        }
        let after = sim.model.atmos.params.ambient_wind;
        assert_ne!(before, after, "ambient wind must shift mid-run");
    }

    #[test]
    fn data_driven_scenario_declares_a_heterogeneous_pool() {
        let scn = by_name(FIG2_DATA_DRIVEN).expect("present");
        assert_eq!(scn.streams.len(), 2, "gridded psi + station network");
        let tl = scn.timeline(120.0);
        assert_eq!(tl.analysis_times(), vec![30.0, 60.0, 90.0, 120.0]);
        // Both streams report at the shared instants — that is what makes
        // the packed ObsSet heterogeneous there.
        assert_eq!(tl.streams_due_at(60.0).count(), 2);
        assert_eq!(tl.streams_due_at(30.0).count(), 1);
        // Other registry scenarios stay forward-only.
        assert!(by_name(FIG1_FIRELINE).expect("fig1").streams.is_empty());
    }

    #[test]
    fn multi_ignition_merge_starts_with_three_components() {
        let scn = by_name(MULTI_IGNITION_MERGE).expect("present");
        let sim = scn.build().expect("builds");
        let comps = wildfire_fire::perimeter::burning_components(&sim.state.fire.psi);
        assert_eq!(comps, 3, "three separate spot fires at t = 0");
    }
}
