//! Property suite for whole-ensemble checkpoints: over random ensembles
//! (member count, perturbation seed/spread, forecast length, RNG draw
//! phase) the snapshot must round-trip through bytes bitwise — members,
//! clocks, *and* the sampler's stream position including the half-drawn
//! Marsaglia pair — and any truncation of the byte stream must be
//! rejected, never half-restored.

use proptest::prelude::*;
use wildfire_atmos::state::AtmosGrid;
use wildfire_atmos::AtmosParams;
use wildfire_core::CoupledState;
use wildfire_ensemble::{EnsembleDriver, EnsembleWorkspace};
use wildfire_fire::ignition::{displaced, IgnitionShape};
use wildfire_fire::FuelCategory;
use wildfire_math::GaussianSampler;
use wildfire_obs::Snapshot;

#[derive(Debug, Clone)]
struct EnsSpec {
    n_members: usize,
    seed: u64,
    spread: f64,
    steps: usize,
    /// Normal draws consumed before the checkpoint — odd counts leave the
    /// sampler holding a spare variate, which must survive the trip.
    draws: usize,
}

fn ens_spec() -> impl Strategy<Value = EnsSpec> {
    (2usize..5, 0u64..1000, 5.0f64..20.0, 0usize..3, 0usize..5).prop_map(
        |(n_members, seed, spread, steps, draws)| EnsSpec {
            n_members,
            seed,
            spread,
            steps,
            draws,
        },
    )
}

fn driver() -> EnsembleDriver {
    let model = wildfire_core::CoupledModel::new(
        AtmosGrid {
            nx: 6,
            ny: 6,
            nz: 4,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
        },
        AtmosParams::default(),
        FuelCategory::ShortGrass,
        4,
    )
    .unwrap();
    EnsembleDriver::new(model, 1)
}

fn random_ensemble(d: &EnsembleDriver, spec: &EnsSpec) -> Vec<CoupledState> {
    // A 25 m circle at (180, 180), displaced per member as
    // `wildfire_sim::perturb` draws it.
    let nominal = [IgnitionShape::Circle {
        center: (180.0, 180.0),
        radius: 25.0,
    }];
    let mut rng = GaussianSampler::new(spec.seed);
    let mut members: Vec<CoupledState> = (0..spec.n_members)
        .map(|_| {
            d.model
                .ignite(&displaced(&nominal, spec.spread, &mut rng), 0.0)
        })
        .collect();
    if spec.steps > 0 {
        let mut ws = EnsembleWorkspace::new();
        d.forecast_ws(&mut members, spec.steps as f64 * 0.5, 0.5, &mut ws)
            .unwrap();
    }
    members
}

proptest! {
    #[test]
    fn ensemble_snapshot_roundtrips_bitwise(spec in ens_spec()) {
        let d = driver();
        let members = random_ensemble(&d, &spec);
        let mut rng = GaussianSampler::new(spec.seed ^ 0xABCD);
        for _ in 0..spec.draws {
            rng.standard_normal();
        }

        let mut snap = Snapshot::new();
        d.snapshot_into(&members, &rng, &mut snap);
        let bytes = snap.to_bytes();
        // Parse into a warm, differently-shaped target: buffer reuse must
        // not leak the previous contents.
        let mut parsed = Snapshot::new();
        parsed.put_slice("ens/psi", &[9.0; 7]);
        parsed.put_slice("stale/record", &[1.0]);
        Snapshot::from_bytes_into(&bytes, &mut parsed).unwrap();
        prop_assert_eq!(&parsed, &snap);

        let mut restored: Vec<CoupledState> = (0..spec.n_members)
            .map(|_| d.model.ignite(&[], 0.0))
            .collect();
        let mut rng2 = GaussianSampler::new(0);
        d.restore_from(&mut restored, &mut rng2, &parsed).unwrap();

        for (a, b) in members.iter().zip(restored.iter()) {
            prop_assert_eq!(&a.fire.psi, &b.fire.psi);
            prop_assert_eq!(&a.fire.tig, &b.fire.tig);
            prop_assert_eq!(a.fire.time.to_bits(), b.fire.time.to_bits());
            prop_assert_eq!(&a.atmos, &b.atmos);
        }
        // The restored sampler must resume the identical stream, spare
        // variate included.
        for _ in 0..4 {
            prop_assert_eq!(
                rng.standard_normal().to_bits(),
                rng2.standard_normal().to_bits()
            );
        }
    }

    #[test]
    fn truncated_ensemble_snapshots_rejected(spec in ens_spec(), frac in 0.0f64..1.0) {
        let d = driver();
        let members = random_ensemble(&d, &spec);
        let rng = GaussianSampler::new(spec.seed);
        let mut snap = Snapshot::new();
        d.snapshot_into(&members, &rng, &mut snap);
        let bytes = snap.to_bytes();
        // Any strict prefix must fail to parse.
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(Snapshot::from_bytes(&bytes[..cut]).is_err());
        // And trailing junk must be rejected too.
        let mut long = bytes.clone();
        long.push(0);
        prop_assert!(Snapshot::from_bytes(&long).is_err());
    }
}
