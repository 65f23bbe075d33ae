//! The acceptance pin for the sharded ensemble exchange: two **separate
//! worker processes**, each forecasting half the ensemble through a shared
//! [`DiskStore`] directory, followed by a single-process analysis over the
//! gathered states, must reproduce the single-process
//! [`EnsembleDriver::cycle_obs_ws`] bit for bit.
//!
//! The worker processes are this same test binary re-invoked with `--exact
//! shard_worker_child` and the shard assignment passed through `WF_SHARD_*`
//! environment variables; without those variables the child test is a
//! no-op, so the normal suite run is unaffected.

use std::process::{Command, Stdio};
use wildfire_atmos::state::AtmosGrid;
use wildfire_atmos::AtmosParams;
use wildfire_core::{CoupledModel, CoupledState};
use wildfire_ensemble::{DiskStore, EnsembleDriver, EnsembleWorkspace, ObsFilter, SnapshotStore};
use wildfire_fire::ignition::{displaced, IgnitionShape};
use wildfire_fire::FuelCategory;
use wildfire_math::GaussianSampler;
use wildfire_obs::{CoupledSnapshot, ObsSet, Snapshot, StridedPsi};

const N_MEMBERS: usize = 6;
const T_TARGET: f64 = 1.0;
const DT: f64 = 0.5;

/// The deterministic driver both processes rebuild independently — the
/// only shared state is the snapshot directory.
fn driver() -> EnsembleDriver {
    let model = CoupledModel::new(
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
    EnsembleDriver::new(model, 2)
}

/// A 25 m circle at (180, 180), displaced per member (σ = 15 m, seed 99)
/// as `wildfire_sim::perturb` draws it.
fn initial_members(d: &EnsembleDriver) -> Vec<CoupledState> {
    let nominal = [IgnitionShape::Circle {
        center: (180.0, 180.0),
        radius: 25.0,
    }];
    let mut rng = GaussianSampler::new(99);
    (0..N_MEMBERS)
        .map(|_| d.model.ignite(&displaced(&nominal, 15.0, &mut rng), 0.0))
        .collect()
}

/// Worker-process entry point: forecasts the shard named by `WF_SHARD_*`
/// through the shared disk store. No-op without the variables.
#[test]
fn shard_worker_child() {
    let Ok(dir) = std::env::var("WF_SHARD_DIR") else {
        return;
    };
    let first: usize = std::env::var("WF_SHARD_FIRST").unwrap().parse().unwrap();
    let len: usize = std::env::var("WF_SHARD_LEN").unwrap().parse().unwrap();
    let d = driver();
    let store = DiskStore::new(&dir).unwrap();
    // Blank restore targets: the worker never sees the initial-ensemble
    // construction, only what arrives through the store.
    let mut shard: Vec<CoupledState> = (0..len).map(|_| d.model.ignite(&[], 0.0)).collect();
    let mut ws = EnsembleWorkspace::new();
    d.forecast_shard_via_store(&mut shard, first, &store, T_TARGET, DT, &mut ws)
        .unwrap();
}

#[test]
fn two_process_sharded_cycle_matches_single_process() {
    let d = driver();
    let members0 = initial_members(&d);

    // Identical-twin observation pool, built once in the parent.
    let truth = d.model.ignite(
        &[IgnitionShape::Circle {
            center: (200.0, 200.0),
            radius: 25.0,
        }],
        0.0,
    );
    let op = StridedPsi::new(truth.fire.grid(), 5, 1.0);
    let mut data = Vec::new();
    op.measure_truth_into(&truth.fire, &mut data).unwrap();
    let mut pool = ObsSet::new();
    pool.push(&op, &data).unwrap();
    let filter = ObsFilter::Standard { inflation: 1.01 };

    // Reference: the whole cycle in this process.
    let mut reference = members0.clone();
    let mut rng = GaussianSampler::new(21);
    let mut ws = EnsembleWorkspace::new();
    d.cycle_obs_ws(
        &mut reference,
        &pool,
        filter,
        T_TARGET,
        DT,
        &mut rng,
        &mut ws,
    )
    .unwrap();

    // Sharded: scatter the initial snapshots to disk …
    let dir = std::env::temp_dir().join(format!("wf_shard2p_{}", std::process::id()));
    let store = DiskStore::new(&dir).unwrap();
    let mut snap = Snapshot::new();
    for (i, m) in members0.iter().enumerate() {
        d.model.snapshot_into(m, None, &mut snap);
        store.save(i, &snap).unwrap();
    }

    // … forecast the two halves in two child processes …
    let exe = std::env::current_exe().unwrap();
    let spawn = |first: usize, len: usize| {
        Command::new(&exe)
            .args(["shard_worker_child", "--exact"])
            .env("WF_SHARD_DIR", &dir)
            .env("WF_SHARD_FIRST", first.to_string())
            .env("WF_SHARD_LEN", len.to_string())
            // Piped, not inherited: two workers writing their test-harness
            // lines to the suite's stdout at once interleave them.
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn shard worker")
    };
    let half = N_MEMBERS / 2;
    let workers = [spawn(0, half), spawn(half, N_MEMBERS - half)];
    for w in workers {
        let out = w.wait_with_output().expect("wait for shard worker");
        assert!(
            out.status.success(),
            "shard worker failed: {}\n--- stdout ---\n{}\n--- stderr ---\n{}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // … gather the forecast states and analyze in the parent. The members
    // are already at T_TARGET, so the cycle's forecast phase is a no-op
    // and the analysis runs exactly as in the single-process reference.
    let mut gathered: Vec<CoupledState> =
        (0..N_MEMBERS).map(|_| d.model.ignite(&[], 0.0)).collect();
    for (i, m) in gathered.iter_mut().enumerate() {
        store.load_into(i, &mut snap).unwrap();
        d.model.restore_from(m, None, &snap).unwrap();
    }
    let mut rng2 = GaussianSampler::new(21);
    let mut ws2 = EnsembleWorkspace::new();
    d.cycle_obs_ws(
        &mut gathered,
        &pool,
        filter,
        T_TARGET,
        DT,
        &mut rng2,
        &mut ws2,
    )
    .unwrap();

    for (i, (a, b)) in reference.iter().zip(gathered.iter()).enumerate() {
        assert_eq!(a.fire.psi, b.fire.psi, "member {i}: ψ must match bitwise");
        assert_eq!(a.fire.tig, b.fire.tig, "member {i}: t_i must match bitwise");
        assert_eq!(
            a.atmos, b.atmos,
            "member {i}: atmosphere must match bitwise"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
