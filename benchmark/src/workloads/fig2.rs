//! `fig2_loop`: the paper's data-driven loop (Fig. 2) — forecast through a
//! snapshot store, observe, analyse, for every instant of the scenario's
//! observation timeline. An *operation* is one rep of the whole loop; its
//! first product is the first analysis delivered.

use super::{ms_between, timed_setup, InputRng, RunArgs};
use crate::api::{
    self, CoupledState, EnsembleDriver, EnsembleWorkspace, GaussianSampler, MemStore,
    MorphingConfig, ObsFilter, ObservationOperator, Res, Scenario,
};
use crate::metrics::{set_closed_end_to_end, Outcome};
use crate::stats;
use crate::trace::Trace;
use std::hint::black_box;
use std::time::Instant;

/// Ensemble size and loop length, full and under `--quick`.
const MEMBERS: usize = 25;
const QUICK_MEMBERS: usize = 16;
const T_END: f64 = 300.0;
const QUICK_T_END: f64 = 120.0;
/// Where the ensemble believes the fire started (truth: the scenario's
/// (240, 240)), as in `examples/assimilation_cycle.rs`.
const BELIEVED_CENTER: (f64, f64) = (170.0, 190.0);
const IGNITION_RADIUS: f64 = 25.0;
const POSITION_SPREAD: f64 = 12.0;
const INFLATION: f64 = 1.02;
/// Construction is ~0.2 ms; the median of many keeps `setup_s` steady.
const SETUP_REPS: usize = 101;
/// The analysis at the first ψ instant must pull the ensemble toward the
/// data; later ψ analyses hover around their forecast innovation (the
/// scattered stride-5 ψ field is coarse), so they are only required not
/// to raise it by more than this factor.
const MAX_INNOVATION_GROWTH: f64 = 1.10;

/// Everything construction yields (timed as `setup_s`).
struct Loop {
    /// Simulated seconds of one rep.
    t_end: f64,
    scenario: Scenario,
    driver: EnsembleDriver,
    operators: Vec<Box<dyn ObservationOperator>>,
    /// Per stream: is it the gridded-ψ stream the morphing filter needs?
    gridded: Vec<bool>,
    initial: Vec<CoupledState>,
    store: MemStore,
    morphing: MorphingConfig,
}

/// Seeds drawn from `--seed`, one per random input.
struct Seeds {
    perturbation: u64,
    filter: u64,
    data: u64,
}

fn seeds(seed: u64) -> Seeds {
    let mut rng = InputRng::new(seed, 2);
    Seeds {
        perturbation: rng.next_u64(),
        filter: rng.next_u64(),
        data: rng.next_u64(),
    }
}

fn build(args: RunArgs, seeds: &Seeds) -> Res<Loop> {
    let (members, t_end) = if args.quick {
        (QUICK_MEMBERS, QUICK_T_END)
    } else {
        (MEMBERS, T_END)
    };
    let scenario = api::registry_scenario(api::FIG2_DATA_DRIVEN)?;
    let believed = api::scenario_with_circle(
        scenario.clone(),
        "fig2-believed",
        BELIEVED_CENTER,
        IGNITION_RADIUS,
    );
    let model = api::scenario_model(&scenario)?;
    let (operators, gridded) = api::build_operators(&scenario, &model);
    let initial = api::perturbed_states(
        &believed,
        POSITION_SPREAD,
        seeds.perturbation,
        members,
        &model,
    )?;
    Ok(Loop {
        t_end,
        driver: api::ensemble_driver(model, args.threads),
        scenario,
        operators,
        gridded,
        initial,
        store: MemStore::new(),
        morphing: MorphingConfig::default(),
    })
}

/// The generated inputs: identical-twin data per timeline instant, the
/// truth at the end of the loop, and the free-running ensemble the checks compare to.
struct Inputs {
    instants: Vec<api::Instant>,
    truth_end: CoupledState,
    free_rmse: f64,
}

fn generate_inputs(l: &Loop, seeds: &Seeds) -> Res<Inputs> {
    let model = api::driver_model(&l.driver);
    let dt = api::scenario_dt(&l.scenario);
    let (timeline, times) = api::analysis_times(&l.scenario, l.t_end);
    let mut truth = api::scenario_ignite(&l.scenario, model);
    let mut rng = GaussianSampler::new(seeds.data);
    let mut instants = Vec::new();
    for t in times {
        instants.push(api::synthesize_instant(
            model,
            &mut truth,
            &timeline,
            &l.operators,
            t,
            dt,
            &mut rng,
        )?);
    }
    let mut free = l.initial.clone();
    api::forecast(
        &l.driver,
        &mut free,
        l.t_end,
        dt,
        &mut EnsembleWorkspace::new(),
    )?;
    let free_rmse = api::mean_psi_rmse(&free, &truth)?;
    Ok(Inputs {
        instants,
        truth_end: truth,
        free_rmse,
    })
}

impl Loop {
    fn is_psi_instant(&self, instant: &api::Instant) -> bool {
        instant.due.iter().any(|&s| self.gridded[s])
    }

    /// Morphing filter where the pool holds the gridded-ψ stream, standard
    /// EnKF on station-only instants.
    fn filter_for(&self, instant: &api::Instant) -> ObsFilter<'_> {
        if self.is_psi_instant(instant) {
            ObsFilter::Morphing(&self.morphing)
        } else {
            ObsFilter::Standard {
                inflation: INFLATION,
            }
        }
    }
}

/// One cycle of a rep.
struct Cycle {
    psi: bool,
    wall_ms: f64,
    innovation: api::Innovation,
}

/// One rep of the loop.
struct Rep {
    wall_ms: f64,
    first_analysis_ms: f64,
    cycles: Vec<Cycle>,
    members: Vec<CoupledState>,
}

/// The opaque loop: `forecast_via_store_ws` to the instant, then
/// `cycle_obs_ws` at the instant (its embedded forecast is a no-op).
fn opaque_rep(l: &Loop, inputs: &Inputs, seeds: &Seeds) -> Res<Rep> {
    let dt = api::scenario_dt(&l.scenario);
    let mut members = l.initial.clone();
    let mut rng = GaussianSampler::new(seeds.filter);
    let mut ws = EnsembleWorkspace::new();
    let mut cycles = Vec::with_capacity(inputs.instants.len());
    let start = Instant::now();
    for instant in &inputs.instants {
        let cycle_start = Instant::now();
        api::forecast_via_mem_store(&l.driver, &mut members, &l.store, instant.time, dt, &mut ws)?;
        let pool = api::pool_for(&l.operators, instant)?;
        let innovation = api::cycle_obs(
            &l.driver,
            &mut members,
            &pool,
            l.filter_for(instant),
            instant.time,
            dt,
            &mut rng,
            &mut ws,
        )?;
        cycles.push(Cycle {
            psi: l.is_psi_instant(instant),
            wall_ms: ms_between(cycle_start, Instant::now()),
            innovation,
        });
    }
    Ok(Rep {
        wall_ms: ms_between(start, Instant::now()),
        first_analysis_ms: cycles.first().map_or(0.0, |c| c.wall_ms),
        cycles,
        members,
    })
}

fn ensemble_checksum(members: &[CoupledState]) -> u64 {
    members
        .iter()
        .fold(0u64, |h, m| h.rotate_left(7) ^ api::state_checksum(m))
}

fn check_reps(inputs: &Inputs, reps: &[Rep], out: &mut Outcome) -> Res<()> {
    for (k, rep) in reps.iter().enumerate() {
        out.checks.attempt(inputs.instants.len() as u64);
        let c = &mut out.checks;
        if rep.cycles.len() != inputs.instants.len() {
            c.fail(format!(
                "rep {k}: {} of {} cycles completed",
                rep.cycles.len(),
                inputs.instants.len()
            ));
        }
        let first_psi = rep.cycles.iter().position(|c| c.psi);
        for (i, cycle) in rep.cycles.iter().enumerate() {
            let v = cycle.innovation;
            c.expect(
                v.forecast_rms.is_finite() && v.analysis_rms.is_finite(),
                || format!("rep {k} cycle {i}: non-finite innovation"),
            );
            let allowed = if Some(i) == first_psi {
                1.0
            } else {
                MAX_INNOVATION_GROWTH
            };
            c.expect(
                !cycle.psi || v.analysis_rms <= allowed * v.forecast_rms,
                || {
                    format!(
                        "rep {k} cycle {i}: analysis innovation {} above {allowed} x forecast \
                         innovation {}",
                        v.analysis_rms, v.forecast_rms
                    )
                },
            );
        }
        c.expect(
            rep.members.iter().all(|m| api::state_summary(m).finite),
            || format!("rep {k}: non-finite member state"),
        );
        let rmse = api::mean_psi_rmse(&rep.members, &inputs.truth_end)?;
        c.expect(rmse < inputs.free_rmse, || {
            format!(
                "rep {k}: assimilated psi RMSE {rmse} not below free-running {}",
                inputs.free_rmse
            )
        });
        c.expect(
            ensemble_checksum(&rep.members) == ensemble_checksum(&reps[0].members),
            || format!("rep {k}: member checksum differs from rep 0"),
        );
    }
    Ok(())
}

/// End-to-end pass.
pub fn run(args: RunArgs) -> Res<Outcome> {
    let mut out = Outcome::default();
    let seeds = seeds(args.seed);
    let (l, setup_s) = timed_setup(SETUP_REPS, || build(args, &seeds))?;
    let inputs = generate_inputs(&l, &seeds)?;

    let mut reps = Vec::new();
    let phase = Instant::now();
    while reps.len() < args.min_reps() || phase.elapsed().as_secs_f64() < args.seconds {
        reps.push(opaque_rep(&l, &inputs, &seeds)?);
    }
    check_reps(&inputs, &reps, &mut out)?;

    set_closed_end_to_end(
        &mut out,
        setup_s,
        l.t_end,
        reps.iter().map(|r| r.first_analysis_ms).collect(),
        reps.iter().map(|r| r.wall_ms).collect(),
    );
    let last = reps.last().expect("at least one rep");
    out.note(format!(
        "innovation RMS forecast -> analysis per cycle: {}",
        last.cycles
            .iter()
            .map(|c| format!(
                "{}{:.2}->{:.2}",
                if c.psi { "psi " } else { "stn " },
                c.innovation.forecast_rms,
                c.innovation.analysis_rms
            ))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.note(format!(
        "{} reps of {} cycles ({} members, {} s simulated); operation = one rep, first product = \
         first analysis, limit = real time; psi RMSE assimilated {:.3} vs free-running {:.3}",
        reps.len(),
        inputs.instants.len(),
        l.initial.len(),
        l.t_end,
        api::mean_psi_rmse(&last.members, &inputs.truth_end)?,
        inputs.free_rmse,
    ));
    Ok(out)
}

/// State captured mid-run for the side probes: the forecast ensemble of a
/// ψ instant, before its analysis.
struct Capture {
    members: Vec<CoupledState>,
    instant: usize,
}

/// The loop replayed through its public pieces, one span per piece:
/// save-all → load-all → `forecast_ws` → save-all (the store-routed
/// forecast), `ObsSet::pack_into` (forecast innovation), the analysis
/// entry point, `pack_into` again (analysis innovation).
fn replay_rep(
    t: &mut Trace,
    l: &Loop,
    inputs: &Inputs,
    seeds: &Seeds,
    capture: &mut Option<Capture>,
) -> Res<Vec<CoupledState>> {
    let dt = api::scenario_dt(&l.scenario);
    let model = api::driver_model(&l.driver);
    let mut members = l.initial.clone();
    let mut rng = GaussianSampler::new(seeds.filter);
    let mut ws = EnsembleWorkspace::new();
    let mut x = api::ExchangeBuffers::default();
    let mut packed = api::PackedObs::default();
    let psi_instants: Vec<usize> = (0..inputs.instants.len())
        .filter(|&i| l.is_psi_instant(&inputs.instants[i]))
        .collect();
    let capture_at = psi_instants[psi_instants.len() / 2];
    for (i, instant) in inputs.instants.iter().enumerate() {
        let psi = l.is_psi_instant(instant);
        let cycle = if psi {
            "ensemble.cycle.psi"
        } else {
            "ensemble.cycle.stations"
        };
        t.span(cycle, |t| {
            t.span("ensemble.exchange", |_| {
                api::store_save_all(model, &members, &l.store, &mut x)?;
                api::store_load_all(model, &mut members, &l.store, &mut x)
            })?;
            t.span("ensemble.forecast", |_| {
                api::forecast(&l.driver, &mut members, instant.time, dt, &mut ws)
            })?;
            t.span("ensemble.exchange", |_| {
                api::store_save_all(model, &members, &l.store, &mut x)
            })?;
            let pool = api::pool_for(&l.operators, instant)?;
            t.span("obs.pack", |_| api::pack_pool(&pool, &members, &mut packed))?;
            if i == capture_at && capture.is_none() {
                *capture = Some(Capture {
                    members: members.clone(),
                    instant: i,
                });
            }
            if psi {
                t.span("ensemble.analysis.morphing", |_| {
                    api::analyze_morphing(
                        &l.driver,
                        &mut members,
                        &pool,
                        &l.morphing,
                        &mut rng,
                        &mut ws,
                    )
                })?;
            } else {
                t.span("ensemble.analysis.standard", |_| {
                    api::analyze_standard(
                        &l.driver,
                        &mut members,
                        &pool,
                        INFLATION,
                        &mut rng,
                        &mut ws,
                    )
                })?;
            }
            t.span("obs.pack", |_| api::pack_pool(&pool, &members, &mut packed))?;
            Ok::<(), String>(())
        })?;
    }
    Ok(members)
}

/// Traced pass.
pub fn trace(args: RunArgs) -> Res<Outcome> {
    let mut out = Outcome::default();
    let seeds = seeds(args.seed);
    let (l, setup_s) = timed_setup(SETUP_REPS, || build(args, &seeds))?;
    out.set("sim.build_ms", setup_s * 1e3);
    let inputs = generate_inputs(&l, &seeds)?;

    let mut trace = Trace::new();
    let mut opaque = Vec::new();
    let mut replay_wall_ms = Vec::new();
    let mut capture = None;
    let phase = Instant::now();
    while opaque.is_empty() || phase.elapsed().as_secs_f64() < args.seconds {
        let rep = opaque_rep(&l, &inputs, &seeds)?;
        trace.set_op(opaque.len() as u32);
        let start = Instant::now();
        let replayed = replay_rep(&mut trace, &l, &inputs, &seeds, &mut capture)?;
        replay_wall_ms.push(ms_between(start, Instant::now()));
        out.checks.expect(
            ensemble_checksum(&replayed) == ensemble_checksum(&rep.members),
            || {
                format!(
                    "replayed final ensemble differs from the opaque run's (rep {})",
                    opaque.len()
                )
            },
        );
        opaque.push(rep);
    }
    check_reps(&inputs, &opaque, &mut out)?;

    let reps = replay_wall_ms.len() as f64;
    let n_cycles = reps * inputs.instants.len() as f64;
    let opaque_walls: Vec<f64> = opaque.iter().map(|r| r.wall_ms).collect();
    let class_ms = |psi: bool| -> Vec<f64> {
        opaque
            .iter()
            .flat_map(|r| &r.cycles)
            .filter(|c| c.psi == psi)
            .map(|c| c.wall_ms)
            .collect()
    };
    out.set("ensemble.cycle_ms.psi", stats::median(&class_ms(true)));
    out.set(
        "ensemble.cycle_ms.stations",
        stats::median(&class_ms(false)),
    );
    out.set(
        "ensemble.forecast_ms",
        trace.agg("ensemble.forecast").total_ms() / n_cycles,
    );
    out.set(
        "ensemble.analysis_ms.standard",
        trace.agg("ensemble.analysis.standard").mean_ms(),
    );
    out.set(
        "ensemble.analysis_ms.morphing",
        trace.agg("ensemble.analysis.morphing").mean_ms(),
    );
    out.set(
        "ensemble.exchange_ms.mem",
        trace.agg("ensemble.exchange").total_ms() / n_cycles,
    );
    out.set("obs.pack_ms", trace.agg("obs.pack").mean_ms());
    // Layer self times of the replayed loop against the opaque loop's wall.
    let layer_ms: f64 = [
        "ensemble.cycle.psi",
        "ensemble.cycle.stations",
        "ensemble.exchange",
        "ensemble.forecast",
        "ensemble.analysis.standard",
        "ensemble.analysis.morphing",
        "obs.pack",
    ]
    .iter()
    .map(|n| trace.agg(n).self_ms())
    .sum();
    out.set(
        "ensemble.replay_coverage",
        layer_ms / reps / stats::median(&opaque_walls),
    );
    out.set(
        "trace_overhead_ratio",
        stats::median(&replay_wall_ms) / stats::median(&opaque_walls) - 1.0,
    );
    out.note(format!(
        "{} opaque + {} replayed reps of {} cycles; replayed layer self times sum to {:.1} ms per \
         rep against an opaque loop wall of {:.1} ms",
        opaque.len(),
        replay_wall_ms.len(),
        inputs.instants.len(),
        layer_ms / reps,
        stats::median(&opaque_walls),
    ));

    let capture = capture.ok_or("no psi instant was captured")?;
    probes(&l, &inputs, &seeds, capture, args, &mut trace, &mut out)?;
    out.trace = Some(trace.to_json());
    Ok(out)
}

/// Side probes on the forecast ensemble of a mid-run ψ instant.
fn probes(
    l: &Loop,
    inputs: &Inputs,
    seeds: &Seeds,
    capture: Capture,
    args: RunArgs,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Res<()> {
    let reps = if args.quick { 1 } else { 5 };
    let dt = api::scenario_dt(&l.scenario);
    let instant = &inputs.instants[capture.instant];
    let members = capture.members;
    let pool = api::pool_for(&l.operators, instant)?;
    let mut rng = GaussianSampler::new(seeds.filter ^ 1);

    // enkf: the dense filters on exactly the matrices the driver packs.
    let mut filter = api::filter_probe(&members, &pool)?;
    out.set("obs.obs_dim", api::pool_dim(&pool) as f64);
    out.set("enkf.state_dim", filter.state_dim as f64);
    out.set("enkf.obs_dim.standard", filter.obs_dim as f64);
    out.set("enkf.members", filter.members as f64);
    trace.probe("probe.enkf", |t| {
        for _ in 0..reps {
            t.span("enkf.analyze", |_| {
                api::enkf_analyze(&mut filter, INFLATION, &mut rng)
            })?;
            t.span("enkf.etkf", |_| api::etkf_analyze(&mut filter, INFLATION))?;
        }
        Ok::<(), String>(())
    })?;
    out.set("enkf.analyze_ms", trace.agg("enkf.analyze").mean_ms());
    out.set("enkf.etkf_ms", trace.agg("enkf.etkf").mean_ms());

    // enkf: registration of single members, then the morphing analysis on
    // the extended states of the whole ensemble.
    let mut morph = api::morph_probe(&members, &pool, &l.morphing)?;
    trace.probe("probe.enkf.morphing", |t| {
        for j in 1..=reps.min(members.len() - 1) {
            t.span("enkf.register", |_| {
                api::register_member(&mut morph, j).map(black_box)
            })?;
        }
        t.span("enkf.morph_extend", |_| api::morph_extend(&mut morph))?;
        t.span("enkf.morph_analyze", |_| {
            api::morph_analyze(&mut morph, &mut rng).map(black_box)
        })
    })?;
    out.set(
        "enkf.register_ms_per_member",
        trace.agg("enkf.register").mean_ms(),
    );
    out.set(
        "enkf.morph_analyze_ms",
        trace.agg("enkf.morph_analyze").mean_ms(),
    );
    out.set("enkf.obs_dim.morphing", morph.obs_dim as f64);

    // obs: one member's snapshot through serialise and parse.
    let model = api::driver_model(&l.driver);
    let mut snap = api::snapshot_probe(model, &members[0]);
    let mut bytes = api::snapshot_serialize(&mut snap);
    api::snapshot_parse(&mut snap)?;
    trace.probe("probe.obs.snapshot", |t| {
        for _ in 0..20 * reps {
            bytes = t.span("obs.snapshot_serialize", |_| {
                api::snapshot_serialize(&mut snap)
            });
            t.span("obs.snapshot_parse", |_| api::snapshot_parse(&mut snap))?;
        }
        Ok::<(), String>(())
    })?;
    out.set(
        "obs.snapshot_serialize_us",
        trace.agg("obs.snapshot_serialize").mean_ms() * 1e3,
    );
    out.set(
        "obs.snapshot_parse_us",
        trace.agg("obs.snapshot_parse").mean_ms() * 1e3,
    );
    out.set("obs.snapshot_bytes", bytes as f64);
    // Three passes over the ensemble per cycle: save, load, save.
    out.set(
        "ensemble.exchange_bytes",
        (3 * members.len() * bytes) as f64,
    );

    // ensemble: the same exchange through a DiskStore (fsync-bound, which
    // is why the end-to-end loop uses the MemStore), and through the
    // MemStore by the same opaque call for comparison.
    let dir = crate::suite::out_dir()?.join("tmp.fig2_disk_store");
    let now = api::state_time(&members[0]);
    let mut ws = EnsembleWorkspace::new();
    let mut scratch = members.clone();
    let disk = trace.probe("probe.ensemble.exchange_disk", |t| {
        for _ in 0..reps {
            t.span("ensemble.exchange_disk", |_| {
                api::exchange_via_disk_store(&l.driver, &mut scratch, &dir, now, dt, &mut ws)
            })?;
        }
        Ok::<(), String>(())
    });
    let _ = std::fs::remove_dir_all(&dir);
    disk?;
    out.set(
        "ensemble.exchange_ms.disk",
        stats::median(&trace.durations_ms("ensemble.exchange_disk")),
    );

    // ensemble: one 30 s forecast leg at 1 and at T threads.
    let horizon = now + 30.0;
    let model = api::driver_model(&l.driver).clone();
    let serial = api::ensemble_driver(model, 1);
    let mut leg = |t: &mut Trace, name: &'static str, driver: &EnsembleDriver| -> Res<()> {
        let mut fresh = members.clone();
        t.span(name, |_| {
            api::forecast(driver, &mut fresh, horizon, dt, &mut ws)
        })
    };
    trace.probe("probe.ensemble.forecast", |t| {
        for _ in 0..reps.min(3) {
            leg(t, "ensemble.forecast_1", &serial)?;
            leg(t, "ensemble.forecast_T", &l.driver)?;
        }
        Ok::<(), String>(())
    })?;
    let t1 = stats::median(&trace.durations_ms("ensemble.forecast_1"));
    let tt = stats::median(&trace.durations_ms("ensemble.forecast_T"));
    out.set(
        "ensemble.forecast_parallel_eff",
        t1 / (args.threads as f64 * tt),
    );
    out.note(format!(
        "probes on the forecast ensemble of the psi instant t = {} s: forecast leg {t1:.1} ms on 1 \
         thread, {tt:.1} ms on {} threads",
        instant.time,
        args.threads
    ));
    Ok(())
}
