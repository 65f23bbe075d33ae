//! `fig1_paper` and `fig1_wide`: one coupled fireline simulation, single
//! threaded, repeated back to back. An *operation* is one rep (a forecast
//! of `t_end` simulated seconds); its first product is the first quarter
//! of the horizon (the first frame of a Fig. 1-style sequence).

use super::{ms_between, timed_setup, InputRng, RunArgs};
use crate::api::{self, DomainSpec, Res, Scenario, Simulation, StateSummary};
use crate::metrics::{set_closed_end_to_end, Outcome};
use crate::stats;
use crate::trace::Trace;
use std::hint::black_box;
use std::time::Instant;

/// Fixed sizes of one fig1 workload.
pub struct Fig1 {
    pub name: &'static str,
    domain: DomainSpec,
    t_end: f64,
    /// Burned area (m²) at t = 60 s of the unshifted registry scenario —
    /// on the paper domain, where it is the value pinned by
    /// `crates/bench/tests/golden_fig1.rs` and where the three ignitions
    /// have merged into one component by `t_end`.
    golden_area_60: Option<f64>,
    /// Set-ups timed for `setup_s` (more where one is cheap).
    setup_reps: usize,
}

pub const PAPER: Fig1 = Fig1 {
    name: "fig1_paper",
    domain: DomainSpec::PAPER,
    t_end: 240.0,
    golden_area_60: Some(13428.0),
    setup_reps: 51,
};

pub const WIDE: Fig1 = Fig1 {
    name: "fig1_wide",
    domain: DomainSpec {
        nx: 40,
        ny: 40,
        nz: 6,
        dx: 60.0,
        dy: 60.0,
        dz: 50.0,
        refinement: 10,
    },
    t_end: 120.0,
    golden_area_60: None,
    setup_reps: 9,
};

const GOLDEN_REL_TOL: f64 = 1e-9;
/// Largest seeded ignition shift per axis (m): two fire cells.
const MAX_SHIFT: f64 = 12.0;

impl Fig1 {
    /// Simulated seconds per rep (a quarter of it under `--quick`).
    fn t_end(&self, args: RunArgs) -> f64 {
        if args.quick {
            self.t_end / 4.0
        } else {
            self.t_end
        }
    }

    /// The workload's scenario: the registry fireline moved to this
    /// domain's centre, plus the seeded shift.
    fn scenario(&self, seed: u64) -> Res<Scenario> {
        let base = api::registry_scenario(api::FIG1_FIRELINE)?;
        let (cx, cy) = api::domain_center(&self.domain);
        let (px, py) = api::domain_center(&DomainSpec::PAPER);
        let mut rng = InputRng::new(seed, 1);
        let dx = rng.uniform(-MAX_SHIFT, MAX_SHIFT);
        let dy = rng.uniform(-MAX_SHIFT, MAX_SHIFT);
        let moved = api::scenario_translated(&base, cx - px + dx, cy - py + dy);
        Ok(api::scenario_on_domain(moved, self.name, self.domain))
    }
}

/// One timed rep.
struct Rep {
    wall_ms: f64,
    first_quarter_ms: f64,
    steps: u64,
    end: StateSummary,
}

/// Runs one rep on a fresh clone of `proto`, opaque: a single
/// `Simulation::run_until`, with a callback that only counts steps and
/// stamps the first quarter.
fn opaque_rep(proto: &Simulation, t_end: f64) -> Res<Rep> {
    let mut sim = proto.clone();
    let quarter = t_end / 4.0;
    let mut first_quarter = None;
    let mut steps = 0u64;
    let start = Instant::now();
    api::sim_run_until(&mut sim, t_end, |time| {
        steps += 1;
        if first_quarter.is_none() && time >= quarter - 1e-9 {
            first_quarter = Some(Instant::now());
        }
    })?;
    let end = Instant::now();
    Ok(Rep {
        wall_ms: ms_between(start, end),
        first_quarter_ms: ms_between(start, first_quarter.unwrap_or(end)),
        steps,
        end: api::state_summary(api::sim_state(&sim)),
    })
}

/// Output checks shared by the end-to-end and the traced pass.
fn check_reps(
    w: &Fig1,
    args: RunArgs,
    scenario: &Scenario,
    reps: &[Rep],
    out: &mut Outcome,
) -> Res<()> {
    let t_end = w.t_end(args);
    let expected_steps = (t_end / api::scenario_dt(scenario)).round() as u64;
    let initial = api::state_summary(api::sim_state(&api::scenario_build(scenario)?));
    for (k, rep) in reps.iter().enumerate() {
        out.checks.attempt(expected_steps);
        let c = &mut out.checks;
        if rep.steps != expected_steps {
            c.fail(format!(
                "rep {k}: {} of {expected_steps} steps completed",
                rep.steps
            ));
        }
        c.expect(rep.end.finite, || format!("rep {k}: non-finite state"));
        c.expect((rep.end.time - t_end).abs() < 1e-6, || {
            format!("rep {k}: ended at t = {}", rep.end.time)
        });
        c.expect((1..=3).contains(&rep.end.components), || {
            format!(
                "rep {k}: {} burning components at the end",
                rep.end.components
            )
        });
        c.expect(rep.end.burned_area >= initial.burned_area, || {
            format!("rep {k}: burned area shrank to {}", rep.end.burned_area)
        });
        c.expect(rep.end.checksum == reps[0].end.checksum, || {
            format!("rep {k}: state checksum differs from rep 0")
        });
    }
    // The unshifted registry scenario must start from three components, hit
    // the pinned area at 60 s and have merged into one component by the end
    // of the paper run. The timed geometry is that scenario moved by a few
    // metres (which can delay the last merge past `t_end`, so the reps
    // themselves are only held to 1..=3 components); this ties the timed
    // code path to the golden.
    let registry = api::registry_scenario(api::FIG1_FIRELINE)?;
    let mut sim = api::scenario_build(&registry)?;
    let start = api::state_summary(api::sim_state(&sim));
    out.checks.expect(start.components == 3, || {
        format!("fig1 ignition has {} components", start.components)
    });
    if let Some(golden) = w.golden_area_60 {
        api::sim_run_until(&mut sim, 60.0, |_| {})?;
        let area = api::state_summary(api::sim_state(&sim)).burned_area;
        out.checks
            .expect(((area - golden) / golden).abs() <= GOLDEN_REL_TOL, || {
                format!("burned area at t = 60 s is {area}, golden {golden}")
            });
        if !args.quick {
            api::sim_run_until(&mut sim, w.t_end, |_| {})?;
            let end = api::state_summary(api::sim_state(&sim));
            out.checks.expect(end.components == 1, || {
                format!("{} burning components at t = {} s", end.components, w.t_end)
            });
        }
    }
    Ok(())
}

/// End-to-end pass.
pub fn run(w: &Fig1, args: RunArgs) -> Res<Outcome> {
    let mut out = Outcome::default();
    let scenario = w.scenario(args.seed)?;
    let (proto, setup_s) = timed_setup(w.setup_reps, || api::scenario_build(&scenario))?;

    let t_end = w.t_end(args);
    let mut reps = Vec::new();
    let phase = Instant::now();
    while reps.len() < args.min_reps() || phase.elapsed().as_secs_f64() < args.seconds {
        reps.push(opaque_rep(&proto, t_end)?);
    }
    check_reps(w, args, &scenario, &reps, &mut out)?;

    set_closed_end_to_end(
        &mut out,
        setup_s,
        t_end,
        reps.iter().map(|r| r.first_quarter_ms).collect(),
        reps.iter().map(|r| r.wall_ms).collect(),
    );
    out.note(format!(
        "{} reps of {} s simulated; operation = one rep, limit = real time",
        reps.len(),
        t_end
    ));
    Ok(out)
}

/// Per-step counts of a replayed rep.
#[derive(Default)]
struct ReplayCounts {
    steps: u64,
    fire_substeps: u64,
    atmos_substeps: u64,
}

/// One coupled step replayed through the public building blocks, in the
/// order `CoupledModel::step_ws` runs them, one span per call.
fn replay_step(
    t: &mut Trace,
    sim: &mut Simulation,
    dt: f64,
    b: &mut api::StepBuffers,
    counts: &mut ReplayCounts,
) -> Res<()> {
    let (model, state) = api::sim_parts(sim);
    t.span("core.step", |t| {
        let t_target = api::state_time(state) + dt;
        t.span("core.fire_wind", |t| {
            t.span("atmos.surface_wind", |_| {
                api::surface_wind_into(model, state, b)
            });
            t.span("grid.prolong", |_| api::prolong_wind(model, b))
        })?;
        let fire = t.span("fire.advance", |_| {
            api::fire_advance(model, state, b, t_target, dt)
        })?;
        t.span("fire.heat_flux", |_| api::heat_fluxes(model, state, b));
        t.span("grid.restrict", |_| api::restrict_fluxes(model, b))?;
        while api::atmos_time(state) < t_target - 1e-9 {
            let sub = api::atmos_max_stable_dt(model, state).min(t_target - api::atmos_time(state));
            t.span("atmos.step", |_| api::atmos_step(model, state, b, sub))?;
            counts.atmos_substeps += 1;
            if counts.atmos_substeps > 10_000 * (counts.steps + 1) {
                return Err("atmosphere sub-stepping does not reach the target".to_string());
            }
        }
        t.span("atmos.surface_wind", |_| {
            api::surface_wind_into(model, state, b)
        });
        t.span("core.diagnostics", |_| {
            black_box(api::step_diagnostics(state, b, fire.max_spread_rate));
        });
        counts.steps += 1;
        counts.fire_substeps += fire.substeps as u64;
        Ok(())
    })
}

/// Traced pass: opaque reps for the reference step time, replayed reps for
/// the spans, then the side probes.
pub fn trace(w: &Fig1, args: RunArgs) -> Res<Outcome> {
    let mut out = Outcome::default();
    let scenario = w.scenario(args.seed)?;
    let dt = api::scenario_dt(&scenario);
    let t_end = w.t_end(args);
    let (proto, setup_s) = timed_setup(w.setup_reps, || api::scenario_build(&scenario))?;
    out.set("sim.build_ms", setup_s * 1e3);

    // Opaque and replayed reps alternate so both see the same machine
    // state; each gets half of the time budget.
    let mut trace = Trace::new();
    let mut counts = ReplayCounts::default();
    let mut opaque = Vec::new();
    let mut replay_wall_ms = Vec::new();
    let mut probe_inputs = None;
    let phase = Instant::now();
    while opaque.is_empty() || phase.elapsed().as_secs_f64() < args.seconds {
        let rep = opaque_rep(&proto, t_end)?;

        let mut sim = proto.clone();
        let mut b = api::StepBuffers::default();
        trace.set_op(opaque.len() as u32);
        let start = Instant::now();
        while api::sim_time(&sim) < t_end - 1e-9 {
            let step = dt.min(t_end - api::sim_time(&sim));
            replay_step(&mut trace, &mut sim, step, &mut b, &mut counts)?;
            if probe_inputs.is_none() && api::sim_time(&sim) >= t_end / 2.0 {
                // Mid-run ψ and the wind it was advanced with.
                probe_inputs = Some(api::rhs_probe(api::sim_state(&sim), api::buffered_wind(&b)));
            }
        }
        replay_wall_ms.push(ms_between(start, Instant::now()));
        let replayed = api::state_summary(api::sim_state(&sim));
        out.checks
            .expect(replayed.checksum == rep.end.checksum, || {
                format!(
                    "replayed final state differs from the opaque run's (rep {})",
                    opaque.len()
                )
            });
        opaque.push(rep);
    }
    check_reps(w, args, &scenario, &opaque, &mut out)?;

    let steps = counts.steps as f64;
    let opaque_wall_ms: f64 = opaque.iter().map(|r| r.wall_ms).sum();
    let opaque_steps: u64 = opaque.iter().map(|r| r.steps).sum();
    let opaque_step_ms = opaque_wall_ms / opaque_steps as f64;
    let per_step = |name: &str| trace.agg(name).total_ms() / steps;
    let step = trace.agg("core.step");
    // `core.fire_wind` only groups two leaf spans; its own residue belongs
    // to the core layer.
    let core_self_ms = step.self_ms() + trace.agg("core.fire_wind").self_ms();
    out.set("core.step_ms", opaque_step_ms);
    out.set("core.self_ms", core_self_ms / steps);
    out.set(
        "core.replay_coverage",
        (step.total_ms() - core_self_ms) / steps / opaque_step_ms,
    );
    out.set("grid.prolong_ms", per_step("grid.prolong"));
    out.set("grid.restrict_ms", per_step("grid.restrict"));
    out.set("fire.advance_ms", per_step("fire.advance"));
    out.set("fire.substeps", counts.fire_substeps as f64 / steps);
    out.set("fire.heat_flux_ms", per_step("fire.heat_flux"));
    out.set("atmos.step_ms", per_step("atmos.step"));
    out.set("atmos.substeps", counts.atmos_substeps as f64 / steps);
    out.set("atmos.surface_wind_ms", per_step("atmos.surface_wind"));
    out.set(
        "trace_overhead_ratio",
        stats::median(&replay_wall_ms)
            / stats::median(&opaque.iter().map(|r| r.wall_ms).collect::<Vec<_>>())
            - 1.0,
    );
    out.note(format!(
        "{} opaque + {} replayed reps, {} replayed steps; layer self times per step (ms): core \
         {:.4}, grid {:.4}, fire {:.4}, atmos {:.4}",
        opaque.len(),
        replay_wall_ms.len(),
        counts.steps,
        core_self_ms / steps,
        per_step("grid.prolong") + per_step("grid.restrict"),
        per_step("fire.advance") + per_step("fire.heat_flux"),
        per_step("atmos.step") + per_step("atmos.surface_wind"),
    ));

    probes(w, t_end, &proto, probe_inputs, &mut trace, &mut out)?;
    out.trace = Some(trace.to_json());
    Ok(out)
}

/// Side probes: calls re-executed on inputs captured mid-run, off the
/// blocking path.
fn probes(
    w: &Fig1,
    t_end: f64,
    proto: &Simulation,
    rhs_inputs: Option<api::RhsProbe>,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Res<()> {
    const RHS_EVALS: usize = 20;
    const POISSON_SOLVES: usize = 20;
    let model = api::sim_model(proto);

    let mut rhs = rhs_inputs.ok_or("no mid-run state was captured")?;
    let (front, swept) = api::front_nodes(&rhs, 3.0);
    black_box(api::rhs_eval(model, &mut rhs));
    trace.probe("probe.fire.rhs", |t| {
        for _ in 0..RHS_EVALS {
            t.span("fire.rhs", |_| black_box(api::rhs_eval(model, &mut rhs)));
        }
    });
    let rhs_ms = trace.agg("fire.rhs").mean_ms();
    out.set("fire.rhs_ns_per_node", rhs_ms * 1e6 / swept as f64);
    out.set("fire.front_node_share", front as f64 / swept as f64);

    let mut poisson = api::poisson_probe(model, api::domain_center(&w.domain));
    api::poisson_solve(model, &mut poisson)?;
    trace.probe("probe.atmos.poisson", |t| {
        for _ in 0..POISSON_SOLVES {
            t.span("atmos.poisson", |_| api::poisson_solve(model, &mut poisson))?;
        }
        Ok::<(), String>(())
    })?;
    out.set(
        "atmos.poisson_ms_per_solve",
        trace.agg("atmos.poisson").mean_ms(),
    );
    let iters = api::poisson_iterations(model, &mut poisson)?;
    out.set("atmos.poisson_iters", iters.unwrap_or(0) as f64);
    out.note(format!(
        "probes: rhs_into on ψ/wind at t = {} s ({front} of {swept} nodes within 3Δx of the \
         front); poisson at relative tolerance {:e}, {}",
        t_end / 2.0,
        api::pressure_tol(model),
        match iters {
            Some(n) => format!("{n} multigrid V-cycles"),
            None => "conjugate gradients (the public call returns no iteration count)".to_string(),
        }
    ));
    Ok(())
}
