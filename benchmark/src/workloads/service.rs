//! `service_steady` and `service_surge`: the `ForecastService` under an
//! open-loop load. One thread both submits on schedule and drains every
//! open `RequestHandle`; an *operation* is one request, timed from the
//! moment it was *due* (so a stalled generator or a backed-up service
//! shows up as latency, not as reduced load).

use super::{ms_between, timed_setup, InputRng, RunArgs};
use crate::api::{
    self, AnalysisFilter, DomainSpec, Event, ForecastService, GaussianSampler, RequestSpec, Res,
};
use crate::metrics::{set_end_to_end, OpSamples, Outcome};
use crate::stats;
use crate::trace::Trace;
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Open loop at [`STEADY_RATE`] for `--seconds`.
    Steady,
    /// [`SURGE_PER_SECOND`]·`--seconds` requests, all due at t = 0.
    Surge,
}

const DOMAIN: DomainSpec = DomainSpec::SMALL;
const TICK: f64 = 2.0;
const MEMBERS: usize = 4;
const POSITION_SPREAD: f64 = 10.0;
const HORIZONS: [f64; 2] = [15.0, 30.0];
const IGNITION_RADIUS: f64 = 25.0;
/// Ignition centres are drawn within this distance (per axis) of the
/// domain centre.
const CENTER_JITTER: f64 = 40.0;
/// Every `ASSIMILATE_EVERY`-th request assimilates two reports.
const ASSIMILATE_EVERY: usize = 4;
const REPORT_TIMES: [f64; 2] = [5.0, 10.0];
const REPORT_STRIDE: usize = 5;
const REPORT_SIGMA: f64 = 1.0;
/// Offered rate of the steady workload (requests per second): about half
/// of what the service drains on the 2-core reference container.
const STEADY_RATE: f64 = 10.0;
/// Latency limit of the steady workload (ms, due → `Finished`).
const STEADY_LIMIT_MS: f64 = 250.0;
/// Surge size per second of `--seconds` (about the drain rate, so the
/// surge takes about `--seconds`).
const SURGE_PER_SECOND: f64 = 15.0;
/// How often the generator thread looks at the handles.
const POLL: Duration = Duration::from_micros(250);
/// A load that has not drained this long after its last due time failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(100);
const SETUP_REPS: usize = 3;

impl Mode {
    fn requests(self, seconds: f64) -> usize {
        let per_second = match self {
            Mode::Steady => STEADY_RATE,
            Mode::Surge => SURGE_PER_SECOND,
        };
        ((per_second * seconds).round() as usize).max(8)
    }

    /// Offset of request `i`'s due time from the start of the load.
    fn due_offset(self, i: usize) -> Duration {
        match self {
            Mode::Steady => Duration::from_secs_f64(i as f64 / STEADY_RATE),
            Mode::Surge => Duration::ZERO,
        }
    }

    /// Steady: the operator's limit. Surge: faster than real time, i.e.
    /// the farthest horizon's worth of wall time.
    fn limit_ms(self) -> f64 {
        match self {
            Mode::Steady => STEADY_LIMIT_MS,
            Mode::Surge => HORIZONS[1] * 1e3,
        }
    }
}

/// Generates the request mix from the seed: ignition centres, member
/// seeds, and — for every fourth request — two noisy ψ reports from a
/// truth run of that request's own scenario.
fn generate_specs(seed: u64, n: usize) -> Res<Vec<RequestSpec>> {
    let base = api::registry_scenario(api::CIRCLE_IGNITION)?;
    let (cx, cy) = api::domain_center(&DOMAIN);
    let mut rng = InputRng::new(seed, 3);
    let mut specs = Vec::with_capacity(n);
    for i in 0..n {
        let center = (
            cx + rng.uniform(-CENTER_JITTER, CENTER_JITTER),
            cy + rng.uniform(-CENTER_JITTER, CENTER_JITTER),
        );
        let scenario = api::scenario_on_domain(
            api::scenario_with_circle(base.clone(), "request", center, IGNITION_RADIUS),
            &format!("request-{i}"),
            DOMAIN,
        );
        let member_seed = rng.next_u64();
        let noise_seed = rng.next_u64();
        let assimilate = if i % ASSIMILATE_EVERY == ASSIMILATE_EVERY - 1 {
            let mut truth = api::scenario_build(&scenario)?;
            let reports = api::synthesize_reports(
                &mut truth,
                &REPORT_TIMES,
                REPORT_STRIDE,
                REPORT_SIGMA,
                &mut GaussianSampler::new(noise_seed),
            )?;
            let filter = if (i / ASSIMILATE_EVERY).is_multiple_of(2) {
                AnalysisFilter::Standard { inflation: 1.0 }
            } else {
                AnalysisFilter::Etkf { inflation: 1.0 }
            };
            Some((reports, filter))
        } else {
            None
        };
        specs.push(RequestSpec {
            scenario,
            n_members: MEMBERS,
            position_spread: POSITION_SPREAD,
            seed: member_seed,
            horizons: HORIZONS.to_vec(),
            assimilate,
        });
    }
    Ok(specs)
}

/// What the generator saw of one request.
struct Observed {
    assimilating: bool,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    events: Vec<(Event, Instant)>,
}

impl Observed {
    fn first_product(&self) -> Option<Instant> {
        self.events
            .iter()
            .find(|(e, _)| matches!(e, Event::Product { .. }))
            .map(|(_, at)| *at)
    }

    fn finished(&self) -> Option<Instant> {
        match self.events.last() {
            Some((Event::Finished, at)) => Some(*at),
            _ => None,
        }
    }
}

/// One pass of the load over a running service.
struct Load {
    start: Instant,
    end: Instant,
    requests: Vec<Observed>,
}

/// Submits every request when it is due and drains every handle until
/// all have terminated (or the drain times out).
fn drive(mode: Mode, service: &ForecastService, specs: &[RequestSpec]) -> Res<Load> {
    // Requests are built before the clock starts: construction is set-up.
    let mut pending: std::collections::VecDeque<_> = specs
        .iter()
        .map(api::forecast_request)
        .collect::<Res<Vec<_>>>()?
        .into();
    let n = specs.len();
    let mut requests: Vec<Observed> = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    let mut open = 0usize;
    let start = Instant::now();
    let deadline = start + mode.due_offset(n - 1) + DRAIN_TIMEOUT;
    loop {
        let now = Instant::now();
        while !pending.is_empty() {
            let i = requests.len();
            let due = start + mode.due_offset(i);
            if due > now {
                break;
            }
            let req = pending.pop_front().expect("not empty");
            let submit_start = Instant::now();
            let handle = api::service_submit(service, req)?;
            let submit_end = Instant::now();
            handles.push(Some(handle));
            open += 1;
            requests.push(Observed {
                assimilating: specs[i].assimilate.is_some(),
                due,
                submit_start,
                submit_end,
                events: Vec::with_capacity(HORIZONS.len() + 1),
            });
        }
        for (slot, seen) in handles.iter_mut().zip(&mut requests) {
            let Some(handle) = slot else { continue };
            while let Some(event) = api::handle_try_next(handle) {
                let terminal = !matches!(event, Event::Product { .. });
                seen.events.push((event, Instant::now()));
                if terminal {
                    *slot = None;
                    open -= 1;
                    break;
                }
            }
        }
        if (pending.is_empty() && open == 0) || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(POLL);
    }
    Ok(Load {
        start,
        end: Instant::now(),
        requests,
    })
}

/// Output checks of one load; returns the latency samples.
fn check_load(mode: Mode, specs: &[RequestSpec], load: &Load, out: &mut Outcome) -> OpSamples {
    let mut ops = OpSamples {
        attempted: specs.len(),
        ..OpSamples::default()
    };
    out.checks.attempt(specs.len() as u64);
    for i in 0..specs.len() {
        let Some(seen) = load.requests.get(i) else {
            out.checks.fail(format!("request {i}: never submitted"));
            continue;
        };
        let mut problems = Vec::new();
        let products: Vec<&Event> = seen
            .events
            .iter()
            .map(|(e, _)| e)
            .filter(|e| matches!(e, Event::Product { .. }))
            .collect();
        match seen.events.last() {
            Some((Event::Finished, _)) => {}
            Some((Event::Failed(error), _)) => problems.push(format!("failed: {error}")),
            _ => problems.push("no terminal event".to_string()),
        }
        if products.len() + 1 != seen.events.len() {
            problems.push("events after or instead of the terminal one".to_string());
        }
        let horizons: Vec<f64> = products
            .iter()
            .map(|p| match p {
                Event::Product { horizon, .. } => *horizon,
                _ => f64::NAN,
            })
            .collect();
        if horizons != HORIZONS {
            problems.push(format!("products at horizons {horizons:?}"));
        }
        for p in &products {
            if let Event::Product {
                burned_area,
                horizon,
                ..
            } = p
            {
                if !(*burned_area > 0.0 && burned_area.is_finite()) {
                    problems.push(format!("burned area {burned_area} at horizon {horizon}"));
                }
            }
        }
        if let Some(Event::Product {
            reports_assimilated,
            ..
        }) = products.last()
        {
            let want = if seen.assimilating {
                REPORT_TIMES.len()
            } else {
                0
            };
            if *reports_assimilated != want {
                problems.push(format!(
                    "{reports_assimilated} of {want} reports assimilated"
                ));
            }
        }
        if !problems.is_empty() {
            out.checks
                .fail(format!("request {i}: {}", problems.join("; ")));
            continue;
        }
        if let (Some(first), Some(finished)) = (seen.first_product(), seen.finished()) {
            let finished_ms = ms_between(seen.due, finished);
            ops.first_product_ms.push(ms_between(seen.due, first));
            ops.finished_ms.push(finished_ms);
            if finished_ms <= mode.limit_ms() {
                ops.within_limit += 1;
            }
        }
    }
    ops
}

/// Wall seconds from the first submit to the last `Finished`.
fn load_wall_s(load: &Load) -> f64 {
    let last = load
        .requests
        .iter()
        .filter_map(Observed::finished)
        .max()
        .unwrap_or(load.end);
    last.saturating_duration_since(load.start).as_secs_f64()
}

fn generator_late_ms_max(load: &Load) -> f64 {
    load.requests
        .iter()
        .map(|r| ms_between(r.due, r.submit_start))
        .fold(0.0, f64::max)
}

/// Set-up, timed as `setup_s`: the request mix with its synthesized
/// reports, the service, and every request object. The service of the
/// last set-up is the one the load runs on.
fn setup(
    mode: Mode,
    args: RunArgs,
    seconds: f64,
) -> Res<((ForecastService, Vec<RequestSpec>), f64)> {
    timed_setup(SETUP_REPS, || {
        let specs = generate_specs(args.seed, mode.requests(seconds))?;
        let service = api::service_start(args.threads, TICK);
        for spec in &specs {
            black_box(api::forecast_request(spec)?);
        }
        Ok((service, specs))
    })
}

/// End-to-end pass.
pub fn run(mode: Mode, args: RunArgs) -> Res<Outcome> {
    let mut out = Outcome::default();
    let ((service, specs), setup_s) = setup(mode, args, args.seconds)?;
    let load = drive(mode, &service, &specs)?;
    api::service_shutdown(service);

    let ops = check_load(mode, &specs, &load, &mut out);
    let wall_s = load_wall_s(&load);
    let n = specs.len() as f64;
    set_end_to_end(
        &mut out,
        setup_s,
        n * HORIZONS[1] / wall_s,
        n / wall_s,
        &ops,
    );
    out.note(format!(
        "{} requests ({} assimilating) over {:.2} s, {}; operation = one request timed from its \
         due time, limit {} ms; generator at most {:.3} ms late",
        specs.len(),
        specs.iter().filter(|s| s.assimilate.is_some()).count(),
        wall_s,
        match mode {
            Mode::Steady => format!("open loop at {STEADY_RATE} req/s"),
            Mode::Surge => "all due at t = 0".to_string(),
        },
        mode.limit_ms(),
        generator_late_ms_max(&load),
    ));
    Ok(out)
}

/// One request alone on an idle, warm service: due → `Finished` (ms),
/// median over `reps` requests submitted one after the other (each waits
/// for the previous one to finish; one extra request warms the service
/// thread first).
fn isolated_ms(threads: usize, spec: &RequestSpec, reps: usize) -> Res<f64> {
    let service = api::service_start(threads, TICK);
    let mut ms = Vec::with_capacity(reps);
    for k in 0..=reps {
        let load = drive(Mode::Surge, &service, std::slice::from_ref(spec))?;
        let request = &load.requests[0];
        let finished = request
            .finished()
            .ok_or("isolated request did not finish")?;
        if k > 0 {
            ms.push(ms_between(request.due, finished));
        }
    }
    api::service_shutdown(service);
    Ok(stats::median(&ms))
}

/// Traced pass: isolated requests, the load twice (plain, then with
/// per-request spans), shutdown, then the side probes.
pub fn trace(mode: Mode, args: RunArgs) -> Res<Outcome> {
    let isolated_reps = if args.quick { 1 } else { 5 };
    let mut out = Outcome::default();
    let mut trace = Trace::new();
    // Both load passes share the time budget.
    let ((service, specs), _) = setup(mode, args, args.seconds / 2.0)?;
    let free = specs
        .iter()
        .find(|s| s.assimilate.is_none())
        .ok_or("no free-running request in the mix")?;
    let assim = specs
        .iter()
        .find(|s| s.assimilate.is_some())
        .ok_or("no assimilating request in the mix")?;

    let isolated_free = isolated_ms(args.threads, free, isolated_reps)?;
    let isolated_assim = isolated_ms(args.threads, assim, isolated_reps)?;
    out.set("service.isolated_finished_ms.free", isolated_free);
    out.set("service.isolated_finished_ms.assim", isolated_assim);

    let plain = drive(mode, &service, &specs)?;
    api::service_shutdown(service);
    check_load(mode, &specs, &plain, &mut out);

    let service = api::service_start(args.threads, TICK);
    let load = drive(mode, &service, &specs)?;
    for (i, r) in load.requests.iter().enumerate() {
        let op = i as u32;
        trace.record("service.submit", r.submit_start, r.submit_end, op);
        if let Some(first) = r.first_product() {
            trace.record("service.first_product", r.due, first, op);
        }
        if let Some(finished) = r.finished() {
            let name = if r.assimilating {
                "service.finished.assim"
            } else {
                "service.finished.free"
            };
            trace.record(name, r.due, finished, op);
        }
    }
    let shutdown_ms = trace.span("service.shutdown", |_| {
        let start = Instant::now();
        api::service_shutdown(service);
        ms_between(start, Instant::now())
    });
    check_load(mode, &specs, &load, &mut out);

    let finished_free = trace.durations_ms("service.finished.free");
    let finished_assim = trace.durations_ms("service.finished.assim");
    let waits: Vec<f64> = finished_free
        .iter()
        .map(|ms| ms - isolated_free)
        .chain(finished_assim.iter().map(|ms| ms - isolated_assim))
        .collect();
    let wait_tail = stats::tail(&waits);
    out.set(
        "service.submit_us",
        stats::median(&trace.durations_ms("service.submit")) * 1e3,
    );
    out.set(
        "service.first_product_ms_p95",
        stats::tail(&trace.durations_ms("service.first_product")).value,
    );
    out.set(
        "service.finished_ms_p95",
        stats::tail(&[finished_free.as_slice(), finished_assim.as_slice()].concat()).value,
    );
    out.set("service.wait_ms_p50", stats::median(&waits));
    out.set("service.wait_ms_p95", wait_tail.value);
    out.set(
        "service.finished_ms_p50.free",
        stats::median(&finished_free),
    );
    out.set(
        "service.finished_ms_p50.assim",
        stats::median(&finished_assim),
    );
    out.set(
        "service.generator_late_ms_max",
        generator_late_ms_max(&load),
    );
    out.set("service.shutdown_ms", shutdown_ms);
    out.set(
        "trace_overhead_ratio",
        load_wall_s(&load) / load_wall_s(&plain) - 1.0,
    );
    let sent: usize = load.requests.iter().filter(|r| r.assimilating).count() * REPORT_TIMES.len();
    let assimilated: usize = load
        .requests
        .iter()
        .filter_map(|r| {
            r.events.iter().rev().find_map(|(e, _)| match e {
                Event::Product {
                    reports_assimilated,
                    ..
                } => Some(*reports_assimilated),
                _ => None,
            })
        })
        .sum();
    out.set(
        "obs.reports_dropped",
        sent.saturating_sub(assimilated) as f64,
    );
    out.note(format!(
        "{} requests per load pass; wait = finished - isolated finished of the request's class \
         (free {isolated_free:.2} ms, assimilating {isolated_assim:.2} ms); every _p95 is \
         percentile {:.1} of {} samples",
        specs.len(),
        100.0 * wait_tail.q,
        wait_tail.samples,
    ));

    request_probes(args, free, assim, &mut trace, &mut out)?;
    if mode == Mode::Surge {
        batch_probes(args, &specs, load_wall_s(&load), &mut trace, &mut out)?;
    }
    out.trace = Some(trace.to_json());
    Ok(out)
}

/// Per-request costs re-executed outside the service: member construction,
/// source polling, and the two filters on request-shaped matrices.
fn request_probes(
    args: RunArgs,
    free: &RequestSpec,
    assim: &RequestSpec,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Res<()> {
    let reps = if args.quick { 2 } else { 20 };
    let (reports, _) = assim.assimilate.as_ref().expect("assimilating spec");
    let mut rng = GaussianSampler::new(args.seed);
    trace.probe("probe.service.request", |t| {
        for _ in 0..reps {
            t.span("sim.build", |_| {
                api::scenario_build(&free.scenario).map(black_box)
            })?;
            t.span("sim.perturb", |_| {
                api::perturbed_simulations(
                    &free.scenario,
                    free.position_spread,
                    free.seed,
                    free.n_members,
                )
                .map(black_box)
            })?;
            let mut poll = api::poll_probe(reports)?;
            // Three polls along the request's life: nothing due, one
            // report due, the rest due.
            for now in [REPORT_TIMES[0] - TICK, REPORT_TIMES[0], HORIZONS[0]] {
                t.span("obs.poll", |_| {
                    api::source_poll(&mut poll, now).map(black_box)
                })?;
            }
        }
        Ok::<(), String>(())
    })?;
    out.set("sim.build_ms", trace.agg("sim.build").mean_ms());
    out.set("sim.perturb_ms", trace.agg("sim.perturb").mean_ms());
    out.set("obs.poll_us", trace.agg("obs.poll").mean_ms() * 1e3);

    let mut filter = api::request_filter_probe(assim)?;
    out.set("obs.obs_dim", filter.obs_dim as f64);
    out.set("enkf.state_dim", filter.state_dim as f64);
    out.set("enkf.obs_dim.standard", filter.obs_dim as f64);
    out.set("enkf.members", filter.members as f64);
    trace.probe("probe.enkf", |t| {
        for _ in 0..reps {
            t.span("enkf.analyze", |_| {
                api::enkf_analyze(&mut filter, 1.0, &mut rng)
            })?;
            t.span("enkf.etkf", |_| api::etkf_analyze(&mut filter, 1.0))?;
        }
        Ok::<(), String>(())
    })?;
    out.set("enkf.analyze_ms", trace.agg("enkf.analyze").mean_ms());
    out.set("enkf.etkf_ms", trace.agg("enkf.etkf").mean_ms());
    Ok(())
}

/// The batch under the surge, without the service around it.
fn batch_probes(
    args: RunArgs,
    specs: &[RequestSpec],
    surge_wall_s: f64,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Res<()> {
    const PROBE_SIMS: usize = 64;
    let members_of = |specs: &[RequestSpec]| -> Res<Vec<api::Simulation>> {
        let mut sims = Vec::new();
        for s in specs {
            sims.extend(api::perturbed_simulations(
                &s.scenario,
                s.position_spread,
                s.seed,
                s.n_members,
            )?);
        }
        Ok(sims)
    };

    // 64 compatible request-shape simulations to the far horizon: batched
    // at T threads, batched at 1 thread, and one by one.
    let probe_sims = members_of(&specs[..(PROBE_SIMS / MEMBERS).min(specs.len())])?;
    let horizon = HORIZONS[1];
    trace.probe("probe.sim.batch", |t| {
        for _ in 0..(if args.quick { 1 } else { 3 }) {
            let mut batch = api::batch_of(probe_sims.clone(), args.threads);
            t.span("sim.batch_advance_T", |_| {
                api::batch_advance_to(&mut batch, horizon)
            })?;
            let mut batch = api::batch_of(probe_sims.clone(), 1);
            t.span("sim.batch_advance_1", |_| {
                api::batch_advance_to(&mut batch, horizon)
            })?;
            let mut alone = probe_sims.clone();
            t.span("sim.independent_advance", |_| {
                alone
                    .iter_mut()
                    .try_for_each(|sim| api::sim_run_until(sim, horizon, |_| {}))
            })?;
        }
        Ok::<(), String>(())
    })?;
    let batch_t = stats::median(&trace.durations_ms("sim.batch_advance_T"));
    let batch_1 = stats::median(&trace.durations_ms("sim.batch_advance_1"));
    let independent = stats::median(&trace.durations_ms("sim.independent_advance"));
    out.set("sim.batch_advance_ms", batch_t);
    out.set("sim.independent_advance_ms", independent);
    out.set("sim.batch_vs_independent", independent / batch_1);
    out.set(
        "sim.batch_parallel_eff",
        batch_1 / (args.threads as f64 * batch_t),
    );

    // The surge's own member set straight through one batch: advance to
    // each horizon, one products() call per horizon.
    let mut batch = api::batch_of(members_of(specs)?, args.threads);
    let slots = specs.len() * MEMBERS;
    let direct_ms = trace.probe("probe.sim.direct_replay", |t| {
        let start = Instant::now();
        for h in HORIZONS {
            t.span("sim.batch_advance", |_| {
                api::batch_advance_to(&mut batch, h)
            })?;
            t.span("sim.products", |_| black_box(api::batch_products(&batch)));
        }
        Ok::<f64, String>(ms_between(start, Instant::now()))
    })?;
    out.set("sim.products_ms", trace.agg("sim.products").mean_ms());
    out.set("service.overhead_ratio", surge_wall_s * 1e3 / direct_ms);
    out.note(format!(
        "batch probes: {} request-shape simulations to {horizon} s (batched {batch_t:.1} ms at \
         {} threads, {batch_1:.1} ms at 1, one by one {independent:.1} ms); direct replay of the \
         surge's {slots} slots {direct_ms:.1} ms against a surge wall of {:.1} ms",
        probe_sims.len(),
        args.threads,
        surge_wall_s * 1e3,
    ));
    Ok(())
}
