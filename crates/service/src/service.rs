//! The service runtime: [`ForecastService`] (client facade + worker
//! threads) and the life of one request on a worker.
//!
//! ## Contract
//!
//! * **The request is the work item.** [`ForecastService::start`] spawns
//!   `threads` persistent workers on one FIFO queue of still-*unrealized*
//!   requests. A worker pops the oldest one, realizes its members only
//!   then, and runs it to its terminal event before it pops the next —
//!   so live memory follows the workers, not the queue, and the first
//!   request finishes long before the last one starts.
//! * **A request is one model and N states.** The worker builds the
//!   scenario's model once and ignites the perturbed members on it; one
//!   [`EnsembleDriver`] owns that model, whose wind-shift schedule is a
//!   function of time, so every member follows it.
//! * **Each request runs through its own events.** A free run goes
//!   straight to its next horizon in reference steps: its products equal
//!   those of each member run alone to the horizon, also when the tick
//!   is not a multiple of the scenario dt. A streamed request advances on
//!   its own clock, one [`ServiceConfig::tick`] at a time, polling its
//!   [`ObsSource`] after every leg through
//!   [`EnsembleDriver::cycle_source_ws`] on the same states (members are
//!   already at the poll time, so the cycle's embedded forecasts are
//!   no-ops). Nothing a request computes depends on what else the service
//!   holds.
//! * **Failures stay with their request.** The whole request body runs
//!   under `catch_unwind`: a step error, a filter error or a panic becomes
//!   exactly one `Failed` event on that request's channel and the worker
//!   takes the next request.
//! * **A lone request uses every worker.** Members fan out over
//!   [`lanes`]` = 1 + idle workers` threads per leg: 1 (inline, nothing
//!   spawned) under a surge, every worker for a lone 25-member ensemble.
//! * **Shutdown is the queue closing.** Dropping the only sender lets the
//!   workers drain what is queued and return.

use crate::request::{ForecastEvent, ForecastProduct, ForecastRequest, RequestHandle};
use crate::{Result, ServiceError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use wildfire_core::{CoupledState, CoupledWorkspace};
use wildfire_ensemble::{pool, EnsembleDriver, EnsembleWorkspace};
use wildfire_fire::perimeter::perimeter_length;
use wildfire_math::GaussianSampler;
use wildfire_obs::{ObsInbox, ObsSource, ObservationOperator, TIME_EPS};
use wildfire_sim::perturb::perturbed_states;
use wildfire_sim::PerturbationSpec;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads (clamped to ≥ 1): how many requests run at once, and
    /// how far a lone request's members fan out.
    pub threads: usize,
    /// Poll cadence of a streamed request (simulation seconds, on that
    /// request's own clock): the upper bound on how far its members
    /// advance between two polls of its observation source. Free runs
    /// ignore it. Must be positive.
    pub tick: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 2,
            tick: 2.0,
        }
    }
}

/// A submitted, not yet realized request waiting in the queue.
struct Pending {
    id: u64,
    req: ForecastRequest,
    tx: Sender<ForecastEvent>,
}

/// The forecast service facade. Cloneable submission is not needed —
/// share by reference; the workers live until
/// [`ForecastService::shutdown`] (or drop, which also shuts down
/// gracefully).
pub struct ForecastService {
    /// The queue's only sender; `None` once shut down.
    tx: Option<Sender<Pending>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl ForecastService {
    /// Starts the workers with the given configuration.
    pub fn start(cfg: ServiceConfig) -> Self {
        let threads = cfg.threads.max(1);
        let tick = if cfg.tick > 0.0 { cfg.tick } else { 2.0 };
        let (tx, rx) = mpsc::channel::<Pending>();
        let rx = Arc::new(Mutex::new(rx));
        let holding = Arc::new(AtomicUsize::new(0));
        let workers = (0..threads)
            .map(|k| {
                let (rx, holding) = (Arc::clone(&rx), Arc::clone(&holding));
                std::thread::Builder::new()
                    .name(format!("wildfire-forecast-worker-{k}"))
                    .spawn(move || worker_loop(&rx, threads, tick, &holding))
                    .expect("spawn forecast worker thread")
            })
            .collect();
        ForecastService {
            tx: Some(tx),
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    /// Submits a forecast request; returns the handle carrying the
    /// per-request product channel. Cheap structural validation happens
    /// here; anything involving model construction is validated on the
    /// worker that picks the request up and reported as a `Failed` event.
    ///
    /// # Errors
    /// [`ServiceError::Rejected`] for structurally invalid requests,
    /// [`ServiceError::Stopped`] when the service is shut down.
    pub fn submit(&self, req: ForecastRequest) -> Result<RequestHandle> {
        if req.n_members == 0 {
            return Err(ServiceError::Rejected("n_members must be at least 1"));
        }
        if req.horizons.is_empty() {
            return Err(ServiceError::Rejected("at least one horizon is required"));
        }
        if !req.horizons.iter().all(|h| h.is_finite()) {
            return Err(ServiceError::Rejected("horizons must be finite"));
        }
        if req.source.is_some() && req.operators.is_empty() {
            return Err(ServiceError::Rejected(
                "a streamed request needs at least one stream operator",
            ));
        }
        let queue = self.tx.as_ref().ok_or(ServiceError::Stopped)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        queue
            .send(Pending { id, req, tx })
            .map_err(|_| ServiceError::Stopped)?;
        Ok(RequestHandle { id, rx })
    }

    /// Graceful shutdown: stops accepting, serves every queued request to
    /// its terminal event (all remaining products are still delivered),
    /// then joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Closing the queue is the signal: `recv` keeps handing out what is
        // queued and errors once it is empty with no sender left.
        self.tx = None;
        for worker in self.workers.drain(..) {
            // A worker cannot panic outside `catch_unwind`; nothing to report.
            let _ = worker.join();
        }
    }
}

impl Drop for ForecastService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// How many threads one leg of a request fans its members over: the
/// worker's own plus one per worker that holds no request right now.
/// `holding` counts the asking worker itself.
fn lanes(threads: usize, holding: usize, members: usize) -> usize {
    (1 + threads.saturating_sub(holding.max(1))).clamp(1, members.max(1))
}

/// One fan-out thread's share of a leg: its stepping scratch and the
/// running maxima (spread rate, updraft) of the members it stepped.
type Lane = (CoupledWorkspace, (f64, f64));

/// One worker: pops requests until the queue is closed and empty.
fn worker_loop(rx: &Mutex<Receiver<Pending>>, threads: usize, tick: f64, holding: &AtomicUsize) {
    // The lanes live with the worker, one per possible fan-out thread,
    // lent to the members for the length of a leg: a request costs one
    // model plus its states, and allocates no scratch.
    let mut scratch: Vec<Lane> = vec![Lane::default(); threads];
    loop {
        // The workers share one receiver; whoever holds the lock waits in
        // `recv`. The guard lives only in this statement, so it is released
        // before the request is served and another worker can take the next.
        let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(Pending { id, req, tx }) = next else {
            break;
        };
        // `holding` only sizes the fan-out (a heuristic, no data is
        // published through it), so `Relaxed` suffices.
        holding.fetch_add(1, Ordering::Relaxed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            serve(id, req, &tx, &mut scratch, tick, holding)
        }));
        holding.fetch_sub(1, Ordering::Relaxed);
        let event = match outcome {
            Ok(Ok(())) => ForecastEvent::Finished { request: id },
            Ok(Err(error)) => ForecastEvent::Failed { request: id, error },
            Err(payload) => {
                // The unwind may have left a lane mid-update.
                scratch.fill_with(Lane::default);
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("opaque payload");
                ForecastEvent::Failed {
                    request: id,
                    error: format!("panic: {message}"),
                }
            }
        };
        let _ = tx.send(event);
    }
}

/// What only a streamed request needs.
struct Assimilation {
    source: Box<dyn ObsSource + Send>,
    inbox: ObsInbox,
    operators: Vec<Box<dyn ObservationOperator>>,
    filter: crate::AnalysisFilter,
    rng: GaussianSampler,
    ws: EnsembleWorkspace,
    analyses: usize,
    reports_assimilated: usize,
}

/// Runs one request from realization to its last product on the calling
/// worker, whose `scratch` holds one lane per service worker. `Err` is the
/// `Failed` text.
fn serve(
    id: u64,
    req: ForecastRequest,
    tx: &Sender<ForecastEvent>,
    scratch: &mut [Lane],
    tick: f64,
    holding: &AtomicUsize,
) -> std::result::Result<(), String> {
    let mut horizons = req.horizons;
    horizons.sort_by(f64::total_cmp);
    horizons.dedup_by(|a, b| (*a - *b).abs() <= TIME_EPS);
    let spec = PerturbationSpec::position_only(req.position_spread, req.seed);
    let realize = |e: wildfire_sim::SimError| format!("member construction: {e}");
    let model = req.scenario.model().map_err(realize)?;
    let mut members =
        perturbed_states(&req.scenario, &spec, req.n_members, &model).map_err(realize)?;
    // One model steps every member; its wind schedule is a function of time.
    let driver = EnsembleDriver::new(model, 1);
    let dt = req.scenario.dt;
    let mut assim = req.source.map(|source| Assimilation {
        source,
        inbox: ObsInbox::default(),
        operators: req.operators,
        filter: req.filter,
        rng: GaussianSampler::new(req.seed ^ 0x9e37_79b9_7f4a_7c15),
        ws: EnsembleWorkspace::new(),
        analyses: 0,
        reports_assimilated: 0,
    });
    // Largest spread rate and updraft any member has seen so far.
    let mut maxima = (0.0f64, 0.0f64);

    let mut next = 0;
    while next < horizons.len() {
        let target = match assim {
            Some(_) => horizons[next].min(members[0].time() + tick),
            None => horizons[next],
        };
        let width = lanes(
            scratch.len(),
            holding.load(Ordering::Relaxed),
            members.len(),
        );
        // Each lane folds the maxima of the members it steps; the request
        // merges the lanes once per leg (`max` is exact in any order).
        let leg = &mut scratch[..width];
        leg.iter_mut().for_each(|(_, seen)| *seen = maxima);
        pool::try_for_each_ws(&mut members, leg, |_, state, (lane, seen)| {
            driver.model.run_ws(state, target, dt, lane, |_, d| {
                *seen = (seen.0.max(d.max_spread_rate), seen.1.max(d.max_updraft));
            })
        })
        .map_err(|e| format!("advance: {e}"))?;
        maxima = leg
            .iter()
            .fold(maxima, |m, (_, s)| (m.0.max(s.0), m.1.max(s.1)));
        let t_now = members[0].time();
        if let Some(a) = assim.as_mut() {
            // Members are at `t_now`: the cycle's own forecasts are no-ops.
            let report = driver
                .cycle_source_ws(
                    &mut members,
                    a.source.as_mut(),
                    &mut a.inbox,
                    &a.operators,
                    a.filter.as_obs_filter(),
                    t_now,
                    dt,
                    &mut a.rng,
                    &mut a.ws,
                )
                .map_err(|e| format!("assimilation: {e}"))?;
            a.analyses += report.analyses;
            a.reports_assimilated += report.reports_assimilated;
        }
        while next < horizons.len() && horizons[next] <= t_now + TIME_EPS {
            let product = product_at(id, &members, maxima, assim.as_ref(), horizons[next], t_now);
            let _ = tx.send(ForecastEvent::Product(product));
            next += 1;
        }
    }
    Ok(())
}

/// Aggregates the request's members into one product; `maxima` are the
/// largest spread rate and updraft any member has seen so far.
fn product_at(
    request: u64,
    members: &[CoupledState],
    maxima: (f64, f64),
    assim: Option<&Assimilation>,
    horizon: f64,
    time: f64,
) -> ForecastProduct {
    let n = members.len() as f64;
    let mean = |f: fn(&CoupledState) -> f64| members.iter().map(f).sum::<f64>() / n;
    ForecastProduct {
        request,
        horizon,
        time,
        members: members.len(),
        mean_burned_area: mean(|m| m.fire.burned_area()),
        mean_perimeter_length: mean(|m| perimeter_length(&m.fire.psi)),
        max_spread_rate: maxima.0,
        max_updraft: maxima.1,
        analyses: assim.map_or(0, |a| a.analyses),
        reports_assimilated: assim.map_or(0, |a| a.reports_assimilated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForecastRequest;
    use std::sync::Condvar;
    use std::time::Duration;
    use wildfire_fire::IgnitionShape;
    use wildfire_obs::StridedPsi;
    use wildfire_sim::{DomainSpec, Scenario, SimulationBuilder};

    /// A 13×13 fire mesh over a 5×5×4 atmosphere, ignited at its center.
    fn tiny_scenario() -> Scenario {
        let domain = DomainSpec {
            nx: 5,
            ny: 5,
            nz: 4,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
            refinement: 3,
        };
        SimulationBuilder::new()
            .domain(domain)
            .ignite(IgnitionShape::Circle {
                center: domain.center(),
                radius: 30.0,
            })
            .into_scenario()
    }

    #[test]
    fn non_finite_spread_fails_the_request() {
        // Such a spread ignites no member; the request must fail, not
        // deliver products of fireless members.
        let scenario = tiny_scenario();
        let service = ForecastService::start(ServiceConfig {
            threads: 1,
            tick: 2.0,
        });
        for spread in [f64::NAN, f64::INFINITY] {
            let mut req = ForecastRequest::free_run(scenario.clone(), vec![2.0]);
            req.n_members = 3;
            req.position_spread = spread;
            let outcome = service.submit(req).expect("queued").wait();
            assert!(
                matches!(&outcome, Err(ServiceError::Failed(m)) if m.starts_with("member construction")),
                "spread {spread}: {outcome:?}"
            );
        }
    }

    /// A source that delivers nothing and, in its first poll, waits up to
    /// ten seconds for `parties` sources sharing `arrived` to poll too.
    struct Rendezvous {
        arrived: Arc<(Mutex<usize>, Condvar)>,
        met: Arc<AtomicUsize>,
        parties: usize,
        polled: bool,
    }

    impl ObsSource for Rendezvous {
        fn poll(&mut self, _now: f64, _inbox: &mut ObsInbox) -> wildfire_obs::Result<usize> {
            if !std::mem::replace(&mut self.polled, true) {
                let (count, arrival) = &*self.arrived;
                let mut n = count.lock().unwrap();
                *n += 1;
                arrival.notify_all();
                let wait = Duration::from_secs(10);
                let (n, _) = arrival
                    .wait_timeout_while(n, wait, |n| *n < self.parties)
                    .unwrap();
                if *n >= self.parties {
                    self.met.fetch_add(1, Ordering::SeqCst);
                }
            }
            Ok(0)
        }

        fn next_due(&self) -> Option<f64> {
            None
        }
    }

    #[test]
    fn workers_serve_queued_requests_concurrently() {
        // Two streamed requests on two workers can only both finish their
        // first poll's rendezvous if the workers serve them at once; a
        // worker holding the queue while it serves would make each wait
        // out its deadline alone.
        let scenario = tiny_scenario();
        let grid = scenario.model().expect("model").fire_grid;
        let service = ForecastService::start(ServiceConfig {
            threads: 2,
            tick: 1.0,
        });
        let (arrived, met) = (Arc::default(), Arc::<AtomicUsize>::default());
        let streamed: Vec<_> = (0..2)
            .map(|_| {
                let mut req = ForecastRequest::free_run(scenario.clone(), vec![2.0]);
                req.operators = vec![Box::new(StridedPsi::new(grid, 3, 0.5))];
                req.source = Some(Box::new(Rendezvous {
                    arrived: Arc::clone(&arrived),
                    met: Arc::clone(&met),
                    parties: 2,
                    polled: false,
                }));
                service.submit(req).expect("submit")
            })
            .collect();
        for handle in streamed {
            assert_eq!(handle.wait().expect("streamed request").len(), 1);
        }
        assert_eq!(
            met.load(Ordering::SeqCst),
            2,
            "the requests never overlapped"
        );

        // A burst: every request gets exactly one terminal event, its own.
        let burst: Vec<_> = (0..12)
            .map(|_| {
                let req = ForecastRequest::free_run(scenario.clone(), vec![0.5]);
                service.submit(req).expect("submit")
            })
            .collect();
        service.shutdown();
        for handle in burst {
            let events: Vec<_> = std::iter::from_fn(|| handle.next_event()).collect();
            let terminal: Vec<_> = events
                .iter()
                .filter(|e| !matches!(e, ForecastEvent::Product(_)))
                .collect();
            assert!(
                matches!(terminal[..], [ForecastEvent::Finished { request }] if *request == handle.id()),
                "request {}: {events:?}",
                handle.id()
            );
        }
    }

    #[test]
    fn lane_width_is_own_thread_plus_idle_workers() {
        for threads in 1..=8usize {
            // Surge: every worker holds a request — inline, nothing spawned.
            assert_eq!(lanes(threads, threads, 25), 1);
            for members in 1..=30usize {
                // Lone request: every worker, as far as there are members.
                assert_eq!(lanes(threads, 1, members), threads.min(members));
                for holding in 0..=threads + 1 {
                    let w = lanes(threads, holding, members);
                    assert!(
                        (1..=threads.max(1)).contains(&w),
                        "never 0, never more than workers"
                    );
                }
            }
            assert_eq!(lanes(threads, 1, 0), 1, "never 0");
        }
        assert_eq!(lanes(4, 3, 25), 2);
    }
}
