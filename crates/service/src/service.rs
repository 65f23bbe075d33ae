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
use crossbeam::channel::{self, Receiver, Sender};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use wildfire_core::{CoupledError, CoupledState, CoupledWorkspace};
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
    tx: Option<Sender<Box<Pending>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl ForecastService {
    /// Starts the workers with the given configuration.
    pub fn start(cfg: ServiceConfig) -> Self {
        let threads = cfg.threads.max(1);
        let tick = if cfg.tick > 0.0 { cfg.tick } else { 2.0 };
        let (tx, rx) = channel::unbounded::<Box<Pending>>();
        let holding = Arc::new(AtomicUsize::new(0));
        let workers = (0..threads)
            .map(|k| {
                let (rx, holding) = (rx.clone(), Arc::clone(&holding));
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
        let (tx, rx) = channel::unbounded();
        queue
            .send(Box::new(Pending { id, req, tx }))
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

/// One worker: pops requests until the queue is closed and empty.
fn worker_loop(rx: &Receiver<Box<Pending>>, threads: usize, tick: f64, holding: &AtomicUsize) {
    // The stepping scratch lives with the worker, one lane per possible
    // fan-out thread, lent to the members for the length of a leg: a
    // request costs one model plus its states, and allocates no scratch.
    let mut scratch = vec![CoupledWorkspace::new(); threads];
    while let Ok(pending) = rx.recv() {
        let Pending { id, req, tx } = *pending;
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
                scratch.fill_with(CoupledWorkspace::new);
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

/// What one leg of a request leaves behind: the running maxima of the
/// step diagnostics (spread rate, updraft) and the failure of the
/// lowest-indexed member, if any.
struct Leg {
    maxima: (f64, f64),
    failure: Option<(usize, CoupledError)>,
}

/// Runs one request from realization to its last product on the calling
/// worker, whose `scratch` holds one lane per service worker. `Err` is the
/// `Failed` text.
fn serve(
    id: u64,
    req: ForecastRequest,
    tx: &Sender<ForecastEvent>,
    scratch: &mut [CoupledWorkspace],
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
    // Exact maxima: the order members report in cannot change their bits.
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
        let leg = Mutex::new(Leg {
            maxima,
            failure: None,
        });
        pool::parallel_for_each_ws(&mut members, &mut scratch[..width], |i, state, lane| {
            let mut seen = (0.0f64, 0.0f64);
            let outcome = driver.model.run_ws(state, target, dt, lane, |_, d| {
                seen = (seen.0.max(d.max_spread_rate), seen.1.max(d.max_updraft));
            });
            let mut leg = leg.lock().unwrap_or_else(PoisonError::into_inner);
            leg.maxima = (leg.maxima.0.max(seen.0), leg.maxima.1.max(seen.1));
            if let Err(e) = outcome {
                if leg.failure.as_ref().is_none_or(|(j, _)| i < *j) {
                    leg.failure = Some((i, e));
                }
            }
        });
        let leg = leg.into_inner().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, e)) = leg.failure {
            return Err(format!("advance: {e}"));
        }
        maxima = leg.maxima;
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
    use super::lanes;

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
