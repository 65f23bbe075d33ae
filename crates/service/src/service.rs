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
//! * **Each request runs through its own events.** A free run goes
//!   straight to its next horizon in reference steps: its products equal
//!   [`Simulation::run_until`] of its members exactly, also when the tick
//!   is not a multiple of the scenario dt. A streamed request advances on
//!   its own clock, one [`ServiceConfig::tick`] at a time, polling its
//!   [`ObsSource`] after every leg through
//!   [`EnsembleDriver::cycle_source_ws`] (members are already at the poll
//!   time, so the cycle's embedded forecasts are no-ops). Nothing a
//!   request computes depends on what else the service holds.
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
use std::sync::Arc;
use wildfire_core::{CoupledState, CoupledWorkspace};
use wildfire_ensemble::{pool, EnsembleDriver, EnsembleWorkspace};
use wildfire_fire::perimeter::perimeter_length;
use wildfire_math::GaussianSampler;
use wildfire_obs::{ObsInbox, ObsSource, ObservationOperator, TIME_EPS};
use wildfire_sim::perturb::perturbed_simulations;
use wildfire_sim::{PerturbationSpec, Simulation};

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
    // fan-out thread, and is lent to a member for the length of a leg: a
    // member costs model + state, and no request allocates scratch.
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
                // The unwind may have dropped a lent lane with its member.
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

/// One ensemble member of a request in flight.
struct Member {
    sim: Simulation,
    max_spread_rate: f64,
    max_updraft: f64,
    /// Outcome of the member's last leg.
    outcome: wildfire_sim::Result<()>,
}

/// What only a streamed request needs.
struct Assimilation {
    source: Box<dyn ObsSource + Send>,
    inbox: ObsInbox,
    operators: Vec<Box<dyn ObservationOperator>>,
    filter: crate::AnalysisFilter,
    driver: EnsembleDriver,
    rng: GaussianSampler,
    ws: EnsembleWorkspace,
    /// One spare [`CoupledState`] per member: a poll swaps the real states
    /// out of the members into this buffer, analyzes, and swaps back.
    gather: Vec<CoupledState>,
    analyses: usize,
    reports_assimilated: usize,
}

impl Assimilation {
    /// Assimilates whatever reports are due at the members' clock `t_now`.
    fn poll(
        &mut self,
        members: &mut [Member],
        t_now: f64,
        dt: f64,
    ) -> std::result::Result<(), String> {
        let swap = |members: &mut [Member], gather: &mut [CoupledState]| {
            for (m, g) in members.iter_mut().zip(gather) {
                std::mem::swap(&mut m.sim.state, g);
            }
        };
        swap(members, &mut self.gather);
        let outcome = self.driver.cycle_source_ws(
            &mut self.gather,
            self.source.as_mut(),
            &mut self.inbox,
            &self.operators,
            self.filter.as_obs_filter(),
            t_now,
            dt,
            &mut self.rng,
            &mut self.ws,
        );
        swap(members, &mut self.gather);
        let report = outcome.map_err(|e| format!("assimilation: {e}"))?;
        self.analyses += report.analyses;
        self.reports_assimilated += report.reports_assimilated;
        Ok(())
    }
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
    let sims = perturbed_simulations(&req.scenario, &spec, req.n_members)
        .map_err(|e| format!("member construction: {e}"))?;
    let dt = req.scenario.dt;
    // The warm-started projection seeds from the φ the previous step left
    // in the workspace: such members keep their own instead of borrowing.
    let lend = !req.scenario.pressure_warm_start;
    let mut assim = req.source.map(|source| Assimilation {
        source,
        inbox: ObsInbox::default(),
        operators: req.operators,
        filter: req.filter,
        driver: EnsembleDriver::new(sims[0].model.clone(), 1),
        rng: GaussianSampler::new(req.seed ^ 0x9e37_79b9_7f4a_7c15),
        ws: EnsembleWorkspace::new(),
        gather: sims.iter().map(|m| m.state.clone()).collect(),
        analyses: 0,
        reports_assimilated: 0,
    });
    let mut members: Vec<Member> = sims
        .into_iter()
        .map(|sim| Member {
            sim,
            max_spread_rate: 0.0,
            max_updraft: 0.0,
            outcome: Ok(()),
        })
        .collect();

    let mut next = 0;
    while next < horizons.len() {
        let target = match assim {
            Some(_) => horizons[next].min(members[0].sim.time() + tick),
            None => horizons[next],
        };
        let width = lanes(
            scratch.len(),
            holding.load(Ordering::Relaxed),
            members.len(),
        );
        pool::parallel_for_each_dynamic_ws(&mut members, &mut scratch[..width], |_, m, lane| {
            if lend {
                std::mem::swap(&mut m.sim.workspace, lane);
            }
            let (spread, updraft) = (&mut m.max_spread_rate, &mut m.max_updraft);
            m.outcome = m.sim.run_until(target, |_, diag| {
                *spread = spread.max(diag.max_spread_rate);
                *updraft = updraft.max(diag.max_updraft);
            });
            if lend {
                std::mem::swap(&mut m.sim.workspace, lane);
            }
        });
        for m in &members {
            m.outcome.clone().map_err(|e| format!("advance: {e}"))?;
        }
        let t_now = members[0].sim.time();
        if let Some(a) = assim.as_mut() {
            a.poll(&mut members, t_now, dt)?;
        }
        while next < horizons.len() && horizons[next] <= t_now + TIME_EPS {
            let product = product_at(id, &members, assim.as_ref(), horizons[next], t_now);
            let _ = tx.send(ForecastEvent::Product(product));
            next += 1;
        }
    }
    Ok(())
}

/// Aggregates the request's members into one product.
fn product_at(
    request: u64,
    members: &[Member],
    assim: Option<&Assimilation>,
    horizon: f64,
    time: f64,
) -> ForecastProduct {
    let mut mean_burned = 0.0;
    let mut mean_perimeter = 0.0;
    let mut max_spread = 0.0f64;
    let mut max_updraft = 0.0f64;
    for m in members {
        mean_burned += m.sim.state.fire.burned_area();
        mean_perimeter += perimeter_length(&m.sim.state.fire.psi);
        max_spread = max_spread.max(m.max_spread_rate);
        max_updraft = max_updraft.max(m.max_updraft);
    }
    let n = members.len() as f64;
    ForecastProduct {
        request,
        horizon,
        time,
        members: members.len(),
        mean_burned_area: mean_burned / n,
        mean_perimeter_length: mean_perimeter / n,
        max_spread_rate: max_spread,
        max_updraft,
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
