//! The service runtime: [`ForecastService`] (client facade + background
//! thread) and the per-request bookkeeping of the service loop.
//!
//! ## Loop shape
//!
//! One iteration of the service loop:
//!
//! 1. **Admit** — drain the control channel (blocking when idle): new
//!    requests are realized as perturbed member [`Simulation`]s and pushed
//!    into the shared [`SimBatch`]; a shutdown message flips the service
//!    into draining mode (no new admissions, finish what is in flight).
//! 2. **Advance** — step the whole batch to the next event time: the
//!    earliest pending horizon, clamped to one service tick past the
//!    slowest member so late-admitted requests catch up gradually and
//!    observation streams are polled at a bounded sim-time cadence.
//! 3. **Assimilate** — per request with a source, swap the member states
//!    out of their batch slots, run
//!    [`EnsembleDriver::cycle_source_ws`] at the batch clock (due reports
//!    only — members are already at the target time, so the embedded
//!    forecasts are no-ops and the batch remains the only stepping path),
//!    and swap the analyzed states back in.
//! 4. **Emit** — requests whose next horizon has been reached push a
//!    [`ForecastProduct`]; fully served requests retire their slots
//!    (`SimBatch::remove`) and send the terminal event.

use crate::request::{ForecastEvent, ForecastProduct, ForecastRequest, RequestHandle};
use crate::{Result, ServiceError};
use crossbeam::channel::{self, Receiver, Sender, TryRecvError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wildfire_core::CoupledState;
use wildfire_ensemble::{EnsembleDriver, EnsembleWorkspace};
use wildfire_math::GaussianSampler;
use wildfire_obs::{ObsInbox, ObsSource, ObservationOperator, TIME_EPS};
use wildfire_sim::batch::SimBatch;
use wildfire_sim::perturb::perturbed_simulations;
use wildfire_sim::{PerturbationSpec, Simulation};

/// Service tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads of the batch's stepping pool (clamped to ≥ 1).
    pub threads: usize,
    /// Service tick (simulation seconds): the upper bound on how far the
    /// batch advances between observation polls, and the catch-up quantum
    /// for late-admitted requests. Must be positive.
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

/// Control messages from clients to the service thread.
enum Control {
    Submit(Box<Pending>),
    Shutdown,
}

/// A submitted request traveling to the service thread.
struct Pending {
    id: u64,
    req: ForecastRequest,
    tx: Sender<ForecastEvent>,
}

/// The forecast service facade. Cloneable submission is not needed —
/// share by reference; the background thread lives until
/// [`ForecastService::shutdown`] (or drop, which also shuts down
/// gracefully).
pub struct ForecastService {
    tx: Sender<Control>,
    worker: Option<std::thread::JoinHandle<()>>,
    next_id: Arc<AtomicU64>,
}

impl ForecastService {
    /// Starts the service thread with the given configuration.
    pub fn start(cfg: ServiceConfig) -> Self {
        let (tx, rx) = channel::unbounded();
        let worker = std::thread::Builder::new()
            .name("wildfire-forecast-service".to_string())
            .spawn(move || service_loop(&rx, cfg))
            .expect("spawn forecast service thread");
        ForecastService {
            tx,
            worker: Some(worker),
            next_id: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Submits a forecast request; returns the handle carrying the
    /// per-request product channel. Cheap structural validation happens
    /// here; anything involving model construction is validated on the
    /// service thread and reported as a `Failed` event.
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
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel::unbounded();
        let pending = Box::new(Pending { id, req, tx });
        self.tx
            .send(Control::Submit(pending))
            .map_err(|_| ServiceError::Stopped)?;
        Ok(RequestHandle { id, rx })
    }

    /// Graceful shutdown: stops admitting, finishes every in-flight
    /// request (all remaining products are still delivered), then joins
    /// the service thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = self.tx.send(Control::Shutdown);
            let _ = worker.join();
        }
    }
}

impl Drop for ForecastService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One admitted request inside the service loop.
struct Active {
    id: u64,
    /// Stable batch slot ids of the member simulations.
    member_ids: Vec<usize>,
    /// Sorted, deduplicated product horizons; `next` indexes the first
    /// not-yet-emitted one.
    horizons: Vec<f64>,
    next: usize,
    /// Reference coupled step (the scenario's dt).
    dt: f64,
    source: Option<Box<dyn ObsSource + Send>>,
    inbox: ObsInbox,
    operators: Vec<Box<dyn ObservationOperator>>,
    filter: crate::AnalysisFilter,
    driver: EnsembleDriver,
    rng: GaussianSampler,
    ws: EnsembleWorkspace,
    /// Swap-gathering placeholders: one spare [`CoupledState`] per member.
    /// An assimilation pass swaps the real states out of the batch slots
    /// into this buffer, analyzes, and swaps back — the driver never needs
    /// to borrow across the batch.
    gather: Vec<CoupledState>,
    analyses: usize,
    reports_assimilated: usize,
    tx: Sender<ForecastEvent>,
}

impl Active {
    /// Earliest horizon still owed, if any.
    fn next_horizon(&self) -> Option<f64> {
        self.horizons.get(self.next).copied()
    }

    /// Current member clock (all members share it between advances).
    fn time(&self, batch: &SimBatch) -> f64 {
        batch.simulation(self.member_ids[0]).time()
    }
}

/// Realizes a pending request into batch slots; on failure the request is
/// answered with a `Failed` event and never admitted.
fn admit(pending: Pending, batch: &mut SimBatch) -> Option<Active> {
    let Pending { id, req, tx } = pending;
    let mut horizons = req.horizons;
    horizons.sort_by(f64::total_cmp);
    horizons.dedup_by(|a, b| (*a - *b).abs() <= TIME_EPS);
    let spec = PerturbationSpec::position_only(req.position_spread, req.seed);
    let members: Vec<Simulation> = match perturbed_simulations(&req.scenario, &spec, req.n_members)
    {
        Ok(m) => m,
        Err(e) => {
            let _ = tx.send(ForecastEvent::Failed {
                request: id,
                error: format!("member construction: {e}"),
            });
            return None;
        }
    };
    let dt = req.scenario.dt;
    let driver = EnsembleDriver::new(members[0].model.clone(), 1);
    let gather: Vec<CoupledState> = members.iter().map(|m| m.state.clone()).collect();
    let member_ids: Vec<usize> = members.into_iter().map(|m| batch.push(m)).collect();
    Some(Active {
        id,
        member_ids,
        horizons,
        next: 0,
        dt,
        source: req.source,
        inbox: ObsInbox::default(),
        operators: req.operators,
        filter: req.filter,
        driver,
        rng: GaussianSampler::new(req.seed ^ 0x9e37_79b9_7f4a_7c15),
        ws: EnsembleWorkspace::new(),
        gather,
        analyses: 0,
        reports_assimilated: 0,
        tx,
    })
}

/// Post-advance pass for one request: streaming assimilation at the batch
/// clock, then product emission for every horizon reached. Returns
/// `Err(description)` on analysis failure.
fn assimilate_and_emit(a: &mut Active, batch: &mut SimBatch) -> std::result::Result<(), String> {
    let t_now = a.time(batch);
    if let Some(source) = a.source.as_mut() {
        // Swap-gather the member states out of their slots…
        for (k, &sid) in a.member_ids.iter().enumerate() {
            std::mem::swap(&mut batch.simulation_mut(sid).state, &mut a.gather[k]);
        }
        // …analyze due reports at the batch clock (members are at `t_now`
        // already, so the cycle's embedded forecasts are no-ops — the
        // batch stays the only stepping path)…
        let outcome = a.driver.cycle_source_ws(
            &mut a.gather,
            source.as_mut(),
            &mut a.inbox,
            &a.operators,
            a.filter.as_obs_filter(),
            t_now,
            a.dt,
            &mut a.rng,
            &mut a.ws,
        );
        // …and swap back unconditionally, so the batch is never left
        // holding placeholder states.
        for (k, &sid) in a.member_ids.iter().enumerate() {
            std::mem::swap(&mut batch.simulation_mut(sid).state, &mut a.gather[k]);
        }
        match outcome {
            Ok(report) => {
                a.analyses += report.analyses;
                a.reports_assimilated += report.reports_assimilated;
            }
            Err(e) => return Err(format!("assimilation: {e}")),
        }
    }
    while a.next_horizon().is_some_and(|h| h <= t_now + TIME_EPS) {
        let horizon = a.horizons[a.next];
        a.next += 1;
        let product = product_at(a, batch, horizon, t_now);
        let _ = a.tx.send(ForecastEvent::Product(product));
    }
    Ok(())
}

/// Aggregates the request's member slots into one product.
fn product_at(a: &Active, batch: &SimBatch, horizon: f64, time: f64) -> ForecastProduct {
    let mut mean_burned = 0.0;
    let mut mean_perimeter = 0.0;
    let mut max_spread = 0.0f64;
    let mut max_updraft = 0.0f64;
    for &sid in &a.member_ids {
        let p = batch.slot_products(sid).expect("member slot present");
        mean_burned += p.burned_area;
        mean_perimeter += p.perimeter_length;
        max_spread = max_spread.max(p.max_spread_rate);
        max_updraft = max_updraft.max(p.max_updraft);
    }
    let n = a.member_ids.len() as f64;
    ForecastProduct {
        request: a.id,
        horizon,
        time,
        members: a.member_ids.len(),
        mean_burned_area: mean_burned / n,
        mean_perimeter_length: mean_perimeter / n,
        max_spread_rate: max_spread,
        max_updraft,
        analyses: a.analyses,
        reports_assimilated: a.reports_assimilated,
    }
}

/// The background service loop; exits when shutdown has been requested
/// (or every client handle dropped) **and** all in-flight requests have
/// delivered their products.
fn service_loop(rx: &Receiver<Control>, cfg: ServiceConfig) {
    let tick = if cfg.tick > 0.0 { cfg.tick } else { 2.0 };
    let mut batch = SimBatch::new(cfg.threads);
    let mut active: Vec<Active> = Vec::new();
    let mut draining = false;
    loop {
        // Admit: block when idle, drain opportunistically when busy.
        if active.is_empty() {
            if draining {
                return;
            }
            match rx.recv() {
                Ok(Control::Submit(p)) => active.extend(admit(*p, &mut batch)),
                Ok(Control::Shutdown) | Err(_) => return,
            }
        }
        loop {
            match rx.try_recv() {
                Ok(Control::Submit(p)) => {
                    if draining {
                        let _ = p.tx.send(ForecastEvent::Failed {
                            request: p.id,
                            error: "service is shutting down".to_string(),
                        });
                    } else {
                        active.extend(admit(*p, &mut batch));
                    }
                }
                Ok(Control::Shutdown) => draining = true,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    draining = true;
                    break;
                }
            }
        }
        if active.is_empty() {
            continue;
        }

        // Advance to the next event: the earliest owed horizon, clamped to
        // one tick past the slowest member (catch-up + obs cadence).
        let target = active
            .iter()
            .filter_map(Active::next_horizon)
            .fold(f64::INFINITY, f64::min);
        let t_min = active
            .iter()
            .map(|a| a.time(&batch))
            .fold(f64::INFINITY, f64::min);
        let t_step = target.min(t_min + tick);
        let advanced = batch.advance_to(t_step);

        // Assimilate + emit per request; retire the finished and the
        // failed.
        let mut k = 0;
        while k < active.len() {
            let failed = if let Err(e) = &advanced {
                Some(format!("batch advance: {e}"))
            } else {
                assimilate_and_emit(&mut active[k], &mut batch).err()
            };
            let done = failed.is_none() && active[k].next >= active[k].horizons.len();
            if failed.is_some() || done {
                let a = active.swap_remove(k);
                for sid in &a.member_ids {
                    batch.remove(*sid);
                }
                let event = match failed {
                    Some(error) => ForecastEvent::Failed {
                        request: a.id,
                        error,
                    },
                    None => ForecastEvent::Finished { request: a.id },
                };
                let _ = a.tx.send(event);
            } else {
                k += 1;
            }
        }
    }
}
