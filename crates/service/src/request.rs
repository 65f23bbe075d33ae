//! Request/response vocabulary of the forecast service: what a client
//! submits ([`ForecastRequest`]), what comes back on the per-request
//! channel ([`ForecastEvent`] carrying [`ForecastProduct`]s), and the
//! client-side handle ([`RequestHandle`]).

use crate::{Result, ServiceError};
use std::sync::mpsc::Receiver;
use wildfire_ensemble::ObsFilter;
use wildfire_obs::{ObsSource, ObservationOperator};
use wildfire_sim::Scenario;

/// Which analysis algorithm steers a request's ensemble when observation
/// reports arrive. The owned counterpart of
/// [`wildfire_ensemble::ObsFilter`] (which borrows its morphing
/// configuration and therefore cannot cross the service channel).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalysisFilter {
    /// Stochastic EnKF with multiplicative inflation (1 = none).
    Standard {
        /// Forecast inflation factor.
        inflation: f64,
    },
    /// Deterministic square-root filter (no observation perturbations).
    Etkf {
        /// Forecast inflation factor.
        inflation: f64,
    },
}

impl Default for AnalysisFilter {
    fn default() -> Self {
        AnalysisFilter::Standard { inflation: 1.0 }
    }
}

impl AnalysisFilter {
    /// The borrowed driver-side filter selection.
    pub(crate) fn as_obs_filter(&self) -> ObsFilter<'static> {
        match *self {
            AnalysisFilter::Standard { inflation } => ObsFilter::Standard { inflation },
            AnalysisFilter::Etkf { inflation } => ObsFilter::Etkf { inflation },
        }
    }
}

/// One forecast job: a scenario (ignition + fuel + wind [+ shift
/// schedule]), the ensemble realization parameters, the product horizons,
/// and optionally a live observation stream steering the forecast.
pub struct ForecastRequest {
    /// The scenario to forecast. Its `dt` is the reference coupled step;
    /// its wind-shift schedule is honored (the request's one model holds
    /// it).
    pub scenario: Scenario,
    /// Ensemble size (≥ 1). Members are the scenario with per-member
    /// ignition displacement drawn from `seed`/`position_spread`
    /// ([`wildfire_sim::perturb::perturbed_states`]).
    pub n_members: usize,
    /// Std of the per-member rigid ignition displacement (m); 0 runs
    /// identical members.
    pub position_spread: f64,
    /// Seed for both the member perturbations and the analysis
    /// perturbations; equal seeds give equal forecasts.
    pub seed: u64,
    /// Simulated times (s) at which a [`ForecastProduct`] is produced.
    /// Sorted and deduplicated by the worker; must be non-empty.
    pub horizons: Vec<f64>,
    /// Observation operator per stream index: a report with
    /// `stream == s` is evaluated through `operators[s]`.
    pub operators: Vec<Box<dyn ObservationOperator>>,
    /// The live report source, if this forecast is data-driven; `None`
    /// runs a free forecast.
    pub source: Option<Box<dyn ObsSource + Send>>,
    /// Analysis algorithm for streamed reports.
    pub filter: AnalysisFilter,
}

impl ForecastRequest {
    /// A free-running (no observations) forecast of `scenario` with
    /// products at `horizons`, single member.
    pub fn free_run(scenario: Scenario, horizons: Vec<f64>) -> Self {
        ForecastRequest {
            scenario,
            n_members: 1,
            position_spread: 0.0,
            seed: 0,
            horizons,
            operators: Vec::new(),
            source: None,
            filter: AnalysisFilter::default(),
        }
    }
}

/// One delivered product: the forecast state rollup at a requested
/// horizon, aggregated over the request's ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct ForecastProduct {
    /// The request this product belongs to.
    pub request: u64,
    /// The horizon (s) that triggered this product.
    pub horizon: f64,
    /// Actual member simulation time (s) at emission (the horizon, up to
    /// the stepping tolerance; the start time for a horizon already past).
    pub time: f64,
    /// Ensemble size the aggregates run over.
    pub members: usize,
    /// Ensemble-mean burned area (m²).
    pub mean_burned_area: f64,
    /// Ensemble-mean fire-front perimeter length (m).
    pub mean_perimeter_length: f64,
    /// Largest front spread rate seen by any member so far (m/s).
    pub max_spread_rate: f64,
    /// Largest updraft seen by any member so far (m/s).
    pub max_updraft: f64,
    /// Streaming analyses applied to this request so far.
    pub analyses: usize,
    /// Observation reports assimilated so far.
    pub reports_assimilated: usize,
}

/// What arrives on a request's channel: products in horizon order, then
/// exactly one terminal event (`Finished` or `Failed`).
#[derive(Debug)]
pub enum ForecastEvent {
    /// A horizon's product.
    Product(ForecastProduct),
    /// All horizons delivered; the request's members have been dropped.
    Finished {
        /// The finished request.
        request: u64,
    },
    /// The request failed in flight; no further events follow.
    Failed {
        /// The failed request.
        request: u64,
        /// Human-readable failure description.
        error: String,
    },
}

/// Client-side handle to one submitted request: an id plus the receiving
/// end of the per-request event channel. Poll with
/// [`RequestHandle::try_next`], block with [`RequestHandle::next_event`],
/// or collect everything with [`RequestHandle::wait`].
#[derive(Debug)]
pub struct RequestHandle {
    pub(crate) id: u64,
    pub(crate) rx: Receiver<ForecastEvent>,
}

impl RequestHandle {
    /// The service-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the next event; `None` once the channel is closed
    /// (after the terminal event, or if the service died).
    pub fn next_event(&self) -> Option<ForecastEvent> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll for the next event.
    pub fn try_next(&self) -> Option<ForecastEvent> {
        self.rx.try_recv().ok()
    }

    /// Blocks until the request terminates, returning every product in
    /// horizon order.
    ///
    /// # Errors
    /// [`ServiceError::Failed`] if the request failed in flight;
    /// [`ServiceError::Stopped`] if the service died without a terminal
    /// event.
    pub fn wait(self) -> Result<Vec<ForecastProduct>> {
        let mut products = Vec::new();
        loop {
            match self.rx.recv() {
                Ok(ForecastEvent::Product(p)) => products.push(p),
                Ok(ForecastEvent::Finished { .. }) => return Ok(products),
                Ok(ForecastEvent::Failed { error, .. }) => return Err(ServiceError::Failed(error)),
                Err(_) => return Err(ServiceError::Stopped),
            }
        }
    }
}
