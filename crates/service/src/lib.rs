//! # wildfire-service
//!
//! The operational layer the paper aims at: "a data driven wildland fire
//! model … running in real time, ahead of the fire". A long-lived
//! **forecast service** in which every request is an independent job, the
//! way the paper's workflow treats every ensemble member:
//!
//! * Clients submit [`ForecastRequest`]s (a scenario — ignition, fuel,
//!   wind — plus product horizons and optionally a live
//!   [`wildfire_obs::ObsSource`]) and get back a [`RequestHandle`] with a
//!   per-request event channel.
//! * [`ForecastService`] runs [`ServiceConfig::threads`] workers on one
//!   FIFO queue. A worker pops the oldest request, realizes it only then —
//!   one coupled model and one state per perturbed member (the Fig. 4
//!   setup, via [`wildfire_sim::perturb`]) — and runs it to completion:
//!   memory is proportional to the workers, not to the queue, and requests
//!   are started in submission order. A lone request fans its members out
//!   over every idle worker.
//! * A free run steps straight to each horizon — its products are exactly
//!   what running each member alone to the horizon yields. A
//!   streamed request advances on its own clock and polls its source every
//!   [`ServiceConfig::tick`] simulated seconds, applying due reports
//!   through [`wildfire_ensemble::EnsembleDriver::cycle_source_ws`]. Either
//!   way the products are the same served alone or from a crowd.
//! * At every requested horizon a [`ForecastProduct`] (burned area,
//!   perimeter length, spread-rate/updraft rollups) is pushed to the
//!   request's channel, then one terminal event. A step error, a filter
//!   error or a panic inside a request becomes `Failed` for that request
//!   only; the worker carries on with the next one.
//! * [`ForecastService::shutdown`] closes the queue — every request
//!   already submitted still delivers all of its products — then joins
//!   the workers.
//!
//! No async runtime and no dependency outside the workspace: the workers
//! are plain [`std::thread`]s sharing one [`std::sync::mpsc`] queue behind
//! a mutex, a lone request's fan-out uses scoped threads, and every
//! per-request channel is a [`std::sync::mpsc`] channel.

#![forbid(unsafe_code)]

mod request;
mod service;

pub use request::{AnalysisFilter, ForecastEvent, ForecastProduct, ForecastRequest, RequestHandle};
pub use service::{ForecastService, ServiceConfig};

/// Errors from the service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The service is no longer accepting requests (after
    /// [`ForecastService::shutdown`]) or ended without a terminal event.
    Stopped,
    /// The request was structurally invalid and never queued.
    Rejected(&'static str),
    /// The request was accepted but failed in flight.
    Failed(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Stopped => write!(f, "forecast service is stopped"),
            ServiceError::Rejected(msg) => write!(f, "request rejected: {msg}"),
            ServiceError::Failed(msg) => write!(f, "request failed: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, ServiceError>;
