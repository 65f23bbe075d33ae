//! # wildfire-service
//!
//! The operational layer the paper aims at: "a data driven wildland fire
//! model … running in real time, ahead of the fire". This crate turns the
//! batched execution core ([`wildfire_sim::batch::SimBatch`]) and the
//! streaming observation layer ([`wildfire_obs::ObsSource`]) into a
//! long-lived **forecast service**:
//!
//! * [`ForecastService`] owns a `SimBatch` on a background thread. Clients
//!   submit [`ForecastRequest`]s (a scenario — ignition, fuel, wind — plus
//!   requested product horizons and optionally a live observation stream)
//!   and get back a [`RequestHandle`] with a per-request product channel.
//! * Each request is realized as a small ensemble of perturbed members
//!   (the Fig. 4 setup, via [`wildfire_sim::perturb`]), admitted into the
//!   shared batch — late-arriving requests join the running batch and
//!   catch up tick by tick.
//! * The service loop alternates batched forecasting
//!   (`SimBatch::advance_to`, independent simulations work-stolen over
//!   the worker pool) with streaming assimilation: due observation reports are
//!   drained from each request's [`wildfire_obs::ObsSource`] and applied
//!   through [`wildfire_ensemble::EnsembleDriver::cycle_source_ws`] at the
//!   batch clock, steering the in-flight forecast.
//! * At every requested horizon a [`ForecastProduct`] (burned area,
//!   perimeter length, spread-rate/updraft rollups) is pushed to the
//!   request's channel; clients poll or block on the handle.
//! * [`ForecastService::shutdown`] drains in-flight work — every admitted
//!   request still delivers all of its products — then joins the thread.
//!
//! No async runtime: the service thread is a plain [`std::thread`], the
//! worker pool under the batch uses crossbeam scoped threads, and every
//! channel is the vendored `crossbeam::channel` MPMC queue.

#![forbid(unsafe_code)]

mod request;
mod service;

pub use request::{AnalysisFilter, ForecastEvent, ForecastProduct, ForecastRequest, RequestHandle};
pub use service::{ForecastService, ServiceConfig};

/// Errors from the service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The service thread is no longer accepting requests (after
    /// [`ForecastService::shutdown`] or a service-thread exit).
    Stopped,
    /// The request was structurally invalid and never admitted.
    Rejected(&'static str),
    /// The request was admitted but failed in flight.
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
