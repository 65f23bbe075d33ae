//! # wildfire-ensemble
//!
//! The parallel ensemble architecture of Fig. 2: "Ensemble members are
//! advanced in time and the observation function evaluated for each
//! ensemble member independently on a subset of processors. … The ensemble
//! of model states is maintained in disk files. … The model, the
//! observation function, and the EnKF are in separate executables."
//!
//! This crate maps that architecture onto a single node:
//!
//! * [`pool`] — crossbeam scoped worker threads standing in for the
//!   processor subsets; members are partitioned across workers for the
//!   forecast and observation phases;
//! * [`store`] — the state exchange: a [`store::SnapshotStore`] abstraction
//!   with an in-memory backend and a disk backend writing one versioned
//!   full-state [`wildfire_obs::Snapshot`] per member (atomic renames),
//!   byte-identical to what separate executables would exchange; shards of
//!   the ensemble can live in different worker processes that meet only at
//!   the store;
//! * [`driver`] — assimilation cycles tying it together for both filters
//!   (standard EnKF on raw fields, morphing EnKF on extended states) over
//!   N states of one model; `wildfire_sim::perturb` builds those states
//!   (the identical-twin setup of Fig. 4: an ensemble ignited at an
//!   intentionally displaced location).
//!
//! `unsafe` is denied crate-wide; [`pool`] alone is allowed it, for the
//! disjoint per-item `&mut` hand-out of its dynamic scheduler.

#![deny(unsafe_code)]

pub mod driver;
pub mod metrics;
#[allow(unsafe_code)]
pub mod pool;
pub mod store;

pub use driver::{
    EnsembleDriver, EnsembleWorkspace, ObsCycleReport, ObsFilter, SourceCycleReport, StoreWorker,
};
pub use store::{DiskStore, MemStore, SnapshotStore};

/// Errors from the ensemble layer.
#[derive(Debug)]
pub enum EnsembleError {
    /// Error from the coupled model.
    Model(wildfire_core::CoupledError),
    /// Error from the filter.
    Filter(wildfire_enkf::EnkfError),
    /// Error from the observation layer (operators, pools, state storage).
    Store(wildfire_obs::ObsError),
    /// Configuration problem.
    Config(&'static str),
}

impl std::fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnsembleError::Model(e) => write!(f, "model: {e}"),
            EnsembleError::Filter(e) => write!(f, "filter: {e}"),
            EnsembleError::Store(e) => write!(f, "observation layer: {e}"),
            EnsembleError::Config(msg) => write!(f, "config: {msg}"),
        }
    }
}

impl std::error::Error for EnsembleError {}

impl From<wildfire_core::CoupledError> for EnsembleError {
    fn from(e: wildfire_core::CoupledError) -> Self {
        EnsembleError::Model(e)
    }
}

impl From<wildfire_enkf::EnkfError> for EnsembleError {
    fn from(e: wildfire_enkf::EnkfError) -> Self {
        EnsembleError::Filter(e)
    }
}

impl From<wildfire_obs::ObsError> for EnsembleError {
    fn from(e: wildfire_obs::ObsError) -> Self {
        EnsembleError::Store(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, EnsembleError>;
