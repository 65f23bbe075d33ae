//! # wildfire-sim
//!
//! Scenario-level simulation setup: the single place where coupled-model
//! configuration (domain, fuel, wind, ignition geometry, coupling mode)
//! lives. Every example, benchmark workload, and integration test in the
//! workspace builds its models through this crate instead of hand-rolling
//! `CoupledModel::new(...)` calls.
//!
//! The companion paper (*Real-Time Data Driven Wildland Fire Modeling*,
//! arXiv:0802.1615) stresses exactly this kind of reusable scenario/ensemble
//! harness: reproducible named experiments plus systematic perturbations of
//! them for ensemble initialization.
//!
//! * [`scenario`] — the [`Scenario`] descriptor and its component specs
//!   ([`DomainSpec`], [`FuelSpec`], [`WindSpec`]);
//! * [`builder`] — [`SimulationBuilder`], a fluent constructor, and
//!   [`Simulation`], a model + state pair stepped at the scenario's dt;
//! * [`batch`] — [`SimBatch`], batched multi-fire execution: N
//!   independent simulations work-stolen over the worker pool
//!   (bit-identical to running each alone);
//! * [`registry`] — named, ready-to-run scenarios (the paper's Fig. 1
//!   fireline, circle ignition, multi-ignition merge, mid-run wind shift,
//!   heterogeneous fuel map, uncoupled baseline, the Fig. 2 data-driven
//!   loop, …);
//! * [`perturb`] — ensemble-perturbation hooks turning one scenario into a
//!   member family (displaced ignitions, jittered winds).
//!
//! Scenarios also declare their **observation data streams**
//! ([`Scenario::streams`], [`wildfire_obs::ObsStreamSpec`]): what
//! instruments report (gridded ψ, weather stations, thermal imagery) and
//! how often. [`Scenario::timeline`] expands the declarations into the
//! sorted [`wildfire_obs::ObsTimeline`] an assimilation driver walks.

#![forbid(unsafe_code)]

pub mod batch;
pub mod builder;
pub mod perturb;
pub mod registry;
pub mod scenario;

pub use batch::{SimBatch, SlotProducts};
pub use builder::{Simulation, SimulationBuilder};
pub use perturb::{perturbed_scenarios, PerturbationSpec};
pub use scenario::{DomainSpec, FuelPatch, FuelSpec, Scenario, WindShift, WindSpec};

/// Errors from scenario construction.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The underlying coupled model rejected the configuration.
    Model(wildfire_core::CoupledError),
    /// The scenario itself is malformed (empty ignition list, bad shift
    /// schedule, unknown fuel patch, …).
    Scenario(&'static str),
    /// A checkpoint could not be restored (missing/malformed records or a
    /// snapshot taken from a different scenario).
    Snapshot(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Model(e) => write!(f, "coupled model rejected scenario: {e:?}"),
            SimError::Scenario(msg) => write!(f, "invalid scenario: {msg}"),
            SimError::Snapshot(msg) => write!(f, "snapshot restore failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<wildfire_core::CoupledError> for SimError {
    fn from(e: wildfire_core::CoupledError) -> Self {
        SimError::Model(e)
    }
}

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, SimError>;
