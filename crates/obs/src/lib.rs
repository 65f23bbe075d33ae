//! # wildfire-obs
//!
//! The observation layer of §3.1: everything between the model state and
//! the "real data pool" of Fig. 2. The assimilation components never see an
//! instrument — they see [`ObservationOperator`]s packed into an [`ObsSet`]:
//! the thin software layer the paper requires between the data sources and
//! the EnKF.
//!
//! * [`operator`] — the [`ObservationOperator`] trait (`h(x)` plus error
//!   variances) and its concrete instruments: [`StridedPsi`] (gridded ψ
//!   samples, the identical-twin baseline), [`StationTemperatures`]
//!   (weather-station networks), and [`ImagePixels`] (synthetic infrared
//!   imagery).
//! * [`obs_set`] — [`ObsSet`]: a heterogeneous pool of operators + real
//!   measurements packed block-wise into the single `(y, H(X), R)` triple
//!   one analysis consumes, allocation-free in steady state through an
//!   [`ObsWorkspace`].
//! * [`timeline`] — time-tagged data streams: [`ObsStreamSpec`] declares an
//!   instrument and its cadence, [`ObsTimeline`] expands declarations into
//!   the sorted schedule of analysis times a driver walks.
//! * [`station`] — weather stations reporting location, timestamp,
//!   temperature, wind, and humidity; the observation operator locates the
//!   station's grid cell by linear interpolation of the location and
//!   evaluates model fields at the station by biquadratic interpolation,
//!   with a fireline-proximity check — all as §3.1 describes.
//! * [`image_obs`] — thermal-image observations: synthetic images rendered
//!   from the model state (via [`wildfire_scene`]) and noisy "real" images
//!   generated from a truth run for identical-twin experiments.
//! * [`snapshot`] — the binary disk-file exchange of Fig. 2 ("the ensemble
//!   of model states is maintained in disk files"): [`Snapshot`], a
//!   versioned container of named f64 arrays with atomic writes, and the
//!   [`CoupledSnapshot`] checkpoint of a full coupled state.
//! * [`source`] — streaming ingestion: the [`ObsSource`] trait
//!   (`poll(now)`, non-blocking) delivers whatever reports have become due,
//!   through a replayed timeline ([`TimelineSource`]), a tailed on-disk
//!   observation log ([`StateFileTail`] / [`ObsLogWriter`]), or a channel
//!   fed from other threads ([`ChannelSource`]).

#![forbid(unsafe_code)]

pub mod image_obs;
pub mod obs_set;
pub mod operator;
pub mod snapshot;
pub mod source;
#[cfg(test)]
mod statefile;
pub mod station;
pub mod timeline;

pub use image_obs::{ImageObsScratch, ImageObservation};
pub use obs_set::{ObsEntry, ObsSet, ObsWorkspace};
pub use operator::{
    synthesize_measurements, ImagePixels, ObsScratch, ObservationOperator, StationTemperatures,
    StridedPsi,
};
pub use snapshot::{CoupledSnapshot, Snapshot, SNAPSHOT_VERSION};
pub use source::{
    ChannelSource, ObsInbox, ObsLogWriter, ObsReport, ObsSource, StateFileTail, TimelineSource,
};
pub use station::{StationObservation, StationReport, SurfaceFields, WeatherStation};
pub use timeline::{ObsEvent, ObsStreamKind, ObsStreamSpec, ObsTimeline, TIME_EPS};

/// Errors from the observation layer.
#[derive(Debug)]
pub enum ObsError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A state file was malformed or had an unexpected version.
    BadStateFile(String),
    /// The requested record is missing from a state file.
    MissingRecord(String),
    /// Grid/scene errors from rendering synthetic images.
    Scene(wildfire_scene::SceneError),
    /// An observation operator rejected its inputs (grid mismatch,
    /// measurement-vector length, …).
    Operator(&'static str),
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::Io(e) => write!(f, "i/o: {e}"),
            ObsError::BadStateFile(msg) => write!(f, "bad state file: {msg}"),
            ObsError::MissingRecord(name) => write!(f, "missing record: {name}"),
            ObsError::Scene(e) => write!(f, "scene: {e}"),
            ObsError::Operator(msg) => write!(f, "observation operator: {msg}"),
        }
    }
}

impl std::error::Error for ObsError {}

impl From<std::io::Error> for ObsError {
    fn from(e: std::io::Error) -> Self {
        ObsError::Io(e)
    }
}

impl From<wildfire_scene::SceneError> for ObsError {
    fn from(e: wildfire_scene::SceneError) -> Self {
        ObsError::Scene(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, ObsError>;
