//! Time-tagged observation streams: [`ObsStreamSpec`] and [`ObsTimeline`].
//!
//! §3.1 describes data that "arrives" — station reports carry timestamps,
//! image overpasses happen at instants. A scenario declares its data
//! sources as [`ObsStreamSpec`]s (what kind of instrument, how often); an
//! [`ObsTimeline`] expands those declarations over a run window into the
//! merged, sorted schedule of analysis times the assimilation driver walks.

use crate::image_obs::ImageObservation;
use crate::obs_set::ObsSet;
use crate::operator::{
    synthesize_measurements, ImagePixels, ObservationOperator, StationTemperatures, StridedPsi,
};
use crate::station::WeatherStation;
use wildfire_core::{CoupledModel, CoupledState};

/// What a declared data stream measures.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsStreamKind {
    /// ψ at every `stride`-th fire-mesh node (gridded remote sensing /
    /// identical-twin truth sampling) with error std `sigma`.
    StridedPsi {
        /// Node stride (≥ 1; 1 = dense field).
        stride: usize,
        /// Observation-error std (level-set units).
        sigma: f64,
    },
    /// A network of weather stations reporting 2-m temperature.
    Stations {
        /// Station world locations (m).
        locations: Vec<(f64, f64)>,
        /// Reference surface temperature θ0 (K).
        theta0: f64,
        /// Report-error std (K).
        sigma: f64,
    },
    /// Airborne thermal imagery over the fire domain.
    ThermalImage {
        /// Image resolution (pixels per axis).
        pixels: usize,
        /// Camera altitude (m).
        altitude: f64,
        /// Per-pixel radiance-error std.
        sigma: f64,
    },
}

/// A declared data stream: an instrument kind plus its reporting cadence.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsStreamSpec {
    /// What the stream measures.
    pub kind: ObsStreamKind,
    /// First report time (s, simulation clock).
    pub start: f64,
    /// Reporting period (s, > 0).
    pub period: f64,
}

impl ObsStreamSpec {
    /// A stream reporting every `period` seconds starting at `start`.
    pub fn new(kind: ObsStreamKind, start: f64, period: f64) -> Self {
        ObsStreamSpec {
            kind,
            start,
            period,
        }
    }

    /// Realizes the declared instrument against a concrete model as an
    /// [`ObservationOperator`] (the scenario-to-assimilation hand-off).
    pub fn build_operator(&self, model: &CoupledModel) -> Box<dyn ObservationOperator> {
        match &self.kind {
            ObsStreamKind::StridedPsi { stride, sigma } => {
                Box::new(StridedPsi::new(model.fire_grid, *stride, *sigma))
            }
            ObsStreamKind::Stations {
                locations,
                theta0,
                sigma,
            } => {
                let stations = locations
                    .iter()
                    .enumerate()
                    .map(|(i, &(x, y))| WeatherStation::new(format!("STN{i:02}"), x, y))
                    .collect();
                Box::new(StationTemperatures::new(stations, *theta0, *sigma))
            }
            ObsStreamKind::ThermalImage {
                pixels,
                altitude,
                sigma,
            } => {
                let image = ImageObservation::over_fire_domain(model, *altitude, *pixels);
                Box::new(ImagePixels::new(model.clone(), image, *sigma))
            }
        }
    }
}

/// One scheduled observation: stream `stream` reports at `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsEvent {
    /// Report time (s).
    pub time: f64,
    /// Index into the declaring stream list.
    pub stream: usize,
}

/// The merged, time-sorted schedule of every declared stream over a run
/// window. Events at (numerically) equal times share one analysis — that is
/// what makes the pooled [`crate::ObsSet`] heterogeneous.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsTimeline {
    events: Vec<ObsEvent>,
}

/// Two event times within this tolerance belong to one analysis. Shared by
/// the timeline walk and the streaming [`crate::source`] layer, so both
/// group reports into analyses identically.
pub const TIME_EPS: f64 = 1e-9;

/// Hard cap on expanded events per stream — a malformed cadence (tiny
/// period over a huge window) must not exhaust memory.
const MAX_EVENTS_PER_STREAM: u64 = 1_000_000;

impl ObsTimeline {
    /// Expands stream declarations over `[0, t_end]` into a sorted
    /// timeline. Only reports inside the window are emitted (a periodic
    /// stream starting before t = 0 contributes from its first in-window
    /// tick). Streams with a non-positive period contribute only their
    /// start time (one-shot); streams with a non-finite start or period are
    /// skipped, and expansion is capped at one million events per stream.
    pub fn from_streams(streams: &[ObsStreamSpec], t_end: f64) -> Self {
        let mut events = Vec::new();
        for (s, spec) in streams.iter().enumerate() {
            if !spec.start.is_finite() || !spec.period.is_finite() {
                continue;
            }
            if spec.period > 0.0 {
                // First tick index at or after t = 0.
                let mut k = if spec.start < -TIME_EPS {
                    ((-TIME_EPS - spec.start) / spec.period).ceil() as u64
                } else {
                    0
                };
                let k_cap = k.saturating_add(MAX_EVENTS_PER_STREAM);
                loop {
                    let t = spec.start + spec.period * k as f64;
                    if t > t_end + TIME_EPS || k >= k_cap {
                        break;
                    }
                    if t >= -TIME_EPS {
                        events.push(ObsEvent { time: t, stream: s });
                    }
                    k += 1;
                }
            } else if spec.start >= -TIME_EPS && spec.start <= t_end + TIME_EPS {
                events.push(ObsEvent {
                    time: spec.start,
                    stream: s,
                });
            }
        }
        events.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.stream.cmp(&b.stream)));
        ObsTimeline { events }
    }

    /// All events, time-sorted.
    pub fn events(&self) -> &[ObsEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The distinct analysis times (events within tolerance merged).
    pub fn analysis_times(&self) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        for e in &self.events {
            if out.last().is_none_or(|&t| e.time > t + TIME_EPS) {
                out.push(e.time);
            }
        }
        out
    }

    /// Indices of the streams reporting at analysis time `t`.
    pub fn streams_due_at(&self, t: f64) -> impl Iterator<Item = usize> + '_ {
        self.events
            .iter()
            .filter(move |e| (e.time - t).abs() <= TIME_EPS)
            .map(|e| e.stream)
    }

    /// The identical-twin walk step shared by every data-driven harness:
    /// synthesizes measurement blocks (via [`synthesize_measurements`]) for
    /// each stream due at analysis time `t` into `blocks` and assembles the
    /// due operators + blocks into the [`ObsSet`] for that instant.
    /// `operators` must be the realized stream list, index-aligned with the
    /// declarations this timeline was built from (see
    /// [`ObsStreamSpec::build_operator`]); `blocks` is caller scratch reused
    /// across instants.
    ///
    /// # Errors
    /// Operator failures during synthesis or pooling.
    pub fn synthesize_due_pool<'a>(
        &self,
        operators: &'a [Box<dyn ObservationOperator>],
        t: f64,
        truth: &CoupledState,
        rng: &mut wildfire_math::GaussianSampler,
        blocks: &'a mut Vec<Vec<f64>>,
    ) -> crate::Result<ObsSet<'a>> {
        let due: Vec<usize> = self.streams_due_at(t).collect();
        blocks.resize_with(due.len(), Vec::new);
        for (block, &s) in blocks.iter_mut().zip(due.iter()) {
            block.clear();
            synthesize_measurements(operators[s].as_ref(), truth, rng, block)?;
        }
        let mut pool = ObsSet::new();
        for (&s, block) in due.iter().zip(blocks.iter()) {
            pool.push(operators[s].as_ref(), block)?;
        }
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn psi_stream(start: f64, period: f64) -> ObsStreamSpec {
        ObsStreamSpec::new(
            ObsStreamKind::StridedPsi {
                stride: 5,
                sigma: 1.0,
            },
            start,
            period,
        )
    }

    fn station_stream(start: f64, period: f64) -> ObsStreamSpec {
        ObsStreamSpec::new(
            ObsStreamKind::Stations {
                locations: vec![(100.0, 100.0), (200.0, 200.0)],
                theta0: 300.0,
                sigma: 1.0,
            },
            start,
            period,
        )
    }

    #[test]
    fn timeline_merges_and_sorts_streams() {
        let tl =
            ObsTimeline::from_streams(&[psi_stream(60.0, 60.0), station_stream(30.0, 30.0)], 120.0);
        let times: Vec<f64> = tl.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![30.0, 60.0, 60.0, 90.0, 120.0, 120.0]);
        assert_eq!(tl.analysis_times(), vec![30.0, 60.0, 90.0, 120.0]);
        // Both streams are due at the shared instants.
        let due: Vec<usize> = tl.streams_due_at(60.0).collect();
        assert_eq!(due, vec![0, 1]);
        let due: Vec<usize> = tl.streams_due_at(90.0).collect();
        assert_eq!(due, vec![1]);
    }

    #[test]
    fn one_shot_and_empty_windows() {
        let one_shot = ObsStreamSpec::new(
            ObsStreamKind::StridedPsi {
                stride: 1,
                sigma: 0.5,
            },
            45.0,
            0.0,
        );
        let tl = ObsTimeline::from_streams(std::slice::from_ref(&one_shot), 100.0);
        assert_eq!(tl.len(), 1);
        assert_eq!(tl.events()[0].time, 45.0);
        let none = ObsTimeline::from_streams(&[one_shot], 10.0);
        assert!(none.is_empty());
        assert!(none.analysis_times().is_empty());
    }

    #[test]
    fn malformed_streams_are_skipped_or_clamped() {
        // Non-finite cadences are dropped entirely.
        let bad = ObsStreamSpec::new(
            ObsStreamKind::StridedPsi {
                stride: 1,
                sigma: 1.0,
            },
            f64::NAN,
            60.0,
        );
        assert!(ObsTimeline::from_streams(&[bad], 120.0).is_empty());
        // A periodic stream starting before t = 0 contributes only its
        // in-window ticks.
        let early = ObsStreamSpec::new(
            ObsStreamKind::StridedPsi {
                stride: 1,
                sigma: 1.0,
            },
            -60.0,
            45.0,
        );
        let tl = ObsTimeline::from_streams(&[early], 100.0);
        let times: Vec<f64> = tl.events().iter().map(|e| e.time).collect();
        assert_eq!(times, vec![30.0, 75.0]);
        // One-shot reports before the window are dropped.
        let past = ObsStreamSpec::new(
            ObsStreamKind::StridedPsi {
                stride: 1,
                sigma: 1.0,
            },
            -5.0,
            0.0,
        );
        assert!(ObsTimeline::from_streams(&[past], 100.0).is_empty());
    }

    #[test]
    fn stream_operators_realize_against_a_model() {
        use wildfire_atmos::state::AtmosGrid;
        let model = CoupledModel::new(
            AtmosGrid {
                nx: 6,
                ny: 6,
                nz: 4,
                dx: 60.0,
                dy: 60.0,
                dz: 50.0,
            },
            wildfire_atmos::AtmosParams::default(),
            wildfire_fire::FuelCategory::ShortGrass,
            4,
        )
        .unwrap();
        let psi = psi_stream(0.0, 60.0).build_operator(&model);
        assert_eq!(psi.dim(), model.fire_grid.len().div_ceil(5));
        assert_eq!(psi.name(), "strided-psi");
        let st = station_stream(0.0, 30.0).build_operator(&model);
        assert_eq!(st.dim(), 2);
        let img = ObsStreamSpec::new(
            ObsStreamKind::ThermalImage {
                pixels: 8,
                altitude: 3000.0,
                sigma: 0.5,
            },
            0.0,
            120.0,
        )
        .build_operator(&model);
        assert_eq!(img.dim(), 64);
    }
}
