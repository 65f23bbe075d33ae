//! # wildfire-scene
//!
//! Synthetic infrared scene generation (§3.2 of the paper): renders the
//! mid-wave (3–5 µm) radiance image an airborne sensor at ~3000 m would
//! record over the simulated fire, so that synthetic images can be compared
//! with real thermal imagery inside the data assimilation loop.
//!
//! The paper uses the DIRSIG first-principles ray tracer for this purpose
//! and states the goal of "replacing the computationally intensive, but
//! accurate, ray tracing method with a simpler method of calculating the
//! fire radiance based upon the radiance estimations that are inherent in
//! the fire propagation model" — which is what this crate implements. The
//! three radiance components the paper enumerates are all present:
//!
//! 1. **hot ground** under and behind the front, with the paper's
//!    double-exponential cooling (time constants 75 s and 250 s, front peak
//!    1075 K);
//! 2. **direct flame radiation** from a voxelized 3-D flame whose height
//!    follows the heat release rate and which tilts with the wind;
//! 3. **flame radiance reflected from nearby ground**, the mid-wave effect
//!    that produces the "lighter gray fading away at the edges" of Fig. 3.
//!
//! Validation follows the paper: the fire radiative energy is computed and
//! checked against published biomass-burning radiative fractions
//! (Wooster et al. 2003).

#![forbid(unsafe_code)]

pub mod camera;
pub mod flame;
pub mod ground;
pub mod image;
pub mod radiance;
pub mod render;

pub use camera::Camera;
pub use flame::FlameVolume;
pub use image::SceneImage;
pub use render::{render_scene_into, RenderScratch, SceneConfig};

/// Errors from scene generation.
#[derive(Debug, Clone, PartialEq)]
pub enum SceneError {
    /// Image dimensions must be positive.
    EmptyImage,
    /// Grid mismatch between the fire state and mesh.
    GridMismatch(&'static str),
    /// I/O failure while writing an image file.
    Io(String),
}

impl std::fmt::Display for SceneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SceneError::EmptyImage => write!(f, "image dimensions must be positive"),
            SceneError::GridMismatch(what) => write!(f, "grid mismatch: {what}"),
            SceneError::Io(e) => write!(f, "image i/o: {e}"),
        }
    }
}

impl std::error::Error for SceneError {}

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, SceneError>;
