//! # wildfire
//!
//! Umbrella crate for the reproduction of *Mandel et al., "Towards a
//! Real-Time Data Driven Wildland Fire Model"* (IPDPS 2008, arXiv:0801.3875).
//!
//! Re-exports every sub-crate of the workspace under a stable prefix so that
//! applications can depend on a single crate:
//!
//! ```
//! use wildfire::math::Matrix;
//! let id = Matrix::identity(3);
//! assert_eq!(id.trace().unwrap(), 3.0);
//! ```
//!
//! The sub-crates, bottom of the dependency stack first:
//!
//! | module | contents |
//! |---|---|
//! | [`math`] | dense linear algebra, RNG, statistics, quadrature |
//! | [`grid`] | structured 2-D/3-D fields, interpolation, mesh transfer |
//! | [`fuel`] | fuel categories, mass-loss kinetics, heat partitioning (a module of `fire`) |
//! | [`fire`] | spread model + level-set front propagation (§2.1–2.2) |
//! | [`atmos`] | Boussinesq atmospheric dynamics, WRF substitute (§2.3) |
//! | [`core`] | the two-way coupled fire–atmosphere model (§2) |
//! | [`scene`] | synthetic infrared scene generation (§3.2) |
//! | [`obs`] | observation functions & disk state exchange (§3.1) |
//! | [`enkf`] | EnKF, registration, morphing EnKF (§3.3) |
//! | [`ensemble`] | parallel ensemble driver, assimilation cycles (Fig. 2) |
//! | [`sim`] | scenario descriptors, builder, registry, ensemble hooks |
//! | [`service`] | threaded forecast service: one request per worker, run to completion |

#![forbid(unsafe_code)]

pub use wildfire_atmos as atmos;
pub use wildfire_core as core;
pub use wildfire_enkf as enkf;
pub use wildfire_ensemble as ensemble;
pub use wildfire_fire as fire;
pub use wildfire_fire::fuel;
pub use wildfire_grid as grid;
pub use wildfire_math as math;
pub use wildfire_obs as obs;
pub use wildfire_scene as scene;
pub use wildfire_service as service;
pub use wildfire_sim as sim;
