//! # wildfire-bench
//!
//! Shared experiment definitions behind the per-figure harness binaries
//! (`src/bin/figN_*.rs`, which print the paper-style series) and the
//! Criterion benchmarks (`benches/figN_*.rs`, which time the kernels).
//! DESIGN.md §5 maps each experiment to its paper artifact; EXPERIMENTS.md
//! records paper-vs-measured outcomes.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod perf;

pub use experiments::*;
