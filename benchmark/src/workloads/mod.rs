//! The five workloads: fixed sizes, the seeded input generator, and the
//! dispatch from a workload name to its end-to-end and traced passes.

pub mod fig1;
pub mod fig2;
pub mod service;

use crate::json::Json;
use crate::metrics::Outcome;
use std::time::Instant;

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20_080_414;
/// Held-out seed: never used while tuning; `run.sh` checks it too.
pub const HELD_OUT_SEED: u64 = 8_021_615;

/// One workload's name, reason and fixed sizes.
pub struct WorkloadDef {
    pub name: &'static str,
    /// The one-line reason, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// Fixed sizes (domain, members, horizons, rate, counts), for the
    /// output files and the README.
    pub sizes: &'static str,
    /// The end-to-end pass (tracing off).
    pub run: Pass,
    /// The traced pass (per-layer metrics).
    pub trace: Pass,
}

/// One pass of a workload.
pub type Pass = fn(RunArgs) -> Result<Outcome, String>;

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "fig1_paper",
        why:
            "Paper Fig. 1 on the 600 m domain, 1 thread, cache-resident: fire, atmos and grid all \
              do real work; the plain baseline a narrow-band or bandwidth change should not move.",
        sizes: "fig1-fireline on DomainSpec::PAPER (10x10x6 atmosphere, 91x91 fire nodes), \
                seeded ignition shift within +-12 m, one run_until 0->240 s per rep, 1 thread, \
                reps back to back for --seconds",
        run: |a| fig1::run(&fig1::PAPER, a),
        trace: |a| fig1::trace(&fig1::PAPER, a),
    },
    WorkloadDef {
        name: "fig1_wide",
        why:
            "Same ignitions centred on a 16x larger 40x40x6 domain (391x391 fire nodes): full-grid \
              sweeps over mostly unburned ground, working set beyond L2, 9600-cell projection.",
        sizes: "fig1-fireline geometry translated to the centre of a 40x40x6 refinement-10 domain \
                (391x391 fire nodes), seeded shift within +-12 m, one run_until 0->120 s per rep, \
                1 thread, reps back to back for --seconds",
        run: |a| fig1::run(&fig1::WIDE, a),
        trace: |a| fig1::trace(&fig1::WIDE, a),
    },
    WorkloadDef {
        name: "fig2_loop",
        why: "The headline data-driven loop: 25-member forecast through a MemStore, packing, \
              morphing filter on gridded-psi instants, EnKF on station instants, T threads.",
        sizes: "fig2-data-driven on DomainSpec::SMALL, 25 members displaced to (170,190) spread \
                12 m, 0->300 s, 10 timeline instants (5 psi+stations morphing, 5 stations-only \
                standard EnKF inflation 1.02), forecast leg via MemStore, T threads, reps back to \
                back for --seconds",
        run: fig2::run,
        trace: fig2::trace,
    },
    WorkloadDef {
        name: "service_steady",
        why: "ForecastService below the knee: open loop at 10 req/s, mixed free/assimilating \
              requests; per-request admission and scheduling dominate, batching barely engages.",
        sizes:
            "ForecastService tick 2 s, T threads, open loop 10 req/s for --seconds (200 requests \
                at 20 s); request: SMALL circle ignition (seeded centre), 4 members spread 10 m, \
                horizons {15,30} s; every 4th assimilating (two StridedPsi stride-5 reports at \
                5 s and 10 s, Standard/Etkf alternating); limit 250 ms",
        run: |a| service::run(service::Mode::Steady, a),
        trace: |a| service::trace(service::Mode::Steady, a),
    },
    WorkloadDef {
        name: "service_surge",
        why: "Same service, opposite regime: every request submitted at t=0, ~1200 compatible \
              slots in one SimBatch; lockstep SoA stepping, regrouping and products() do the work.",
        sizes: "same generator as service_steady, 15 requests per --seconds second (300 at 20 s) \
                submitted back to back at t=0, run until the last Finished; limit: faster than \
                real time (30 s)",
        run: |a| service::run(service::Mode::Surge, a),
        trace: |a| service::trace(service::Mode::Surge, a),
    },
];

pub fn workload_def(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Arguments of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Length of the timed phase (s).
    pub seconds: f64,
    /// Worker threads handed to the library where it takes a count.
    pub threads: usize,
    /// `--quick`: shrunken sizes and a single rep, to run the output checks
    /// in seconds. The numbers of a quick run are not comparable to
    /// anything.
    pub quick: bool,
}

impl RunArgs {
    /// Reps a closed workload runs at least.
    pub fn min_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            2
        }
    }
}

/// SplitMix64: the benchmark's own input generator. The library only ever
/// sees values drawn from it (shifts, request mixes, sub-seeds).
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64, stream: u64) -> Self {
        InputRng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// Times `build` `reps` times and returns the last value built with the
/// nearest-rank median of the wall times (s): `setup_s` is a median over
/// several set-ups so one slow page-fault pass does not set it.
pub fn timed_setup<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let value = build()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    ))
}

/// Milliseconds between two instants.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// `{name, why, sizes}` of a workload for the output files.
pub fn describe(w: &WorkloadDef) -> Json {
    let one_line = |text: &str| text.split_whitespace().collect::<Vec<_>>().join(" ");
    Json::obj()
        .set("name", w.name)
        .set("why", one_line(w.why))
        .set("sizes", one_line(w.sizes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = doc.get("workloads").expect("workloads").as_arr();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(WORKLOADS) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(w.name));
            assert_eq!(describe(w).get("why"), entry.get("why"), "{}", w.name);
            assert!(entry.get("why").and_then(Json::as_str).expect("why").len() <= 200);
        }
    }

    #[test]
    fn input_rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = InputRng::new(seed, stream);
            (r.next_u64(), r.uniform(-12.0, 12.0))
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut r = InputRng::new(DEFAULT_SEED, 3);
        assert!((0..1000).all(|_| (-40.0..40.0).contains(&r.uniform(-40.0, 40.0))));
    }
}
