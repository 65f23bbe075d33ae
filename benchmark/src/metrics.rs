//! The metric tables — names, units and directions exactly as
//! `BENCHMARK.json` declares them (a unit test holds the two together) —
//! and the result of one workload run.

use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics; every workload reports every one (see the README's
/// "what an operation is" table for the per-workload reading).
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("rtf", "sim-s/wall-s"),
    higher("requests_per_s", "1/s"),
    lower("first_product_ms_p50", "ms"),
    lower("finished_ms_p50", "ms"),
    higher("within_limit_share", "share"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced pass. A metric that does not apply to a
/// workload (its layer is not on that workload's path) reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    lower("trace_overhead_ratio", "ratio"),
    // core / grid / fire / atmos: the replayed coupled step.
    lower("core.step_ms", "ms"),
    lower("core.self_ms", "ms"),
    higher("core.replay_coverage", "ratio"),
    lower("grid.prolong_ms", "ms"),
    lower("grid.restrict_ms", "ms"),
    lower("fire.advance_ms", "ms"),
    lower("fire.substeps", "count"),
    lower("fire.heat_flux_ms", "ms"),
    lower("fire.rhs_ns_per_node", "ns"),
    higher("fire.front_node_share", "share"),
    lower("atmos.step_ms", "ms"),
    lower("atmos.substeps", "count"),
    lower("atmos.surface_wind_ms", "ms"),
    lower("atmos.poisson_ms_per_solve", "ms"),
    lower("atmos.poisson_iters", "count"),
    // sim
    lower("sim.build_ms", "ms"),
    lower("sim.perturb_ms", "ms"),
    lower("sim.batch_advance_ms", "ms"),
    lower("sim.independent_advance_ms", "ms"),
    higher("sim.batch_vs_independent", "ratio"),
    higher("sim.batch_parallel_eff", "ratio"),
    lower("sim.products_ms", "ms"),
    // ensemble
    lower("ensemble.forecast_ms", "ms"),
    higher("ensemble.forecast_parallel_eff", "ratio"),
    lower("ensemble.analysis_ms.standard", "ms"),
    lower("ensemble.analysis_ms.morphing", "ms"),
    lower("ensemble.cycle_ms.psi", "ms"),
    lower("ensemble.cycle_ms.stations", "ms"),
    lower("ensemble.exchange_ms.mem", "ms"),
    lower("ensemble.exchange_ms.disk", "ms"),
    lower("ensemble.exchange_bytes", "bytes"),
    higher("ensemble.replay_coverage", "ratio"),
    // obs
    lower("obs.pack_ms", "ms"),
    lower("obs.obs_dim", "count"),
    lower("obs.poll_us", "us"),
    lower("obs.reports_dropped", "count"),
    lower("obs.snapshot_serialize_us", "us"),
    lower("obs.snapshot_parse_us", "us"),
    lower("obs.snapshot_bytes", "bytes"),
    // enkf
    lower("enkf.analyze_ms", "ms"),
    lower("enkf.etkf_ms", "ms"),
    lower("enkf.morph_analyze_ms", "ms"),
    lower("enkf.register_ms_per_member", "ms"),
    lower("enkf.state_dim", "count"),
    lower("enkf.obs_dim.standard", "count"),
    lower("enkf.obs_dim.morphing", "count"),
    lower("enkf.members", "count"),
    // service
    lower("service.submit_us", "us"),
    lower("service.isolated_finished_ms.free", "ms"),
    lower("service.isolated_finished_ms.assim", "ms"),
    lower("service.wait_ms_p50", "ms"),
    lower("service.wait_ms_p95", "ms"),
    lower("service.finished_ms_p50.free", "ms"),
    lower("service.finished_ms_p50.assim", "ms"),
    lower("service.first_product_ms_p95", "ms"),
    lower("service.finished_ms_p95", "ms"),
    lower("service.generator_late_ms_max", "ms"),
    lower("service.shutdown_ms", "ms"),
    lower("service.overhead_ratio", "ratio"),
];

/// Failed operations and failed output checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts `n` attempted operations (steps, cycles or requests).
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation or failed output check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// An output check; a failure counts as a failed operation.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    values: BTreeMap<&'static str, f64>,
    /// Free-form lines printed above the result (sample counts, the
    /// percentile a `_p95` really is, probe tolerances…).
    pub notes: Vec<String>,
    /// Extra material for the trace file.
    pub trace: Option<Json>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metrics of `defs`, in table order. A name that was set but is
    /// not in the table is a bug in the workload, and so is a missing or
    /// non-finite end-to-end value; both fail the run. Missing per-layer
    /// values read 0 (layer not on this workload's path).
    pub fn metrics(&mut self, defs: &[MetricDef], all_required: bool) -> Vec<(MetricDef, f64)> {
        for name in self.values.keys() {
            if !defs.iter().any(|d| d.name == *name) {
                self.checks
                    .fail(format!("metric {name} is not in the metric table"));
            }
        }
        let mut out = Vec::new();
        for d in defs {
            let v = self.values.get(d.name).copied();
            match v {
                Some(v) if v.is_finite() => out.push((*d, v)),
                Some(v) => {
                    self.checks.fail(format!("metric {} is {v}", d.name));
                    out.push((*d, 0.0));
                }
                None if all_required => {
                    self.checks
                        .fail(format!("metric {} was not measured", d.name));
                    out.push((*d, 0.0));
                }
                None => out.push((*d, 0.0)),
            }
        }
        out
    }
}

/// Latency samples of the operations of one run, in milliseconds.
#[derive(Debug, Default)]
pub struct OpSamples {
    pub first_product_ms: Vec<f64>,
    pub finished_ms: Vec<f64>,
    /// Operations that met their limit (failed or refused ones never do).
    pub within_limit: usize,
    pub attempted: usize,
}

/// Fills the end-to-end metrics every workload shares.
pub fn set_end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    rtf: f64,
    requests_per_s: f64,
    ops: &OpSamples,
) {
    out.set("setup_s", setup_s);
    out.set("rtf", rtf);
    out.set("requests_per_s", requests_per_s);
    out.set("first_product_ms_p50", stats::median(&ops.first_product_ms));
    out.set("finished_ms_p50", stats::median(&ops.finished_ms));
    out.set(
        "within_limit_share",
        ops.within_limit as f64 / ops.attempted.max(1) as f64,
    );
    out.set("peak_rss_mb", crate::env::peak_rss_mb());
    // The tails are per-layer metrics of the traced pass (on this hardware
    // they do not repeat well enough to carry a bound); printed here for
    // the reader only.
    let first = stats::tail(&ops.first_product_ms);
    let finished = stats::tail(&ops.finished_ms);
    out.note(format!(
        "latency samples: {} operations; tails (informational): first product {:.3} ms, finished \
         {:.3} ms at percentile {:.1}, the highest with {} samples beyond it",
        finished.samples,
        first.value,
        finished.value,
        100.0 * finished.q,
        stats::TAIL_MIN_BEYOND,
    ));
}

/// End-to-end metrics of a closed, single-client workload: an operation is
/// one rep of `sim_seconds` simulated seconds, its limit is real time, and
/// throughput comes from the median rep.
pub fn set_closed_end_to_end(
    out: &mut Outcome,
    setup_s: f64,
    sim_seconds: f64,
    first_product_ms: Vec<f64>,
    rep_wall_ms: Vec<f64>,
) {
    let median_wall_s = stats::median(&rep_wall_ms) / 1e3;
    let ops = OpSamples {
        first_product_ms,
        within_limit: rep_wall_ms
            .iter()
            .filter(|&&ms| ms / 1e3 <= sim_seconds)
            .count(),
        attempted: rep_wall_ms.len(),
        finished_ms: rep_wall_ms,
    };
    set_end_to_end(
        out,
        setup_s,
        sim_seconds / median_wall_s,
        1.0 / median_wall_s,
        &ops,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn assert_table_matches(key: &str, defs: &[MetricDef]) {
        let doc = manifest();
        let listed = doc.get(key).expect("metric list").as_arr();
        assert_eq!(listed.len(), defs.len(), "{key} length");
        for (entry, def) in listed.iter().zip(defs) {
            let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("?");
            assert_eq!(field("name"), def.name);
            assert_eq!(field("unit"), def.unit, "{}", def.name);
            let better = match def.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(field("better"), better, "{}", def.name);
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        assert_table_matches("end_to_end", END_TO_END);
        assert_table_matches("per_layer", PER_LAYER);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} listed twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn unknown_and_missing_metrics_fail_the_run() {
        let mut out = Outcome::default();
        out.set("not_a_metric", 1.0);
        out.metrics(END_TO_END, true);
        // One unknown name plus every end-to-end metric missing.
        assert_eq!(out.checks.failed as usize, 1 + END_TO_END.len());
        let mut layers = Outcome::default();
        layers.set("core.step_ms", 0.5);
        let m = layers.metrics(PER_LAYER, false);
        assert!(layers.checks.correct());
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m[1].1, 0.5);
    }
}
