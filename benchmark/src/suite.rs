//! Commands that span several workload runs: `all`, `set`, `compare` and
//! `selfcheck`. Every workload run is its own child process of this same
//! executable (so `peak_rss_mb` is that run's alone); the child's last
//! output line is the result object.

use crate::env;
use crate::json::Json;
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats;
use crate::workloads::{self, WORKLOADS};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `--seconds` of `--quick` runs: checks only, numbers not for comparison.
const QUICK_SECONDS: f64 = 0.2;
/// Runs per workload in a `set` unless `--runs` says otherwise.
pub const DEFAULT_SET_RUNS: usize = 5;

/// Settings shared by every child run of `all`, `set` and `selfcheck`.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    /// Runs per workload in a set.
    pub runs: usize,
}

/// The package directory (`benchmark/`), fixed when the binary was built.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand (git-ignored).
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn manifest() -> Result<Json, String> {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text)
}

/// The length of the timed phase: `--seconds` when given, a token length
/// under `--quick`, else `run_seconds` of `BENCHMARK.json`.
pub fn resolve_seconds(seconds: Option<f64>, quick: bool) -> Result<f64, String> {
    match (seconds, quick) {
        (Some(s), _) => Ok(s),
        (None, true) => Ok(QUICK_SECONDS),
        (None, false) => manifest()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string()),
    }
}

/// Regression bound of every end-to-end metric, from `BENCHMARK.json`.
fn manifest_bounds() -> Result<Vec<(MetricDef, f64)>, String> {
    let doc = manifest()?;
    let listed = doc.get("end_to_end").map(Json::as_arr).unwrap_or(&[]);
    END_TO_END
        .iter()
        .map(|def| {
            listed
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(def.name))
                .and_then(|e| e.get("bound"))
                .and_then(Json::as_f64)
                .map(|bound| (*def, bound))
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", def.name))
        })
        .collect()
}

/// Runs `benchmark <pass> <workload> …` as a child, echoing its output,
/// and returns the parsed result object of its last line.
fn child(pass: &str, workload: &str, plan: &Plan) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([pass, workload, "--seed", &plan.seed.to_string()]);
    cmd.args(["--seconds", &plan.seconds.to_string()]);
    if plan.quick {
        cmd.arg("--quick");
    }
    let mut proc = cmd
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {pass} {workload}: {e}"))?;
    let stdout = proc.stdout.take().expect("piped stdout");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read {pass} {workload}: {e}"))?;
        println!("{line}");
        last = line;
    }
    let status = proc
        .wait()
        .map_err(|e| format!("wait {pass} {workload}: {e}"))?;
    let result =
        Json::parse(&last).map_err(|e| format!("{pass} {workload} printed no result: {e}"))?;
    if !status.success() && result.get("correct").and_then(Json::as_bool) != Some(false) {
        return Err(format!("{pass} {workload} exited with {status}"));
    }
    Ok(result)
}

fn header(plan: &Plan) -> Json {
    Json::obj()
        .set("env", env::record())
        .set("seed", plan.seed)
        .set("seconds", plan.seconds)
        .set("quick", plan.quick)
        .set(
            "comparable",
            if plan.quick {
                "no: --quick runs check outputs only"
            } else {
                "yes"
            },
        )
}

fn is_correct(result: &Json) -> bool {
    result.get("correct").and_then(Json::as_bool) == Some(true)
}

/// `benchmark all`: every workload, end to end then traced; one file per
/// workload under `benchmark/out/`.
pub fn all(plan: &Plan) -> Result<bool, String> {
    let head = header(plan);
    println!("# environment: {}", head.get("env").expect("env").compact());
    let mut ok = true;
    for w in WORKLOADS {
        let end_to_end = child("run", w.name, plan)?;
        let per_layer = child("trace", w.name, plan)?;
        ok &= is_correct(&end_to_end) && is_correct(&per_layer);
        let file = head
            .clone()
            .set("workload", workloads::describe(w))
            .set("end_to_end", end_to_end)
            .set("per_layer", per_layer);
        let path = out_dir()?.join(format!("{}.json", w.name));
        std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
    }
    println!(
        "# all workloads: {}",
        if ok { "ok" } else { "CHECKS FAILED" }
    );
    Ok(ok)
}

/// Runs every workload `runs` times (round-robin, so drift spreads over
/// all of them) and returns the set document.
fn measure_set(plan: &Plan) -> Result<(Json, bool), String> {
    let mut records = Vec::new();
    let mut ok = true;
    for run in 0..plan.runs {
        for w in WORKLOADS {
            let result = child("run", w.name, plan)?;
            ok &= is_correct(&result);
            records.push(
                Json::obj()
                    .set("workload", w.name)
                    .set("run", run)
                    .set("result", result),
            );
        }
    }
    let doc = header(plan)
        .set("runs_per_workload", plan.runs)
        .set(
            "workloads",
            WORKLOADS
                .iter()
                .map(workloads::describe)
                .collect::<Vec<_>>(),
        )
        .set("runs", records);
    Ok((doc, ok))
}

/// `benchmark set --out <file>`.
pub fn set(plan: &Plan, out: &Path) -> Result<bool, String> {
    let (doc, ok) = measure_set(plan)?;
    std::fs::write(out, doc.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    Ok(ok)
}

/// Values of `metric` over the runs of `workload` in a set document.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .map(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of a set of runs (a single run is its own median).
fn summary(v: &[f64]) -> (f64, f64, f64) {
    match stats::quartiles(v) {
        Some((q1, q2, q3)) => (q2, q1, q3),
        None => {
            let x = v.first().copied().unwrap_or(f64::NAN);
            (x, x, x)
        }
    }
}

/// The rule of the choosing-metrics guide: `b` against base `a`.
///
/// * every run of `b` better than every run of `a` → ok;
/// * else a run-to-run spread (either side) wider than the bound →
///   unresolved, whatever the medians say;
/// * else worse when `b`'s median is worse than `a`'s by more than the
///   bound (as a share of `a`'s median), ok otherwise.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, _, _) = summary(a);
    let (mb, _, _) = summary(b);
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let all_better = match better {
        Better::Lower => stats::percentile(b, 1.0) < stats::percentile(a, 1e-9),
        Better::Higher => stats::percentile(b, 1e-9) > stats::percentile(a, 1.0),
    };
    let spread = [a, b]
        .iter()
        .filter_map(|v| stats::iqr_share(v))
        .fold(0.0, f64::max);
    if all_better {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound || !worse_by.is_finite() {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Prints the comparison table of `b` against base `a`; returns the
/// verdicts in table order.
fn compare(a: &Json, b: &Json) -> Result<Vec<Verdict>, String> {
    let bounds = manifest_bounds()?;
    for (label, set) in [("a", a), ("b", b)] {
        println!(
            "# {label}: env {} seed {} seconds {} comparable {}",
            set.get("env")
                .map_or_else(|| "?".to_string(), Json::compact),
            set.get("seed").and_then(Json::as_f64).unwrap_or(f64::NAN),
            set.get("seconds")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            set.get("comparable").and_then(Json::as_str).unwrap_or("?"),
        );
    }
    println!(
        "{:<15} {:<22} {:>12} {:>25} {:>12} {:>25} {:>9} {:>6}  verdict",
        "workload", "metric", "median a", "[q1, q3] a", "median b", "[q1, q3] b", "b/a", "bound"
    );
    let mut verdicts = Vec::new();
    for w in WORKLOADS {
        for (def, bound) in &bounds {
            let va = values(a, w.name, def.name);
            let vb = values(b, w.name, def.name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{} / {}: missing from a set", w.name, def.name));
            }
            let (ma, a1, a3) = summary(&va);
            let (mb, b1, b3) = summary(&vb);
            let v = verdict(&va, &vb, def.better, *bound);
            println!(
                "{:<15} {:<22} {:>12.5} {:>25} {:>12.5} {:>25} {:>9.4} {:>6.2}  {}",
                w.name,
                def.name,
                ma,
                format!("[{a1:.5}, {a3:.5}]"),
                mb,
                format!("[{b1:.5}, {b3:.5}]"),
                mb / ma,
                bound,
                v.as_str(),
            );
            verdicts.push(v);
        }
    }
    println!(
        "# b/a: median of b over median of a (base: a). rtf, requests_per_s and \
         within_limit_share are better higher, the rest better lower."
    );
    Ok(verdicts)
}

fn read_set(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `benchmark compare <a.json> <b.json>`: fails when any metric is worse.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let verdicts = compare(&read_set(a)?, &read_set(b)?)?;
    Ok(!verdicts.contains(&Verdict::Worse))
}

/// `benchmark selfcheck`: two sets of the same code, back to back; fails
/// when any workload × metric pair disagrees beyond its bound in either
/// direction, or is too noisy to tell.
pub fn selfcheck(plan: &Plan) -> Result<bool, String> {
    let dir = out_dir()?;
    let mut sets = Vec::new();
    let mut ok = true;
    for label in ["a", "b"] {
        let (doc, correct) = measure_set(plan)?;
        ok &= correct;
        let path = dir.join(format!("selfcheck.{label}.json"));
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# wrote {}", path.display());
        sets.push(doc);
    }
    let forward = compare(&sets[0], &sets[1])?;
    let backward = compare(&sets[1], &sets[0])?;
    let agree = forward.iter().chain(&backward).all(|v| *v == Verdict::Ok);
    println!(
        "# selfcheck: {}",
        match (ok, agree) {
            (false, _) => "CHECKS FAILED",
            (true, false) => "the two sets DISAGREE beyond a bound",
            (true, true) => "the two sets agree within every bound",
        }
    );
    Ok(ok && agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Better = Better::Lower;
    const HIGHER: Better = Better::Higher;

    #[test]
    fn verdict_follows_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5 % slower: within a 10 % bound, beyond a 3 % bound.
        let b = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(verdict(&a, &b, LOWER, 0.10), Verdict::Ok);
        assert_eq!(verdict(&a, &b, LOWER, 0.03), Verdict::Worse);
        // The same numbers as a higher-is-better metric got better.
        assert_eq!(verdict(&a, &b, HIGHER, 0.03), Verdict::Ok);
        assert_eq!(verdict(&b, &a, HIGHER, 0.03), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let a = [100.0, 140.0, 80.0, 120.0, 90.0];
        let b = [104.0, 150.0, 85.0, 118.0, 95.0];
        assert_eq!(verdict(&a, &b, LOWER, 0.10), Verdict::Unresolved);
        // Every run of b below every run of a: ok despite a's spread.
        let c = [60.0, 70.0, 65.0, 75.0, 62.0];
        assert_eq!(verdict(&a, &c, LOWER, 0.10), Verdict::Ok);
    }

    #[test]
    fn single_runs_compare_by_value() {
        assert_eq!(verdict(&[10.0], &[10.5], LOWER, 0.10), Verdict::Ok);
        assert_eq!(verdict(&[10.0], &[11.5], LOWER, 0.10), Verdict::Worse);
        assert_eq!(verdict(&[10.0], &[8.0], HIGHER, 0.10), Verdict::Worse);
        assert_eq!(verdict(&[10.0], &[f64::NAN], LOWER, 0.10), Verdict::Worse);
    }

    #[test]
    fn set_values_are_read_back_per_workload() {
        let result = |v: f64| {
            Json::obj().set(
                "metrics",
                Json::obj().set(
                    "rtf",
                    Json::obj().set("value", v).set("unit", "sim-s/wall-s"),
                ),
            )
        };
        let set = Json::obj().set(
            "runs",
            vec![
                Json::obj()
                    .set("workload", "fig1_paper")
                    .set("result", result(800.0)),
                Json::obj()
                    .set("workload", "fig2_loop")
                    .set("result", result(40.0)),
                Json::obj()
                    .set("workload", "fig1_paper")
                    .set("result", result(810.0)),
            ],
        );
        assert_eq!(values(&set, "fig1_paper", "rtf"), vec![800.0, 810.0]);
        assert!(values(&set, "fig1_paper", "setup_s").is_empty());
    }
}
