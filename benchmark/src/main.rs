//! `benchmark` — the repository's end-to-end benchmark (see `README.md`).
//!
//! ```text
//! benchmark run <workload>     end-to-end metrics, tracing off
//! benchmark trace <workload>   per-layer metrics from the traced pass
//! benchmark all                every workload, both passes, files under benchmark/out/
//! benchmark set --out <file>   N untraced runs of every workload (input of `compare`)
//! benchmark compare <a> <b>    medians, quartiles, ratio and verdict per workload × metric
//! benchmark selfcheck          two sets back to back, fails when they disagree
//! benchmark env                the environment record every output file carries
//! ```
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` is the same
//! as `run`/`trace` (the form the acceptance driver uses). The last line
//! of `run` and `trace` is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod api;
mod env;
mod json;
mod metrics;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::RunArgs;

/// Parsed command line.
#[derive(Debug, Default)]
struct Cli {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: Option<usize>,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = Some(match value("--seed")?.as_str() {
                    "default" => workloads::DEFAULT_SEED,
                    "held-out" => workloads::HELD_OUT_SEED,
                    v => v.parse().map_err(|_| format!("bad --seed {v}"))?,
                });
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} is outside (0, 600]"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other}")),
                }
            }
            "--runs" => {
                let v = value("--runs")?;
                cli.runs = Some(v.parse().map_err(|_| format!("bad --runs {v}"))?);
            }
            "--out" => cli.out = Some(value("--out")?),
            "--quick" => cli.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            word if cli.command.is_empty() => cli.command = word.to_string(),
            word => cli.positional.push(word.to_string()),
        }
    }
    Ok(cli)
}

/// The contract's result object.
fn result_line(out: &Outcome, metrics: &[(MetricDef, f64)]) -> Json {
    let mut fields = Json::obj();
    for (def, value) in metrics {
        fields = fields.set(
            def.name,
            Json::obj().set("value", *value).set("unit", def.unit),
        );
    }
    Json::obj()
        .set("correct", out.checks.correct())
        .set("attempted", out.checks.attempted.max(1))
        .set("failed", out.checks.failed)
        .set("metrics", fields)
}

/// Runs one pass of one workload in this process and prints it.
fn run_workload(cli: &Cli, name: &str, traced: bool) -> Result<bool, String> {
    let def = workloads::workload_def(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let args = RunArgs {
        seed: cli.seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: suite::resolve_seconds(cli.seconds, cli.quick)?,
        threads: env::worker_threads(),
        quick: cli.quick,
    };
    println!(
        "# {} ({}) seed {} seconds {} T {} nproc {}{}",
        def.name,
        if traced {
            "traced pass"
        } else {
            "end to end, tracing off"
        },
        args.seed,
        args.seconds,
        args.threads,
        env::nproc(),
        if cli.quick {
            " QUICK: not for comparison"
        } else {
            ""
        },
    );
    let mut out = if traced {
        (def.trace)(args)?
    } else {
        (def.run)(args)?
    };
    let metrics = if traced {
        out.metrics(PER_LAYER, false)
    } else {
        out.metrics(END_TO_END, true)
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for failure in &out.checks.failures {
        println!("# CHECK FAILED: {failure}");
    }
    for (def, value) in &metrics {
        println!("{:<40} {:>16.6} {}", def.name, value, def.unit);
    }
    if traced {
        let file = Json::obj()
            .set("workload", workloads::describe(def))
            .set("seed", args.seed)
            .set("seconds", args.seconds)
            .set("quick", cli.quick)
            .set("env", env::record())
            .set("result", result_line(&out, &metrics))
            .set("trace", out.trace.take().unwrap_or(Json::Null));
        let path = suite::out_dir()?.join(format!("trace.{name}.json"));
        std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace written to {}", path.display());
    }
    println!("{}", result_line(&out, &metrics).compact());
    Ok(out.checks.correct())
}

/// What the multi-run commands repeat for every workload.
fn plan(cli: &Cli) -> Result<suite::Plan, String> {
    Ok(suite::Plan {
        seed: cli.seed.unwrap_or(workloads::DEFAULT_SEED),
        seconds: suite::resolve_seconds(cli.seconds, cli.quick)?,
        quick: cli.quick,
        runs: cli.runs.unwrap_or(suite::DEFAULT_SET_RUNS).max(1),
    })
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    let one = |what: &str| {
        cli.positional
            .first()
            .or(cli.workload.as_ref())
            .cloned()
            .ok_or_else(|| format!("{what} needs a workload name"))
    };
    match cli.command.as_str() {
        "" => match &cli.workload {
            Some(name) => run_workload(cli, name, cli.trace),
            None => Err("no command; see benchmark/README.md".to_string()),
        },
        "run" => run_workload(cli, &one("run")?, false),
        "trace" => run_workload(cli, &one("trace")?, true),
        "env" => {
            println!("{}", env::record().pretty());
            Ok(true)
        }
        "all" => suite::all(&plan(cli)?),
        "set" => {
            let out = cli.out.as_ref().ok_or("set needs --out <file>")?;
            suite::set(&plan(cli)?, out.as_ref())
        }
        "compare" => match cli.positional.as_slice() {
            [a, b] => suite::compare_files(a.as_ref(), b.as_ref()),
            _ => Err("compare needs two set files".to_string()),
        },
        "selfcheck" => suite::selfcheck(&plan(cli)?),
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
