//! The environment record written into every output file, so two run sets
//! taken on different (or drifting) hardware can be recognised as such.

use crate::json::Json;
use std::process::Command;
use std::time::Instant;

/// Worker threads used wherever the library takes a thread count:
/// `min(nproc, 2)`.
pub fn worker_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Throughput of a fixed mul/add/div sweep over a 4 KiB buffer (the idea of
/// `crates/bench/src/perf.rs::time_reference_kernel`, re-implemented here):
/// it touches nothing the repository optimises, so it tracks the machine
/// only. Best of three; informational, not an end-to-end metric.
pub fn reference_kernel_mflops() -> f64 {
    const N: usize = 512;
    const SWEEPS: usize = 40_000;
    const FLOPS_PER_ELEMENT: f64 = 6.0;
    let mut init = [0.0_f64; N];
    let mut s = 0x243f_6a88_85a3_08d3_u64;
    for v in &mut init {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *v = 0.5 + (s >> 11) as f64 / (1u64 << 53) as f64;
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let mut work = init;
        let start = Instant::now();
        let mut acc = 0.0_f64;
        for sweep in 0..SWEEPS {
            let c = 1.0 + (sweep % 7) as f64 * 1e-6;
            for v in &mut work {
                *v = (*v * c + 1e-3) / (1.0 + *v * *v * 1e-3);
            }
            acc += work[sweep % N];
        }
        let secs = start.elapsed().as_secs_f64();
        assert!(acc.is_finite() && acc > 0.0, "reference kernel must run");
        best = best.min(secs);
    }
    FLOPS_PER_ELEMENT * (N * SWEEPS) as f64 / best / 1e6
}

/// Builds the environment record.
pub fn record() -> Json {
    Json::obj()
        .set("nproc", nproc())
        .set("T", worker_threads())
        .set("cpu_model", cpu_model())
        .set(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        )
        .set(
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
        )
        .set("reference_kernel_mflops", reference_kernel_mflops())
}
