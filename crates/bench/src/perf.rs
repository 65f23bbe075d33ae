//! Shared measurement harness behind the `perf_report` and `perf_gate`
//! binaries.
//!
//! Both time the `fig1-fireline` scenario (coupled and uncoupled) through
//! the workspace and allocating stepping paths, plus one ensemble
//! forecast–analysis cycle, and serialize the numbers as the
//! `BENCH_steps.json` trajectory format. `perf_gate` additionally compares
//! a fresh small-domain measurement against the committed
//! `BENCH_baseline_small.json` so CI fails on throughput regressions; the
//! comparison is normalized by the committed [`REFERENCE_LABEL`] kernel
//! each side measured on its own hardware ([`gate_normalized`]), so the
//! floor survives runner drift.

use std::time::Instant;
use wildfire_atmos::PoissonSolver;
use wildfire_ensemble::pool;
use wildfire_ensemble::{EnsembleDriver, EnsembleSetup, EnsembleWorkspace, FilterKind};
use wildfire_math::GaussianSampler;
use wildfire_sim::batch::SimBatch;
use wildfire_sim::scenario::DomainSpec;
use wildfire_sim::{perturb, registry, PerturbationSpec, Simulation, SimulationBuilder};

/// One timed run of a scenario through one stepping path.
pub struct StepTiming {
    /// Entry label (scenario, domain, path, optional solver override).
    pub label: String,
    /// Coupled steps taken.
    pub steps: usize,
    /// Wall-clock time of the run (s).
    pub wall_secs: f64,
}

impl StepTiming {
    /// Steps per wall-clock second.
    pub fn steps_per_sec(&self) -> f64 {
        self.steps as f64 / self.wall_secs.max(1e-12)
    }
}

/// Times one run of registry scenario `name` to `t_end` simulated seconds.
///
/// `workspace_path` selects the reusable-workspace stepping loop versus the
/// per-step allocating wrappers (the seed behaviour). `solver` optionally
/// overrides the pressure solver (None = the scenario default,
/// [`PoissonSolver::Auto`]); overrides are tagged in the label.
pub fn time_scenario(
    name: &str,
    small: bool,
    t_end: f64,
    workspace_path: bool,
    solver: Option<PoissonSolver>,
) -> StepTiming {
    time_scenario_opts(name, small, t_end, workspace_path, solver, false, false)
}

/// [`time_scenario`] with the opt-in speed modes: `fast_math` switches the
/// spread-law wind power to the polynomial kernel and `warm_start` seeds
/// each pressure solve from the previous step's potential. Either toggle is
/// tagged in the label (`::fastmath`, `::warm`), so the default (bitwise)
/// entries stay comparable across reports.
#[allow(clippy::fn_params_excessive_bools)]
pub fn time_scenario_opts(
    name: &str,
    small: bool,
    t_end: f64,
    workspace_path: bool,
    solver: Option<PoissonSolver>,
    fast_math: bool,
    warm_start: bool,
) -> StepTiming {
    let scenario = registry::by_name(name).expect("registry scenario");
    let mut builder = SimulationBuilder::from_scenario(scenario)
        .fast_math(fast_math)
        .warm_start(warm_start);
    if small {
        builder = builder.domain(DomainSpec::SMALL);
    }
    let mut sim = builder.build().expect("scenario builds");
    if let Some(s) = solver {
        sim.model.atmos.params.pressure_solver = s;
    }
    // The alloc path below steps the bare model and would skip the
    // Simulation's wind-shift schedule; keep the comparison honest by only
    // timing shift-free scenarios.
    assert!(
        sim.scenario.wind.shifts.is_empty(),
        "perf paths only compare equal physics on shift-free scenarios"
    );
    let mut steps = 0usize;
    let start = Instant::now();
    if workspace_path {
        // The Simulation stepping loop reuses its embedded CoupledWorkspace.
        sim.run_until(t_end, |_, _| steps += 1).expect("run");
    } else {
        // The seed path: the allocating wrapper builds fresh buffers every
        // step (what `CoupledModel::step` did before the workspace layer).
        while sim.time() < t_end - 1e-9 {
            let dt = sim.dt.min(t_end - sim.time());
            sim.model.step(&mut sim.state, dt).expect("step");
            steps += 1;
        }
    }
    let solver_tag = match solver {
        None => String::new(),
        Some(s) => format!(
            "::{}",
            match s {
                PoissonSolver::Auto => "auto",
                PoissonSolver::ConjugateGradient => "cg",
                PoissonSolver::Multigrid => "multigrid",
            }
        ),
    };
    let mode_tag = format!(
        "{}{}",
        if fast_math { "::fastmath" } else { "" },
        if warm_start { "::warm" } else { "" },
    );
    StepTiming {
        label: format!(
            "{name}{}::{}{solver_tag}{mode_tag}",
            if small { " (small)" } else { "" },
            if workspace_path { "workspace" } else { "alloc" },
        ),
        steps,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

/// Times the spread-law power kernel in isolation: `evals` evaluations of
/// `x^b` over a sweep of wind speeds and registry exponents, through libm
/// `powf` (the bitwise default), the scalar polynomial
/// [`wildfire_fuel::fast_pow`], and the batched
/// [`wildfire_fuel::fast_pow_slice`] (the vectorizable form the fast-math
/// fire kernel actually calls). Returned in that order; `steps` counts
/// evaluations.
pub fn time_pow_kernel(evals: usize) -> [StepTiming; 3] {
    // Representative operands: head winds up to storm strength crossed with
    // the registry's wind-exponent range.
    let xs: Vec<f64> = (0..64).map(|i| 0.05 + 0.45 * i as f64).collect();
    let bs = [0.7, 1.2, 1.4, 1.6, 2.1];
    let rounds = evals / (xs.len() * bs.len());
    let mut buf = vec![0.0_f64; xs.len()];
    let mut best = [f64::INFINITY; 3];
    for _rep in 0..3 {
        for slot in 0..3 {
            let start = Instant::now();
            let mut acc = 0.0_f64;
            for r in 0..rounds {
                let shift = r as f64 * 1e-9;
                for &b in &bs {
                    if slot == 2 {
                        for (o, &x) in buf.iter_mut().zip(&xs) {
                            *o = x + shift;
                        }
                        wildfire_fuel::fast_pow_slice(b, &mut buf);
                        acc += buf.iter().sum::<f64>();
                    } else {
                        for &x in &xs {
                            let x = x + shift;
                            acc += if slot == 1 {
                                wildfire_fuel::fast_pow(x, b)
                            } else {
                                x.powf(b)
                            };
                        }
                    }
                }
            }
            let wall_secs = start.elapsed().as_secs_f64();
            assert!(acc.is_finite() && acc > 0.0, "the timed kernel must run");
            best[slot] = best[slot].min(wall_secs);
        }
    }
    let steps = rounds * xs.len() * bs.len();
    let label = |tag: &str| StepTiming {
        label: format!("pow_kernel::{tag}"),
        steps,
        wall_secs: 0.0,
    };
    let mut out = [label("bitwise"), label("fast"), label("fast_slice")];
    for (t, b) in out.iter_mut().zip(best) {
        t.wall_secs = b;
    }
    out
}

/// Times the multigrid smoother in isolation on the domain's atmosphere
/// grid: `sweeps` red-black half-sweep pairs through the scalar reference
/// and the color-contiguous packed layout (in that order; `steps` counts
/// sweep pairs). Both produce bit-identical iterates — this entry tracks
/// the layout's throughput edge.
pub fn time_poisson_smoother(small: bool, sweeps: usize) -> [StepTiming; 2] {
    use wildfire_atmos::multigrid::smooth_reference;
    use wildfire_atmos::state::AtmosGrid;
    use wildfire_atmos::PackedSmoother;
    let g = if small {
        AtmosGrid {
            nx: 8,
            ny: 8,
            nz: 5,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
        }
    } else {
        AtmosGrid {
            nx: 10,
            ny: 10,
            nz: 6,
            dx: 60.0,
            dy: 60.0,
            dz: 50.0,
        }
    };
    let n = g.n_cells();
    // Deterministic broadband right-hand side, mean-free.
    let mut rhs = vec![0.0; n];
    let mut s = 0x9e3779b97f4a7c15u64;
    for v in rhs.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e-2;
    }
    let mean = rhs.iter().sum::<f64>() / n as f64;
    for v in rhs.iter_mut() {
        *v -= mean;
    }
    let mut packed = PackedSmoother::new(&g).expect("even-dimensioned grid packs");
    let mut x = vec![0.0; n];
    let mut best = [f64::INFINITY; 2];
    for _rep in 0..3 {
        for (slot, use_packed) in [(0, false), (1, true)] {
            x.fill(0.0);
            let start = Instant::now();
            if use_packed {
                packed.smooth(&g, &rhs, &mut x, sweeps);
            } else {
                smooth_reference(&g, &rhs, &mut x, sweeps);
            }
            let wall_secs = start.elapsed().as_secs_f64();
            assert!(x.iter().any(|&v| v != 0.0), "the smoother must do work");
            best[slot] = best[slot].min(wall_secs);
        }
    }
    let small_tag = if small { " (small)" } else { "" };
    [
        StepTiming {
            label: format!("poisson_smoother{small_tag}::scalar"),
            steps: sweeps,
            wall_secs: best[0],
        },
        StepTiming {
            label: format!("poisson_smoother{small_tag}::packed"),
            steps: sweeps,
            wall_secs: best[1],
        },
    ]
}

/// Times `evals` level-set RHS evaluations — the fire-only kernel cost,
/// isolated from the atmosphere and the mesh transfers — on a mid-burn
/// fig1 state, through the fused production kernel and the paper-faithful
/// scalar reference it is bitwise-pinned to. One scenario build and one
/// coupled warmup run serve every repetition; the reps are interleaved
/// best-of-three (fused, reference, fused, …) like the step timings, so
/// neither path benefits from warmer caches. The returned pair records the
/// fire-kernel speedup alongside the end-to-end per-solver entries in
/// `BENCH_steps.json` (`steps` = RHS evaluations here).
pub fn time_level_set_rhs(small: bool, evals: usize) -> [StepTiming; 2] {
    let scenario = registry::by_name("fig1-fireline").expect("registry scenario");
    let mut builder = SimulationBuilder::from_scenario(scenario);
    if small {
        builder = builder.domain(DomainSpec::SMALL);
    }
    let mut sim = builder.build().expect("scenario builds");
    // Establish a representative mid-burn front before timing.
    sim.run_until(20.0, |_, _| {}).expect("warmup run");
    let wind = sim.model.fire_wind(&sim.state).expect("fire wind");
    let solver = &sim.model.fire;
    let psi = &sim.state.fire.psi;
    let mut out = wildfire_grid::Field2::default();
    // Size the output buffer outside the timed loops.
    solver.rhs_into(psi, &wind, &mut out);
    let mut best = [f64::INFINITY; 2];
    for _rep in 0..3 {
        for (slot, fused) in [(0, true), (1, false)] {
            let start = Instant::now();
            let mut s_max_acc = 0.0_f64;
            for _ in 0..evals {
                let s_max = if fused {
                    solver.rhs_into(psi, &wind, &mut out)
                } else {
                    solver.rhs_reference_into(psi, &wind, &mut out)
                };
                s_max_acc += s_max;
            }
            let wall_secs = start.elapsed().as_secs_f64();
            assert!(s_max_acc > 0.0, "the timed kernel must do real work");
            best[slot] = best[slot].min(wall_secs);
        }
    }
    let small_tag = if small { " (small)" } else { "" };
    [
        StepTiming {
            label: format!("level_set_rhs{small_tag}::fused"),
            steps: evals,
            wall_secs: best[0],
        },
        StepTiming {
            label: format!("level_set_rhs{small_tag}::reference"),
            steps: evals,
            wall_secs: best[1],
        },
    ]
}

/// Times [`SimBatch`] against the same `n_fires` fig1-sized fires advanced
/// as independent [`Simulation`] loops distributed over the same worker
/// pool. The fires are ignition-displaced fig1 variants. Both sides run one
/// `run_until` per fire, work-stolen over the pool, so the pair measures
/// what the batch's bookkeeping costs (expected: nothing). `steps` counts
/// fire·steps, so `steps_per_sec` is the fires·steps/s throughput.
/// Interleaved best-of-three (batched, independent, …).
pub fn time_sim_batch(small: bool, t_end: f64, n_fires: usize, threads: usize) -> [StepTiming; 2] {
    let scenario = {
        let mut b = SimulationBuilder::from_scenario(
            registry::by_name("fig1-fireline").expect("registry scenario"),
        );
        if small {
            b = b.domain(DomainSpec::SMALL);
        }
        b.into_scenario()
    };
    let spec = PerturbationSpec::position_only(20.0, 1234);
    let build = || perturb::perturbed_simulations(&scenario, &spec, n_fires).expect("fires build");

    let mut best = [f64::INFINITY; 2];
    let mut steps = [0usize; 2];
    for _rep in 0..3 {
        // Batched: the fires as slots of one SimBatch.
        let mut batch = SimBatch::new(threads);
        for sim in build() {
            batch.push(sim);
        }
        let start = Instant::now();
        batch.advance_to(t_end).expect("batch advance");
        let wall = start.elapsed().as_secs_f64();
        steps[0] = batch.products().iter().map(|p| p.coupled_steps).sum();
        best[0] = best[0].min(wall);

        // Independent: the same fires, each through its own run_until loop,
        // work-stolen from the same pool.
        let mut sims: Vec<(Simulation, usize)> = build().into_iter().map(|s| (s, 0usize)).collect();
        let mut scratch = vec![(); threads.max(1)];
        let start = Instant::now();
        pool::parallel_for_each_dynamic_ws(&mut sims, &mut scratch, |_, slot, ()| {
            let mut n = 0usize;
            slot.0
                .run_until(t_end, |_, _| n += 1)
                .expect("independent run");
            slot.1 = n;
        });
        let wall = start.elapsed().as_secs_f64();
        steps[1] = sims.iter().map(|s| s.1).sum();
        best[1] = best[1].min(wall);
    }
    let small_tag = if small { " (small)" } else { "" };
    [
        StepTiming {
            label: format!("sim_batch{small_tag}::n{n_fires}::batched"),
            steps: steps[0],
            wall_secs: best[0],
        },
        StepTiming {
            label: format!("sim_batch{small_tag}::n{n_fires}::independent"),
            steps: steps[1],
            wall_secs: best[1],
        },
    ]
}

/// Times [`SimBatch`] against independent loops on the **service shape**:
/// many narrow-grid fires (a 13×13 fire mesh each, the forecast-service
/// request granularity) spread over a multi-worker pool, where per-item
/// scheduling cost is largest relative to the stepping; labels are
/// `sim_batch::service::…`. Interleaved best-of-three, same protocol as
/// [`time_sim_batch`].
pub fn time_sim_batch_service(t_end: f64, n_fires: usize, threads: usize) -> [StepTiming; 2] {
    let domain = DomainSpec {
        nx: 5,
        ny: 5,
        nz: 4,
        dx: 60.0,
        dy: 60.0,
        dz: 50.0,
        refinement: 3,
    };
    // Ignite explicitly: the builder's default circle is centered on the
    // PAPER domain, which lies outside this narrow one.
    let scenario = SimulationBuilder::new()
        .name("service-shape")
        .domain(domain)
        .ignite(wildfire_fire::IgnitionShape::Circle {
            center: domain.center(),
            radius: 30.0,
        })
        .into_scenario();
    let spec = PerturbationSpec::position_only(10.0, 1234);
    let build = || perturb::perturbed_simulations(&scenario, &spec, n_fires).expect("fires build");

    let mut best = [f64::INFINITY; 2];
    let mut steps = [0usize; 2];
    for _rep in 0..3 {
        let mut batch = SimBatch::new(threads);
        for sim in build() {
            batch.push(sim);
        }
        let start = Instant::now();
        batch.advance_to(t_end).expect("batch advance");
        let wall = start.elapsed().as_secs_f64();
        steps[0] = batch.products().iter().map(|p| p.coupled_steps).sum();
        best[0] = best[0].min(wall);

        let mut sims: Vec<(Simulation, usize)> = build().into_iter().map(|s| (s, 0usize)).collect();
        let mut scratch = vec![(); threads.max(1)];
        let start = Instant::now();
        pool::parallel_for_each_dynamic_ws(&mut sims, &mut scratch, |_, slot, ()| {
            let mut n = 0usize;
            slot.0
                .run_until(t_end, |_, _| n += 1)
                .expect("independent run");
            slot.1 = n;
        });
        let wall = start.elapsed().as_secs_f64();
        steps[1] = sims.iter().map(|s| s.1).sum();
        best[1] = best[1].min(wall);
    }
    [
        StepTiming {
            label: format!("sim_batch::service::n{n_fires}t{threads}::batched"),
            steps: steps[0],
            wall_secs: best[0],
        },
        StepTiming {
            label: format!("sim_batch::service::n{n_fires}t{threads}::independent"),
            steps: steps[1],
            wall_secs: best[1],
        },
    ]
}

/// Label of the reference-kernel entry every measurement carries (in
/// `BENCH_steps.json` and the committed `BENCH_baseline_small.json`).
pub const REFERENCE_LABEL: &str = "reference_kernel";

/// Times the fixed reference kernel the gate normalizes by: a mul/add/div
/// sweep over a 4 KiB f64 buffer, deliberately outside anything this repo
/// optimises, so its throughput tracks only the machine (hardware, CPU
/// scaling, toolchain codegen) and not the simulation code. Dividing every
/// scenario entry by this number before comparing against the baseline
/// cancels runner drift out of the gate's floor. `steps` counts sweeps;
/// best-of-three like the scenario timings.
pub fn time_reference_kernel() -> StepTiming {
    const N: usize = 512;
    const SWEEPS: usize = 300_000;
    // Deterministic operands in [0.5, 1.5]; the update map keeps them near
    // 1, so the arithmetic never denormalizes or overflows.
    let mut init = vec![0.0_f64; N];
    let mut s = 0x243f6a8885a308d3u64;
    for v in init.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = 0.5 + (s >> 11) as f64 / (1u64 << 53) as f64;
    }
    let mut best = f64::INFINITY;
    for _rep in 0..3 {
        let mut work = init.clone();
        let start = Instant::now();
        let mut acc = 0.0_f64;
        for sweep in 0..SWEEPS {
            let c = 1.0 + (sweep % 7) as f64 * 1e-6;
            for v in work.iter_mut() {
                *v = (*v * c + 1e-3) / (1.0 + *v * *v * 1e-3);
            }
            acc += work[sweep % N];
        }
        let wall_secs = start.elapsed().as_secs_f64();
        assert!(
            acc.is_finite() && acc > 0.0,
            "the reference kernel must run"
        );
        best = best.min(wall_secs);
    }
    StepTiming {
        label: REFERENCE_LABEL.to_string(),
        steps: SWEEPS,
        wall_secs: best,
    }
}

/// Wall time of one ensemble forecast–analysis cycle through the workspace
/// and the allocating path (in that order).
pub fn time_cycle(small: bool, n_members: usize, threads: usize) -> (f64, f64) {
    let domain = if small {
        DomainSpec::SMALL
    } else {
        DomainSpec::SMALL.with_refinement(8)
    };
    let model = SimulationBuilder::new()
        .domain(domain)
        .build_model()
        .expect("model builds");
    let driver = EnsembleDriver::new(model, threads);
    let setup = EnsembleSetup {
        n_members,
        center: (200.0, 200.0),
        radius: 25.0,
        position_spread: 15.0,
        seed: 42,
    };
    let truth = driver.model.ignite(
        &[wildfire_fire::IgnitionShape::Circle {
            center: (240.0, 240.0),
            radius: 25.0,
        }],
        0.0,
    );
    let cfg = wildfire_enkf::MorphingConfig::default();

    let mut members = driver.initial_ensemble(&setup);
    let mut rng = GaussianSampler::new(7);
    let mut ws = EnsembleWorkspace::new();
    // Warm the workspace so the measured cycle is the steady state.
    driver
        .cycle_ws(
            &mut members,
            &truth,
            FilterKind::Standard,
            1.0,
            0.5,
            &cfg,
            &mut rng,
            &mut ws,
        )
        .expect("warm cycle");
    let start = Instant::now();
    driver
        .cycle_ws(
            &mut members,
            &truth,
            FilterKind::Standard,
            2.0,
            0.5,
            &cfg,
            &mut rng,
            &mut ws,
        )
        .expect("workspace cycle");
    let ws_secs = start.elapsed().as_secs_f64();

    let mut members = driver.initial_ensemble(&setup);
    let mut rng = GaussianSampler::new(7);
    driver
        .cycle(
            &mut members,
            &truth,
            FilterKind::Standard,
            1.0,
            0.5,
            &cfg,
            &mut rng,
        )
        .expect("warm cycle");
    let start = Instant::now();
    driver
        .cycle(
            &mut members,
            &truth,
            FilterKind::Standard,
            2.0,
            0.5,
            &cfg,
            &mut rng,
        )
        .expect("alloc cycle");
    let alloc_secs = start.elapsed().as_secs_f64();
    (ws_secs, alloc_secs)
}

/// A complete perf measurement, serializable as `BENCH_steps.json`.
pub struct PerfMeasurement {
    /// Simulated seconds per timed run.
    pub t_end_secs: f64,
    /// Whether the SMALL domain was used.
    pub small_domain: bool,
    /// Ensemble members in the cycle timing.
    pub member_count: usize,
    /// Worker threads in the cycle timing.
    pub threads: usize,
    /// Per-scenario/path step timings.
    pub timings: Vec<StepTiming>,
    /// Ensemble cycle wall time, workspace path (s).
    pub cycle_ws_secs: f64,
    /// Ensemble cycle wall time, allocating path (s).
    pub cycle_alloc_secs: f64,
}

impl PerfMeasurement {
    /// Serializes in the `BENCH_steps.json` format.
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n  \"bench\": \"perf_report\",\n");
        json.push_str(&format!("  \"t_end_secs\": {},\n", self.t_end_secs));
        json.push_str(&format!("  \"small_domain\": {},\n", self.small_domain));
        json.push_str(&format!("  \"member_count\": {},\n", self.member_count));
        json.push_str(&format!("  \"threads\": {},\n", self.threads));
        json.push_str("  \"step_timings\": [\n");
        let entries: Vec<String> = self
            .timings
            .iter()
            .map(|t| {
                format!(
                    "    {{\"label\": \"{}\", \"steps\": {}, \"wall_secs\": {:.6}, \"steps_per_sec\": {:.2}}}",
                    t.label,
                    t.steps,
                    t.wall_secs,
                    t.steps_per_sec()
                )
            })
            .collect();
        json.push_str(&entries.join(",\n"));
        json.push_str("\n  ],\n");
        json.push_str(&format!(
            "  \"ensemble_cycle\": {{\"workspace_secs\": {:.6}, \"alloc_secs\": {:.6}}},\n",
            self.cycle_ws_secs, self.cycle_alloc_secs
        ));
        let ratio = self.fig1_workspace_over_alloc();
        json.push_str(&format!(
            "  \"fig1_workspace_over_alloc_throughput\": {ratio:.4}\n}}\n"
        ));
        json
    }

    /// Throughput ratio of the fig1 workspace entry over the allocating
    /// one, found by label (NaN when either is absent, e.g. under a
    /// `--filter` that excludes them).
    pub fn fig1_workspace_over_alloc(&self) -> f64 {
        let small_tag = if self.small_domain { " (small)" } else { "" };
        let sps = |path: &str| {
            let label = format!("fig1-fireline{small_tag}::{path}");
            self.timings
                .iter()
                .find(|t| t.label == label)
                .map(StepTiming::steps_per_sec)
        };
        match (sps("workspace"), sps("alloc")) {
            (Some(ws), Some(alloc)) => ws / alloc,
            _ => f64::NAN,
        }
    }
}

/// Runs the standard measurement: interleaved best-of-three over the
/// shift-free scenarios and both stepping paths, one per-solver CG entry
/// for fig1 (the default entries already run the default, multigrid, path),
/// the batched multi-fire scaling entries, and the ensemble cycle timing.
pub fn measure(t_end: f64, small: bool, n_members: usize, threads: usize) -> PerfMeasurement {
    measure_filtered(t_end, small, n_members, threads, None)
}

/// [`measure`] restricted to entries whose label starts with `filter`
/// (None runs everything). Sections that cannot produce a matching label
/// are skipped entirely, so local bench iteration (`--filter sim_batch`)
/// does not pay for the full suite; the ensemble-cycle timing only runs
/// unfiltered (it has no step-timing label to match).
pub fn measure_filtered(
    t_end: f64,
    small: bool,
    n_members: usize,
    threads: usize,
    filter: Option<&str>,
) -> PerfMeasurement {
    // A section with label prefix `p` runs when the filter and the prefix
    // agree on their common length (either may be the longer string).
    let sect = |p: &str| filter.is_none_or(|f| f.starts_with(p) || p.starts_with(f));
    // Untimed warmup: fault in the binary, spin up the CPU, and populate
    // the allocator before anything is measured. Skipped when the filter
    // rules out every scenario-stepping section.
    if [
        "fig1-fireline",
        "uncoupled-baseline",
        "sim_batch",
        "level_set_rhs",
    ]
    .iter()
    .any(|p| sect(p))
    {
        for workspace_path in [true, false] {
            let _ = time_scenario(
                "fig1-fireline",
                small,
                (t_end * 0.25).min(10.0),
                workspace_path,
                None,
            );
        }
    }
    let mut timings = Vec::new();
    for name in ["fig1-fireline", "uncoupled-baseline"] {
        if !sect(name) {
            continue;
        }
        // Interleaved best-of-three (workspace, alloc, workspace, alloc, …)
        // so neither path systematically benefits from running later with
        // warmer caches: the report tracks the achievable rate.
        let mut best: [Option<StepTiming>; 2] = [None, None];
        for _rep in 0..3 {
            for (slot, workspace_path) in [(0, true), (1, false)] {
                let t = time_scenario(name, small, t_end, workspace_path, None);
                if best[slot]
                    .as_ref()
                    .is_none_or(|b| t.wall_secs < b.wall_secs)
                {
                    best[slot] = Some(t);
                }
            }
        }
        for t in best.into_iter().flatten() {
            timings.push(t);
        }
    }
    // Per-solver trajectory entries: fig1 through the workspace path with
    // each solver forced, so the report records CG (the seed solver) and
    // multigrid side by side regardless of what `Auto` (the default
    // entries above) resolved to. Best-of-three, same protocol.
    if sect("fig1-fireline") {
        for solver in [PoissonSolver::ConjugateGradient, PoissonSolver::Multigrid] {
            let mut best_solver: Option<StepTiming> = None;
            for _rep in 0..3 {
                let t = time_scenario("fig1-fireline", small, t_end, true, Some(solver));
                if best_solver
                    .as_ref()
                    .is_none_or(|b| t.wall_secs < b.wall_secs)
                {
                    best_solver = Some(t);
                }
            }
            timings.extend(best_solver);
        }
    }

    // Opt-in speed-mode entries (ISSUE 6): fig1 through the workspace path
    // with fast-math pow, warm-started projection, and both together. The
    // default entries above stay bitwise; these record what the relaxed
    // modes buy. Best-of-three, same protocol.
    if sect("fig1-fireline") {
        for (fast_math, warm_start) in [(true, false), (false, true), (true, true)] {
            let mut best_mode: Option<StepTiming> = None;
            for _rep in 0..3 {
                let t = time_scenario_opts(
                    "fig1-fireline",
                    small,
                    t_end,
                    true,
                    None,
                    fast_math,
                    warm_start,
                );
                if best_mode.as_ref().is_none_or(|b| t.wall_secs < b.wall_secs) {
                    best_mode = Some(t);
                }
            }
            timings.extend(best_mode);
        }
    }

    // Fire-only kernel entries: the fused production RHS vs the scalar
    // reference it is bitwise-pinned to (interleaved best-of-three inside,
    // sharing one warmed scenario). `steps` counts RHS evaluations.
    if sect("level_set_rhs") {
        let rhs_evals = if small { 600 } else { 300 };
        timings.extend(time_level_set_rhs(small, rhs_evals));
    }

    // Isolated kernel entries for the ISSUE-6 hotspots: the spread-law
    // power kernel (bitwise libm vs polynomial fast path) and the multigrid
    // smoother (scalar vs color-contiguous packed layout).
    if sect("pow_kernel") {
        timings.extend(time_pow_kernel(2_000_000));
    }
    if sect("poisson_smoother") {
        timings.extend(time_poisson_smoother(small, 20_000));
    }

    // Batched multi-fire scaling (ISSUE 7): SimBatch vs independent loops
    // at N ∈ {1, 4, 16, 64} displaced fig1 fires. A shorter horizon
    // than the per-scenario entries keeps the N=64 sweep affordable on the
    // full domain.
    if sect("sim_batch") {
        let t_batch = if small { t_end } else { t_end.min(15.0) };
        for n_fires in [1usize, 4, 16, 64] {
            timings.extend(time_sim_batch(small, t_batch, n_fires, threads));
        }
        // Service shape (ISSUE 8): many narrow-grid fires on a multi-worker
        // pool — the forecast-service request granularity.
        for n_fires in [8usize, 32] {
            timings.extend(time_sim_batch_service(30.0, n_fires, 4));
        }
    }

    if let Some(f) = filter {
        timings.retain(|t| t.label.starts_with(f));
    }
    // The reference kernel rides along in every measurement — filtered or
    // not — because the gate divides each entry by it before comparing
    // against the baseline (see `gate_normalized`).
    timings.push(time_reference_kernel());
    let (cycle_ws_secs, cycle_alloc_secs) = if filter.is_none() {
        time_cycle(small, n_members, threads)
    } else {
        (0.0, 0.0)
    };
    PerfMeasurement {
        t_end_secs: t_end,
        small_domain: small,
        member_count: n_members,
        threads,
        timings,
        cycle_ws_secs,
        cycle_alloc_secs,
    }
}

/// Extracts `(label, steps_per_sec)` pairs from a `BENCH_steps.json`
/// document. A minimal scanner for the exact format [`PerfMeasurement`]
/// writes (no external JSON dependency in this offline workspace); unknown
/// or malformed entries are skipped rather than failing the gate.
pub fn parse_step_timings(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in json.split("{\"label\": \"").skip(1) {
        let Some(label_end) = chunk.find('"') else {
            continue;
        };
        let label = &chunk[..label_end];
        let Some(entry_end) = chunk.find('}') else {
            continue;
        };
        let entry = &chunk[..entry_end];
        let Some(sps_pos) = entry.find("\"steps_per_sec\": ") else {
            continue;
        };
        let value_str = entry[sps_pos + "\"steps_per_sec\": ".len()..].trim();
        if let Ok(v) = value_str.parse::<f64>() {
            out.push((label.to_string(), v));
        }
    }
    out
}

/// One per-label verdict from [`gate_normalized`].
#[derive(Debug)]
pub struct GateVerdict {
    /// Baseline entry label.
    pub label: String,
    /// Baseline steps/s (absolute, as committed).
    pub base_sps: f64,
    /// Fresh steps/s, or `None` when the fresh measurement lacks the label.
    pub new_sps: Option<f64>,
    /// Reference-normalized throughput ratio
    /// `(new / new_ref) / (base / base_ref)` — NaN when the label is
    /// missing from the fresh measurement.
    pub ratio: f64,
    /// Whether this entry clears the floor.
    pub pass: bool,
}

/// Compares a fresh measurement against the committed baseline with both
/// sides normalized by their own run's [`REFERENCE_LABEL`] entry: an entry
/// passes when `(new_sps / new_ref) / (base_sps / base_ref) >= floor`.
/// Because the reference kernel is fixed, committed code, a uniformly
/// slower (or faster) runner moves numerator and denominator together and
/// the floor only trips on regressions relative to the machine — runner
/// drift cancels. Labels not starting with `filter` (when given) are
/// skipped; a baseline label absent from the fresh measurement yields a
/// failing verdict with `new_sps: None`.
///
/// Returns `(drift, verdicts)` where `drift = new_ref / base_ref` is the
/// measured hardware-speed ratio, or an error when either side lacks the
/// reference entry (the baseline must be regenerated with
/// `--update-baseline` after this harness change).
pub fn gate_normalized(
    baseline: &[(String, f64)],
    fresh: &[(String, f64)],
    floor: f64,
    filter: Option<&str>,
) -> Result<(f64, Vec<GateVerdict>), String> {
    let find = |set: &[(String, f64)], l: &str| set.iter().find(|(k, _)| k == l).map(|&(_, v)| v);
    let base_ref = find(baseline, REFERENCE_LABEL).ok_or_else(|| {
        format!(
            "baseline lacks the \"{REFERENCE_LABEL}\" entry; regenerate it with --update-baseline"
        )
    })?;
    let new_ref = find(fresh, REFERENCE_LABEL)
        .ok_or_else(|| format!("fresh measurement lacks the \"{REFERENCE_LABEL}\" entry"))?;
    if base_ref <= 0.0 || new_ref <= 0.0 {
        return Err(format!(
            "non-positive \"{REFERENCE_LABEL}\" throughput (baseline {base_ref}, fresh {new_ref})"
        ));
    }
    let drift = new_ref / base_ref;
    let mut verdicts = Vec::new();
    for (label, base_sps) in baseline {
        if label == REFERENCE_LABEL {
            continue;
        }
        if let Some(f) = filter {
            if !label.starts_with(f) {
                continue;
            }
        }
        let new_sps = find(fresh, label);
        let ratio = match new_sps {
            Some(n) => (n / new_ref) / (base_sps / base_ref),
            None => f64::NAN,
        };
        verdicts.push(GateVerdict {
            label: label.clone(),
            base_sps: *base_sps,
            new_sps,
            ratio,
            pass: ratio >= floor,
        });
    }
    Ok((drift, verdicts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|&(l, v)| (l.to_string(), v)).collect()
    }

    #[test]
    fn gate_cancels_uniform_runner_drift() {
        // The fresh runner is uniformly 2× slower — absolute ratios would
        // read 0.5 and trip the 0.7 floor, but normalized they are 1.0.
        let baseline = entries(&[(REFERENCE_LABEL, 100.0), ("a::b", 1000.0), ("c::d", 50.0)]);
        let fresh = entries(&[(REFERENCE_LABEL, 50.0), ("a::b", 500.0), ("c::d", 25.0)]);
        let (drift, verdicts) = gate_normalized(&baseline, &fresh, 0.7, None).expect("gates");
        assert!((drift - 0.5).abs() < 1e-12);
        assert_eq!(verdicts.len(), 2);
        for v in &verdicts {
            assert!((v.ratio - 1.0).abs() < 1e-12, "{}: {}", v.label, v.ratio);
            assert!(v.pass);
        }
    }

    #[test]
    fn gate_still_trips_on_real_regressions() {
        // Same machine (reference unchanged), one entry halved: that is a
        // genuine regression and must fail the 0.7 floor.
        let baseline = entries(&[(REFERENCE_LABEL, 100.0), ("a::b", 1000.0), ("c::d", 50.0)]);
        let fresh = entries(&[(REFERENCE_LABEL, 100.0), ("a::b", 500.0), ("c::d", 50.0)]);
        let (drift, verdicts) = gate_normalized(&baseline, &fresh, 0.7, None).expect("gates");
        assert!((drift - 1.0).abs() < 1e-12);
        let a = verdicts.iter().find(|v| v.label == "a::b").expect("a::b");
        assert!(!a.pass);
        assert!((a.ratio - 0.5).abs() < 1e-12);
        let c = verdicts.iter().find(|v| v.label == "c::d").expect("c::d");
        assert!(c.pass);
    }

    #[test]
    fn gate_fails_missing_labels_and_respects_filter() {
        let baseline = entries(&[
            (REFERENCE_LABEL, 100.0),
            ("sim_batch::x", 10.0),
            ("pow_kernel::y", 20.0),
        ]);
        let fresh = entries(&[(REFERENCE_LABEL, 100.0)]);
        let (_, verdicts) =
            gate_normalized(&baseline, &fresh, 0.7, Some("sim_batch")).expect("gates");
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].label, "sim_batch::x");
        assert!(verdicts[0].new_sps.is_none());
        assert!(!verdicts[0].pass);
        assert!(verdicts[0].ratio.is_nan());
    }

    #[test]
    fn gate_requires_the_reference_entry() {
        let with_ref = entries(&[(REFERENCE_LABEL, 100.0), ("a::b", 10.0)]);
        let without_ref = entries(&[("a::b", 10.0)]);
        let err = gate_normalized(&without_ref, &with_ref, 0.7, None).unwrap_err();
        assert!(err.contains("--update-baseline"), "{err}");
        let err = gate_normalized(&with_ref, &without_ref, 0.7, None).unwrap_err();
        assert!(err.contains("fresh measurement"), "{err}");
    }

    #[test]
    fn reference_kernel_reports_throughput() {
        let t = time_reference_kernel();
        assert_eq!(t.label, REFERENCE_LABEL);
        assert!(t.steps_per_sec() > 0.0);
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let m = PerfMeasurement {
            t_end_secs: 10.0,
            small_domain: true,
            member_count: 6,
            threads: 4,
            timings: vec![
                StepTiming {
                    label: "fig1-fireline (small)::workspace".to_string(),
                    steps: 20,
                    wall_secs: 0.02,
                },
                StepTiming {
                    label: "fig1-fireline (small)::alloc".to_string(),
                    steps: 20,
                    wall_secs: 0.025,
                },
            ],
            cycle_ws_secs: 0.01,
            cycle_alloc_secs: 0.012,
        };
        let parsed = parse_step_timings(&m.to_json());
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "fig1-fireline (small)::workspace");
        assert!((parsed[0].1 - 1000.0).abs() < 0.01);
        assert!((parsed[1].1 - 800.0).abs() < 0.01);
    }

    #[test]
    fn parser_tolerates_the_committed_format() {
        let json = r#"{
  "bench": "perf_report",
  "step_timings": [
    {"label": "a::b", "steps": 120, "wall_secs": 0.147767, "steps_per_sec": 812.09},
    {"label": "c::d", "steps": 120, "wall_secs": 0.077637, "steps_per_sec": 1545.65}
  ]
}"#;
        let parsed = parse_step_timings(json);
        assert_eq!(
            parsed,
            vec![("a::b".to_string(), 812.09), ("c::d".to_string(), 1545.65)]
        );
    }

    #[test]
    fn parser_skips_malformed_entries() {
        let parsed = parse_step_timings("{\"label\": \"x\", \"steps_per_sec\": nope}");
        assert!(parsed.is_empty());
    }
}
