//! Criterion bench for the batched multi-fire layer: `SimBatch` against
//! the same fires run as independent `Simulation` loops work-stolen from
//! an identical pool (the pair measures the batch's bookkeeping cost).
//!
//! The perf harness (`perf_report`/`perf_gate`) records the same comparison
//! under the `sim_batch::…` labels; this bench gives the criterion view
//! (confidence intervals, history) for local tuning.

use criterion::{criterion_group, criterion_main, Criterion};
use wildfire_ensemble::pool;
use wildfire_sim::batch::SimBatch;
use wildfire_sim::{
    perturb, registry, DomainSpec, PerturbationSpec, Scenario, Simulation, SimulationBuilder,
};

const T_END: f64 = 10.0;
const THREADS: usize = 4;

fn small_scenario() -> Scenario {
    SimulationBuilder::from_scenario(registry::by_name("fig1-fireline").expect("registry scenario"))
        .domain(DomainSpec::SMALL)
        .into_scenario()
}

fn fires(scenario: &Scenario, n: usize) -> Vec<Simulation> {
    let spec = PerturbationSpec::position_only(20.0, 1234);
    perturb::perturbed_simulations(scenario, &spec, n).expect("fires build")
}

fn bench(c: &mut Criterion) {
    let scenario = small_scenario();
    let mut group = c.benchmark_group("sim_batch");
    group.sample_size(10);
    for n in [4usize, 16] {
        group.bench_function(format!("batched_n{n}"), |b| {
            b.iter(|| {
                let mut batch = SimBatch::new(THREADS);
                for sim in fires(&scenario, n) {
                    batch.push(sim);
                }
                batch.advance_to(T_END).expect("batch advance");
                batch
                    .products()
                    .iter()
                    .map(|p| p.coupled_steps)
                    .sum::<usize>()
            })
        });
        group.bench_function(format!("independent_n{n}"), |b| {
            b.iter(|| {
                let mut sims: Vec<(Simulation, usize)> = fires(&scenario, n)
                    .into_iter()
                    .map(|s| (s, 0usize))
                    .collect();
                let mut scratch = vec![(); THREADS];
                pool::parallel_for_each_dynamic_ws(&mut sims, &mut scratch, |_, slot, ()| {
                    let mut steps = 0usize;
                    slot.0
                        .run_until(T_END, |_, _| steps += 1)
                        .expect("independent run");
                    slot.1 = steps;
                });
                sims.iter().map(|s| s.1).sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
