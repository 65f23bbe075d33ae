//! Steady-state zero-allocation guarantees of the workspace layer.
//!
//! A counting global allocator tallies allocations **per thread** (a
//! thread-local counter, so concurrently running tests cannot interfere).
//! Each test warms a workspace with one call — sizing every buffer — and
//! then asserts that the next call performs zero heap allocations: the
//! acceptance bar for the real-time stepping paths.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wildfire_atmos::AtmosWorkspace;
use wildfire_core::{CoupledModel, CoupledWorkspace};
use wildfire_enkf::{
    register_into, AnalysisWorkspace, DisplacementField, EnsembleKalmanFilter, RegistrationConfig,
    RegistrationWorkspace,
};
use wildfire_fire::{FireWorkspace, IgnitionShape};
use wildfire_grid::{Field2, VectorField2};
use wildfire_math::GaussianSampler;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates every operation to `System`; the bookkeeping is a
// per-thread counter with a const (non-allocating, non-dropping)
// initializer, so it is safe to touch from inside the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Number of heap allocations performed by `f` on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(|c| c.get());
    f();
    ALLOCATIONS.with(|c| c.get()) - before
}

fn small_atmos_grid() -> wildfire_atmos::state::AtmosGrid {
    wildfire_atmos::state::AtmosGrid {
        nx: 8,
        ny: 8,
        nz: 5,
        dx: 60.0,
        dy: 60.0,
        dz: 50.0,
    }
}

#[test]
fn level_set_step_is_allocation_free_after_warmup() {
    let grid = wildfire_grid::Grid2::new(41, 41, 2.0, 2.0).unwrap();
    let mesh = wildfire_fire::FireMesh::flat(grid, wildfire_fire::FuelCategory::ShortGrass);
    let solver = wildfire_fire::LevelSetSolver::new(mesh);
    let mut state = wildfire_fire::FireState::ignite(
        grid,
        &[IgnitionShape::Circle {
            center: (40.0, 40.0),
            radius: 10.0,
        }],
        0.0,
    );
    let wind = VectorField2::from_fn(grid, |_, _| (3.0, 1.0));
    let mut ws = FireWorkspace::new();
    solver.step_ws(&mut state, &wind, 0.5, &mut ws).unwrap();
    let n = allocations_during(|| {
        for _ in 0..5 {
            solver.step_ws(&mut state, &wind, 0.5, &mut ws).unwrap();
        }
    });
    assert_eq!(n, 0, "level-set step_ws must not allocate in steady state");
}

#[test]
fn fused_rhs_and_advance_are_allocation_free_after_warmup() {
    // The fused-kernel acceptance bar: the fused row-sweep RHS kernel (direct
    // rhs_into calls and the advance_to_ws driver built on it) must stay as
    // steady-state allocation-free as the per-node path it replaced, on
    // both a flat/uniform landscape (register-specialized kernel) and a
    // painted, terraced one (per-node palette + slope planes).
    let grid = wildfire_grid::Grid2::new(41, 41, 2.0, 2.0).unwrap();
    let mut fuel =
        wildfire_fire::FuelMap::uniform_category(grid, wildfire_fire::FuelCategory::TallGrass);
    let brush = fuel
        .add_fuel(wildfire_fire::FuelModel::for_category(
            wildfire_fire::FuelCategory::Brush,
        ))
        .unwrap();
    fuel.paint_rect(0.0, 0.0, 40.0, 80.0, brush).unwrap();
    let terraced = wildfire_fire::FireMesh::new(
        grid,
        fuel,
        Field2::from_world_fn(grid, |x, y| 0.02 * x - 0.01 * y),
    )
    .unwrap();
    let flat = wildfire_fire::FireMesh::flat(grid, wildfire_fire::FuelCategory::ShortGrass);
    for mesh in [flat, terraced] {
        let solver = wildfire_fire::LevelSetSolver::new(mesh);
        let mut state = wildfire_fire::FireState::ignite(
            grid,
            &[IgnitionShape::Circle {
                center: (40.0, 40.0),
                radius: 10.0,
            }],
            0.0,
        );
        let wind = VectorField2::from_fn(grid, |_, _| (3.0, 1.0));
        let mut ws = FireWorkspace::new();
        let mut rhs = Field2::default();
        solver.rhs_into(&state.psi, &wind, &mut rhs);
        solver
            .advance_to_ws(&mut state, &wind, 1.0, 0.5, &mut ws)
            .unwrap();
        let t_next = state.time + 2.0;
        let n = allocations_during(|| {
            for _ in 0..3 {
                solver.rhs_into(&state.psi, &wind, &mut rhs);
            }
            solver
                .advance_to_ws(&mut state, &wind, t_next, 0.5, &mut ws)
                .unwrap();
        });
        assert_eq!(
            n, 0,
            "fused rhs_into / advance_to_ws must not allocate in steady state"
        );
    }
}

#[test]
fn reinitialize_into_is_allocation_free_after_warmup() {
    // reinit.rs rode along with the fused kernels: the fast-sweeping
    // reinitialization gained an `_into` path whose distance/frozen scratch lives in a
    // ReinitWorkspace and whose sweeps iterate by index arithmetic (the old
    // implementation materialized traversal-order vectors per sweep).
    let grid = wildfire_grid::Grid2::new(41, 41, 1.5, 1.5).unwrap();
    let mut psi = wildfire_fire::ignition::initial_level_set(
        grid,
        &[IgnitionShape::Circle {
            center: (30.0, 30.0),
            radius: 12.0,
        }],
    );
    // Destroy the distance property so reinitialization has real work.
    psi.map_inplace(|v| v * (1.0 + 0.2 * v.abs()));
    let mut ws = wildfire_fire::ReinitWorkspace::new();
    let mut out = Field2::default();
    wildfire_fire::reinitialize_into(&psi, &mut out, &mut ws);
    let n = allocations_during(|| {
        for _ in 0..3 {
            wildfire_fire::reinitialize_into(&psi, &mut out, &mut ws);
        }
    });
    assert_eq!(n, 0, "reinitialize_into must not allocate in steady state");
}

#[test]
fn atmos_step_is_allocation_free_after_warmup() {
    // The first step builds the pressure solve's transform tables; every
    // later step reuses them.
    let model = wildfire_atmos::AtmosModel::new(small_atmos_grid(), Default::default()).unwrap();
    let h = model.grid.horizontal();
    let qs = Field2::from_fn(h, |i, j| if i == 4 && j == 4 { 40_000.0 } else { 0.0 });
    let ql = Field2::zeros(h);
    let mut state = model.initial_state();
    let mut ws = AtmosWorkspace::new();
    model.step_ws(&mut state, &qs, &ql, 0.5, &mut ws).unwrap();
    let n = allocations_during(|| {
        for _ in 0..5 {
            model.step_ws(&mut state, &qs, &ql, 0.5, &mut ws).unwrap();
        }
    });
    assert_eq!(n, 0, "atmos step_ws must not allocate in steady state");
}

#[test]
fn atmos_step_is_allocation_free_for_pressure_solvers() {
    // The projection's direct solve, warmed by one solve.
    use wildfire_atmos::poisson::solve_poisson_into;
    let g = small_atmos_grid();
    let rhs: Vec<f64> = (0..g.n_cells())
        .map(|c| ((c * 37 % 11) as f64 - 5.0) * 1e-3)
        .collect();
    let solver = wildfire_atmos::PoissonSolver::default();
    let mut ws = wildfire_atmos::PoissonWorkspace::default();
    let mut phi = Vec::new();
    solve_poisson_into(&g, &rhs, solver, 1e-8, 500, &mut ws, &mut phi).unwrap();
    let direct = allocations_during(|| {
        for _ in 0..5 {
            solve_poisson_into(&g, &rhs, solver, 1e-8, 500, &mut ws, &mut phi).unwrap();
        }
    });
    assert_eq!(
        direct, 0,
        "the pressure solve must not allocate in steady state"
    );
}

#[test]
fn coupled_step_is_allocation_free_after_warmup() {
    for coupled in [true, false] {
        let mut model = CoupledModel::new(
            small_atmos_grid(),
            Default::default(),
            wildfire_fire::FuelCategory::ShortGrass,
            5,
        )
        .unwrap();
        model.coupled = coupled;
        let (ex, ey) = model.fire_grid.extent();
        let mut state = model.ignite(
            &[IgnitionShape::Circle {
                center: (ex / 2.0, ey / 2.0),
                radius: 20.0,
            }],
            0.0,
        );
        let mut ws = CoupledWorkspace::new();
        model.step_ws(&mut state, 0.5, &mut ws).unwrap();
        let n = allocations_during(|| {
            for _ in 0..4 {
                model.step_ws(&mut state, 0.5, &mut ws).unwrap();
            }
        });
        assert_eq!(
            n, 0,
            "coupled step_ws (coupled = {coupled}) must not allocate in steady state"
        );
    }
}

#[test]
fn standard_enkf_analysis_is_allocation_free_after_warmup() {
    let mut rng = GaussianSampler::new(42);
    let n_state = 200;
    let m_obs = 30;
    let n_ens = 16;
    let mut x = rng.normal_matrix(n_state, n_ens, 1.0);
    let y = x.submatrix(0, m_obs, 0, n_ens);
    let data = vec![0.5; m_obs];
    let obs_var = vec![0.3; m_obs];
    let filter = EnsembleKalmanFilter::default();
    let mut ws = AnalysisWorkspace::new();
    filter
        .analyze_ws(&mut x, &y, &data, &obs_var, &mut rng, &mut ws)
        .unwrap();
    let n = allocations_during(|| {
        for _ in 0..3 {
            filter
                .analyze_ws(&mut x, &y, &data, &obs_var, &mut rng, &mut ws)
                .unwrap();
        }
    });
    assert_eq!(n, 0, "EnKF analyze_ws must not allocate in steady state");
}

#[test]
fn etkf_analysis_is_allocation_free_after_warmup() {
    // The ETKF bar: the deterministic filter's N×N
    // eigendecomposition (the last allocating piece of the analysis) now
    // factors into workspace scratch, so the whole ETKF analysis is
    // steady-state allocation-free. N = 25 matches the paper's ensemble
    // size and exceeds the stable-sort allocation threshold (20), which is
    // why the eigenvalue sort must be the unstable (buffer-free) one.
    let mut rng = GaussianSampler::new(42);
    let n_state = 200;
    let m_obs = 30;
    let n_ens = 25;
    let mut x = rng.normal_matrix(n_state, n_ens, 1.0);
    let y = x.submatrix(0, m_obs, 0, n_ens);
    let data = vec![0.5; m_obs];
    let obs_var = vec![0.3; m_obs];
    let filter = wildfire_enkf::Etkf::new(1.05);
    let mut ws = AnalysisWorkspace::new();
    filter
        .analyze_ws(&mut x, &y, &data, &obs_var, &mut ws)
        .unwrap();
    let n = allocations_during(|| {
        for _ in 0..3 {
            filter
                .analyze_ws(&mut x, &y, &data, &obs_var, &mut ws)
                .unwrap();
        }
    });
    assert_eq!(n, 0, "ETKF analyze_ws must not allocate in steady state");
}

#[test]
fn morphing_analysis_registration_is_allocation_free_after_warmup() {
    // The registration bar: registration — the expensive transform
    // phase of a morphing-EnKF analysis step, and previously the last hot
    // allocating piece of the assimilation cycle — now draws its reference
    // gradient fields and per-level descent buffers from the
    // `RegistrationWorkspace` scratch pyramid. A warm `register_into`
    // (warm workspace + warm output displacement) must not touch the heap,
    // including when the registered fields change between calls, as they
    // do every cycle.
    let g = wildfire_grid::Grid2::new(41, 41, 2.0, 2.0).unwrap();
    let cone = |cx: f64, cy: f64| {
        Field2::from_world_fn(g, |x, y| {
            ((x - cx).powi(2) + (y - cy).powi(2)).sqrt() - 14.0
        })
    };
    let u0 = cone(40.0, 40.0);
    let members = [cone(52.0, 34.0), cone(30.0, 46.0), cone(44.0, 44.0)];
    let cfg = RegistrationConfig {
        max_shift: 30.0,
        levels: vec![3, 5],
        iterations: 20,
        ..Default::default()
    };
    let mut ws = RegistrationWorkspace::new();
    let mut out = DisplacementField::zero(g, 2);
    register_into(&members[0], &u0, &cfg, &mut ws, &mut out).unwrap();
    let n = allocations_during(|| {
        for u in &members {
            register_into(u, &u0, &cfg, &mut ws, &mut out).unwrap();
        }
    });
    assert_eq!(n, 0, "register_into must not allocate in steady state");
}

#[test]
fn morphing_cycle_is_allocation_free_after_warmup() {
    // The ψ-cycle bar: a whole morphing analysis through the driver — field
    // slots, registrations, extended states packed into the shared
    // ensemble matrix, the inner EnKF, and the morph straight back into the
    // members' ψ and t_i — draws every buffer from the EnsembleWorkspace.
    // A warm call on one thread must not touch the heap, although the
    // members it analyses changed in the call before.
    let model = CoupledModel::new(
        small_atmos_grid(),
        Default::default(),
        wildfire_fire::FuelCategory::ShortGrass,
        5,
    )
    .unwrap();
    let ignite = |cx: f64, cy: f64| {
        model.ignite(
            &[IgnitionShape::Circle {
                center: (cx, cy),
                radius: 30.0,
            }],
            0.0,
        )
    };
    let mut members: Vec<_> = (0..5)
        .map(|k| ignite(150.0 + 12.0 * k as f64, 200.0 - 8.0 * k as f64))
        .collect();
    let truth = ignite(230.0, 230.0);
    let psi_op = wildfire_obs::StridedPsi::new(model.fire_grid, 1, 1.0);
    let mut psi_data = Vec::new();
    psi_op
        .measure_truth_into(&truth.fire, &mut psi_data)
        .unwrap();
    let mut pool = wildfire_obs::ObsSet::new();
    pool.push(&psi_op, &psi_data).unwrap();
    let config = wildfire_enkf::MorphingConfig {
        registration: RegistrationConfig {
            max_shift: 120.0,
            levels: vec![3, 5],
            iterations: 10,
            ..Default::default()
        },
        sigma_amplitude: 2.0,
        sigma_displacement: 4.0,
        ..Default::default()
    };
    let driver = wildfire_ensemble::driver::EnsembleDriver::new(model.clone(), 1);
    let mut ws = wildfire_ensemble::driver::EnsembleWorkspace::new();
    let mut rng = GaussianSampler::new(7);
    driver
        .analyze_obs_morphing_ws(&mut members, &pool, &config, &mut rng, &mut ws)
        .unwrap();
    let n = allocations_during(|| {
        driver
            .analyze_obs_morphing_ws(&mut members, &pool, &config, &mut rng, &mut ws)
            .unwrap();
    });
    assert_eq!(n, 0, "a warm morphing analysis must not allocate");
}

#[test]
fn obs_set_packing_is_allocation_free_after_warmup() {
    // The acceptance bar for the observation pipeline: packing a
    // heterogeneous pool (strided ψ + a station network) into (y, H(X), R)
    // through one ObsWorkspace performs no steady-state heap allocation.
    let model = CoupledModel::new(
        small_atmos_grid(),
        Default::default(),
        wildfire_fire::FuelCategory::ShortGrass,
        5,
    )
    .unwrap();
    let members: Vec<_> = (0..6)
        .map(|k| {
            model.ignite(
                &[IgnitionShape::Circle {
                    center: (180.0 + 15.0 * k as f64, 220.0),
                    radius: 20.0,
                }],
                0.0,
            )
        })
        .collect();
    let psi_op = wildfire_obs::StridedPsi::new(model.fire_grid, 7, 1.0);
    let st_op = wildfire_obs::StationTemperatures::new(
        vec![
            wildfire_obs::WeatherStation::new("A", 120.0, 120.0),
            wildfire_obs::WeatherStation::new("B", 330.0, 120.0),
            wildfire_obs::WeatherStation::new("C", 120.0, 330.0),
            wildfire_obs::WeatherStation::new("D", 330.0, 330.0),
        ],
        300.0,
        1.0,
    );
    let psi_data = vec![0.0; wildfire_obs::ObservationOperator::dim(&psi_op)];
    let st_data = vec![300.0; 4];
    let mut pool = wildfire_obs::ObsSet::new();
    pool.push(&psi_op, &psi_data).unwrap();
    pool.push(&st_op, &st_data).unwrap();

    let mut ws = wildfire_obs::ObsWorkspace::new();
    pool.pack_into(&members, &mut ws).unwrap();
    let n = allocations_during(|| {
        for _ in 0..3 {
            pool.pack_into(&members, &mut ws).unwrap();
        }
    });
    assert_eq!(n, 0, "ObsSet::pack_into must not allocate in steady state");
}

#[test]
fn imagery_packing_is_allocation_free_after_warmup() {
    // The imagery bar: the synthetic-image operator now renders
    // through the ObsScratch (wind transfer, ground temperature, flame
    // voxels, reflection sources, and the image itself all live in reusable
    // buffers), so packing a pool that includes a thermal-imagery stream is
    // as steady-state allocation-free as the grid/station streams.
    let model = CoupledModel::new(
        small_atmos_grid(),
        Default::default(),
        wildfire_fire::FuelCategory::ShortGrass,
        5,
    )
    .unwrap();
    let members: Vec<_> = (0..4)
        .map(|k| {
            model.ignite(
                &[IgnitionShape::Circle {
                    center: (180.0 + 15.0 * k as f64, 220.0),
                    radius: 20.0,
                }],
                0.0,
            )
        })
        .collect();
    let img_op = wildfire_obs::ImagePixels::over_fire_domain(model.clone(), 3000.0, 12, 0.5);
    let psi_op = wildfire_obs::StridedPsi::new(model.fire_grid, 7, 1.0);
    let img_data = vec![0.0; wildfire_obs::ObservationOperator::dim(&img_op)];
    let psi_data = vec![0.0; wildfire_obs::ObservationOperator::dim(&psi_op)];
    let mut pool = wildfire_obs::ObsSet::new();
    pool.push(&img_op, &img_data).unwrap();
    pool.push(&psi_op, &psi_data).unwrap();

    let mut ws = wildfire_obs::ObsWorkspace::new();
    pool.pack_into(&members, &mut ws).unwrap();
    let n = allocations_during(|| {
        for _ in 0..2 {
            pool.pack_into(&members, &mut ws).unwrap();
        }
    });
    assert_eq!(
        n, 0,
        "ObsSet::pack_into with an imagery stream must not allocate in steady state"
    );
}

#[test]
fn workspace_buffers_are_reused_not_reallocated_across_sizes() {
    // Shrinking re-targets the same storage: stepping a smaller domain
    // through a workspace warmed on a larger one performs no allocation.
    let big = wildfire_grid::Grid2::new(61, 61, 2.0, 2.0).unwrap();
    let small = wildfire_grid::Grid2::new(31, 31, 2.0, 2.0).unwrap();
    let mk = |g| {
        let mesh = wildfire_fire::FireMesh::flat(g, wildfire_fire::FuelCategory::ShortGrass);
        wildfire_fire::LevelSetSolver::new(mesh)
    };
    let ignite = |g: wildfire_grid::Grid2| {
        let (ex, ey) = g.extent();
        wildfire_fire::FireState::ignite(
            g,
            &[IgnitionShape::Circle {
                center: (ex / 2.0, ey / 2.0),
                radius: 8.0,
            }],
            0.0,
        )
    };
    let (solver_big, solver_small) = (mk(big), mk(small));
    let mut state_big = ignite(big);
    let mut state_small = ignite(small);
    let wind_big = VectorField2::from_fn(big, |_, _| (3.0, 0.0));
    let wind_small = VectorField2::from_fn(small, |_, _| (3.0, 0.0));
    let mut ws = FireWorkspace::new();
    solver_big
        .step_ws(&mut state_big, &wind_big, 0.5, &mut ws)
        .unwrap();
    let n = allocations_during(|| {
        solver_small
            .step_ws(&mut state_small, &wind_small, 0.5, &mut ws)
            .unwrap();
        solver_big
            .step_ws(&mut state_big, &wind_big, 0.5, &mut ws)
            .unwrap();
    });
    assert_eq!(
        n, 0,
        "switching to a smaller grid and back must reuse the workspace storage"
    );
}

#[test]
fn sim_batch_advance_is_allocation_free_after_warmup() {
    // A batch advance is N independent `run_until` loops over the slots'
    // own workspaces; at `threads = 1` the pool runs inline, so once the
    // first advance has sized every workspace, further advances must not
    // touch the heap (no per-advance scheduling vectors).
    use wildfire_sim::{DomainSpec, SimBatch, SimulationBuilder};
    let mut batch = SimBatch::new(1);
    let center = DomainSpec::SMALL.center();
    for k in 0..3 {
        let sim = SimulationBuilder::new()
            .domain(DomainSpec::SMALL)
            .ignite(IgnitionShape::Circle {
                center: (center.0 + 12.0 * k as f64, center.1),
                radius: 20.0,
            })
            .build()
            .unwrap();
        batch.push(sim);
    }
    batch.advance_to(1.0).unwrap();
    let n = allocations_during(|| {
        batch.advance_to(2.0).unwrap();
        batch.advance_to(3.0).unwrap();
    });
    assert_eq!(
        n, 0,
        "SimBatch::advance_to must not allocate in steady state"
    );
}
