//! Integration pins for the forecast service: concurrent requests, a live
//! channel-fed observation stream steering one of them, products delivered
//! for all, graceful shutdown draining queued work, no leaked thread — and,
//! since requests run to completion on a worker each, failure isolation,
//! crowd-independent products for streamed requests, and FIFO order.

use wildfire_obs::{ChannelSource, ObsReport, ObservationOperator, StridedPsi};
use wildfire_service::{
    ForecastEvent, ForecastRequest, ForecastService, ServiceConfig, ServiceError,
};
use wildfire_sim::{DomainSpec, Scenario, SimulationBuilder};

/// A deliberately tiny domain (13×13 fire mesh over a 5×5×4 atmosphere)
/// so the service loop runs many ticks quickly in debug builds.
const TINY: DomainSpec = DomainSpec {
    nx: 5,
    ny: 5,
    nz: 4,
    dx: 60.0,
    dy: 60.0,
    dz: 50.0,
    refinement: 3,
};

fn tiny_scenario(name: &str) -> Scenario {
    // Ignite explicitly: the builder's default circle is centered on the
    // PAPER domain, which lies outside this tiny one.
    SimulationBuilder::new()
        .name(name)
        .domain(TINY)
        .ignite(wildfire_fire::IgnitionShape::Circle {
            center: TINY.center(),
            radius: 30.0,
        })
        .into_scenario()
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        threads: 2,
        tick: 1.0,
    }
}

#[test]
fn concurrent_requests_with_live_stream_deliver_products_and_shut_down() {
    // Offline truth run: the exact scenario the streamed request
    // forecasts, sampled by a strided-ψ operator at two report times.
    let scenario = tiny_scenario("service-truth");
    let psi_op = StridedPsi::new(scenario.model().expect("model").fire_grid, 3, 0.5);
    let mut truth = scenario.build().expect("truth sim");
    let mut reports = Vec::new();
    for t_obs in [1.0, 2.0] {
        truth.run_until(t_obs, |_, _| {}).expect("truth run");
        reports.push(ObsReport {
            time: t_obs,
            stream: 0,
            data: psi_op.observe(&truth.state).expect("truth obs"),
        });
    }

    let service = ForecastService::start(service_config());

    // Request A: a 2-member ensemble steered by a channel-fed stream. The
    // producer thread feeds both reports (times before the first horizon)
    // and is joined before submission, so assimilation counts are
    // deterministic — the channel still crosses a real thread boundary.
    let (obs_tx, obs_source) = ChannelSource::channel();
    let feeder = std::thread::spawn(move || {
        for r in reports {
            obs_tx.send(r).expect("receiver is alive in the request");
        }
        // Dropping the sender disconnects the stream; the forecast
        // continues to its horizons regardless.
    });
    feeder.join().expect("feeder exits");
    let streamed = ForecastRequest {
        scenario: tiny_scenario("streamed"),
        n_members: 4,
        position_spread: 10.0,
        seed: 7,
        horizons: vec![2.0, 4.0],
        operators: vec![Box::new(psi_op)],
        source: Some(Box::new(obs_source)),
        filter: Default::default(),
    };
    let handle_a = service.submit(streamed).expect("submit streamed");

    // Request B: a free-running single-member forecast, concurrent with A.
    let handle_b = service
        .submit(ForecastRequest::free_run(tiny_scenario("free"), vec![3.0]))
        .expect("submit free");

    // Request C: late admission into the running batch.
    std::thread::sleep(std::time::Duration::from_millis(10));
    let handle_c = service
        .submit(ForecastRequest::free_run(tiny_scenario("late"), vec![2.0]))
        .expect("submit late");

    let products_a = handle_a.wait().expect("streamed request succeeds");
    let products_b = handle_b.wait().expect("free request succeeds");
    let products_c = handle_c.wait().expect("late request succeeds");

    assert_eq!(products_a.len(), 2, "one product per horizon");
    assert_eq!(products_b.len(), 1);
    assert_eq!(products_c.len(), 1);
    assert!(
        products_a.windows(2).all(|w| w[0].horizon < w[1].horizon),
        "products arrive in horizon order"
    );
    for p in products_a.iter().chain(&products_b).chain(&products_c) {
        assert!(p.time >= p.horizon - 1e-9, "product at/after its horizon");
        assert!(p.mean_burned_area > 0.0, "fires actually burned");
        assert!(p.mean_perimeter_length > 0.0);
    }
    assert_eq!(products_a[1].members, 4);
    // The live stream was really assimilated: both reports, in at least
    // one analysis, all visible by the final product.
    assert_eq!(products_a[1].reports_assimilated, 2);
    assert!(products_a[1].analyses >= 1);
    // Free runs never assimilate.
    assert_eq!(products_b[0].reports_assimilated, 0);

    // Clean shutdown: joins the service thread; afterwards the service is
    // gone, so nothing can leak.
    service.shutdown();
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let service = ForecastService::start(service_config());
    let handle = service
        .submit(ForecastRequest::free_run(
            tiny_scenario("draining"),
            vec![1.0, 2.0],
        ))
        .expect("submit");
    // Shut down immediately: the request must still deliver everything.
    service.shutdown();
    let products = handle.wait().expect("drained request still completes");
    assert_eq!(products.len(), 2);
}

#[test]
fn submissions_after_shutdown_are_refused() {
    let service = ForecastService::start(service_config());
    let sacrificial = ForecastService::start(service_config());
    sacrificial.shutdown();
    // The still-running service accepts…
    let h = service
        .submit(ForecastRequest::free_run(tiny_scenario("ok"), vec![1.0]))
        .expect("submit");
    assert!(h.wait().is_ok());
    service.shutdown();
    // …but a stopped one refuses. (`submit` needs a live service value;
    // after `shutdown(self)` the facade is consumed, which is the API-level
    // guarantee. Structural rejections are checked on a fresh service.)
    let strict = ForecastService::start(service_config());
    let no_members = ForecastRequest {
        n_members: 0,
        ..ForecastRequest::free_run(tiny_scenario("bad"), vec![1.0])
    };
    assert_eq!(
        strict.submit(no_members).unwrap_err(),
        ServiceError::Rejected("n_members must be at least 1")
    );
    let no_horizons = ForecastRequest::free_run(tiny_scenario("bad"), vec![]);
    assert_eq!(
        strict.submit(no_horizons).unwrap_err(),
        ServiceError::Rejected("at least one horizon is required")
    );
    strict.shutdown();
}

#[test]
fn handle_events_stream_products_then_terminal() {
    let service = ForecastService::start(service_config());
    let handle = service
        .submit(ForecastRequest::free_run(
            tiny_scenario("events"),
            vec![1.0],
        ))
        .expect("submit");
    let mut saw_product = false;
    loop {
        match handle.next_event() {
            Some(ForecastEvent::Product(p)) => {
                assert_eq!(p.request, handle.id());
                saw_product = true;
            }
            Some(ForecastEvent::Finished { request }) => {
                assert_eq!(request, handle.id());
                break;
            }
            Some(ForecastEvent::Failed { error, .. }) => panic!("unexpected failure: {error}"),
            None => panic!("channel closed before terminal event"),
        }
    }
    assert!(saw_product);
    service.shutdown();
}

#[test]
fn product_is_independent_of_the_rest_of_the_batch() {
    // A request's products aggregate its own member slots only: the same
    // request served alone and served from the middle of a 50-request
    // batch must emit the same products, field for field. Tick and
    // horizons are multiples of the scenario dt, so the member step
    // sequence does not depend on when the other requests were admitted.
    let probe = || ForecastRequest {
        n_members: 3,
        position_spread: 8.0,
        seed: 11,
        ..ForecastRequest::free_run(tiny_scenario("probe"), vec![1.0, 2.0])
    };
    let solo_service = ForecastService::start(service_config());
    let solo = solo_service.submit(probe()).expect("submit").wait();
    solo_service.shutdown();
    let solo = solo.expect("solo request succeeds");

    let crowd_service = ForecastService::start(service_config());
    let mut others = Vec::new();
    let mut crowded = None;
    for k in 0..50u64 {
        if k == 25 {
            crowded = Some(crowd_service.submit(probe()).expect("submit"));
            continue;
        }
        let filler = ForecastRequest {
            seed: k,
            position_spread: 12.0,
            ..ForecastRequest::free_run(tiny_scenario("filler"), vec![2.0])
        };
        others.push(crowd_service.submit(filler).expect("submit"));
    }
    let crowded = crowded.expect("probe submitted").wait();
    for h in others {
        h.wait().expect("filler request succeeds");
    }
    crowd_service.shutdown();
    let crowded = crowded.expect("crowded request succeeds");

    assert_eq!(solo.len(), 2);
    assert_eq!(crowded.len(), 2);
    for (s, c) in solo.iter().zip(&crowded) {
        let c = wildfire_service::ForecastProduct {
            request: s.request,
            ..c.clone()
        };
        assert_eq!(*s, c);
    }
}

// --- request = work item: isolation, determinism, order ---------------------

use wildfire_obs::ObsScratch;
use wildfire_service::{AnalysisFilter, ForecastProduct};
use wildfire_sim::perturb::perturbed_simulations;
use wildfire_sim::PerturbationSpec;

/// Two noisy-free ψ reports (t = 1, 2 s) from a truth run of `scenario`,
/// and the operator that made them.
fn truth_reports(scenario: &Scenario) -> (StridedPsi, Vec<ObsReport>) {
    let op = StridedPsi::new(scenario.model().expect("model").fire_grid, 3, 0.5);
    let mut truth = scenario.build().expect("truth sim");
    let reports = [1.0, 2.0]
        .into_iter()
        .map(|time| {
            truth.run_until(time, |_, _| {}).expect("truth run");
            ObsReport {
                time,
                stream: 0,
                data: op.observe(&truth.state).expect("truth obs"),
            }
        })
        .collect();
    (op, reports)
}

/// A 3-member streamed request over `scenario` whose reports are all in
/// the channel (and the sender dropped) before submission.
fn streamed(
    scenario: Scenario,
    filter: AnalysisFilter,
    operator: Box<dyn ObservationOperator>,
    reports: &[ObsReport],
) -> ForecastRequest {
    let (obs_tx, source) = ChannelSource::channel();
    for r in reports {
        obs_tx.send(r.clone()).expect("source holds the receiver");
    }
    ForecastRequest {
        scenario,
        n_members: 3,
        position_spread: 8.0,
        seed: 21,
        horizons: vec![1.5, 3.0],
        operators: vec![operator],
        source: Some(Box::new(source)),
        filter,
    }
}

/// The probes of the determinism and isolation tests: a free run, and
/// Standard / Etkf streamed requests (rebuilt per call — a request owns
/// its source).
fn healthy_requests() -> Vec<ForecastRequest> {
    let scenario = tiny_scenario("probe");
    let (op, reports) = truth_reports(&scenario);
    let free = |seed| ForecastRequest {
        n_members: 3,
        position_spread: 8.0,
        seed,
        ..ForecastRequest::free_run(tiny_scenario("probe-free"), vec![1.2, 2.0])
    };
    let standard = AnalysisFilter::Standard { inflation: 1.02 };
    let etkf = AnalysisFilter::Etkf { inflation: 1.0 };
    vec![
        free(3),
        streamed(scenario.clone(), standard, Box::new(op.clone()), &reports),
        streamed(scenario.clone(), etkf, Box::new(op.clone()), &reports),
        free(4),
        streamed(
            scenario.clone(),
            standard,
            Box::new(op.clone()),
            &reports[..1],
        ),
        streamed(scenario, etkf, Box::new(op), &reports[1..]),
    ]
}

/// Tick off the scenario dt (0.5 s), so a clock shared between requests
/// would show in every step sequence.
fn off_phase_config() -> ServiceConfig {
    ServiceConfig {
        threads: 2,
        tick: 0.7,
    }
}

fn alone(req: ForecastRequest) -> Vec<ForecastProduct> {
    let service = ForecastService::start(off_phase_config());
    let products = service.submit(req).expect("submit").wait();
    service.shutdown();
    products.expect("request served alone succeeds")
}

/// Field-for-field equality up to the service-assigned request id.
fn assert_same_products(alone: &[ForecastProduct], crowded: &[ForecastProduct]) {
    assert_eq!(alone.len(), crowded.len());
    for (a, c) in alone.iter().zip(crowded) {
        let c = ForecastProduct {
            request: a.request,
            ..c.clone()
        };
        assert_eq!(*a, c);
    }
}

/// Filler `k` of a crowd: free runs on two domains with horizons that are
/// multiples of neither the tick nor each other.
fn filler(k: u64) -> ForecastRequest {
    let mut scenario = tiny_scenario("filler");
    if k.is_multiple_of(3) {
        scenario.domain.nx += 1;
        scenario.domain.refinement = 2;
    }
    ForecastRequest {
        seed: k,
        position_spread: 12.0,
        ..ForecastRequest::free_run(scenario, vec![0.3 + 0.4 * (k % 5) as f64])
    }
}

#[test]
fn streamed_products_are_independent_of_the_crowd() {
    let solo: Vec<Vec<ForecastProduct>> = healthy_requests().into_iter().map(alone).collect();

    let service = ForecastService::start(off_phase_config());
    let mut probes = healthy_requests().into_iter();
    let mut crowded = Vec::new();
    let mut others = Vec::new();
    for k in 0..50u64 {
        // Probes sit in the middle of the crowd, fillers between them.
        if (20..32).contains(&k) && k.is_multiple_of(2) {
            let probe = probes.next().expect("six probes");
            crowded.push(service.submit(probe).expect("submit"));
        } else {
            others.push(service.submit(filler(k)).expect("submit"));
        }
    }
    assert!(probes.next().is_none(), "every probe was submitted");
    let crowded: Vec<_> = crowded
        .into_iter()
        .map(|h| h.wait().expect("probe"))
        .collect();
    for h in others {
        h.wait().expect("filler request succeeds");
    }
    service.shutdown();

    for (s, c) in solo.iter().zip(&crowded) {
        assert_same_products(s, c);
    }
    // The streamed probes really assimilated (counts are part of the
    // products compared above): both reports, one, one.
    let assimilated: Vec<usize> = crowded
        .iter()
        .map(|p| p.last().expect("products").reports_assimilated)
        .collect();
    assert_eq!(assimilated, [0, 2, 2, 0, 1, 1]);

    // A free run's products are `Simulation::run_until(horizon)` of its
    // members, exactly — the tick (0.7 s here) plays no part.
    let free = &healthy_requests()[0];
    let spec = PerturbationSpec::position_only(free.position_spread, free.seed);
    let mut members =
        perturbed_simulations(&free.scenario, &spec, free.n_members).expect("members");
    for (product, &horizon) in solo[0].iter().zip(&free.horizons) {
        let mut burned = 0.0;
        for m in &mut members {
            m.run_until(horizon, |_, _| {}).expect("direct run");
            burned += m.state.fire.burned_area();
        }
        assert_eq!(product.time.to_bits(), members[0].time().to_bits());
        assert_eq!(
            product.mean_burned_area.to_bits(),
            (burned / members.len() as f64).to_bits()
        );
    }
}

/// An operator that observes like its inner [`StridedPsi`] until asked to
/// evaluate a state.
struct PanickingOperator(StridedPsi);

impl ObservationOperator for PanickingOperator {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn name(&self) -> &'static str {
        "panicking"
    }

    fn observe_into_ws(
        &self,
        _state: &wildfire_core::CoupledState,
        _out: &mut [f64],
        _scratch: &mut ObsScratch,
    ) -> wildfire_obs::Result<()> {
        panic!("observe blew up");
    }

    fn variances_into(&self, out: &mut [f64]) {
        self.0.variances_into(out);
    }
}

#[test]
fn a_failing_or_panicking_request_fails_alone() {
    let solo: Vec<Vec<ForecastProduct>> = healthy_requests().into_iter().map(alone).collect();

    // A wind so strong that the atmosphere cannot sub-step the scenario dt
    // within its CFL bound: a typed error out of the first coupled step.
    let mut gale = tiny_scenario("gale");
    gale.wind.ambient = (1.0e7, 0.0);
    let gale = ForecastRequest::free_run(gale, vec![1.0]);
    let scenario = tiny_scenario("probe");
    let (op, reports) = truth_reports(&scenario);
    let panicking = streamed(
        scenario,
        AnalysisFilter::default(),
        Box::new(PanickingOperator(op)),
        &reports,
    );

    let service = ForecastService::start(off_phase_config());
    let mut healthy = healthy_requests().into_iter();
    let mut submit = |req| service.submit(req).expect("submit");
    let mut handles: Vec<_> = healthy.by_ref().take(2).map(&mut submit).collect();
    let gale = submit(gale);
    handles.extend(healthy.by_ref().take(2).map(&mut submit));
    let panicking = submit(panicking);
    handles.extend(healthy.map(&mut submit));
    assert_eq!(handles.len(), 6);

    // Exactly one event each for the two bad requests: `Failed`.
    let only_event = |handle: wildfire_service::RequestHandle| {
        let first = handle.next_event().expect("a terminal event");
        assert!(handle.next_event().is_none(), "nothing follows `Failed`");
        match first {
            ForecastEvent::Failed { request, error } => {
                assert_eq!(request, handle.id());
                error
            }
            other => panic!("expected `Failed`, got {other:?}"),
        }
    };
    let error = only_event(gale);
    assert!(error.contains("sub-stepping failed"), "step error: {error}");
    let error = only_event(panicking);
    assert!(error.contains("observe blew up"), "panic message: {error}");

    // The six healthy requests never noticed.
    for (s, h) in solo.iter().zip(handles) {
        assert_same_products(s, &h.wait().expect("healthy request succeeds"));
    }
    // And the service still serves.
    let ninth = submit(ForecastRequest::free_run(tiny_scenario("ninth"), vec![1.0]));
    assert_eq!(ninth.wait().expect("ninth request succeeds").len(), 1);
    service.shutdown();
}

#[test]
fn one_worker_finishes_requests_in_submission_order() {
    let service = ForecastService::start(ServiceConfig {
        threads: 1,
        tick: 1.0,
    });
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let req = ForecastRequest::free_run(tiny_scenario("equal"), vec![1.0, 2.0]);
            service.submit(req).expect("submit")
        })
        .collect();
    // No barrier, no shared clock: by the time request k delivers its first
    // product, request k − 1 has delivered everything — observed as events
    // already waiting in its channel, never as a time.
    let mut first_products = Vec::new();
    for k in 1..handles.len() {
        first_products.push(handles[k].next_event().expect("first event"));
        let before = &handles[k - 1];
        // Request 0's own first product was not taken off its channel.
        let owed = if k == 1 { 2 } else { 1 };
        for _ in 0..owed {
            assert!(matches!(before.try_next(), Some(ForecastEvent::Product(_))));
        }
        assert!(
            matches!(before.try_next(), Some(ForecastEvent::Finished { .. })),
            "request {} finished before request {k} produced anything",
            k - 1
        );
    }
    assert!(first_products
        .iter()
        .all(|e| matches!(e, ForecastEvent::Product(p) if p.horizon == 1.0)));
    service.shutdown();
}
