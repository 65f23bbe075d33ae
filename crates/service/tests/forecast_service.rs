//! Integration pins for the forecast service (the ISSUE-8 acceptance
//! bar): concurrent requests over one shared batch, a live channel-fed
//! observation stream steering one of them, products delivered for all,
//! graceful shutdown draining in-flight work, and no leaked service
//! thread.

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
