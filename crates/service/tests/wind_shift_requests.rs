//! Requests on a scenario whose ambient wind shifts mid-run: the request's
//! one model carries the schedule, so its members follow the shift exactly
//! as simulations run alone do, and a streamed request's products do not
//! depend on what else the service holds.

use wildfire_obs::{ChannelSource, ObsReport, ObservationOperator, StridedPsi};
use wildfire_service::{
    AnalysisFilter, ForecastProduct, ForecastRequest, ForecastService, ServiceConfig,
};
use wildfire_sim::perturb::perturbed_simulations;
use wildfire_sim::{registry, PerturbationSpec, Scenario};

/// The registry's wind-shift scenario: the wind veers at t = 60 s.
fn wind_shift() -> Scenario {
    registry::by_name(registry::WIND_SHIFT).expect("registry scenario")
}

/// Horizons on both sides of the shift, off the 0.5 s step grid.
const HORIZONS: [f64; 2] = [30.2, 61.3];

fn config() -> ServiceConfig {
    ServiceConfig {
        threads: 2,
        tick: 7.0,
    }
}

fn free_request(seed: u64) -> ForecastRequest {
    ForecastRequest {
        n_members: 3,
        position_spread: 8.0,
        seed,
        ..ForecastRequest::free_run(wind_shift(), HORIZONS.to_vec())
    }
}

/// A 3-member request steered by ψ reports from a truth run, before and
/// after the shift.
fn streamed_request() -> ForecastRequest {
    let scenario = wind_shift();
    let op = StridedPsi::new(scenario.model().expect("model").fire_grid, 3, 0.5);
    let mut truth = scenario.build().expect("truth");
    let (tx, source) = ChannelSource::channel();
    for time in [20.0, 63.5] {
        truth.run_until(time, |_, _| {}).expect("truth run");
        let data = op.observe(&truth.state).expect("truth obs");
        tx.send(ObsReport {
            time,
            stream: 0,
            data,
        })
        .expect("source holds the receiver");
    }
    ForecastRequest {
        n_members: 3,
        position_spread: 8.0,
        seed: 5,
        horizons: vec![30.2, 70.0],
        operators: vec![Box::new(op) as Box<dyn ObservationOperator>],
        source: Some(Box::new(source)),
        filter: AnalysisFilter::Standard { inflation: 1.02 },
        ..ForecastRequest::free_run(scenario, Vec::new())
    }
}

fn alone(req: ForecastRequest) -> Vec<ForecastProduct> {
    let service = ForecastService::start(config());
    let products = service.submit(req).expect("submit").wait();
    service.shutdown();
    products.expect("request served alone succeeds")
}

#[test]
fn free_request_follows_the_shift_like_simulations_run_alone() {
    let req = free_request(3);
    let spec = PerturbationSpec::position_only(req.position_spread, req.seed);
    let mut members = perturbed_simulations(&req.scenario, &spec, req.n_members).expect("members");
    let products = alone(req);
    assert_eq!(products.len(), HORIZONS.len());
    for (product, horizon) in products.iter().zip(HORIZONS) {
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
    assert_eq!(members[0].state.atmos.ambient_wind, (0.0, 4.0));
}

#[test]
fn streamed_shift_request_is_independent_of_the_crowd() {
    let solo = alone(streamed_request());

    let service = ForecastService::start(config());
    let filler = |k: u64| ForecastRequest {
        horizons: vec![12.3],
        ..free_request(10 + k)
    };
    let mut others: Vec<_> = (0..4)
        .map(|k| service.submit(filler(k)).expect("submit"))
        .collect();
    let crowded = service.submit(streamed_request()).expect("submit");
    others.extend((4..8).map(|k| service.submit(filler(k)).expect("submit")));
    let crowded = crowded.wait().expect("crowded request succeeds");
    for h in others {
        h.wait().expect("filler request succeeds");
    }
    service.shutdown();

    assert_eq!(solo.len(), 2);
    assert_eq!(solo[1].reports_assimilated, 2, "both reports assimilated");
    assert_eq!(crowded.len(), solo.len());
    for (s, c) in solo.iter().zip(&crowded) {
        let c = ForecastProduct {
            request: s.request,
            ..c.clone()
        };
        assert_eq!(*s, c);
    }
}
