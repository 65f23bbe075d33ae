//! The forecast service end to end: a long-lived [`ForecastService`]
//! with two workers, four forecast requests — one of them steered by a
//! live channel-fed observation stream — each run to completion on a
//! worker, and per-request product channels delivering
//! burned-area/perimeter rollups at each requested horizon.
//!
//! This is the paper's operational picture in miniature: a standing
//! "faster than real time" forecast engine that fields requests while
//! data streams in, rather than a one-shot batch job.
//!
//! Run with: `cargo run --release --example forecast_service`

use wildfire::fire::IgnitionShape;
use wildfire::obs::{ChannelSource, ObsReport, ObservationOperator, StridedPsi};
use wildfire::service::{
    ForecastEvent, ForecastProduct, ForecastRequest, ForecastService, ServiceConfig,
};
use wildfire::sim::{DomainSpec, Scenario, SimulationBuilder};

/// A small domain (13×13 fire mesh over a 5×5×4 atmosphere) so every
/// request is served quickly.
const DOMAIN: DomainSpec = DomainSpec {
    nx: 5,
    ny: 5,
    nz: 4,
    dx: 60.0,
    dy: 60.0,
    dz: 50.0,
    refinement: 3,
};

fn scenario(name: &str) -> Scenario {
    // Ignite explicitly: the builder's default circle is centered on the
    // PAPER domain, which lies outside this small one.
    SimulationBuilder::new()
        .name(name)
        .domain(DOMAIN)
        .ignite(IgnitionShape::Circle {
            center: DOMAIN.center(),
            radius: 30.0,
        })
        .into_scenario()
}

fn print_products(label: &str, products: &[ForecastProduct]) {
    for p in products {
        println!(
            "{:<12} {:>7.1} {:>7.1} {:>7} {:>12.0} {:>10.0} {:>9.3} {:>9}",
            label,
            p.horizon,
            p.time,
            p.members,
            p.mean_burned_area,
            p.mean_perimeter_length,
            p.max_spread_rate,
            p.reports_assimilated,
        );
    }
}

fn main() {
    // An offline "truth" run stands in for the real fire: a strided level
    // set operator samples it at two report times, and those reports are
    // fed to the service over a cross-thread channel.
    let truth_scenario = scenario("truth");
    let psi_op = StridedPsi::new(truth_scenario.model().expect("model").fire_grid, 3, 0.5);
    let mut truth = truth_scenario.build().expect("truth sim");
    let mut reports = Vec::new();
    for t_obs in [1.0, 2.0] {
        truth.run_until(t_obs, |_, _| {}).expect("truth run");
        reports.push(ObsReport {
            time: t_obs,
            stream: 0,
            data: psi_op.observe(&truth.state).expect("truth obs"),
        });
    }

    let service = ForecastService::start(ServiceConfig {
        threads: 2,
        tick: 1.0,
    });
    println!("forecast service up; submitting 4 requests");

    // Request 1: a 4-member data-driven forecast steered by the stream.
    let (obs_tx, obs_source) = ChannelSource::channel();
    let feeder = std::thread::spawn(move || {
        for r in reports {
            obs_tx.send(r).expect("service holds the receiver");
        }
    });
    feeder.join().expect("feeder exits");
    let streamed = service
        .submit(ForecastRequest {
            scenario: scenario("streamed"),
            n_members: 4,
            position_spread: 10.0,
            seed: 7,
            horizons: vec![2.0, 4.0],
            operators: vec![Box::new(psi_op)],
            source: Some(Box::new(obs_source)),
            filter: Default::default(),
        })
        .expect("submit streamed");

    // Requests 2–4: free-running forecasts queued behind it.
    const NAMES: [&str; 4] = ["streamed", "free-a", "free-b", "free-c"];
    let mut handles = vec![streamed];
    for (name, horizons) in [
        (NAMES[1], vec![3.0]),
        (NAMES[2], vec![2.0, 4.0]),
        (NAMES[3], vec![1.0]),
    ] {
        let req = ForecastRequest::free_run(scenario(name), horizons);
        handles.push(service.submit(req).expect("submit free run"));
    }

    // Drain every handle as events arrive, noting who finishes when: the
    // workers take requests oldest first and run each to completion.
    let mut products: Vec<Vec<ForecastProduct>> = vec![Vec::new(); handles.len()];
    let mut finished = Vec::new();
    while finished.len() < handles.len() {
        for (k, handle) in handles.iter().enumerate() {
            while let Some(event) = handle.try_next() {
                match event {
                    ForecastEvent::Product(p) => products[k].push(p),
                    ForecastEvent::Finished { .. } => finished.push(NAMES[k]),
                    ForecastEvent::Failed { error, .. } => panic!("{} failed: {error}", NAMES[k]),
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    println!("finished in order: {}", finished.join(", "));
    let (streamed_products, free_products) = products.split_first().expect("four requests");

    println!(
        "\n{:<12} {:>7} {:>7} {:>7} {:>12} {:>10} {:>9} {:>9}",
        "request", "horizon", "t [s]", "members", "area [m2]", "perim [m]", "ros max", "reports"
    );
    for (name, products) in NAMES.iter().zip(&products) {
        print_products(name, products);
    }

    assert_eq!(streamed_products.len(), 2, "one product per horizon");
    assert_eq!(
        streamed_products[1].reports_assimilated, 2,
        "both streamed reports assimilated"
    );
    let expected = [1usize, 2, 1];
    for (products, want) in free_products.iter().zip(expected) {
        assert_eq!(products.len(), want);
        assert_eq!(
            products[0].reports_assimilated, 0,
            "free runs never assimilate"
        );
    }
    assert!(
        streamed_products
            .iter()
            .chain(free_products.iter().flatten())
            .all(|p| p.mean_burned_area > 0.0 && p.mean_perimeter_length > 0.0),
        "every forecast must have burned"
    );

    service.shutdown();
    println!("\nforecast service ok");
}
