//! A hyper-period past the nanosecond range is a typed refusal at the
//! daemon's door, not a wrapped (release) or panicking (debug) lcm.
//!
//! This is a malformed-input row like those of `wire_malformed.rs`, in a
//! binary of its own: the daemon logs every refusal to the process-wide
//! structured log, and `health` replies carry its tail.

use tsn_control::PiecewiseLinearBound;
use tsn_net::json::Json;
use tsn_net::{builders, LinkSpec, Time};
use tsn_online::NetworkEvent;
use tsn_service::protocol::{Request, RequestBody, Response};
use tsn_service::{Service, ServiceConfig};
use tsn_synthesis::{ControlApplication, SynthesisProblem};

#[test]
fn a_hyperperiod_past_the_nanosecond_range_is_refused() {
    // The hyper-period is the lcm of every period, in i64 nanoseconds.
    // Three pairwise coprime periods near 10 ms have an lcm of ~1.0e21 ns;
    // it used to wrap in release builds (and panic in debug ones), and a
    // wrapped hyper-period sizes every message table after it.
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    let app = |i: usize, period_ns: i64| ControlApplication {
        name: format!("coprime-{i}"),
        sensor: net.sensors[i],
        controller: net.controllers[i],
        period: Time::from_nanos(period_ns),
        frame_bytes: 1500,
        stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
    };
    let service = Service::new(ServiceConfig::default());
    let refusal = |line: &str| -> String {
        let reply = service.handle_line(line);
        let response = Response::parse_line(&reply).expect("a typed response");
        match response.outcome {
            Err(reason) => reason,
            Ok(payload) => payload.to_string(),
        }
    };

    // One-shot synthesis: no `SynthesisProblem` can hold all three, so the
    // third application is spliced into the request's document.
    let mut problem = SynthesisProblem::new(net.topology.clone(), Time::from_micros(5));
    for a in [app(0, 10_000_001), app(1, 10_000_003)] {
        problem
            .add_application(
                a.name,
                a.sensor,
                a.controller,
                a.period,
                a.frame_bytes,
                a.stability,
            )
            .unwrap();
    }
    let mut doc = tsn_synthesis::wire::problem_to_json(&problem);
    let Json::Obj(members) = &mut doc else {
        panic!("a problem document is an object");
    };
    let Some((_, Json::Arr(apps))) = members.iter_mut().find(|(key, _)| key == "applications")
    else {
        panic!("a problem document lists its applications");
    };
    apps.push(tsn_synthesis::wire::application_to_json(&app(
        2, 10_000_007,
    )));
    let line = Json::obj([
        ("id", Json::from(1i64)),
        (
            "request",
            Json::obj([("type", Json::from("synthesize")), ("problem", doc)]),
        ),
    ])
    .to_string();
    assert!(Request::parse_line(&line).is_err(), "decoded: {line}");
    let reason = refusal(&line);
    assert!(reason.contains("overflows"), "{reason}");

    // Online admission, one event and one batch at a time. One loop at
    // 10_000_001 ns is admitted; a loop at 1000 s (coprime, so the lcm is
    // ~1.0e19 ns) is refused by either path.
    let open = Request {
        id: 2,
        trace: None,
        body: RequestBody::OpenTenant {
            tenant: "coprime".into(),
            topology: net.topology.clone(),
            forwarding_delay: Time::from_micros(5),
            config: None,
        },
    };
    assert!(Response::parse_line(&service.handle_line(&open.to_line()))
        .unwrap()
        .outcome
        .is_ok());
    let event = |id: i64, a: ControlApplication| Request {
        id,
        trace: None,
        body: RequestBody::Event {
            tenant: "coprime".into(),
            event: NetworkEvent::AdmitApp { app: a },
        },
    };
    let admitted = refusal(&event(3, app(0, 10_000_001)).to_line());
    assert!(admitted.contains("admitted"), "{admitted}");
    let rejected = refusal(&event(4, app(1, 1_000_000_000_000)).to_line());
    assert!(
        rejected.contains("rejected") && rejected.contains("overflows"),
        "{rejected}"
    );
    let batch = Request {
        id: 5,
        trace: None,
        body: RequestBody::EventBatch {
            tenant: "coprime".into(),
            events: vec![NetworkEvent::AdmitApp {
                app: app(2, 1_000_000_000_000),
            }],
        },
    };
    let rejected = refusal(&batch.to_line());
    assert!(
        rejected.contains("rejected") && rejected.contains("overflows"),
        "{rejected}"
    );
}
