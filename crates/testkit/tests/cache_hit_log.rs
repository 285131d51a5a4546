//! Cached traffic leaves the `health` log tail to the events that matter.
//!
//! In a binary of its own: `health` replies carry the tail of the
//! process-wide structured log, which sibling tests in a shared binary
//! would write from parallel threads.

use tsn_net::json::Json;
use tsn_service::protocol::{Backend, Request, RequestBody, Response};
use tsn_service::{Service, ServiceConfig};
use tsn_workload::pool_problem;

#[test]
fn a_warning_outlives_a_run_of_cache_hits_in_the_health_tail() {
    // A hit used to log at `info`, so sixteen of them pushed every warning
    // out of the 16-event tail `health` returns.
    let service = Service::new(ServiceConfig::default());
    let ask = |id: i64, body: RequestBody| {
        let line = Request {
            id,
            trace: None,
            body,
        }
        .to_line();
        Response::parse_line(&service.handle_line(&line)).expect("a typed response")
    };
    let synthesize = || RequestBody::Synthesize {
        problem: pool_problem(0),
        config: None,
        backend: Backend::Auto,
    };
    assert!(ask(1, synthesize()).outcome.is_ok());
    let refused = Response::parse_line(&service.handle_line("{\"id\":2,\"request\":"))
        .expect("a typed response");
    assert!(refused.outcome.is_err());
    for id in 3..23 {
        assert!(ask(id, synthesize()).cached, "request {id} must hit");
    }
    let health = ask(23, RequestBody::Health)
        .outcome
        .expect("health answers");
    let tail = health
        .get("recent_log")
        .and_then(Json::as_arr)
        .expect("a recent_log array");
    assert!(
        tail.iter().any(|event| {
            event.get("level").and_then(Json::as_str) == Some("warn")
                && event.get("msg").and_then(Json::as_str) == Some("malformed request line")
        }),
        "the warning fell out of the tail: {health}"
    );
}
