//! An unknown request `type` is refused with a bounded reply, and the
//! `health` reply after it stays bounded too.
//!
//! This is a malformed-input row like those of `wire_malformed.rs`, in a
//! binary of its own: `health` replies carry the tail of the process-wide
//! structured log, and the tests of a shared binary write that log from
//! parallel threads, so a byte bound on the reply would measure them too.

use tsn_net::json::Json;
use tsn_service::protocol::{Request, RequestBody, Response};
use tsn_service::{Service, ServiceConfig};

#[test]
fn an_unknown_request_type_is_echoed_bounded() {
    // Errors quote the offending value, and the log ring keeps the error:
    // a 4 MiB `type` used to come back in a 4 MiB reply, and again in every
    // `health` reply after it.
    const BOUND: usize = 1024;
    let service = Service::new(ServiceConfig::default());
    let kind = "é".repeat(2 << 20);
    let line = Json::obj([
        ("id", Json::from(7i64)),
        ("request", Json::obj([("type", Json::from(kind.clone()))])),
    ])
    .to_string();
    let reply = service.handle_line(&line);
    assert!(reply.len() < BOUND, "a {} B reply", reply.len());
    let reason = Response::parse_line(&reply)
        .expect("a typed response")
        .outcome
        .expect_err("an unknown type is refused");
    assert!(reason.contains("unknown request type"), "{reason}");
    assert!(
        reason.contains(&format!("{} bytes", kind.len())),
        "{reason}"
    );
    let health = Request {
        id: 8,
        trace: None,
        body: RequestBody::Health,
    }
    .to_line();
    let reply = service.handle_line(&health);
    assert!(reply.len() < BOUND, "a {} B health reply", reply.len());
    assert!(Response::parse_line(&reply)
        .expect("a typed response")
        .outcome
        .is_ok());
}
