//! Acceptance tests for the synthesis daemon: the in-process client/server
//! differential over seeded multi-tenant traces.
//!
//! Every daemon response must be byte-identical to the corresponding direct
//! library call, every served schedule passes the three-way oracle, and the
//! daemon drains and exits cleanly at the end of every run. The flagship
//! 4-tenant mixed-load run lives here; `fig_service` in `tsn_bench` is the
//! throughput-measuring sibling of the same harness.

use std::net::TcpListener;

use testkit::{service_differential, Client};
use tsn_net::json::Json;
use tsn_service::protocol::{Backend, Request, RequestBody, Response};
use tsn_service::{serve, Service, ServiceConfig};
use tsn_workload::{pool_problem, service_trace, ServiceScenario, TenantTrace};

#[test]
fn four_tenant_mixed_trace_is_byte_identical_and_oracle_clean() {
    let scenario = ServiceScenario {
        tenants: 4,
        events_per_tenant: 8,
        synthesize_every: 3,
        problem_pool: 2,
        burst: 1,
        seed: 42,
    };
    let traces = service_trace(&scenario);
    assert_eq!(traces.len(), 4);
    let check = service_differential(&traces, ServiceConfig::default())
        .expect("every daemon response must match the direct library call");
    let total: usize = traces.iter().map(TenantTrace::len).sum();
    assert_eq!(
        check.responses, total,
        "every request got a checked response"
    );
    assert!(
        check.cache_hits >= 1,
        "the shared problem pool must produce cache hits: {check:?}"
    );
    assert!(
        check.oracle_checked >= 12,
        "served schedules must be oracle-checked: {check:?}"
    );
}

#[test]
fn single_worker_daemon_behaves_identically() {
    // One pool worker: everything serializes, the protocol must not care.
    let scenario = ServiceScenario {
        tenants: 2,
        events_per_tenant: 5,
        synthesize_every: 2,
        problem_pool: 1,
        burst: 1,
        seed: 3,
    };
    let traces = service_trace(&scenario);
    let check = service_differential(
        &traces,
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    )
    .expect("single-worker run must stay byte-identical");
    assert!(check.cache_hits >= 1, "{check:?}");
}

#[test]
fn cache_disabled_still_byte_identical() {
    // With the cache off every synthesize solves cold; payloads must not
    // change (determinism is a property of the solver, not the cache).
    let scenario = ServiceScenario {
        tenants: 2,
        events_per_tenant: 4,
        synthesize_every: 2,
        problem_pool: 1,
        burst: 1,
        seed: 9,
    };
    let traces = service_trace(&scenario);
    let check = service_differential(
        &traces,
        ServiceConfig {
            cache_capacity: 0,
            ..ServiceConfig::default()
        },
    )
    .expect("uncached run must stay byte-identical");
    assert_eq!(check.cache_hits, 0, "cache disabled means no hits");
}

#[test]
fn forced_backend_requests_are_differential_too() {
    // Hand-built trace: the same pool problem through both backends plus a
    // doomed tenant request; all byte-checked.
    let problem = pool_problem(0);
    let traces = vec![TenantTrace {
        tenant: "manual".into(),
        requests: vec![
            Request {
                id: 1,
                trace: None,
                body: RequestBody::Ping,
            },
            Request {
                id: 2,
                trace: None,
                body: RequestBody::Synthesize {
                    problem: problem.clone(),
                    config: None,
                    backend: Backend::Monolithic,
                },
            },
            Request {
                id: 3,
                trace: None,
                body: RequestBody::Synthesize {
                    problem: problem.clone(),
                    config: None,
                    backend: Backend::Partitioned,
                },
            },
            // Unknown tenant: the error string itself is byte-checked.
            Request {
                id: 4,
                trace: None,
                body: RequestBody::Event {
                    tenant: "manual".into(),
                    event: tsn_online::NetworkEvent::RemoveApp {
                        app: tsn_online::AppId(0),
                    },
                },
            },
        ],
    }];
    let check = service_differential(&traces, ServiceConfig::default())
        .expect("forced-backend trace must match the library");
    assert_eq!(check.responses, 4);
    assert_eq!(check.errors, 1, "the unknown-tenant error was compared too");
    assert_eq!(
        check.oracle_checked, 2,
        "both backend reports oracle-checked"
    );
}

#[test]
fn bursty_trace_batches_are_byte_identical_and_oracle_clean() {
    // Bursty arrivals: whole event windows travel as one `event_batch`
    // request, the daemon commits each with one joint batched solve, and
    // every batch response must be byte-identical to a shadow engine fed
    // the same batch (`process_batch` in-process, no daemon around it).
    let scenario = ServiceScenario {
        tenants: 2,
        events_per_tenant: 10,
        synthesize_every: 4,
        problem_pool: 2,
        burst: 4,
        seed: 21,
    };
    let traces = service_trace(&scenario);
    let batches: usize = traces
        .iter()
        .flat_map(|t| &t.requests)
        .filter(|r| matches!(r.body, RequestBody::EventBatch { .. }))
        .count();
    assert!(batches >= 2, "the bursty trace must carry real batches");
    let check = service_differential(&traces, ServiceConfig::default())
        .expect("batch-served responses must match the shadow engine fed the same batch");
    let total: usize = traces.iter().map(TenantTrace::len).sum();
    assert_eq!(check.responses, total);
    assert!(
        check.oracle_checked >= batches,
        "post-batch tenant states must be oracle-checked: {check:?}"
    );
}

#[test]
fn concurrent_identical_cold_synthesize_requests_solve_once_daemon_side() {
    // N parallel connections fire the same cold `synthesize` at the same
    // time: the daemon must run exactly one solve — every other request is
    // served by the result cache or coalesced onto the in-flight solve
    // (which of the two each request hits depends on timing; the sum does
    // not). The solve counter in the stats response is the witness.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let service = Service::new(ServiceConfig {
        workers: 4,
        ..ServiceConfig::default()
    });
    let n: usize = 4;
    let round_trip = |request: &Request| -> Response {
        Client::connect(addr)
            .expect("connect")
            .round_trip(request)
            .expect("round trip")
    };
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| serve(&service, listener));
        let clients: Vec<_> = (0..n)
            .map(|i| {
                let round_trip = &round_trip;
                scope.spawn(move || {
                    round_trip(&Request {
                        id: i as i64,
                        trace: None,
                        body: RequestBody::Synthesize {
                            problem: pool_problem(0),
                            config: None,
                            backend: Backend::Auto,
                        },
                    })
                })
            })
            .collect();
        let payloads: Vec<String> = clients
            .into_iter()
            .map(|c| c.join().expect("client").outcome.expect("ok").to_string())
            .collect();
        assert!(
            payloads.windows(2).all(|w| w[0] == w[1]),
            "all concurrent identical requests share one deterministic payload"
        );
        let stats = round_trip(&Request {
            id: 100,
            trace: None,
            body: RequestBody::Stats,
        })
        .outcome
        .expect("stats");
        let count = |key: &str| stats.get(key).and_then(Json::as_i64).unwrap_or(-1);
        assert_eq!(count("solves"), 1, "exactly one daemon-side solve: {stats}");
        assert_eq!(
            count("coalesced_misses") + count("cache_hits"),
            (n - 1) as i64,
            "stats: {stats}"
        );
        let shutdown = round_trip(&Request {
            id: 101,
            trace: None,
            body: RequestBody::Shutdown,
        });
        assert!(shutdown.outcome.is_ok());
        daemon.join().expect("daemon").expect("clean exit");
    });
}

#[test]
fn telemetry_on_and_off_serve_byte_identical_payloads() {
    // The differential already proves every daemon payload is byte-identical
    // to the deterministic direct library call. Running it once with every
    // telemetry channel quiet (flight recorder off, structured log at
    // `error` so nothing below that level is even built) and once with
    // everything loud (recorder on, log at `debug`, labeled per-tenant
    // metrics accumulating) therefore proves — by transitivity through the
    // library payloads — that observability changes no response byte: trace
    // ids, timings, log events and labeled series live only in the envelope
    // and the metrics/log channels.
    use tsn_telemetry::log::{self, Level};
    let scenario = ServiceScenario {
        tenants: 2,
        events_per_tenant: 6,
        synthesize_every: 3,
        problem_pool: 2,
        burst: 2,
        seed: 77,
    };
    let traces = service_trace(&scenario);
    log::logger().set_level(Level::Error);
    let off = service_differential(&traces, ServiceConfig::default());
    tsn_telemetry::set_enabled(true);
    log::logger().set_level(Level::Debug);
    let on = service_differential(&traces, ServiceConfig::default());
    tsn_telemetry::set_enabled(false);
    log::logger().set_level(Level::Info);
    let off = off.expect("telemetry-off run must stay byte-identical");
    let on = on.expect("telemetry-on run must stay byte-identical");
    assert_eq!(off.responses, on.responses);
    assert_eq!(off.errors, on.errors);
    // Non-vacuity: the loud run actually recorded on every channel, so the
    // equalities above compared a quiet run against a genuinely noisy one.
    assert!(
        tsn_telemetry::snapshot()
            .iter()
            .any(|s| s.name == "service.request"),
        "enabled run must have recorded service.request spans"
    );
    let exposition = tsn_telemetry::registry().render();
    assert!(
        tsn_telemetry::samples(&exposition, "service_tenant_requests_total")
            .iter()
            .any(|s| s.label("tenant").is_some()),
        "enabled run must have accumulated labeled per-tenant series"
    );
    assert!(
        log::logger()
            .recent(usize::MAX)
            .iter()
            .any(|e| e.target.starts_with("service")),
        "debug-level run must have left structured log events in the ring"
    );
}

#[test]
#[ignore = "heavy: 4 tenants x 30+ requests; run with --ignored in release"]
fn flagship_load_trace_is_clean() {
    let scenario = ServiceScenario {
        tenants: 4,
        events_per_tenant: 24,
        synthesize_every: 4,
        problem_pool: 3,
        burst: 1,
        seed: 1,
    };
    let traces = service_trace(&scenario);
    let total: usize = traces.iter().map(TenantTrace::len).sum();
    assert!(
        total >= 100,
        "flagship run must exceed 100 requests: {total}"
    );
    let check = service_differential(&traces, ServiceConfig::default())
        .expect("flagship run must stay byte-identical and oracle-clean");
    assert_eq!(check.responses, total);
    assert!(check.cache_hits >= 5, "{check:?}");
}

/// The payload text of an `ok` response line, as the daemon wrote it.
fn payload_text(reply: &str) -> &str {
    let start = reply.find(",\"ok\":").expect("an ok response") + ",\"ok\":".len();
    &reply[start..reply.len() - 1]
}

#[test]
fn a_reordered_request_is_a_miss_solved_to_the_same_payload() {
    // The cache key is the `request` member as sent, so member order and a
    // spelled-out default are part of it: a reordered request, or one that
    // leaves its defaults out, misses and is solved again — to the same
    // payload bytes, with `cached:false`.
    let config = ServiceConfig::default();
    let direct = tsn_service::synthesize_result_json(
        &pool_problem(0),
        &config.default_synthesis,
        Backend::Auto,
        config.scale_threshold_apps,
    )
    .expect("the pool problem solves")
    .to_string();
    let service = Service::new(config);
    let Json::Obj(members) = (RequestBody::Synthesize {
        problem: pool_problem(0),
        config: None,
        backend: Backend::Auto,
    })
    .to_json() else {
        panic!("a request body encodes as an object");
    };
    let reversed = Json::Obj(members.iter().rev().cloned().collect());
    let defaults_left_out = Json::Obj(
        members
            .iter()
            .filter(|(key, _)| key != "config" && key != "backend")
            .cloned()
            .collect(),
    );
    let as_sent = Json::Obj(members);
    let mut id = 0;
    let mut send = |request: &Json| {
        id += 1;
        let line = Json::obj([("id", Json::Int(id)), ("request", request.clone())]).to_string();
        let reply = service.handle_line(&line);
        let cached = Response::parse_line(&reply).expect("a response").cached;
        assert_eq!(payload_text(&reply), direct, "{line}");
        cached
    };
    for request in [&as_sent, &reversed, &defaults_left_out] {
        assert!(!send(request), "a new key is solved");
        assert!(send(request), "the same key hits");
    }
    let stats = Response::parse_line(
        &service.handle_line(
            &Request {
                id: 99,
                trace: None,
                body: RequestBody::Stats,
            }
            .to_line(),
        ),
    )
    .unwrap()
    .outcome
    .unwrap();
    assert_eq!(
        stats.get("solves").and_then(Json::as_i64),
        Some(3),
        "{stats}"
    );
}
