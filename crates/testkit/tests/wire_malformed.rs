//! Malformed-input corpus for every wire module in the workspace.
//!
//! The daemon reads hostile bytes off the network, so *no* decoder may
//! panic: truncated documents, garbled bytes, type confusion and missing
//! members must all surface as typed errors (`JsonError` / `Err` payloads).
//! The corpus is built from valid encodings of real values — every prefix
//! truncation, single-byte garbling at sampled offsets, and a set of
//! hand-written type-confusion documents — and fed to every `from_json`
//! entry point across `tsn_net::json`, `tsn_synthesis::wire`,
//! `tsn_online::wire`, `tsn_scale::wire` and the `tsn_service` envelopes.

use tsn_control::PiecewiseLinearBound;
use tsn_net::json::Json;
use tsn_net::{builders, LinkSpec, Time};
use tsn_online::{NetworkEvent, OnlineConfig, OnlineEngine};
use tsn_service::protocol::{Backend, Request, RequestBody, Response};
use tsn_service::{Service, ServiceConfig};
use tsn_synthesis::{ControlApplication, SynthesisConfig, SynthesisProblem, Synthesizer};

/// A structured-log event with hostile-ish content: every value kind, a
/// field value that needs escaping, a non-finite float (encodes as `null`).
fn log_specimen() -> tsn_telemetry::log::LogEvent {
    use tsn_telemetry::log::{Level, LogEvent, Value};
    LogEvent {
        ts_ns: 1_234_000,
        level: Level::Warn,
        target: "service.request".into(),
        message: "request failed".into(),
        fields: vec![
            ("tenant".into(), Value::from("ghost \"t\"\n")),
            ("attempt".into(), Value::from(3i64)),
            ("fatal".into(), Value::from(false)),
            ("ratio".into(), Value::from(f64::NAN)),
        ],
    }
}

/// Two control loops on the figure-1 network built from `link`.
fn figure1_problem(link: LinkSpec, forwarding_delay: Time) -> SynthesisProblem {
    let net = builders::figure1_example(link);
    let mut problem = SynthesisProblem::new(net.topology, forwarding_delay);
    for i in 0..2 {
        problem
            .add_application(
                format!("loop-{i}"),
                net.sensors[i],
                net.controllers[i],
                Time::from_millis(10),
                1500,
                PiecewiseLinearBound::single_segment(2.0, 0.018),
            )
            .unwrap();
    }
    problem
}

/// A valid specimen line for every wire document kind in the workspace.
fn specimens() -> Vec<(&'static str, String)> {
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    let problem = figure1_problem(LinkSpec::fast_ethernet(), Time::from_micros(5));
    let report = Synthesizer::new(SynthesisConfig {
        stages: 1,
        ..SynthesisConfig::default()
    })
    .synthesize(&problem)
    .unwrap();

    let mut engine = OnlineEngine::new(
        net.topology.clone(),
        Time::from_micros(5),
        OnlineConfig::default(),
    );
    let app = |i: u32, name: &str| ControlApplication {
        name: name.into(),
        sensor: net.sensors[i as usize],
        controller: net.controllers[i as usize],
        period: Time::from_millis(10),
        frame_bytes: 1500,
        stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
    };
    let event = NetworkEvent::AdmitApp {
        app: app(0, "wire-loop"),
    };
    let event_report = engine.process(event.clone());
    // Exported while the engine holds a live solver session, so the
    // snapshot specimen carries the serialized-model `session` member and
    // the fuzzers below reach the model-state decoder.
    let snapshot = engine.export_session();
    assert!(
        snapshot.session.is_some(),
        "the snapshot specimen must carry a warm session"
    );
    let batch_events = vec![
        NetworkEvent::AdmitApp {
            app: app(1, "wire-batch"),
        },
        NetworkEvent::LinkDown {
            link: tsn_net::LinkId::new(0),
        },
        NetworkEvent::LinkUp {
            link: tsn_net::LinkId::new(0),
        },
    ];
    let batch_report = engine.process_batch(batch_events.clone());

    vec![
        (
            "topology",
            tsn_net::wire::topology_to_json(&net.topology).to_string(),
        ),
        (
            "problem",
            tsn_synthesis::wire::problem_to_json(&problem).to_string(),
        ),
        (
            "config",
            tsn_synthesis::wire::config_to_json(&SynthesisConfig::default()).to_string(),
        ),
        (
            "report",
            tsn_synthesis::wire::report_to_json(&report).to_string(),
        ),
        ("event", tsn_online::wire::event_to_json(&event).to_string()),
        (
            "event_report",
            tsn_online::wire::event_report_to_json(&event_report).to_string(),
        ),
        (
            "online_config",
            tsn_online::wire::online_config_to_json(&OnlineConfig::default()).to_string(),
        ),
        (
            "batch_report",
            tsn_online::wire::batch_report_to_json(&batch_report).to_string(),
        ),
        (
            "session_snapshot",
            tsn_online::wire::session_snapshot_to_json(&snapshot).to_string(),
        ),
        (
            "migrate_out_request",
            Request {
                id: 7,
                trace: None,
                body: RequestBody::MigrateOut {
                    tenant: "wire-tenant".into(),
                },
            }
            .to_line(),
        ),
        (
            "migrate_in_request",
            Request {
                id: 8,
                trace: Some(17),
                body: RequestBody::MigrateIn {
                    tenant: "wire-tenant".into(),
                    snapshot: Box::new(snapshot.clone()),
                },
            }
            .to_line(),
        ),
        (
            "migrated_out_response",
            Response {
                id: 7,
                trace: None,
                cached: false,
                elapsed_us: 41,
                retry_after_ms: None,
                outcome: Ok(Json::obj([
                    ("type", Json::from("migrated_out")),
                    ("tenant", Json::from("wire-tenant")),
                    ("loops", Json::Int(1)),
                    (
                        "snapshot",
                        tsn_online::wire::session_snapshot_to_json(&snapshot),
                    ),
                ])),
            }
            .to_line(),
        ),
        // (The router-only `drain_shard` request has no library decoder —
        // its hostile variants live in the type-confusion corpus instead.)
        (
            "directory_response",
            Response {
                id: 9,
                trace: Some(-3),
                cached: false,
                elapsed_us: 210,
                retry_after_ms: None,
                outcome: Ok(Json::obj([
                    ("type", Json::from("directory")),
                    ("tenants", Json::Int(2)),
                    ("migrations", Json::Int(1)),
                    (
                        "shards",
                        Json::Arr(vec![
                            Json::obj([
                                ("shard", Json::Int(0)),
                                ("addr", Json::from("127.0.0.1:4521")),
                                ("active", Json::Bool(false)),
                                ("tenants", Json::Int(0)),
                                ("healthy", Json::Bool(true)),
                                ("shard_id", Json::Int(0)),
                                ("sessions", Json::Int(0)),
                            ]),
                            Json::obj([
                                ("shard", Json::Int(1)),
                                ("addr", Json::from("127.0.0.1:4522")),
                                ("active", Json::Bool(true)),
                                ("tenants", Json::Int(2)),
                                ("healthy", Json::Bool(false)),
                                ("error", Json::from("shard 1 unreachable: refused")),
                            ]),
                        ]),
                    ),
                ])),
            }
            .to_line(),
        ),
        (
            "batch_request",
            Request {
                id: 4,
                trace: None,
                body: RequestBody::EventBatch {
                    tenant: "wire-tenant".into(),
                    events: batch_events,
                },
            }
            .to_line(),
        ),
        (
            "request",
            Request {
                id: 3,
                trace: None,
                body: RequestBody::Synthesize {
                    problem: problem.clone(),
                    config: None,
                    backend: Backend::Auto,
                },
            }
            .to_line(),
        ),
        (
            "traced_request",
            Request {
                id: 3,
                trace: Some(91_052),
                body: RequestBody::Ping,
            }
            .to_line(),
        ),
        (
            "metrics_request",
            Request {
                id: 5,
                trace: Some(-1),
                body: RequestBody::Metrics,
            }
            .to_line(),
        ),
        (
            "health_request",
            Request {
                id: 6,
                trace: None,
                body: RequestBody::Health,
            }
            .to_line(),
        ),
        (
            "health_response",
            Response {
                id: 6,
                trace: None,
                cached: false,
                elapsed_us: 3,
                retry_after_ms: None,
                outcome: Ok(Json::obj([
                    ("type", Json::from("health")),
                    ("uptime_us", Json::Int(7_000)),
                    ("tenants", Json::Int(1)),
                    ("workers", Json::Int(4)),
                    ("workers_busy", Json::Int(0)),
                    ("queue_depth", Json::Int(0)),
                    ("requests", Json::Int(3)),
                    ("errors", Json::Int(1)),
                    ("recent_log", Json::Arr(vec![log_specimen().to_json()])),
                ])),
            }
            .to_line(),
        ),
        (
            "response",
            Response {
                id: 3,
                trace: None,
                cached: false,
                elapsed_us: 12,
                retry_after_ms: None,
                outcome: Ok(Json::obj([("type", Json::from("pong"))])),
            }
            .to_line(),
        ),
        (
            "shed_response",
            tsn_service::protocol::shed_response(
                11,
                Some(4),
                "overloaded: 1024 jobs queued at watermark 1024".to_string(),
                100,
            )
            .to_line(),
        ),
        (
            "metrics_response",
            Response {
                id: 5,
                trace: Some(-1),
                cached: false,
                elapsed_us: 88,
                retry_after_ms: None,
                outcome: Ok(Json::obj([
                    ("type", Json::from("metrics")),
                    (
                        "exposition",
                        Json::from(
                            "# TYPE requests_total counter\nrequests_total 37\n\
                             # TYPE solve_seconds histogram\n\
                             solve_seconds_bucket{le=\"0.001024\"} 2\n\
                             solve_seconds_bucket{le=\"+Inf\"} 2\n\
                             solve_seconds_sum 0.0011\nsolve_seconds_count 2\n",
                        ),
                    ),
                ])),
            }
            .to_line(),
        ),
    ]
}

/// Feeds one corrupted line to every decoder; each must return (any value
/// or a typed error) without panicking. Returns how many decoders accepted
/// the input.
fn decode_everything(line: &str) -> usize {
    let mut accepted = 0usize;
    let Ok(doc) = Json::parse(line) else {
        // The document layer already rejected it — also exercise the two
        // line-level entry points, which must reject too, not panic.
        assert!(Request::parse_line(line).is_err());
        assert!(Response::parse_line(line).is_err());
        return 0;
    };
    accepted += usize::from(tsn_net::wire::topology_from_json(&doc).is_ok());
    accepted += usize::from(tsn_net::wire::link_spec_from_json(&doc).is_ok());
    accepted += usize::from(tsn_synthesis::wire::problem_from_json(&doc).is_ok());
    accepted += usize::from(tsn_synthesis::wire::config_from_json(&doc).is_ok());
    accepted += usize::from(tsn_synthesis::wire::report_from_json(&doc).is_ok());
    accepted += usize::from(tsn_synthesis::wire::schedule_from_json(&doc).is_ok());
    accepted += usize::from(tsn_synthesis::wire::route_from_json(&doc).is_ok());
    accepted += usize::from(tsn_synthesis::wire::application_from_json(&doc).is_ok());
    accepted += usize::from(tsn_online::wire::event_from_json(&doc).is_ok());
    accepted += usize::from(tsn_online::wire::trace_from_json(&doc).is_ok());
    accepted += usize::from(tsn_online::wire::decision_from_json(&doc).is_ok());
    accepted += usize::from(tsn_online::wire::event_report_from_json(&doc).is_ok());
    accepted += usize::from(tsn_online::wire::batch_report_from_json(&doc).is_ok());
    accepted += usize::from(tsn_online::wire::online_config_from_json(&doc).is_ok());
    accepted += usize::from(tsn_online::wire::session_snapshot_from_json(&doc).is_ok());
    accepted += usize::from(tsn_scale::wire::scale_report_from_json(&doc).is_ok());
    accepted += usize::from(tsn_scale::wire::partition_report_from_json(&doc).is_ok());
    accepted += usize::from(tsn_scale::wire::repair_report_from_json(&doc).is_ok());
    accepted += usize::from(Request::from_json(&doc).is_ok());
    accepted += usize::from(Response::from_json(&doc).is_ok());
    accepted
}

#[test]
fn truncations_never_panic() {
    for (kind, line) in specimens() {
        // Every prefix at a char boundary (stride keeps the corpus fast on
        // long documents while still covering the interesting boundaries).
        let stride = (line.len() / 97).max(1);
        let mut checked = 0usize;
        for end in (0..line.len()).step_by(stride) {
            if !line.is_char_boundary(end) {
                continue;
            }
            let truncated = &line[..end];
            // A strict prefix of a JSON document is never a complete valid
            // document of the same kind — decoding must fail or the parse
            // itself must fail; panics fail the test by themselves.
            let _ = decode_everything(truncated);
            checked += 1;
        }
        assert!(checked > 10, "{kind}: corpus too small ({checked})");
    }
}

#[test]
fn garbled_bytes_never_panic() {
    for (kind, line) in specimens() {
        let bytes = line.as_bytes();
        let stride = (bytes.len() / 61).max(1);
        for at in (0..bytes.len()).step_by(stride) {
            for replacement in [b'"', b'{', b'}', b'[', b'0', b'x', b',', 0xFF] {
                let mut garbled = bytes.to_vec();
                garbled[at] = replacement;
                // Invalid UTF-8 variants exercise the parser's byte layer.
                let garbled = String::from_utf8_lossy(&garbled).into_owned();
                let _ = decode_everything(&garbled);
            }
        }
        // The pristine line still decodes under at least one decoder.
        assert!(
            decode_everything(&line) >= 1,
            "{kind}: specimen no longer decodes"
        );
    }
}

#[test]
fn type_confusion_is_rejected_everywhere() {
    // Hand-written hostile documents: wrong member types, wrong shapes,
    // deep nesting, huge numbers, evil strings.
    let corpus = [
        "null",
        "true",
        "-7",
        "1e308",
        "\"just a string\"",
        "[]",
        "{}",
        r#"{"id": {}, "request": []}"#,
        r#"{"id": 1, "request": {"type": 42}}"#,
        r#"{"id": 1, "request": {"type": "synthesize", "problem": 3}}"#,
        r#"{"id": 1, "request": {"type": "open_tenant", "tenant": 1, "topology": {}, "forwarding_delay": "x", "config": null}}"#,
        r#"{"id": 1, "request": {"type": "event", "tenant": "t", "event": {"type": "admit_app", "app": {"name": "x"}}}}"#,
        r#"{"nodes": [{"name": "a", "kind": "switch"}], "links": [{"a": 0, "b": 0, "spec": {"rate_bps": 1, "prop_ns": 0}}]}"#,
        r#"{"nodes": "many", "links": "few"}"#,
        r#"{"hyperperiod": "soon", "messages": []}"#,
        r#"{"secs": -1, "nanos": 0}"#,
        r#"{"secs": 0, "nanos": 9999999999}"#,
        r#"{"stage": 0, "messages": "several"}"#,
        r#"{"type": "rerouted", "rescheduled": [0.5], "evicted": []}"#,
        r#"{"id": 1, "request": {"type": "event_batch", "tenant": "t"}}"#,
        r#"{"id": 1, "request": {"type": "event_batch", "tenant": "t", "events": 7}}"#,
        r#"{"id": 1, "request": {"type": "event_batch", "tenant": "t", "events": [{"type": "admit_app"}]}}"#,
        r#"{"reports": [], "joint": "yes", "affected_loops": 0, "queued_admissions": 0, "latency": {"secs": 0, "nanos": 0}, "solver_decisions": 0, "solver_conflicts": 0}"#,
        r#"{"reports": [{"index": 0}], "joint": true, "affected_loops": 0, "queued_admissions": 0, "latency": {"secs": 0, "nanos": 0}, "solver_decisions": 0, "solver_conflicts": 0}"#,
        r#"{"reports": [], "joint": true, "affected_loops": -4, "queued_admissions": 0, "latency": {"secs": 0, "nanos": 0}, "solver_decisions": 0, "solver_conflicts": 0}"#,
        r#"{"type": "stability_aware", "granularity": true}"#,
        r#"{"route_strategy": {"type": "k_shortest", "k": -3}, "stages": 1, "mode": {"type": "deadline_only"}, "max_conflicts_per_stage": null, "timeout_per_stage": null, "verify": true}"#,
        r#"{"id": 9007199254740993, "cached": "yes", "elapsed_us": 0, "ok": {}}"#,
        r#"{"id": 1, "trace": "envelope", "request": {"type": "ping"}}"#,
        r#"{"id": 1, "trace": 0.5, "request": {"type": "ping"}}"#,
        r#"{"id": 1, "trace": [91052], "request": {"type": "metrics"}}"#,
        r#"{"id": 1, "trace": {}, "cached": false, "elapsed_us": 0, "ok": {}}"#,
        r#"{"id": 1, "request": {"type": "metrics", "exposition": 7}}"#,
        r#"{"id": 1, "request": {"type": "health", "tenant": 7}}"#,
        r#"{"id": 1, "request": {"type": "migrate_out"}}"#,
        r#"{"id": 1, "request": {"type": "migrate_out", "tenant": 9}}"#,
        r#"{"id": 1, "request": {"type": "migrate_in", "tenant": "t"}}"#,
        r#"{"id": 1, "request": {"type": "migrate_in", "tenant": "t", "snapshot": 7}}"#,
        r#"{"id": 1, "request": {"type": "migrate_in", "tenant": "t", "snapshot": {"app_count": "many"}}}"#,
        r#"{"id": 1, "request": {"type": "drain_shard", "shard": "zero"}}"#,
        r#"{"id": 1, "request": {"type": "drain_shard", "shard": -2}}"#,
        r#"{"id": 1, "cached": false, "elapsed_us": 0, "ok": {"type": "directory", "shards": 7}}"#,
        r#"{"id": 1, "cached": false, "elapsed_us": 0, "ok": {"type": "shard_drained", "migrated": "all"}}"#,
        r#"{"id": "soon", "request": {"type": "health"}}"#,
        r#"{"id": 1, "cached": false, "elapsed_us": 0, "ok": {"type": "health", "recent_log": 7}}"#,
        r#"{"id": 1, "cached": false, "elapsed_us": 0, "ok": {"type": "health", "recent_log": [{"ts_ns": "late"}], "uptime_us": -3}}"#,
        "[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]]",
        r#"{"a": {"b": {"c": {"d": {"e": {"f": {"g": {"h": null}}}}}}}}"#,
    ];
    for line in corpus {
        let _ = decode_everything(line);
    }
    // A couple of spot checks that specific confusions yield errors, not
    // lenient accepts.
    assert!(tsn_synthesis::wire::config_from_json(
        &Json::parse(r#"{"route_strategy": {"type": "k_shortest", "k": -3}, "stages": 1, "mode": {"type": "deadline_only"}, "max_conflicts_per_stage": null, "timeout_per_stage": null, "verify": true}"#).unwrap()
    ).is_err());
    assert!(tsn_synthesis::wire::duration_from_json(
        &Json::parse(r#"{"secs": -1, "nanos": 0}"#).unwrap()
    )
    .is_err());
    assert!(tsn_synthesis::wire::duration_from_json(
        &Json::parse(r#"{"secs": 0, "nanos": 9999999999}"#).unwrap()
    )
    .is_err());
    assert!(
        Request::parse_line(r#"{"id": 1, "request": {"type": 42}}"#).is_err(),
        "non-string request types must be rejected"
    );
    assert!(
        Request::parse_line(
            r#"{"id": 1, "request": {"type": "event_batch", "tenant": "t", "events": 7}}"#
        )
        .is_err(),
        "a non-array batch event list must be rejected"
    );
    assert!(tsn_online::wire::batch_report_from_json(
        &Json::parse(r#"{"reports": [], "joint": true, "affected_loops": -4, "queued_admissions": 0, "latency": {"secs": 0, "nanos": 0}, "solver_decisions": 0, "solver_conflicts": 0}"#).unwrap()
    )
    .is_err(), "negative loop counts must be rejected");
    // Trace ids in the envelope: absent and null are fine, any non-integer
    // is a typed error on both envelope kinds — never a silent drop.
    assert_eq!(
        Request::parse_line(r#"{"id": 1, "trace": null, "request": {"type": "ping"}}"#)
            .unwrap()
            .trace,
        None
    );
    assert_eq!(
        Request::parse_line(r#"{"id": 1, "trace": -91052, "request": {"type": "metrics"}}"#)
            .unwrap()
            .trace,
        Some(-91_052)
    );
    for bad in [
        r#"{"id": 1, "trace": "envelope", "request": {"type": "ping"}}"#,
        r#"{"id": 1, "trace": 0.5, "request": {"type": "ping"}}"#,
        r#"{"id": 1, "trace": [91052], "request": {"type": "metrics"}}"#,
        r#"{"id": 1, "trace": {}, "request": {"type": "ping"}}"#,
    ] {
        assert!(
            Request::parse_line(bad).is_err(),
            "non-integer trace id accepted: {bad}"
        );
    }
    assert!(
        Response::parse_line(
            r#"{"id": 1, "trace": {}, "cached": false, "elapsed_us": 0, "ok": {}}"#
        )
        .is_err(),
        "non-integer response trace id must be rejected"
    );

    // Session snapshots cross daemons during migration, so their decoder
    // faces another daemon's (possibly corrupted) bytes. Mutate the valid
    // specimen member-by-member: typed errors, never panics or lenient
    // accepts.
    use tsn_online::wire::session_snapshot_from_json;
    let snapshot_line = specimens()
        .into_iter()
        .find(|(kind, _)| *kind == "session_snapshot")
        .expect("snapshot specimen")
        .1;
    let snapshot = Json::parse(&snapshot_line).expect("specimen parses");
    assert!(session_snapshot_from_json(&snapshot).is_ok());
    assert!(
        session_snapshot_from_json(&with_member(&snapshot, "session", Json::Int(7))).is_err(),
        "a non-object session must be rejected"
    );
    let session = snapshot.get("session").expect("warm specimen").clone();
    for (member, hostile) in [
        ("phase", Json::Arr(vec![Json::Int(2)])),
        ("activity", Json::Arr(vec![Json::from("hot")])),
        ("clauses", Json::Arr(vec![Json::Arr(vec![Json::Int(-1)])])),
        ("atoms", Json::Arr(vec![Json::Arr(vec![Json::Int(1)])])),
        ("var_inc", Json::from("fast")),
        ("bools", Json::Null),
    ] {
        assert!(
            session_snapshot_from_json(&with_member(
                &snapshot,
                "session",
                with_member(&session, member, hostile)
            ))
            .is_err(),
            "hostile session member {member:?} accepted"
        );
    }

    // Every member well-formed, but two atoms share one proxy. The solver
    // keeps one atom per proxy, so restoring it would silently drop a
    // constraint: a `migrate_in` carrying it must be refused.
    let mut proxies = session
        .get("atom_proxy")
        .and_then(Json::as_arr)
        .expect("warm session has atoms")
        .to_vec();
    proxies[1] = proxies[0].clone();
    let shared = with_member(
        &snapshot,
        "session",
        with_member(&session, "atom_proxy", Json::Arr(proxies)),
    );
    let line = format!(
        r#"{{"id": 1, "request": {{"type": "migrate_in", "tenant": "t", "snapshot": {shared}}}}}"#
    );
    let response = Service::new(ServiceConfig::default()).handle_line(&line);
    assert!(
        Response::parse_line(&response).unwrap().outcome.is_err(),
        "a session sharing one proxy between two atoms was restored: {response}"
    );
}

#[test]
fn retry_after_codec_round_trips_and_rejects_confusion() {
    // A shed rejection round-trips with its backoff hint intact.
    let shed = tsn_service::protocol::shed_response(
        7,
        Some(3),
        "overloaded: 9 jobs queued at watermark 8".to_string(),
        100,
    );
    let line = shed.to_line();
    assert!(
        line.contains(r#""retry_after_ms":100"#),
        "the hint must be on the wire: {line}"
    );
    let decoded = Response::parse_line(&line).expect("shed response round trips");
    assert_eq!(decoded.retry_after_ms, Some(100));
    assert_eq!(decoded.id, 7);
    assert_eq!(decoded.trace, Some(3));
    assert!(decoded.outcome.is_err());

    // Ordinary responses carry no retry_after_ms member at all — the
    // field must never perturb the byte-identical differentials.
    let plain = Response {
        id: 1,
        trace: None,
        cached: false,
        elapsed_us: 5,
        retry_after_ms: None,
        outcome: Ok(Json::obj([("type", Json::from("pong"))])),
    };
    let plain_line = plain.to_line();
    assert!(
        !plain_line.contains("retry_after_ms"),
        "absent hint must stay off the wire: {plain_line}"
    );
    assert_eq!(
        Response::parse_line(&plain_line)
            .expect("plain response round trips")
            .retry_after_ms,
        None
    );

    // Absent and null decode as None; any non-integer is a typed error.
    assert_eq!(
        Response::parse_line(
            r#"{"id": 1, "cached": false, "elapsed_us": 0, "retry_after_ms": null, "error": "overloaded"}"#
        )
        .expect("null hint is None")
        .retry_after_ms,
        None
    );
    for bad in [
        r#"{"id": 1, "cached": false, "elapsed_us": 0, "retry_after_ms": "soon", "error": "overloaded"}"#,
        r#"{"id": 1, "cached": false, "elapsed_us": 0, "retry_after_ms": 0.5, "error": "overloaded"}"#,
        r#"{"id": 1, "cached": false, "elapsed_us": 0, "retry_after_ms": [100], "error": "overloaded"}"#,
        r#"{"id": 1, "cached": false, "elapsed_us": 0, "retry_after_ms": {}, "error": "overloaded"}"#,
    ] {
        assert!(
            Response::parse_line(bad).is_err(),
            "non-integer retry_after_ms accepted: {bad}"
        );
    }
}

#[test]
fn negative_delays_are_rejected_at_every_boundary() {
    // With a negative link or forwarding delay a schedule's link releases
    // run backwards along its route, and `verify_schedule` accepts it. The
    // constructors accept any delay, so every decoder of outside input must
    // refuse a negative one.
    let negative = Time::from_millis(-5);
    let backwards_link = LinkSpec::new(100_000_000, negative);
    assert!(
        tsn_net::wire::link_spec_from_json(&tsn_net::wire::link_spec_to_json(backwards_link))
            .is_err(),
        "negative prop_ns accepted by the link decoder"
    );

    for problem in [
        figure1_problem(backwards_link, Time::from_micros(5)),
        figure1_problem(LinkSpec::fast_ethernet(), negative),
    ] {
        // A fresh daemon each time, so no tenant is already open.
        let service = Service::new(ServiceConfig::default());
        assert!(
            tsn_synthesis::wire::problem_from_json(&tsn_synthesis::wire::problem_to_json(&problem))
                .is_err(),
            "negative delay accepted by the problem decoder"
        );
        let open_tenant = RequestBody::OpenTenant {
            tenant: "backwards".into(),
            topology: problem.topology().clone(),
            forwarding_delay: problem.forwarding_delay(),
            config: None,
        };
        let synthesize = RequestBody::Synthesize {
            problem,
            config: None,
            backend: Backend::Auto,
        };
        for body in [open_tenant, synthesize] {
            let line = Request {
                id: 1,
                trace: None,
                body,
            }
            .to_line();
            assert!(Request::parse_line(&line).is_err(), "accepted: {line}");
            let response = Response::parse_line(&service.handle_line(&line)).unwrap();
            assert!(response.outcome.is_err(), "served: {line}");
        }
    }

    let snapshot = OnlineEngine::new(
        builders::figure1_example(LinkSpec::fast_ethernet()).topology,
        negative,
        OnlineConfig::default(),
    )
    .export_session();
    assert!(
        tsn_online::wire::session_snapshot_from_json(&tsn_online::wire::session_snapshot_to_json(
            &snapshot
        ))
        .is_err(),
        "negative forwarding_delay accepted by the snapshot decoder"
    );
}

#[test]
fn absurd_stage_counts_are_refused_before_anything_is_allocated() {
    // Both synthesizers hand `stages` to `partition_into_stages`, which
    // allocates one slice per stage before any solve. A request asking for
    // 10^12 stages used to abort the daemon on a 24 TB allocation, which no
    // error path can catch: the decoders must refuse it.
    let problem = figure1_problem(LinkSpec::fast_ethernet(), Time::from_micros(5));
    let absurd = SynthesisConfig {
        stages: 1_000_000_000_000,
        ..SynthesisConfig::default()
    };
    let service = Service::new(ServiceConfig::default());
    for backend in [Backend::Auto, Backend::Monolithic, Backend::Partitioned] {
        let line = Request {
            id: 1,
            trace: None,
            body: RequestBody::Synthesize {
                problem: problem.clone(),
                config: Some(absurd.clone()),
                backend,
            },
        }
        .to_line();
        let response = Response::parse_line(&service.handle_line(&line)).unwrap();
        assert!(response.outcome.is_err(), "served: {line}");
    }
    let config = tsn_synthesis::wire::config_to_json(&absurd);
    assert!(tsn_synthesis::wire::config_from_json(&config).is_err());
    let online = OnlineConfig {
        synthesis: absurd.clone(),
        ..OnlineConfig::default()
    };
    assert!(
        tsn_online::wire::online_config_from_json(&tsn_online::wire::online_config_to_json(
            &online
        ))
        .is_err()
    );
    // Every stage count the repository itself uses still decodes.
    for stages in [0, 1, 2, 5, 14] {
        let config = SynthesisConfig {
            stages,
            ..SynthesisConfig::default()
        };
        let back =
            tsn_synthesis::wire::config_from_json(&tsn_synthesis::wire::config_to_json(&config))
                .unwrap();
        assert_eq!(back.stages, stages);
    }
}

#[test]
fn a_four_mebibyte_string_member_is_answered_in_linear_time() {
    // The parser used to re-validate the rest of the line once per string
    // character. Both event loops parse on their loop thread, so one line
    // like this stalled every connection of a daemon or a router for tens
    // of minutes. Now it is a typed error within a few seconds even in a
    // debug build.
    use std::time::{Duration, Instant};
    const BOUND: Duration = Duration::from_secs(5);
    let backend = "aé\"↦\\".repeat(1 << 19);
    assert_eq!(backend.len(), 4 << 20);
    let envelope = Request {
        id: 5,
        trace: Some(9),
        body: RequestBody::Synthesize {
            problem: figure1_problem(LinkSpec::fast_ethernet(), Time::from_micros(5)),
            config: None,
            backend: Backend::Auto,
        },
    }
    .to_json();
    let request = envelope.get("request").expect("envelope has a body");
    let line = with_member(
        &envelope,
        "request",
        with_member(request, "backend", Json::from(backend)),
    )
    .to_string();
    let answered = |what: &str, started: Instant, response: &str| {
        let took = started.elapsed();
        let response = Response::parse_line(response).expect("a typed response");
        assert_eq!((response.id, response.trace), (5, Some(9)), "{what}");
        let reason = response.outcome.expect_err("an unknown backend is refused");
        assert!(reason.contains("unknown backend"), "{what}");
        assert!(took < BOUND, "{what} took {took:?} to answer");
    };

    let service = Service::new(ServiceConfig::default());
    let started = Instant::now();
    answered("the daemon", started, &service.handle_line(&line));

    // The router parses the line, hashes its body, forwards it to the shard
    // and relays the shard's answer.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a shard");
    let shard_addr = listener.local_addr().expect("shard address").to_string();
    let router = tsn_router::Router::new(tsn_router::RouterConfig {
        shards: vec![shard_addr],
    })
    .expect("a one-shard router");
    std::thread::scope(|scope| {
        let shard = scope.spawn(|| tsn_service::serve(&service, listener));
        let started = Instant::now();
        answered("the router", started, &router.handle_line(&line));
        let shutdown = Request {
            id: 6,
            trace: None,
            body: RequestBody::Shutdown,
        }
        .to_line();
        assert!(Response::parse_line(&router.handle_line(&shutdown))
            .expect("a typed response")
            .outcome
            .is_ok());
        shard
            .join()
            .expect("shard thread")
            .expect("shard accept loop");
    });
}

/// A copy of `doc` with one member replaced (or appended).
fn with_member(doc: &Json, key: &str, value: Json) -> Json {
    let Json::Obj(members) = doc else {
        panic!("specimen is not an object");
    };
    let mut members = members.clone();
    match members.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => members.push((key.to_string(), value)),
    }
    Json::Obj(members)
}

#[test]
fn garbled_structured_log_lines_never_panic() {
    // The structured diagnostic log is read back by tools (and by the
    // daemon's own `health` tail), so its line parser faces the same
    // hostility as the wire decoders: truncations and garbled bytes must
    // surface as typed `LogParseError`s, never panics.
    use tsn_telemetry::log::LogEvent;
    let line = log_specimen().to_line();
    let parsed = LogEvent::parse_line(&line).expect("specimen parses");
    assert_eq!(parsed.to_line(), line, "canonical line round-trips");
    // Every char-boundary strict prefix is an incomplete document.
    for end in 0..line.len() {
        if !line.is_char_boundary(end) {
            continue;
        }
        assert!(
            LogEvent::parse_line(&line[..end]).is_err(),
            "strict prefix accepted at byte {end}"
        );
    }
    // Single-byte garbling at every offset: any `Result`, no panic.
    let bytes = line.as_bytes();
    for at in 0..bytes.len() {
        for replacement in [b'"', b'{', b'}', b'[', b'0', b'x', b',', 0xFF] {
            let mut garbled = bytes.to_vec();
            garbled[at] = replacement;
            let garbled = String::from_utf8_lossy(&garbled).into_owned();
            let _ = LogEvent::parse_line(&garbled);
        }
    }
    // Hand-written hostile lines: typed errors, not lenient accepts.
    for bad in [
        "",
        "null",
        "[]",
        "\"a bare string\"",
        r#"{"ts_ns": -1, "level": "info", "target": "t", "msg": "m"}"#,
        r#"{"ts_ns": 0, "level": "shout", "target": "t", "msg": "m"}"#,
        r#"{"ts_ns": 0, "level": "info", "target": 7, "msg": "m"}"#,
        r#"{"ts_ns": 0, "level": "info", "target": "t"}"#,
        r#"{"ts_ns": 0, "level": "info", "target": "t", "msg": "m", "fields": []}"#,
        r#"{"ts_ns": 0, "level": "info", "target": "t", "msg": "m"} trailing"#,
    ] {
        assert!(LogEvent::parse_line(bad).is_err(), "accepted: {bad:?}");
    }
}

/// Container nesting of a document (a scalar is 0, `[]` is 1).
fn nesting(doc: &Json) -> usize {
    match doc {
        Json::Arr(items) => 1 + items.iter().map(nesting).max().unwrap_or(0),
        Json::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| nesting(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn every_specimen_round_trips_before_corruption() {
    // Sanity: the corpus is built from valid lines (otherwise the fuzzing
    // above would be vacuous) — and every document the workspace emits
    // sits in the lower half of the parser's depth budget.
    for (kind, line) in specimens() {
        let doc = Json::parse(&line).unwrap_or_else(|e| panic!("{kind}: not valid JSON: {e}"));
        let depth = nesting(&doc);
        assert!(
            depth <= tsn_net::json::MAX_DEPTH / 2,
            "{kind}: specimen nests {depth} deep"
        );
    }
}

#[test]
fn depth_bombs_are_typed_errors_not_stack_overflows() {
    // One 100 KB line of open brackets used to recurse the parser off the
    // end of the thread's stack and abort the process. Every line-level
    // entry point must answer with its typed too-deep error instead.
    use tsn_net::json::JsonErrorKind;
    use tsn_telemetry::log::{LogEvent, LogParseError};
    const N: usize = 100_000;
    let bombs = [
        "[".repeat(N),
        "{\"a\":".repeat(N),
        format!(
            r#"{{"id": 7, "trace": 3, "request": {{"type": "event", "tenant": "t", "event": {}{}}}}}"#,
            "[".repeat(N),
            "]".repeat(N)
        ),
    ];
    for bomb in &bombs {
        let head = &bomb[..40];
        assert_eq!(
            Json::parse(bomb).unwrap_err().kind,
            JsonErrorKind::TooDeep,
            "{head}"
        );
        assert_eq!(
            Request::parse_line(bomb).unwrap_err().kind,
            JsonErrorKind::TooDeep,
            "{head}"
        );
        assert_eq!(
            Response::parse_line(bomb).unwrap_err().kind,
            JsonErrorKind::TooDeep,
            "{head}"
        );
        assert_eq!(
            LogEvent::parse_line(bomb),
            Err(LogParseError::TooDeep),
            "{head}"
        );
        assert_eq!(decode_everything(bomb), 0, "{head}");
    }
}
