//! The daemon's wire protocol: newline-delimited JSON request and response
//! envelopes.
//!
//! One request per line, one response per line, always in the same order per
//! connection. Every document is emitted by [`tsn_net::json::Json`]'s
//! printer, so strings (tenant names, application names, error messages) are
//! escaped through the shared `json_escape` routine and a document never
//! contains a raw newline — the line framing is safe for arbitrary content.
//!
//! # Requests
//!
//! `{"id": 7, "request": {"type": "...", ...}}` where the request is one of:
//!
//! | `type`         | members                                               |
//! |----------------|-------------------------------------------------------|
//! | `ping`         | —                                                     |
//! | `synthesize`   | `problem`, `config` (or `null`), `backend`            |
//! | `open_tenant`  | `tenant`, `topology`, `forwarding_delay`, `config`    |
//! | `event`        | `tenant`, `event` (a `tsn_online` network event)      |
//! | `event_batch`  | `tenant`, `events` (an array of network events)       |
//! | `tenant_state` | `tenant`                                              |
//! | `close_tenant` | `tenant`                                              |
//! | `migrate_out`  | `tenant`                                              |
//! | `migrate_in`   | `tenant`, `snapshot` (a session snapshot)             |
//! | `stats`        | —                                                     |
//! | `metrics`      | —                                                     |
//! | `health`       | —                                                     |
//! | `shutdown`     | —                                                     |
//!
//! The envelope may carry an optional integer `trace` member — a
//! client-chosen trace id echoed verbatim in the response envelope and
//! attached to the daemon-side flight-recorder spans of the request, so a
//! client-observed latency can be correlated with the server's chrome
//! trace:
//!
//! ```text
//! {"id": 7, "trace": 91052, "request": {"type": "ping"}}
//! ```
//!
//! # Responses
//!
//! `{"id": 7, "cached": false, "elapsed_us": 1234, "ok": {...}}` on success,
//! `{"id": 7, "cached": false, "elapsed_us": 12, "error": "..."}` on
//! failure (plus `"trace"` right after `"id"` when the request carried
//! one). The `ok` payload is **deterministic**: every wall-clock duration
//! inside reports is zeroed (elapsed time lives in the envelope's
//! `elapsed_us`), so identical requests produce byte-identical payloads —
//! the property the result cache and the in-process differential tests rely
//! on. Trace ids and timings live only in the envelope and the `metrics`
//! exposition, never in payloads, so telemetry cannot perturb them.
//!
//! # Metrics
//!
//! A `metrics` request answers with the process-wide
//! [`tsn_telemetry`] registry rendered as Prometheus text exposition:
//!
//! ```text
//! --> {"id":9,"request":{"type":"metrics"}}
//! <-- {"id":9,"cached":false,"elapsed_us":38,"ok":{"type":"metrics","exposition":"# TYPE requests_total counter\nrequests_total 37\n..."}}
//! ```
//!
//! The payload is a live snapshot (inherently nondeterministic), so
//! `metrics` — like `stats` — is excluded from byte-level differentials and
//! never cached. Since PR 8 the exposition also carries **labeled**
//! per-tenant series (`service_tenant_requests_total{tenant="..."}`,
//! `service_tenant_solve_seconds{tenant="..."}`, cache-outcome counters and
//! queue/worker gauges), parseable with `tsn_telemetry::sample_value_with`.
//!
//! # Health
//!
//! A `health` request answers with a live introspection snapshot of the
//! daemon:
//!
//! ```text
//! --> {"id":11,"request":{"type":"health"}}
//! <-- {"id":11,"cached":false,"elapsed_us":12,"ok":{"type":"health","shard_id":0,"uptime_us":81273,"tenants":3,"sessions":2,"workers":8,"workers_busy":2,"queue_depth":0,"requests":417,"errors":2,"recent_log":[...]}}
//! ```
//!
//! `shard_id` names the daemon (`tsn-serviced --shard-id`, 0 by default) so
//! a router fronting a fleet can tell its shards apart; `sessions` counts
//! tenants currently holding a warm solver session — the occupancy signal
//! the router's `directory` aggregates.
//!
//! `recent_log` is the tail (most recent last, at most 16 entries) of the
//! daemon's in-memory structured-log ring ([`tsn_telemetry::log`]); each
//! entry mirrors one JSONL log event:
//!
//! | member   | meaning                                                    |
//! |----------|------------------------------------------------------------|
//! | `ts_ns`  | logger-clock nanoseconds at emission                       |
//! | `level`  | `"debug"` / `"info"` / `"warn"` / `"error"`                |
//! | `target` | emitting subsystem, e.g. `"service.request"`               |
//! | `msg`    | human-readable message                                     |
//! | `fields` | typed key=value context (tenant, reason, …; omitted if empty) |
//!
//! The same event schema is what `tsn-serviced --log-out FILE` appends, one
//! JSON object per line. Like `metrics`, `health` is a live snapshot:
//! excluded from byte-level differentials and never cached.

use std::fmt::{self, Write as _};
use std::time::Duration;

use tsn_net::json::{bad, get_bool, get_i64, get_str, write_json_escaped, Json, JsonError};
use tsn_net::wire::{delay_from_json, time_to_json, topology_from_json, topology_to_json};
use tsn_net::{Time, Topology};
use tsn_online::wire::{
    batch_report_to_json, event_from_json, event_report_to_json, event_to_json,
    online_config_from_json, online_config_to_json, trace_from_json, trace_to_json,
};
use tsn_online::{BatchReport, EventReport, NetworkEvent, OnlineConfig, OnlineEngine};
use tsn_synthesis::wire::{
    config_from_json, config_to_json, problem_from_json, problem_to_json, report_to_json,
};
use tsn_synthesis::{SynthesisConfig, SynthesisProblem, SynthesisReport};

/// Which solver backend a `synthesize` request is dispatched to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Let the service decide by stream count (the configured threshold).
    #[default]
    Auto,
    /// Force the monolithic [`tsn_synthesis::Synthesizer`].
    Monolithic,
    /// Force the partitioned [`tsn_scale::ScaleSynthesizer`].
    Partitioned,
}

impl Backend {
    fn as_str(self) -> &'static str {
        match self {
            Backend::Auto => "auto",
            Backend::Monolithic => "monolithic",
            Backend::Partitioned => "partitioned",
        }
    }

    fn from_str(s: &str) -> Result<Self, JsonError> {
        match s {
            "auto" => Ok(Backend::Auto),
            "monolithic" => Ok(Backend::Monolithic),
            "partitioned" => Ok(Backend::Partitioned),
            other => Err(bad(format!("unknown backend {other:?}"))),
        }
    }
}

/// The body of one request.
#[derive(Debug, Clone)]
pub enum RequestBody {
    /// Liveness probe; answered with `pong` without touching any state.
    Ping,
    /// One-shot synthesis of a full problem (stateless; cacheable).
    Synthesize {
        /// The problem to solve.
        problem: SynthesisProblem,
        /// Per-request synthesis configuration; `None` uses the service
        /// default.
        config: Option<SynthesisConfig>,
        /// Backend selection.
        backend: Backend,
    },
    /// Creates a named tenant: a long-lived online engine session.
    OpenTenant {
        /// The tenant name (any string; escaped on the wire).
        tenant: String,
        /// The tenant's network.
        topology: Topology,
        /// Switch forwarding delay of the tenant's network.
        forwarding_delay: Time,
        /// Per-tenant engine configuration; `None` uses the service
        /// default.
        config: Option<OnlineConfig>,
    },
    /// Routes one network event through a tenant's engine.
    Event {
        /// The tenant name.
        tenant: String,
        /// The event to process.
        event: NetworkEvent,
    },
    /// Routes a whole window of events through a tenant's engine as **one
    /// joint batch** ([`tsn_online::OnlineEngine::process_batch`]): the
    /// affected loops of every event are coalesced and committed with a
    /// single incremental solve, falling back to sequential processing when
    /// the joint solve rejects. One request, one `batch_processed`
    /// response carrying the whole [`BatchReport`].
    EventBatch {
        /// The tenant name.
        tenant: String,
        /// The events of the window, in order.
        events: Vec<NetworkEvent>,
    },
    /// Reports a tenant's live loops and current schedule.
    TenantState {
        /// The tenant name.
        tenant: String,
    },
    /// Drops a tenant and its engine session.
    CloseTenant {
        /// The tenant name.
        tenant: String,
    },
    /// Exports a tenant's complete session as a
    /// [`SessionSnapshot`](tsn_online::SessionSnapshot) and removes the
    /// tenant from this daemon — the donor half of a warm-session
    /// migration. The response carries the snapshot; the tenant no longer
    /// exists here afterwards.
    MigrateOut {
        /// The tenant name.
        tenant: String,
    },
    /// Installs a tenant from a session snapshot — the receiving half of a
    /// warm-session migration. Fails if the tenant already exists or the
    /// snapshot is inconsistent.
    MigrateIn {
        /// The tenant name.
        tenant: String,
        /// The donor's exported session (boxed: snapshots dwarf every other
        /// request variant, and boxing keeps `RequestBody` itself small).
        snapshot: Box<tsn_online::SessionSnapshot>,
    },
    /// Service-level counters (tenants, requests, cache hits).
    Stats,
    /// The process-wide telemetry registry as Prometheus text exposition.
    Metrics,
    /// Live daemon introspection: uptime, tenant count, worker occupancy,
    /// queue depth, and the recent structured-log tail (see the module-level
    /// *Health* section for the payload schema).
    Health,
    /// Asks the daemon to stop accepting connections and drain.
    Shutdown,
}

impl RequestBody {
    /// The tenant this request must serialize against, if any. Requests
    /// with the same key are executed one at a time in submission order;
    /// requests without a key run freely in parallel.
    pub fn tenant(&self) -> Option<&str> {
        match self {
            RequestBody::OpenTenant { tenant, .. }
            | RequestBody::Event { tenant, .. }
            | RequestBody::EventBatch { tenant, .. }
            | RequestBody::TenantState { tenant }
            | RequestBody::CloseTenant { tenant }
            | RequestBody::MigrateOut { tenant }
            | RequestBody::MigrateIn { tenant, .. } => Some(tenant),
            _ => None,
        }
    }

    /// Whether responses to this request may be served from the result
    /// cache (only stateless solves are).
    pub fn cacheable(&self) -> bool {
        matches!(self, RequestBody::Synthesize { .. })
    }

    /// The wire `type` string of this body — also the label the daemon's
    /// structured-log and per-type metrics use to identify the request.
    pub fn type_name(&self) -> &'static str {
        match self {
            RequestBody::Ping => "ping",
            RequestBody::Synthesize { .. } => "synthesize",
            RequestBody::OpenTenant { .. } => "open_tenant",
            RequestBody::Event { .. } => "event",
            RequestBody::EventBatch { .. } => "event_batch",
            RequestBody::TenantState { .. } => "tenant_state",
            RequestBody::CloseTenant { .. } => "close_tenant",
            RequestBody::MigrateOut { .. } => "migrate_out",
            RequestBody::MigrateIn { .. } => "migrate_in",
            RequestBody::Stats => "stats",
            RequestBody::Metrics => "metrics",
            RequestBody::Health => "health",
            RequestBody::Shutdown => "shutdown",
        }
    }

    /// Encodes the body.
    pub fn to_json(&self) -> Json {
        match self {
            RequestBody::Ping => Json::obj([("type", Json::from("ping"))]),
            RequestBody::Synthesize {
                problem,
                config,
                backend,
            } => Json::obj([
                ("type", Json::from("synthesize")),
                ("problem", problem_to_json(problem)),
                ("config", config.as_ref().map_or(Json::Null, config_to_json)),
                ("backend", Json::from(backend.as_str())),
            ]),
            RequestBody::OpenTenant {
                tenant,
                topology,
                forwarding_delay,
                config,
            } => Json::obj([
                ("type", Json::from("open_tenant")),
                ("tenant", Json::from(tenant.as_str())),
                ("topology", topology_to_json(topology)),
                ("forwarding_delay", time_to_json(*forwarding_delay)),
                (
                    "config",
                    config.as_ref().map_or(Json::Null, online_config_to_json),
                ),
            ]),
            RequestBody::Event { tenant, event } => Json::obj([
                ("type", Json::from("event")),
                ("tenant", Json::from(tenant.as_str())),
                ("event", event_to_json(event)),
            ]),
            RequestBody::EventBatch { tenant, events } => Json::obj([
                ("type", Json::from("event_batch")),
                ("tenant", Json::from(tenant.as_str())),
                ("events", trace_to_json(events)),
            ]),
            RequestBody::TenantState { tenant } => Json::obj([
                ("type", Json::from("tenant_state")),
                ("tenant", Json::from(tenant.as_str())),
            ]),
            RequestBody::CloseTenant { tenant } => Json::obj([
                ("type", Json::from("close_tenant")),
                ("tenant", Json::from(tenant.as_str())),
            ]),
            RequestBody::MigrateOut { tenant } => Json::obj([
                ("type", Json::from("migrate_out")),
                ("tenant", Json::from(tenant.as_str())),
            ]),
            RequestBody::MigrateIn { tenant, snapshot } => Json::obj([
                ("type", Json::from("migrate_in")),
                ("tenant", Json::from(tenant.as_str())),
                (
                    "snapshot",
                    tsn_online::wire::session_snapshot_to_json(snapshot),
                ),
            ]),
            RequestBody::Stats => Json::obj([("type", Json::from("stats"))]),
            RequestBody::Metrics => Json::obj([("type", Json::from("metrics"))]),
            RequestBody::Health => Json::obj([("type", Json::from("health"))]),
            RequestBody::Shutdown => Json::obj([("type", Json::from("shutdown"))]),
        }
    }

    /// Decodes a body.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for unknown request types or malformed
    /// members.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        match get_str(json, "type")? {
            "ping" => Ok(RequestBody::Ping),
            "synthesize" => Ok(RequestBody::Synthesize {
                problem: problem_from_json(json.field("problem")?)?,
                config: json.opt("config").map(config_from_json).transpose()?,
                backend: json
                    .opt("backend")
                    .map(|v| {
                        v.as_str()
                            .ok_or_else(|| bad("backend is not a string"))
                            .and_then(Backend::from_str)
                    })
                    .transpose()?
                    .unwrap_or_default(),
            }),
            "open_tenant" => Ok(RequestBody::OpenTenant {
                tenant: get_str(json, "tenant")?.to_string(),
                topology: topology_from_json(json.field("topology")?)?,
                forwarding_delay: delay_from_json(json, "forwarding_delay")?,
                config: json
                    .opt("config")
                    .map(online_config_from_json)
                    .transpose()?,
            }),
            "event" => Ok(RequestBody::Event {
                tenant: get_str(json, "tenant")?.to_string(),
                event: event_from_json(json.field("event")?)?,
            }),
            "event_batch" => Ok(RequestBody::EventBatch {
                tenant: get_str(json, "tenant")?.to_string(),
                events: trace_from_json(json.field("events")?)?,
            }),
            "tenant_state" => Ok(RequestBody::TenantState {
                tenant: get_str(json, "tenant")?.to_string(),
            }),
            "close_tenant" => Ok(RequestBody::CloseTenant {
                tenant: get_str(json, "tenant")?.to_string(),
            }),
            "migrate_out" => Ok(RequestBody::MigrateOut {
                tenant: get_str(json, "tenant")?.to_string(),
            }),
            "migrate_in" => Ok(RequestBody::MigrateIn {
                tenant: get_str(json, "tenant")?.to_string(),
                snapshot: Box::new(tsn_online::wire::session_snapshot_from_json(
                    json.field("snapshot")?,
                )?),
            }),
            "stats" => Ok(RequestBody::Stats),
            "metrics" => Ok(RequestBody::Metrics),
            "health" => Ok(RequestBody::Health),
            "shutdown" => Ok(RequestBody::Shutdown),
            other => Err(bad(format!("unknown request type {other:?}"))),
        }
    }
}

/// One request envelope: a client-chosen id plus the body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: i64,
    /// Optional client-chosen trace id: echoed in the response envelope and
    /// attached to the daemon-side flight-recorder spans of this request.
    /// Lives only in the envelope — never in payloads.
    pub trace: Option<i64>,
    /// The request body.
    pub body: RequestBody,
}

impl Request {
    /// Encodes the envelope.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("id".to_string(), Json::Int(self.id))];
        if let Some(trace) = self.trace {
            pairs.push(("trace".to_string(), Json::Int(trace)));
        }
        pairs.push(("request".to_string(), self.body.to_json()));
        Json::Obj(pairs)
    }

    /// The envelope as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Decodes an envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for malformed envelopes or bodies.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(Request {
            id: get_i64(json, "id")?,
            trace: json.opt_i64("trace")?,
            body: RequestBody::from_json(json.field("request")?)?,
        })
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for text that is not a valid envelope.
    pub fn parse_line(line: &str) -> Result<Self, JsonError> {
        Request::from_json(&Json::parse(line.trim())?)
    }
}

/// Best-effort `(id, trace)` of an envelope that parsed as JSON but may not
/// decode as a [`Request`] — what an error response echoes so the client can
/// still correlate it. Either is `None` when absent or not an integer; each
/// server substitutes its own default id.
pub fn envelope_ids(doc: &Json) -> (Option<i64>, Option<i64>) {
    let member = |key| doc.get(key).and_then(Json::as_i64);
    (member("id"), member("trace"))
}

/// One response envelope.
#[derive(Debug, Clone)]
pub struct Response {
    /// The id of the request this answers.
    pub id: i64,
    /// The request's trace id, echoed when one was sent.
    pub trace: Option<i64>,
    /// Whether the payload came from the result cache.
    pub cached: bool,
    /// Wall-clock service time in microseconds (the only nondeterministic
    /// member; excluded from byte-level comparisons).
    pub elapsed_us: i64,
    /// Load-shedding backoff hint: present only on `retry_after`
    /// rejections, where it carries the number of milliseconds the client
    /// should wait before retrying the (unprocessed) request. Absent on
    /// every other response, so ordinary payloads stay byte-identical.
    pub retry_after_ms: Option<i64>,
    /// The deterministic result payload, or an error message.
    pub outcome: Result<Json, String>,
}

impl Response {
    /// Encodes the envelope.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![("id".to_string(), Json::Int(self.id))];
        if let Some(trace) = self.trace {
            pairs.push(("trace".to_string(), Json::Int(trace)));
        }
        pairs.push(("cached".to_string(), Json::Bool(self.cached)));
        pairs.push(("elapsed_us".to_string(), Json::Int(self.elapsed_us)));
        if let Some(ms) = self.retry_after_ms {
            pairs.push(("retry_after_ms".to_string(), Json::Int(ms)));
        }
        match &self.outcome {
            Ok(payload) => pairs.push(("ok".to_string(), payload.clone())),
            Err(message) => pairs.push(("error".to_string(), Json::from(message.as_str()))),
        }
        Json::Obj(pairs)
    }

    /// The envelope as one wire line (no trailing newline): the text of
    /// [`to_json`](Response::to_json), printed without copying the payload
    /// into a fresh tree first.
    pub fn to_line(&self) -> String {
        let mut line = String::new();
        self.write_line(&mut line)
            .expect("writing to a String cannot fail");
        line
    }

    fn write_line(&self, out: &mut String) -> fmt::Result {
        write!(out, "{{\"id\":{}", self.id)?;
        if let Some(trace) = self.trace {
            write!(out, ",\"trace\":{trace}")?;
        }
        write!(
            out,
            ",\"cached\":{},\"elapsed_us\":{}",
            self.cached, self.elapsed_us
        )?;
        if let Some(ms) = self.retry_after_ms {
            write!(out, ",\"retry_after_ms\":{ms}")?;
        }
        match &self.outcome {
            Ok(payload) => write!(out, ",\"ok\":{payload}")?,
            Err(message) => {
                out.push_str(",\"error\":");
                write_json_escaped(out, message)?;
            }
        }
        out.write_char('}')
    }

    /// Decodes an envelope.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when the envelope is malformed (neither `ok`
    /// nor `error` present, or wrong member types).
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        let outcome = match (json.get("ok"), json.get("error")) {
            (Some(payload), None) => Ok(payload.clone()),
            (None, Some(Json::Str(message))) => Err(message.clone()),
            _ => {
                return Err(bad(
                    "response carries neither an \"ok\" payload nor an \"error\" string",
                ))
            }
        };
        Ok(Response {
            id: get_i64(json, "id")?,
            trace: json.opt_i64("trace")?,
            cached: get_bool(json, "cached")?,
            elapsed_us: get_i64(json, "elapsed_us")?,
            retry_after_ms: json.opt_i64("retry_after_ms")?,
            outcome,
        })
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for text that is not a valid envelope.
    pub fn parse_line(line: &str) -> Result<Self, JsonError> {
        Response::from_json(&Json::parse(line.trim())?)
    }
}

/// Builds the typed load-shedding rejection for a request the daemon
/// refused to queue: an `error` outcome carrying `retry_after_ms` so the
/// client knows the request was never processed and when to retry.
pub fn shed_response(
    id: i64,
    trace: Option<i64>,
    message: String,
    retry_after_ms: i64,
) -> Response {
    Response {
        id,
        trace,
        cached: false,
        elapsed_us: 0,
        retry_after_ms: Some(retry_after_ms),
        outcome: Err(message),
    }
}

/// A [`SynthesisReport`] with every wall-clock duration zeroed — the
/// deterministic form served on the wire (elapsed time is reported in the
/// response envelope instead).
pub fn zeroed_report(report: &SynthesisReport) -> SynthesisReport {
    let mut out = report.clone();
    out.total_time = Duration::ZERO;
    for stage in &mut out.stages {
        stage.solve_time = Duration::ZERO;
    }
    out
}

/// The deterministic result payload for a processed event: the engine's
/// report with the wall-clock latency zeroed.
pub fn event_result_json(report: &EventReport) -> Json {
    let mut canonical = report.clone();
    canonical.latency = Duration::ZERO;
    Json::obj([
        ("type", Json::from("event_processed")),
        ("report", event_report_to_json(&canonical)),
    ])
}

/// The deterministic result payload for a processed event batch: the
/// engine's [`BatchReport`] with every wall-clock latency (batch-level and
/// per-event) zeroed.
pub fn batch_result_json(report: &BatchReport) -> Json {
    let mut canonical = report.clone();
    canonical.latency = Duration::ZERO;
    for event in &mut canonical.reports {
        event.latency = Duration::ZERO;
    }
    Json::obj([
        ("type", Json::from("batch_processed")),
        ("report", batch_report_to_json(&canonical)),
    ])
}

/// The deterministic result payload for a tenant-state query.
pub fn tenant_state_json(tenant: &str, engine: &OnlineEngine) -> Json {
    let live = Json::Arr(
        engine
            .live_ids()
            .iter()
            .map(|id| Json::Int(id.0 as i64))
            .collect(),
    );
    let report = engine
        .report()
        .map_or(Json::Null, |r| report_to_json(&zeroed_report(&r)));
    Json::obj([
        ("type", Json::from("tenant_state")),
        ("tenant", Json::from(tenant)),
        ("live", live),
        ("hyperperiod", time_to_json(engine.hyperperiod())),
        ("report", report),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec};
    use tsn_online::AppId;

    fn sample_problem() -> SynthesisProblem {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        p.add_application(
            "loop-0",
            net.sensors[0],
            net.controllers[0],
            Time::from_millis(10),
            1500,
            PiecewiseLinearBound::single_segment(2.0, 0.018),
        )
        .unwrap();
        p
    }

    #[test]
    fn requests_round_trip() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let requests = vec![
            Request {
                id: 0,
                trace: None,
                body: RequestBody::Ping,
            },
            Request {
                id: 99,
                trace: Some(7_654_321),
                body: RequestBody::Ping,
            },
            Request {
                id: 1,
                trace: None,
                body: RequestBody::Synthesize {
                    problem: sample_problem(),
                    config: Some(SynthesisConfig::automotive()),
                    backend: Backend::Partitioned,
                },
            },
            Request {
                id: 2,
                trace: None,
                body: RequestBody::Synthesize {
                    problem: sample_problem(),
                    config: None,
                    backend: Backend::Auto,
                },
            },
            Request {
                id: 3,
                trace: None,
                body: RequestBody::OpenTenant {
                    tenant: "plant \"A\"\n".to_string(),
                    topology: net.topology.clone(),
                    forwarding_delay: Time::from_micros(5),
                    config: Some(OnlineConfig::default()),
                },
            },
            Request {
                id: 4,
                trace: None,
                body: RequestBody::Event {
                    tenant: "plant \"A\"\n".to_string(),
                    event: NetworkEvent::RemoveApp { app: AppId(7) },
                },
            },
            Request {
                id: 5,
                trace: None,
                body: RequestBody::TenantState {
                    tenant: "t".to_string(),
                },
            },
            Request {
                id: 45,
                trace: None,
                body: RequestBody::EventBatch {
                    tenant: "plant \"A\"\n".to_string(),
                    events: vec![
                        NetworkEvent::RemoveApp { app: AppId(7) },
                        NetworkEvent::LinkDown {
                            link: tsn_net::LinkId::new(2),
                        },
                        NetworkEvent::LinkUp {
                            link: tsn_net::LinkId::new(2),
                        },
                    ],
                },
            },
            Request {
                id: 6,
                trace: None,
                body: RequestBody::CloseTenant {
                    tenant: "t".to_string(),
                },
            },
            Request {
                id: 12,
                trace: None,
                body: RequestBody::MigrateOut {
                    tenant: "plant \"A\"\n".to_string(),
                },
            },
            Request {
                id: 13,
                trace: Some(5),
                body: RequestBody::MigrateIn {
                    tenant: "plant \"A\"\n".to_string(),
                    snapshot: Box::new(
                        OnlineEngine::new(
                            net.topology.clone(),
                            Time::from_micros(5),
                            OnlineConfig::default(),
                        )
                        .export_session(),
                    ),
                },
            },
            Request {
                id: 7,
                trace: None,
                body: RequestBody::Stats,
            },
            Request {
                id: 9,
                trace: Some(88),
                body: RequestBody::Metrics,
            },
            Request {
                id: 11,
                trace: Some(19),
                body: RequestBody::Health,
            },
            Request {
                id: 8,
                trace: None,
                body: RequestBody::Shutdown,
            },
        ];
        for request in &requests {
            let line = request.to_line();
            assert!(!line.contains('\n'), "line framing broken: {line}");
            let back = Request::parse_line(&line).unwrap();
            assert_eq!(back.to_line(), line);
            assert_eq!(back.id, request.id);
            assert_eq!(
                back.body.tenant(),
                request.body.tenant(),
                "dispatch key must survive the wire"
            );
            assert_eq!(back.body.cacheable(), request.body.cacheable());
            let encoded = back.body.to_json();
            assert_eq!(
                encoded.get("type").and_then(Json::as_str),
                Some(back.body.type_name()),
                "type_name must match the wire type"
            );
        }
    }

    #[test]
    fn log_events_encode_like_their_jsonl_lines() {
        use tsn_telemetry::log::{Level, LogEvent, Value};
        let event = LogEvent {
            ts_ns: 5_000,
            level: Level::Warn,
            target: "service.request".to_string(),
            message: "rejected".to_string(),
            fields: vec![
                ("tenant".to_string(), Value::Str("plant \"A\"".to_string())),
                ("attempt".to_string(), Value::Int(2)),
                ("fatal".to_string(), Value::Bool(false)),
                ("ratio".to_string(), Value::Float(2.0)),
            ],
        };
        // The health-payload encoding and the JSONL sink format are the
        // same document.
        assert_eq!(event.to_json().to_string(), event.to_line());
        let bare = LogEvent {
            fields: Vec::new(),
            ..event
        };
        assert_eq!(bare.to_json().to_string(), bare.to_line());
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response {
                id: 9,
                trace: None,
                cached: true,
                elapsed_us: 42,
                retry_after_ms: None,
                outcome: Ok(Json::obj([("type", Json::from("pong"))])),
            },
            Response {
                id: 10,
                trace: Some(31_337),
                cached: false,
                elapsed_us: 7,
                retry_after_ms: None,
                outcome: Err("tenant \"x\" unknown\nline2".to_string()),
            },
            shed_response(11, Some(-4), "overloaded: 9 jobs queued".to_string(), 100),
            Response {
                id: -1,
                trace: None,
                cached: false,
                elapsed_us: 0,
                retry_after_ms: Some(0),
                outcome: Ok(Json::obj([
                    ("type", Json::from("report")),
                    ("name", Json::from("ctl\u{1}\t\"é\u{1F600}\\")),
                    ("nested", Json::Arr(vec![Json::Null, Json::Float(2.0)])),
                ])),
            },
        ] {
            // The line printed by reference is the envelope tree's text.
            let line = response.to_line();
            assert_eq!(line, response.to_json().to_string());
            assert!(!line.contains('\n'));
            let back = Response::parse_line(&line).unwrap();
            assert_eq!(back.to_line(), line);
            assert_eq!(back.trace, response.trace);
            assert_eq!(back.cached, response.cached);
            assert_eq!(back.outcome.is_ok(), response.outcome.is_ok());
        }
    }

    #[test]
    fn trace_ids_are_optional_and_strictly_typed() {
        // Absent and null both decode to None — and None renders with no
        // "trace" member at all, so trace-less traffic is byte-identical to
        // the pre-trace protocol.
        let plain = Request::parse_line(r#"{"id": 1, "request": {"type": "ping"}}"#).unwrap();
        assert_eq!(plain.trace, None);
        assert!(!plain.to_line().contains("trace"));
        let null = Request::parse_line(r#"{"id": 1, "trace": null, "request": {"type": "ping"}}"#)
            .unwrap();
        assert_eq!(null.trace, None);
        let traced =
            Request::parse_line(r#"{"id": 1, "trace": 91052, "request": {"type": "ping"}}"#)
                .unwrap();
        assert_eq!(traced.trace, Some(91_052));
        // Anything else is a decode error, not a silent drop.
        for bad in [
            r#"{"id": 1, "trace": "x", "request": {"type": "ping"}}"#,
            r#"{"id": 1, "trace": 1.5, "request": {"type": "ping"}}"#,
            r#"{"id": 1, "trace": [], "request": {"type": "ping"}}"#,
        ] {
            assert!(Request::parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn malformed_envelopes_are_typed_errors() {
        for bad_line in [
            "",
            "{",
            "42",
            r#"{"id": 1}"#,
            r#"{"id": "x", "request": {"type": "ping"}}"#,
            r#"{"id": 1, "request": {"type": "warp"}}"#,
            r#"{"id": 1, "request": {"type": "event", "tenant": "t"}}"#,
            r#"{"id": 1, "request": {"type": "synthesize"}}"#,
        ] {
            assert!(
                Request::parse_line(bad_line).is_err(),
                "accepted {bad_line:?}"
            );
        }
        for bad_line in ["", "{}", r#"{"id":1,"cached":false,"elapsed_us":0}"#] {
            assert!(Response::parse_line(bad_line).is_err());
        }
    }

    #[test]
    fn backend_names_round_trip() {
        for backend in [Backend::Auto, Backend::Monolithic, Backend::Partitioned] {
            assert_eq!(Backend::from_str(backend.as_str()).unwrap(), backend);
        }
        assert!(Backend::from_str("quantum").is_err());
    }
}
