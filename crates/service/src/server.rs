//! The multi-tenant synthesis service and its TCP server loop.
//!
//! [`Service`] is the transport-independent core: it owns the tenant
//! sessions, the result cache and the counters, and turns one request into
//! one response ([`Service::handle_line`]). [`serve`] wraps it in the
//! [`tsn_net::poll`] connection plane: a single `poll(2)` event loop owns
//! every client socket (framing, pipelining, write backpressure) and
//! submits parsed requests to the scoped [`Dispatcher`] worker pool
//! (same-tenant requests serialize, different tenants run in parallel);
//! finished responses flow back through the plane's completion queue and
//! are written in per-connection request order. Overload is load-shed: once
//! the pool queue crosses [`ServiceConfig::shed_watermark`], `synthesize`
//! requests are answered immediately with a typed `retry_after` rejection
//! instead of silently deepening the queue.
//!
//! A `synthesize` whose payload is cached is answered on the event-loop
//! thread, from the parsed line: its key is the printed `request` member
//! ([`content_key`]), and the stored payload text is spliced into the
//! envelope. No struct is decoded and nothing is printed again. Such a hit
//! never reaches the pool, so it is never shed, never counted in
//! `service_queue_wait_seconds`, and is still answered while the daemon
//! drains. The loop thread takes only the cache lock, and only for one
//! lookup; no lock it waits on is held across a solve.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use tsn_net::json::{echo, Json};
use tsn_net::Time;
use tsn_online::{BatchPolicy, NetworkEvent, OnlineConfig, OnlineEngine};
use tsn_scale::wire::zeroed_scale_report;
use tsn_scale::{ScaleConfig, ScaleSynthesizer};
use tsn_synthesis::wire::report_to_json;
use tsn_synthesis::{
    ConstraintMode, RouteStrategy, SynthesisConfig, SynthesisProblem, Synthesizer,
};
use tsn_telemetry::log::{self, Level};
use tsn_telemetry::{Clock, Counter, Gauge, Histogram, MonotonicClock};

use tsn_net::poll::{Completions, ConnId, LineHandler, LineOutcome, PlaneConfig};

use crate::dispatch::Dispatcher;
use crate::protocol::{
    batch_result_json, content_key, envelope_header, envelope_ids, event_result_json,
    shed_response, tenant_state_json, zeroed_report, Backend, Request, RequestBody, Response,
};
use crate::ResultCache;

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads of the request pool (`0` = one per available core).
    pub workers: usize,
    /// Capacity of the content-addressed result cache, in entries (`0`
    /// disables caching).
    pub cache_capacity: usize,
    /// `synthesize` requests with at least this many applications are
    /// dispatched to the partitioned [`ScaleSynthesizer`] instead of the
    /// monolithic [`Synthesizer`] (unless the request forces a backend).
    pub scale_threshold_apps: usize,
    /// Synthesis configuration for `synthesize` requests that carry none.
    pub default_synthesis: SynthesisConfig,
    /// Engine configuration for tenants opened without one.
    pub default_online: OnlineConfig,
    /// Evict a tenant's warm solver session after this much idle time
    /// (`None` = never, the default). Eviction keeps the tenant and its
    /// committed schedules; only the warm model is dropped, so the next
    /// event pays one cold solve in exchange for the reclaimed memory. This
    /// is the shard memory-pressure valve of the sharded fabric.
    pub session_idle: Option<Duration>,
    /// The shard identity this daemon reports in `health` responses (so a
    /// router can tell which member of its fleet answered). `0` by default.
    pub shard_id: u64,
    /// Load-shedding watermark: once this many submitted jobs are waiting
    /// for a worker, new `synthesize` requests are rejected immediately
    /// with a typed `retry_after` response instead of queueing (`0`
    /// disables shedding). Interactive request classes — tenant events,
    /// health, metrics, migration — are never shed.
    pub shed_watermark: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            cache_capacity: 256,
            scale_threshold_apps: 24,
            session_idle: None,
            shard_id: 0,
            // Deep enough that a healthy daemon (worker pool keeping up)
            // never sheds; a daemon with a thousand solves queued is
            // minutes behind and should push back instead of buffering.
            shed_watermark: 1024,
            // Service solves are latency-sensitive like the online engine's:
            // one stage, a few routes, and the sound 1 ms stability grid.
            default_synthesis: SynthesisConfig {
                stages: 1,
                route_strategy: RouteStrategy::KShortest(3),
                mode: ConstraintMode::StabilityAware {
                    granularity: Time::from_millis(1),
                },
                ..SynthesisConfig::default()
            },
            default_online: OnlineConfig::default(),
        }
    }
}

/// Runs one `synthesize` request against the library directly and encodes
/// the deterministic result payload.
///
/// This free function **is** the "direct library call" the daemon is
/// differentially tested against: the server route adds parsing, caching,
/// dispatch and TCP framing around it, and must return byte-identical
/// payloads.
///
/// # Errors
///
/// Returns the rendered synthesis error when the problem is invalid,
/// unsatisfiable or over its resource budget.
pub fn synthesize_result_json(
    problem: &SynthesisProblem,
    config: &SynthesisConfig,
    backend: Backend,
    scale_threshold_apps: usize,
) -> Result<Json, String> {
    let partitioned = match backend {
        Backend::Monolithic => false,
        Backend::Partitioned => true,
        Backend::Auto => problem.applications().len() >= scale_threshold_apps.max(1),
    };
    if partitioned {
        let scale_config = ScaleConfig {
            synthesis: config.clone(),
            ..ScaleConfig::default()
        };
        let report = ScaleSynthesizer::new(scale_config)
            .synthesize(problem)
            .map_err(|e| e.to_string())?;
        let report = zeroed_scale_report(&report);
        Ok(Json::obj([
            ("type", Json::from("synthesized")),
            ("backend", Json::from("partitioned")),
            ("report", report_to_json(&report.report)),
            ("partitions", Json::from(report.partitions.len())),
            ("repair_rounds", Json::from(report.repairs.len())),
            (
                "monolithic_fallback",
                Json::Bool(report.monolithic_fallback),
            ),
        ]))
    } else {
        let config = SynthesisConfig {
            // The service always verifies before answering; a served
            // schedule that the independent verifier rejects must never
            // leave the process.
            verify: true,
            ..config.clone()
        };
        let report = Synthesizer::new(config)
            .synthesize(problem)
            .map_err(|e| e.to_string())?;
        Ok(Json::obj([
            ("type", Json::from("synthesized")),
            ("backend", Json::from("monolithic")),
            ("report", report_to_json(&zeroed_report(&report))),
        ]))
    }
}

/// Telemetry handles for the request lifecycle, resolved once per process.
/// `requests_total` and `solve_seconds` are the series the CI smoke asserts
/// nonzero through the `metrics` protocol request;
/// `service_queue_wait_seconds` (submit → worker pickup) feeds the
/// queue-wait percentiles `fig_service` reports. The gauges are the live
/// occupancy numbers the `health` request reports: `service_workers` (pool
/// size, set by [`serve`]), `service_workers_busy` (jobs executing right
/// now) and `service_queue_depth` (jobs submitted but not yet picked up).
/// `service_connections` is the event-loop's live client-connection count
/// and `service_shed_total` counts `retry_after` rejections issued at the
/// shed watermark — the pair the overload CI probe asserts on.
/// `service_cache_total{outcome=...}` counts each `synthesize` by how it was
/// answered: `hit` (from the cache), `coalesced` (joined an in-flight
/// identical solve) or `solve` (became the leader and ran the solver).
struct ServiceMetrics {
    requests: Counter,
    solve: Histogram,
    queue_wait: Histogram,
    request_seconds: Histogram,
    workers: Gauge,
    workers_busy: Gauge,
    queue_depth: Gauge,
    connections: Gauge,
    shed: Counter,
    cache_hit: Counter,
    cache_coalesced: Counter,
    cache_solve: Counter,
}

fn service_metrics() -> &'static ServiceMetrics {
    static METRICS: OnceLock<ServiceMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = tsn_telemetry::registry();
        ServiceMetrics {
            requests: registry.counter("requests_total"),
            solve: registry.histogram("solve_seconds"),
            queue_wait: registry.histogram("service_queue_wait_seconds"),
            request_seconds: registry.histogram("service_request_seconds"),
            workers: registry.gauge("service_workers"),
            workers_busy: registry.gauge("service_workers_busy"),
            queue_depth: registry.gauge("service_queue_depth"),
            connections: registry.gauge("service_connections"),
            shed: registry.counter("service_shed_total"),
            cache_hit: registry.counter_with("service_cache_total", &[("outcome", "hit")]),
            cache_coalesced: registry
                .counter_with("service_cache_total", &[("outcome", "coalesced")]),
            cache_solve: registry.counter_with("service_cache_total", &[("outcome", "solve")]),
        }
    })
}

/// Per-tenant request counter (`service_tenant_requests_total{tenant=...}`).
/// Labeled handles are looked up per call — one registry lock, no handle to
/// cache, and the registry's cardinality cap bounds hostile tenant churn.
fn tenant_requests(tenant: &str) -> Counter {
    tsn_telemetry::registry().counter_with("service_tenant_requests_total", &[("tenant", tenant)])
}

/// Per-tenant solve-latency histogram
/// (`service_tenant_solve_seconds{tenant=...}`), observed alongside the
/// global `solve_seconds` on every engine pass.
fn tenant_solve_seconds(tenant: &str) -> Histogram {
    tsn_telemetry::registry().histogram_with("service_tenant_solve_seconds", &[("tenant", tenant)])
}

/// Per-tenant pool queue depth (`service_tenant_queue_depth{tenant=...}`):
/// jobs submitted for the tenant and not yet picked up by a worker.
fn tenant_queue_depth(tenant: &str) -> Gauge {
    tsn_telemetry::registry().gauge_with("service_tenant_queue_depth", &[("tenant", tenant)])
}

/// Service-level counters, all monotonically increasing.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    errors: AtomicU64,
    /// `synthesize` requests that actually ran a solver (as opposed to
    /// being served from the cache or coalesced onto an in-flight solve).
    solves: AtomicU64,
    /// Cache misses that found an identical solve already in flight and
    /// waited for its result instead of solving redundantly.
    coalesced_misses: AtomicU64,
    /// Tenant event backlogs (two or more queued `event` requests) the
    /// dispatcher drained into one batched engine pass.
    backlog_batches: AtomicU64,
    /// Warm solver sessions dropped by idle eviction
    /// ([`ServiceConfig::session_idle`]).
    sessions_evicted: AtomicU64,
}

/// One open tenant: the engine plus the idle-eviction bookkeeping.
#[derive(Debug)]
struct TenantSlot {
    engine: Mutex<OnlineEngine>,
    /// Service-clock reading of the tenant's last request; idle eviction
    /// measures from it.
    last_used_ns: AtomicU64,
}

impl TenantSlot {
    fn new(engine: OnlineEngine, now_ns: u64) -> Self {
        TenantSlot {
            engine: Mutex::new(engine),
            last_used_ns: AtomicU64::new(now_ns),
        }
    }
}

/// One in-flight `synthesize` solve: concurrent identical cache misses
/// block on `ready` until the leader publishes the shared outcome.
#[derive(Debug, Default)]
struct SolveSlot {
    result: Mutex<Option<Result<Json, String>>>,
    ready: Condvar,
}

/// The multi-tenant synthesis service (transport-independent core).
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    tenants: Mutex<BTreeMap<String, Arc<TenantSlot>>>,
    /// Solved `synthesize` payloads as printed, keyed by the request's
    /// [`content_key`]. A hit clones a pointer and splices the text into
    /// the envelope; the request is only parsed, never decoded, and the
    /// payload never printed again. Held for one `get`, `probe` or `insert`
    /// at a time, never across a solve.
    cache: Mutex<ResultCache<Arc<str>>>,
    /// Identical `synthesize` requests currently solving, keyed like the
    /// cache. Locked *before* the cache where both are needed, so a request
    /// that missed on the event loop either sees the cached payload or the
    /// in-flight slot — never the gap between them.
    in_flight: Mutex<BTreeMap<String, Arc<SolveSlot>>>,
    counters: Counters,
    /// The time source behind `elapsed_us` and every latency histogram.
    /// The real monotonic clock in the daemon; tests inject a
    /// [`tsn_telemetry::ManualClock`] to make envelope timings exact.
    clock: Arc<dyn Clock>,
    /// Clock reading at construction — the `health` request reports
    /// `uptime_us` relative to it.
    started_ns: u64,
    shutdown: AtomicBool,
}

impl Service {
    /// Creates a service with the given configuration.
    pub fn new(config: ServiceConfig) -> Self {
        Service::with_clock(config, Arc::new(MonotonicClock))
    }

    /// Creates a service measuring request timings on an injected clock.
    /// Only envelope timings and telemetry depend on the clock — response
    /// payloads are identical whatever clock (or none) is ticking.
    pub fn with_clock(config: ServiceConfig, clock: Arc<dyn Clock>) -> Self {
        let cache = Mutex::new(ResultCache::new(config.cache_capacity));
        let started_ns = clock.now_ns();
        Service {
            config,
            tenants: Mutex::new(BTreeMap::new()),
            cache,
            in_flight: Mutex::new(BTreeMap::new()),
            counters: Counters::default(),
            clock,
            started_ns,
            shutdown: AtomicBool::new(false),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The current reading of the service clock, in nanoseconds. Callers
    /// of [`respond`](Service::respond) capture the request's start time
    /// through this, so envelope timings stay on the injected clock.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn elapsed_us(&self, start_ns: u64) -> i64 {
        i64::try_from(self.clock.since_ns(start_ns).as_micros()).unwrap_or(i64::MAX)
    }

    /// Whether a `shutdown` request has been processed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The number of open tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.lock().expect("tenant lock").len()
    }

    /// Serves one wire line: parse, execute, encode. Never panics on
    /// malformed input — parse failures become `error` responses carrying
    /// the request id when one could be extracted. A cache hit is answered
    /// from the parsed line, as on the event loop.
    pub fn handle_line(&self, line: &str) -> String {
        let start_ns = self.now_ns();
        match self.decode_line(line, start_ns) {
            Ok((request, key)) => self.respond_keyed(&request, key, start_ns).to_line(),
            Err(response) => response,
        }
    }

    /// Decodes one wire line, parsing its text exactly once, into the
    /// request and, for a `synthesize`, its cache key. A line answered
    /// here comes back as the complete response line in the `Err`: a
    /// `synthesize` whose payload is cached, answered from the parsed
    /// envelope, or a line that is not a request, counted, logged and
    /// answered `malformed request`, echoing the envelope's `id` and
    /// `trace` if the text got as far as being JSON.
    fn decode_line(&self, line: &str, start_ns: u64) -> Result<(Request, Option<String>), String> {
        let (e, (id, trace)) = match Json::parse(line.trim()) {
            Err(e) => (e, (None, None)),
            Ok(doc) => {
                let key = synthesize_key(&doc);
                if let Some(hit) = key
                    .as_deref()
                    .and_then(|k| self.answer_hit(&doc, k, start_ns))
                {
                    return Err(hit);
                }
                match Request::from_json(&doc) {
                    Ok(request) => return Ok((request, key)),
                    Err(e) => (e, envelope_ids(&doc)),
                }
            }
        };
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        service_metrics().requests.inc();
        log::warn(
            "service.request",
            "malformed request line",
            &[("reason", e.to_string().into())],
        );
        let response = Response {
            id: id.unwrap_or(-1),
            trace,
            cached: false,
            elapsed_us: self.elapsed_us(start_ns),
            retry_after_ms: None,
            outcome: Err(format!("malformed request: {e}")),
        };
        Err(response.to_line())
    }

    /// The response line to a `synthesize` envelope whose payload is
    /// cached, or `None` when the key misses or the envelope would not
    /// decode (the ordinary path then answers it, errors included). The
    /// envelope is checked as [`Request::from_json`] checks it; the
    /// request itself printed byte for byte like one that decoded and
    /// solved.
    fn answer_hit(&self, doc: &Json, key: &str, start_ns: u64) -> Option<String> {
        let (id, trace) = envelope_header(doc).ok()?;
        let payload = self.cache.lock().expect("cache lock").probe(key)?;
        let _span = tsn_telemetry::span!("service.request", trace.unwrap_or(id));
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let metrics = service_metrics();
        metrics.requests.inc();
        metrics.cache_hit.inc();
        log_cache_hit(key);
        metrics
            .request_seconds
            .observe(self.clock.since_ns(start_ns));
        Some(Response::ok_line(
            id,
            trace,
            true,
            self.elapsed_us(start_ns),
            &payload,
        ))
    }

    /// Executes one parsed request. `start_ns` is a [`Service::now_ns`]
    /// reading taken when the request began service (the envelope's
    /// `elapsed_us` is measured from it). A `synthesize` decoded elsewhere
    /// is keyed by its body's encoding: the `request` member that
    /// [`Request::to_line`] prints.
    pub fn respond(&self, request: &Request, start_ns: u64) -> Response {
        self.respond_keyed(request, None, start_ns)
    }

    /// [`respond`](Service::respond), with the cache key of a `synthesize`
    /// already taken from its line.
    fn respond_keyed(&self, request: &Request, key: Option<String>, start_ns: u64) -> Response {
        let _span = tsn_telemetry::span!("service.request", request.trace.unwrap_or(request.id));
        self.evict_idle_sessions();
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        service_metrics().requests.inc();
        if let Some(tenant) = request.body.tenant() {
            tenant_requests(tenant).inc();
        }
        let (outcome, cached) = self.execute(&request.body, key);
        match &outcome {
            Err(reason) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                log::warn(
                    "service.request",
                    "request failed",
                    &[
                        ("type", request.body.type_name().into()),
                        ("tenant", request.body.tenant().unwrap_or("").into()),
                        ("reason", reason.as_str().into()),
                    ],
                );
            }
            Ok(_) if log::logger().enabled(Level::Debug) => {
                log::debug(
                    "service.request",
                    "served",
                    &[
                        ("type", request.body.type_name().into()),
                        ("cached", cached.into()),
                    ],
                );
            }
            Ok(_) => {}
        }
        service_metrics()
            .request_seconds
            .observe(self.clock.since_ns(start_ns));
        Response {
            id: request.id,
            trace: request.trace,
            cached,
            elapsed_us: self.elapsed_us(start_ns),
            retry_after_ms: None,
            outcome,
        }
    }

    fn execute(&self, body: &RequestBody, key: Option<String>) -> (Result<Json, String>, bool) {
        match body {
            RequestBody::Ping => (Ok(Json::obj([("type", Json::from("pong"))])), false),
            RequestBody::Synthesize {
                problem,
                config,
                backend,
            } => {
                let config = config.as_ref().unwrap_or(&self.config.default_synthesis);
                let Some(key) = key.or_else(|| content_key(&body.to_json())) else {
                    // No faithful key (see `content_key`): solve, uncached.
                    return (self.solve(problem, config, *backend), false);
                };
                // Under the in-flight lock a request sees exactly one of:
                // the cached payload (a solve finished since the event loop
                // looked), an identical solve already running (join it as a
                // waiter), or neither (become the leader).
                let slot = {
                    let mut in_flight = self.in_flight.lock().expect("in-flight lock");
                    if let Some(hit) = self.cache.lock().expect("cache lock").get(&key) {
                        service_metrics().cache_hit.inc();
                        log_cache_hit(&key);
                        let payload = Json::parse(&hit).expect("the cache holds printed JSON");
                        return (Ok(payload), true);
                    }
                    match in_flight.get(&key) {
                        Some(slot) => Some(Arc::clone(slot)),
                        None => {
                            in_flight.insert(key.clone(), Arc::new(SolveSlot::default()));
                            None
                        }
                    }
                };
                if let Some(slot) = slot {
                    // Coalesced miss: wait for the leader's shared outcome
                    // instead of running a redundant identical solve.
                    self.counters
                        .coalesced_misses
                        .fetch_add(1, Ordering::Relaxed);
                    service_metrics().cache_coalesced.inc();
                    log::info(
                        "service.cache",
                        "coalesced onto in-flight identical solve",
                        &[("bytes", key.len().into())],
                    );
                    let mut result = slot.result.lock().expect("solve slot lock");
                    while result.is_none() {
                        result = slot.ready.wait(result).expect("solve slot lock");
                    }
                    return (result.clone().expect("checked above"), false);
                }
                log::info(
                    "service.cache",
                    "cache miss, solving",
                    &[
                        ("bytes", key.len().into()),
                        ("apps", problem.applications().len().into()),
                    ],
                );
                let outcome = self.solve(problem, config, *backend);
                // Publish under the in-flight lock (cache first), so later
                // identical requests never fall between cache and slot. The
                // payload is printed before either lock is taken.
                let printed = outcome
                    .as_ref()
                    .ok()
                    .map(|p| Arc::<str>::from(p.to_string()));
                let slot = {
                    let mut in_flight = self.in_flight.lock().expect("in-flight lock");
                    if let Some(text) = printed {
                        self.cache
                            .lock()
                            .expect("cache lock")
                            .insert(key.clone(), text);
                    }
                    in_flight.remove(&key)
                };
                if let Some(slot) = slot {
                    *slot.result.lock().expect("solve slot lock") = Some(outcome.clone());
                    slot.ready.notify_all();
                }
                (outcome, false)
            }
            RequestBody::OpenTenant {
                tenant,
                topology,
                forwarding_delay,
                config,
            } => {
                let mut tenants = self.tenants.lock().expect("tenant lock");
                if tenants.contains_key(tenant) {
                    return (Err(format!("tenant {tenant:?} already exists")), false);
                }
                let config = config
                    .clone()
                    .unwrap_or_else(|| self.config.default_online.clone());
                let engine = OnlineEngine::new(topology.clone(), *forwarding_delay, config);
                tenants.insert(
                    tenant.clone(),
                    Arc::new(TenantSlot::new(engine, self.clock.now_ns())),
                );
                log::info(
                    "service.tenant",
                    "tenant opened",
                    &[("tenant", tenant.as_str().into())],
                );
                (
                    Ok(Json::obj([
                        ("type", Json::from("tenant_opened")),
                        ("tenant", Json::from(tenant.as_str())),
                    ])),
                    false,
                )
            }
            RequestBody::Event { tenant, event } => {
                let Some(slot) = self.tenant(tenant) else {
                    return (Err(format!("unknown tenant {}", echo(tenant))), false);
                };
                let mut engine = slot.engine.lock().expect("tenant engine lock");
                let _solve_span = tsn_telemetry::span!("service.solve");
                let solve_start = self.clock.now_ns();
                let report = engine.process(event.clone());
                let solve_time = self.clock.since_ns(solve_start);
                service_metrics().solve.observe(solve_time);
                tenant_solve_seconds(tenant).observe(solve_time);
                (Ok(event_result_json(&report)), false)
            }
            RequestBody::EventBatch { tenant, events } => {
                let Some(slot) = self.tenant(tenant) else {
                    return (Err(format!("unknown tenant {}", echo(tenant))), false);
                };
                let mut engine = slot.engine.lock().expect("tenant engine lock");
                let _solve_span = tsn_telemetry::span!("service.solve");
                let solve_start = self.clock.now_ns();
                let report = engine.process_batch(events.clone());
                let solve_time = self.clock.since_ns(solve_start);
                service_metrics().solve.observe(solve_time);
                tenant_solve_seconds(tenant).observe(solve_time);
                if !report.joint {
                    log::warn(
                        "service.batch",
                        "joint batch solve rejected, fell back to sequential",
                        &[
                            ("tenant", tenant.as_str().into()),
                            ("events", events.len().into()),
                        ],
                    );
                }
                (Ok(batch_result_json(&report)), false)
            }
            RequestBody::TenantState { tenant } => {
                let Some(slot) = self.tenant(tenant) else {
                    return (Err(format!("unknown tenant {}", echo(tenant))), false);
                };
                let engine = slot.engine.lock().expect("tenant engine lock");
                (Ok(tenant_state_json(tenant, &engine)), false)
            }
            RequestBody::CloseTenant { tenant } => {
                let removed = self.tenants.lock().expect("tenant lock").remove(tenant);
                match removed {
                    Some(slot) => {
                        let live = slot
                            .engine
                            .lock()
                            .expect("tenant engine lock")
                            .live_ids()
                            .len();
                        log::info(
                            "service.tenant",
                            "tenant closed",
                            &[
                                ("tenant", tenant.as_str().into()),
                                ("loops_dropped", live.into()),
                            ],
                        );
                        (
                            Ok(Json::obj([
                                ("type", Json::from("tenant_closed")),
                                ("tenant", Json::from(tenant.as_str())),
                                ("loops_dropped", Json::from(live)),
                            ])),
                            false,
                        )
                    }
                    None => (Err(format!("unknown tenant {}", echo(tenant))), false),
                }
            }
            RequestBody::MigrateOut { tenant } => {
                let removed = self.tenants.lock().expect("tenant lock").remove(tenant);
                match removed {
                    Some(slot) => {
                        let engine = slot.engine.lock().expect("tenant engine lock");
                        let snapshot = engine.export_session();
                        let loops = engine.live_ids().len();
                        drop(engine);
                        log::info(
                            "service.migrate",
                            "tenant migrated out",
                            &[
                                ("tenant", tenant.as_str().into()),
                                ("loops", loops.into()),
                                ("warm", snapshot.session.is_some().into()),
                            ],
                        );
                        (
                            Ok(Json::obj([
                                ("type", Json::from("migrated_out")),
                                ("tenant", Json::from(tenant.as_str())),
                                ("loops", Json::from(loops)),
                                (
                                    "snapshot",
                                    tsn_online::wire::session_snapshot_to_json(&snapshot),
                                ),
                            ])),
                            false,
                        )
                    }
                    None => (Err(format!("unknown tenant {}", echo(tenant))), false),
                }
            }
            RequestBody::MigrateIn { tenant, snapshot } => {
                let mut tenants = self.tenants.lock().expect("tenant lock");
                if tenants.contains_key(tenant) {
                    return (Err(format!("tenant {tenant:?} already exists")), false);
                }
                match OnlineEngine::restore(snapshot.as_ref().clone()) {
                    Ok(engine) => {
                        let loops = engine.live_ids().len();
                        let warm = engine.is_warm();
                        tenants.insert(
                            tenant.clone(),
                            Arc::new(TenantSlot::new(engine, self.clock.now_ns())),
                        );
                        log::info(
                            "service.migrate",
                            "tenant migrated in",
                            &[
                                ("tenant", tenant.as_str().into()),
                                ("loops", loops.into()),
                                ("warm", warm.into()),
                            ],
                        );
                        (
                            Ok(Json::obj([
                                ("type", Json::from("migrated_in")),
                                ("tenant", Json::from(tenant.as_str())),
                                ("loops", Json::from(loops)),
                                ("warm", Json::Bool(warm)),
                            ])),
                            false,
                        )
                    }
                    Err(e) => (Err(format!("snapshot rejected: {e}")), false),
                }
            }
            RequestBody::Stats => {
                // Read and release: the event loop looks up under this lock.
                let (entries, hits, misses) = {
                    let cache = self.cache.lock().expect("cache lock");
                    (cache.len(), cache.hits(), cache.misses())
                };
                (
                    Ok(Json::obj([
                        ("type", Json::from("stats")),
                        ("tenants", Json::from(self.tenant_count())),
                        (
                            "requests",
                            Json::Int(self.counters.requests.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "errors",
                            Json::Int(self.counters.errors.load(Ordering::Relaxed) as i64),
                        ),
                        ("cache_entries", Json::from(entries)),
                        ("cache_hits", Json::Int(hits as i64)),
                        ("cache_misses", Json::Int(misses as i64)),
                        (
                            "solves",
                            Json::Int(self.counters.solves.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "coalesced_misses",
                            Json::Int(self.counters.coalesced_misses.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "backlog_batches",
                            Json::Int(self.counters.backlog_batches.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "sessions_evicted",
                            Json::Int(self.counters.sessions_evicted.load(Ordering::Relaxed) as i64),
                        ),
                    ])),
                    false,
                )
            }
            RequestBody::Metrics => (
                Ok(Json::obj([
                    ("type", Json::from("metrics")),
                    (
                        "exposition",
                        Json::from(tsn_telemetry::registry().render().as_str()),
                    ),
                ])),
                false,
            ),
            RequestBody::Health => {
                let metrics = service_metrics();
                let recent_log = Json::Arr(
                    log::logger()
                        .recent(HEALTH_LOG_TAIL)
                        .iter()
                        .map(log::LogEvent::to_json)
                        .collect(),
                );
                let uptime_us = i64::try_from(self.clock.since_ns(self.started_ns).as_micros())
                    .unwrap_or(i64::MAX);
                (
                    Ok(Json::obj([
                        ("type", Json::from("health")),
                        ("shard_id", Json::Int(self.config.shard_id as i64)),
                        ("uptime_us", Json::Int(uptime_us)),
                        ("tenants", Json::from(self.tenant_count())),
                        ("sessions", Json::from(self.warm_session_count())),
                        ("workers", Json::Int(metrics.workers.get())),
                        ("workers_busy", Json::Int(metrics.workers_busy.get())),
                        ("queue_depth", Json::Int(metrics.queue_depth.get())),
                        (
                            "requests",
                            Json::Int(self.counters.requests.load(Ordering::Relaxed) as i64),
                        ),
                        (
                            "errors",
                            Json::Int(self.counters.errors.load(Ordering::Relaxed) as i64),
                        ),
                        ("recent_log", recent_log),
                    ])),
                    false,
                )
            }
            RequestBody::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                log::info("service", "shutdown requested", &[]);
                (
                    Ok(Json::obj([("type", Json::from("shutting_down"))])),
                    false,
                )
            }
        }
    }

    /// Serves a drained backlog of same-tenant `event` requests in one
    /// pass: the tenant engine is locked once and the events run through
    /// one sequential-policy batch, whose per-event reports are
    /// **bit-identical** to what separate [`respond`](Service::respond)
    /// calls would have produced — opportunistic batching must never let
    /// timing-dependent batch boundaries change a response. Requests that
    /// are not `event` bodies (or name a different tenant) are answered
    /// through the ordinary path, preserving order.
    pub fn respond_event_backlog(&self, requests: &[&Request], start_ns: u64) -> Vec<Response> {
        let tenant_name = requests
            .first()
            .and_then(|r| r.body.tenant())
            .unwrap_or_default()
            .to_string();
        let uniform = requests.iter().all(
            |r| matches!(&r.body, RequestBody::Event { tenant, .. } if *tenant == tenant_name),
        );
        if !uniform {
            return requests.iter().map(|r| self.respond(r, start_ns)).collect();
        }
        self.evict_idle_sessions();
        self.counters
            .requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        service_metrics().requests.add(requests.len() as u64);
        tenant_requests(&tenant_name).add(requests.len() as u64);
        let Some(slot) = self.tenant(&tenant_name) else {
            self.counters
                .errors
                .fetch_add(requests.len() as u64, Ordering::Relaxed);
            log::warn(
                "service.batch",
                "event backlog for unknown tenant rejected",
                &[
                    ("tenant", tenant_name.as_str().into()),
                    ("requests", requests.len().into()),
                ],
            );
            return requests
                .iter()
                .map(|r| Response {
                    id: r.id,
                    trace: r.trace,
                    cached: false,
                    elapsed_us: self.elapsed_us(start_ns),
                    retry_after_ms: None,
                    outcome: Err(format!("unknown tenant {}", echo(&tenant_name))),
                })
                .collect();
        };
        let events: Vec<NetworkEvent> = requests
            .iter()
            .map(|r| match &r.body {
                RequestBody::Event { event, .. } => event.clone(),
                _ => unreachable!("uniformity checked above"),
            })
            .collect();
        if events.len() > 1 {
            self.counters
                .backlog_batches
                .fetch_add(1, Ordering::Relaxed);
            log::info(
                "service.batch",
                "drained event backlog into one engine pass",
                &[
                    ("tenant", tenant_name.as_str().into()),
                    ("events", events.len().into()),
                ],
            );
        }
        let solve_span = tsn_telemetry::span!("service.solve", requests.len());
        let solve_start = self.clock.now_ns();
        let report = slot
            .engine
            .lock()
            .expect("tenant engine lock")
            .process_batch_with(events, BatchPolicy::Sequential);
        let solve_time = self.clock.since_ns(solve_start);
        service_metrics().solve.observe(solve_time);
        tenant_solve_seconds(&tenant_name).observe(solve_time);
        drop(solve_span);
        let elapsed = self.clock.since_ns(start_ns);
        requests
            .iter()
            .zip(report.reports.iter())
            .map(|(r, event_report)| {
                service_metrics().request_seconds.observe(elapsed);
                Response {
                    id: r.id,
                    trace: r.trace,
                    cached: false,
                    elapsed_us: self.elapsed_us(start_ns),
                    retry_after_ms: None,
                    outcome: Ok(event_result_json(event_report)),
                }
            })
            .collect()
    }

    fn tenant(&self, name: &str) -> Option<Arc<TenantSlot>> {
        let slot = self.tenants.lock().expect("tenant lock").get(name).cloned();
        if let Some(slot) = &slot {
            slot.last_used_ns
                .store(self.clock.now_ns(), Ordering::Relaxed);
        }
        slot
    }

    /// The number of tenants currently holding a warm solver session. An
    /// engine busy solving counts as warm without blocking on its lock — a
    /// health probe must never queue behind a solve.
    fn warm_session_count(&self) -> usize {
        self.tenants
            .lock()
            .expect("tenant lock")
            .values()
            .filter(|slot| match slot.engine.try_lock() {
                Ok(engine) => engine.is_warm(),
                Err(_) => true,
            })
            .count()
    }

    /// Runs the solver for one `synthesize`, counted as a solve.
    fn solve(
        &self,
        problem: &SynthesisProblem,
        config: &SynthesisConfig,
        backend: Backend,
    ) -> Result<Json, String> {
        self.counters.solves.fetch_add(1, Ordering::Relaxed);
        service_metrics().cache_solve.inc();
        let _span = tsn_telemetry::span!("service.solve");
        let solve_start = self.clock.now_ns();
        let outcome =
            synthesize_result_json(problem, config, backend, self.config.scale_threshold_apps);
        service_metrics()
            .solve
            .observe(self.clock.since_ns(solve_start));
        outcome
    }

    /// Drops the warm session of every tenant idle longer than
    /// [`ServiceConfig::session_idle`] (no-op when unset). Runs inline at
    /// the start of each executed request (a cache hit touches no tenant
    /// and skips it) — cheap when disabled, and an engine busy
    /// under its lock is by definition not idle, so `try_lock` skips are
    /// correct, not racy.
    fn evict_idle_sessions(&self) {
        let Some(idle) = self.config.session_idle else {
            return;
        };
        let idle_ns = u64::try_from(idle.as_nanos()).unwrap_or(u64::MAX);
        let now = self.clock.now_ns();
        let tenants = self.tenants.lock().expect("tenant lock");
        for (name, slot) in tenants.iter() {
            if now.saturating_sub(slot.last_used_ns.load(Ordering::Relaxed)) < idle_ns {
                continue;
            }
            let Ok(mut engine) = slot.engine.try_lock() else {
                continue;
            };
            if engine.is_warm() {
                engine.evict_session();
                self.counters
                    .sessions_evicted
                    .fetch_add(1, Ordering::Relaxed);
                log::info(
                    "service.tenant",
                    "idle warm session evicted",
                    &[
                        ("tenant", name.as_str().into()),
                        ("idle_secs", idle.as_secs().into()),
                    ],
                );
            }
        }
    }

    fn resolve_workers(&self) -> usize {
        if self.config.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.config.workers
        }
    }
}

/// The cache key of a parsed envelope whose request is a `synthesize`, the
/// one cacheable type; other requests are never keyed.
fn synthesize_key(doc: &Json) -> Option<String> {
    let request = doc.get("request")?;
    if request.get("type").and_then(Json::as_str) != Some("synthesize") {
        return None;
    }
    content_key(request)
}

/// Logs a cache hit at `debug`, the level of the per-request "served"
/// event: at `info`, cached traffic would push every warning out of the
/// `health` log tail.
fn log_cache_hit(key: &str) {
    log::debug("service.cache", "cache hit", &[("bytes", key.len().into())]);
}

/// How many recent structured-log events a `health` response carries.
const HEALTH_LOG_TAIL: usize = 16;

/// Backoff hint carried by `retry_after` shed rejections, in milliseconds.
const SHED_RETRY_MS: i64 = 100;

/// One queued tenant `event` request: the dispatcher may drain a
/// contiguous same-tenant run of these into one batched engine pass
/// ([`Service::respond_event_backlog`]).
struct EventJob {
    request: Request,
    /// The connection and response-order slot the finished response is
    /// addressed to on the connection plane.
    conn: ConnId,
    seq: u64,
    /// When the event loop enqueued the job (service clock), so the
    /// worker that drains it can attribute the pool queue wait.
    submitted_ns: u64,
}

/// Runs the connection plane until a `shutdown` request arrives, then
/// flushes every in-flight response and returns. Pool workers are scoped
/// threads and the event loop runs on the calling thread, so every request
/// in flight completes before this returns — and the thread count is fixed
/// (workers + this thread) no matter how many clients are connected.
///
/// # Errors
///
/// Returns the event loop's I/O error if polling the sockets fails.
pub fn serve(service: &Service, listener: TcpListener) -> std::io::Result<()> {
    service_metrics()
        .workers
        .set(service.resolve_workers() as i64);
    // Created before the dispatcher: worker closures hand finished
    // responses back through this queue, addressed by (connection,
    // sequence), and its built-in waker nudges the event loop.
    let completions = Completions::new()?;
    // This daemon's own submitted-but-not-picked-up job count. The shed
    // decision reads it instead of the process-wide queue-depth gauge so
    // in-process test fixtures (several daemons, one telemetry registry)
    // cannot cross-talk into each other's overload control.
    let queued = AtomicI64::new(0);
    let completions_ref = &completions;
    let queued_ref = &queued;
    let dispatcher = Dispatcher::with_merge_runner(move |batch: Vec<EventJob>| {
        // The clock starts when the drained batch starts executing, so
        // elapsed_us stays pure service time (see the solo job path). The
        // time each job sat in the pool queue is accounted separately, as
        // the queue-wait histogram and a retroactive span per request.
        let metrics = service_metrics();
        metrics.workers_busy.add(1);
        metrics.queue_depth.add(-(batch.len() as i64));
        queued_ref.fetch_sub(batch.len() as i64, Ordering::Relaxed);
        let start_ns = service.now_ns();
        for job in &batch {
            if let Some(tenant) = job.request.body.tenant() {
                tenant_queue_depth(tenant).add(-1);
            }
            let wait_ns = start_ns.saturating_sub(job.submitted_ns);
            metrics.queue_wait.observe_ns(wait_ns);
            tsn_telemetry::record_span(
                "service.queue_wait",
                job.submitted_ns,
                wait_ns,
                Some(job.request.trace.unwrap_or(job.request.id)),
            );
        }
        let requests: Vec<&Request> = batch.iter().map(|job| &job.request).collect();
        let responses = service.respond_event_backlog(&requests, start_ns);
        for (job, response) in batch.iter().zip(responses) {
            completions_ref.complete(job.conn, job.seq, response.to_line());
        }
        metrics.workers_busy.add(-1);
    });
    std::thread::scope(|scope| {
        for _ in 0..service.resolve_workers() {
            scope.spawn(|| dispatcher.worker_loop());
        }
        let handler = ServiceHandler {
            service,
            dispatcher: &dispatcher,
            completions: &completions,
            queued: &queued,
            watermark: i64::try_from(service.config.shed_watermark).unwrap_or(i64::MAX),
        };
        let result =
            tsn_net::poll::serve_lines(listener, &handler, &completions, &PlaneConfig::default());
        dispatcher.shutdown();
        result
    })
}

/// The application half of the connection plane: parses request lines on
/// the event-loop thread, makes the shed decision, and submits everything
/// else to the worker pool keyed by tenant. Responses come back through
/// the shared [`Completions`] queue; the plane writes them in
/// per-connection request order.
struct ServiceHandler<'a, 'scope> {
    service: &'scope Service,
    dispatcher: &'a Dispatcher<'scope, EventJob>,
    completions: &'scope Completions,
    /// This daemon's submitted-but-not-picked-up job count (the shed
    /// signal).
    queued: &'scope AtomicI64,
    /// [`ServiceConfig::shed_watermark`], pre-converted; `0` disables.
    watermark: i64,
}

impl LineHandler for ServiceHandler<'_, '_> {
    fn on_line(&self, conn: ConnId, seq: u64, line: &str) -> LineOutcome {
        if line.trim().is_empty() {
            return LineOutcome::Ignore;
        }
        let (request, cache_key) = match self.service.decode_line(line, self.service.now_ns()) {
            Ok(decoded) => decoded,
            // Cache hits and malformed lines answer immediately (no pool
            // round-trip), still in order.
            Err(response) => return LineOutcome::Respond(response),
        };
        // Load shedding: once the pool queue is past the watermark, new
        // synthesize work — the throughput class — is rejected with a
        // typed retry_after response instead of deepening the queue.
        // Interactive classes (events, health, metrics, migration,
        // shutdown) always queue, so an overloaded daemon stays
        // observable and drainable.
        if self.watermark > 0 && matches!(request.body, RequestBody::Synthesize { .. }) {
            let depth = self.queued.load(Ordering::Relaxed);
            if depth >= self.watermark {
                service_metrics().shed.inc();
                log::warn(
                    "service.request",
                    "synthesize request shed at queue watermark",
                    &[
                        ("id", request.id.into()),
                        ("depth", depth.into()),
                        ("watermark", self.watermark.into()),
                    ],
                );
                let response = shed_response(
                    request.id,
                    request.trace,
                    format!(
                        "overloaded: {depth} jobs queued at watermark {}",
                        self.watermark
                    ),
                    SHED_RETRY_MS,
                );
                return LineOutcome::Respond(response.to_line());
            }
        }
        let service = self.service;
        let completions = self.completions;
        let queued = self.queued;
        let id = request.id;
        let trace = request.trace;
        let key = request.body.tenant().map(str::to_string);
        let submitted_ns = service.now_ns();
        service_metrics().queue_depth.add(1);
        queued.fetch_add(1, Ordering::Relaxed);
        if let Some(tenant) = &key {
            tenant_queue_depth(tenant).add(1);
        }
        // The job decrements the depth gauges when a worker picks it up; a
        // refused submit (below) never runs, so the handler undoes them.
        let gauge_key = key.clone();
        let refused_key = key.clone();
        // Tenant events are submitted as mergeable payloads: a worker
        // picking the tenant up drains its whole queued backlog into one
        // batched engine pass. Everything else runs as an opaque job.
        let refused = if matches!(request.body, RequestBody::Event { .. }) {
            self.dispatcher
                .submit_mergeable(
                    key,
                    EventJob {
                        request,
                        conn,
                        seq,
                        submitted_ns,
                    },
                )
                .is_err()
        } else {
            let job: crate::dispatch::Job<'_> = Box::new(move || {
                // The clock starts when the job starts, so elapsed_us is
                // pure service time — pool queueing behind other tenants'
                // solves is excluded (the cold-vs-hit cache metric depends
                // on that). The queued time is still accounted, in the
                // queue-wait histogram and a retroactive span.
                let metrics = service_metrics();
                metrics.queue_depth.add(-1);
                queued.fetch_sub(1, Ordering::Relaxed);
                if let Some(tenant) = &gauge_key {
                    tenant_queue_depth(tenant).add(-1);
                }
                metrics.workers_busy.add(1);
                let start_ns = service.now_ns();
                let wait_ns = start_ns.saturating_sub(submitted_ns);
                metrics.queue_wait.observe_ns(wait_ns);
                tsn_telemetry::record_span(
                    "service.queue_wait",
                    submitted_ns,
                    wait_ns,
                    Some(trace.unwrap_or(id)),
                );
                let response = service
                    .respond_keyed(&request, cache_key, start_ns)
                    .to_line();
                completions.complete(conn, seq, response);
                metrics.workers_busy.add(-1);
            });
            self.dispatcher.submit(key, job).is_err()
        };
        if refused {
            // The pool is draining. Running the job here would jump ahead
            // of this tenant's queued requests (breaking per-tenant FIFO),
            // so refuse it without touching any state.
            service_metrics().queue_depth.add(-1);
            queued.fetch_sub(1, Ordering::Relaxed);
            if let Some(tenant) = &refused_key {
                tenant_queue_depth(tenant).add(-1);
            }
            log::warn(
                "service.request",
                "request refused, daemon is shutting down",
                &[("id", id.into())],
            );
            let refused = Response {
                id,
                trace,
                cached: false,
                elapsed_us: 0,
                retry_after_ms: None,
                outcome: Err("daemon is shutting down".to_string()),
            };
            return LineOutcome::Respond(refused.to_line());
        }
        LineOutcome::Pending
    }

    fn on_oversized(&self, _conn: ConnId, limit: usize) -> Option<String> {
        log::warn(
            "service.request",
            "oversized request line rejected",
            &[("limit_bytes", (limit as i64).into())],
        );
        let response = Response {
            id: -1,
            trace: None,
            cached: false,
            elapsed_us: 0,
            retry_after_ms: None,
            outcome: Err(format!(
                "line_too_long: request line exceeds the {limit}-byte frame cap"
            )),
        };
        Some(response.to_line())
    }

    fn on_connect(&self, _conn: ConnId) {
        service_metrics().connections.add(1);
    }

    fn on_disconnect(&self, _conn: ConnId) {
        service_metrics().connections.add(-1);
    }

    fn shutting_down(&self) -> bool {
        self.service.shutdown_requested()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec};
    use tsn_online::NetworkEvent;
    use tsn_synthesis::ControlApplication;

    fn sample_problem(apps: usize) -> SynthesisProblem {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        for i in 0..apps {
            p.add_application(
                format!("loop-{i}"),
                net.sensors[i],
                net.controllers[i],
                Time::from_millis(10),
                1500,
                PiecewiseLinearBound::single_segment(2.0, 0.018),
            )
            .unwrap();
        }
        p
    }

    fn request(id: i64, body: RequestBody) -> Request {
        Request {
            id,
            trace: None,
            body,
        }
    }

    #[test]
    fn synthesize_is_cached_and_deterministic() {
        let service = Service::new(ServiceConfig::default());
        let body = RequestBody::Synthesize {
            problem: sample_problem(2),
            config: None,
            backend: Backend::Auto,
        };
        let cold = service.respond(&request(1, body.clone()), service.now_ns());
        let warm = service.respond(&request(2, body), service.now_ns());
        assert!(!cold.cached);
        assert!(warm.cached, "second identical request must hit the cache");
        assert_eq!(
            cold.outcome.as_ref().unwrap().to_string(),
            warm.outcome.as_ref().unwrap().to_string(),
            "cached payload must be byte-identical"
        );
    }

    #[test]
    fn tenant_lifecycle() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let service = Service::new(ServiceConfig::default());
        let open = RequestBody::OpenTenant {
            tenant: "t0".into(),
            topology: net.topology.clone(),
            forwarding_delay: Time::from_micros(5),
            config: None,
        };
        assert!(service
            .respond(&request(1, open.clone()), service.now_ns())
            .outcome
            .is_ok());
        // Duplicate opens are errors.
        assert!(service
            .respond(&request(2, open), service.now_ns())
            .outcome
            .is_err());
        let admit = RequestBody::Event {
            tenant: "t0".into(),
            event: NetworkEvent::AdmitApp {
                app: ControlApplication {
                    name: "loop".into(),
                    sensor: net.sensors[0],
                    controller: net.controllers[0],
                    period: Time::from_millis(10),
                    frame_bytes: 1500,
                    stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
                },
            },
        };
        let processed = service.respond(&request(3, admit), service.now_ns());
        let payload = processed.outcome.unwrap();
        assert_eq!(
            payload.get("type").and_then(Json::as_str),
            Some("event_processed")
        );
        // Latency in the payload is zeroed for determinism.
        let latency = payload
            .get("report")
            .and_then(|r| r.get("latency"))
            .unwrap();
        assert_eq!(latency.get("secs").and_then(Json::as_i64), Some(0));
        assert_eq!(latency.get("nanos").and_then(Json::as_i64), Some(0));

        let state = service
            .respond(
                &request(
                    4,
                    RequestBody::TenantState {
                        tenant: "t0".into(),
                    },
                ),
                service.now_ns(),
            )
            .outcome
            .unwrap();
        assert_eq!(
            state.get("live").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        let closed = service
            .respond(
                &request(
                    5,
                    RequestBody::CloseTenant {
                        tenant: "t0".into(),
                    },
                ),
                service.now_ns(),
            )
            .outcome
            .unwrap();
        assert_eq!(closed.get("loops_dropped").and_then(Json::as_i64), Some(1));
        assert_eq!(service.tenant_count(), 0);
        // Events to a closed tenant are errors, not panics.
        assert!(service
            .respond(
                &request(
                    6,
                    RequestBody::TenantState {
                        tenant: "t0".into()
                    }
                ),
                service.now_ns()
            )
            .outcome
            .is_err());
    }

    #[test]
    fn event_batches_process_jointly_and_deterministically() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let app = |i: usize| ControlApplication {
            name: format!("loop-{i}"),
            sensor: net.sensors[i],
            controller: net.controllers[i],
            period: Time::from_millis(10),
            frame_bytes: 1500,
            stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
        };
        let open = |service: &Service| {
            service.respond(
                &request(
                    1,
                    RequestBody::OpenTenant {
                        tenant: "t".into(),
                        topology: net.topology.clone(),
                        forwarding_delay: Time::from_micros(5),
                        config: None,
                    },
                ),
                service.now_ns(),
            )
        };
        let batch = RequestBody::EventBatch {
            tenant: "t".into(),
            events: vec![
                NetworkEvent::AdmitApp { app: app(0) },
                NetworkEvent::AdmitApp { app: app(1) },
            ],
        };
        let service = Service::new(ServiceConfig::default());
        assert!(open(&service).outcome.is_ok());
        let payload = service
            .respond(&request(2, batch.clone()), service.now_ns())
            .outcome
            .unwrap();
        assert_eq!(
            payload.get("type").and_then(Json::as_str),
            Some("batch_processed")
        );
        let report = payload.get("report").unwrap();
        assert_eq!(report.get("joint").and_then(Json::as_bool), Some(true));
        assert_eq!(
            report
                .get("latency")
                .and_then(|l| l.get("nanos"))
                .and_then(Json::as_i64),
            Some(0),
            "batch latency is zeroed for determinism"
        );
        // A fresh service answering the same batch produces the same bytes.
        let other = Service::new(ServiceConfig::default());
        assert!(open(&other).outcome.is_ok());
        let payload2 = other
            .respond(&request(2, batch), other.now_ns())
            .outcome
            .unwrap();
        assert_eq!(payload.to_string(), payload2.to_string());
        // Unknown tenants are typed errors.
        assert!(service
            .respond(
                &request(
                    3,
                    RequestBody::EventBatch {
                        tenant: "nope".into(),
                        events: vec![],
                    }
                ),
                service.now_ns()
            )
            .outcome
            .is_err());
    }

    #[test]
    fn drained_event_backlog_is_byte_identical_to_per_request_responses() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let app = |i: usize| ControlApplication {
            name: format!("loop-{i}"),
            sensor: net.sensors[i],
            controller: net.controllers[i],
            period: Time::from_millis(10),
            frame_bytes: 1500,
            stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
        };
        let open = RequestBody::OpenTenant {
            tenant: "t".into(),
            topology: net.topology.clone(),
            forwarding_delay: Time::from_micros(5),
            config: None,
        };
        let event_requests: Vec<Request> = (0..3)
            .map(|i| {
                request(
                    10 + i as i64,
                    RequestBody::Event {
                        tenant: "t".into(),
                        event: NetworkEvent::AdmitApp { app: app(i) },
                    },
                )
            })
            .collect();

        // Path A: the drained backlog (one batched engine pass).
        let batched = Service::new(ServiceConfig::default());
        assert!(batched
            .respond(&request(1, open.clone()), batched.now_ns())
            .outcome
            .is_ok());
        let refs: Vec<&Request> = event_requests.iter().collect();
        let batch_responses = batched.respond_event_backlog(&refs, batched.now_ns());

        // Path B: one respond() per request.
        let plain = Service::new(ServiceConfig::default());
        assert!(plain
            .respond(&request(1, open), plain.now_ns())
            .outcome
            .is_ok());
        for (req, batch_response) in event_requests.iter().zip(batch_responses) {
            let solo = plain.respond(req, plain.now_ns());
            assert_eq!(batch_response.id, solo.id);
            assert_eq!(
                batch_response.outcome.as_ref().unwrap().to_string(),
                solo.outcome.as_ref().unwrap().to_string(),
                "opportunistic batching must not change any response"
            );
        }
        // A backlog for an unknown tenant answers a typed error per request.
        let errors = batched.respond_event_backlog(
            &[&request(
                9,
                RequestBody::Event {
                    tenant: "ghost".into(),
                    event: NetworkEvent::RemoveApp {
                        app: tsn_online::AppId(0),
                    },
                },
            )],
            batched.now_ns(),
        );
        assert_eq!(errors.len(), 1);
        assert!(errors[0].outcome.is_err());
    }

    #[test]
    fn concurrent_identical_cold_synthesize_requests_solve_once() {
        let service = Service::new(ServiceConfig::default());
        let body = RequestBody::Synthesize {
            problem: sample_problem(2),
            config: None,
            backend: Backend::Auto,
        };
        let n = 4i64;
        let responses: Vec<Response> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let body = body.clone();
                    let service = &service;
                    scope.spawn(move || service.respond(&request(i, body), service.now_ns()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let payloads: Vec<String> = responses
            .iter()
            .map(|r| r.outcome.as_ref().unwrap().to_string())
            .collect();
        assert!(payloads.windows(2).all(|w| w[0] == w[1]), "shared outcome");
        // Exactly one solver run: every other request either hit the cache
        // or coalesced onto the in-flight solve (the split depends on
        // timing; the sum does not).
        let stats = service
            .respond(&request(99, RequestBody::Stats), service.now_ns())
            .outcome
            .unwrap();
        let count = |key: &str| stats.get(key).and_then(Json::as_i64).unwrap();
        assert_eq!(count("solves"), 1, "stats: {stats}");
        assert_eq!(
            count("coalesced_misses") + count("cache_hits"),
            n - 1,
            "stats: {stats}"
        );
    }

    #[test]
    fn malformed_lines_get_error_responses() {
        let service = Service::new(ServiceConfig::default());
        for line in ["", "{", "null", r#"{"id": 3, "request": {"type": "warp"}}"#] {
            let response = Response::parse_line(&service.handle_line(line)).unwrap();
            assert!(response.outcome.is_err(), "line {line:?} must fail");
        }
        // The id is echoed when the envelope parsed that far.
        let response =
            Response::parse_line(&service.handle_line(r#"{"id": 3, "request": {"type": "warp"}}"#))
                .unwrap();
        assert_eq!(response.id, 3);
    }

    #[test]
    fn manual_clock_makes_envelope_latency_exact() {
        // `elapsed_us` is measured through the injected `Clock`, so a test
        // can advance a `ManualClock` by a known amount "while the request
        // is in service" and assert the envelope field exactly.
        let clock = Arc::new(tsn_telemetry::ManualClock::at_ns(5_000));
        let service = Service::with_clock(ServiceConfig::default(), clock.clone());
        let start_ns = service.now_ns();
        clock.advance_ns(42_000);
        let response = service.respond(&request(1, RequestBody::Ping), start_ns);
        assert_eq!(response.elapsed_us, 42);
        assert!(response.outcome.is_ok());
    }

    #[test]
    fn metrics_request_serves_the_registry() {
        let service = Service::new(ServiceConfig::default());
        let response = service.respond(&request(1, RequestBody::Metrics), service.now_ns());
        let payload = response.outcome.expect("metrics request succeeds");
        assert_eq!(payload.get("type").and_then(Json::as_str), Some("metrics"));
        let exposition = payload
            .get("exposition")
            .and_then(Json::as_str)
            .expect("exposition text");
        // This respond() itself counted, so the counter is at least 1 and
        // the client-side parser can read it back.
        let requests = tsn_telemetry::sample_value(exposition, "requests_total")
            .expect("requests_total rendered");
        assert!(requests >= 1.0, "exposition: {exposition}");
        assert!(!response.cached, "metrics must never be cached");
    }

    #[test]
    fn health_request_reports_introspection() {
        // Uptime is measured on the injected clock, so it is exact.
        let clock = Arc::new(tsn_telemetry::ManualClock::at_ns(0));
        let service = Service::with_clock(ServiceConfig::default(), clock.clone());
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        assert!(service
            .respond(
                &request(
                    1,
                    RequestBody::OpenTenant {
                        tenant: "health-t".into(),
                        topology: net.topology.clone(),
                        forwarding_delay: Time::from_micros(5),
                        config: None,
                    },
                ),
                service.now_ns(),
            )
            .outcome
            .is_ok());
        // Provoke a logged rejection so the recent-log tail is non-empty.
        assert!(service
            .respond(
                &request(
                    2,
                    RequestBody::Event {
                        tenant: "health-ghost".into(),
                        event: NetworkEvent::RemoveApp {
                            app: tsn_online::AppId(0),
                        },
                    },
                ),
                service.now_ns(),
            )
            .outcome
            .is_err());
        clock.advance_ns(7_000_000);
        let response = service.respond(&request(3, RequestBody::Health), service.now_ns());
        assert!(!response.cached, "health must never be cached");
        let payload = response.outcome.expect("health request succeeds");
        assert_eq!(payload.get("type").and_then(Json::as_str), Some("health"));
        assert_eq!(payload.get("uptime_us").and_then(Json::as_i64), Some(7_000));
        assert_eq!(payload.get("tenants").and_then(Json::as_i64), Some(1));
        assert_eq!(payload.get("requests").and_then(Json::as_i64), Some(3));
        assert!(payload.get("errors").and_then(Json::as_i64) >= Some(1));
        assert!(payload.get("workers").and_then(Json::as_i64).is_some());
        assert!(payload.get("workers_busy").and_then(Json::as_i64).is_some());
        assert!(payload.get("queue_depth").and_then(Json::as_i64).is_some());
        // The recent-log tail carries the rejection (the logger is global,
        // so other tests' events may surround it — search, don't index).
        let tail = payload
            .get("recent_log")
            .and_then(Json::as_arr)
            .expect("recent_log array");
        assert!(tail.len() <= HEALTH_LOG_TAIL);
        assert!(
            tail.iter().any(|entry| {
                entry.get("level").and_then(Json::as_str) == Some("warn")
                    && entry
                        .get("fields")
                        .and_then(|f| f.get("tenant"))
                        .and_then(Json::as_str)
                        == Some("health-ghost")
            }),
            "rejection event missing from tail: {payload}"
        );
    }

    #[test]
    fn per_tenant_series_appear_labeled_in_the_exposition() {
        let service = Service::new(ServiceConfig::default());
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let tenant = "labeled \"tenant\"";
        assert!(service
            .respond(
                &request(
                    1,
                    RequestBody::OpenTenant {
                        tenant: tenant.into(),
                        topology: net.topology.clone(),
                        forwarding_delay: Time::from_micros(5),
                        config: None,
                    },
                ),
                service.now_ns(),
            )
            .outcome
            .is_ok());
        let metrics = service
            .respond(&request(2, RequestBody::Metrics), service.now_ns())
            .outcome
            .unwrap();
        let exposition = metrics
            .get("exposition")
            .and_then(Json::as_str)
            .expect("exposition text");
        // The hostile tenant name round-trips through label escaping.
        let requests = tsn_telemetry::sample_value_with(
            exposition,
            "service_tenant_requests_total",
            &[("tenant", tenant)],
        )
        .expect("labeled tenant series rendered");
        assert!(requests >= 1.0, "exposition: {exposition}");
        // And the bare-name lookup does not accidentally match it.
        assert_eq!(
            tsn_telemetry::sample_value(exposition, "service_tenant_requests_total"),
            None
        );
    }

    #[test]
    fn idle_sessions_are_evicted_and_counted() {
        let clock = Arc::new(tsn_telemetry::ManualClock::at_ns(0));
        let config = ServiceConfig {
            session_idle: Some(Duration::from_secs(5)),
            ..ServiceConfig::default()
        };
        let service = Service::with_clock(config, clock.clone());
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        assert!(service
            .respond(
                &request(
                    1,
                    RequestBody::OpenTenant {
                        tenant: "evictee".into(),
                        topology: net.topology.clone(),
                        forwarding_delay: Time::from_micros(5),
                        config: None,
                    },
                ),
                service.now_ns(),
            )
            .outcome
            .is_ok());
        let admit = RequestBody::Event {
            tenant: "evictee".into(),
            event: NetworkEvent::AdmitApp {
                app: ControlApplication {
                    name: "loop".into(),
                    sensor: net.sensors[0],
                    controller: net.controllers[0],
                    period: Time::from_millis(10),
                    frame_bytes: 1500,
                    stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
                },
            },
        };
        assert!(service
            .respond(&request(2, admit), service.now_ns())
            .outcome
            .is_ok());
        let stats_count = |service: &Service| {
            service
                .respond(&request(90, RequestBody::Stats), service.now_ns())
                .outcome
                .unwrap()
                .get("sessions_evicted")
                .and_then(Json::as_i64)
                .unwrap()
        };
        // Under the idle threshold nothing is evicted (the stats request
        // itself runs the sweep).
        clock.advance_ns(4_000_000_000);
        assert_eq!(stats_count(&service), 0);
        let health = |service: &Service| {
            service
                .respond(&request(91, RequestBody::Health), service.now_ns())
                .outcome
                .unwrap()
        };
        assert_eq!(
            health(&service).get("sessions").and_then(Json::as_i64),
            Some(1)
        );
        // Past it, the warm session goes — once.
        clock.advance_ns(6_000_000_000);
        assert_eq!(stats_count(&service), 1);
        assert_eq!(stats_count(&service), 1, "eviction must not double-count");
        let payload = health(&service);
        assert_eq!(payload.get("sessions").and_then(Json::as_i64), Some(0));
        assert_eq!(payload.get("tenants").and_then(Json::as_i64), Some(1));
        assert_eq!(payload.get("shard_id").and_then(Json::as_i64), Some(0));
        // The tenant survives eviction; the next event cold-solves.
        let state = service
            .respond(
                &request(
                    5,
                    RequestBody::TenantState {
                        tenant: "evictee".into(),
                    },
                ),
                service.now_ns(),
            )
            .outcome
            .unwrap();
        assert_eq!(
            state.get("live").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn migration_moves_a_tenant_between_services_transparently() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let app = |i: usize| ControlApplication {
            name: format!("loop-{i}"),
            sensor: net.sensors[i],
            controller: net.controllers[i],
            period: Time::from_millis(10),
            frame_bytes: 1500,
            stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
        };
        let open = |service: &Service, tenant: &str| {
            service.respond(
                &request(
                    1,
                    RequestBody::OpenTenant {
                        tenant: tenant.into(),
                        topology: net.topology.clone(),
                        forwarding_delay: Time::from_micros(5),
                        config: None,
                    },
                ),
                service.now_ns(),
            )
        };
        let event = |service: &Service, tenant: &str, i: usize| {
            service
                .respond(
                    &request(
                        10 + i as i64,
                        RequestBody::Event {
                            tenant: tenant.into(),
                            event: NetworkEvent::AdmitApp { app: app(i) },
                        },
                    ),
                    service.now_ns(),
                )
                .outcome
                .unwrap()
        };

        // Baseline: one service takes all three events.
        let straight = Service::new(ServiceConfig::default());
        assert!(open(&straight, "m").outcome.is_ok());
        let mut straight_payloads = Vec::new();
        for i in 0..3 {
            straight_payloads.push(event(&straight, "m", i).to_string());
        }

        // Migrated: two events on the donor, move the tenant, one on the
        // recipient. Every payload must be byte-identical to the baseline.
        let donor = Service::new(ServiceConfig::default());
        let recipient = Service::new(ServiceConfig::default());
        assert!(open(&donor, "m").outcome.is_ok());
        assert_eq!(event(&donor, "m", 0).to_string(), straight_payloads[0]);
        assert_eq!(event(&donor, "m", 1).to_string(), straight_payloads[1]);
        let out = donor
            .respond(
                &request(20, RequestBody::MigrateOut { tenant: "m".into() }),
                donor.now_ns(),
            )
            .outcome
            .unwrap();
        assert_eq!(out.get("type").and_then(Json::as_str), Some("migrated_out"));
        assert_eq!(donor.tenant_count(), 0, "donor forgets the tenant");
        // The snapshot travels as wire JSON (exactly what the router ships).
        let snapshot = tsn_online::wire::session_snapshot_from_json(
            out.get("snapshot").expect("snapshot member"),
        )
        .expect("snapshot decodes");
        assert!(snapshot.session.is_some(), "donor session travels warm");
        let migrate_in = recipient
            .respond(
                &request(
                    21,
                    RequestBody::MigrateIn {
                        tenant: "m".into(),
                        snapshot: Box::new(snapshot),
                    },
                ),
                recipient.now_ns(),
            )
            .outcome
            .unwrap();
        assert_eq!(
            migrate_in.get("warm").and_then(Json::as_bool),
            Some(true),
            "restored engine keeps the donor's warm session"
        );
        let migrated = event(&recipient, "m", 2);
        assert_eq!(
            migrated.to_string(),
            straight_payloads[2],
            "a migrated tenant's responses must be byte-identical"
        );
        assert_eq!(
            migrated
                .get("report")
                .and_then(|r| r.get("warm"))
                .and_then(Json::as_bool),
            Some(true),
            "the post-migration solve must run warm, not cold"
        );

        // A second migrate_in under the same name is refused; a migrate_out
        // of a ghost is a typed error.
        let again = recipient.respond(
            &request(
                22,
                RequestBody::MigrateIn {
                    tenant: "m".into(),
                    snapshot: Box::new(
                        OnlineEngine::new(
                            net.topology.clone(),
                            Time::from_micros(5),
                            OnlineConfig::default(),
                        )
                        .export_session(),
                    ),
                },
            ),
            recipient.now_ns(),
        );
        assert!(again.outcome.is_err());
        assert!(donor
            .respond(
                &request(
                    23,
                    RequestBody::MigrateOut {
                        tenant: "ghost".into(),
                    },
                ),
                donor.now_ns(),
            )
            .outcome
            .is_err());
    }

    #[test]
    fn shutdown_flag_is_observable() {
        let service = Service::new(ServiceConfig::default());
        assert!(!service.shutdown_requested());
        let response = service.respond(&request(1, RequestBody::Shutdown), service.now_ns());
        assert!(response.outcome.is_ok());
        assert!(service.shutdown_requested());
    }

    #[test]
    fn forced_backends_agree_on_schedules() {
        // The same small problem through both backends: reports may differ
        // in bookkeeping but both must verify and carry the same loop count.
        let problem = sample_problem(3);
        let mono = synthesize_result_json(
            &problem,
            &ServiceConfig::default().default_synthesis,
            Backend::Monolithic,
            24,
        )
        .unwrap();
        let part = synthesize_result_json(
            &problem,
            &ServiceConfig::default().default_synthesis,
            Backend::Partitioned,
            24,
        )
        .unwrap();
        assert_eq!(
            mono.get("backend").and_then(Json::as_str),
            Some("monolithic")
        );
        assert_eq!(
            part.get("backend").and_then(Json::as_str),
            Some("partitioned")
        );
        for payload in [&mono, &part] {
            let report = payload.get("report").unwrap();
            let stable = report.get("stable_applications").and_then(Json::as_i64);
            assert_eq!(stable, Some(3), "all loops stable: {payload}");
        }
    }
}
