//! The router core: request classification, shard forwarding, fleet
//! aggregation, and shard draining with warm-session migration.
//!
//! The router speaks the same newline-delimited JSON protocol as the
//! daemons it fronts and forwards request lines **verbatim** — a shard sees
//! exactly the bytes the client sent, so shard responses (payloads, error
//! strings, even the diagnostics for malformed lines) are byte-identical
//! to what a single daemon would have produced. The router only *parses*
//! incoming lines far enough to pick a shard: the envelope `id`/`trace`
//! and the request's `type` and `tenant` members.
//!
//! Client sockets are served by the [`tsn_net::poll`] connection plane
//! (one `poll(2)` event loop owning framing, pipelining and write
//! backpressure) and forwards execute on a bounded worker pool keyed per
//! connection, so one client's requests stay strictly ordered while the
//! thread count is fixed no matter how many clients connect.

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tsn_net::framing::{read_one_line, LineRead, MAX_LINE_BYTES};
use tsn_net::json::Json;
use tsn_net::poll::{Completions, ConnId, LineHandler, LineOutcome, PlaneConfig};
use tsn_service::dispatch::{Dispatcher, Job};
use tsn_service::fnv1a64;
use tsn_service::protocol::{envelope_ids, Response};
use tsn_telemetry::log;

use crate::ring::Ring;

/// Configuration for a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The shard fleet: one `host:port` address per `tsn-serviced` daemon.
    /// Order matters — the index into this list is the shard number used
    /// by `directory` and `drain_shard`.
    pub shards: Vec<String>,
}

/// One pooled shard connection: the write half plus a buffered reader.
struct ShardConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ShardConn {
    fn connect(addr: &str) -> std::io::Result<ShardConn> {
        let stream = TcpStream::connect(addr)?;
        // Request and response lines are far below the MSS; Nagle would
        // stall every forwarded round trip on the shard's delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(ShardConn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line. A send that errors means the shard never
    /// accepted the line, so the caller may safely retry it elsewhere.
    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Blocks for the one response line to a sent request. Once `send`
    /// succeeded a failure here is **mid-request**: the shard may already
    /// have executed the request, so the caller must not retry it.
    fn recv(&mut self) -> std::io::Result<String> {
        let mut reply = Vec::new();
        // The socket has no read timeout, so WouldBlock cannot surface;
        // loop anyway so a spurious one just retries the read.
        loop {
            match read_one_line(&mut self.reader, &mut reply, MAX_LINE_BYTES) {
                LineRead::Line => return Ok(String::from_utf8_lossy(&reply).into_owned()),
                LineRead::WouldBlock => {}
                LineRead::Eof => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "shard closed the connection",
                    ));
                }
                LineRead::Failed => {
                    return Err(std::io::Error::other("shard connection broke"));
                }
                LineRead::TooLong => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("shard reply exceeds the {MAX_LINE_BYTES}-byte frame cap"),
                    ));
                }
            }
        }
    }

    /// Whether this pooled connection died (or desynced) while idle. A
    /// one-byte nonblocking peek distinguishes the cases without consuming
    /// anything: `WouldBlock` is the only healthy answer for an idle
    /// connection — EOF means the shard closed it, readable bytes mean an
    /// unsolicited reply (the stream is desynced), and any other error
    /// means the socket broke.
    fn is_stale(&mut self) -> bool {
        if !self.reader.buffer().is_empty() {
            // Reply bytes nobody asked for are already a desync.
            return true;
        }
        let stream = self.reader.get_ref();
        if stream.set_nonblocking(true).is_err() {
            return true;
        }
        let mut probe = [0u8; 1];
        let stale = match stream.peek(&mut probe) {
            Ok(_) => true,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
            Err(_) => true,
        };
        stream.set_nonblocking(false).is_err() || stale
    }
}

/// One shard: its address and a pool of idle connections to it.
struct Shard {
    addr: String,
    pool: Mutex<Vec<ShardConn>>,
}

/// The mutable routing state, guarded as one unit so a drain swaps the
/// ring and migrates tenants atomically with respect to request routing.
struct Routing {
    /// `active[i]` is false once shard `i` has been drained.
    active: Vec<bool>,
    /// The consistent-hash ring over the active shards.
    ring: Ring,
    /// Where each open tenant lives. Authoritative over the ring: a
    /// request for a known tenant always goes to its recorded home, so
    /// ring changes can never strand a tenant that has not been migrated.
    homes: BTreeMap<String, usize>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    forwarded: AtomicU64,
    migrations: AtomicU64,
    errors: AtomicU64,
}

/// The sharding front-end. See the [crate docs](crate) for the protocol.
pub struct Router {
    shards: Vec<Shard>,
    routing: Mutex<Routing>,
    counters: Counters,
    shutdown: AtomicBool,
    /// Ids for router-originated shard requests (migrations, probes,
    /// broadcasts). Purely diagnostic — each pooled connection carries one
    /// request at a time, so replies cannot interleave.
    internal_id: AtomicI64,
}

impl Router {
    /// Builds a router over the given fleet.
    ///
    /// # Errors
    ///
    /// Returns an error when the fleet is empty or lists the same address
    /// twice (duplicate addresses would double-count ring points).
    pub fn new(config: RouterConfig) -> Result<Router, String> {
        if config.shards.is_empty() {
            return Err("a router needs at least one shard".to_string());
        }
        let mut seen = std::collections::BTreeSet::new();
        for addr in &config.shards {
            if !seen.insert(addr.as_str()) {
                return Err(format!("duplicate shard address {addr:?}"));
            }
        }
        let active = vec![true; config.shards.len()];
        let ring = Ring::build(&config.shards, &active);
        Ok(Router {
            shards: config
                .shards
                .into_iter()
                .map(|addr| Shard {
                    addr,
                    pool: Mutex::new(Vec::new()),
                })
                .collect(),
            routing: Mutex::new(Routing {
                active,
                ring,
                homes: BTreeMap::new(),
            }),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            internal_id: AtomicI64::new(1),
        })
    }

    /// True once a `shutdown` request has been served.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Tenants the router currently knows a home for.
    pub fn tenant_count(&self) -> usize {
        self.routing.lock().expect("routing lock").homes.len()
    }

    /// Warm-session migrations performed by drains so far.
    pub fn migrations(&self) -> u64 {
        self.counters.migrations.load(Ordering::Relaxed)
    }

    fn next_internal_id(&self) -> i64 {
        self.internal_id.fetch_add(1, Ordering::Relaxed)
    }

    fn addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// Routes one request line and returns the one response line (no
    /// trailing newline). Never panics on malformed input — unparseable
    /// lines are forwarded verbatim so a shard's own diagnostics answer.
    pub fn handle_line(&self, line: &str) -> String {
        let started = Instant::now();
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let doc = match Json::parse(line.trim()) {
            Ok(doc) => doc,
            Err(_) => {
                let shard = self.route_keyless(None, line);
                return self.forward(shard, line, (None, None), started);
            }
        };
        let ids = envelope_ids(&doc);
        let (id, trace) = (ids.0.unwrap_or(0), ids.1);
        let request = doc.get("request");
        let rtype = request.and_then(|r| r.get("type")).and_then(Json::as_str);
        let tenant = request.and_then(|r| r.get("tenant")).and_then(Json::as_str);
        match rtype {
            Some("directory") => self.local(id, trace, started, Ok(self.directory())),
            Some("drain_shard") => {
                let outcome = match request.and_then(|r| r.get("shard")).and_then(Json::as_i64) {
                    Some(shard) if shard >= 0 => self.drain_shard(shard as usize),
                    _ => Err("drain_shard needs a non-negative \"shard\" member".to_string()),
                };
                self.local(id, trace, started, outcome)
            }
            Some("stats") => {
                let outcome = self.fleet_stats();
                self.local(id, trace, started, outcome)
            }
            Some("metrics") => self.local(id, trace, started, Ok(self.fleet_metrics())),
            Some("health") => self.local(id, trace, started, Ok(self.fleet_health())),
            Some("shutdown") => {
                let notified = self.broadcast_shutdown();
                self.shutdown.store(true, Ordering::SeqCst);
                log::info(
                    "router",
                    "shutdown requested, fleet notified",
                    &[("shards_notified", notified.into())],
                );
                // Reply exactly as a single daemon would, so clients
                // cannot tell a fleet from one daemon.
                self.local(
                    id,
                    trace,
                    started,
                    Ok(Json::obj([("type", Json::from("shutting_down"))])),
                )
            }
            _ => {
                let shard = match tenant {
                    Some(t) => self.route_tenant(t),
                    None => self.route_keyless(request, line),
                };
                let response = self.forward(shard, line, ids, started);
                if let (Some(rtype), Some(tenant)) = (rtype, tenant) {
                    self.note_tenant_lifecycle(rtype, tenant, shard, &response);
                }
                response
            }
        }
    }

    /// The shard a tenant-keyed request goes to: the tenant's recorded
    /// home if it has one, else its consistent-hash position. Public so
    /// test harnesses can predict placements when staging a drain.
    pub fn route_tenant(&self, tenant: &str) -> usize {
        let routing = self.routing.lock().expect("routing lock");
        routing.homes.get(tenant).copied().unwrap_or_else(|| {
            routing
                .ring
                .shard_for_tenant(tenant)
                .expect("the last active shard can never be drained")
        })
    }

    /// The shard a keyless request goes to. Hashing the `request` member
    /// (not the whole line) keeps the envelope `id`/`trace` out of the
    /// key, so identical `synthesize` problems always land on the same
    /// shard and its content-addressed result cache keeps hitting.
    fn route_keyless(&self, request: Option<&Json>, line: &str) -> usize {
        let key = match request {
            Some(request) => request.to_string(),
            None => line.trim().to_string(),
        };
        self.routing
            .lock()
            .expect("routing lock")
            .ring
            .lookup(fnv1a64(key.as_bytes()))
            .expect("the last active shard can never be drained")
    }

    /// Records tenant placements from successful lifecycle responses, so
    /// drains know exactly which tenants live on which shard. Only
    /// `open_tenant` and `close_tenant` move a tenant; every other
    /// response goes back unread.
    fn note_tenant_lifecycle(&self, rtype: &str, tenant: &str, shard: usize, response: &str) {
        let opened = match rtype {
            "open_tenant" => true,
            "close_tenant" => false,
            _ => return,
        };
        let succeeded = Json::parse(response.trim())
            .map(|doc| doc.get("ok").is_some())
            .unwrap_or(false);
        if !succeeded {
            return;
        }
        let mut routing = self.routing.lock().expect("routing lock");
        if opened {
            routing.homes.insert(tenant.to_string(), shard);
        } else {
            routing.homes.remove(tenant);
        }
    }

    /// Forwards one line to a shard and returns the shard's response
    /// line. Unreachable shards answer with a router-built error envelope
    /// (the one case where the router writes a response for a forwarded
    /// request) echoing `ids`, the line's [`envelope_ids`].
    fn forward(
        &self,
        shard: usize,
        line: &str,
        (id, trace): (Option<i64>, Option<i64>),
        started: Instant,
    ) -> String {
        self.counters.forwarded.fetch_add(1, Ordering::Relaxed);
        match self.round_trip_shard(shard, line) {
            Ok(response) => response,
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                log::error(
                    "router.forward",
                    "shard round trip failed",
                    &[("shard", shard.into()), ("error", e.as_str().into())],
                );
                self.local(id.unwrap_or(0), trace, started, Err(e))
            }
        }
    }

    /// One request/response round trip on a pooled shard connection.
    ///
    /// Pooled connections that died while idle (the shard restarted or
    /// timed the socket out) are detected by a nonblocking peek and
    /// discarded *before* the request line is written. A retry on a fresh
    /// connection happens **only when the line was never delivered** — a
    /// stale pool entry, or a `send` that errored. Once a send succeeded,
    /// a receive failure is a hard mid-request error: the shard may
    /// already have executed the request, and non-idempotent requests
    /// (tenant events, migrations) must never be delivered twice.
    fn round_trip_shard(&self, shard: usize, line: &str) -> Result<String, String> {
        let target = &self.shards[shard];
        loop {
            // Pop via a `let` statement so the pool guard drops at the
            // semicolon. A `while let` scrutinee would keep the guard
            // alive for the whole loop body, and the re-pool below locks
            // the same mutex — instant self-deadlock.
            let popped = target.pool.lock().expect("pool lock").pop();
            let Some(mut conn) = popped else { break };
            if conn.is_stale() {
                log::info(
                    "router.pool",
                    "stale pooled shard connection discarded",
                    &[("shard", shard.into())],
                );
                continue;
            }
            if conn.send(line).is_err() {
                // The line never reached the shard; fall through to the
                // fresh-connection retry below.
                log::info(
                    "router.pool",
                    "pooled shard connection refused the request line, retrying fresh",
                    &[("shard", shard.into())],
                );
                break;
            }
            return match conn.recv() {
                Ok(reply) => {
                    target.pool.lock().expect("pool lock").push(conn);
                    Ok(reply)
                }
                Err(e) => Err(format!(
                    "shard {shard} ({}) failed mid-request: {e}",
                    target.addr
                )),
            };
        }
        let mut conn = ShardConn::connect(&target.addr)
            .map_err(|e| format!("shard {shard} ({}) unreachable: {e}", target.addr))?;
        conn.send(line)
            .map_err(|e| format!("shard {shard} ({}) unreachable: {e}", target.addr))?;
        let reply = conn
            .recv()
            .map_err(|e| format!("shard {shard} ({}) failed mid-request: {e}", target.addr))?;
        target.pool.lock().expect("pool lock").push(conn);
        Ok(reply)
    }

    /// Decodes a shard reply far enough to extract the `ok` payload.
    fn ok_payload(reply: &str) -> Result<Json, String> {
        let doc = Json::parse(reply.trim()).map_err(|e| format!("malformed shard reply: {e}"))?;
        if let Some(payload) = doc.get("ok") {
            return Ok(payload.clone());
        }
        match doc.get("error").and_then(Json::as_str) {
            Some(message) => Err(message.to_string()),
            None => Err("shard reply carries neither \"ok\" nor \"error\"".to_string()),
        }
    }

    /// Builds a router-local response envelope, identical in shape to a
    /// daemon's.
    fn local(
        &self,
        id: i64,
        trace: Option<i64>,
        started: Instant,
        outcome: Result<Json, String>,
    ) -> String {
        if outcome.is_err() {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        Response {
            id,
            trace,
            cached: false,
            elapsed_us: i64::try_from(started.elapsed().as_micros()).unwrap_or(i64::MAX),
            retry_after_ms: None,
            outcome,
        }
        .to_line()
    }

    /// Serves a `directory` request: the fleet roster with per-shard
    /// liveness, occupancy, and identity (probed via each shard's
    /// `health` request).
    fn directory(&self) -> Json {
        let routing = self.routing.lock().expect("routing lock");
        let probe = Json::obj([
            ("id", Json::Int(self.next_internal_id())),
            ("request", Json::obj([("type", Json::from("health"))])),
        ])
        .to_string();
        let mut entries = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let tenants_here = routing.homes.values().filter(|s| **s == i).count();
            let mut pairs = vec![
                ("shard".to_string(), Json::from(i)),
                ("addr".to_string(), Json::from(shard.addr.as_str())),
                ("active".to_string(), Json::Bool(routing.active[i])),
                ("tenants".to_string(), Json::from(tenants_here)),
            ];
            match self
                .round_trip_shard(i, &probe)
                .and_then(|reply| Router::ok_payload(&reply))
            {
                Ok(health) => {
                    pairs.push(("healthy".to_string(), Json::Bool(true)));
                    for key in ["shard_id", "sessions", "uptime_us"] {
                        if let Some(value) = health.get(key) {
                            pairs.push((key.to_string(), value.clone()));
                        }
                    }
                }
                Err(e) => {
                    pairs.push(("healthy".to_string(), Json::Bool(false)));
                    pairs.push(("error".to_string(), Json::from(e.as_str())));
                }
            }
            entries.push(Json::Obj(pairs));
        }
        Json::obj([
            ("type", Json::from("directory")),
            ("tenants", Json::from(routing.homes.len())),
            (
                "migrations",
                Json::Int(self.counters.migrations.load(Ordering::Relaxed) as i64),
            ),
            ("shards", Json::Arr(entries)),
        ])
    }

    /// Serves a `stats` request by fanning out to every active shard and
    /// summing the numeric counters, so the fleet answers like one big
    /// daemon. Adds `shards` (active count) and `migrations` on top.
    fn fleet_stats(&self) -> Result<Json, String> {
        let active: Vec<usize> = {
            let routing = self.routing.lock().expect("routing lock");
            (0..self.shards.len())
                .filter(|i| routing.active[*i])
                .collect()
        };
        let probe = Json::obj([
            ("id", Json::Int(self.next_internal_id())),
            ("request", Json::obj([("type", Json::from("stats"))])),
        ])
        .to_string();
        // First-seen member order is preserved, so the summed payload
        // keeps the daemon's own key order.
        let mut sums: Vec<(String, i64)> = Vec::new();
        for shard in &active {
            let reply = self.round_trip_shard(*shard, &probe)?;
            let payload =
                Router::ok_payload(&reply).map_err(|e| format!("stats from shard {shard}: {e}"))?;
            let Json::Obj(members) = payload else {
                return Err(format!(
                    "stats from shard {shard}: payload is not an object"
                ));
            };
            for (key, value) in members {
                if key == "type" {
                    continue;
                }
                let Some(n) = value.as_i64() else { continue };
                match sums.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, total)) => *total += n,
                    None => sums.push((key, n)),
                }
            }
        }
        let mut pairs = vec![("type".to_string(), Json::from("stats"))];
        pairs.extend(sums.into_iter().map(|(k, v)| (k, Json::Int(v))));
        pairs.push(("shards".to_string(), Json::from(active.len())));
        pairs.push((
            "migrations".to_string(),
            Json::Int(self.counters.migrations.load(Ordering::Relaxed) as i64),
        ));
        Ok(Json::Obj(pairs))
    }

    /// Serves a `health` request: fleet totals plus every shard's own
    /// health payload (drained and unreachable shards included, marked).
    fn fleet_health(&self) -> Json {
        let active: Vec<bool> = self.routing.lock().expect("routing lock").active.clone();
        let probe = Json::obj([
            ("id", Json::Int(self.next_internal_id())),
            ("request", Json::obj([("type", Json::from("health"))])),
        ])
        .to_string();
        let mut tenants = 0i64;
        let mut sessions = 0i64;
        let mut entries = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let mut pairs = vec![
                ("shard".to_string(), Json::from(i)),
                ("addr".to_string(), Json::from(shard.addr.as_str())),
                ("active".to_string(), Json::Bool(active[i])),
            ];
            match self
                .round_trip_shard(i, &probe)
                .and_then(|reply| Router::ok_payload(&reply))
            {
                Ok(health) => {
                    tenants += health.get("tenants").and_then(Json::as_i64).unwrap_or(0);
                    sessions += health.get("sessions").and_then(Json::as_i64).unwrap_or(0);
                    pairs.push(("health".to_string(), health));
                }
                Err(e) => pairs.push(("error".to_string(), Json::from(e.as_str()))),
            }
            entries.push(Json::Obj(pairs));
        }
        Json::obj([
            ("type", Json::from("health")),
            ("tenants", Json::Int(tenants)),
            ("sessions", Json::Int(sessions)),
            (
                "migrations",
                Json::Int(self.counters.migrations.load(Ordering::Relaxed) as i64),
            ),
            ("shards", Json::Arr(entries)),
        ])
    }

    /// Serves a `metrics` request: every active shard's exposition text,
    /// labeled by shard.
    fn fleet_metrics(&self) -> Json {
        let active: Vec<bool> = self.routing.lock().expect("routing lock").active.clone();
        let probe = Json::obj([
            ("id", Json::Int(self.next_internal_id())),
            ("request", Json::obj([("type", Json::from("metrics"))])),
        ])
        .to_string();
        let mut entries = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            if !active[i] {
                continue;
            }
            let mut pairs = vec![
                ("shard".to_string(), Json::from(i)),
                ("addr".to_string(), Json::from(shard.addr.as_str())),
            ];
            match self
                .round_trip_shard(i, &probe)
                .and_then(|reply| Router::ok_payload(&reply))
            {
                Ok(payload) => match payload.get("exposition") {
                    Some(exposition) => pairs.push(("exposition".to_string(), exposition.clone())),
                    None => pairs.push((
                        "error".to_string(),
                        Json::from("shard metrics payload carries no exposition"),
                    )),
                },
                Err(e) => pairs.push(("error".to_string(), Json::from(e.as_str()))),
            }
            entries.push(Json::Obj(pairs));
        }
        Json::obj([
            ("type", Json::from("metrics")),
            ("shards", Json::Arr(entries)),
        ])
    }

    /// Broadcasts `shutdown` to every shard (drained ones too — they are
    /// still running, just empty) and returns how many acknowledged.
    fn broadcast_shutdown(&self) -> usize {
        let line = Json::obj([
            ("id", Json::Int(self.next_internal_id())),
            ("request", Json::obj([("type", Json::from("shutdown"))])),
        ])
        .to_string();
        (0..self.shards.len())
            .filter(|shard| self.round_trip_shard(*shard, &line).is_ok())
            .count()
    }

    /// Drains one shard: removes it from the ring, then moves every
    /// tenant homed there to its new consistent-hash home via
    /// `migrate_out`/`migrate_in` — the warm solver session travels in
    /// the snapshot, so migrated tenants resume without a cold re-solve.
    ///
    /// The routing lock is held for the whole drain: no request can race
    /// a tenant mid-move. The drained daemon keeps running (and keeps
    /// answering direct probes) until it is shut down.
    fn drain_shard(&self, shard: usize) -> Result<Json, String> {
        if shard >= self.shards.len() {
            return Err(format!(
                "no such shard {shard} (the fleet has {})",
                self.shards.len()
            ));
        }
        let mut routing = self.routing.lock().expect("routing lock");
        if !routing.active[shard] {
            return Err(format!("shard {shard} is already drained"));
        }
        if routing.active.iter().filter(|a| **a).count() < 2 {
            return Err("cannot drain the last active shard".to_string());
        }
        routing.active[shard] = false;
        routing.ring = Ring::build(&self.addrs(), &routing.active);
        let moving: Vec<String> = routing
            .homes
            .iter()
            .filter(|(_, home)| **home == shard)
            .map(|(tenant, _)| tenant.clone())
            .collect();
        let mut migrated = 0i64;
        for tenant in &moving {
            let target = routing
                .ring
                .shard_for_tenant(tenant)
                .expect("at least one shard stays active");
            self.migrate_tenant(tenant, shard, target)?;
            routing.homes.insert(tenant.clone(), target);
            migrated += 1;
            self.counters.migrations.fetch_add(1, Ordering::Relaxed);
        }
        log::info(
            "router.drain",
            "shard drained",
            &[("shard", shard.into()), ("migrated", migrated.into())],
        );
        Ok(Json::obj([
            ("type", Json::from("shard_drained")),
            ("shard", Json::from(shard)),
            ("addr", Json::from(self.shards[shard].addr.as_str())),
            ("migrated", Json::Int(migrated)),
        ]))
    }

    /// Moves one tenant: `migrate_out` on the donor, `migrate_in` on the
    /// target, passing the snapshot JSON through untouched. If the target
    /// refuses the snapshot, the tenant is restored to the donor so the
    /// exported session is never lost.
    fn migrate_tenant(&self, tenant: &str, from: usize, to: usize) -> Result<(), String> {
        let out_line = Json::obj([
            ("id", Json::Int(self.next_internal_id())),
            (
                "request",
                Json::obj([
                    ("type", Json::from("migrate_out")),
                    ("tenant", Json::from(tenant)),
                ]),
            ),
        ])
        .to_string();
        let reply = self.round_trip_shard(from, &out_line)?;
        let payload = Router::ok_payload(&reply)
            .map_err(|e| format!("migrate_out of {tenant:?} from shard {from}: {e}"))?;
        let snapshot = payload
            .get("snapshot")
            .cloned()
            .ok_or_else(|| format!("migrate_out reply for {tenant:?} carries no snapshot"))?;
        let in_line = |shard_snapshot: Json| {
            Json::obj([
                ("id", Json::Int(self.next_internal_id())),
                (
                    "request",
                    Json::obj([
                        ("type", Json::from("migrate_in")),
                        ("tenant", Json::from(tenant)),
                        ("snapshot", shard_snapshot),
                    ]),
                ),
            ])
            .to_string()
        };
        match self
            .round_trip_shard(to, &in_line(snapshot.clone()))
            .and_then(|reply| Router::ok_payload(&reply))
        {
            Ok(installed) => {
                let warm = installed
                    .get("warm")
                    .and_then(Json::as_bool)
                    .unwrap_or(false);
                log::info(
                    "router.migrate",
                    "tenant migrated",
                    &[
                        ("tenant", tenant.into()),
                        ("from", from.into()),
                        ("to", to.into()),
                        ("warm", warm.into()),
                    ],
                );
                Ok(())
            }
            Err(e) => {
                let restored = self
                    .round_trip_shard(from, &in_line(snapshot))
                    .and_then(|reply| Router::ok_payload(&reply))
                    .is_ok();
                Err(format!(
                    "migrate_in of {tenant:?} to shard {to}: {e}{}",
                    if restored {
                        " (tenant restored to its original shard)"
                    } else {
                        " (tenant could NOT be restored — its session is lost)"
                    }
                ))
            }
        }
    }
}

/// Worker threads of the forward pool. Router workers spend their time
/// blocked on shard round trips, not computing, so the pool is sized well
/// past the core count — it bounds concurrent *forwards*, and one worker
/// per core would serialize the fleet behind a single slow shard.
fn forward_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .saturating_mul(4)
        .clamp(4, 32)
}

/// Serves the router on `listener` until a `shutdown` request arrives,
/// then returns. Client sockets are owned by one [`tsn_net::poll`] event
/// loop (framing, pipelining, write backpressure); forwards run on a
/// scoped worker pool keyed per connection, so one connection's requests
/// are answered strictly in order while different connections forward in
/// parallel — and the thread count stays fixed (the forward workers plus
/// the event loop) no matter how many clients connect. Every request in
/// flight completes before this returns.
///
/// # Errors
///
/// Returns the event loop's I/O error if polling the sockets fails.
pub fn serve(router: &Router, listener: TcpListener) -> std::io::Result<()> {
    let completions = Completions::new()?;
    let dispatcher: Dispatcher = Dispatcher::new();
    std::thread::scope(|scope| {
        for _ in 0..forward_workers() {
            scope.spawn(|| dispatcher.worker_loop());
        }
        let handler = RouterHandler {
            router,
            dispatcher: &dispatcher,
            completions: &completions,
        };
        let result =
            tsn_net::poll::serve_lines(listener, &handler, &completions, &PlaneConfig::default());
        dispatcher.shutdown();
        result
    })
}

/// The application half of the router's connection plane: hands each
/// request line to the forward pool, keyed by connection so a client that
/// pipelines requests gets its responses in request order (the contract
/// the thread-per-connection loop used to provide).
struct RouterHandler<'a, 'env> {
    router: &'env Router,
    dispatcher: &'a Dispatcher<'env>,
    completions: &'env Completions,
}

/// Live client connections (`router_connections` gauge).
fn connections_gauge() -> tsn_telemetry::Gauge {
    tsn_telemetry::registry().gauge("router_connections")
}

impl LineHandler for RouterHandler<'_, '_> {
    fn on_line(&self, conn: ConnId, seq: u64, line: &str) -> LineOutcome {
        if line.trim().is_empty() {
            return LineOutcome::Ignore;
        }
        let router = self.router;
        let completions = self.completions;
        let owned = line.to_string();
        let job: Job<'_> = Box::new(move || {
            let response = router.handle_line(&owned);
            completions.complete(conn, seq, response);
        });
        // One key per connection: same-connection requests serialize in
        // submission order, different connections share the pool freely.
        if let Err(job) = self.dispatcher.submit(Some(format!("conn-{conn}")), job) {
            // The pool only drains after the event loop exits, so this is
            // a cannot-happen guard; answer rather than drop the line.
            drop(job);
            let (id, trace) = Json::parse(line.trim())
                .map(|doc| envelope_ids(&doc))
                .unwrap_or_default();
            let refused = Response {
                id: id.unwrap_or(0),
                trace,
                cached: false,
                elapsed_us: 0,
                retry_after_ms: None,
                outcome: Err("router is shutting down".to_string()),
            };
            return LineOutcome::Respond(refused.to_line());
        }
        LineOutcome::Pending
    }

    fn on_oversized(&self, _conn: ConnId, limit: usize) -> Option<String> {
        log::warn(
            "router.request",
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
        connections_gauge().add(1);
    }

    fn on_disconnect(&self, _conn: ConnId) {
        connections_gauge().add(-1);
    }

    fn shutting_down(&self) -> bool {
        self.router.shutdown_requested()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Addresses on the TCP discard port: parseable, never listening, so
    /// connects fail fast and these tests stay network-free in effect.
    fn dead_fleet(n: usize) -> RouterConfig {
        RouterConfig {
            shards: (0..n).map(|i| format!("127.0.0.1:{}", 9 + i)).collect(),
        }
    }

    #[test]
    fn new_rejects_empty_and_duplicate_fleets() {
        let empty = Router::new(RouterConfig { shards: vec![] });
        assert!(empty.is_err(), "an empty fleet must be rejected");
        let dup = Router::new(RouterConfig {
            shards: vec!["127.0.0.1:9".into(), "127.0.0.1:9".into()],
        });
        assert_eq!(
            dup.err().as_deref(),
            Some("duplicate shard address \"127.0.0.1:9\"")
        );
    }

    #[test]
    fn keyless_routing_ignores_the_envelope_id() {
        let router = Router::new(dead_fleet(4)).expect("router");
        let a = Json::parse(r#"{"id":1,"request":{"type":"ping"}}"#).expect("json");
        let b = Json::parse(r#"{"id":999,"trace":7,"request":{"type":"ping"}}"#).expect("json");
        assert_eq!(
            router.route_keyless(a.get("request"), "unused"),
            router.route_keyless(b.get("request"), "unused"),
            "the same request body must route to the same shard regardless of envelope"
        );
    }

    #[test]
    fn tenant_routing_prefers_the_recorded_home() {
        let router = Router::new(dead_fleet(4)).expect("router");
        let ring_choice = router.route_tenant("plant-7");
        let forced = (ring_choice + 1) % 4;
        router
            .routing
            .lock()
            .expect("routing lock")
            .homes
            .insert("plant-7".to_string(), forced);
        assert_eq!(
            router.route_tenant("plant-7"),
            forced,
            "a recorded home must override the ring"
        );
    }

    #[test]
    fn drain_validates_its_target() {
        let router = Router::new(dead_fleet(2)).expect("router");
        assert_eq!(
            router.drain_shard(5).err().as_deref(),
            Some("no such shard 5 (the fleet has 2)")
        );
        // No tenants are homed on shard 0, so the drain needs no network.
        let drained = router.drain_shard(0).expect("drain succeeds");
        assert_eq!(
            drained.get("type").and_then(Json::as_str),
            Some("shard_drained")
        );
        assert_eq!(drained.get("migrated").and_then(Json::as_i64), Some(0));
        assert_eq!(
            router.drain_shard(0).err().as_deref(),
            Some("shard 0 is already drained")
        );
        assert_eq!(
            router.drain_shard(1).err().as_deref(),
            Some("cannot drain the last active shard")
        );
    }

    #[test]
    fn unreachable_shards_answer_with_an_error_envelope() {
        let router = Router::new(dead_fleet(1)).expect("router");
        let response = router.handle_line(r#"{"id":42,"trace":9,"request":{"type":"ping"}}"#);
        let reply = Response::parse_line(&response).expect("well-formed envelope");
        assert_eq!(reply.id, 42);
        assert_eq!(reply.trace, Some(9));
        let message = reply.outcome.expect_err("unreachable shard must error");
        assert!(
            message.contains("unreachable"),
            "error should say the shard is unreachable: {message}"
        );
    }

    #[test]
    fn directory_reports_dead_shards_as_unhealthy() {
        let router = Router::new(dead_fleet(2)).expect("router");
        let response = router.handle_line(r#"{"id":1,"request":{"type":"directory"}}"#);
        let reply = Response::parse_line(&response).expect("well-formed envelope");
        let payload = reply.outcome.expect("directory always answers");
        assert_eq!(
            payload.get("type").and_then(Json::as_str),
            Some("directory")
        );
        assert_eq!(payload.get("tenants").and_then(Json::as_i64), Some(0));
        let shards = payload
            .get("shards")
            .and_then(Json::as_arr)
            .expect("roster");
        assert_eq!(shards.len(), 2);
        for entry in shards {
            assert_eq!(entry.get("healthy").and_then(Json::as_bool), Some(false));
            assert_eq!(entry.get("active").and_then(Json::as_bool), Some(true));
        }
    }
}
