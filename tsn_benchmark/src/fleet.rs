//! `fleet_mixed`: `tsn-routerd` in front of two `tsn-serviced` shards,
//! eight tenants streaming stateful `event`s mixed with cached
//! `synthesize` requests, each tenant waiting for its reply before it sends
//! again.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tsn_net::json::Json;
use tsn_online::{OnlineConfig, OnlineEngine};
use tsn_service::protocol::{event_result_json, tenant_state_json, Backend, RequestBody};
use tsn_service::{synthesize_result_json, ServiceConfig};
use tsn_synthesis::verify_schedule;
use tsn_workload::{service_trace, ServiceScenario, TenantTrace};

use crate::check::record_simulation;
use crate::children::{shutdown_fleet, start_repeatedly, Daemon};
use crate::layers;
use crate::loadgen::{ask, ok_suffix, Conn, CONNECTIONS};
use crate::procfs;
use crate::report::Outcome;
use crate::serve::{record_daemon_counters, WORKERS};
use crate::stats::{micros, windowed_percentile, Summary};
use crate::RunOptions;

const TENANTS: usize = 8;
const SHARDS: usize = 2;
/// `wall_s` is the median of this many equal parts of the pass; latencies
/// are read in as many windows.
const SEGMENTS: usize = 5;
/// Online events per tenant and second of requested run time. The trace is
/// fixed work for a given seed and `--seconds`: on the code this was sized
/// on, the pass takes about as long as requested.
const EVENTS_PER_TENANT_SECOND: f64 = 300.0;
/// Tenants whose every response is recomputed in-process and compared
/// (one on each of the two tenant fabrics the generator alternates).
const REPLAYED_TENANTS: usize = 2;

/// The router and its shards, and the way to reach them.
struct Fleet {
    router: Daemon,
    shards: Vec<Daemon>,
}

impl Fleet {
    fn start(opts: &RunOptions, traced: bool) -> Result<Fleet, String> {
        let mut shards = Vec::with_capacity(SHARDS);
        for i in 0..SHARDS {
            let mut args = vec![
                "--workers".to_string(),
                WORKERS.to_string(),
                "--shard-id".to_string(),
                i.to_string(),
            ];
            if traced {
                let path = opts
                    .scratch
                    .parent()
                    .unwrap_or(&opts.scratch)
                    .join(format!("trace-fleet_mixed-shard{i}.json"));
                args.extend([
                    "--trace-out".to_string(),
                    path.to_string_lossy().to_string(),
                ]);
            }
            shards.push(Daemon::spawn(
                "tsn-serviced",
                &format!("shard{i}"),
                &args,
                &opts.scratch,
            )?);
        }
        let args: Vec<String> = shards
            .iter()
            .flat_map(|s| ["--shard".to_string(), s.addr.to_string()])
            .collect();
        let router = Daemon::spawn("tsn-routerd", "router", &args, &opts.scratch)?;
        Ok(Fleet { router, shards })
    }

    fn addr(&self) -> SocketAddr {
        self.router.addr
    }

    fn shard_cpu(&self) -> Duration {
        self.shards.iter().map(Daemon::cpu_time).sum()
    }

    fn peak_rss_mib(&self) -> f64 {
        self.router.peak_rss_mib() + self.shards.iter().map(Daemon::peak_rss_mib).sum::<f64>()
    }

    /// One `shutdown` through the router stops the whole fleet.
    fn shutdown(self) -> Result<(), String> {
        let addr = self.addr();
        let mut all = self.shards;
        all.push(self.router);
        shutdown_fleet(addr, all)
    }
}

/// One tenant's requests as wire lines; the first opens the session.
struct TenantLines {
    lines: Vec<Vec<u8>>,
}

fn encode(traces: &[TenantTrace]) -> Vec<TenantLines> {
    traces
        .iter()
        .map(|trace| TenantLines {
            lines: trace
                .requests
                .iter()
                .map(|r| {
                    let mut line = r.to_line().into_bytes();
                    line.push(b'\n');
                    line
                })
                .collect(),
        })
        .collect()
}

/// One answered request of the pass.
struct Exchange {
    tenant: usize,
    index: usize,
    sent: Instant,
    done: Instant,
    reply: Vec<u8>,
}

/// Drives the given tenants over one connection: each tenant has at most
/// one request outstanding, and the connection answers in request order.
/// `first` is the index of each tenant's first request to send.
fn drive(
    addr: SocketAddr,
    tenants: &[(usize, &TenantLines)],
    first: usize,
) -> Result<Vec<Exchange>, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut exchanges = Vec::new();
    let mut outstanding: VecDeque<(usize, usize, Instant)> = VecDeque::new();
    for (slot, (_, tenant)) in tenants.iter().enumerate() {
        if let Some(line) = tenant.lines.get(first) {
            conn.send(line).map_err(|e| format!("send: {e}"))?;
            outstanding.push_back((slot, first, Instant::now()));
        }
    }
    while let Some((slot, index, sent)) = outstanding.pop_front() {
        let reply = conn.recv().map_err(|e| format!("reply: {e}"))?.to_vec();
        let done = Instant::now();
        let (tenant, lines) = tenants[slot];
        exchanges.push(Exchange {
            tenant,
            index,
            sent,
            done,
            reply,
        });
        if let Some(line) = lines.lines.get(index + 1) {
            conn.send(line).map_err(|e| format!("send: {e}"))?;
            outstanding.push_back((slot, index + 1, Instant::now()));
        }
    }
    Ok(exchanges)
}

/// Runs every tenant from request `first` to the end of its trace, half of
/// the tenants on each connection.
fn pass(addr: SocketAddr, lines: &[TenantLines], first: usize) -> Result<Vec<Exchange>, String> {
    let per_conn = lines.len().div_ceil(CONNECTIONS);
    let indexed: Vec<(usize, &TenantLines)> = lines.iter().enumerate().collect();
    let results: Vec<Result<Vec<Exchange>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = indexed
            .chunks(per_conn)
            .map(|group| scope.spawn(move || drive(addr, group, first)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    for result in results {
        all.extend(result?);
    }
    all.sort_by_key(|e| e.done);
    Ok(all)
}

/// The bytes of a response line after `"ok":`, or `None` for an error, a
/// shed or a malformed line.
fn ok_payload(reply: &[u8]) -> Option<&[u8]> {
    let marker = b",\"ok\":";
    let at = reply.windows(marker.len()).position(|w| w == marker)?;
    reply.get(at + marker.len()..reply.len().checked_sub(1)?)
}

/// Recomputes one tenant's whole session with direct library calls and
/// compares every payload the fleet returned for it; then verifies and
/// simulates the tenant's final schedule. Returns the stable and total
/// loops summed over the tenant's events.
fn replay_tenant(
    trace: &TenantTrace,
    replies: &HashMap<usize, &[u8]>,
    outcome: &mut Outcome,
) -> (usize, usize) {
    let mut engine: Option<OnlineEngine> = None;
    let mut loops = (0, 0);
    let config = OnlineConfig::default();
    for (index, request) in trace.requests.iter().enumerate() {
        let expected = match &request.body {
            RequestBody::OpenTenant {
                topology,
                forwarding_delay,
                ..
            } => {
                engine = Some(OnlineEngine::new(
                    topology.clone(),
                    *forwarding_delay,
                    config.clone(),
                ));
                continue;
            }
            RequestBody::Event { event, .. } => {
                let engine = engine.as_mut().expect("traces open their tenant first");
                let report = engine.process(event.clone());
                loops.0 += report.stable_loops;
                loops.1 += report.total_loops;
                event_result_json(&report)
            }
            RequestBody::TenantState { tenant } => {
                tenant_state_json(tenant, engine.as_ref().expect("tenant is open"))
            }
            _ => continue,
        };
        let served = replies.get(&index).and_then(|reply| ok_payload(reply));
        outcome.check(if served == Some(expected.to_string().as_bytes()) {
            Ok(())
        } else {
            Err(format!(
                "{} request {index}: payload differs from the direct library call",
                trace.tenant
            ))
        });
    }
    if let Some(engine) = &engine {
        if let (Some((problem, schedule)), Some(report)) = (engine.snapshot(), engine.report()) {
            outcome.check(
                verify_schedule(&problem, &schedule, config.synthesis.mode)
                    .map_err(|what| format!("{}: final state rejected: {what}", trace.tenant)),
            );
            record_simulation(outcome, &problem, &report);
        }
    }
    loops
}

/// Checks every response of the pass. Cheap checks on all of them, the
/// full differential on the replayed tenants.
fn check_pass(traces: &[TenantTrace], exchanges: &[Exchange], outcome: &mut Outcome) {
    let defaults = ServiceConfig::default();
    let mut oracle: HashMap<String, Vec<u8>> = HashMap::new();
    let mut loops = (0usize, 0usize);
    for exchange in exchanges {
        let request = &traces[exchange.tenant].requests[exchange.index];
        let Some(payload) = ok_payload(&exchange.reply) else {
            outcome.fail(
                1,
                format!(
                    "{} request {}: {}",
                    traces[exchange.tenant].tenant,
                    exchange.index,
                    String::from_utf8_lossy(&exchange.reply[..exchange.reply.len().min(200)])
                ),
            );
            continue;
        };
        match &request.body {
            // One-shot problems come from a pool of three: solve each with
            // the library once and compare every response with it.
            RequestBody::Synthesize { problem, .. } => {
                let key = request.body.to_json().to_string();
                let expected = oracle.entry(key).or_insert_with(|| {
                    let payload = synthesize_result_json(
                        problem,
                        &defaults.default_synthesis,
                        Backend::Auto,
                        defaults.scale_threshold_apps,
                    )
                    .expect("pool problems are schedulable");
                    ok_suffix(&payload.to_string())
                });
                if !exchange.reply.ends_with(expected) {
                    outcome.fail(1, "synthesize payload differs from the library's");
                }
            }
            // Tenants that are not replayed still prove their loops stable.
            RequestBody::Event { .. } if exchange.tenant >= REPLAYED_TENANTS => {
                let report = std::str::from_utf8(payload)
                    .ok()
                    .and_then(|text| Json::parse(text).ok())
                    .and_then(|json| json.get("report").cloned());
                let count = |key: &str| {
                    report
                        .as_ref()
                        .and_then(|r| r.get(key))
                        .and_then(Json::as_i64)
                        .unwrap_or(-1)
                };
                if count("stable_loops") < 0 || count("stable_loops") != count("total_loops") {
                    outcome.fail(1, "an event left an unstable or unreadable loop count");
                } else {
                    loops.0 += count("stable_loops") as usize;
                    loops.1 += count("total_loops") as usize;
                }
            }
            _ => {}
        }
    }
    for (t, trace) in traces.iter().enumerate().take(REPLAYED_TENANTS) {
        let replies: HashMap<usize, &[u8]> = exchanges
            .iter()
            .filter(|e| e.tenant == t)
            .map(|e| (e.index, e.reply.as_slice()))
            .collect();
        let replayed = replay_tenant(trace, &replies, outcome);
        loops.0 += replayed.0;
        loops.1 += replayed.1;
    }
    if loops.0 != loops.1 {
        outcome.fail(
            (loops.1 - loops.0) as u64,
            "not every admitted loop is stable",
        );
    }
    outcome.set("stable_share", loops.0 as f64 / loops.1.max(1) as f64);
}

/// Opens every tenant's session: the pre-warm of this workload.
fn open_tenants(addr: SocketAddr, lines: &[TenantLines]) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for tenant in lines {
        conn.send(&tenant.lines[0])
            .map_err(|e| format!("open_tenant: {e}"))?;
        let reply = conn.recv().map_err(|e| format!("open_tenant reply: {e}"))?;
        if ok_payload(reply).is_none() {
            return Err(format!(
                "open_tenant refused: {}",
                String::from_utf8_lossy(&reply[..reply.len().min(200)])
            ));
        }
    }
    Ok(())
}

/// What one timed pass over the whole trace measured.
struct Pass {
    exchanges: Vec<Exchange>,
    started: Instant,
    router_cpu: Duration,
    shard_cpu: Duration,
    loadgen_cpu: Duration,
    peak_rss_mib: f64,
    shard_requests: Vec<f64>,
    stats: Option<Json>,
    exposition: String,
}

impl Pass {
    /// Seconds from the first send to the last completion.
    fn seconds(&self) -> f64 {
        self.exchanges.last().map_or(0.0, |last| {
            last.done.duration_since(self.started).as_secs_f64()
        })
    }
}

fn timed_pass(fleet: Fleet, lines: &[TenantLines], outcome: &mut Outcome) -> Option<Pass> {
    let addr = fleet.addr();
    let before = (
        fleet.router.cpu_time(),
        fleet.shard_cpu(),
        procfs::cpu_time(procfs::SELF).unwrap_or_default(),
    );
    let started = Instant::now();
    let exchanges = {
        let _span = tsn_telemetry::span!("bench.fleet_mixed.pass");
        pass(addr, lines, 1)
    };
    let after = (
        fleet.router.cpu_time(),
        fleet.shard_cpu(),
        procfs::cpu_time(procfs::SELF).unwrap_or_default(),
    );
    // Each shard's own request count, asked directly (not through the
    // router, whose `stats` is the sum), and its metrics.
    let per_shard: Vec<(Option<Json>, Option<Json>)> = fleet
        .shards
        .iter()
        .map(|s| {
            (
                ask(s.addr, RequestBody::Stats),
                ask(s.addr, RequestBody::Metrics),
            )
        })
        .collect();
    let stats = ask(addr, RequestBody::Stats);
    let peak_rss_mib = fleet.peak_rss_mib();
    outcome.check(fleet.shutdown());
    let exchanges = match exchanges {
        Ok(exchanges) => exchanges,
        Err(why) => {
            outcome.check(Err(why));
            return None;
        }
    };
    // Quantiles cannot be merged across histograms: keep the exposition of
    // the busier shard.
    let exposition = per_shard
        .iter()
        .filter_map(|(_, metrics)| {
            let text = metrics.as_ref()?.get("exposition")?.as_str()?;
            let requests = tsn_telemetry::sample_value(text, "requests_total")?;
            Some((requests, text.to_string()))
        })
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, text)| text)
        .unwrap_or_default();
    Some(Pass {
        exchanges,
        started,
        router_cpu: after.0.saturating_sub(before.0),
        shard_cpu: after.1.saturating_sub(before.1),
        loadgen_cpu: after.2.saturating_sub(before.2),
        peak_rss_mib,
        shard_requests: per_shard
            .iter()
            .map(|(stats, _)| {
                stats
                    .as_ref()
                    .and_then(|s| s.get("requests"))
                    .and_then(Json::as_i64)
                    .unwrap_or(0) as f64
            })
            .collect(),
        stats,
        exposition,
    })
}

pub fn run(opts: &RunOptions) -> Outcome {
    let mut outcome = Outcome::default();
    let seconds = if opts.traced { 3.0 } else { opts.seconds };
    let scenario = ServiceScenario {
        tenants: TENANTS,
        events_per_tenant: if opts.smoke {
            12
        } else {
            (EVENTS_PER_TENANT_SECOND * seconds).round() as usize
        },
        synthesize_every: 4,
        problem_pool: 3,
        burst: 1,
        seed: opts.seed,
    };

    // Set-up: generate and encode the traces, start the fleet, open the
    // sessions.
    let started = start_repeatedly(
        if opts.smoke { 1 } else { 5 },
        || {
            let traces = service_trace(&scenario);
            let lines = encode(&traces);
            let fleet = Fleet::start(opts, false)?;
            open_tenants(fleet.addr(), &lines)?;
            Ok((fleet, traces, lines))
        },
        |(fleet, _, _)| fleet.shutdown(),
    );
    let (fleet, traces, lines) = match started {
        Ok((ready, median)) => {
            outcome.set("setup_s", median);
            ready
        }
        Err(why) => {
            outcome.check(Err(why));
            return outcome;
        }
    };

    let Some(pass) = timed_pass(fleet, &lines, &mut outcome) else {
        return outcome;
    };
    let total = pass.exchanges.len();
    let expected: usize = lines.iter().map(|t| t.lines.len() - 1).sum();
    outcome.attempt(expected as u64);
    if total != expected {
        outcome.fail((expected - total) as u64, "requests went unanswered");
    }
    check_pass(&traces, &pass.exchanges, &mut outcome);

    // The pass is fixed work for a seed; it is read in five segments of
    // equally many completions and the median segment reported.
    let pass_seconds = pass.seconds();
    if total < SEGMENTS || pass_seconds <= 0.0 {
        outcome.fail(1, "the pass completed nothing");
        return outcome;
    }
    println!(
        "pass of {total} requests took {pass_seconds:.3} s: {:.1} requests per second",
        total as f64 / pass_seconds
    );
    let mut previous = pass.started;
    let segments: Vec<f64> = pass
        .exchanges
        .chunks_exact(total / SEGMENTS)
        .map(|segment| {
            let end = segment[segment.len() - 1].done;
            let seconds = end.duration_since(previous).as_secs_f64();
            previous = end;
            seconds
        })
        .collect();
    let wall = Summary::of(&segments);
    println!("wall_s {wall}");
    outcome.set("wall_s", wall.median);
    // Event round trips in completion order, read in the same segments.
    let event_latencies: Vec<Duration> = pass
        .exchanges
        .iter()
        .filter(|e| {
            matches!(
                traces[e.tenant].requests[e.index].body,
                RequestBody::Event { .. }
            )
        })
        .map(|e| e.done.duration_since(e.sent))
        .collect();
    let windowed =
        |label: &str, q: f64| micros(windowed_percentile(label, &event_latencies, SEGMENTS, q));
    outcome.set("lat_p50_us", windowed("event p50", 0.5));
    outcome.set("lat_p95_us", windowed("event p95", 0.95));
    outcome.set("loadgen.lat_p99_us", windowed("event p99", 0.99));
    outcome.set("peak_rss_mib", pass.peak_rss_mib);

    let per_request = |cpu: Duration| micros(cpu) / total.max(1) as f64;
    let shard_cpu = per_request(pass.shard_cpu);
    let loadgen_cpu = per_request(pass.loadgen_cpu);
    outcome.set("tsn_router.cpu_us_per_req", per_request(pass.router_cpu));
    outcome.set("tsn_service.cpu_us_per_req", shard_cpu);
    outcome.set("loadgen.cpu_us_per_req", loadgen_cpu);
    if !opts.smoke && loadgen_cpu > 0.15 * shard_cpu {
        outcome.fail(
            1,
            format!(
                "load generator used {loadgen_cpu:.1} us of CPU per request, over 15% of the \
                 shards' {shard_cpu:.1}"
            ),
        );
    }
    let busiest = pass.shard_requests.iter().copied().fold(0.0, f64::max);
    let idlest = pass
        .shard_requests
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    if idlest > 0.0 {
        outcome.set("tsn_router.shard_balance", busiest / idlest);
    }
    record_daemon_counters(&mut outcome, pass.stats.as_ref(), &pass.exposition);

    if opts.traced {
        // The same pass against shards started with `--trace-out`.
        match Fleet::start(opts, true).and_then(|fleet| {
            open_tenants(fleet.addr(), &lines)?;
            Ok(fleet)
        }) {
            Err(why) => outcome.check(Err(why)),
            Ok(fleet) => {
                tsn_telemetry::set_enabled(true);
                let traced = timed_pass(fleet, &lines, &mut outcome);
                tsn_telemetry::set_enabled(false);
                if let Some(traced) = traced.filter(|t| !t.exchanges.is_empty()) {
                    let per_request = traced.seconds() / traced.exchanges.len() as f64;
                    outcome.set(
                        "tsn_telemetry.trace_overhead_share",
                        per_request / (pass_seconds / total as f64) - 1.0,
                    );
                }
            }
        }
        let shards: Vec<String> = (0..SHARDS)
            .map(|i| format!("127.0.0.1:{}", 4500 + i))
            .collect();
        let tenants: Vec<String> = traces.iter().map(|t| t.tenant.clone()).collect();
        outcome.set(
            "tsn_router.ring_lookup_ns",
            layers::ring_lookup_ns(&shards, &tenants),
        );
    }
    outcome
}
