//! `serve_hot` and `serve_cold`: one `tsn-serviced --workers 2` child under
//! a closed loop (throughput) and an open loop (latency from due time).
//! Hot requests all hit the result cache; cold ones all miss it.

use std::time::Duration;

use tsn_control::PiecewiseLinearBound;
use tsn_net::json::Json;
use tsn_net::{builders, LinkSpec, Time};
use tsn_service::protocol::{Backend, Request, RequestBody};
use tsn_service::{synthesize_result_json, ServiceConfig};
use tsn_synthesis::SynthesisProblem;
use tsn_workload::pool_problem;

use crate::children::{shutdown_fleet, start_repeatedly, Daemon};
use crate::layers;
use crate::loadgen::{
    ask, closed_loop, echo_ceiling, ok_suffix, open_loop, Conn, OpenLoop, Prepared,
};
use crate::procfs;
use crate::report::Outcome;
use crate::stats::{micros, percentile_or_max, windowed_percentile, Summary};
use crate::RunOptions;

/// Worker threads of every daemon under test: pinned, never `0 = auto`.
pub const WORKERS: usize = 2;

/// The two serving workloads differ in what the requests do to the cache.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Every request misses the cache (and evicts); otherwise every
    /// request hits.
    cold: bool,
    /// Distinct problems in the request cycle.
    problems: usize,
    /// Requests kept in flight per connection in the closed loop.
    window: usize,
    /// `wall_s` is the time this many completions take at the rate of the
    /// whole closed-loop phase: the mean over the phase's batches, which
    /// every stall lengthens. (Throughput on this machine wanders between
    /// two levels on a scale of seconds; the median batch jumps with
    /// whichever level held the majority.)
    batch: usize,
    /// Offered rate of the open loop, requests per second.
    open_rps: f64,
    /// The open loop's p95 must stay under this or all its requests count
    /// as failed.
    p95_limit: Duration,
    /// Nine sends in ten must leave no later than this or the run is
    /// invalid: the generator, not the daemon, was being measured. (The
    /// gate is not on the reported p99: this shared machine stalls a
    /// process for tens of milliseconds now and then, which lands in the
    /// p99 of a few thousand sends. Lateness is charged to latency either
    /// way.)
    late_limit: Duration,
}

impl ServeSpec {
    /// Six pre-warmed problems: the serving plane with the solver idle.
    pub const HOT: ServeSpec = ServeSpec {
        cold: false,
        problems: 6,
        window: 8,
        batch: 4096,
        // An eighth of the daemon's capacity: at a quarter (2000 rps) the p95
        // amplified every dip in capacity and spread by 32 % over ten runs,
        // at 1000 rps by 3 % over six.
        open_rps: 1000.0,
        p95_limit: Duration::from_millis(5),
        late_limit: Duration::from_millis(1),
    };
    /// A working set four times the daemon's 256-entry LRU, cycled in
    /// order: parse, dispatch, solve, encode, insert and evict every time.
    pub const COLD: ServeSpec = ServeSpec {
        cold: true,
        problems: 1024,
        window: 4,
        batch: 256,
        // A fifth of the daemon's capacity.
        open_rps: 300.0,
        p95_limit: Duration::from_millis(10),
        // Two solver workers and the event loop keep both cores busy, and
        // the generator's sender queues behind them: a quarter of the
        // latency limit is allowed.
        late_limit: Duration::from_micros(2500),
    };
}

/// A splitmix64 stream: the benchmark's own seeded generator, so that the
/// inputs depend on nothing but `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One member of the cold family: three loops on the figure-1 network
/// with periods of 10, 20 and 20 ms in a seeded order, seeded stability
/// bounds and a seeded assignment of controllers. Members differ in content,
/// so each one misses the cache, but not in structure: one solve takes 0.8 ms
/// to 1.4 ms whichever the seed. (A family that also drew the number of loops
/// and each period took 0.3 ms to 17 ms per solve; its mean moved by a tenth
/// from seed to seed, and its percentiles with whichever members fell into a
/// window.) The bounds are lenient enough that every member is schedulable.
fn cold_problem(rng: &mut SplitMix, tag: &str) -> SynthesisProblem {
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    let mut problem = SynthesisProblem::new(net.topology, Time::from_micros(5));
    let fast = rng.below(3) as usize;
    let rotate = rng.below(3) as usize;
    for i in 0..3 {
        let period_ms = if i == fast { 10 } else { 20 };
        let alpha = 1.5 + rng.below(1000) as f64 / 1000.0;
        let beta = 0.012 + rng.below(8000) as f64 / 1e6;
        problem
            .add_application(
                format!("{tag}-{i}"),
                net.sensors[i],
                net.controllers[(i + rotate) % 3],
                Time::from_millis(period_ms),
                1500,
                PiecewiseLinearBound::single_segment(alpha, beta),
            )
            .expect("family members are valid by construction");
    }
    problem
}

/// Builds the request cycle and, by calling the library directly, the
/// payload every response must carry byte for byte. Also returns the
/// stable and total applications over those payloads' schedules.
fn prepare(spec: ServeSpec, seed: u64, smoke: bool) -> (Vec<Prepared>, (usize, usize)) {
    let count = if smoke {
        spec.problems.min(8)
    } else {
        spec.problems
    };
    let mut rng = SplitMix(seed ^ 0xC01D_CAFE);
    let problems: Vec<SynthesisProblem> = (0..count)
        .map(|k| {
            if spec.cold {
                cold_problem(&mut rng, &format!("cold-{seed}-{k}"))
            } else {
                pool_problem((seed % 1_000_000) as usize * count + k)
            }
        })
        .collect();
    let defaults = ServiceConfig::default();
    let expect = |problem: &SynthesisProblem| {
        let payload = synthesize_result_json(
            problem,
            &defaults.default_synthesis,
            Backend::Auto,
            defaults.scale_threshold_apps,
        )
        .expect("every generated problem is schedulable");
        let stable = payload
            .get("report")
            .and_then(|r| r.get("stable_applications"))
            .and_then(Json::as_i64)
            .unwrap_or(0) as usize;
        (ok_suffix(&payload.to_string()), stable)
    };
    // The oracle solves every problem once; split the work over two
    // threads, it is not part of any measurement.
    let half = problems.len().div_ceil(2);
    let expected: Vec<(Vec<u8>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = problems
            .chunks(half)
            .map(|chunk| scope.spawn(move || chunk.iter().map(expect).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let stability = (
        expected.iter().map(|(_, stable)| stable).sum(),
        problems.iter().map(|p| p.applications().len()).sum(),
    );
    let prepared = problems
        .iter()
        .zip(expected)
        .enumerate()
        .map(|(k, (problem, (expect_suffix, _)))| {
            let mut line = Request {
                id: k as i64 + 1,
                trace: None,
                body: RequestBody::Synthesize {
                    problem: problem.clone(),
                    config: None,
                    backend: Backend::Auto,
                },
            }
            .to_line()
            .into_bytes();
            line.push(b'\n');
            Prepared {
                line,
                expect_suffix,
                expect_cached: Some(!spec.cold),
            }
        })
        .collect();
    (prepared, stability)
}

/// Spawns the daemon and, for the hot workload, fills its cache.
fn start_daemon(
    spec: ServeSpec,
    opts: &RunOptions,
    requests: &[Prepared],
    trace_out: Option<&str>,
) -> Result<Daemon, String> {
    let mut args = vec!["--workers".to_string(), WORKERS.to_string()];
    if let Some(path) = trace_out {
        args.extend(["--trace-out".to_string(), path.to_string()]);
    }
    let daemon = Daemon::spawn("tsn-serviced", "serviced", &args, &opts.scratch)?;
    if !spec.cold {
        let mut conn = Conn::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
        for request in requests {
            conn.send(&request.line)
                .map_err(|e| format!("pre-warm send: {e}"))?;
            let reply = conn.recv().map_err(|e| format!("pre-warm reply: {e}"))?;
            if !reply.ends_with(&request.expect_suffix) {
                return Err(format!(
                    "pre-warm payload differs from the library's: {}",
                    String::from_utf8_lossy(&reply[..reply.len().min(160)])
                ));
            }
        }
    }
    Ok(daemon)
}

/// Daemon-side numbers of one measured phase pair.
struct Measured {
    batches: Vec<f64>,
    closed_rps: f64,
    completed: usize,
    daemon_cpu_us_per_req: f64,
    loadgen_cpu_us_per_req: f64,
    open: OpenLoop,
    /// Open-loop latency percentiles, the median over the windows.
    open_p50: Duration,
    open_p95: Duration,
    stats: Option<Json>,
    exposition: String,
    peak_rss_mib: f64,
}

/// Closed loop then open loop against a fresh daemon, then its own
/// counters, then a clean shutdown.
fn measure(
    spec: ServeSpec,
    opts: &RunOptions,
    requests: &[Prepared],
    daemon: Daemon,
    closed: Duration,
    open: Duration,
    outcome: &mut Outcome,
) -> Measured {
    let addr = daemon.addr;
    let cpu_before = (daemon.cpu_time(), procfs::cpu_time(procfs::SELF));
    let run = {
        let _span = tsn_telemetry::span!("bench.serve.closed_loop");
        closed_loop(addr, requests, 0, spec.window, closed)
    };
    let cpu_after = (daemon.cpu_time(), procfs::cpu_time(procfs::SELF));
    let completed = run.completions.len();
    outcome.attempt((completed + run.failed) as u64);
    if run.failed > 0 {
        outcome.fail(
            run.failed as u64,
            format!("closed loop: {}", run.failures.join("; ")),
        );
    }
    let per_req = |before: Duration, after: Duration| {
        micros(after.saturating_sub(before)) / completed.max(1) as f64
    };

    let open_run = if open.is_zero() {
        OpenLoop::default()
    } else {
        let _span = tsn_telemetry::span!("bench.serve.open_loop");
        // Continue the cycle where the closed loop stopped, so that cold
        // requests keep missing.
        open_loop(addr, requests, run.next_offset, spec.open_rps, open)
    };
    outcome.attempt(open_run.offered as u64);
    let answered = open_run.latencies.len();
    if answered < open_run.offered {
        outcome.fail(
            (open_run.offered - answered) as u64,
            format!(
                "open loop: {} of {} requests failed: {}",
                open_run.offered - answered,
                open_run.offered,
                open_run.failures.first().map_or("", String::as_str)
            ),
        );
    }
    let open_p50 = windowed("open-loop p50", &open_run.latencies, 0.5);
    let open_p95 = windowed("open-loop p95", &open_run.latencies, 0.95);
    let missed = open_run.achieved_rps < 0.99 * spec.open_rps || open_p95 > spec.p95_limit;
    if missed && !open.is_zero() && !opts.smoke {
        outcome.fail(
            answered as u64,
            format!(
                "open loop missed its target: {:.0} of {:.0} rps, p95 {:.0} us against a limit \
                 of {:.0} us",
                open_run.achieved_rps,
                spec.open_rps,
                micros(open_p95),
                micros(spec.p95_limit)
            ),
        );
    }

    let stats = ask(addr, RequestBody::Stats);
    let exposition = ask(addr, RequestBody::Metrics)
        .and_then(|m| {
            m.get("exposition")
                .and_then(Json::as_str)
                .map(str::to_string)
        })
        .unwrap_or_default();
    let peak_rss_mib = daemon.peak_rss_mib();
    outcome.check(shutdown_fleet(addr, vec![daemon]));
    Measured {
        batches: run.batch_seconds(if opts.smoke { 8 } else { spec.batch }),
        closed_rps: run.rate(),
        completed,
        daemon_cpu_us_per_req: per_req(cpu_before.0, cpu_after.0),
        loadgen_cpu_us_per_req: per_req(
            cpu_before.1.unwrap_or_default(),
            cpu_after.1.unwrap_or_default(),
        ),
        open: open_run,
        open_p50,
        open_p95,
        stats,
        exposition,
        peak_rss_mib,
    }
}

pub fn run(spec: ServeSpec, opts: &RunOptions) -> Outcome {
    let mut outcome = Outcome::default();
    let (requests, (stable, apps)) = prepare(spec, opts.seed, opts.smoke);

    // The generator's ceiling against a server that does nothing, with a
    // request line of the size this workload sends.
    let echo_rps = if spec.cold {
        None
    } else {
        match echo_ceiling(&requests[0].line, spec.window, Duration::from_millis(600)) {
            Ok(rps) => Some(rps),
            Err(why) => {
                outcome.check(Err(why));
                None
            }
        }
    };

    // Set-up: spawn, connect, pre-warm.
    let started = start_repeatedly(
        if opts.smoke { 1 } else { 9 },
        || start_daemon(spec, opts, &requests, None),
        |daemon| shutdown_fleet(daemon.addr, vec![daemon]),
    );
    let daemon = match started {
        Ok((daemon, median)) => {
            outcome.set("setup_s", median);
            daemon
        }
        Err(why) => {
            outcome.check(Err(why));
            return outcome;
        }
    };

    let seconds = if opts.smoke { 0.4 } else { opts.seconds };
    let (closed, open) = if opts.traced {
        (Duration::from_secs_f64(2.0), Duration::from_secs_f64(2.0))
    } else {
        // Throughput needs the longer phase: it wanders on a scale of
        // seconds, while a latency window settles within one.
        (
            Duration::from_secs_f64(0.6 * seconds),
            Duration::from_secs_f64(0.4 * seconds),
        )
    };
    let measured = measure(spec, opts, &requests, daemon, closed, open, &mut outcome);

    let batch = if opts.smoke { 8 } else { spec.batch };
    if measured.completed < 3 * batch && !opts.smoke && !opts.traced {
        outcome.fail(
            1,
            format!(
                "the closed loop completed {} requests; three batches of {batch} are the minimum",
                measured.completed
            ),
        );
    }
    if measured.closed_rps <= 0.0 {
        outcome.fail(1, "the closed loop completed nothing");
        return outcome;
    }
    let rps = measured.closed_rps;
    if !measured.batches.is_empty() {
        println!(
            "batches of {batch} requests: {}",
            Summary::of(&measured.batches)
        );
    }
    println!("closed loop: {rps:.1} requests per second");
    outcome.set("wall_s", batch as f64 / rps);
    let open_run = &measured.open;
    println!(
        "open loop: {} offered at {} rps, {} answered, achieved {:.1} rps",
        open_run.offered,
        spec.open_rps,
        open_run.latencies.len(),
        open_run.achieved_rps
    );
    outcome.set("lat_p50_us", micros(measured.open_p50));
    outcome.set("lat_p95_us", micros(measured.open_p95));
    let mut pooled = open_run.latencies.clone();
    pooled.sort_unstable();
    println!(
        "open loop pooled: p50 {:.0} us, p95 {:.0} us",
        micros(percentile_or_max(&pooled, 0.5)),
        micros(percentile_or_max(&pooled, 0.95))
    );
    outcome.set(
        "loadgen.lat_p99_us",
        micros(percentile_or_max(&pooled, 0.99)),
    );
    let late_p99 = percentile_or_max(&open_run.lateness, 0.99);
    outcome.set("loadgen.late_p99_us", micros(late_p99));
    outcome.set("peak_rss_mib", measured.peak_rss_mib);
    outcome.set("tsn_service.cpu_us_per_req", measured.daemon_cpu_us_per_req);
    outcome.set("loadgen.cpu_us_per_req", measured.loadgen_cpu_us_per_req);
    record_daemon_counters(&mut outcome, measured.stats.as_ref(), &measured.exposition);

    // Every served schedule was compared with the library's, whose report
    // counts the stable applications.
    outcome.set("stable_share", stable as f64 / apps as f64);
    if stable != apps {
        outcome.fail(
            (apps - stable) as u64,
            "served schedules are not all stable",
        );
    }

    // Is the generator, not the daemon, what was measured?
    if !opts.smoke {
        if let Some(echo) = echo_rps {
            outcome.set("loadgen.echo_rps", echo);
            if echo < 2.0 * rps {
                outcome.fail(
                    1,
                    format!("echo ceiling {echo:.0} rps is under twice {rps:.0} rps"),
                );
            }
        }
        if measured.loadgen_cpu_us_per_req > 0.15 * measured.daemon_cpu_us_per_req {
            outcome.fail(
                1,
                format!(
                    "load generator used {:.1} us of CPU per request, over 15% of the daemon's {:.1}",
                    measured.loadgen_cpu_us_per_req, measured.daemon_cpu_us_per_req
                ),
            );
        }
        let late_p90 = percentile_or_max(&open_run.lateness, 0.9);
        if late_p90 > spec.late_limit {
            outcome.fail(
                1,
                format!("open-loop sends ran {:.0} us late at p90", micros(late_p90)),
            );
        }
    }

    if opts.traced {
        traced_pass(spec, opts, &requests, &measured, &mut outcome);
    }
    outcome
}

/// The open loop is read in up to five consecutive windows — each of at
/// least 200 requests, ten beyond its own p95 — and the median over the
/// windows reported. This machine freezes a process for a few hundred
/// milliseconds now and then; one freeze would own the pooled p95 of a few
/// thousand requests, while a slowdown in most windows moves the median.
fn windowed(label: &str, latencies_in_order: &[Duration], q: f64) -> Duration {
    if latencies_in_order.is_empty() {
        return Duration::ZERO;
    }
    let windows = (latencies_in_order.len() / 200).clamp(1, 5);
    windowed_percentile(label, latencies_in_order, windows, q)
}

/// The daemon's own view: cache, solver and queue counters from `stats`
/// and the `metrics` exposition.
pub fn record_daemon_counters(outcome: &mut Outcome, stats: Option<&Json>, exposition: &str) {
    let Some(stats) = stats else {
        outcome.check(Err("the daemon did not answer `stats`".to_string()));
        return;
    };
    let count = |key: &str| stats.get(key).and_then(Json::as_i64).unwrap_or(0) as f64;
    let lookups = count("cache_hits") + count("cache_misses");
    if lookups > 0.0 {
        outcome.set("tsn_service.cache_hit_share", count("cache_hits") / lookups);
    }
    outcome.set("tsn_service.solves", count("solves"));
    outcome.set("tsn_service.coalesced_misses", count("coalesced_misses"));
    outcome.set(
        "tsn_service.shed",
        tsn_telemetry::sample_value(exposition, "service_shed_total").unwrap_or(0.0),
    );
    let quantile_us = |name: &str, q: f64| {
        tsn_telemetry::histogram_quantile(exposition, name, q).map_or(0.0, |s| s * 1e6)
    };
    outcome.set(
        "tsn_service.queue_wait_p95_us",
        quantile_us("service_queue_wait_seconds", 0.95),
    );
    outcome.set(
        "tsn_service.solve_p50_us",
        quantile_us("solve_seconds", 0.5),
    );
}

/// The traced pass: the same closed loop against a daemon started with
/// `--trace-out`, for the tracing overhead and the daemon's span file; and
/// the serving-path layers timed in-process on the very lines the daemon
/// parsed and wrote.
fn traced_pass(
    spec: ServeSpec,
    opts: &RunOptions,
    requests: &[Prepared],
    untraced: &Measured,
    outcome: &mut Outcome,
) {
    let trace_file = opts.scratch.parent().unwrap_or(&opts.scratch).join(format!(
        "trace-{}-daemon.json",
        if spec.cold { "serve_cold" } else { "serve_hot" }
    ));
    let trace_path = trace_file.to_string_lossy().to_string();
    match start_daemon(spec, opts, requests, Some(&trace_path)) {
        Err(why) => outcome.check(Err(why)),
        Ok(daemon) => {
            tsn_telemetry::set_enabled(true);
            let traced = measure(
                spec,
                opts,
                requests,
                daemon,
                Duration::from_secs(2),
                Duration::ZERO,
                outcome,
            );
            tsn_telemetry::set_enabled(false);
            if traced.closed_rps > 0.0 {
                outcome.set(
                    "tsn_telemetry.trace_overhead_share",
                    untraced.closed_rps / traced.closed_rps - 1.0,
                );
            }
            println!("daemon spans written to {trace_path}");
        }
    }
    let hit = layers::serving_path(&requests[0], outcome);
    if !spec.cold {
        outcome.set(
            "tsn_net.poll_overhead_us",
            untraced.daemon_cpu_us_per_req - hit,
        );
    }
}
