//! Connection-plane behavior of the live daemon: slow-loris clients,
//! oversized-line rejection, stalled readers, a thousand idle connections
//! on a bounded thread count, load shedding past the queue watermark, and
//! cache hits answered in request order behind pending solves.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tsn_control::PiecewiseLinearBound;
use tsn_net::framing::MAX_LINE_BYTES;
use tsn_net::json::Json;
use tsn_net::{builders, LinkSpec, Time};
use tsn_service::protocol::{Backend, Request, RequestBody, Response};
use tsn_service::{serve, Service, ServiceConfig};

struct Daemon {
    addr: std::net::SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_daemon(config: ServiceConfig) -> Daemon {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let service = Arc::new(Service::new(config));
    let handle = std::thread::spawn(move || serve(&service, listener));
    Daemon { addr, handle }
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let writer = TcpStream::connect(addr).expect("connect to daemon");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    fn send(&mut self, request: &Request) {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send line");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        Response::parse_line(&line).expect("parse response")
    }

    fn round_trip(&mut self, request: &Request) -> Response {
        self.send(request);
        self.recv()
    }
}

fn ping(id: i64) -> Request {
    Request {
        id,
        trace: None,
        body: RequestBody::Ping,
    }
}

fn shutdown_daemon(daemon: Daemon) {
    let mut client = Client::connect(daemon.addr);
    assert!(client
        .round_trip(&Request {
            id: 9_999,
            trace: None,
            body: RequestBody::Shutdown,
        })
        .outcome
        .is_ok());
    drop(client);
    daemon.handle.join().expect("daemon thread").expect("clean");
}

/// A distinct (per `seed`) synthesize request, so repeated rounds stay
/// cache-cold. `slow` requests carry a deliberately fine stability grid —
/// orders of magnitude more constraint points than the service default —
/// so the solve reliably outlasts the event loop's parsing of the lines
/// pipelined behind it.
fn synthesize(id: i64, seed: usize, slow: bool) -> Request {
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    let mut problem =
        tsn_synthesis::SynthesisProblem::new(net.topology.clone(), Time::from_micros(5));
    for i in 0..3 {
        problem
            .add_application(
                format!("loop-{seed}-{i}"),
                net.sensors[i],
                net.controllers[i],
                Time::from_millis(10 + (seed as i64) % 7),
                500 + (seed as u32 % 5) * 100,
                PiecewiseLinearBound::single_segment(2.0, 0.018),
            )
            .expect("app fits the example network");
    }
    let config = slow.then(|| tsn_synthesis::SynthesisConfig {
        stages: 1,
        mode: tsn_synthesis::ConstraintMode::StabilityAware {
            granularity: Time::from_micros(500),
        },
        ..tsn_synthesis::SynthesisConfig::default()
    });
    Request {
        id,
        trace: None,
        body: RequestBody::Synthesize {
            problem,
            config,
            backend: Backend::Auto,
        },
    }
}

#[test]
fn slow_loris_writers_do_not_starve_fast_clients() {
    let daemon = start_daemon(ServiceConfig::default());

    // Three clients drip a ping request one byte at a time while a fast
    // client runs full round trips. The event loop must keep serving the
    // fast client (no thread is captive to a slow socket), and the drip
    // requests must still answer correctly once their newline lands.
    std::thread::scope(|scope| {
        for loris in 0..3i64 {
            let addr = daemon.addr;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                let mut line = ping(100 + loris).to_line();
                line.push('\n');
                for byte in line.as_bytes() {
                    client.writer.write_all(&[*byte]).expect("drip one byte");
                    client.writer.flush().expect("flush");
                    std::thread::sleep(Duration::from_millis(2));
                }
                let response = client.recv();
                assert_eq!(response.id, 100 + loris);
                assert!(response.outcome.is_ok());
            });
        }
        let addr = daemon.addr;
        scope.spawn(move || {
            let mut client = Client::connect(addr);
            for i in 0..50 {
                let response = client.round_trip(&ping(i));
                assert_eq!(response.id, i);
                assert!(response.outcome.is_ok());
            }
        });
    });
    shutdown_daemon(daemon);
}

#[test]
fn oversized_line_answers_a_typed_error_then_closes() {
    let daemon = start_daemon(ServiceConfig::default());
    let mut client = Client::connect(daemon.addr);

    // A request line past the 16 MiB frame cap, written in chunks. The
    // daemon must answer one typed `line_too_long` error and close — not
    // buffer without bound, not cut the socket without answering.
    let chunk = vec![b'x'; 64 * 1024];
    let mut written = 0usize;
    while written <= MAX_LINE_BYTES {
        client.writer.write_all(&chunk).expect("write oversized");
        written += chunk.len();
    }
    client.writer.write_all(b"\n").expect("terminate");

    let response = client.recv();
    assert_eq!(response.id, -1);
    let message = response.outcome.expect_err("oversized must be an error");
    assert!(
        message.contains("line_too_long"),
        "typed error expected: {message}"
    );
    let mut rest = Vec::new();
    client.reader.read_to_end(&mut rest).expect("drain to EOF");
    assert!(
        rest.is_empty(),
        "nothing may follow the rejection before the close"
    );

    // The daemon survives: a fresh connection still works.
    let mut healthy = Client::connect(daemon.addr);
    assert!(healthy.round_trip(&ping(1)).outcome.is_ok());
    drop(healthy);
    shutdown_daemon(daemon);
}

#[test]
fn depth_bomb_line_answers_one_typed_error_and_the_connection_lives() {
    let daemon = start_daemon(ServiceConfig::default());
    let mut client = Client::connect(daemon.addr);

    // 1 MiB of open brackets: well under the frame cap, so it reaches the
    // parser — which must refuse it at its depth cap instead of recursing
    // the event-loop thread off its stack and taking the process with it.
    let mut bomb = "[".repeat(1 << 20);
    bomb.push('\n');
    client.writer.write_all(bomb.as_bytes()).expect("send bomb");
    let response = client.recv();
    assert_eq!(response.id, -1, "no id can be read from a bomb");
    let message = response.outcome.expect_err("a bomb is not a request");
    assert!(
        message.starts_with("malformed request") && message.contains("nesting"),
        "typed too-deep diagnostic expected: {message}"
    );

    // Exactly one response, and the same connection keeps working.
    let pong = client.round_trip(&ping(2));
    assert_eq!(pong.id, 2);
    assert!(pong.outcome.is_ok());
    drop(client);
    shutdown_daemon(daemon);
}

#[test]
fn stalled_reader_mid_burst_does_not_block_other_clients() {
    let daemon = start_daemon(ServiceConfig::default());

    // Client A pipelines a burst and reads nothing; its responses queue in
    // the plane (and kernel buffers) while it stalls.
    let burst = 2_000i64;
    let mut stalled = Client::connect(daemon.addr);
    let mut bytes = Vec::new();
    for i in 0..burst {
        bytes.extend_from_slice(ping(i).to_line().as_bytes());
        bytes.push(b'\n');
    }
    stalled.writer.write_all(&bytes).expect("pipelined burst");

    // Client B keeps completing round trips while A stalls.
    let mut fast = Client::connect(daemon.addr);
    for i in 0..50 {
        let response = fast.round_trip(&ping(10_000 + i));
        assert_eq!(response.id, 10_000 + i);
        assert!(response.outcome.is_ok());
    }
    drop(fast);

    // A resumes reading: every response arrives, in request order.
    for i in 0..burst {
        let response = stalled.recv();
        assert_eq!(response.id, i, "responses must stay in request order");
        assert!(response.outcome.is_ok());
    }
    drop(stalled);
    shutdown_daemon(daemon);
}

/// Current thread count of the test process, from /proc (Linux only —
/// exactly where CI runs).
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[cfg(target_os = "linux")]
#[test]
fn a_thousand_idle_connections_hold_no_thread_each() {
    let daemon = start_daemon(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });

    // 1024 connections sit idle while one active client keeps working.
    // Under the old thread-per-connection server this held 1024 reader
    // threads; the event loop must keep the process thread count flat.
    let before = process_threads();
    let idle: Vec<TcpStream> = (0..1024)
        .map(|i| {
            TcpStream::connect(daemon.addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}"))
        })
        .collect();
    let mut active = Client::connect(daemon.addr);
    for i in 0..10 {
        let response = active.round_trip(&ping(i));
        assert_eq!(response.id, i);
        assert!(response.outcome.is_ok());
    }
    let during = process_threads();
    assert!(
        during.saturating_sub(before) < 32,
        "1024 idle connections grew the thread count {before} -> {during}"
    );
    drop(idle);
    drop(active);
    shutdown_daemon(daemon);
}

#[test]
fn synthesize_sheds_past_the_queue_watermark() {
    // One worker, watermark 1: a slow solve occupies the worker while a
    // pipelined burst of further synthesize requests lands. Once one of
    // them is queued (depth 1 = the watermark), every later one must be
    // shed with a typed retry_after rejection — and responses still
    // arrive in request order.
    let daemon = start_daemon(ServiceConfig {
        workers: 1,
        shed_watermark: 1,
        ..ServiceConfig::default()
    });
    let burst = 9usize;
    let mut client = Client::connect(daemon.addr);
    client.send(&synthesize(0, 0, true));
    for i in 1..=burst {
        client.send(&synthesize(i as i64, i, false));
    }
    let first = client.recv();
    assert_eq!(first.id, 0);
    assert!(first.outcome.is_ok(), "the slow solve must succeed");
    let mut sheds = 0usize;
    for i in 1..=burst {
        let response = client.recv();
        assert_eq!(response.id, i as i64, "responses must stay in order");
        match &response.outcome {
            Ok(_) => assert_eq!(
                response.retry_after_ms, None,
                "a served solve carries no backoff hint"
            ),
            Err(message) => {
                assert!(
                    message.contains("overloaded"),
                    "shed rejection must say so: {message}"
                );
                assert_eq!(
                    response.retry_after_ms,
                    Some(100),
                    "shed rejection must carry the backoff hint"
                );
                sheds += 1;
            }
        }
    }
    assert!(
        sheds >= 1,
        "an overloaded single-worker daemon never shed a synthesize request"
    );

    // The shed is visible in the metrics exposition.
    let mut client = Client::connect(daemon.addr);
    let metrics = client
        .round_trip(&Request {
            id: 50,
            trace: None,
            body: RequestBody::Metrics,
        })
        .outcome
        .expect("metrics");
    let exposition = metrics
        .get("exposition")
        .and_then(Json::as_str)
        .expect("exposition text");
    let shed_total: i64 = exposition
        .lines()
        .find_map(|line| line.strip_prefix("service_shed_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("service_shed_total series");
    assert!(
        shed_total >= 1,
        "shed counter must have moved: {shed_total}"
    );
    drop(client);
    shutdown_daemon(daemon);
}

#[test]
fn a_cache_hit_behind_a_pending_solve_is_answered_in_request_order() {
    // A hit is answered on the event loop while the solve before it is
    // still on a worker; the plane must hold it until that solve's
    // response is written.
    let daemon = start_daemon(ServiceConfig::default());
    let mut client = Client::connect(daemon.addr);
    let primed = client.round_trip(&synthesize(1, 1, false));
    assert!(primed.outcome.is_ok() && !primed.cached);
    client.send(&synthesize(10, 2, true));
    client.send(&synthesize(11, 1, false));
    client.send(&ping(12));
    let cold = client.recv();
    assert_eq!(cold.id, 10, "responses must stay in request order");
    assert!(cold.outcome.is_ok() && !cold.cached);
    let hit = client.recv();
    assert_eq!(hit.id, 11, "responses must stay in request order");
    assert!(hit.cached, "the repeated problem must hit");
    assert_eq!(
        hit.outcome.expect("a cached payload").to_string(),
        primed.outcome.expect("a solved payload").to_string()
    );
    let pong = client.recv();
    assert_eq!(pong.id, 12, "responses must stay in request order");
    assert!(pong.outcome.is_ok());
    drop(client);
    shutdown_daemon(daemon);
}
