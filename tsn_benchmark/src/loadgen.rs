//! The load generator: at most two threads and two connections, a
//! pipelined closed loop and a paced open loop whose latencies are timed
//! from each request's due time.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use tsn_net::json::Json;
use tsn_net::poll::{
    serve_lines, Completions, ConnId, Interest, LineHandler, LineOutcome, PlaneConfig, Poller,
};
use tsn_service::protocol::{Request, RequestBody, Response};

/// Connections (and, in the closed loop, threads) of the generator. The
/// machine has two cores and the system under test needs most of both.
pub const CONNECTIONS: usize = 2;

/// No reply within this long is a failed request, not a slow one.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One request ready to send, and the check its response must pass.
pub struct Prepared {
    /// The wire line, newline included.
    pub line: Vec<u8>,
    /// Bytes the response line must end with (`"ok":<payload>}`): the
    /// payload compared byte for byte without parsing it.
    pub expect_suffix: Vec<u8>,
    /// Whether the response must be flagged as served from the cache.
    pub expect_cached: Option<bool>,
}

impl Prepared {
    /// Checks one response line (no newline) against the expectation.
    pub fn check(&self, response: &[u8]) -> Result<(), String> {
        let describe = || String::from_utf8_lossy(&response[..response.len().min(160)]).to_string();
        if !response.ends_with(&self.expect_suffix) {
            return Err(format!(
                "payload differs from the library's: {}",
                describe()
            ));
        }
        if let Some(cached) = self.expect_cached {
            let flag: &[u8] = if cached {
                b"\"cached\":true"
            } else {
                b"\"cached\":false"
            };
            let envelope = &response[..response.len() - self.expect_suffix.len()];
            if !envelope.windows(flag.len()).any(|w| w == flag) {
                return Err(format!("expected cached={cached}: {}", describe()));
            }
        }
        Ok(())
    }
}

/// The suffix a successful response to a request with this payload ends
/// with, whatever its envelope (id, trace, elapsed time) says.
pub fn ok_suffix(payload_text: &str) -> Vec<u8> {
    format!(",\"ok\":{payload_text}}}").into_bytes()
}

/// One blocking client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        // One-line messages: Nagle plus delayed ACKs would turn every
        // round trip into a 40 ms stall.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: Vec::with_capacity(8 * 1024),
        })
    }

    pub fn send(&mut self, line: &[u8]) -> io::Result<()> {
        self.writer.write_all(line)
    }

    /// The next response line, newline stripped.
    pub fn recv(&mut self) -> io::Result<&[u8]> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        if self.line.last() == Some(&b'\n') {
            self.line.pop();
        }
        Ok(&self.line)
    }

    /// One synchronous exchange, fully parsed — for set-up and admin
    /// requests, never inside a timed region.
    pub fn round_trip(&mut self, request: &Request) -> Result<Response, String> {
        let mut line = request.to_line().into_bytes();
        line.push(b'\n');
        self.send(&line).map_err(|e| format!("send failed: {e}"))?;
        let reply = self.recv().map_err(|e| format!("no reply: {e}"))?;
        Response::parse_line(&String::from_utf8_lossy(reply)).map_err(|e| e.to_string())
    }
}

/// One admin request (`stats`, `metrics`) on a fresh connection; `None`
/// when the daemon did not answer it with a payload.
pub fn ask(addr: SocketAddr, body: RequestBody) -> Option<Json> {
    Conn::connect(addr)
        .ok()?
        .round_trip(&Request {
            id: 0,
            trace: None,
            body,
        })
        .ok()?
        .outcome
        .ok()
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Completion instant of every request, all connections merged,
    /// ascending.
    pub completions: Vec<Instant>,
    pub started: Option<Instant>,
    /// Requests whose response failed its check, and why (a sample).
    pub failed: usize,
    pub failures: Vec<String>,
    /// Where in the request cycle the next phase should continue.
    pub next_offset: usize,
}

impl ClosedLoop {
    /// Completions per second from the start of the phase to its last
    /// completion. Throughput on this machine wanders between two levels
    /// on a scale of seconds; the rate over the whole phase averages them,
    /// where a median of batches jumps with whichever level held the
    /// majority.
    pub fn rate(&self) -> f64 {
        match (self.started, self.completions.last()) {
            (Some(start), Some(&end)) if end > start => {
                self.completions.len() as f64 / end.duration_since(start).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// Seconds each consecutive batch of `size` completions took.
    pub fn batch_seconds(&self, size: usize) -> Vec<f64> {
        let Some(mut previous) = self.started else {
            return Vec::new();
        };
        self.completions
            .chunks_exact(size)
            .map(|batch| {
                let end = batch[size - 1];
                let seconds = end.duration_since(previous).as_secs_f64();
                previous = end;
                seconds
            })
            .collect()
    }
}

/// Closed loop: every connection keeps `window` requests in flight for
/// `duration`, then drains. The connections draw from one shared cursor
/// over the endlessly repeated `requests` cycle, starting at `offset`, so
/// the cycle is walked in order however unevenly the connections advance —
/// which is what keeps a working set larger than the cache missing.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[Prepared],
    offset: usize,
    window: usize,
    duration: Duration,
) -> ClosedLoop {
    let started = Instant::now();
    let deadline = started + duration;
    let cursor = AtomicUsize::new(offset);
    let mut merged = ClosedLoop {
        started: Some(started),
        ..ClosedLoop::default()
    };
    let per_conn: Vec<(Vec<Instant>, usize, Vec<String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut failed = 0;
                    let mut failures = Vec::new();
                    let outcome = drive_closed(
                        addr,
                        requests,
                        cursor,
                        window,
                        deadline,
                        &mut done,
                        &mut failed,
                        &mut failures,
                    );
                    if let Err(e) = outcome {
                        failed += 1;
                        failures.push(format!("connection {c}: {e}"));
                    }
                    (done, failed, failures)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    for (done, failed, failures) in per_conn {
        merged.completions.extend(done);
        merged.failed += failed;
        merged.failures.extend(failures);
    }
    merged.completions.sort_unstable();
    merged.next_offset = cursor.load(Ordering::Relaxed);
    merged
}

#[allow(clippy::too_many_arguments)]
fn drive_closed(
    addr: SocketAddr,
    requests: &[Prepared],
    cursor: &AtomicUsize,
    window: usize,
    deadline: Instant,
    done: &mut Vec<Instant>,
    failed: &mut usize,
    failures: &mut Vec<String>,
) -> io::Result<()> {
    let mut conn = Conn::connect(addr)?;
    // The statistic-only ordering is enough: the cursor hands out indices,
    // it publishes no other data.
    let send_next = |conn: &mut Conn, in_flight: &mut VecDeque<usize>| {
        let index = cursor.fetch_add(1, Ordering::Relaxed) % requests.len();
        in_flight.push_back(index);
        conn.send(&requests[index].line)
    };
    let mut in_flight = VecDeque::with_capacity(window);
    for _ in 0..window {
        send_next(&mut conn, &mut in_flight)?;
    }
    while let Some(index) = in_flight.pop_front() {
        let reply = conn.recv()?;
        let now = Instant::now();
        if let Err(why) = requests[index].check(reply) {
            *failed += 1;
            if failures.len() < 8 {
                failures.push(why);
            }
        } else {
            done.push(now);
        }
        if now < deadline {
            send_next(&mut conn, &mut in_flight)?;
        }
    }
    Ok(())
}

/// What one open-loop phase measured.
#[derive(Debug, Default)]
pub struct OpenLoop {
    pub offered: usize,
    /// Latency of every answered request, timed from its due time, in
    /// due-time order.
    pub latencies: Vec<Duration>,
    /// How late each request left the generator, ascending.
    pub lateness: Vec<Duration>,
    /// Completed requests per second over the phase.
    pub achieved_rps: f64,
    pub failures: Vec<String>,
}

/// Sends request `i` at `t0 + i × interval` whether or not earlier ones
/// were answered, and returns how late each send was. A send that blocks
/// delays the ones after it; they stay due at their original times.
pub fn pace(
    t0: Instant,
    interval: Duration,
    count: usize,
    mut send: impl FnMut(usize) -> io::Result<()>,
) -> io::Result<Vec<Duration>> {
    let mut lateness = Vec::with_capacity(count);
    for i in 0..count {
        let due = t0 + interval.mul_f64(i as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lateness.push(Instant::now().saturating_duration_since(due));
        send(i)?;
    }
    Ok(lateness)
}

/// Open loop at `rate` requests per second for `duration`: one thread
/// paces the sends over both connections, one thread receives. Request `i`
/// is entry `offset + i` of the repeated `requests` cycle and travels on
/// connection `i % CONNECTIONS`.
pub fn open_loop(
    addr: SocketAddr,
    requests: &[Prepared],
    offset: usize,
    rate: f64,
    duration: Duration,
) -> OpenLoop {
    let request = |i: usize| &requests[(offset + i) % requests.len()];
    let count = (rate * duration.as_secs_f64()).round() as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut result = OpenLoop {
        offered: count,
        ..OpenLoop::default()
    };
    let streams: io::Result<Vec<TcpStream>> = (0..CONNECTIONS)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        })
        .collect();
    let streams = match streams {
        Ok(streams) => streams,
        Err(e) => {
            result.failures.push(format!("connect failed: {e}"));
            return result;
        }
    };
    let mut writers: Vec<TcpStream> = match streams.iter().map(TcpStream::try_clone).collect() {
        Ok(writers) => writers,
        Err(e) => {
            result.failures.push(format!("clone failed: {e}"));
            return result;
        }
    };
    let t0 = Instant::now() + Duration::from_millis(20);
    let give_up = t0 + duration + REPLY_TIMEOUT;
    let (sent, received) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive_all(&streams, count, give_up));
        let sent = pace(t0, interval, count, |i| {
            writers[i % CONNECTIONS].write_all(&request(i).line)
        });
        (sent, receiver.join().expect("receiver thread panicked"))
    });
    match sent {
        Ok(lateness) => result.lateness = lateness,
        Err(e) => result.failures.push(format!("send failed: {e}")),
    }
    result.lateness.sort_unstable();
    let mut last = t0;
    for (i, arrival) in received.iter().enumerate() {
        let due = t0 + interval.mul_f64(i as f64);
        match arrival {
            Some((at, line)) => match request(i).check(line) {
                Ok(()) => {
                    result.latencies.push(at.saturating_duration_since(due));
                    last = last.max(*at);
                }
                Err(why) => result.failures.push(why),
            },
            None => result
                .failures
                .push(format!("request {i} was never answered")),
        }
    }
    result.failures.truncate(8);
    result.achieved_rps =
        result.latencies.len() as f64 / last.duration_since(t0).as_secs_f64().max(1e-9);
    result
}

/// Receives `count` response lines over the connections; response `k` on
/// connection `c` answers request `k × CONNECTIONS + c`. Returns, per
/// request, when its response arrived and the line.
fn receive_all(
    streams: &[TcpStream],
    count: usize,
    give_up: Instant,
) -> Vec<Option<(Instant, Vec<u8>)>> {
    let mut arrivals: Vec<Option<(Instant, Vec<u8>)>> = vec![None; count];
    let mut buffers: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let mut next: Vec<usize> = (0..streams.len()).collect();
    let mut remaining = count;
    let mut poller = Poller::new();
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    while remaining > 0 && Instant::now() < give_up {
        poller.clear();
        for (c, stream) in streams.iter().enumerate() {
            poller.add(c, stream.as_raw_fd(), Interest::READABLE);
        }
        if poller
            .poll(Some(Duration::from_millis(200)), &mut events)
            .is_err()
        {
            break;
        }
        for event in &events {
            let c = event.token;
            // The socket polled readable, so this read returns what has
            // arrived without blocking.
            let n = match (&streams[c]).read(&mut chunk) {
                Ok(0) | Err(_) => return arrivals,
                Ok(n) => n,
            };
            let at = Instant::now();
            buffers[c].extend_from_slice(&chunk[..n]);
            while let Some(end) = buffers[c].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = buffers[c].drain(..=end).take(end).collect();
                if let Some(slot) = arrivals.get_mut(next[c]) {
                    *slot = Some((at, line));
                    remaining -= 1;
                }
                next[c] += streams.len();
            }
        }
    }
    arrivals
}

/// A trivial server on the same connection plane the daemons use: it
/// answers every line with the line. The load generator's ceiling against
/// it bounds what the generator can measure.
struct Echo(AtomicBool);

impl LineHandler for Echo {
    fn on_line(&self, _conn: ConnId, _seq: u64, line: &str) -> LineOutcome {
        if line == "quit" {
            self.0.store(true, Ordering::SeqCst);
        }
        LineOutcome::Respond(line.to_string())
    }

    fn shutting_down(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Drives an in-process echo server with the closed loop for `duration`
/// and returns its completed requests per second. `line` is a request line
/// of the size the real workload sends.
pub fn echo_ceiling(line: &[u8], window: usize, duration: Duration) -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let handler = Echo(AtomicBool::new(false));
    let completions = Completions::new().map_err(|e| format!("completions: {e}"))?;
    let echoed = Prepared {
        line: line.to_vec(),
        expect_suffix: line[..line.len() - 1].to_vec(),
        expect_cached: None,
    };
    std::thread::scope(|scope| {
        let plane =
            scope.spawn(|| serve_lines(listener, &handler, &completions, &PlaneConfig::default()));
        let run = closed_loop(addr, std::slice::from_ref(&echoed), 0, window, duration);
        let quit = Conn::connect(addr).and_then(|mut conn| conn.send(b"quit\n"));
        let served = plane.join().expect("echo plane panicked");
        quit.map_err(|e| format!("echo shutdown: {e}"))?;
        served.map_err(|e| format!("echo plane: {e}"))?;
        if let Some(why) = run.failures.first() {
            return Err(format!("echo failed: {why}"));
        }
        match run.rate() {
            rate if rate > 0.0 => Ok(rate),
            _ => Err("echo completed no request".to_string()),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        // Ten requests 5 ms apart; the third send blocks for 40 ms. The
        // requests behind it leave late, and their latency is timed from
        // when they were due, not from when they finally left.
        let interval = Duration::from_millis(5);
        let t0 = Instant::now();
        let mut sent_at = Vec::new();
        let lateness = pace(t0, interval, 10, |i| {
            sent_at.push(Instant::now());
            if i == 2 {
                std::thread::sleep(Duration::from_millis(40));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(lateness.len(), 10);
        // Request 3 was due 5 ms after request 2 was sent, but the sender
        // was stuck for 40 ms: at least 35 ms late, and the backlog drains
        // by one interval per request.
        assert!(lateness[3] >= Duration::from_millis(34), "{lateness:?}");
        assert!(lateness[4] >= Duration::from_millis(29), "{lateness:?}");
        assert!(lateness[2] < Duration::from_millis(20), "{lateness:?}");
        // An instantaneous server: latency from the send time would be
        // zero; from the due time it is the lateness.
        for (i, at) in sent_at.iter().enumerate() {
            let due = t0 + interval.mul_f64(i as f64);
            assert!(at.saturating_duration_since(due) >= lateness[i]);
        }
    }

    #[test]
    fn a_corrupted_payload_fails_the_check() {
        let payload = "{\"type\":\"synthesized\",\"report\":{\"x\":1}}";
        let prepared = Prepared {
            line: b"ignored\n".to_vec(),
            expect_suffix: ok_suffix(payload),
            expect_cached: Some(true),
        };
        let good = format!("{{\"id\":7,\"cached\":true,\"elapsed_us\":12,\"ok\":{payload}}}");
        assert_eq!(prepared.check(good.as_bytes()), Ok(()));
        let corrupted = good.replace("\"x\":1", "\"x\":2");
        assert!(prepared.check(corrupted.as_bytes()).is_err());
        let uncached = good.replace("\"cached\":true", "\"cached\":false");
        assert!(prepared.check(uncached.as_bytes()).is_err());
        let error = "{\"id\":7,\"cached\":false,\"elapsed_us\":1,\"error\":\"overloaded\"}";
        assert!(prepared.check(error.as_bytes()).is_err());
    }

    #[test]
    fn batches_are_cut_by_completion_count() {
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let run = ClosedLoop {
            completions: vec![at(10), at(20), at(30), at(50), at(70), at(90), at(95)],
            started: Some(start),
            failed: 0,
            failures: Vec::new(),
            next_offset: 0,
        };
        let batches = run.batch_seconds(3);
        assert_eq!(batches.len(), 2, "the trailing partial batch is dropped");
        assert!((batches[0] - 0.030).abs() < 1e-9 && (batches[1] - 0.060).abs() < 1e-9);
    }

    #[test]
    fn the_echo_server_answers_through_the_real_plane() {
        let rps = echo_ceiling(
            b"{\"id\":1,\"request\":{\"type\":\"ping\"}}\n",
            4,
            Duration::from_millis(300),
        );
        assert!(matches!(rps, Ok(rps) if rps > 0.0), "{rps:?}");
    }
}
