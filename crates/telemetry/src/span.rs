//! The flight recorder: RAII spans written to lock-free per-thread rings.
//!
//! Recording is gated on the crate-wide [`crate::enabled`] flag — a single
//! relaxed atomic load when off — so spans can live permanently in solver
//! hot paths. When on, a [`span!`](crate::span!) guard interns its name
//! once per call site (cached in a per-call-site `AtomicU32`), reads the
//! clock twice, and publishes a fixed-size slot into the calling thread's
//! ring buffer with a seqlock protocol: the writer flips the slot's
//! sequence odd, stores the fields, then flips it even; readers discard
//! slots whose sequence changed mid-read. No locks are taken on the record
//! path, and each ring has exactly one writer (its owning thread), so the
//! scheme is safe Rust throughout.
//!
//! [`chrome_trace`] merges every thread's ring into a chrome-trace JSON
//! string (`chrome://tracing` / Perfetto "trace event" format);
//! [`dump_chrome_trace`] writes it to a file.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::{Clock, MonotonicClock};

/// Spans kept per thread; older spans are overwritten ring-style.
const RING_CAPACITY: usize = 4096;

/// Sentinel for "span carries no numeric argument".
const NO_ARG: i64 = i64::MIN;

/// One seqlock-protected slot. All fields are atomics so both the writing
/// thread and a concurrent exporter stay within safe Rust; the `seq`
/// even/odd protocol decides which reads are coherent.
#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in progress; even > 0 = valid.
    seq: AtomicU64,
    name_id: AtomicU32,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
    arg: AtomicU64,
}

#[derive(Debug)]
struct Ring {
    tid: u32,
    /// Next write position; only the owning thread stores it.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    fn new(tid: u32) -> Self {
        Ring {
            tid,
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    name_id: AtomicU32::new(0),
                    start_ns: AtomicU64::new(0),
                    dur_ns: AtomicU64::new(0),
                    arg: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Publishes one span. Must only be called from the owning thread.
    fn record(&self, name_id: u32, start_ns: u64, dur_ns: u64, arg: i64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) % RING_CAPACITY];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Release); // odd: write in progress
        slot.name_id.store(name_id, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        slot.arg.store(arg as u64, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release); // even: valid
        self.head.store(head + 1, Ordering::Relaxed);
    }

    /// Reads every coherent slot; spans overwritten mid-read are skipped.
    fn drain_valid(&self, out: &mut Vec<SpanEvent>, names: &[&'static str]) {
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let name_id = slot.name_id.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let dur_ns = slot.dur_ns.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed) as i64;
            if slot.seq.load(Ordering::Acquire) != before {
                continue;
            }
            let name = names.get(name_id as usize).copied().unwrap_or("?");
            out.push(SpanEvent {
                name,
                tid: self.tid,
                start_ns,
                dur_ns,
                arg: (arg != NO_ARG).then_some(arg),
            });
        }
    }
}

/// A completed span read back out of the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// The interned span name (the `span!` literal).
    pub name: &'static str,
    /// Recorder-assigned small id of the thread that recorded the span.
    pub tid: u32,
    /// Start timestamp, nanoseconds on the recorder clock.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// The optional numeric argument passed to `span!`.
    pub arg: Option<i64>,
}

#[derive(Default)]
struct Recorder {
    rings: Mutex<Vec<Arc<Ring>>>,
    names: Mutex<Vec<&'static str>>,
    next_tid: AtomicU32,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(Recorder::default)
}

thread_local! {
    static THREAD_RING: Arc<Ring> = {
        let recorder = recorder();
        let ring = Arc::new(Ring::new(recorder.next_tid.fetch_add(1, Ordering::Relaxed)));
        recorder.rings.lock().unwrap().push(Arc::clone(&ring));
        ring
    };
}

/// Interns `name`, caching the id in the per-call-site `cache` so the
/// global table lock is taken at most once per call site.
fn intern(cache: &AtomicU32, name: &'static str) -> u32 {
    // Ids are stored +1 so the atomic's default 0 means "not yet interned".
    let cached = cache.load(Ordering::Relaxed);
    if cached != 0 {
        return cached - 1;
    }
    let mut names = recorder().names.lock().unwrap();
    let id = match names.iter().position(|n| *n == name) {
        Some(i) => i as u32,
        None => {
            names.push(name);
            (names.len() - 1) as u32
        }
    };
    cache.store(id + 1, Ordering::Relaxed);
    id
}

/// The clock spans are stamped with: the deterministic override if a test
/// installed one, the shared monotonic epoch otherwise. `OnceLock::get` is
/// a single atomic load, keeping the record path lock-free.
fn span_now_ns() -> u64 {
    match span_clock().get() {
        Some(clock) => clock.now_ns(),
        None => MonotonicClock.now_ns(),
    }
}

fn span_clock() -> &'static OnceLock<Arc<dyn Clock>> {
    static SPAN_CLOCK: OnceLock<Arc<dyn Clock>> = OnceLock::new();
    &SPAN_CLOCK
}

/// Installs a deterministic clock for span timestamps (tests only). The
/// override is process-wide and can be installed once; returns `false` if a
/// clock was already set.
pub fn set_recorder_clock(clock: Arc<dyn Clock>) -> bool {
    span_clock().set(clock).is_ok()
}

/// An RAII guard measuring one span; the span is published when dropped.
/// Construct via the [`span!`](crate::span!) macro, which provides the
/// per-call-site intern cache.
#[derive(Debug)]
pub struct SpanGuard {
    name_id: u32,
    start_ns: u64,
    arg: i64,
    active: bool,
}

impl SpanGuard {
    /// Starts a span if the recorder is enabled. `cache` must be a static
    /// unique to the call site (the macro supplies it).
    #[doc(hidden)]
    pub fn enter(cache: &AtomicU32, name: &'static str, arg: Option<i64>) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard {
                name_id: 0,
                start_ns: 0,
                arg: 0,
                active: false,
            };
        }
        SpanGuard {
            name_id: intern(cache, name),
            start_ns: span_now_ns(),
            arg: arg.unwrap_or(NO_ARG),
            active: true,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let dur_ns = span_now_ns().saturating_sub(self.start_ns);
        // try_with: silently drop spans recorded during thread teardown.
        let _ = THREAD_RING.try_with(|ring| {
            ring.record(self.name_id, self.start_ns, dur_ns, self.arg);
        });
    }
}

/// Opens a [`SpanGuard`] measuring the enclosing scope.
///
/// ```
/// tsn_telemetry::set_enabled(true);
/// {
///     let _span = tsn_telemetry::span!("solve.partition", 3);
///     // ... work ...
/// } // span recorded here
/// assert!(tsn_telemetry::snapshot().iter().any(|s| s.name == "solve.partition"));
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span!($name, @none)
    };
    ($name:literal, @none) => {{
        static __TSN_SPAN_NAME_ID: ::std::sync::atomic::AtomicU32 =
            ::std::sync::atomic::AtomicU32::new(0);
        $crate::SpanGuard::enter(&__TSN_SPAN_NAME_ID, $name, ::std::option::Option::None)
    }};
    ($name:literal, $arg:expr) => {{
        static __TSN_SPAN_NAME_ID: ::std::sync::atomic::AtomicU32 =
            ::std::sync::atomic::AtomicU32::new(0);
        $crate::SpanGuard::enter(
            &__TSN_SPAN_NAME_ID,
            $name,
            ::std::option::Option::Some(($arg) as i64),
        )
    }};
}

/// Records a span retroactively, from explicit recorder-clock timestamps.
///
/// For phases whose start was captured on a *different* thread than the one
/// that observes their end — e.g. the daemon's queue-wait, stamped at
/// submit time by the connection handler and recorded by the pool worker
/// that picks the job up. A no-op when the recorder is disabled; the name
/// is interned through the global table on every call (one short lock),
/// which these once-per-request phases can afford.
pub fn record_span(name: &'static str, start_ns: u64, dur_ns: u64, arg: Option<i64>) {
    if !crate::enabled() {
        return;
    }
    let uncached = AtomicU32::new(0);
    let name_id = intern(&uncached, name);
    let _ = THREAD_RING.try_with(|ring| {
        ring.record(name_id, start_ns, dur_ns, arg.unwrap_or(NO_ARG));
    });
}

/// Every coherent span currently held in the flight recorder, across all
/// threads, ordered by start time.
pub fn snapshot() -> Vec<SpanEvent> {
    let recorder = recorder();
    let rings: Vec<Arc<Ring>> = recorder.rings.lock().unwrap().clone();
    let names: Vec<&'static str> = recorder.names.lock().unwrap().clone();
    let mut events = Vec::new();
    for ring in rings {
        ring.drain_valid(&mut events, &names);
    }
    events.sort_by_key(|e| (e.start_ns, e.tid));
    events
}

/// Renders the flight recorder as a chrome-trace JSON document: complete
/// (`"ph":"X"`) events with microsecond `ts`/`dur`, loadable directly in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace() -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, event) in snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        tsn_json::write_json_escaped(&mut out, event.name)
            .expect("writing to a String cannot fail");
        out.push_str(&format!(
            ",\"cat\":\"tsn\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}",
            event.tid,
            event.start_ns as f64 / 1e3,
            event.dur_ns as f64 / 1e3,
        ));
        if let Some(arg) = event.arg {
            out.push_str(&format!(",\"args\":{{\"v\":{arg}}}"));
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Writes [`chrome_trace`] to a file.
pub fn dump_chrome_trace(path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder and enabled flag are process-global, so keep every span
    // assertion in a single #[test] to avoid cross-test interference.
    #[test]
    fn spans_record_and_export() {
        // Disabled: guards are free and record nothing.
        assert!(!crate::enabled());
        drop(crate::span!("disabled.span"));
        assert!(snapshot().iter().all(|s| s.name != "disabled.span"));

        crate::set_enabled(true);
        {
            let _outer = crate::span!("test.outer");
            let _inner = crate::span!("test.inner", 42);
        }
        let handle = std::thread::spawn(|| {
            let _span = crate::span!("test.worker", 7);
        });
        handle.join().unwrap();
        crate::set_enabled(false);

        let events = snapshot();
        let outer = events.iter().find(|e| e.name == "test.outer").unwrap();
        let inner = events.iter().find(|e| e.name == "test.inner").unwrap();
        let worker = events.iter().find(|e| e.name == "test.worker").unwrap();
        assert_eq!(outer.arg, None);
        assert_eq!(inner.arg, Some(42));
        assert_eq!(worker.arg, Some(7));
        assert_ne!(worker.tid, outer.tid, "worker thread gets its own ring");
        // Inner closes before outer (drop order), outer starts first.
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.start_ns + outer.dur_ns >= inner.start_ns + inner.dur_ns);

        let trace = chrome_trace();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"name\":\"test.inner\""));
        assert!(trace.contains("\"args\":{\"v\":42}"));
        assert!(trace.contains("\"ph\":\"X\""));

        let dir = std::env::temp_dir().join("tsn_telemetry_span_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        dump_chrome_trace(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), chrome_trace());
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = Ring::new(99);
        for i in 0..(RING_CAPACITY as u64 + 10) {
            ring.record(0, i, 1, NO_ARG);
        }
        let mut out = Vec::new();
        ring.drain_valid(&mut out, &["wrap"]);
        assert_eq!(out.len(), RING_CAPACITY);
        // The oldest 10 spans were overwritten.
        assert!(out.iter().all(|e| e.start_ns >= 10));
    }
}
