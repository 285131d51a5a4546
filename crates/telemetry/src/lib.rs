//! Observability for the TSN synthesis stack: an atomic
//! metrics registry with dimensional (labeled) series, a structured JSONL
//! diagnostic [`log`], a span/flight-recorder API with chrome-trace
//! export, and a pluggable [`Clock`] for deterministic tests.
//!
//! Every layer of the workspace records into the same process-wide
//! [`registry`] and flight recorder: the SMT core times its
//! decide/propagate/theory phases, the scale engine its per-partition
//! heuristic placement and conflict repair, the online engine its events
//! and batches, and the daemon its request lifecycle. The daemon exposes
//! the registry over the wire protocol (per-tenant series carried as
//! `name{tenant="..."}` labels), the structured log via
//! `tsn-serviced --log-out` and the `health` request's recent-log tail,
//! and the recorder via `tsn-serviced --trace-out`.
//!
//! # Design constraints
//!
//! * **One dependency.** This crate sits below everything else, vendored
//!   stand-ins included, except `tsn_json` — the workspace's one JSON stack,
//!   itself dependency-free — through which the log and the chrome trace
//!   are written and read. The Prometheus exposition is hand-rendered.
//! * **Free when off.** Span recording is gated on a single relaxed atomic
//!   load ([`enabled`], default off). Metric handles are plain atomics that
//!   call sites keep around, so always-on counters cost one `fetch_add`.
//! * **Payload neutrality.** Nothing here may influence daemon response
//!   *payloads*: trace ids and timings travel only in the wire envelope and
//!   the `metrics` channel. `testkit::service_differential` re-proves this
//!   byte-for-byte with telemetry on and off.
//!
//! # Metrics over the wire
//!
//! The daemon answers a `metrics` request with the registry rendered in
//! Prometheus text exposition format:
//!
//! ```text
//! --> {"id":9,"request":{"type":"metrics"}}
//! <-- {"id":9,"cached":false,"elapsed_us":41,"ok":{"exposition":"# TYPE requests_total counter\nrequests_total 37\n# TYPE solve_seconds histogram\nsolve_seconds_bucket{le=\"0.000001\"} 0\n...\nsolve_seconds_sum 1.82\nsolve_seconds_count 21\n"}}
//! ```
//!
//! [`sample_value`] and [`histogram_quantile`] parse the un-labeled series
//! back on the client side (used by `fig_service` to report daemon-side
//! queue-wait percentiles); [`sample_value_with`], [`samples`] and
//! [`histogram_quantile_with`] do the same for labeled series such as the
//! daemon's per-tenant families.
//!
//! # Recording
//!
//! ```
//! use std::time::Duration;
//!
//! // Metrics: look the handle up once, record forever.
//! let solves = tsn_telemetry::registry().counter("doc_solves_total");
//! let latency = tsn_telemetry::registry().histogram("doc_solve_seconds");
//! solves.inc();
//! latency.observe(Duration::from_micros(800));
//! assert!(latency.p95() >= Duration::from_micros(800));
//!
//! // Spans: RAII guards, recorded when the scope closes.
//! tsn_telemetry::set_enabled(true);
//! {
//!     let _span = tsn_telemetry::span!("doc.solve", 17);
//! }
//! tsn_telemetry::set_enabled(false);
//! ```
//!
//! # Loading a trace
//!
//! [`dump_chrome_trace`] (or `tsn-serviced --trace-out trace.json`, or
//! `fig_scale --trace-out trace.json`) writes the flight recorder in the
//! chrome "trace event" JSON format. To view a trace: open
//! `chrome://tracing` in Chrome (or <https://ui.perfetto.dev>), click
//! *Load*, and pick the file. Spans appear as one row per thread on a
//! shared microsecond timeline; the optional `span!` argument is shown as
//! `args.v` when a span is selected.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
pub mod log;
mod metrics;
mod span;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{
    histogram_quantile, histogram_quantile_with, parse_sample, registry, sample_value,
    sample_value_with, samples, Counter, Gauge, Histogram, HistogramSnapshot, Registry, Sample,
    BUCKETS, DEFAULT_LABEL_CARDINALITY, FOLD_LABEL_VALUE,
};
pub use span::{
    chrome_trace, dump_chrome_trace, record_span, set_recorder_clock, snapshot, SpanEvent,
    SpanGuard,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span recording is on. A single relaxed load — this is the only
/// cost instrumented hot paths pay when telemetry is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording (and gated per-phase timing in the solver) on or
/// off, process-wide. Metrics counters and histograms are always live.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}
