//! The serving path taken apart: each public function a request line goes
//! through in the daemon, timed in-process on the lines the daemon really
//! received and wrote. Runs in the traced pass only.

use std::time::Instant;

use tsn_net::framing::FrameReader;
use tsn_net::json::Json;
use tsn_router::Ring;
use tsn_service::protocol::{Request, Response};
use tsn_service::{ResultCache, Service, ServiceConfig};

use crate::loadgen::Prepared;
use crate::report::Outcome;
use crate::stats::median;

/// Median microseconds per call of `op`, over rounds of repeated calls.
fn micros_per_call(rounds: usize, calls: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                op();
            }
            start.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Times parse, dispatch-on-hit, encode, framing and the cache on one
/// request line and its response. Returns the cost of a whole warm
/// `Service::handle_line`, which `tsn_net.poll_overhead_us` is measured
/// against.
pub fn serving_path(request: &Prepared, outcome: &mut Outcome) -> f64 {
    let line = String::from_utf8_lossy(&request.line)
        .trim_end()
        .to_string();
    let service = Service::new(ServiceConfig {
        workers: crate::serve::WORKERS,
        ..ServiceConfig::default()
    });
    // The first call solves and fills the cache; every later one hits.
    let response_line = service.handle_line(&line);
    let response = Response::parse_line(&response_line).expect("the service answers in protocol");
    let response_json = response.to_json();
    let (rounds, calls) = (7, 200);

    let json_parse = {
        let _span = tsn_telemetry::span!("bench.layers.json_parse");
        micros_per_call(rounds, calls, || {
            std::hint::black_box(Json::parse(std::hint::black_box(&line)).is_ok());
        })
    };
    let json_encode = {
        let _span = tsn_telemetry::span!("bench.layers.json_encode");
        micros_per_call(rounds, calls, || {
            std::hint::black_box(std::hint::black_box(&response_json).to_string());
        })
    };
    let request_parse = {
        let _span = tsn_telemetry::span!("bench.layers.request_parse");
        micros_per_call(rounds, calls, || {
            std::hint::black_box(Request::parse_line(std::hint::black_box(&line)).is_ok());
        })
    };
    let response_encode = {
        let _span = tsn_telemetry::span!("bench.layers.response_encode");
        micros_per_call(rounds, calls, || {
            std::hint::black_box(std::hint::black_box(&response).to_line());
        })
    };
    let handle_hit = {
        let _span = tsn_telemetry::span!("bench.layers.handle_hit");
        micros_per_call(rounds, calls, || {
            std::hint::black_box(service.handle_line(std::hint::black_box(&line)));
        })
    };

    // Framing: a socket read's worth of pipelined request lines split back
    // into lines.
    let pipelined = 16;
    let wire: Vec<u8> = request.line.repeat(pipelined);
    let frame_line = {
        let _span = tsn_telemetry::span!("bench.layers.frame_line");
        micros_per_call(rounds, calls / 4, || {
            let mut reader = FrameReader::new(tsn_net::framing::MAX_LINE_BYTES);
            let mut source: &[u8] = &wire;
            reader.fill(&mut source);
            while let Ok(Some(framed)) = reader.next_line() {
                std::hint::black_box(framed);
            }
        }) / pipelined as f64
    };

    // The cache at the daemon's capacity, keyed like the daemon keys it: by
    // the canonical request text.
    let payload = response.outcome.clone().unwrap_or(Json::Null);
    let keys: Vec<String> = (0..512).map(|k| format!("{line}#{k}")).collect();
    let mut cache: ResultCache<Json> = ResultCache::new(256);
    for key in &keys[..256] {
        cache.insert(key.clone(), payload.clone());
    }
    let mut next = 0usize;
    let cache_get = {
        let _span = tsn_telemetry::span!("bench.layers.cache_get");
        micros_per_call(rounds, calls, || {
            next = (next + 1) % 256;
            std::hint::black_box(cache.get(&keys[next]));
        })
    };
    let cache_insert = {
        let _span = tsn_telemetry::span!("bench.layers.cache_insert");
        // Every insert is of a key not in the cache: it evicts.
        micros_per_call(rounds, calls, || {
            next = (next + 1) % keys.len();
            let key = format!("{}!{next}", keys[next]);
            cache.insert(key, payload.clone());
        })
    };

    outcome.set("tsn_net.json_parse_us", json_parse);
    outcome.set("tsn_net.json_encode_us", json_encode);
    outcome.set("tsn_net.frame_line_us", frame_line);
    outcome.set("tsn_service.request_parse_us", request_parse);
    outcome.set("tsn_service.response_encode_us", response_encode);
    outcome.set("tsn_service.handle_hit_us", handle_hit);
    outcome.set("tsn_service.cache_get_us", cache_get);
    outcome.set("tsn_service.cache_insert_us", cache_insert);
    handle_hit
}

/// Nanoseconds per consistent-hash lookup on a ring of `shards` shards.
pub fn ring_lookup_ns(shards: &[String], tenants: &[String]) -> f64 {
    let ring = Ring::build(shards, &vec![true; shards.len()]);
    let _span = tsn_telemetry::span!("bench.layers.ring_lookup");
    let mut next = 0usize;
    micros_per_call(7, 20_000, || {
        next = (next + 1) % tenants.len();
        std::hint::black_box(ring.shard_for_tenant(&tenants[next]));
    }) * 1e3
}
