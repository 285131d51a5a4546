//! A multi-tenant synthesis daemon serving the workspace's wire protocol
//! over TCP.
//!
//! Since PR 2 the hand-rolled JSON wire modules (`tsn_net::json`,
//! `tsn_synthesis::wire`, `tsn_online::wire`) have been the cross-process
//! interface of the workspace — this crate is the process that actually
//! listens on them. A [`Service`] hosts:
//!
//! * **one online engine session per named tenant network** — `open_tenant`
//!   creates a [`tsn_online::OnlineEngine`], and `event` requests route
//!   `AdmitApp`/`RemoveApp`/`LinkDown`/`LinkUp` through warm-started
//!   incremental admission;
//! * **one-shot `synthesize` requests**, dispatched to the monolithic
//!   [`tsn_synthesis::Synthesizer`] or — above a configurable stream-count
//!   threshold — to the partitioned [`tsn_scale::ScaleSynthesizer`];
//! * **a content-addressed result cache** (printed `request` member →
//!   printed payload, LRU-bounded), so a repeated identical solve is
//!   answered on the event loop without touching a solver or the pool;
//! * **a worker-pool dispatcher** with the PR 3 determinism discipline:
//!   concurrent requests to the *same* tenant serialize in submission
//!   order, different tenants run in parallel.
//!
//! Responses are **deterministic**: every wall-clock duration inside a
//! served payload is zeroed (elapsed time is reported separately in the
//! envelope), so a payload is a pure function of its request — the property
//! the cache and the byte-level differential tests in `testkit` rely on.
//!
//! # Protocol reference
//!
//! Newline-delimited JSON over TCP; see [`protocol`] for the full envelope
//! grammar. Example exchange (one line each):
//!
//! ```text
//! -> {"id":1,"request":{"type":"ping"}}
//! <- {"id":1,"cached":false,"elapsed_us":12,"ok":{"type":"pong"}}
//! -> {"id":2,"request":{"type":"open_tenant","tenant":"plant-a","topology":{...},"forwarding_delay":5000,"config":null}}
//! <- {"id":2,"cached":false,"elapsed_us":34,"ok":{"type":"tenant_opened","tenant":"plant-a"}}
//! -> {"id":3,"request":{"type":"event","tenant":"plant-a","event":{"type":"admit_app","app":{...}}}}
//! <- {"id":3,"cached":false,"elapsed_us":8123,"ok":{"type":"event_processed","report":{...}}}
//! -> {"id":4,"request":{"type":"event_batch","tenant":"plant-a","events":[{"type":"link_down","link":7},{"type":"link_down","link":9},{"type":"link_up","link":7}]}}
//! <- {"id":4,"cached":false,"elapsed_us":10456,"ok":{"type":"batch_processed","report":{"reports":[...],"joint":true,"affected_loops":2,"queued_admissions":0,...}}}
//! -> {"id":5,"request":{"type":"shutdown"}}
//! <- {"id":5,"cached":false,"elapsed_us":3,"ok":{"type":"shutting_down"}}
//! ```
//!
//! An `event_batch` window is committed with **one** joint incremental
//! solve ([`tsn_online::OnlineEngine::process_batch`]): correlated link
//! failures are rerouted as a set instead of loop by loop, so a batch can
//! retain loops that per-event processing would evict. One request, one
//! response — the `batch_processed` payload carries the whole
//! `BatchReport` with per-event attribution, every duration zeroed.
//!
//! # Example (in-process)
//!
//! ```
//! use std::net::{TcpListener, TcpStream};
//! use std::io::{BufRead, BufReader, Write};
//! use std::sync::Arc;
//! use tsn_service::{serve, Service, ServiceConfig};
//!
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let service = Arc::new(Service::new(ServiceConfig::default()));
//! let daemon = {
//!     let service = Arc::clone(&service);
//!     std::thread::spawn(move || serve(&service, listener).unwrap())
//! };
//!
//! let mut client = TcpStream::connect(addr).unwrap();
//! client.write_all(b"{\"id\":1,\"request\":{\"type\":\"ping\"}}\n").unwrap();
//! let mut reply = String::new();
//! BufReader::new(client.try_clone().unwrap()).read_line(&mut reply).unwrap();
//! assert!(reply.contains("\"pong\""));
//!
//! client.write_all(b"{\"id\":2,\"request\":{\"type\":\"shutdown\"}}\n").unwrap();
//! drop(client);
//! daemon.join().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
pub mod dispatch;
pub mod protocol;
mod server;

pub use cache::{fnv1a64, ResultCache};
pub use server::{serve, synthesize_result_json, Service, ServiceConfig};
