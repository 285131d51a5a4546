//! Network topology modeling for TSN Ethernet synthesis.
//!
//! This crate provides the network substrate used by the stability-aware
//! routing and scheduling synthesis: a typed topology graph of Ethernet
//! switches, sensors and controllers connected by full-duplex links, a set of
//! topology builders (including the Erdős–Rényi random topologies and the
//! automotive topology used in the paper's evaluation), and path-enumeration
//! algorithms (shortest path, Yen's K-shortest paths, bounded enumeration of
//! all simple paths) that feed the route-candidate generation of the
//! synthesizer.
//!
//! # Example
//!
//! ```
//! use tsn_net::{Topology, NodeKind, LinkSpec, Time};
//!
//! # fn main() -> Result<(), tsn_net::NetError> {
//! let mut topo = Topology::new();
//! let sensor = topo.add_node("S0", NodeKind::Sensor);
//! let sw0 = topo.add_node("SW0", NodeKind::Switch);
//! let sw1 = topo.add_node("SW1", NodeKind::Switch);
//! let ctrl = topo.add_node("C0", NodeKind::Controller);
//! topo.connect(sensor, sw0, LinkSpec::fast_ethernet())?;
//! topo.connect(sw0, sw1, LinkSpec::fast_ethernet())?;
//! topo.connect(sw1, ctrl, LinkSpec::fast_ethernet())?;
//!
//! let routes = topo.k_shortest_routes(sensor, ctrl, 4)?;
//! assert_eq!(routes.len(), 1);
//! assert_eq!(routes[0].hop_count(), 3);
//! assert!(topo.link_between(sw0, sw1).is_some());
//! let _delay: Time = LinkSpec::fast_ethernet().transmission_delay(1500);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod builders;
mod error;
pub mod framing;
mod id;
mod link;
mod node;
mod paths;
pub mod poll;
mod route;
mod time;
mod topology;
pub mod wire;

pub use error::NetError;
pub use id::{LinkId, NodeId};
pub use link::{Link, LinkSpec};
pub use node::{Node, NodeKind};
pub use route::Route;
pub use time::Time;
pub use topology::Topology;
/// The workspace JSON stack, re-exported under the path every wire module
/// imports it by (it lives in `tsn_json`, below `tsn_telemetry`).
pub use tsn_json as json;
