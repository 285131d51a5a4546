//! Partitioned, parallel large-scale synthesis: thousands of time-triggered
//! control streams, solved by divide-and-conquer.
//!
//! The paper's joint routing + scheduling formulation (and its faithful port
//! in [`tsn_synthesis`]) solves tens of control loops. This crate scales the
//! same encoding to problems with hundreds to thousands of streams on
//! 32–128-switch fabrics, following the divide-and-conquer regime of
//! *"Just a Second — Scheduling Thousands of Time-Triggered Streams in
//! Large-Scale Networks"* (arXiv:2306.07710) and the per-partition
//! route/schedule co-optimization of *"Enhancing Throughput for TTEthernet
//! via Co-optimizing Routing and Scheduling"* (arXiv:2401.06579):
//!
//! 1. **Partition** ([`plan_partitions`]): a contention graph over the
//!    candidate routes groups applications that can share links, so almost
//!    all contention is *intra*-partition.
//! 2. **Schedule** ([`ScaleSynthesizer`]): every partition is synthesized
//!    independently on a scoped worker thread, each with its own
//!    warm-started [`tsn_smt::Model`] — or, heuristic-first, every
//!    application is placed greedily against one occupancy table shared by
//!    the whole problem ([`heuristic`]) and SMT only repairs what does not
//!    fit, with the partitioned SMT solve as the fallback.
//! 3. **Conflict repair**: the merged schedule is scanned for
//!    cross-partition link overlaps; a greedy vertex cover of the conflict
//!    graph is re-solved against the pinned reservations of every other
//!    application — the freeze/pin pattern of `tsn_online`, applied offline.
//!
//! The merged schedule is always re-checked by
//! [`tsn_synthesis::verify_schedule`], and the result is **bit-identical for
//! every thread count**: every step is deterministic, and parallelism only
//! changes *when* a partition is solved, never *what* it produces.
//!
//! # Example
//!
//! ```
//! use tsn_control::PiecewiseLinearBound;
//! use tsn_net::{builders, LinkSpec, Time};
//! use tsn_scale::{ScaleConfig, ScaleSynthesizer};
//! use tsn_synthesis::SynthesisProblem;
//!
//! # fn main() -> Result<(), tsn_synthesis::SynthesisError> {
//! let net = builders::figure1_example(LinkSpec::fast_ethernet());
//! let mut problem = SynthesisProblem::new(net.topology, Time::from_micros(5));
//! for i in 0..3 {
//!     problem.add_application(
//!         format!("loop-{i}"),
//!         net.sensors[i],
//!         net.controllers[i],
//!         Time::from_millis(10),
//!         1500,
//!         PiecewiseLinearBound::single_segment(2.0, 0.012),
//!     )?;
//! }
//! // Force two partitions even on this small instance.
//! let config = ScaleConfig {
//!     target_apps_per_partition: 2,
//!     ..ScaleConfig::default()
//! };
//! let report = ScaleSynthesizer::new(config).synthesize(&problem)?;
//! assert!(report.all_stable());
//! assert_eq!(report.report.schedule.messages.len(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
pub mod heuristic;
mod partition;
pub mod wire;

pub use engine::{
    HeuristicStats, PartitionReport, RepairReport, ScaleConfig, ScaleReport, ScaleSynthesizer,
    SynthesisStrategy,
};
pub use partition::{plan_partitions, PartitionPlan};
