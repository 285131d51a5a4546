//! Differential test harness for the whole workspace.
//!
//! Three pieces, all fully deterministic per seed so every failure replays:
//!
//! * [`scenario`] — a seeded grid of synthesis scenarios spanning topology
//!   shape × switch count × application count × link speed × route strategy ×
//!   stage count. The grid is the regression corpus that later scale/perf PRs
//!   are cross-checked against.
//! * [`diffsolver`] — a brute-force reference solver for the mixed Boolean /
//!   difference-logic fragment that [`tsn_smt`] implements, used to
//!   cross-check `Model::solve` on small random instances.
//! * [`oracle`] — the three-way schedule oracle: for every synthesized
//!   schedule, the analytic [`tsn_synthesis::AppMetrics`], the independent
//!   [`tsn_synthesis::verify_schedule`] pass and the
//!   [`tsn_sim::NetworkSimulator`] observation must agree on latency, jitter
//!   and stability.
//! * [`online`] — oracle extensions for the online admission engine: every
//!   post-event state must pass the three-way check with untouched loops
//!   bit-identical, and warm incremental admissions are differentially
//!   re-checked against cold full re-synthesis.
//! * [`service`] — the daemon differential: every response of a live
//!   `tsn_service` daemon (driven over real TCP) must be byte-identical to
//!   the corresponding direct library call, and every served schedule must
//!   pass the three-way oracle.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod diffsolver;
pub mod online;
pub mod oracle;
pub mod router;
pub mod scenario;
pub mod service;

pub use diffsolver::{
    brute_force_sat, build_model, crowded_instance, random_instance, solve_with_smt, BuiltModel,
    DiffInstance,
};
pub use online::{
    batch_differential, check_trace, warm_cold_differential, BatchCheck, TraceCheck, WarmColdStats,
};
pub use oracle::{three_way_check, three_way_check_scale, OracleReport};
pub use router::{router_differential, RouterCheck};
pub use scenario::{
    build_problem, config_for, fingerprint, scenario_grid, scenario_grid_heavy, LinkClass,
    ScenarioSpec, TopologyShape,
};
pub use service::{service_differential, Client, ServiceCheck};
