//! The metric catalogue and the result of one workload run.
//!
//! `BENCHMARK.json` lists the same names and units; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

use tsn_net::json::Json;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees. The driver requires every workload to
/// report every one of these from its untraced pass, none of them 0
/// (README: "Metric glossary").
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("wall_s", "s"),
    m("lat_p50_us", "us"),
    m("lat_p95_us", "us"),
    m("stable_share", "ratio"),
    m("peak_rss_mib", "MiB"),
];

/// Single-layer meters, `<crate>.<metric>`. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    m("tsn_net.kshortest_s", "s"),
    m("tsn_net.routes_total", "count"),
    m("tsn_net.json_parse_us", "us"),
    m("tsn_net.json_encode_us", "us"),
    m("tsn_net.frame_line_us", "us"),
    m("tsn_net.poll_overhead_us", "us"),
    m("tsn_control.bounds_s", "s"),
    m("tsn_smt.decisions", "count"),
    m("tsn_smt.conflicts", "count"),
    m("tsn_smt.propagations", "count"),
    m("tsn_smt.theory_checks", "count"),
    m("tsn_smt.restarts", "count"),
    m("tsn_smt.deleted_clauses", "count"),
    m("tsn_smt.peak_live_clauses", "count"),
    m("tsn_smt.props_per_s", "1/s"),
    m("tsn_smt.decide_s", "s"),
    m("tsn_smt.propagate_s", "s"),
    m("tsn_smt.theory_s", "s"),
    m("tsn_smt.reduce_s", "s"),
    m("tsn_synthesis.encode_s", "s"),
    m("tsn_synthesis.solve_s", "s"),
    m("tsn_synthesis.verify_s", "s"),
    m("tsn_synthesis.messages", "count"),
    m("tsn_scale.plan_s", "s"),
    m("tsn_scale.partitions", "count"),
    m("tsn_scale.cut_edges", "count"),
    m("tsn_scale.partition_phase_s", "s"),
    m("tsn_scale.conflict_repair_s", "s"),
    m("tsn_scale.repair_rounds", "count"),
    m("tsn_scale.conflict_pairs", "count"),
    m("tsn_scale.cover_apps", "count"),
    m("tsn_scale.placed_apps", "count"),
    m("tsn_scale.repaired_apps", "count"),
    m("tsn_scale.fallback_partitions", "count"),
    m("tsn_scale.cover_share", "ratio"),
    m("tsn_scale.first_fit_us", "us"),
    m("tsn_scale.unattributed_s", "s"),
    m("tsn_online.event_p50_us", "us"),
    m("tsn_online.reject_share", "ratio"),
    m("tsn_online.rescheduled", "count"),
    m("tsn_online.fallbacks", "count"),
    m("tsn_online.session_clauses_end", "count"),
    m("tsn_service.request_parse_us", "us"),
    m("tsn_service.response_encode_us", "us"),
    m("tsn_service.handle_hit_us", "us"),
    m("tsn_service.cache_get_us", "us"),
    m("tsn_service.cache_insert_us", "us"),
    m("tsn_service.cpu_us_per_req", "us"),
    m("tsn_service.cache_hit_share", "ratio"),
    m("tsn_service.solves", "count"),
    m("tsn_service.coalesced_misses", "count"),
    m("tsn_service.shed", "count"),
    m("tsn_service.queue_wait_p95_us", "us"),
    m("tsn_service.solve_p50_us", "us"),
    m("tsn_router.cpu_us_per_req", "us"),
    m("tsn_router.ring_lookup_ns", "ns"),
    m("tsn_router.shard_balance", "ratio"),
    m("tsn_sim.replay_s", "s"),
    m("tsn_telemetry.trace_overhead_share", "ratio"),
    m("loadgen.cpu_us_per_req", "us"),
    m("loadgen.late_p99_us", "us"),
    m("loadgen.echo_rps", "1/s"),
    m("loadgen.lat_p99_us", "us"),
];

fn declared(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}

/// The measured result of one workload run: operation counts, metric
/// values, and the reason for every failed operation.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    failures: Vec<String>,
}

impl Outcome {
    /// Records one metric. Panics on an undeclared name — a typo must not
    /// silently drop a meter.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = declared(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.values.insert(def.name, value);
    }

    /// The timing of a workload whose one operation is a whole repetition
    /// (one `synthesize`). The operation's latency is the repetition's
    /// time and a handful of repetitions support no percentile, so the two
    /// latency metrics, which every run must print, restate `wall_s` here.
    pub fn set_repetition(&mut self, seconds: f64) {
        self.set("wall_s", seconds);
        self.set("lat_p50_us", seconds * 1e6);
        self.set("lat_p95_us", seconds * 1e6);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts `operations` attempted operations, all of them successful.
    pub fn attempt(&mut self, operations: u64) {
        self.attempted += operations;
    }

    /// Counts `operations` of the attempted operations as failed.
    pub fn fail(&mut self, operations: u64, why: impl Into<String>) {
        self.failed += operations.max(1);
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    /// Counts one attempted operation, failed when `result` is an error.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempt(1);
        if let Err(why) = result {
            self.fail(1, why);
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// A run is correct when nothing failed and every reported number is
    /// finite.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.values.values().all(|v| v.is_finite())
    }

    /// Every recorded metric by name with its unit, one per line.
    pub fn print_metrics(&self, workload: &str) {
        for (name, value) in &self.values {
            let unit = declared(name).map_or("", |def| def.unit);
            println!("{workload} {name} = {value} {unit}");
        }
        println!(
            "{workload} fail_share = {} ratio ({} failed of {} attempted)",
            self.fail_share(),
            self.failed,
            self.attempted
        );
        for why in &self.failures {
            println!("{workload} FAILED: {why}");
        }
    }

    /// The machine-readable result line: the end-to-end metrics of an
    /// untraced run or the per-layer metrics of a traced one. A missing
    /// end-to-end metric makes the run incorrect; a layer the workload
    /// never touched reads 0.
    pub fn result_line(&self, traced: bool) -> String {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut complete = true;
        let metrics = defs.iter().map(|def| {
            let value = match self.values.get(def.name) {
                Some(&v) if v.is_finite() => v,
                Some(_) => 0.0,
                None => {
                    complete &= traced;
                    0.0
                }
            };
            (
                def.name,
                Json::obj([
                    ("value", Json::Float(value)),
                    ("unit", Json::from(def.unit)),
                ]),
            )
        });
        let metrics = Json::obj(metrics.collect::<Vec<_>>());
        Json::obj([
            ("correct", Json::Bool(self.correct() && complete)),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", metrics),
        ])
        .to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(def.name.len() <= 64 && def.unit.len() <= 16, "{def:?}");
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut outcome = Outcome::default();
        for def in END_TO_END {
            outcome.set(def.name, 1.5);
        }
        outcome.check(Ok(()));
        assert!(outcome.correct());
        assert!(outcome.result_line(false).starts_with("{\"correct\":true"));
        outcome.check(Err("schedule rejected".into()));
        assert!(!outcome.correct());
        assert_eq!(outcome.fail_share(), 0.5);
        let line = outcome.result_line(false);
        assert!(
            line.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1"),
            "{line}"
        );
    }

    #[test]
    fn a_missing_end_to_end_metric_is_not_a_correct_run() {
        let mut outcome = Outcome::default();
        outcome.check(Ok(()));
        outcome.set("wall_s", 1.0);
        assert!(outcome.result_line(false).starts_with("{\"correct\":false"));
        // Per-layer output pads untouched layers with zeros instead.
        let traced = Json::parse(&outcome.result_line(true)).unwrap();
        assert_eq!(traced.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = traced.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("tsn_sim.replay_s")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
    }
}
