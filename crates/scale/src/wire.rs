//! Wire format for partitioned-synthesis results: JSON encoding and
//! decoding of [`ScaleReport`]s and their partition/repair bookkeeping.
//!
//! The synthesis daemon (`tsn_service`) dispatches large `Synthesize`
//! requests to [`ScaleSynthesizer`](crate::ScaleSynthesizer) and ships the
//! partition statistics back to the client; benches archive them as JSON
//! artifacts. Like every wire module of the workspace this provides explicit
//! `to_json`/`from_json` pairs over [`tsn_net::json::Json`] that round-trip
//! bit-exactly.

use std::time::Duration;

use tsn_net::json::{Json, JsonError};
use tsn_synthesis::wire::{
    duration_from_json, duration_to_json, get_arr, get_bool, get_usize, report_from_json,
    report_to_json, stage_report_from_json, stage_report_to_json,
};

use crate::{HeuristicStats, PartitionReport, RepairReport, ScaleReport, SynthesisStrategy};

/// Encodes a [`SynthesisStrategy`].
pub fn strategy_to_json(strategy: SynthesisStrategy) -> Json {
    Json::Str(
        match strategy {
            SynthesisStrategy::SmtOnly => "smt_only",
            SynthesisStrategy::HeuristicFirst => "heuristic_first",
        }
        .to_string(),
    )
}

/// Decodes a [`SynthesisStrategy`].
///
/// # Errors
///
/// Returns a [`JsonError`] for anything but the two known strategy names.
pub fn strategy_from_json(json: &Json) -> Result<SynthesisStrategy, JsonError> {
    match json {
        Json::Str(s) if s == "smt_only" => Ok(SynthesisStrategy::SmtOnly),
        Json::Str(s) if s == "heuristic_first" => Ok(SynthesisStrategy::HeuristicFirst),
        _ => Err(tsn_net::json::bad(
            "strategy is not one of \"smt_only\" / \"heuristic_first\"",
        )),
    }
}

/// Encodes a [`HeuristicStats`].
pub fn heuristic_stats_to_json(stats: &HeuristicStats) -> Json {
    Json::obj([
        ("placed_apps", Json::from(stats.placed_apps)),
        ("repaired_apps", Json::from(stats.repaired_apps)),
        ("fallback_partitions", Json::from(stats.fallback_partitions)),
    ])
}

/// Decodes a [`HeuristicStats`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn heuristic_stats_from_json(json: &Json) -> Result<HeuristicStats, JsonError> {
    Ok(HeuristicStats {
        placed_apps: get_usize(json, "placed_apps")?,
        repaired_apps: get_usize(json, "repaired_apps")?,
        fallback_partitions: get_usize(json, "fallback_partitions")?,
    })
}

/// Encodes a [`PartitionReport`].
pub fn partition_report_to_json(p: &PartitionReport) -> Json {
    Json::obj([
        ("partition", Json::from(p.partition)),
        ("apps", Json::from(p.apps)),
        ("totals", stage_report_to_json(&p.totals)),
    ])
}

/// Decodes a [`PartitionReport`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn partition_report_from_json(json: &Json) -> Result<PartitionReport, JsonError> {
    Ok(PartitionReport {
        partition: get_usize(json, "partition")?,
        apps: get_usize(json, "apps")?,
        totals: stage_report_from_json(json.field("totals")?)?,
    })
}

/// Encodes a [`RepairReport`].
pub fn repair_report_to_json(r: &RepairReport) -> Json {
    Json::obj([
        ("round", Json::from(r.round)),
        ("conflicting_apps", Json::from(r.conflicting_apps)),
        ("conflict_pairs", Json::from(r.conflict_pairs)),
        ("resolved_apps", Json::from(r.resolved_apps)),
        ("escalated_apps", Json::from(r.escalated_apps)),
        ("solve_time", duration_to_json(r.solve_time)),
    ])
}

/// Decodes a [`RepairReport`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn repair_report_from_json(json: &Json) -> Result<RepairReport, JsonError> {
    Ok(RepairReport {
        round: get_usize(json, "round")?,
        conflicting_apps: get_usize(json, "conflicting_apps")?,
        conflict_pairs: get_usize(json, "conflict_pairs")?,
        resolved_apps: get_usize(json, "resolved_apps")?,
        escalated_apps: get_usize(json, "escalated_apps")?,
        solve_time: duration_from_json(json.field("solve_time")?)?,
    })
}

/// Encodes a [`ScaleReport`].
pub fn scale_report_to_json(report: &ScaleReport) -> Json {
    Json::obj([
        ("report", report_to_json(&report.report)),
        (
            "partitions",
            Json::Arr(
                report
                    .partitions
                    .iter()
                    .map(partition_report_to_json)
                    .collect(),
            ),
        ),
        (
            "repairs",
            Json::Arr(report.repairs.iter().map(repair_report_to_json).collect()),
        ),
        ("threads", Json::from(report.threads)),
        ("contention_edges", Json::from(report.contention_edges)),
        ("cut_edges", Json::from(report.cut_edges)),
        (
            "partition_wall_time",
            duration_to_json(report.partition_wall_time),
        ),
        (
            "monolithic_fallback",
            Json::Bool(report.monolithic_fallback),
        ),
        ("strategy", strategy_to_json(report.strategy)),
        ("heuristic", heuristic_stats_to_json(&report.heuristic)),
    ])
}

/// Decodes a [`ScaleReport`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn scale_report_from_json(json: &Json) -> Result<ScaleReport, JsonError> {
    Ok(ScaleReport {
        report: report_from_json(json.field("report")?)?,
        partitions: get_arr(json, "partitions")?
            .iter()
            .map(partition_report_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        repairs: get_arr(json, "repairs")?
            .iter()
            .map(repair_report_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        threads: get_usize(json, "threads")?,
        contention_edges: get_usize(json, "contention_edges")?,
        cut_edges: get_usize(json, "cut_edges")?,
        partition_wall_time: duration_from_json(json.field("partition_wall_time")?)?,
        monolithic_fallback: get_bool(json, "monolithic_fallback")?,
        // Members introduced after the first wire revision default when
        // absent, so reports persisted by older builds still decode.
        strategy: json
            .opt("strategy")
            .map_or(Ok(SynthesisStrategy::SmtOnly), strategy_from_json)?,
        heuristic: json
            .opt("heuristic")
            .map_or_else(|| Ok(HeuristicStats::default()), heuristic_stats_from_json)?,
    })
}

/// A [`ScaleReport`] with every wall-clock duration zeroed, for
/// deterministic wire responses (the synthesis daemon reports elapsed time
/// separately in its envelope; the payload must be bit-identical across
/// identical requests so responses are cacheable and differential-testable).
pub fn zeroed_scale_report(report: &ScaleReport) -> ScaleReport {
    let mut out = report.clone();
    out.report.total_time = Duration::ZERO;
    for stage in &mut out.report.stages {
        stage.solve_time = Duration::ZERO;
    }
    for p in &mut out.partitions {
        p.totals.solve_time = Duration::ZERO;
    }
    for r in &mut out.repairs {
        r.solve_time = Duration::ZERO;
    }
    out.partition_wall_time = Duration::ZERO;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ScaleConfig, ScaleSynthesizer};
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec, Time};
    use tsn_synthesis::SynthesisProblem;

    fn small_scale_report() -> ScaleReport {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut problem = SynthesisProblem::new(net.topology, Time::from_micros(5));
        for i in 0..3 {
            problem
                .add_application(
                    format!("loop-{i}"),
                    net.sensors[i],
                    net.controllers[i],
                    Time::from_millis(10),
                    1500,
                    PiecewiseLinearBound::single_segment(2.0, 0.012),
                )
                .unwrap();
        }
        let config = ScaleConfig {
            target_apps_per_partition: 2,
            threads: 1,
            ..ScaleConfig::default()
        };
        ScaleSynthesizer::new(config).synthesize(&problem).unwrap()
    }

    #[test]
    fn scale_reports_round_trip() {
        let report = small_scale_report();
        let json = scale_report_to_json(&report);
        let text = json.to_string();
        let back = scale_report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(scale_report_to_json(&back), json);
        assert_eq!(back.partitions.len(), report.partitions.len());
        assert_eq!(back.repairs.len(), report.repairs.len());
        assert_eq!(back.threads, report.threads);
        assert_eq!(back.monolithic_fallback, report.monolithic_fallback);
        assert_eq!(
            back.report.schedule.messages.len(),
            report.report.schedule.messages.len()
        );
    }

    #[test]
    fn zeroed_reports_are_deterministic() {
        let report = small_scale_report();
        let zeroed = zeroed_scale_report(&report);
        assert_eq!(zeroed.report.total_time, Duration::ZERO);
        assert!(zeroed
            .report
            .stages
            .iter()
            .all(|s| s.solve_time == Duration::ZERO));
        assert!(zeroed
            .partitions
            .iter()
            .all(|p| p.totals.solve_time == Duration::ZERO));
        assert_eq!(zeroed.partition_wall_time, Duration::ZERO);
        // Everything except the clocks is untouched.
        assert_eq!(
            zeroed.report.schedule.messages.len(),
            report.report.schedule.messages.len()
        );
        assert_eq!(zeroed.contention_edges, report.contention_edges);
    }

    #[test]
    fn malformed_scale_documents_are_rejected() {
        assert!(scale_report_from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(scale_report_from_json(&Json::parse("[]").unwrap()).is_err());
        assert!(partition_report_from_json(&Json::parse(r#"{"partition": -1}"#).unwrap()).is_err());
        assert!(strategy_from_json(&Json::parse(r#""simulated_annealing""#).unwrap()).is_err());
    }

    #[test]
    fn strategy_and_heuristic_stats_round_trip() {
        use crate::SynthesisStrategy;
        for strategy in [
            SynthesisStrategy::SmtOnly,
            SynthesisStrategy::HeuristicFirst,
        ] {
            let back = strategy_from_json(&strategy_to_json(strategy)).unwrap();
            assert_eq!(back, strategy);
        }
        let stats = crate::HeuristicStats {
            placed_apps: 12,
            repaired_apps: 3,
            fallback_partitions: 1,
        };
        let text = heuristic_stats_to_json(&stats).to_string();
        let back = heuristic_stats_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn reports_without_strategy_members_decode_with_defaults() {
        // A report persisted before the strategy members existed.
        let report = small_scale_report();
        let Json::Obj(members) = scale_report_to_json(&report) else {
            panic!("scale report encodes as an object");
        };
        let trimmed = Json::Obj(
            members
                .into_iter()
                .filter(|(key, _)| !matches!(key.as_str(), "strategy" | "heuristic"))
                .collect(),
        );
        let back = scale_report_from_json(&trimmed).unwrap();
        assert_eq!(back.strategy, crate::SynthesisStrategy::SmtOnly);
        assert_eq!(back.heuristic, crate::HeuristicStats::default());
    }
}
