//! Wire format for synthesis results: JSON encoding and decoding of
//! [`Schedule`]s, [`SynthesisReport`]s and their parts.
//!
//! Reports and schedules are the cross-process interface of the workspace —
//! bench binaries emit them, future sharded deployments will ship them
//! between processes. This module is their only serialization: explicit
//! `to_json`/`from_json` pairs over [`tsn_net::json::Json`].
//!
//! All times are encoded as exact integer nanoseconds; durations as
//! `{secs, nanos}` integer pairs. Every encoder/decoder pair round-trips
//! bit-exactly, which the round-trip tests below assert.

use std::time::Duration;

use tsn_control::{PiecewiseLinearBound, StabilitySegment};
use tsn_net::json::{echo, Json, JsonError};
use tsn_net::wire::{delay_from_json, time_from_json, time_to_json};
use tsn_net::{LinkId, NodeId, Route, Time};

use crate::{
    AppMetrics, ConstraintMode, ControlApplication, MessageInstance, MessageSchedule,
    RouteStrategy, Schedule, StageReport, SynthesisConfig, SynthesisProblem, SynthesisReport,
};

// The shared decoder helpers moved to `tsn_net::json` (PR 4) so that
// `tsn_net::wire` can use them too; they are re-exported here because every
// downstream wire module imports them from this path.
pub use tsn_net::json::{bad, get_arr, get_bool, get_f64, get_i64, get_str, get_u64, get_usize};

/// Encodes a [`Duration`] as a `{secs, nanos}` object.
pub fn duration_to_json(d: Duration) -> Json {
    Json::obj([
        ("secs", Json::Int(d.as_secs() as i64)),
        ("nanos", Json::Int(d.subsec_nanos() as i64)),
    ])
}

/// Decodes a [`Duration`] from a `{secs, nanos}` object.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn duration_from_json(json: &Json) -> Result<Duration, JsonError> {
    let secs = u64::try_from(get_i64(json, "secs")?).map_err(|_| bad("negative seconds"))?;
    let nanos = u32::try_from(get_i64(json, "nanos")?).map_err(|_| bad("invalid nanos"))?;
    Ok(Duration::new(secs, nanos))
}

/// Encodes a [`Route`] as its node and link index lists.
pub fn route_to_json(route: &Route) -> Json {
    Json::obj([
        (
            "nodes",
            Json::Arr(
                route
                    .nodes()
                    .iter()
                    .map(|n| Json::Int(n.index() as i64))
                    .collect(),
            ),
        ),
        (
            "links",
            Json::Arr(
                route
                    .links()
                    .iter()
                    .map(|l| Json::Int(l.index() as i64))
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a [`Route`] from its node and link index lists.
///
/// # Errors
///
/// Returns a [`JsonError`] if the members are malformed or the shape
/// invariants of [`Route::from_parts`] are violated.
pub fn route_from_json(json: &Json) -> Result<Route, JsonError> {
    let nodes = get_arr(json, "nodes")?
        .iter()
        .map(|v| {
            v.as_i64()
                .and_then(|i| u32::try_from(i).ok())
                .map(NodeId::new)
                .ok_or_else(|| bad("route node is not a valid index"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let links = get_arr(json, "links")?
        .iter()
        .map(|v| {
            v.as_i64()
                .and_then(|i| u32::try_from(i).ok())
                .map(LinkId::new)
                .ok_or_else(|| bad("route link is not a valid index"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Route::from_parts(nodes, links).map_err(|e| bad(format!("malformed route: {e}")))
}

/// Encodes a [`MessageSchedule`].
pub fn message_schedule_to_json(m: &MessageSchedule) -> Json {
    Json::obj([
        ("app", Json::from(m.message.app)),
        ("instance", Json::from(m.message.instance)),
        ("release", time_to_json(m.message.release)),
        ("route", route_to_json(&m.route)),
        (
            "link_release",
            Json::Arr(
                m.link_release
                    .iter()
                    .map(|&(link, t)| {
                        Json::Arr(vec![Json::Int(link.index() as i64), time_to_json(t)])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", time_to_json(m.end_to_end)),
    ])
}

/// Decodes a [`MessageSchedule`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn message_schedule_from_json(json: &Json) -> Result<MessageSchedule, JsonError> {
    let message = MessageInstance {
        app: get_usize(json, "app")?,
        instance: get_usize(json, "instance")?,
        release: time_from_json(json.field("release")?)?,
    };
    let route = route_from_json(json.field("route")?)?;
    let link_release = get_arr(json, "link_release")?
        .iter()
        .map(|entry| {
            let pair = entry
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| bad("link_release entry is not a [link, time] pair"))?;
            let link = pair[0]
                .as_i64()
                .and_then(|i| u32::try_from(i).ok())
                .map(LinkId::new)
                .ok_or_else(|| bad("link_release link is not a valid index"))?;
            Ok((link, time_from_json(&pair[1])?))
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    Ok(MessageSchedule {
        message,
        route,
        link_release,
        end_to_end: time_from_json(json.field("end_to_end")?)?,
    })
}

/// Encodes a [`Schedule`].
pub fn schedule_to_json(schedule: &Schedule) -> Json {
    Json::obj([
        ("hyperperiod", time_to_json(schedule.hyperperiod)),
        (
            "messages",
            Json::Arr(
                schedule
                    .messages
                    .iter()
                    .map(message_schedule_to_json)
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a [`Schedule`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn schedule_from_json(json: &Json) -> Result<Schedule, JsonError> {
    Ok(Schedule {
        hyperperiod: time_from_json(json.field("hyperperiod")?)?,
        messages: get_arr(json, "messages")?
            .iter()
            .map(message_schedule_from_json)
            .collect::<Result<Vec<_>, _>>()?,
    })
}

/// Encodes an [`AppMetrics`].
pub fn app_metrics_to_json(m: &AppMetrics) -> Json {
    Json::obj([
        ("latency", time_to_json(m.latency)),
        ("jitter", time_to_json(m.jitter)),
        ("max_end_to_end", time_to_json(m.max_end_to_end)),
    ])
}

/// Decodes an [`AppMetrics`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn app_metrics_from_json(json: &Json) -> Result<AppMetrics, JsonError> {
    Ok(AppMetrics {
        latency: time_from_json(json.field("latency")?)?,
        jitter: time_from_json(json.field("jitter")?)?,
        max_end_to_end: time_from_json(json.field("max_end_to_end")?)?,
    })
}

/// Encodes a [`StageReport`].
pub fn stage_report_to_json(s: &StageReport) -> Json {
    Json::obj([
        ("stage", Json::from(s.stage)),
        ("messages", Json::from(s.messages)),
        ("solve_time", duration_to_json(s.solve_time)),
        ("decisions", Json::Int(s.decisions as i64)),
        ("conflicts", Json::Int(s.conflicts as i64)),
        ("propagations", Json::Int(s.propagations as i64)),
        ("theory_checks", Json::Int(s.theory_checks as i64)),
        ("restarts", Json::Int(s.restarts as i64)),
        (
            "theory_scratch_reuses",
            Json::Int(s.theory_scratch_reuses as i64),
        ),
        ("deleted_clauses", Json::Int(s.deleted_clauses as i64)),
        ("peak_live_clauses", Json::Int(s.peak_live_clauses as i64)),
    ])
}

/// Decodes a [`StageReport`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn stage_report_from_json(json: &Json) -> Result<StageReport, JsonError> {
    Ok(StageReport {
        stage: get_usize(json, "stage")?,
        messages: get_usize(json, "messages")?,
        solve_time: duration_from_json(json.field("solve_time")?)?,
        decisions: get_i64(json, "decisions")? as u64,
        conflicts: get_i64(json, "conflicts")? as u64,
        propagations: get_u64(json, "propagations")?,
        theory_checks: get_u64(json, "theory_checks")?,
        restarts: get_u64(json, "restarts")?,
        // Counters introduced after the first wire revision default to zero
        // when absent, so reports persisted by older builds still decode.
        theory_scratch_reuses: json.opt_u64("theory_scratch_reuses")?.unwrap_or(0),
        deleted_clauses: json.opt_u64("deleted_clauses")?.unwrap_or(0),
        peak_live_clauses: json.opt_u64("peak_live_clauses")?.unwrap_or(0),
    })
}

/// Encodes a [`SynthesisReport`].
pub fn report_to_json(report: &SynthesisReport) -> Json {
    Json::obj([
        ("schedule", schedule_to_json(&report.schedule)),
        (
            "app_metrics",
            Json::Arr(report.app_metrics.iter().map(app_metrics_to_json).collect()),
        ),
        (
            "stability_margins",
            Json::Arr(
                report
                    .stability_margins
                    .iter()
                    .map(|&m| Json::Float(m))
                    .collect(),
            ),
        ),
        (
            "stable_applications",
            Json::from(report.stable_applications),
        ),
        (
            "stages",
            Json::Arr(report.stages.iter().map(stage_report_to_json).collect()),
        ),
        ("total_time", duration_to_json(report.total_time)),
    ])
}

/// Decodes a [`SynthesisReport`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn report_from_json(json: &Json) -> Result<SynthesisReport, JsonError> {
    Ok(SynthesisReport {
        schedule: schedule_from_json(json.field("schedule")?)?,
        app_metrics: get_arr(json, "app_metrics")?
            .iter()
            .map(app_metrics_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        stability_margins: get_arr(json, "stability_margins")?
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| bad("margin is not a number")))
            .collect::<Result<Vec<_>, _>>()?,
        stable_applications: get_usize(json, "stable_applications")?,
        stages: get_arr(json, "stages")?
            .iter()
            .map(stage_report_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        total_time: duration_from_json(json.field("total_time")?)?,
    })
}

/// Encodes a [`ControlApplication`].
pub fn application_to_json(app: &ControlApplication) -> Json {
    Json::obj([
        ("name", Json::from(app.name.as_str())),
        ("sensor", Json::from(app.sensor.index())),
        ("controller", Json::from(app.controller.index())),
        ("period", Json::Int(app.period.as_nanos())),
        ("frame_bytes", Json::Int(app.frame_bytes as i64)),
        (
            "stability",
            Json::Arr(
                app.stability
                    .segments()
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("alpha", Json::Float(s.alpha)),
                            ("beta", Json::Float(s.beta)),
                            ("latency_limit", Json::Float(s.latency_limit)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a [`ControlApplication`].
///
/// # Errors
///
/// Returns a [`JsonError`] for malformed members or an invalid stability
/// bound.
pub fn application_from_json(json: &Json) -> Result<ControlApplication, JsonError> {
    let segments = json
        .field("stability")?
        .as_arr()
        .ok_or_else(|| bad("member \"stability\" is not an array"))?
        .iter()
        .map(|s| {
            Ok(StabilitySegment {
                alpha: get_f64(s, "alpha")?,
                beta: get_f64(s, "beta")?,
                latency_limit: get_f64(s, "latency_limit")?,
            })
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    let stability = PiecewiseLinearBound::from_segments(segments)
        .map_err(|e| bad(format!("invalid stability bound: {e}")))?;
    Ok(ControlApplication {
        name: get_str(json, "name")?.to_string(),
        sensor: NodeId::new(
            u32::try_from(get_i64(json, "sensor")?).map_err(|_| bad("invalid sensor index"))?,
        ),
        controller: NodeId::new(
            u32::try_from(get_i64(json, "controller")?)
                .map_err(|_| bad("invalid controller index"))?,
        ),
        period: Time::from_nanos(get_i64(json, "period")?),
        frame_bytes: u32::try_from(get_i64(json, "frame_bytes")?)
            .map_err(|_| bad("invalid frame size"))?,
        stability,
    })
}

/// Encodes a [`RouteStrategy`].
pub fn route_strategy_to_json(strategy: RouteStrategy) -> Json {
    match strategy {
        RouteStrategy::KShortest(k) => {
            Json::obj([("type", Json::from("k_shortest")), ("k", Json::from(k))])
        }
        RouteStrategy::AllSimple {
            max_hops,
            max_routes,
        } => Json::obj([
            ("type", Json::from("all_simple")),
            ("max_hops", Json::from(max_hops)),
            ("max_routes", Json::from(max_routes)),
        ]),
    }
}

/// Decodes a [`RouteStrategy`].
///
/// # Errors
///
/// Returns a [`JsonError`] for unknown strategy types or malformed members.
pub fn route_strategy_from_json(json: &Json) -> Result<RouteStrategy, JsonError> {
    match get_str(json, "type")? {
        "k_shortest" => Ok(RouteStrategy::KShortest(get_usize(json, "k")?)),
        "all_simple" => Ok(RouteStrategy::AllSimple {
            max_hops: get_usize(json, "max_hops")?,
            max_routes: get_usize(json, "max_routes")?,
        }),
        other => Err(bad(format!("unknown route strategy {}", echo(other)))),
    }
}

/// Encodes a [`ConstraintMode`].
pub fn mode_to_json(mode: ConstraintMode) -> Json {
    match mode {
        ConstraintMode::StabilityAware { granularity } => Json::obj([
            ("type", Json::from("stability_aware")),
            ("granularity", time_to_json(granularity)),
        ]),
        ConstraintMode::DeadlineOnly => Json::obj([("type", Json::from("deadline_only"))]),
    }
}

/// Decodes a [`ConstraintMode`].
///
/// # Errors
///
/// Returns a [`JsonError`] for unknown mode types or malformed members.
pub fn mode_from_json(json: &Json) -> Result<ConstraintMode, JsonError> {
    match get_str(json, "type")? {
        "stability_aware" => Ok(ConstraintMode::StabilityAware {
            granularity: time_from_json(json.field("granularity")?)?,
        }),
        "deadline_only" => Ok(ConstraintMode::DeadlineOnly),
        other => Err(bad(format!("unknown constraint mode {}", echo(other)))),
    }
}

/// Encodes a [`SynthesisConfig`].
pub fn config_to_json(config: &SynthesisConfig) -> Json {
    Json::obj([
        (
            "route_strategy",
            route_strategy_to_json(config.route_strategy),
        ),
        ("stages", Json::from(config.stages)),
        ("mode", mode_to_json(config.mode)),
        (
            "max_conflicts_per_stage",
            match config.max_conflicts_per_stage {
                Some(v) => Json::Int(v as i64),
                None => Json::Null,
            },
        ),
        (
            "timeout_per_stage",
            match config.timeout_per_stage {
                Some(d) => duration_to_json(d),
                None => Json::Null,
            },
        ),
        ("verify", Json::Bool(config.verify)),
    ])
}

/// The most incremental-synthesis stages a decoded [`SynthesisConfig`] may
/// ask for. Both synthesizers allocate one slice per stage before solving
/// anything, so an unbounded count from the wire is an allocation the
/// process cannot survive. The paper uses 5 and the Figure 5 sweep at most
/// 14; beyond the message count extra stages are empty anyway.
const MAX_STAGES: usize = 4096;

/// Decodes a [`SynthesisConfig`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member, including
/// a stage count above 4096.
pub fn config_from_json(json: &Json) -> Result<SynthesisConfig, JsonError> {
    // Optional members may be `null` or absent (the two wire layers agree:
    // the service envelopes treat them identically).
    let config = SynthesisConfig {
        route_strategy: route_strategy_from_json(json.field("route_strategy")?)?,
        stages: get_usize(json, "stages")?,
        mode: mode_from_json(json.field("mode")?)?,
        max_conflicts_per_stage: json.opt_u64("max_conflicts_per_stage")?,
        timeout_per_stage: json
            .opt("timeout_per_stage")
            .map(duration_from_json)
            .transpose()?,
        verify: get_bool(json, "verify")?,
    };
    if config.stages > MAX_STAGES {
        return Err(bad(format!(
            "stages {} exceeds the maximum of {MAX_STAGES}",
            config.stages
        )));
    }
    Ok(config)
}

/// Encodes a [`SynthesisProblem`]: topology, forwarding delay and the
/// application list.
pub fn problem_to_json(problem: &SynthesisProblem) -> Json {
    Json::obj([
        (
            "topology",
            tsn_net::wire::topology_to_json(problem.topology()),
        ),
        ("forwarding_delay", time_to_json(problem.forwarding_delay())),
        (
            "applications",
            Json::Arr(
                problem
                    .applications()
                    .iter()
                    .map(application_to_json)
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a [`SynthesisProblem`], re-validating every application against
/// the decoded topology.
///
/// # Errors
///
/// Returns a [`JsonError`] for malformed members, a negative forwarding
/// delay, an invalid topology, or an application the topology rejects (unknown endpoints, wrong node
/// kinds, non-positive period, empty frame).
pub fn problem_from_json(json: &Json) -> Result<SynthesisProblem, JsonError> {
    let topology = tsn_net::wire::topology_from_json(json.field("topology")?)?;
    let forwarding_delay = delay_from_json(json, "forwarding_delay")?;
    let mut problem = SynthesisProblem::new(topology, forwarding_delay);
    for app in get_arr(json, "applications")? {
        let app = application_from_json(app)?;
        problem
            .add_application(
                app.name,
                app.sensor,
                app.controller,
                app.period,
                app.frame_bytes,
                app.stability,
            )
            .map_err(|e| bad(format!("invalid application: {e}")))?;
    }
    Ok(problem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SynthesisConfig, SynthesisProblem, Synthesizer};
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec};

    fn synthesized() -> SynthesisReport {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        for i in 0..2 {
            p.add_application(
                format!("app{i}"),
                net.sensors[i],
                net.controllers[i],
                Time::from_millis(10 * (i as i64 + 1)),
                1500,
                PiecewiseLinearBound::single_segment(2.0, 0.018),
            )
            .unwrap();
        }
        Synthesizer::new(SynthesisConfig::default())
            .synthesize(&p)
            .unwrap()
    }

    #[test]
    fn report_round_trips_through_text() {
        let report = synthesized();
        let json = report_to_json(&report);
        let text = json.to_string();
        let back = report_from_json(&Json::parse(&text).unwrap()).unwrap();
        // Bit-exact: re-encoding the decoded report gives the same document.
        assert_eq!(report_to_json(&back), json);
        assert_eq!(back.schedule.messages.len(), report.schedule.messages.len());
        assert_eq!(back.stable_applications, report.stable_applications);
        assert_eq!(back.total_time, report.total_time);
        for (a, b) in report
            .schedule
            .messages
            .iter()
            .zip(back.schedule.messages.iter())
        {
            assert_eq!(a.route, b.route);
            assert_eq!(a.link_release, b.link_release);
            assert_eq!(a.end_to_end, b.end_to_end);
        }
    }

    #[test]
    fn stage_report_round_trips() {
        let stage = StageReport {
            stage: 3,
            messages: 17,
            solve_time: Duration::new(2, 345_678_901),
            decisions: 123_456,
            conflicts: 789,
            propagations: 9_876_543,
            theory_checks: 54_321,
            restarts: 6,
            theory_scratch_reuses: 40_000,
            deleted_clauses: 512,
            peak_live_clauses: 8_192,
        };
        let text = stage_report_to_json(&stage).to_string();
        let back = stage_report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.stage, stage.stage);
        assert_eq!(back.messages, stage.messages);
        assert_eq!(back.solve_time, stage.solve_time);
        assert_eq!(back.decisions, stage.decisions);
        assert_eq!(back.conflicts, stage.conflicts);
        assert_eq!(back.propagations, stage.propagations);
        assert_eq!(back.theory_checks, stage.theory_checks);
        assert_eq!(back.restarts, stage.restarts);
        assert_eq!(back.theory_scratch_reuses, stage.theory_scratch_reuses);
        assert_eq!(back.deleted_clauses, stage.deleted_clauses);
        assert_eq!(back.peak_live_clauses, stage.peak_live_clauses);
    }

    #[test]
    fn stage_report_decode_defaults_missing_reduction_counters() {
        // Reports persisted before the clause-DB-reduction counters existed
        // must still decode, with the new counters defaulting to zero.
        let stage = StageReport {
            stage: 1,
            messages: 4,
            solve_time: Duration::from_millis(7),
            decisions: 10,
            conflicts: 2,
            propagations: 55,
            theory_checks: 9,
            restarts: 1,
            theory_scratch_reuses: 3,
            deleted_clauses: 4,
            peak_live_clauses: 5,
        };
        let Json::Obj(members) = stage_report_to_json(&stage) else {
            panic!("stage report encodes as an object");
        };
        let trimmed = Json::Obj(
            members
                .into_iter()
                .filter(|(key, _)| {
                    !matches!(
                        key.as_str(),
                        "theory_scratch_reuses" | "deleted_clauses" | "peak_live_clauses"
                    )
                })
                .collect(),
        );
        let back = stage_report_from_json(&trimmed).unwrap();
        assert_eq!(back.decisions, 10);
        assert_eq!(back.theory_scratch_reuses, 0);
        assert_eq!(back.deleted_clauses, 0);
        assert_eq!(back.peak_live_clauses, 0);
    }

    #[test]
    fn problems_and_configs_round_trip() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        for i in 0..3 {
            p.add_application(
                format!("loop \"{i}\"\n"),
                net.sensors[i],
                net.controllers[i],
                Time::from_millis(10 * (i as i64 + 1)),
                1000 + 200 * i as u32,
                PiecewiseLinearBound::single_segment(1.53 + i as f64 * 0.1, 0.02778),
            )
            .unwrap();
        }
        let json = problem_to_json(&p);
        let back = problem_from_json(&Json::parse(&json.to_string()).unwrap()).unwrap();
        assert_eq!(problem_to_json(&back), json);
        assert_eq!(back.applications().len(), 3);
        assert_eq!(back.hyperperiod(), p.hyperperiod());
        assert_eq!(back.message_count(), p.message_count());
        assert_eq!(back.applications()[1].name, "loop \"1\"\n");

        for config in [
            SynthesisConfig::default(),
            SynthesisConfig::automotive(),
            SynthesisConfig {
                route_strategy: crate::RouteStrategy::AllSimple {
                    max_hops: 9,
                    max_routes: 40,
                },
                mode: crate::ConstraintMode::DeadlineOnly,
                max_conflicts_per_stage: Some(12_345),
                timeout_per_stage: Some(Duration::from_millis(750)),
                verify: false,
                stages: 7,
            },
        ] {
            let json = config_to_json(&config);
            let back = config_from_json(&Json::parse(&json.to_string()).unwrap()).unwrap();
            assert_eq!(config_to_json(&back), json);
            assert_eq!(back.stages, config.stages);
            assert_eq!(back.route_strategy, config.route_strategy);
            assert_eq!(back.max_conflicts_per_stage, config.max_conflicts_per_stage);
            assert_eq!(back.timeout_per_stage, config.timeout_per_stage);
        }
    }

    #[test]
    fn optional_config_members_may_be_absent_or_null() {
        // Hand-written clients may omit the optional limits entirely; both
        // spellings must decode to `None`.
        let absent = r#"{"route_strategy": {"type": "k_shortest", "k": 3},
            "stages": 2, "mode": {"type": "deadline_only"}, "verify": true}"#;
        let config = config_from_json(&Json::parse(absent).unwrap()).unwrap();
        assert_eq!(config.max_conflicts_per_stage, None);
        assert_eq!(config.timeout_per_stage, None);
        let nulled = r#"{"route_strategy": {"type": "k_shortest", "k": 3},
            "stages": 2, "mode": {"type": "deadline_only"},
            "max_conflicts_per_stage": null, "timeout_per_stage": null,
            "verify": true}"#;
        let config = config_from_json(&Json::parse(nulled).unwrap()).unwrap();
        assert_eq!(config.max_conflicts_per_stage, None);
        assert_eq!(config.timeout_per_stage, None);
    }

    #[test]
    fn invalid_problems_fail_decoding() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        p.add_application(
            "a",
            net.sensors[0],
            net.controllers[0],
            Time::from_millis(10),
            1500,
            PiecewiseLinearBound::single_segment(2.0, 0.018),
        )
        .unwrap();
        let json = problem_to_json(&p);
        // Point the application at a non-existent sensor.
        let needle = format!("\"sensor\":{}", net.sensors[0].index());
        let text = json.to_string().replace(&needle, "\"sensor\":99");
        assert!(problem_from_json(&Json::parse(&text).unwrap()).is_err());
        // Unknown strategy / mode names are typed errors.
        assert!(route_strategy_from_json(&Json::obj([("type", Json::from("bfs"))])).is_err());
        assert!(mode_from_json(&Json::obj([("type", Json::from("best_effort"))])).is_err());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let report = synthesized();
        let json = report_to_json(&report);
        // Remove a required member.
        if let Json::Obj(mut pairs) = json {
            pairs.retain(|(k, _)| k != "schedule");
            assert!(report_from_json(&Json::Obj(pairs)).is_err());
        } else {
            panic!("report must encode as an object");
        }
        assert!(route_from_json(&Json::obj([
            ("nodes", Json::Arr(vec![Json::Int(0)])),
            ("links", Json::Arr(vec![])),
        ]))
        .is_err());
    }
}
