//! Wire format for online events and reports: JSON encoding and decoding.
//!
//! Event traces and per-event reports are the cross-process interface of the
//! online engine — trace generators, replay tooling and future sharded
//! deployments exchange them as text. Like `tsn_synthesis::wire`, this
//! module is the types' only serialization: explicit `to_json`/`from_json`
//! pairs over [`tsn_net::json::Json`].

use tsn_net::json::{Json, JsonError};
use tsn_net::LinkId;
use tsn_synthesis::wire::{
    bad, config_from_json, config_to_json, duration_from_json, duration_to_json, get_bool, get_i64,
    get_str, get_u64, get_usize,
};

// The [`tsn_synthesis::ControlApplication`] codec moved next to the type in
// PR 4 (the synthesis problem codec needs it too); re-exported here because
// event traces were its original home.
pub use tsn_synthesis::wire::{application_from_json, application_to_json};

use crate::{
    AppId, BatchReport, Decision, EventReport, NetworkEvent, OnlineConfig, SessionSnapshot,
    SnapshotApp,
};

fn app_id_from_json(json: &Json, key: &str) -> Result<AppId, JsonError> {
    Ok(AppId(get_u64(json, key)?))
}

fn app_ids_to_json(ids: &[AppId]) -> Json {
    Json::Arr(ids.iter().map(|id| Json::Int(id.0 as i64)).collect())
}

fn app_ids_from_json(json: &Json, key: &str) -> Result<Vec<AppId>, JsonError> {
    json.field(key)?
        .as_arr()
        .ok_or_else(|| bad(format!("member {key:?} is not an array")))?
        .iter()
        .map(|v| {
            v.as_i64()
                .and_then(|i| u64::try_from(i).ok())
                .map(AppId)
                .ok_or_else(|| bad("app id is not a non-negative integer"))
        })
        .collect()
}

/// Encodes an [`OnlineConfig`].
pub fn online_config_to_json(config: &OnlineConfig) -> Json {
    Json::obj([
        ("synthesis", config_to_json(&config.synthesis)),
        ("fallback", Json::Bool(config.fallback)),
        ("route_slack", Json::from(config.route_slack)),
        (
            "max_session_clauses",
            Json::from(config.max_session_clauses),
        ),
        (
            "gc_retired_percent",
            Json::Int(i64::from(config.gc_retired_percent)),
        ),
    ])
}

/// Decodes an [`OnlineConfig`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn online_config_from_json(json: &Json) -> Result<OnlineConfig, JsonError> {
    Ok(OnlineConfig {
        synthesis: config_from_json(json.field("synthesis")?)?,
        fallback: get_bool(json, "fallback")?,
        route_slack: get_usize(json, "route_slack")?,
        max_session_clauses: get_usize(json, "max_session_clauses")?,
        gc_retired_percent: u32::try_from(get_i64(json, "gc_retired_percent")?)
            .map_err(|_| bad("invalid gc_retired_percent"))?,
    })
}

/// Encodes a [`NetworkEvent`].
pub fn event_to_json(event: &NetworkEvent) -> Json {
    match event {
        NetworkEvent::AdmitApp { app } => Json::obj([
            ("type", Json::from("admit_app")),
            ("app", application_to_json(app)),
        ]),
        NetworkEvent::RemoveApp { app } => Json::obj([
            ("type", Json::from("remove_app")),
            ("app", Json::Int(app.0 as i64)),
        ]),
        NetworkEvent::LinkDown { link } => Json::obj([
            ("type", Json::from("link_down")),
            ("link", Json::from(link.index())),
        ]),
        NetworkEvent::LinkUp { link } => Json::obj([
            ("type", Json::from("link_up")),
            ("link", Json::from(link.index())),
        ]),
    }
}

/// Decodes a [`NetworkEvent`].
///
/// # Errors
///
/// Returns a [`JsonError`] for unknown event types or malformed members.
pub fn event_from_json(json: &Json) -> Result<NetworkEvent, JsonError> {
    let link = |json: &Json| -> Result<LinkId, JsonError> {
        Ok(LinkId::new(
            u32::try_from(get_i64(json, "link")?).map_err(|_| bad("invalid link index"))?,
        ))
    };
    match get_str(json, "type")? {
        "admit_app" => Ok(NetworkEvent::AdmitApp {
            app: application_from_json(json.field("app")?)?,
        }),
        "remove_app" => Ok(NetworkEvent::RemoveApp {
            app: app_id_from_json(json, "app")?,
        }),
        "link_down" => Ok(NetworkEvent::LinkDown { link: link(json)? }),
        "link_up" => Ok(NetworkEvent::LinkUp { link: link(json)? }),
        other => Err(bad(format!("unknown event type {other:?}"))),
    }
}

/// Encodes an event trace as a JSON array.
pub fn trace_to_json(events: &[NetworkEvent]) -> Json {
    Json::Arr(events.iter().map(event_to_json).collect())
}

/// Decodes an event trace from a JSON array.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed event.
pub fn trace_from_json(json: &Json) -> Result<Vec<NetworkEvent>, JsonError> {
    json.as_arr()
        .ok_or_else(|| bad("trace is not an array"))?
        .iter()
        .map(event_from_json)
        .collect()
}

/// Encodes a [`Decision`].
pub fn decision_to_json(decision: &Decision) -> Json {
    match decision {
        Decision::Admitted { app } => Json::obj([
            ("type", Json::from("admitted")),
            ("app", Json::Int(app.0 as i64)),
        ]),
        Decision::AdmittedFallback { app } => Json::obj([
            ("type", Json::from("admitted_fallback")),
            ("app", Json::Int(app.0 as i64)),
        ]),
        Decision::Rejected { app, reason } => Json::obj([
            ("type", Json::from("rejected")),
            ("app", Json::Int(app.0 as i64)),
            ("reason", Json::from(reason.as_str())),
        ]),
        Decision::Removed { app } => Json::obj([
            ("type", Json::from("removed")),
            ("app", Json::Int(app.0 as i64)),
        ]),
        Decision::UnknownApp { app } => Json::obj([
            ("type", Json::from("unknown_app")),
            ("app", Json::Int(app.0 as i64)),
        ]),
        Decision::Rerouted {
            rescheduled,
            evicted,
        } => Json::obj([
            ("type", Json::from("rerouted")),
            ("rescheduled", app_ids_to_json(rescheduled)),
            ("evicted", app_ids_to_json(evicted)),
        ]),
        Decision::LinkRestored => Json::obj([("type", Json::from("link_restored"))]),
        Decision::NoOp => Json::obj([("type", Json::from("noop"))]),
    }
}

/// Decodes a [`Decision`].
///
/// # Errors
///
/// Returns a [`JsonError`] for unknown decision types or malformed members.
pub fn decision_from_json(json: &Json) -> Result<Decision, JsonError> {
    match get_str(json, "type")? {
        "admitted" => Ok(Decision::Admitted {
            app: app_id_from_json(json, "app")?,
        }),
        "admitted_fallback" => Ok(Decision::AdmittedFallback {
            app: app_id_from_json(json, "app")?,
        }),
        "rejected" => Ok(Decision::Rejected {
            app: app_id_from_json(json, "app")?,
            reason: get_str(json, "reason")?.to_string(),
        }),
        "removed" => Ok(Decision::Removed {
            app: app_id_from_json(json, "app")?,
        }),
        "unknown_app" => Ok(Decision::UnknownApp {
            app: app_id_from_json(json, "app")?,
        }),
        "rerouted" => Ok(Decision::Rerouted {
            rescheduled: app_ids_from_json(json, "rescheduled")?,
            evicted: app_ids_from_json(json, "evicted")?,
        }),
        "link_restored" => Ok(Decision::LinkRestored),
        "noop" => Ok(Decision::NoOp),
        other => Err(bad(format!("unknown decision type {other:?}"))),
    }
}

/// Encodes an [`EventReport`].
pub fn event_report_to_json(report: &EventReport) -> Json {
    Json::obj([
        ("index", Json::from(report.index)),
        ("event", event_to_json(&report.event)),
        ("decision", decision_to_json(&report.decision)),
        ("latency", duration_to_json(report.latency)),
        ("rescheduled", Json::from(report.rescheduled)),
        ("stable_loops", Json::from(report.stable_loops)),
        ("total_loops", Json::from(report.total_loops)),
        (
            "solver_decisions",
            Json::Int(report.solver_decisions as i64),
        ),
        (
            "solver_conflicts",
            Json::Int(report.solver_conflicts as i64),
        ),
        ("warm", Json::Bool(report.warm)),
    ])
}

/// Decodes an [`EventReport`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn event_report_from_json(json: &Json) -> Result<EventReport, JsonError> {
    Ok(EventReport {
        index: get_usize(json, "index")?,
        event: event_from_json(json.field("event")?)?,
        decision: decision_from_json(json.field("decision")?)?,
        latency: duration_from_json(json.field("latency")?)?,
        rescheduled: get_usize(json, "rescheduled")?,
        stable_loops: get_usize(json, "stable_loops")?,
        total_loops: get_usize(json, "total_loops")?,
        solver_decisions: get_u64(json, "solver_decisions")?,
        solver_conflicts: get_u64(json, "solver_conflicts")?,
        warm: json
            .field("warm")?
            .as_bool()
            .ok_or_else(|| bad("member \"warm\" is not a boolean"))?,
    })
}

/// Encodes a [`BatchReport`].
pub fn batch_report_to_json(report: &BatchReport) -> Json {
    Json::obj([
        (
            "reports",
            Json::Arr(report.reports.iter().map(event_report_to_json).collect()),
        ),
        ("joint", Json::Bool(report.joint)),
        ("affected_loops", Json::from(report.affected_loops)),
        ("queued_admissions", Json::from(report.queued_admissions)),
        ("latency", duration_to_json(report.latency)),
        (
            "solver_decisions",
            Json::Int(report.solver_decisions as i64),
        ),
        (
            "solver_conflicts",
            Json::Int(report.solver_conflicts as i64),
        ),
    ])
}

/// Decodes a [`BatchReport`].
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn batch_report_from_json(json: &Json) -> Result<BatchReport, JsonError> {
    let reports = json
        .field("reports")?
        .as_arr()
        .ok_or_else(|| bad("member \"reports\" is not an array"))?
        .iter()
        .map(event_report_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(BatchReport {
        reports,
        joint: get_bool(json, "joint")?,
        affected_loops: get_usize(json, "affected_loops")?,
        queued_admissions: get_usize(json, "queued_admissions")?,
        latency: duration_from_json(json.field("latency")?)?,
        solver_decisions: get_u64(json, "solver_decisions")?,
        solver_conflicts: get_u64(json, "solver_conflicts")?,
    })
}

fn snapshot_app_to_json(app: &SnapshotApp) -> Json {
    Json::obj([
        ("id", Json::Int(app.id.0 as i64)),
        ("app", application_to_json(&app.app)),
        (
            "committed",
            Json::Arr(
                app.committed
                    .iter()
                    .map(tsn_synthesis::wire::message_schedule_to_json)
                    .collect(),
            ),
        ),
        ("session_clauses", Json::from(app.session_clauses)),
    ])
}

fn snapshot_app_from_json(json: &Json) -> Result<SnapshotApp, JsonError> {
    Ok(SnapshotApp {
        id: app_id_from_json(json, "id")?,
        app: application_from_json(json.field("app")?)?,
        committed: json
            .field("committed")?
            .as_arr()
            .ok_or_else(|| bad("member \"committed\" is not an array"))?
            .iter()
            .map(tsn_synthesis::wire::message_schedule_from_json)
            .collect::<Result<Vec<_>, _>>()?,
        session_clauses: match json.field("session_clauses") {
            Ok(v) => v
                .as_i64()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| bad("invalid session_clauses"))?,
            Err(_) => 0,
        },
    })
}

fn model_state_to_json(state: &tsn_smt::ModelState) -> Json {
    let lit_arr = |clauses: &[Vec<u32>]| {
        Json::Arr(
            clauses
                .iter()
                .map(|c| Json::Arr(c.iter().map(|&l| Json::from(l as usize)).collect()))
                .collect(),
        )
    };
    let mut members = vec![
        ("bools".to_string(), Json::from(state.bools)),
        ("ints".to_string(), Json::from(state.ints)),
    ];
    if let Some(zero) = state.zero {
        members.push(("zero".to_string(), Json::from(zero as usize)));
    }
    members.extend([
        (
            "atoms".to_string(),
            Json::Arr(
                state
                    .atoms
                    .iter()
                    .map(|&(x, y, k)| {
                        Json::Arr(vec![
                            Json::from(x as usize),
                            Json::from(y as usize),
                            Json::Int(k),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "atom_proxy".to_string(),
            Json::Arr(
                state
                    .atom_proxy
                    .iter()
                    .map(|&p| Json::from(p as usize))
                    .collect(),
            ),
        ),
        ("clauses".to_string(), lit_arr(&state.clauses)),
        ("learned".to_string(), lit_arr(&state.learned)),
        (
            "phase".to_string(),
            Json::Arr(
                state
                    .phase
                    .iter()
                    .map(|&p| Json::Int(i64::from(p)))
                    .collect(),
            ),
        ),
        (
            "activity".to_string(),
            Json::Arr(state.activity.iter().map(|&a| Json::Float(a)).collect()),
        ),
        ("var_inc".to_string(), Json::Float(state.var_inc)),
        ("warm_start".to_string(), Json::Bool(state.warm_start)),
    ]);
    Json::Obj(members)
}

fn model_state_from_json(json: &Json) -> Result<tsn_smt::ModelState, JsonError> {
    let usize_of = |v: &Json, what: &str| -> Result<usize, JsonError> {
        v.as_i64()
            .and_then(|i| usize::try_from(i).ok())
            .ok_or_else(|| bad(format!("invalid {what}")))
    };
    let u32_of = |v: &Json, what: &str| -> Result<u32, JsonError> {
        v.as_i64()
            .and_then(|i| u32::try_from(i).ok())
            .ok_or_else(|| bad(format!("invalid {what}")))
    };
    let u32_list = |key: &str| -> Result<Vec<u32>, JsonError> {
        json.field(key)?
            .as_arr()
            .ok_or_else(|| bad(format!("member \"{key}\" is not an array")))?
            .iter()
            .map(|v| u32_of(v, key))
            .collect()
    };
    let clause_list = |key: &str| -> Result<Vec<Vec<u32>>, JsonError> {
        json.field(key)?
            .as_arr()
            .ok_or_else(|| bad(format!("member \"{key}\" is not an array")))?
            .iter()
            .map(|c| {
                c.as_arr()
                    .ok_or_else(|| bad(format!("clause in \"{key}\" is not an array")))?
                    .iter()
                    .map(|l| u32_of(l, "literal code"))
                    .collect()
            })
            .collect()
    };
    let atoms = json
        .field("atoms")?
        .as_arr()
        .ok_or_else(|| bad("member \"atoms\" is not an array"))?
        .iter()
        .map(|a| {
            let triple = a
                .as_arr()
                .filter(|t| t.len() == 3)
                .ok_or_else(|| bad("atom is not an [x, y, k] triple"))?;
            Ok((
                u32_of(&triple[0], "atom x")?,
                u32_of(&triple[1], "atom y")?,
                triple[2].as_i64().ok_or_else(|| bad("invalid atom k"))?,
            ))
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    let phase = json
        .field("phase")?
        .as_arr()
        .ok_or_else(|| bad("member \"phase\" is not an array"))?
        .iter()
        .map(|p| match p.as_i64() {
            Some(0) => Ok(false),
            Some(1) => Ok(true),
            _ => Err(bad("phase entry is not 0 or 1")),
        })
        .collect::<Result<Vec<_>, JsonError>>()?;
    let activity = json
        .field("activity")?
        .as_arr()
        .ok_or_else(|| bad("member \"activity\" is not an array"))?
        .iter()
        .map(|a| a.as_f64().ok_or_else(|| bad("invalid activity")))
        .collect::<Result<Vec<_>, JsonError>>()?;
    let zero = match json.field("zero") {
        Ok(v) => Some(u32_of(v, "zero")?),
        Err(_) => None,
    };
    Ok(tsn_smt::ModelState {
        bools: usize_of(json.field("bools")?, "bools")?,
        ints: usize_of(json.field("ints")?, "ints")?,
        zero,
        atoms,
        atom_proxy: u32_list("atom_proxy")?,
        clauses: clause_list("clauses")?,
        learned: clause_list("learned")?,
        phase,
        activity,
        var_inc: json
            .field("var_inc")?
            .as_f64()
            .ok_or_else(|| bad("invalid var_inc"))?,
        warm_start: match json.field("warm_start") {
            Ok(v) => v
                .as_bool()
                .ok_or_else(|| bad("member \"warm_start\" is not a boolean"))?,
            Err(_) => true,
        },
    })
}

/// Encodes a [`SessionSnapshot`] — the unit of warm-session migration
/// between daemon shards.
pub fn session_snapshot_to_json(snapshot: &SessionSnapshot) -> Json {
    let mut json = Json::obj([
        (
            "topology",
            tsn_net::wire::topology_to_json(&snapshot.topology),
        ),
        (
            "forwarding_delay",
            tsn_net::wire::time_to_json(snapshot.forwarding_delay),
        ),
        ("config", online_config_to_json(&snapshot.config)),
        (
            "apps",
            Json::Arr(snapshot.apps.iter().map(snapshot_app_to_json).collect()),
        ),
        (
            "down",
            Json::Arr(
                snapshot
                    .down
                    .iter()
                    .map(|l| Json::from(l.index()))
                    .collect(),
            ),
        ),
        ("next_id", Json::Int(snapshot.next_id as i64)),
        ("events_processed", Json::from(snapshot.events_processed)),
        ("retired_clauses", Json::from(snapshot.retired_clauses)),
    ]);
    if let Some(state) = &snapshot.session {
        let Json::Obj(members) = &mut json else {
            unreachable!("Json::obj builds an object")
        };
        members.push(("session".to_string(), model_state_to_json(state)));
    }
    json
}

/// Decodes a [`SessionSnapshot`].
///
/// `topology`, `forwarding_delay`, `config` and `apps` are required; the
/// bookkeeping members default when absent (`down` to none, `session` to a
/// cold engine, the retired-clause counter to zero, `next_id` to one past
/// the largest app id, `events_processed` to zero) so snapshots from older
/// peers decode.
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed member.
pub fn session_snapshot_from_json(json: &Json) -> Result<SessionSnapshot, JsonError> {
    let apps = json
        .field("apps")?
        .as_arr()
        .ok_or_else(|| bad("member \"apps\" is not an array"))?
        .iter()
        .map(snapshot_app_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let optional_usize = |key: &str| -> Result<usize, JsonError> {
        match json.field(key) {
            Ok(v) => v
                .as_i64()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| bad(format!("invalid {key}"))),
            Err(_) => Ok(0),
        }
    };
    let down = match json.field("down") {
        Ok(v) => v
            .as_arr()
            .ok_or_else(|| bad("member \"down\" is not an array"))?
            .iter()
            .map(|l| {
                l.as_i64()
                    .and_then(|i| u32::try_from(i).ok())
                    .map(LinkId::new)
                    .ok_or_else(|| bad("invalid down link index"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Err(_) => Vec::new(),
    };
    let next_id = match json.field("next_id") {
        Ok(v) => v
            .as_i64()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| bad("invalid next_id"))?,
        Err(_) => apps.iter().map(|a| a.id.0 + 1).max().unwrap_or(0),
    };
    let session = match json.field("session") {
        Ok(v) => Some(model_state_from_json(v)?),
        Err(_) => None,
    };
    Ok(SessionSnapshot {
        topology: tsn_net::wire::topology_from_json(json.field("topology")?)?,
        forwarding_delay: tsn_net::wire::delay_from_json(json, "forwarding_delay")?,
        config: online_config_from_json(json.field("config")?)?,
        apps,
        down,
        next_id,
        events_processed: optional_usize("events_processed")?,
        retired_clauses: optional_usize("retired_clauses")?,
        session,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{NodeId, Time};
    use tsn_synthesis::ControlApplication;

    fn sample_app(i: u32) -> ControlApplication {
        ControlApplication {
            name: format!("loop-{i}"),
            sensor: NodeId::new(8 + i),
            controller: NodeId::new(11 + i),
            period: Time::from_millis(20),
            frame_bytes: 1500,
            stability: PiecewiseLinearBound::single_segment(1.53, 0.02778),
        }
    }

    #[test]
    fn events_round_trip() {
        let events = vec![
            NetworkEvent::AdmitApp { app: sample_app(0) },
            NetworkEvent::RemoveApp { app: AppId(3) },
            NetworkEvent::LinkDown {
                link: LinkId::new(7),
            },
            NetworkEvent::LinkUp {
                link: LinkId::new(7),
            },
        ];
        let text = trace_to_json(&events).to_string();
        let back = trace_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(trace_to_json(&back), trace_to_json(&events));
        assert_eq!(back.len(), 4);
        match &back[0] {
            NetworkEvent::AdmitApp { app } => {
                assert_eq!(app.name, "loop-0");
                assert_eq!(app.period, Time::from_millis(20));
                assert_eq!(app.stability.segments().len(), 1);
            }
            other => panic!("wrong event decoded: {other:?}"),
        }
    }

    #[test]
    fn decisions_round_trip() {
        let decisions = vec![
            Decision::Admitted { app: AppId(1) },
            Decision::AdmittedFallback { app: AppId(2) },
            Decision::Rejected {
                app: AppId(3),
                reason: "no \"route\"".into(),
            },
            Decision::Removed { app: AppId(4) },
            Decision::UnknownApp { app: AppId(5) },
            Decision::Rerouted {
                rescheduled: vec![AppId(1), AppId(2)],
                evicted: vec![AppId(9)],
            },
            Decision::LinkRestored,
            Decision::NoOp,
        ];
        for d in &decisions {
            let text = decision_to_json(d).to_string();
            let back = decision_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(decision_to_json(&back), decision_to_json(d));
        }
    }

    #[test]
    fn event_reports_round_trip() {
        let report = EventReport {
            index: 12,
            event: NetworkEvent::AdmitApp { app: sample_app(1) },
            decision: Decision::Admitted { app: AppId(12) },
            latency: Duration::new(0, 345_678),
            rescheduled: 0,
            stable_loops: 4,
            total_loops: 4,
            solver_decisions: 987,
            solver_conflicts: 65,
            warm: true,
        };
        let text = event_report_to_json(&report).to_string();
        let back = event_report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(event_report_to_json(&back), event_report_to_json(&report));
        assert_eq!(back.latency, report.latency);
        assert!(back.warm);
    }

    #[test]
    fn batch_reports_round_trip() {
        let report = BatchReport {
            reports: vec![
                EventReport {
                    index: 3,
                    event: NetworkEvent::LinkDown {
                        link: LinkId::new(4),
                    },
                    decision: Decision::Rerouted {
                        rescheduled: vec![AppId(0), AppId(2)],
                        evicted: vec![],
                    },
                    latency: Duration::from_micros(5),
                    rescheduled: 6,
                    stable_loops: 3,
                    total_loops: 3,
                    solver_decisions: 0,
                    solver_conflicts: 0,
                    warm: true,
                },
                EventReport {
                    index: 4,
                    event: NetworkEvent::AdmitApp { app: sample_app(2) },
                    decision: Decision::Admitted { app: AppId(5) },
                    latency: Duration::from_micros(5),
                    rescheduled: 0,
                    stable_loops: 3,
                    total_loops: 3,
                    solver_decisions: 0,
                    solver_conflicts: 0,
                    warm: true,
                },
            ],
            joint: true,
            affected_loops: 2,
            queued_admissions: 1,
            latency: Duration::new(0, 123_456),
            solver_decisions: 321,
            solver_conflicts: 12,
        };
        let text = batch_report_to_json(&report).to_string();
        let back = batch_report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(batch_report_to_json(&back), batch_report_to_json(&report));
        assert!(back.joint);
        assert_eq!(back.reports.len(), 2);
        assert_eq!(back.evicted(), Vec::<AppId>::new());
        assert_eq!(back.admitted(), 1);
        assert!(batch_report_from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(batch_report_from_json(
            &Json::parse(r#"{"reports": 3, "joint": true, "affected_loops": 0, "queued_admissions": 0, "latency": {"secs": 0, "nanos": 0}, "solver_decisions": 0, "solver_conflicts": 0}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn unknown_types_are_rejected() {
        let doc = Json::parse(r#"{"type": "frobnicate"}"#).unwrap();
        assert!(event_from_json(&doc).is_err());
        assert!(decision_from_json(&doc).is_err());
    }

    fn sample_snapshot() -> SessionSnapshot {
        use crate::{NetworkEvent, OnlineEngine};
        let net = tsn_net::builders::figure1_example(tsn_net::LinkSpec::fast_ethernet());
        let mut engine = OnlineEngine::new(
            net.topology.clone(),
            Time::from_micros(5),
            OnlineConfig::default(),
        );
        for i in 0..2 {
            let report = engine.process(NetworkEvent::AdmitApp {
                app: ControlApplication {
                    name: format!("loop-{i}"),
                    sensor: net.sensors[i],
                    controller: net.controllers[i],
                    period: Time::from_millis(10),
                    frame_bytes: 1500,
                    stability: PiecewiseLinearBound::single_segment(2.0, 0.015),
                },
            });
            assert!(report.decision.is_admitted());
        }
        engine.export_session()
    }

    #[test]
    fn session_snapshots_round_trip_bit_exactly() {
        let snapshot = sample_snapshot();
        let state = snapshot
            .session
            .as_ref()
            .expect("two admissions leave a warm session");
        assert!(!state.clauses.is_empty());
        assert_eq!(snapshot.apps.len(), 2);
        let text = session_snapshot_to_json(&snapshot).to_string();
        let back = session_snapshot_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(
            session_snapshot_to_json(&back).to_string(),
            text,
            "snapshot codec must be bit-exact"
        );
        assert_eq!(back.apps.len(), 2);
        assert_eq!(back.next_id, snapshot.next_id);
        let back_state = back.session.as_ref().expect("session survives the codec");
        assert_eq!(back_state.clauses, state.clauses);
        assert_eq!(back_state.learned, state.learned);
        assert_eq!(back_state.phase, state.phase);
        assert_eq!(back_state.activity, state.activity, "f64 must round-trip");
        assert_eq!(back_state.var_inc, state.var_inc);
        // A decoded snapshot restores into a working engine.
        let restored = crate::OnlineEngine::restore(back).unwrap();
        assert_eq!(restored.live_ids(), vec![AppId(0), AppId(1)]);
    }

    #[test]
    fn session_snapshot_missing_members_take_defaults() {
        let snapshot = sample_snapshot();
        let full = session_snapshot_to_json(&snapshot);
        // Keep only the required members; everything else must default.
        let required = ["topology", "forwarding_delay", "config", "apps"];
        let Json::Obj(members) = &full else {
            panic!("snapshot encodes as an object");
        };
        let trimmed = Json::Obj(
            members
                .iter()
                .filter(|(k, _)| required.contains(&k.as_str()))
                .cloned()
                .collect(),
        );
        let back = session_snapshot_from_json(&trimmed).unwrap();
        assert_eq!(back.down, Vec::<LinkId>::new());
        assert_eq!(back.events_processed, 0);
        assert_eq!(back.retired_clauses, 0);
        assert!(back.session.is_none(), "session defaults to cold");
        assert_eq!(
            back.next_id, 2,
            "next_id defaults to one past the largest app id"
        );
        assert_eq!(back.apps.len(), 2);
        // Each required member really is required.
        for key in required {
            let partial = Json::Obj(members.iter().filter(|(k, _)| k != key).cloned().collect());
            assert!(
                session_snapshot_from_json(&partial).is_err(),
                "member {key:?} must be required"
            );
        }
        assert!(session_snapshot_from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(session_snapshot_from_json(&Json::parse("[]").unwrap()).is_err());
    }

    #[test]
    fn online_configs_round_trip() {
        let config = OnlineConfig {
            fallback: false,
            route_slack: 7,
            max_session_clauses: 1234,
            gc_retired_percent: 20,
            ..OnlineConfig::default()
        };
        let text = online_config_to_json(&config).to_string();
        let back = online_config_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(online_config_to_json(&back), online_config_to_json(&config));
        assert!(!back.fallback);
        assert_eq!(back.route_slack, 7);
        assert_eq!(back.max_session_clauses, 1234);
        assert_eq!(back.gc_retired_percent, 20);
        assert!(online_config_from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
