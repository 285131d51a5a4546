//! Acceptance tests for the online engine: seeded 40+-event traces on the
//! figure1 and grid topologies, with every post-event state passing the
//! three-way oracle, plus the warm-vs-cold admission differential.

use testkit::{check_trace, warm_cold_differential};
use tsn_net::Time;
use tsn_online::{Decision, NetworkEvent, OnlineConfig, OnlineEngine};
use tsn_sim::{replay_epochs, SimConfig};
use tsn_workload::{event_trace, DynamicScenario, DynamicTopology};

fn engine_for(network: &tsn_net::builders::BuiltNetwork) -> OnlineEngine {
    OnlineEngine::new(
        network.topology.clone(),
        Time::from_micros(5),
        OnlineConfig::default(),
    )
}

#[test]
fn figure1_trace_is_oracle_clean() {
    let scenario = DynamicScenario {
        topology: DynamicTopology::Figure1,
        slots: 3,
        events: 45,
        load: 0.8,
        seed: 7,
    };
    let (network, events) = event_trace(&scenario);
    assert!(events.len() >= 40);
    let mut engine = engine_for(&network);
    let check = check_trace(&mut engine, events).expect("every post-event state must verify");
    assert_eq!(check.summary.events, 45);
    assert!(
        check.summary.admitted >= 5,
        "trace admitted too little: {:?}",
        check.summary
    );
    assert!(
        check.summary.rejected >= 1,
        "doomed admissions must be rejected: {:?}",
        check.summary
    );
    assert!(check.checked_states >= 20, "too few checked states");
}

#[test]
fn grid_trace_is_oracle_clean() {
    let scenario = DynamicScenario {
        topology: DynamicTopology::Grid { switches: 6 },
        slots: 5,
        events: 42,
        load: 0.7,
        seed: 3,
    };
    let (network, events) = event_trace(&scenario);
    assert!(events.len() >= 40);
    let mut engine = engine_for(&network);
    let check = check_trace(&mut engine, events).expect("every post-event state must verify");
    assert!(check.summary.admitted >= 5, "summary: {:?}", check.summary);
    assert!(check.checked_states >= 15);
}

#[test]
fn warm_admission_matches_cold_resynthesis() {
    // Admissions and removals only (link events filtered out): after every
    // incremental admission the cold full solve must agree, while the warm
    // path reschedules strictly fewer existing messages.
    let scenario = DynamicScenario {
        topology: DynamicTopology::Figure1,
        slots: 3,
        events: 40,
        load: 0.8,
        seed: 11,
    };
    let (network, events) = event_trace(&scenario);
    let events: Vec<NetworkEvent> = events
        .into_iter()
        .filter(|e| {
            !matches!(
                e,
                NetworkEvent::LinkDown { .. } | NetworkEvent::LinkUp { .. }
            )
        })
        .collect();
    let mut engine = engine_for(&network);
    let stats = warm_cold_differential(&mut engine, events).expect("warm and cold must agree");
    assert!(
        stats.admissions_checked >= 3,
        "too few incremental admissions were differentially checked: {stats:?}"
    );
    assert_eq!(stats.admissions_checked, stats.cold_confirmed);
}

#[test]
fn link_failure_reroutes_only_affected_loops() {
    // Discover a link used by the first admitted loop, then replay the
    // trace with that link failing: the engine must reroute the affected
    // loop (or evict it) and leave the other loop untouched — check_trace
    // asserts the untouched invariant.
    let scenario = DynamicScenario {
        topology: DynamicTopology::Figure1,
        slots: 3,
        events: 6,
        load: 1.0,
        seed: 5,
    };
    let (network, events) = event_trace(&scenario);
    let admits: Vec<NetworkEvent> = events
        .iter()
        .filter(|e| matches!(e, NetworkEvent::AdmitApp { .. }))
        .take(2)
        .cloned()
        .collect();
    assert_eq!(admits.len(), 2, "trace must open with admissions");

    // Dry run to discover the first loop's route.
    let mut probe = engine_for(&network);
    let dry = probe.run_trace(admits.clone());
    let first_id = match &dry[0].decision {
        Decision::Admitted { app } | Decision::AdmittedFallback { app } => *app,
        other => panic!("first admission failed: {other:?}"),
    };
    let switch_link = probe
        .committed_of(first_id)
        .expect("live")
        .first()
        .expect("has messages")
        .route
        .links()
        .iter()
        .copied()
        .find(|&l| {
            let link = network.topology.link(l);
            network.topology.node(link.source()).kind().is_switch()
                && network.topology.node(link.target()).kind().is_switch()
        });
    let Some(switch_link) = switch_link else {
        // Route has no switch-to-switch hop to fail; nothing to test here.
        return;
    };

    let mut trace = admits;
    trace.push(NetworkEvent::LinkDown { link: switch_link });
    trace.push(NetworkEvent::LinkUp { link: switch_link });
    let mut engine = engine_for(&network);
    let check = check_trace(&mut engine, trace).expect("reroute must stay oracle-clean");
    let reroute = &check.reports[2];
    match &reroute.decision {
        Decision::Rerouted {
            rescheduled,
            evicted,
        } => {
            assert!(
                rescheduled.contains(&first_id) || evicted.contains(&first_id),
                "the loop using the failed link must be rescheduled or evicted"
            );
        }
        other => panic!("expected a reroute decision, got {other:?}"),
    }
    // After the reroute no committed route crosses the failed link.
    for id in engine.live_ids() {
        for m in engine.committed_of(id).expect("live") {
            assert!(
                !m.route.contains_link(switch_link),
                "loop {id} still uses the failed link"
            );
        }
    }
    assert!(matches!(check.reports[3].decision, Decision::LinkRestored));
}

#[test]
fn removal_frees_capacity_and_epochs_replay_cleanly() {
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::builders;
    let network = builders::figure1_example(tsn_net::LinkSpec::fast_ethernet());
    let admits: Vec<NetworkEvent> = (0..2)
        .map(|i| NetworkEvent::AdmitApp {
            app: tsn_synthesis::ControlApplication {
                name: format!("loop-{i}"),
                sensor: network.sensors[i],
                controller: network.controllers[i],
                period: Time::from_millis(10 * (i as i64 + 1)),
                frame_bytes: 1500,
                stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
            },
        })
        .collect();
    let mut engine = engine_for(&network);
    let reports = engine.run_trace(admits);
    let first_id = match &reports[0].decision {
        Decision::Admitted { app } | Decision::AdmittedFallback { app } => *app,
        other => panic!("first admission failed: {other:?}"),
    };
    assert!(
        reports[1].decision.is_admitted(),
        "second admission failed: {:?}",
        reports[1].decision
    );

    // Collect epochs: two loops, then one after removal.
    let mut epochs = Vec::new();
    epochs.push(engine.snapshot().expect("loops live"));
    let removal = engine.process(NetworkEvent::RemoveApp { app: first_id });
    assert!(matches!(removal.decision, Decision::Removed { .. }));
    assert_eq!(removal.rescheduled, 0, "removal must not disturb anyone");
    epochs.push(engine.snapshot().expect("one loop left"));

    // Unknown removals are no-ops.
    let again = engine.process(NetworkEvent::RemoveApp { app: first_id });
    assert!(matches!(again.decision, Decision::UnknownApp { .. }));

    // The evolving schedule replays cleanly across reconfiguration epochs.
    let replay = replay_epochs(
        epochs.iter().map(|(p, s)| (p, s)),
        SimConfig {
            hyperperiods: 2,
            ..SimConfig::default()
        },
    );
    assert!(replay.is_clean(), "replay found violations");
    assert_eq!(replay.epochs.len(), 2);
}

#[test]
fn removal_garbage_collects_the_session() {
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::builders;
    let network = builders::figure1_example(tsn_net::LinkSpec::fast_ethernet());
    let app = |name: String, slot: usize| tsn_synthesis::ControlApplication {
        name,
        sensor: network.sensors[slot],
        controller: network.controllers[slot],
        period: Time::from_millis(10),
        frame_bytes: 1500,
        stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
    };
    let mut engine = engine_for(&network);
    // One long-lived loop keeps the session non-trivial across cycles.
    let anchor = engine.process(NetworkEvent::AdmitApp {
        app: app("anchor".into(), 0),
    });
    assert!(anchor.decision.is_admitted());

    // Churn: admit and remove a second loop N times. Every removal retires
    // its pinned batch; without garbage collection the session would grow by
    // one batch per cycle.
    let mut high_water_after_first_cycle = 0usize;
    for cycle in 0..10 {
        let admitted = engine.process(NetworkEvent::AdmitApp {
            app: app(format!("churn{cycle}"), 1),
        });
        let id = match admitted.decision {
            Decision::Admitted { app } | Decision::AdmittedFallback { app } => app,
            ref other => panic!("cycle {cycle}: admission failed: {other:?}"),
        };
        let removed = engine.process(NetworkEvent::RemoveApp { app: id });
        assert!(matches!(removed.decision, Decision::Removed { .. }));
        if cycle == 0 {
            high_water_after_first_cycle = engine.session_clauses().max(1);
        } else {
            // Bounded: never more than a small constant times the first
            // cycle's footprint, no matter how many cycles have passed.
            assert!(
                engine.session_clauses() <= 3 * high_water_after_first_cycle,
                "cycle {cycle}: session grew to {} clauses \
                 (first cycle left {high_water_after_first_cycle})",
                engine.session_clauses()
            );
        }
        // Retired clauses never dominate the session (the GC invariant).
        assert!(
            engine.retired_session_clauses() * 2 <= engine.session_clauses().max(1),
            "cycle {cycle}: {} retired of {} total",
            engine.retired_session_clauses(),
            engine.session_clauses()
        );
    }
    // The anchor loop is untouched by all that churn.
    assert_eq!(engine.live_ids().len(), 1);
}

#[test]
fn gc_threshold_is_configurable() {
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::builders;
    let network = builders::figure1_example(tsn_net::LinkSpec::fast_ethernet());
    let app = |name: String, slot: usize| tsn_synthesis::ControlApplication {
        name,
        sensor: network.sensors[slot],
        controller: network.controllers[slot],
        period: Time::from_millis(10),
        frame_bytes: 1500,
        stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
    };
    let engine_with_percent = |percent: u32| {
        OnlineEngine::new(
            network.topology.clone(),
            Time::from_micros(5),
            OnlineConfig {
                gc_retired_percent: percent,
                ..OnlineConfig::default()
            },
        )
    };
    let churn = |engine: &mut OnlineEngine, cycles: usize| {
        let anchor = engine.process(NetworkEvent::AdmitApp {
            app: app("anchor".into(), 0),
        });
        assert!(anchor.decision.is_admitted());
        let mut max_retired_ratio = 0.0f64;
        for cycle in 0..cycles {
            let admitted = engine.process(NetworkEvent::AdmitApp {
                app: app(format!("churn{cycle}"), 1),
            });
            let id = match admitted.decision {
                Decision::Admitted { app } | Decision::AdmittedFallback { app } => app,
                ref other => panic!("cycle {cycle}: admission failed: {other:?}"),
            };
            let removed = engine.process(NetworkEvent::RemoveApp { app: id });
            assert!(matches!(removed.decision, Decision::Removed { .. }));
            if engine.session_clauses() > 0 {
                max_retired_ratio = max_retired_ratio
                    .max(engine.retired_session_clauses() as f64 / engine.session_clauses() as f64);
            }
        }
        max_retired_ratio
    };

    // An eager 10% threshold: after every event the retirement share stays
    // at or below 10% (the GC runs as part of the removal), so the maximum
    // observed ratio across the whole churn obeys the configured bound.
    let mut eager = engine_with_percent(10);
    let eager_ratio = churn(&mut eager, 8);
    assert!(
        eager_ratio <= 0.10 + 1e-9,
        "10% threshold violated: retired share reached {eager_ratio:.3}"
    );

    // A permissive threshold (1000%): ratio-triggered GC never fires, so
    // retired clauses accumulate past the default 50% mark — proof that the
    // knob, not a hard-wired ratio, controls collection.
    let mut lazy = engine_with_percent(1000);
    let lazy_ratio = churn(&mut lazy, 8);
    assert!(
        lazy_ratio > 0.5,
        "with a 1000% threshold the retired share should exceed the default \
         50% trigger, got {lazy_ratio:.3}"
    );
    // And the session is still alive (never dropped by the ratio).
    assert!(lazy.session_clauses() > 0);

    // The default configuration matches the documented 50%.
    assert_eq!(OnlineConfig::default().gc_retired_percent, 50);
}

#[test]
fn warm_session_accumulates_and_marks_reports() {
    let scenario = DynamicScenario {
        topology: DynamicTopology::Figure1,
        slots: 3,
        events: 10,
        load: 1.0,
        seed: 9,
    };
    let (network, events) = event_trace(&scenario);
    let admits: Vec<NetworkEvent> = events
        .into_iter()
        .filter(|e| matches!(e, NetworkEvent::AdmitApp { .. }))
        .collect();
    let mut engine = engine_for(&network);
    let reports = engine.run_trace(admits);
    assert!(!reports[0].warm, "the first event starts cold");
    assert!(
        reports.iter().skip(1).all(|r| r.warm),
        "later events must run on the warm session"
    );
    assert!(
        engine.session_clauses() > 0,
        "the session must retain the pinned reservations"
    );
}

/// Folds `bytes` into the FNV-1a (64-bit) hash state `hash`.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn the_benchmark_trace_takes_a_pinned_search() {
    // The `online_churn` benchmark's timed trace (8-switch grid, 10 slots,
    // 110 events, load 0.8, seed 1), replayed on one warm engine. The
    // summed solver decisions and conflicts, the decision sequence and the
    // final session snapshot's wire bytes are pinned: a change to how the
    // solver is built or searches must not move any of them unless it
    // means to.
    let scenario = DynamicScenario {
        topology: DynamicTopology::Grid { switches: 8 },
        slots: 10,
        events: 110,
        load: 0.8,
        seed: 1,
    };
    let (network, events) = event_trace(&scenario);
    let mut engine = engine_for(&network);
    engine.set_clock(std::sync::Arc::new(tsn_telemetry::ManualClock::new()));
    let (mut decisions, mut conflicts, mut sequence) = (0u64, 0u64, 0xcbf2_9ce4_8422_2325);
    for event in events {
        let report = engine.process(event);
        decisions += report.solver_decisions;
        conflicts += report.solver_conflicts;
        sequence = fnv1a64(sequence, format!("{:?}\n", report.decision).as_bytes());
    }
    let line = tsn_online::wire::session_snapshot_to_json(&engine.export_session()).to_string();
    let snapshot = fnv1a64(0xcbf2_9ce4_8422_2325, line.as_bytes());
    assert_eq!(
        (decisions, conflicts),
        (11_819, 580),
        "the online search moved"
    );
    assert_eq!(
        sequence, 0x92ee_0b2d_e9ce_711a,
        "the decision sequence moved"
    );
    assert_eq!(
        (line.len(), snapshot),
        (190_780, 0x2121_6e83_6ad7_1717),
        "the final snapshot moved"
    );
}
