//! The migration-transparency differential: an engine restored from a
//! [`SessionSnapshot`](tsn_online::SessionSnapshot) mid-trace must be
//! observationally *indistinguishable* from the engine it cloned — every
//! later per-event report byte-identical (decisions, disruption, stability,
//! solver statistics, warmth), not merely equivalent. This is the
//! foundation the sharded service fabric's warm-session migration stands
//! on: `tsn-routerd` drains a shard by exporting each tenant's session and
//! restoring it on the tenant's new home, and the router differential's
//! byte-identity bar only holds if restore is exact at the engine level.

use std::sync::Arc;

use tsn_net::Time;
use tsn_online::wire::{event_report_to_json, session_snapshot_to_json};
use tsn_online::{OnlineConfig, OnlineEngine};
use tsn_telemetry::ManualClock;
use tsn_workload::{event_trace, DynamicScenario, DynamicTopology};

fn manual_engine(network: &tsn_net::builders::BuiltNetwork, config: OnlineConfig) -> OnlineEngine {
    let mut engine = OnlineEngine::new(network.topology.clone(), Time::from_micros(5), config);
    engine.set_clock(Arc::new(ManualClock::new()));
    engine
}

/// Runs the trace straight through on one engine, and split at `cut` on
/// another (prefix → export → restore → suffix), asserting every suffix
/// report serializes to the same bytes and the final committed states
/// match. Returns whether the snapshot was warm (so callers can assert the
/// interesting case was actually covered).
fn assert_migration_transparent(
    scenario: &DynamicScenario,
    config: &OnlineConfig,
    cut: usize,
) -> bool {
    let (network, events) = event_trace(scenario);
    assert!(
        cut < events.len(),
        "cut {cut} beyond the {}-event trace",
        events.len()
    );

    let mut baseline = manual_engine(&network, config.clone());
    let baseline_reports = baseline.run_trace(events.clone());

    let mut donor = manual_engine(&network, config.clone());
    for event in &events[..cut] {
        donor.process(event.clone());
    }
    let snapshot = donor.export_session();
    let warm = snapshot.session.is_some();
    // The snapshot must survive its own wire codec bit-exactly: migration
    // ships it over TCP, so the test goes through the same round trip.
    let line = session_snapshot_to_json(&snapshot).to_string();
    let decoded = tsn_online::wire::session_snapshot_from_json(
        &tsn_net::json::Json::parse(&line).expect("snapshot line parses"),
    )
    .expect("snapshot line decodes");
    let mut restored = OnlineEngine::restore(decoded).expect("snapshot restores");
    restored.set_clock(Arc::new(ManualClock::new()));

    assert_eq!(restored.live_ids(), donor.live_ids());
    assert_eq!(restored.down_links(), donor.down_links());
    assert_eq!(restored.session_clauses(), donor.session_clauses());
    assert_eq!(
        restored.retired_session_clauses(),
        donor.retired_session_clauses()
    );

    for (i, event) in events[cut..].iter().enumerate() {
        let expected = &baseline_reports[cut + i];
        let got = restored.process(event.clone());
        assert_eq!(
            event_report_to_json(&got).to_string(),
            event_report_to_json(expected).to_string(),
            "event {} diverged after restore at cut {cut} (warm: {warm})",
            cut + i
        );
    }

    match (baseline.snapshot(), restored.snapshot()) {
        (None, None) => {}
        (Some((bp, bs)), Some((rp, rs))) => {
            use tsn_synthesis::wire::{problem_to_json, schedule_to_json};
            assert_eq!(
                problem_to_json(&bp).to_string(),
                problem_to_json(&rp).to_string()
            );
            assert_eq!(
                schedule_to_json(&bs).to_string(),
                schedule_to_json(&rs).to_string()
            );
        }
        (b, r) => panic!(
            "final states disagree: baseline live {} vs restored live {}",
            b.is_some(),
            r.is_some()
        ),
    }
    warm
}

#[test]
fn restore_is_byte_transparent_on_figure1() {
    let scenario = DynamicScenario {
        topology: DynamicTopology::Figure1,
        slots: 3,
        events: 45,
        load: 0.8,
        seed: 7,
    };
    let config = OnlineConfig::default();
    let mut warm_cuts = 0usize;
    for cut in [5, 12, 23, 34] {
        if assert_migration_transparent(&scenario, &config, cut) {
            warm_cuts += 1;
        }
    }
    assert!(
        warm_cuts >= 2,
        "too few cuts hit a warm session ({warm_cuts}/4) — the test must \
         exercise the serialized-solver restore, not just cold state"
    );
}

#[test]
fn restore_is_byte_transparent_on_grid_with_link_churn() {
    let scenario = DynamicScenario {
        topology: DynamicTopology::Grid { switches: 6 },
        slots: 5,
        events: 42,
        load: 0.7,
        seed: 3,
    };
    let config = OnlineConfig::default();
    let mut warm_cuts = 0usize;
    for cut in [8, 21, 33] {
        if assert_migration_transparent(&scenario, &config, cut) {
            warm_cuts += 1;
        }
    }
    assert!(warm_cuts >= 1, "no cut hit a warm session");
}

#[test]
fn restore_tracks_garbage_collection_decisions() {
    // An aggressive GC threshold makes session rebuilds frequent; the
    // restored engine must drop and rebuild its session on exactly the same
    // events as the donor (the serialized model carries the donor's real
    // clause count, so the retired-share threshold trips on the same event).
    let scenario = DynamicScenario {
        topology: DynamicTopology::Figure1,
        slots: 3,
        events: 40,
        load: 1.0,
        seed: 11,
    };
    let config = OnlineConfig {
        gc_retired_percent: 10,
        ..OnlineConfig::default()
    };
    for cut in [7, 15, 26] {
        assert_migration_transparent(&scenario, &config, cut);
    }
}

#[test]
fn restore_rejects_inconsistent_snapshots() {
    let scenario = DynamicScenario {
        topology: DynamicTopology::Figure1,
        slots: 3,
        events: 10,
        load: 0.8,
        seed: 7,
    };
    let (network, events) = event_trace(&scenario);
    let mut engine = manual_engine(&network, OnlineConfig::default());
    engine.run_trace(events);
    let good = engine.export_session();
    assert!(OnlineEngine::restore(good.clone()).is_ok());

    let mut bad_link = good.clone();
    bad_link.down.push(tsn_net::LinkId::new(9_999));
    assert!(OnlineEngine::restore(bad_link).is_err(), "bogus down link");

    if good.apps.len() >= 2 {
        let mut bad_sensor = good.clone();
        let stolen = bad_sensor.apps[0].app.sensor;
        bad_sensor.apps[1].app.sensor = stolen;
        assert!(
            OnlineEngine::restore(bad_sensor).is_err(),
            "duplicate sensor"
        );
    }

    let mut bad_app = good;
    if let Some(entry) = bad_app.apps.first_mut() {
        entry.app.controller = tsn_net::NodeId::new(9_999);
        assert!(OnlineEngine::restore(bad_app).is_err(), "bogus endpoint");
    }

    // A batch-processing donor must migrate transparently too.
    let (network, events) = event_trace(&scenario);
    let mut batcher = manual_engine(&network, OnlineConfig::default());
    batcher.process_batch(events);
    let snap = batcher.export_session();
    let restored = OnlineEngine::restore(snap).expect("post-batch snapshot restores");
    assert_eq!(restored.live_ids(), batcher.live_ids());
}

/// Folds `bytes` into the FNV-1a (64-bit) hash state `hash`.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn session_snapshot_bytes_along_a_fixed_trace_are_pinned() {
    // The differentials above compare a donor with its own restore, so they
    // hold even if both drift together. This pin holds the snapshots
    // themselves (clauses in order, learned-clause cache, phases,
    // activities) across commits: a change to how models are built or
    // stored must not move one byte of what a migrating session carries.
    // The trace is the figure1 trace of `online_trace.rs`; the snapshot
    // after every event is hashed, warm or cold.
    let scenario = DynamicScenario {
        topology: DynamicTopology::Figure1,
        slots: 3,
        events: 45,
        load: 0.8,
        seed: 7,
    };
    let (network, events) = event_trace(&scenario);
    let mut engine = manual_engine(&network, OnlineConfig::default());
    let (mut hash, mut bytes, mut warm) = (0xcbf2_9ce4_8422_2325, 0, 0);
    for event in events {
        engine.process(event);
        let snapshot = engine.export_session();
        warm += usize::from(snapshot.session.is_some());
        let line = session_snapshot_to_json(&snapshot).to_string();
        bytes += line.len() + 1;
        hash = fnv1a64(hash, line.as_bytes());
        hash = fnv1a64(hash, b"\n");
    }
    assert!(
        warm >= 20,
        "only {warm} of 45 snapshots carry a warm session"
    );
    assert_eq!(
        (bytes, hash),
        (311_304, 0x09f9_0ab0_6dd6_0029),
        "the snapshot bytes moved: a restored session would no longer match"
    );
}
