//! Smoke tests for the joint batched reconfiguration path.

use tsn_control::PiecewiseLinearBound;
use tsn_net::{builders, LinkSpec, Time};
use tsn_online::{BatchPolicy, Decision, NetworkEvent, OnlineConfig, OnlineEngine};
use tsn_synthesis::ControlApplication;

fn app(net: &builders::BuiltNetwork, i: usize) -> ControlApplication {
    ControlApplication {
        name: format!("loop-{i}"),
        sensor: net.sensors[i],
        controller: net.controllers[i],
        period: Time::from_millis(10),
        frame_bytes: 1500,
        stability: PiecewiseLinearBound::single_segment(2.0, 0.018),
    }
}

#[test]
fn joint_batch_admits_two_loops_in_one_solve() {
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    let mut engine = OnlineEngine::new(
        net.topology.clone(),
        Time::from_micros(5),
        OnlineConfig::default(),
    );
    let report = engine.process_batch(vec![
        NetworkEvent::AdmitApp { app: app(&net, 0) },
        NetworkEvent::AdmitApp { app: app(&net, 1) },
    ]);
    assert!(
        report.joint,
        "two admissions commit through the joint solve"
    );
    assert_eq!(report.queued_admissions, 2);
    assert_eq!(report.admitted(), 2);
    assert_eq!(engine.live_ids().len(), 2);
    let (problem, schedule) = engine.snapshot().expect("two live loops");
    assert_eq!(schedule.messages.len(), problem.message_count());

    // A batch with a doomed admission (same sensor) still commits jointly.
    let report = engine.process_batch(vec![
        NetworkEvent::AdmitApp { app: app(&net, 0) },
        NetworkEvent::AdmitApp { app: app(&net, 2) },
    ]);
    assert!(report.joint);
    assert_eq!(report.admitted(), 1);
    assert!(matches!(
        report.reports[0].decision,
        Decision::Rejected { .. }
    ));
    assert_eq!(engine.live_ids().len(), 3);
}

#[test]
fn manual_clock_makes_report_latency_deterministic() {
    // The engine measures latency through its injected `Clock`; on a frozen
    // `ManualClock` every latency field is exactly zero — the previously
    // untestable wall-clock durations become assertable values.
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    let mut engine = OnlineEngine::new(
        net.topology.clone(),
        Time::from_micros(5),
        OnlineConfig::default(),
    );
    engine.set_clock(std::sync::Arc::new(tsn_telemetry::ManualClock::new()));
    let report = engine.process(NetworkEvent::AdmitApp { app: app(&net, 0) });
    assert_eq!(report.latency, std::time::Duration::ZERO);
    let batch = engine.process_batch(vec![
        NetworkEvent::AdmitApp { app: app(&net, 1) },
        NetworkEvent::AdmitApp { app: app(&net, 2) },
    ]);
    assert_eq!(batch.latency, std::time::Duration::ZERO);
}

#[test]
fn sequential_policy_is_bit_identical_to_per_event_processing() {
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    let events = vec![
        NetworkEvent::AdmitApp { app: app(&net, 0) },
        NetworkEvent::AdmitApp { app: app(&net, 1) },
        NetworkEvent::RemoveApp {
            app: tsn_online::AppId(0),
        },
    ];
    let mut batched = OnlineEngine::new(
        net.topology.clone(),
        Time::from_micros(5),
        OnlineConfig::default(),
    );
    let mut plain = OnlineEngine::new(
        net.topology.clone(),
        Time::from_micros(5),
        OnlineConfig::default(),
    );
    let report = batched.process_batch_with(events.clone(), BatchPolicy::Sequential);
    let reports = plain.run_trace(events);
    assert!(!report.joint);
    assert_eq!(report.reports.len(), reports.len());
    for (b, p) in report.reports.iter().zip(reports.iter()) {
        assert_eq!(format!("{:?}", b.decision), format!("{:?}", p.decision));
    }
    for id in plain.live_ids() {
        assert_eq!(
            format!("{:?}", batched.committed_of(id)),
            format!("{:?}", plain.committed_of(id))
        );
    }
}

#[test]
fn rejected_batch_leaves_session_clauses_untouched() {
    // Regression: a rejected admission inside a batch must not leak partial
    // pins into the warm session — the joint probe and every sequential
    // retry run in popped solver scopes, so the session clause count after
    // a fully rejected batch equals the count before it.
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    let mut engine = OnlineEngine::new(
        net.topology.clone(),
        Time::from_micros(5),
        OnlineConfig {
            fallback: false,
            ..OnlineConfig::default()
        },
    );
    let admitted = engine.process_batch(vec![
        NetworkEvent::AdmitApp { app: app(&net, 0) },
        NetworkEvent::AdmitApp { app: app(&net, 1) },
    ]);
    assert_eq!(admitted.admitted(), 2);
    let clauses_before = engine.session_clauses();
    assert!(
        clauses_before > 0,
        "the joint admission left a warm session"
    );

    // Two admissions with stability bounds no schedule can satisfy: the
    // joint solve rejects, and so does every sequential retry.
    let impossible = |i: usize| ControlApplication {
        stability: PiecewiseLinearBound::single_segment(2.0, 1e-9),
        ..app(&net, i)
    };
    let rejected = engine.process_batch(vec![NetworkEvent::AdmitApp { app: impossible(2) }]);
    assert_eq!(rejected.admitted(), 0, "{:?}", rejected.reports[0].decision);
    assert!(matches!(
        rejected.reports[0].decision,
        Decision::Rejected { .. }
    ));
    assert_eq!(
        engine.session_clauses(),
        clauses_before,
        "a rejected single-event batch leaked clauses into the session"
    );

    // The same through the multi-event joint path (both doomed): the joint
    // probe pops, the sequential fallback pops per event.
    let rejected = engine.process_batch(vec![
        NetworkEvent::AdmitApp { app: impossible(2) },
        NetworkEvent::AdmitApp {
            app: ControlApplication {
                name: "also-doomed".into(),
                ..impossible(2)
            },
        },
    ]);
    assert!(!rejected.joint, "an infeasible joint batch falls back");
    assert_eq!(rejected.admitted(), 0);
    assert_eq!(
        engine.session_clauses(),
        clauses_before,
        "a rejected multi-event batch leaked clauses into the session"
    );
    assert_eq!(engine.live_ids().len(), 2, "live set unchanged");
}

#[test]
fn a_batch_whose_hyperperiods_have_no_common_multiple_runs_sequentially() {
    // The joint path re-expresses surviving reservations through the lcm
    // of the batch-entry and the new hyper-period, which also counts the
    // periods the batch removes. Here both hyper-periods fit (2.4e18 and
    // 3.2e18 ns) but their lcm (9.6e18 ns) does not, so the batch must fall
    // back to the sequential path, where the hyper-period first shrinks
    // (removal) and then grows (admission) within range.
    const G: i64 = 800_000_000_000_000_000;
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    let with_period = |i: usize, period_ns: i64| ControlApplication {
        period: Time::from_nanos(period_ns),
        ..app(&net, i)
    };
    let mut engine = OnlineEngine::new(
        net.topology.clone(),
        Time::from_micros(5),
        OnlineConfig::default(),
    );
    for (i, period) in [(0, 3 * G), (1, G)] {
        let report = engine.process(NetworkEvent::AdmitApp {
            app: with_period(i, period),
        });
        assert!(
            matches!(report.decision, Decision::Admitted { .. }),
            "{report:?}"
        );
    }
    let first = engine.live_ids()[0];
    let report = engine.process_batch(vec![
        NetworkEvent::RemoveApp { app: first },
        NetworkEvent::AdmitApp {
            app: with_period(2, 4 * G),
        },
    ]);
    assert!(!report.joint, "the joint path must step aside: {report:?}");
    assert!(
        matches!(report.reports[1].decision, Decision::Admitted { .. }),
        "{report:?}"
    );
    assert_eq!(engine.live_ids().len(), 2);
}
