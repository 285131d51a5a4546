//! Acceptance tests for the partitioned parallel synthesizer on generated
//! large-scale instances (debug-sized here; the 500-stream flagship runs in
//! the release-mode heavy suite via `testkit`).

use std::time::Duration;

use tsn_control::PiecewiseLinearBound;
use tsn_net::{LinkSpec, NodeKind, Time, Topology};
use tsn_scale::{ScaleConfig, ScaleSynthesizer, SynthesisStrategy};
use tsn_synthesis::{ConstraintMode, Schedule, SynthesisConfig, SynthesisProblem};
use tsn_workload::{large_scale_problem, LargeScaleScenario, LargeTopology};

fn config(target: usize, threads: usize) -> ScaleConfig {
    ScaleConfig {
        synthesis: SynthesisConfig {
            timeout_per_stage: Some(Duration::from_secs(30)),
            ..ScaleConfig::default().synthesis
        },
        target_apps_per_partition: target,
        threads,
        ..ScaleConfig::default()
    }
}

/// One message's identity plus its exact per-link release times.
type MessageTimes = (usize, usize, Vec<(u32, i64)>);

fn schedule_fingerprint(schedule: &Schedule) -> Vec<MessageTimes> {
    schedule
        .messages
        .iter()
        .map(|m| {
            (
                m.message.app,
                m.message.instance,
                m.link_release
                    .iter()
                    .map(|&(l, t)| (l.index() as u32, t.as_nanos()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn partitioned_solve_is_verified_and_splits_work() {
    let scenario = LargeScaleScenario {
        topology: LargeTopology::FatTree,
        switches: 20,
        streams: 24,
        seed: 5,
        fast_stream_percent: 20,
    };
    let problem = large_scale_problem(&scenario).unwrap();
    let report = ScaleSynthesizer::new(config(4, 0))
        .synthesize(&problem)
        .expect("instance must be schedulable");
    assert!(!report.monolithic_fallback, "partitioned path must succeed");
    assert!(report.partitions.len() >= 6, "24 apps at target 4");
    assert_eq!(
        report.report.schedule.messages.len(),
        problem.message_count()
    );
    assert!(report.all_stable());
    // Per-partition stats are populated and the partition apps sum up.
    assert_eq!(
        report.partitions.iter().map(|p| p.apps).sum::<usize>(),
        problem.applications().len()
    );
    assert!(report.partitions.iter().all(|p| p.totals.theory_checks > 0));
    // Stage reports cover partitions plus any repair solves, renumbered.
    for (i, stage) in report.report.stages.iter().enumerate() {
        assert_eq!(stage.stage, i);
    }
}

#[test]
fn thread_count_does_not_change_the_schedule() {
    let scenario = LargeScaleScenario {
        topology: LargeTopology::Grid,
        switches: 16,
        streams: 16,
        seed: 9,
        fast_stream_percent: 25,
    };
    let problem = large_scale_problem(&scenario).unwrap();
    let one = ScaleSynthesizer::new(config(4, 1))
        .synthesize(&problem)
        .expect("solvable with one thread");
    let four = ScaleSynthesizer::new(config(4, 4))
        .synthesize(&problem)
        .expect("solvable with four threads");
    let eight = ScaleSynthesizer::new(config(4, 8))
        .synthesize(&problem)
        .expect("solvable with eight threads");
    let fp = schedule_fingerprint(&one.report.schedule);
    assert_eq!(fp, schedule_fingerprint(&four.report.schedule));
    assert_eq!(fp, schedule_fingerprint(&eight.report.schedule));
    // The plan itself is identical too.
    assert_eq!(one.cut_edges, four.cut_edges);
    assert_eq!(one.partitions.len(), four.partitions.len());
}

#[test]
fn same_seed_reproduces_bit_identical_schedules() {
    let scenario = LargeScaleScenario {
        topology: LargeTopology::Ring,
        switches: 12,
        streams: 12,
        seed: 3,
        fast_stream_percent: 0,
    };
    let problem_a = large_scale_problem(&scenario).unwrap();
    let problem_b = large_scale_problem(&scenario).unwrap();
    let a = ScaleSynthesizer::new(config(3, 2))
        .synthesize(&problem_a)
        .expect("solvable");
    let b = ScaleSynthesizer::new(config(3, 2))
        .synthesize(&problem_b)
        .expect("solvable");
    assert_eq!(
        schedule_fingerprint(&a.report.schedule),
        schedule_fingerprint(&b.report.schedule)
    );
}

#[test]
fn repair_handles_contended_rings() {
    // A small ring with many streams forces heavy cross-partition
    // contention: the repair loop (or, at worst, the monolithic fallback)
    // must still deliver a verified schedule.
    let scenario = LargeScaleScenario {
        topology: LargeTopology::Ring,
        switches: 8,
        streams: 10,
        seed: 21,
        fast_stream_percent: 0,
    };
    let problem = large_scale_problem(&scenario).unwrap();
    let report = ScaleSynthesizer::new(config(2, 0))
        .synthesize(&problem)
        .expect("instance must be schedulable");
    assert_eq!(
        report.report.schedule.messages.len(),
        problem.message_count()
    );
    if !report.monolithic_fallback {
        // When repair ran, its rounds must be recorded consistently. A
        // round may legitimately resolve nothing singly and fix everything
        // via the joint escalation, but never neither.
        for repair in &report.repairs {
            assert!(repair.resolved_apps + repair.escalated_apps >= 1);
            assert!(repair.conflict_pairs >= 1);
        }
    }
}

fn heuristic_first(config: ScaleConfig) -> ScaleConfig {
    ScaleConfig {
        strategy: SynthesisStrategy::HeuristicFirst,
        fallback_monolithic: false,
        ..config
    }
}

#[test]
fn thread_count_does_not_change_the_heuristic_first_schedule() {
    let scenario = LargeScaleScenario {
        topology: LargeTopology::FatTree,
        switches: 20,
        streams: 40,
        seed: 7,
        fast_stream_percent: 20,
    };
    let problem = large_scale_problem(&scenario).unwrap();
    let solve = |threads| {
        ScaleSynthesizer::new(heuristic_first(config(4, threads)))
            .synthesize(&problem)
            .expect("placeable")
    };
    let one = solve(1);
    assert!(one.heuristic.placed_apps > 0);
    for threads in [2, 4] {
        let other = solve(threads);
        assert_eq!(
            schedule_fingerprint(&one.report.schedule),
            schedule_fingerprint(&other.report.schedule),
            "{threads} threads"
        );
        assert_eq!(one.heuristic, other.heuristic);
        assert_eq!(one.partitions.len(), other.partitions.len());
    }
}

#[test]
fn shared_table_places_a_flagship_shaped_instance_without_the_solver() {
    // The 500-stream flagship in small: with one table for the whole problem
    // first-fit leaves no conflict to repair and nothing for the solver.
    let scenario = LargeScaleScenario {
        topology: LargeTopology::FatTree,
        switches: 32,
        streams: 60,
        seed: 1,
        fast_stream_percent: 12,
    };
    let problem = large_scale_problem(&scenario).unwrap();
    let report = ScaleSynthesizer::new(heuristic_first(ScaleConfig::default()))
        .synthesize(&problem)
        .expect("placeable");
    let apps = problem.applications().len();
    assert_eq!(report.strategy, SynthesisStrategy::HeuristicFirst);
    assert!(report.repairs.is_empty());
    assert_eq!(report.heuristic.placed_apps, apps);
    assert_eq!(report.heuristic.repaired_apps, 0);
    assert_eq!(report.heuristic.fallback_partitions, 0);
    let decisions: u64 = report.report.stages.iter().map(|s| s.decisions).sum();
    assert_eq!(decisions, 0, "the solver ran");
    assert!(report.all_stable());
    assert_eq!(
        report.partitions.iter().map(|p| p.apps).sum::<usize>(),
        apps
    );
    assert_eq!(
        report
            .partitions
            .iter()
            .map(|p| p.totals.messages)
            .sum::<usize>(),
        problem.message_count()
    );
}

/// Two sensors behind one switch report to one controller over the switch's
/// single link to it, with 1500-byte frames on fast Ethernet: one route
/// each, 120 us per hop, 5 us forwarding — 245 us end to end undisturbed.
/// Both frames reach the switch at the same instant, so whoever is placed
/// second on the shared link waits one transmission (120 us) longer.
/// Application 0 tolerates that easily; application 1 gets `tight`.
fn shared_egress_problem(periods_ms: [i64; 2], tight: PiecewiseLinearBound) -> SynthesisProblem {
    let spec = LinkSpec::fast_ethernet();
    let mut topology = Topology::new();
    let switch = topology.add_node("SW", NodeKind::Switch);
    let controller = topology.add_node("C", NodeKind::Controller);
    topology.connect(switch, controller, spec).unwrap();
    let sensors = ["S0", "S1"].map(|name| {
        let sensor = topology.add_node(name, NodeKind::Sensor);
        topology.connect(sensor, switch, spec).unwrap();
        sensor
    });
    let mut problem = SynthesisProblem::new(topology, Time::from_micros(5));
    let bounds = [PiecewiseLinearBound::single_segment(2.0, 0.002), tight];
    for (i, bound) in bounds.into_iter().enumerate() {
        problem
            .add_application(
                format!("loop-{i}"),
                sensors[i],
                controller,
                Time::from_millis(periods_ms[i]),
                1500,
                bound,
            )
            .unwrap();
    }
    problem
}

/// A fine stability grid: the hand-built margins below are tens of
/// microseconds, far inside one cell of the default 1 ms grid.
fn fine_grid(target: usize) -> ScaleConfig {
    let mut config = config(target, 1);
    config.synthesis.mode = ConstraintMode::StabilityAware {
        granularity: Time::from_micros(10),
    };
    config
}

#[test]
fn an_application_first_fit_cannot_place_is_repaired_by_the_solver() {
    // Application 1 runs at twice the rate of application 0, so only every
    // other of its frames meets application 0 on the shared link. First-fit
    // moves all instances by the same 120 us: latency 365 us, no jitter, and
    // 365 > 350. The solver may delay the blocked instance alone: latency
    // 245 us, jitter 120 us, and 245 + 0.5 * 120 = 305 <= 350.
    let problem = shared_egress_problem(
        [20, 10],
        PiecewiseLinearBound::single_segment(0.5, 0.000_350),
    );
    let report = ScaleSynthesizer::new(heuristic_first(fine_grid(16)))
        .synthesize(&problem)
        .expect("the residue is repairable");
    assert_eq!(report.heuristic.placed_apps, 1);
    assert_eq!(report.heuristic.repaired_apps, 1);
    assert_eq!(report.heuristic.fallback_partitions, 0);
    assert!(report.repairs.is_empty(), "no merge, no conflict round");
    assert!(report.all_stable());
    let metrics = &report.report.app_metrics;
    assert_eq!(metrics[0].jitter, Time::ZERO, "placed first-fit");
    assert!(metrics[1].max_end_to_end >= Time::from_micros(365));
    assert!(
        metrics[1].jitter > Time::ZERO,
        "the free instance does not wait with the blocked one"
    );
    // The repair is the one stage with solver work in it.
    let solved: Vec<usize> = report
        .report
        .stages
        .iter()
        .filter(|s| s.theory_checks > 0)
        .map(|s| s.messages)
        .collect();
    assert_eq!(solved, vec![2], "both instances of application 1");
}

#[test]
fn an_unrepairable_residue_falls_back_to_the_whole_smt_only_pipeline() {
    // Same rate now, one instance each: application 1 (245 us undisturbed,
    // bound 300 us) cannot wait at all, but first-fit has already given the
    // shared link to application 0 and the repair may not move a pinned
    // placement. Only a solve that still owns both can send application 1
    // first: the SMT-only pipeline.
    let problem = shared_egress_problem(
        [10, 10],
        PiecewiseLinearBound::single_segment(1.0, 0.000_300),
    );
    let smt_only = ScaleSynthesizer::new(ScaleConfig {
        fallback_monolithic: false,
        ..fine_grid(1)
    })
    .synthesize(&problem)
    .expect("solvable by SMT");
    let report = ScaleSynthesizer::new(heuristic_first(fine_grid(1)))
        .synthesize(&problem)
        .expect("heuristic-first solves whatever SMT-only solves");
    assert_eq!(report.strategy, SynthesisStrategy::HeuristicFirst);
    assert_eq!(report.heuristic.placed_apps, 0);
    assert_eq!(report.heuristic.repaired_apps, 0);
    assert_eq!(
        report.heuristic.fallback_partitions,
        smt_only.partitions.len()
    );
    assert!(!report.monolithic_fallback);
    assert_eq!(
        schedule_fingerprint(&report.report.schedule),
        schedule_fingerprint(&smt_only.report.schedule)
    );
    assert_eq!(report.repairs.len(), smt_only.repairs.len());
    assert!(
        report.report.app_metrics[1].latency <= Time::from_micros(300),
        "application 1 does not wait behind application 0"
    );
    assert!(report.all_stable());
}
