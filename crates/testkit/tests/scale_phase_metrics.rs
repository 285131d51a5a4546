//! Regression test for the scale-engine phase-metric split.
//!
//! `scale_repair_seconds` must mean *straggler repair* (SMT re-solve of the
//! apps greedy placement could not fit) and nothing else. It used to also
//! receive the cross-partition conflict-repair rounds, so a heuristic-first
//! run that repaired zero apps could still report a multi-second
//! `repair_p95_us` in `BENCH_scale.json` — a histogram-bucket bound from a
//! conflict round, not a repair. Conflict rounds observe into their own
//! `scale_conflict_repair_seconds`; since heuristic-first places against
//! one shared occupancy table it has none, and `scale_heuristic_seconds`
//! sees one observation per run: the whole pass.
//!
//! The test lives in its own integration binary: the telemetry registry is
//! process-global and cargo runs test binaries one after another, so no
//! parallel test can observe into the scale histograms between our
//! snapshots.

use tsn_scale::{ScaleConfig, ScaleSynthesizer, SynthesisStrategy};
use tsn_workload::{large_scale_problem, LargeScaleScenario, LargeTopology};

#[test]
fn straggler_repair_histogram_stays_empty_when_nothing_was_repaired() {
    let scenario = LargeScaleScenario {
        topology: LargeTopology::FatTree,
        switches: 32,
        streams: 60,
        seed: 1,
        fast_stream_percent: 12,
    };
    let problem = large_scale_problem(&scenario).expect("generator instances are well-formed");
    let registry = tsn_telemetry::registry();
    let heuristic = registry.histogram("scale_heuristic_seconds");
    let repair = registry.histogram("scale_repair_seconds");
    let conflict = registry.histogram("scale_conflict_repair_seconds");
    let heuristic_before = heuristic.snapshot();
    let repair_before = repair.snapshot();
    let conflict_before = conflict.snapshot();

    let config = ScaleConfig {
        strategy: SynthesisStrategy::HeuristicFirst,
        fallback_monolithic: false,
        ..ScaleConfig::default()
    };
    let report = ScaleSynthesizer::new(config)
        .synthesize(&problem)
        .expect("the instance solves heuristically");

    // The scenario is small enough that greedy placement fits everything;
    // if a generator change ever introduces stragglers here, pick another
    // seed — the point of this test needs a zero-repair run.
    assert_eq!(
        report.heuristic.repaired_apps, 0,
        "expected a fully greedy placement: {:?}",
        report.heuristic
    );
    assert_eq!(report.heuristic.fallback_partitions, 0);
    assert!(report.heuristic.placed_apps > 0);

    let heuristic_delta = heuristic.delta_since(&heuristic_before);
    let repair_delta = repair.delta_since(&repair_before);
    let conflict_delta = conflict.delta_since(&conflict_before);
    assert_eq!(
        heuristic_delta.count(),
        1,
        "the one placement pass over the shared table observes its time once"
    );
    // The regression: conflict-repair rounds used to observe into the
    // straggler-repair histogram, so a zero-repair run still reported a
    // nonzero (bucket-bound) repair p95.
    assert_eq!(
        repair_delta.count(),
        0,
        "a zero-repair run must leave scale_repair_seconds untouched \
         (p95 would read {:?})",
        repair_delta.p95()
    );
    assert_eq!(
        conflict_delta.count() as usize,
        report.repairs.len(),
        "each conflict-repair round observes exactly once into its own \
         scale_conflict_repair_seconds histogram"
    );
}
