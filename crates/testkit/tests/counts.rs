//! Pins the exact solver counts of two benchmark instances.
//!
//! `exact_search.rs` pins the search on light grid rows; these are the
//! instances the benchmark times, built exactly as its `paper_automotive`
//! and `scale_smt` workloads build them. The CDCL(T) search is
//! deterministic, so the summed stage counters are a fingerprint of every
//! choice it makes on them, and a search change shows here with the size of
//! its effect on what is measured. A change that claims the same search
//! leaves them alone; one that alters the search on purpose re-pins them
//! and says why. The stable-application count is what the search decides,
//! and no search change may move it.

use tsn_net::Time;
use tsn_scale::{ScaleConfig, ScaleSynthesizer, SynthesisStrategy};
use tsn_synthesis::{ConstraintMode, StageReport, SynthesisConfig, Synthesizer};
use tsn_workload::{automotive_case_study, large_scale_problem, LargeScaleScenario, LargeTopology};

/// Summed `[decisions, conflicts, propagations, theory_checks, restarts]`.
fn totals(stages: &[StageReport]) -> [u64; 5] {
    let mut totals = [0u64; 5];
    for stage in stages {
        totals[0] += stage.decisions;
        totals[1] += stage.conflicts;
        totals[2] += stage.propagations;
        totals[3] += stage.theory_checks;
        totals[4] += stage.restarts;
    }
    totals
}

/// `paper_automotive`: Table I through the monolithic synthesizer,
/// stability-aware on the 1 ms grid.
#[test]
fn paper_automotive_counts_are_pinned() {
    let study = automotive_case_study().expect("the case study is well-formed");
    let config = SynthesisConfig {
        mode: ConstraintMode::StabilityAware {
            granularity: Time::from_micros(1000),
        },
        ..SynthesisConfig::automotive()
    };
    let report = Synthesizer::new(config)
        .synthesize(&study.problem)
        .expect("Table I solves");
    assert_eq!(
        (totals(&report.stages), report.stable_applications),
        ([71_921, 3_177, 152_408, 93_155, 56], 20),
        "([decisions, conflicts, propagations, theory_checks, restarts], \
         stable applications) moved on paper_automotive"
    );
}

/// `scale_smt`: 100 streams on an 80-switch fat-tree, every partition
/// solved by SMT on two threads, no monolithic fallback.
#[test]
fn scale_smt_counts_are_pinned() {
    let problem = large_scale_problem(&LargeScaleScenario {
        topology: LargeTopology::FatTree,
        switches: 80,
        streams: 100,
        seed: 1,
        fast_stream_percent: 12,
    })
    .expect("generated instances are well-formed");
    let synthesizer = ScaleSynthesizer::new(ScaleConfig {
        strategy: SynthesisStrategy::SmtOnly,
        threads: 2,
        fallback_monolithic: false,
        ..ScaleConfig::default()
    });
    let report = synthesizer.synthesize(&problem).expect("scale_smt solves");
    assert_eq!(
        (
            totals(&report.report.stages),
            report.report.stable_applications
        ),
        ([30_165, 922, 68_524, 34_199, 17], 100),
        "([decisions, conflicts, propagations, theory_checks, restarts], \
         stable applications) moved on scale_smt"
    );
}
