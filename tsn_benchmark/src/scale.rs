//! `scale_flagship` and `scale_smt`: partitioned synthesis of one generated
//! fat-tree instance, heuristic-first or SMT-only.

use std::time::{Duration, Instant};

use tsn_scale::heuristic::{place_app, OccupancyTable};
use tsn_scale::{plan_partitions, ScaleConfig, ScaleReport, ScaleSynthesizer, SynthesisStrategy};
use tsn_synthesis::{expand_messages, verify_schedule, RouteCandidates, SynthesisProblem};
use tsn_workload::{large_scale_problem, LargeScaleScenario, LargeTopology};

use crate::check::{record_simulation, simulate_report, verify_report, SmtPhases, SolverCounters};
use crate::report::Outcome;
use crate::stats::Summary;
use crate::{repeat_setup, run_reps, RunOptions};

/// Which of the two scale workloads to run.
#[derive(Debug, Clone, Copy)]
pub struct ScaleSpec {
    pub streams: usize,
    pub switches: usize,
    pub strategy: SynthesisStrategy,
}

impl ScaleSpec {
    /// The ROADMAP flagship: 500 streams on an 80-switch fat-tree, greedy
    /// placement first and SMT only as repair.
    pub const FLAGSHIP: ScaleSpec = ScaleSpec {
        streams: 500,
        switches: 80,
        strategy: SynthesisStrategy::HeuristicFirst,
    };
    /// The same generator at a fifth of the streams, every partition solved
    /// by the SMT encoder.
    pub const SMT: ScaleSpec = ScaleSpec {
        streams: 100,
        switches: 80,
        strategy: SynthesisStrategy::SmtOnly,
    };

    fn smoke(self) -> ScaleSpec {
        ScaleSpec {
            streams: 24,
            switches: 20,
            ..self
        }
    }

    fn scenario(self, seed: u64) -> LargeScaleScenario {
        LargeScaleScenario {
            topology: LargeTopology::FatTree,
            switches: self.switches,
            streams: self.streams,
            seed,
            fast_stream_percent: 12,
        }
    }
}

/// Both workloads time one fixed instance — the flagship's is the instance
/// `fig_scale` and `BENCH_scale.json` have always used. Solve time moves
/// from one generated instance to the next by more than a regression bound
/// can absorb: over 48 seeds the flagship took 1.94 s to 2.52 s (quartiles
/// 2.12 s and 2.30 s), the SMT-only workload 1.66 s to 3.29 s (quartiles
/// 2.11 s and 2.73 s). A fixed instance also makes the exact solver counts
/// of any two runs comparable. The run's seed draws a second, small
/// instance that is solved and checked but not timed ([`seeded_probe`]).
const INSTANCE_SEED: u64 = 1;

/// Thread count of the system under test: pinned, never `0 = auto`, so a
/// run means the same on every machine.
const THREADS: usize = 2;

fn config(strategy: SynthesisStrategy) -> ScaleConfig {
    ScaleConfig {
        strategy,
        threads: THREADS,
        // A partition or repair failure must surface as a failed operation,
        // not as a silent monolithic solve.
        fallback_monolithic: false,
        ..ScaleConfig::default()
    }
}

/// The exact counts of one synthesis that must not differ between
/// repetitions of the same instance.
fn fingerprint(report: &ScaleReport) -> (SolverCounters, [usize; 4]) {
    (
        SolverCounters::from_stages(&report.report.stages),
        [
            report.partitions.len(),
            report.heuristic.placed_apps,
            report.repairs.iter().map(|r| r.resolved_apps).sum(),
            report.report.schedule.messages.len(),
        ],
    )
}

fn repair_time(report: &ScaleReport) -> Duration {
    report.repairs.iter().map(|r| r.solve_time).sum()
}

pub fn run(spec: ScaleSpec, opts: &RunOptions) -> Outcome {
    let spec = if opts.smoke { spec.smoke() } else { spec };
    let mut outcome = Outcome::default();

    let scenario = spec.scenario(INSTANCE_SEED);
    let generate = || large_scale_problem(&scenario).expect("generated instances are well-formed");
    let (problem, mut setups) = repeat_setup(opts, generate);
    let problem = &problem;
    let synthesizer = ScaleSynthesizer::new(config(spec.strategy));
    let mode = synthesizer.config().synthesis.mode;
    let apps = spec.streams;

    let phases = opts.traced.then(SmtPhases::start);
    let mut first: Option<ScaleReport> = None;
    let mut partition_phase = Vec::new();
    let mut repair = Vec::new();
    let reps = run_reps(opts, 5, |rep| {
        let start = Instant::now();
        let result = {
            let _span = tsn_telemetry::span!("bench.scale.synthesize", rep);
            synthesizer.synthesize(problem)
        };
        let wall = start.elapsed();
        match result {
            Err(e) => outcome.check(Err(format!("rep {rep}: synthesis failed: {e}"))),
            Ok(report) => {
                outcome.check(verify_report(problem, &report.report, mode).map(|_| ()));
                // The phases of untraced repetitions only: they are set
                // against the untraced `wall_s`.
                if !tsn_telemetry::enabled() {
                    partition_phase.push(report.partition_wall_time.as_secs_f64());
                    repair.push(repair_time(&report).as_secs_f64());
                }
                match &first {
                    Some(reference) if fingerprint(reference) != fingerprint(&report) => outcome
                        .fail(
                            1,
                            format!(
                                "rep {rep}: counters differ from rep 0: {:?} vs {:?}",
                                fingerprint(&report),
                                fingerprint(reference)
                            ),
                        ),
                    Some(_) => {}
                    None => first = Some(report),
                }
            }
        }
        wall
    });
    setups.extend(repeat_setup(opts, generate).1);
    let setup = Summary::of(&setups);
    println!("setup_s {setup}");
    outcome.set("setup_s", setup.median);
    let wall = Summary::of(&reps.walls);
    println!("wall_s {wall}");
    println!("{:.1} applications per second", apps as f64 / wall.median);
    if let Some(overhead) = reps.overhead {
        outcome.set("tsn_telemetry.trace_overhead_share", overhead);
    }
    outcome.set_repetition(wall.median);
    seeded_probe(spec, opts, &mut outcome);

    let Some(report) = first else {
        return outcome;
    };
    outcome.set(
        "stable_share",
        report.report.stable_applications as f64 / apps as f64,
    );
    // The simulator replay is the third view of the oracle; it runs once,
    // outside the timed region.
    record_simulation(&mut outcome, problem, &report.report);

    // Layer meters. Counts come from the public report; the phases the
    // report does not time are timed here, by calling the same public
    // functions `synthesize` calls.
    let (counters, _) = fingerprint(&report);
    let solve_seconds: f64 = report
        .report
        .stages
        .iter()
        .map(|s| s.solve_time.as_secs_f64())
        .sum();
    counters.record(&mut outcome, solve_seconds);
    if let Some(phases) = phases {
        phases.record(&mut outcome);
    }
    let strategy = synthesizer.config().synthesis.route_strategy;
    let timed = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..if opts.smoke { 1 } else { 5 })
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64()
            })
            .collect();
        Summary::of(&samples).median
    };
    let candidates = RouteCandidates::generate(problem, strategy).expect("routes exist");
    let kshortest = timed(&mut || {
        let _span = tsn_telemetry::span!("bench.scale.kshortest");
        std::hint::black_box(RouteCandidates::generate(problem, strategy).expect("routes exist"));
    });
    let target = synthesizer.config().target_apps_per_partition;
    let plan = plan_partitions(problem, &candidates, target);
    let plan_s = timed(&mut || {
        let _span = tsn_telemetry::span!("bench.scale.plan");
        std::hint::black_box(plan_partitions(problem, &candidates, target));
    });
    let verify_s = timed(&mut || {
        let _span = tsn_telemetry::span!("bench.scale.verify");
        std::hint::black_box(verify_schedule(problem, &report.report.schedule, mode).is_ok());
    });
    outcome.set("tsn_net.kshortest_s", kshortest);
    outcome.set("tsn_net.routes_total", candidates.total_routes() as f64);
    outcome.set("tsn_scale.plan_s", plan_s);
    outcome.set("tsn_scale.partitions", plan.groups.len() as f64);
    outcome.set("tsn_scale.cut_edges", plan.cut_edges as f64);
    outcome.set("tsn_synthesis.verify_s", verify_s);
    outcome.set(
        "tsn_synthesis.messages",
        report.report.schedule.messages.len() as f64,
    );
    let partition_phase = Summary::of(&partition_phase).median;
    let repair = Summary::of(&repair).median;
    outcome.set("tsn_scale.partition_phase_s", partition_phase);
    outcome.set("tsn_scale.conflict_repair_s", repair);
    outcome.set(
        "tsn_scale.unattributed_s",
        unattributed(
            wall.median,
            &[kshortest, plan_s, partition_phase, repair, verify_s],
        ),
    );
    let cover: usize = report.repairs.iter().map(|r| r.resolved_apps).sum();
    let pairs: usize = report.repairs.iter().map(|r| r.conflict_pairs).sum();
    outcome.set("tsn_scale.repair_rounds", report.repairs.len() as f64);
    outcome.set("tsn_scale.conflict_pairs", pairs as f64);
    outcome.set("tsn_scale.cover_apps", cover as f64);
    outcome.set("tsn_scale.cover_share", cover as f64 / apps as f64);
    outcome.set("tsn_scale.placed_apps", report.heuristic.placed_apps as f64);
    outcome.set(
        "tsn_scale.repaired_apps",
        report.heuristic.repaired_apps as f64,
    );
    outcome.set(
        "tsn_scale.fallback_partitions",
        report.heuristic.fallback_partitions as f64,
    );
    outcome.set(
        "tsn_scale.first_fit_us",
        first_fit_us(problem, &candidates, &report, mode),
    );
    outcome
}

/// The run's seed at work: a small instance drawn from it goes through the
/// same synthesizer and the same checks as the timed instance, untimed. A
/// run on another seed thereby proves more than the fixed instance again.
fn seeded_probe(spec: ScaleSpec, opts: &RunOptions, outcome: &mut Outcome) {
    let spec = spec.smoke();
    let problem = large_scale_problem(&spec.scenario(opts.seed))
        .expect("generated instances are well-formed");
    let synthesizer = ScaleSynthesizer::new(config(spec.strategy));
    let mode = synthesizer.config().synthesis.mode;
    match synthesizer.synthesize(&problem) {
        Err(e) => outcome.check(Err(format!("seed {}: synthesis failed: {e}", opts.seed))),
        Ok(report) => {
            outcome.check(verify_report(&problem, &report.report, mode).map(|_| ()));
            outcome.check(simulate_report(&problem, &report.report).map(|_| ()));
        }
    }
}

/// What is left of one synthesis' wall time after the phases that were
/// timed one by one: the meter of everything nobody has named yet.
fn unattributed(wall: f64, phases: &[f64]) -> f64 {
    wall - phases.iter().sum::<f64>()
}

/// Cost of one greedy `place_app` late in a placement: every eighth
/// application is placed against an occupancy table already loaded with
/// the finished schedule of all the others.
fn first_fit_us(
    problem: &SynthesisProblem,
    candidates: &RouteCandidates,
    report: &ScaleReport,
    mode: tsn_synthesis::ConstraintMode,
) -> f64 {
    let sampled = |app: usize| app.is_multiple_of(8);
    let mut table = OccupancyTable::new();
    for schedule in &report.report.schedule.messages {
        if !sampled(schedule.message.app) {
            table.reserve_schedule(problem, schedule);
        }
    }
    let messages = expand_messages(problem);
    let instances: Vec<Vec<_>> = (0..problem.applications().len())
        .filter(|&app| sampled(app))
        .map(|app| messages.iter().filter(|m| m.app == app).copied().collect())
        .collect();
    let _span = tsn_telemetry::span!("bench.scale.first_fit");
    let start = Instant::now();
    for batch in &instances {
        std::hint::black_box(place_app(
            problem,
            candidates,
            batch[0].app,
            batch,
            &mut table,
            mode,
        ));
    }
    start.elapsed().as_secs_f64() * 1e6 / instances.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_leaves_the_unnamed_remainder() {
        let left = unattributed(2.5, &[0.055, 0.010, 0.001, 2.3, 0.0004]);
        assert!((left - 0.1336).abs() < 1e-12, "{left}");
        // Phases timed outside the synthesis can overshoot a fast run; the
        // remainder then goes negative rather than being hidden.
        assert!(unattributed(1.0, &[0.7, 0.4]) < 0.0);
    }
}
