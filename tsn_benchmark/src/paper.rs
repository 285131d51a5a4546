//! `paper_automotive`: the paper's Table I case study through the
//! monolithic synthesizer, stability-aware on the 1 ms grid.

use std::time::Instant;

use tsn_net::Time;
use tsn_synthesis::{
    expand_messages, partition_into_stages, verify_schedule, ConstraintMode, MessageSchedule,
    RouteCandidates, Schedule, StageEncoder, StageOutcome, SynthesisConfig, SynthesisProblem,
    SynthesisReport, Synthesizer,
};
use tsn_workload::automotive_case_study;

use crate::check::{record_simulation, schedule_text, verify_report, SmtPhases, SolverCounters};
use crate::report::Outcome;
use crate::stats::Summary;
use crate::{repeat_setup, run_reps, Reps, RunOptions};

/// Granularity of the stability constraints, as in the `table1_automotive`
/// binary. One repetition takes 4 s on it and 43 s on the 250 µs grid.
const GRID_US: i64 = 1000;

pub fn run(opts: &RunOptions) -> Outcome {
    let mut outcome = Outcome::default();
    // The instance is the paper's (20 applications, 106 messages); there is
    // nothing for the seed to vary.
    println!(
        "seed {} unused: the case study is one fixed instance",
        opts.seed
    );
    let build = || automotive_case_study().expect("the case study is well-formed");
    let (study, mut setups) = repeat_setup(opts, build);
    let problem = study.problem;
    let config = SynthesisConfig {
        mode: ConstraintMode::StabilityAware {
            granularity: Time::from_micros(GRID_US),
        },
        ..SynthesisConfig::automotive()
    };
    let synthesizer = Synthesizer::new(config.clone());
    let apps = problem.applications().len();

    let mut first: Option<SynthesisReport> = None;
    let mut rep = |rep: usize| {
        let start = Instant::now();
        let result = {
            let _span = tsn_telemetry::span!("bench.paper_automotive.synthesize", rep);
            synthesizer.synthesize(&problem)
        };
        let wall = start.elapsed();
        match result {
            Err(e) => outcome.check(Err(format!("rep {rep}: synthesis failed: {e}"))),
            Ok(report) => {
                outcome.check(verify_report(&problem, &report, config.mode).map(|_| ()));
                let counters = SolverCounters::from_stages(&report.stages);
                match &first {
                    Some(reference)
                        if SolverCounters::from_stages(&reference.stages) != counters
                            || schedule_text(&reference.schedule)
                                != schedule_text(&report.schedule) =>
                    {
                        outcome.fail(1, format!("rep {rep}: result differs from rep 0"));
                    }
                    Some(_) => {}
                    None => first = Some(report),
                }
            }
        }
        wall
    };
    // A traced run times one plain `synthesize` and then drives the same
    // stages itself with telemetry on; the difference is the overhead.
    let reps = if opts.traced {
        Reps {
            walls: vec![rep(0).as_secs_f64()],
            overhead: None,
        }
    } else {
        run_reps(opts, 5, rep)
    };
    setups.extend(repeat_setup(opts, build).1);
    let setup = Summary::of(&setups);
    println!("setup_s {setup}");
    outcome.set("setup_s", setup.median);
    outcome.set("tsn_control.bounds_s", setup.median);
    let wall = Summary::of(&reps.walls);
    println!("wall_s {wall}");
    outcome.set_repetition(wall.median);
    let Some(report) = first else {
        return outcome;
    };
    outcome.set(
        "stable_share",
        report.stable_applications as f64 / apps as f64,
    );
    record_simulation(&mut outcome, &problem, &report);
    let solve_seconds: f64 = report
        .stages
        .iter()
        .map(|s| s.solve_time.as_secs_f64())
        .sum();
    SolverCounters::from_stages(&report.stages).record(&mut outcome, solve_seconds);
    outcome.set(
        "tsn_synthesis.messages",
        report.schedule.messages.len() as f64,
    );
    if opts.traced {
        let traced = attribute(&problem, &config, &report.schedule, &mut outcome);
        outcome.set(
            "tsn_telemetry.trace_overhead_share",
            (traced - wall.median) / wall.median,
        );
    }
    outcome
}

/// Drives the stages of `Synthesizer::synthesize` from outside, one span
/// and one stopwatch per call into a layer, and checks the schedule is the
/// one `synthesize` returned. Runs with telemetry on; returns its wall time.
fn attribute(
    problem: &SynthesisProblem,
    config: &SynthesisConfig,
    expected: &Schedule,
    outcome: &mut Outcome,
) -> f64 {
    tsn_telemetry::set_enabled(true);
    let phases = SmtPhases::start();
    let total = Instant::now();
    let (mut kshortest, mut encode, mut solve) = (0.0, 0.0, 0.0);
    let clock = |start: Instant| start.elapsed().as_secs_f64();

    let start = Instant::now();
    let candidates = {
        let _span = tsn_telemetry::span!("bench.paper_automotive.kshortest");
        RouteCandidates::generate(problem, config.route_strategy).expect("routes exist")
    };
    kshortest += clock(start);
    let messages = expand_messages(problem);
    let slices = partition_into_stages(&messages, problem.hyperperiod(), config.stages.max(1));
    let mut fixed: Vec<MessageSchedule> = Vec::with_capacity(messages.len());
    for (stage, slice) in slices.iter().enumerate() {
        if slice.is_empty() {
            continue;
        }
        let mut encoder = StageEncoder::new(problem, &candidates, config);
        let start = Instant::now();
        {
            let _span = tsn_telemetry::span!("bench.paper_automotive.encode", stage);
            encoder.encode(slice, &fixed);
        }
        encode += clock(start);
        let start = Instant::now();
        let (result, _) = {
            let _span = tsn_telemetry::span!("bench.paper_automotive.solve", stage);
            encoder.solve(slice)
        };
        solve += clock(start);
        match result {
            StageOutcome::Solved(schedules) => fixed.extend(schedules),
            other => {
                outcome.check(Err(format!("attributed stage {stage}: {other:?}")));
                break;
            }
        }
    }
    fixed.sort_by_key(|m| (m.message.release, m.message.app, m.message.instance));
    let schedule = Schedule {
        hyperperiod: problem.hyperperiod(),
        messages: fixed,
    };
    let start = Instant::now();
    let verified = {
        let _span = tsn_telemetry::span!("bench.paper_automotive.verify");
        verify_schedule(problem, &schedule, config.mode)
    };
    let verify = clock(start);
    let attributed_wall = clock(total);
    tsn_telemetry::set_enabled(false);
    phases.record(outcome);

    outcome.check(verified.map_err(|what| format!("attributed schedule rejected: {what}")));
    outcome.check(if schedule_text(&schedule) == schedule_text(expected) {
        Ok(())
    } else {
        Err("attributed stages produced a different schedule than synthesize()".to_string())
    });
    outcome.set("tsn_net.kshortest_s", kshortest);
    outcome.set("tsn_net.routes_total", candidates.total_routes() as f64);
    outcome.set("tsn_synthesis.encode_s", encode);
    outcome.set("tsn_synthesis.solve_s", solve);
    outcome.set("tsn_synthesis.verify_s", verify);
    println!(
        "attribution: kshortest+encode+solve+verify = {:.6} s of {:.6} s driven from outside",
        kshortest + encode + solve + verify,
        attributed_wall
    );
    attributed_wall
}
