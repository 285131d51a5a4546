//! The correctness gate: every measured schedule is re-verified, and one
//! per workload is replayed through the simulator.

use std::time::{Duration, Instant};

use tsn_sim::{NetworkSimulator, SimConfig};
use tsn_synthesis::{
    verify_schedule, ConstraintMode, Schedule, StageReport, SynthesisProblem, SynthesisReport,
};

/// Independent verifier plus stability count. Returns the number of
/// worst-case-stable applications; an unstable application is an error.
pub fn verify_report(
    problem: &SynthesisProblem,
    report: &SynthesisReport,
    mode: ConstraintMode,
) -> Result<usize, String> {
    verify_schedule(problem, &report.schedule, mode)
        .map_err(|what| format!("verify_schedule rejected the schedule: {what}"))?;
    let apps = problem.applications().len();
    let stable = report.schedule.stable_application_count(problem);
    if stable != apps || report.stable_applications != apps {
        return Err(format!(
            "{stable} of {apps} applications are worst-case stable (report claims {})",
            report.stable_applications
        ));
    }
    Ok(stable)
}

/// Replays the schedule through the 802.1Qbv simulator and checks that it
/// observes exactly the analytic latency and jitter of every application.
/// Returns the time the replay took.
pub fn simulate_report(
    problem: &SynthesisProblem,
    report: &SynthesisReport,
) -> Result<Duration, String> {
    let start = Instant::now();
    let sim = NetworkSimulator::new(problem, &report.schedule).run(SimConfig::default());
    let elapsed = start.elapsed();
    if !sim.is_clean() {
        return Err(format!("simulator violations: {:?}", sim.violations));
    }
    if sim.flows.len() != report.app_metrics.len() {
        return Err(format!(
            "simulator saw {} flows for {} applications",
            sim.flows.len(),
            report.app_metrics.len()
        ));
    }
    for (app, (flow, metric)) in sim.flows.iter().zip(&report.app_metrics).enumerate() {
        if flow.latency != metric.latency
            || flow.jitter != metric.jitter
            || flow.max_end_to_end != metric.max_end_to_end
        {
            return Err(format!(
                "app {app}: simulated {flow:?} differs from analytic {metric:?}"
            ));
        }
    }
    Ok(elapsed)
}

/// The simulator replay as one checked operation of `outcome`, its
/// duration as `tsn_sim.replay_s`.
pub fn record_simulation(
    outcome: &mut crate::report::Outcome,
    problem: &SynthesisProblem,
    report: &SynthesisReport,
) {
    let replay = simulate_report(problem, report);
    if let Ok(elapsed) = &replay {
        outcome.set("tsn_sim.replay_s", elapsed.as_secs_f64());
    }
    outcome.check(replay.map(|_| ()));
}

/// The wire text of a schedule: equal text, equal schedule.
pub fn schedule_text(schedule: &Schedule) -> String {
    tsn_synthesis::wire::schedule_to_json(schedule).to_string()
}

/// Solver work summed over the stages of one synthesis. The counters are
/// exact and must repeat bit for bit from repetition to repetition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCounters {
    pub decisions: u64,
    pub conflicts: u64,
    pub propagations: u64,
    pub theory_checks: u64,
    pub restarts: u64,
    pub deleted_clauses: u64,
    pub peak_live_clauses: u64,
}

impl SolverCounters {
    pub fn from_stages(stages: &[StageReport]) -> Self {
        let mut total = SolverCounters::default();
        for stage in stages {
            total.decisions += stage.decisions;
            total.conflicts += stage.conflicts;
            total.propagations += stage.propagations;
            total.theory_checks += stage.theory_checks;
            total.restarts += stage.restarts;
            total.deleted_clauses += stage.deleted_clauses;
            total.peak_live_clauses = total.peak_live_clauses.max(stage.peak_live_clauses);
        }
        total
    }

    pub fn record(&self, outcome: &mut crate::report::Outcome, solve_seconds: f64) {
        outcome.set("tsn_smt.decisions", self.decisions as f64);
        outcome.set("tsn_smt.conflicts", self.conflicts as f64);
        outcome.set("tsn_smt.propagations", self.propagations as f64);
        outcome.set("tsn_smt.theory_checks", self.theory_checks as f64);
        outcome.set("tsn_smt.restarts", self.restarts as f64);
        outcome.set("tsn_smt.deleted_clauses", self.deleted_clauses as f64);
        outcome.set("tsn_smt.peak_live_clauses", self.peak_live_clauses as f64);
        if solve_seconds > 0.0 {
            outcome.set(
                "tsn_smt.props_per_s",
                self.propagations as f64 / solve_seconds,
            );
        }
    }
}

/// Time the solver spent per phase, from the `smt_*_seconds` registry
/// histograms. The solver only times its phases while telemetry is on, so
/// these are traced-run numbers: snapshot before, [`SmtPhases::record`]
/// after.
pub struct SmtPhases {
    before: [tsn_telemetry::HistogramSnapshot; 4],
}

const SMT_PHASES: [(&str, &str); 4] = [
    ("smt_decide_seconds", "tsn_smt.decide_s"),
    ("smt_propagate_seconds", "tsn_smt.propagate_s"),
    ("smt_theory_seconds", "tsn_smt.theory_s"),
    ("smt_reduce_db_seconds", "tsn_smt.reduce_s"),
];

impl SmtPhases {
    pub fn start() -> Self {
        let registry = tsn_telemetry::registry();
        SmtPhases {
            before: SMT_PHASES.map(|(histogram, _)| registry.histogram(histogram).snapshot()),
        }
    }

    pub fn record(&self, outcome: &mut crate::report::Outcome) {
        let registry = tsn_telemetry::registry();
        for ((histogram, metric), before) in SMT_PHASES.iter().zip(&self.before) {
            let delta = registry.histogram(histogram).delta_since(before);
            outcome.set(metric, delta.sum().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_net::Time;
    use tsn_synthesis::{SynthesisConfig, Synthesizer};
    use tsn_workload::pool_problem;

    #[test]
    fn a_corrupted_schedule_fails_the_gate() {
        let problem = pool_problem(0);
        let config = SynthesisConfig::default();
        let mut report = Synthesizer::new(config.clone())
            .synthesize(&problem)
            .unwrap();
        assert_eq!(verify_report(&problem, &report, config.mode), Ok(2));
        assert!(simulate_report(&problem, &report).is_ok());

        // Delay one hop of one message by a millisecond: the recorded
        // end-to-end delay no longer matches the hop times.
        let hop = report.schedule.messages[0].link_release.last_mut().unwrap();
        hop.1 += Time::from_millis(1);
        let mut outcome = crate::report::Outcome::default();
        outcome.check(verify_report(&problem, &report, config.mode).map(|_| ()));
        assert!(outcome.fail_share() > 0.0);
        assert!(!outcome.correct());
        assert!(outcome.result_line(false).starts_with("{\"correct\":false"));
    }
}
