//! The top-level synthesizer: candidate generation, incremental staging,
//! stage solving and result assembly.

use std::time::{Duration, Instant};

use tsn_net::Time;

use crate::encoding::{StageEncoder, StageOutcome};
use crate::{
    expand_messages, verify_schedule, AppMetrics, MessageInstance, MessageSchedule,
    RouteCandidates, Schedule, SynthesisConfig, SynthesisError, SynthesisProblem,
};

/// Statistics of one incremental-synthesis stage.
#[derive(Debug, Clone, Default)]
pub struct StageReport {
    /// Stage index (0-based).
    pub stage: usize,
    /// Number of messages scheduled and routed in this stage.
    pub messages: usize,
    /// Wall-clock time spent solving this stage.
    pub solve_time: Duration,
    /// Solver decisions in this stage.
    pub decisions: u64,
    /// Solver conflicts in this stage.
    pub conflicts: u64,
    /// Unit propagations in this stage.
    pub propagations: u64,
    /// Difference atoms asserted into the theory solver (each one an
    /// incremental consistency check of the constraint graph).
    pub theory_checks: u64,
    /// Solver restarts in this stage.
    pub restarts: u64,
    /// Theory repairs that reused the solver's persistent scratch arenas.
    pub theory_scratch_reuses: u64,
    /// Learned clauses deleted by clause-DB reduction in this stage.
    pub deleted_clauses: u64,
    /// High-water mark of live clauses over the stage's solve calls.
    pub peak_live_clauses: u64,
}

impl StageReport {
    /// Builds a stage report from the solver statistics of one stage.
    pub fn from_stats(
        stage: usize,
        messages: usize,
        solve_time: Duration,
        stats: &tsn_smt::SolverStats,
    ) -> Self {
        StageReport {
            stage,
            messages,
            solve_time,
            decisions: stats.decisions,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            theory_checks: stats.theory_checks,
            restarts: stats.restarts,
            theory_scratch_reuses: stats.theory_scratch_reuses,
            deleted_clauses: stats.deleted_clauses,
            peak_live_clauses: stats.peak_live_clauses,
        }
    }

    /// Adds another report's message count, solve time and solver counters
    /// into this one (the stage index is untouched) — the single summation
    /// point for aggregated views like per-partition totals, so adding a
    /// counter to [`tsn_smt::SolverStats`] only needs updating
    /// [`from_stats`](StageReport::from_stats) and this method.
    pub fn absorb(&mut self, other: &StageReport) {
        self.messages += other.messages;
        self.solve_time += other.solve_time;
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.theory_checks += other.theory_checks;
        self.restarts += other.restarts;
        self.theory_scratch_reuses += other.theory_scratch_reuses;
        self.deleted_clauses += other.deleted_clauses;
        // A high-water mark aggregates as a maximum, not a sum.
        self.peak_live_clauses = self.peak_live_clauses.max(other.peak_live_clauses);
    }
}

/// The result of a successful synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// The synthesized schedule (routes `eta_ijk` and release times
    /// `gamma_ijk` for every message instance).
    pub schedule: Schedule,
    /// Per-application latency / jitter / worst-case delay (Table I columns).
    pub app_metrics: Vec<AppMetrics>,
    /// Per-application stability margins `delta_i` (Eq. 3), in seconds.
    pub stability_margins: Vec<f64>,
    /// Number of applications whose worst-case stability is guaranteed.
    pub stable_applications: usize,
    /// Per-stage solver statistics.
    pub stages: Vec<StageReport>,
    /// Total wall-clock synthesis time.
    pub total_time: Duration,
}

impl SynthesisReport {
    /// Returns `true` if every application satisfies its stability condition.
    pub fn all_stable(&self) -> bool {
        self.stable_applications == self.app_metrics.len()
    }

    /// Assembles a report from a finished schedule: recomputes the
    /// per-application metrics, stability margins and stable-application
    /// count from the schedule itself.
    ///
    /// This is the single construction path shared by the offline
    /// synthesizer, the online engine's snapshots and the partitioned
    /// large-scale synthesis (`tsn_scale`), which all end with a merged
    /// [`Schedule`] plus per-stage solver statistics.
    pub fn assemble(
        problem: &SynthesisProblem,
        schedule: Schedule,
        stages: Vec<StageReport>,
        total_time: Duration,
    ) -> Self {
        let app_metrics = schedule.app_metrics(problem.applications().len());
        let stability_margins = schedule.stability_margins(problem);
        let stable_applications = schedule.stable_application_count(problem);
        SynthesisReport {
            schedule,
            app_metrics,
            stability_margins,
            stable_applications,
            stages,
            total_time,
        }
    }
}

/// The stability-aware joint routing and scheduling synthesizer
/// (Section V of the paper).
///
/// # Example
///
/// ```
/// use tsn_control::PiecewiseLinearBound;
/// use tsn_net::{builders, LinkSpec, Time};
/// use tsn_synthesis::{SynthesisConfig, SynthesisProblem, Synthesizer};
///
/// # fn main() -> Result<(), tsn_synthesis::SynthesisError> {
/// let net = builders::figure1_example(LinkSpec::fast_ethernet());
/// let mut problem = SynthesisProblem::new(net.topology, Time::from_micros(5));
/// problem.add_application(
///     "loop-0",
///     net.sensors[0],
///     net.controllers[0],
///     Time::from_millis(10),
///     1500,
///     PiecewiseLinearBound::single_segment(2.0, 0.008),
/// )?;
/// let report = Synthesizer::new(SynthesisConfig::default()).synthesize(&problem)?;
/// assert!(report.all_stable());
/// assert_eq!(report.schedule.messages.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Synthesizer {
    config: SynthesisConfig,
}

impl Synthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: SynthesisConfig) -> Self {
        Synthesizer { config }
    }

    /// The configuration of this synthesizer.
    pub fn config(&self) -> &SynthesisConfig {
        &self.config
    }

    /// Solves the joint routing and scheduling problem.
    ///
    /// # Errors
    ///
    /// * [`SynthesisError::InvalidProblem`] / [`SynthesisError::NoRoute`] for
    ///   ill-formed inputs;
    /// * [`SynthesisError::Unsatisfiable`] when no feasible solution exists
    ///   in the explored space (which, with heuristics enabled, may be a
    ///   subset of the full space — see Section V-C of the paper);
    /// * [`SynthesisError::ResourceLimit`] when the per-stage solver budget
    ///   is exhausted;
    /// * [`SynthesisError::VerificationFailed`] if the independent schedule
    ///   verifier rejects the result (a bug, never expected).
    pub fn synthesize(
        &self,
        problem: &SynthesisProblem,
    ) -> Result<SynthesisReport, SynthesisError> {
        let start = Instant::now();
        problem.validate()?;
        let candidates = RouteCandidates::generate(problem, self.config.route_strategy)?;
        let messages = expand_messages(problem);
        let stage_count = self.config.stages.max(1);
        let slices = partition_into_stages(&messages, problem.hyperperiod(), stage_count);

        let mut fixed: Vec<MessageSchedule> = Vec::with_capacity(messages.len());
        let mut stage_reports = Vec::new();
        for (stage_idx, slice) in slices.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            let stage_start = Instant::now();
            let encoder = StageEncoder::new(problem, &candidates, &self.config);
            let (outcome, stats) = encoder.solve_stage(slice, &fixed);
            let solve_time = stage_start.elapsed();
            stage_reports.push(StageReport::from_stats(
                stage_idx,
                slice.len(),
                solve_time,
                &stats,
            ));
            match outcome {
                StageOutcome::Solved(schedules) => fixed.extend(schedules),
                StageOutcome::Unsatisfiable => {
                    return Err(SynthesisError::Unsatisfiable {
                        stage: stage_idx,
                        stages: stage_count,
                    })
                }
                StageOutcome::ResourceLimit => {
                    return Err(SynthesisError::ResourceLimit { stage: stage_idx })
                }
            }
        }

        fixed.sort_by_key(|m| (m.message.release, m.message.app, m.message.instance));
        let schedule = Schedule {
            hyperperiod: problem.hyperperiod(),
            messages: fixed,
        };
        if self.config.verify {
            verify_schedule(problem, &schedule, self.config.mode)
                .map_err(|what| SynthesisError::VerificationFailed { what })?;
        }
        Ok(SynthesisReport::assemble(
            problem,
            schedule,
            stage_reports,
            start.elapsed(),
        ))
    }
}

/// Splits the message set into `stages` time slices of the hyper-period
/// (the incremental-synthesis heuristic, Section V-C2). Messages are grouped
/// by their release times.
pub fn partition_into_stages(
    messages: &[MessageInstance],
    hyperperiod: Time,
    stages: usize,
) -> Vec<Vec<MessageInstance>> {
    let stages = stages.max(1);
    let mut slices: Vec<Vec<MessageInstance>> = vec![Vec::new(); stages];
    if hyperperiod == Time::ZERO {
        return slices;
    }
    let slice_length = hyperperiod / stages as i64;
    for &m in messages {
        let idx = if slice_length == Time::ZERO {
            0
        } else {
            ((m.release / slice_length) as usize).min(stages - 1)
        };
        slices[idx].push(m);
    }
    slices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintMode, RouteStrategy};
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec};

    fn small_problem(apps: usize, period_ms: &[i64]) -> SynthesisProblem {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        for i in 0..apps {
            p.add_application(
                format!("app{i}"),
                net.sensors[i % net.sensors.len()],
                net.controllers[i % net.controllers.len()],
                Time::from_millis(period_ms[i % period_ms.len()]),
                1500,
                PiecewiseLinearBound::single_segment(2.0, 0.015),
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn partition_groups_by_release_time() {
        let p = small_problem(2, &[10, 20]);
        let messages = expand_messages(&p);
        let slices = partition_into_stages(&messages, p.hyperperiod(), 2);
        assert_eq!(slices.len(), 2);
        assert_eq!(
            slices.iter().map(|s| s.len()).sum::<usize>(),
            messages.len()
        );
        for m in &slices[0] {
            assert!(m.release < Time::from_millis(10));
        }
        for m in &slices[1] {
            assert!(m.release >= Time::from_millis(10));
        }
        // One stage keeps everything together.
        let single = partition_into_stages(&messages, p.hyperperiod(), 1);
        assert_eq!(single[0].len(), messages.len());
    }

    #[test]
    fn single_application_synthesis_is_stable() {
        let p = small_problem(1, &[10]);
        let report = Synthesizer::new(SynthesisConfig::default())
            .synthesize(&p)
            .unwrap();
        assert_eq!(report.schedule.messages.len(), 1);
        assert!(report.all_stable());
        assert!(report.stability_margins[0] >= 0.0);
        assert_eq!(report.stages.len(), 1);
    }

    #[test]
    fn three_applications_with_multiple_stages() {
        let p = small_problem(3, &[10, 20, 20]);
        let config = SynthesisConfig {
            stages: 2,
            route_strategy: RouteStrategy::KShortest(3),
            ..SynthesisConfig::default()
        };
        let report = Synthesizer::new(config).synthesize(&p).unwrap();
        assert_eq!(report.schedule.messages.len(), p.message_count());
        assert!(report.all_stable());
        assert!(report.stages.len() >= 2);
    }

    #[test]
    fn deadline_only_baseline_runs() {
        let p = small_problem(3, &[10, 20, 20]);
        let config = SynthesisConfig {
            mode: ConstraintMode::DeadlineOnly,
            ..SynthesisConfig::default()
        };
        let report = Synthesizer::new(config).synthesize(&p).unwrap();
        assert_eq!(report.schedule.messages.len(), p.message_count());
        // Every message met its implicit deadline.
        for (app, metric) in report.app_metrics.iter().enumerate() {
            assert!(metric.max_end_to_end <= p.applications()[app].period);
        }
    }

    #[test]
    fn impossible_stability_bound_is_unsatisfiable() {
        // A stability bound far below the smallest achievable latency.
        let net = builders::figure1_example(LinkSpec::automotive_10mbps());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        p.add_application(
            "impossible",
            net.sensors[0],
            net.controllers[0],
            Time::from_millis(20),
            1500,
            // beta = 1 ms but the best route needs at least 3 * 1.2 ms.
            PiecewiseLinearBound::single_segment(1.0, 0.001),
        )
        .unwrap();
        let err = Synthesizer::new(SynthesisConfig::default())
            .synthesize(&p)
            .unwrap_err();
        assert!(matches!(err, SynthesisError::Unsatisfiable { .. }));
    }

    #[test]
    fn resource_limit_is_reported() {
        let p = small_problem(3, &[10, 10, 10]);
        let config = SynthesisConfig {
            max_conflicts_per_stage: Some(0),
            ..SynthesisConfig::default()
        };
        let result = Synthesizer::new(config).synthesize(&p);
        // Either the stage is trivially solvable without conflicts or the
        // limit triggers; both are acceptable, but an Unsatisfiable result
        // would indicate the limit was ignored.
        if let Err(e) = result {
            assert!(matches!(e, SynthesisError::ResourceLimit { .. }));
        }
    }
}
