//! The partitioned synthesizer: greedy placement on one shared table or
//! parallel per-partition warm-started solves, then a conflict-repair loop.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use tsn_telemetry::Histogram;

use tsn_net::Time;
use tsn_smt::Model;
use tsn_synthesis::{
    expand_messages, partition_into_stages, verify_schedule, ConstraintMode, MessageInstance,
    MessageSchedule, RouteCandidates, Schedule, StageEncoder, StageOutcome, StageReport,
    SynthesisConfig, SynthesisError, SynthesisProblem, SynthesisReport, Synthesizer,
};

use crate::heuristic::{place_app, OccupancyTable};
use crate::partition::{plan_partitions, PartitionPlan};

/// How every application gets its schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SynthesisStrategy {
    /// Every partition is solved entirely by the staged SMT encoder.
    #[default]
    SmtOnly,
    /// Every application is placed by the greedy first-fit heuristic against
    /// one occupancy table shared by the whole problem
    /// ([`crate::heuristic`]), so placed applications never collide. SMT only
    /// repairs the applications first-fit cannot place, against the pinned
    /// placement; if that fails the run falls back to the entire
    /// [`SmtOnly`](Self::SmtOnly) pipeline, so heuristic-first solves
    /// whatever SMT-only solves.
    HeuristicFirst,
}

/// Statistics of the heuristic-first placement (all zero under
/// [`SynthesisStrategy::SmtOnly`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeuristicStats {
    /// Applications placed by the greedy heuristic alone.
    pub placed_apps: usize,
    /// Applications the SMT repair had to place.
    pub repaired_apps: usize,
    /// Partitions solved by SMT after the fallback: all of them or none.
    pub fallback_partitions: usize,
}

/// Always-on latency histograms for the scale phases: one observation per
/// SMT partition solve, per shared-table placement pass (`heuristic`), per
/// SMT repair of what first-fit could not place (`repair` — what
/// `repaired_apps` counts) and per cross-partition conflict-repair round.
/// `fig_scale --bench-json` reports per-run p95s as `heuristic_p95_us` /
/// `repair_p95_us` via `Histogram::delta_since` snapshots (the registry is
/// process-cumulative).
///
/// The two repairs are separate histograms: conflating them made
/// `repair_p95_us` report multi-second conflict rounds on runs where
/// first-fit had placed every application.
struct ScaleMetrics {
    partition: Histogram,
    heuristic: Histogram,
    repair: Histogram,
    conflict_repair: Histogram,
}

fn scale_metrics() -> &'static ScaleMetrics {
    static METRICS: OnceLock<ScaleMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = tsn_telemetry::registry();
        ScaleMetrics {
            partition: registry.histogram("scale_partition_seconds"),
            heuristic: registry.histogram("scale_heuristic_seconds"),
            repair: registry.histogram("scale_repair_seconds"),
            conflict_repair: registry.histogram("scale_conflict_repair_seconds"),
        }
    })
}

/// Configuration of a [`ScaleSynthesizer`].
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// The per-partition synthesis configuration: route strategy, constraint
    /// mode, per-stage solver limits and intra-partition stage count.
    /// `verify` is ignored — the merged schedule is always verified.
    pub synthesis: SynthesisConfig,
    /// Upper bound on the number of applications per partition.
    pub target_apps_per_partition: usize,
    /// Worker threads for the SMT partition solves (`0` = one per available
    /// core); the heuristic-first placement is one millisecond-scale pass on
    /// the calling thread. The result is bit-identical for every thread count.
    pub threads: usize,
    /// Upper bound on conflict-repair rounds before giving up (one round is
    /// sufficient when the repair solve succeeds; more rounds only happen
    /// after escalation).
    pub max_repair_rounds: usize,
    /// Whether a failed partition solve or repair falls back to the
    /// monolithic [`Synthesizer`] (slow but complete relative to the
    /// explored space).
    pub fallback_monolithic: bool,
    /// Whether the partitioned SMT pipeline runs at once, or only if greedy
    /// placement on one shared occupancy table plus SMT repair has failed.
    pub strategy: SynthesisStrategy,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            synthesis: SynthesisConfig {
                // One stage per partition: partitions are already small.
                stages: 1,
                verify: false,
                // A 1 ms latency grid (as in the online engine): the grid is
                // sound at any granularity, and the fine offline default
                // multiplies the Boolean structure by the stream count.
                mode: ConstraintMode::StabilityAware {
                    granularity: Time::from_millis(1),
                },
                ..SynthesisConfig::default()
            },
            target_apps_per_partition: 16,
            threads: 0,
            max_repair_rounds: 4,
            fallback_monolithic: true,
            strategy: SynthesisStrategy::SmtOnly,
        }
    }
}

/// Solver statistics of one partition.
#[derive(Debug, Clone, Default)]
pub struct PartitionReport {
    /// Partition index in the plan.
    pub partition: usize,
    /// Applications in this partition.
    pub apps: usize,
    /// Message count, wall-clock solve time and solver counters summed over
    /// the partition's stages (the `stage` index is the partition index).
    /// Under heuristic-first only the message count is filled: the one
    /// placement pass is timed as a whole (`partition_wall_time`).
    pub totals: StageReport,
}

/// Statistics of one conflict-repair round.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// Repair round (0-based).
    pub round: usize,
    /// Applications involved in at least one cross-partition conflict.
    pub conflicting_apps: usize,
    /// Cross-partition conflict pairs detected this round.
    pub conflict_pairs: usize,
    /// Applications re-solved one at a time against the pinned remainder.
    pub resolved_apps: usize,
    /// Applications whose individual re-solve failed and that were
    /// re-solved jointly instead (escalation).
    pub escalated_apps: usize,
    /// Wall-clock time of the round's re-solve(s).
    pub solve_time: Duration,
}

/// The result of a partitioned synthesis.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// The merged, verified synthesis report. Its `stages` list carries one
    /// [`StageReport`] per partition stage plus one per repair solve.
    pub report: SynthesisReport,
    /// Per-partition statistics (empty when the monolithic fallback produced
    /// the result); under a heuristic-first placement, each partition's
    /// application and message counts only.
    pub partitions: Vec<PartitionReport>,
    /// Per-round conflict-repair statistics (none after a heuristic-first
    /// placement: one shared table leaves no conflicts).
    pub repairs: Vec<RepairReport>,
    /// Worker threads available to the partition phase.
    pub threads: usize,
    /// Edges of the application contention graph.
    pub contention_edges: usize,
    /// Contention edges crossing partition boundaries.
    pub cut_edges: usize,
    /// Wall-clock time of the phase that gives every application a schedule:
    /// the shared-table placement, the parallel partition solves, or both
    /// after a heuristic-first fallback.
    pub partition_wall_time: Duration,
    /// Whether the result came from the monolithic fallback path.
    pub monolithic_fallback: bool,
    /// The strategy this report was produced with.
    pub strategy: SynthesisStrategy,
    /// Heuristic-first placement statistics (all zero under
    /// [`SynthesisStrategy::SmtOnly`]).
    pub heuristic: HeuristicStats,
}

impl ScaleReport {
    /// Returns `true` if every application satisfies its stability
    /// condition.
    pub fn all_stable(&self) -> bool {
        self.report.all_stable()
    }
}

/// One partition's solve outcome, produced on a worker thread.
type PartitionOutcome =
    Result<(Vec<MessageSchedule>, PartitionReport, Vec<StageReport>), SynthesisError>;

/// Phase 2's yield: schedules by application, both reports, heuristic stats.
type Placed = (
    Vec<Vec<MessageSchedule>>,
    Vec<PartitionReport>,
    Vec<StageReport>,
    HeuristicStats,
);

/// The partitioned, parallel large-scale synthesizer.
///
/// The solve has three phases:
///
/// 1. **Partition** — applications are grouped by contention
///    ([`plan_partitions`](crate::plan_partitions)) so that most link
///    sharing is intra-partition.
/// 2. **Schedule** — under [`SynthesisStrategy::SmtOnly`] each partition is
///    synthesized independently on a scoped worker thread with its own
///    warm-started [`Model`] and the staging of [`StageEncoder`]. Under
///    [`SynthesisStrategy::HeuristicFirst`] the plan is instead walked once
///    on the calling thread, each application placed first-fit against
///    **one** [`OccupancyTable`] shared by the whole problem, and only those
///    that fit nowhere are re-solved by SMT against everything else pinned.
///    If that residue is infeasible, the placement is dropped and the
///    `SmtOnly` solves run after all: heuristic-first solves whatever
///    SMT-only solves, by construction.
/// 3. **Conflict repair** — the merged schedule is scanned for
///    cross-partition link overlaps; a greedy vertex cover of the conflict
///    graph is re-solved against the *pinned* reservations of every other
///    application (the freeze/pin pattern of the online engine), which
///    resolves all conflicts in one round whenever the re-solve is feasible.
///    A shared-table placement has no overlaps and passes straight through.
///
/// The merged schedule is always checked by [`verify_schedule`] and the
/// result is bit-identical for any thread count.
#[derive(Debug, Clone, Default)]
pub struct ScaleSynthesizer {
    config: ScaleConfig,
}

impl ScaleSynthesizer {
    /// Creates a synthesizer with the given configuration.
    pub fn new(config: ScaleConfig) -> Self {
        ScaleSynthesizer { config }
    }

    /// The configuration of this synthesizer.
    pub fn config(&self) -> &ScaleConfig {
        &self.config
    }

    /// Solves the joint routing and scheduling problem with partitioned
    /// parallel synthesis.
    ///
    /// # Errors
    ///
    /// Same contract as [`Synthesizer::synthesize`]; with
    /// [`ScaleConfig::fallback_monolithic`] disabled, partition or repair
    /// infeasibility surfaces as [`SynthesisError::Unsatisfiable`] /
    /// [`SynthesisError::ResourceLimit`] without the monolithic second
    /// opinion.
    pub fn synthesize(&self, problem: &SynthesisProblem) -> Result<ScaleReport, SynthesisError> {
        let _span = tsn_telemetry::span!("scale.synthesize");
        let start = Instant::now();
        problem.validate()?;
        let candidates = RouteCandidates::generate(problem, self.config.synthesis.route_strategy)?;
        let messages = expand_messages(problem);
        let plan = plan_partitions(problem, &candidates, self.config.target_apps_per_partition);
        let threads = self.resolve_threads(plan.groups.len());

        // Phase 2: the shared-table placement, else (or after it has failed)
        // parallel per-partition solves.
        let partition_start = Instant::now();
        let heuristic_first = self.config.strategy == SynthesisStrategy::HeuristicFirst;
        let placed = heuristic_first
            .then(|| self.place_on_shared_table(problem, &candidates, &messages, &plan))
            .flatten();
        let (mut by_app, partitions, mut stage_reports, heuristic) = match placed {
            Some(placed) => placed,
            None => {
                let outcomes =
                    self.solve_partitions(problem, &candidates, &messages, &plan, threads);
                let mut partitions = Vec::with_capacity(plan.groups.len());
                let mut stage_reports: Vec<StageReport> = Vec::new();
                let mut by_app = vec![Vec::new(); problem.applications().len()];
                let mut failure: Option<SynthesisError> = None;
                for outcome in outcomes {
                    match outcome {
                        Ok((schedules, partition_report, stages)) => {
                            for s in schedules {
                                by_app[s.message.app].push(s);
                            }
                            partitions.push(partition_report);
                            stage_reports.extend(stages);
                        }
                        Err(e) => failure = Some(failure.take().unwrap_or(e)),
                    }
                }
                if let Some(e) = failure {
                    let elapsed = partition_start.elapsed();
                    return self.monolithic_or(problem, start, e, plan, threads, elapsed);
                }
                let heuristic = HeuristicStats {
                    fallback_partitions: if heuristic_first { partitions.len() } else { 0 },
                    ..HeuristicStats::default()
                };
                (by_app, partitions, stage_reports, heuristic)
            }
        };
        let partition_wall_time = partition_start.elapsed();

        // Phase 3: conflict repair. A greedy vertex cover of the conflict
        // graph is repaired one application at a time — each single-app
        // re-solve against the pinned remainder is tiny, and repairing every
        // cover app eliminates every conflict edge (re-solved apps avoid
        // everyone; the remaining apps form an independent set). Only apps
        // whose individual re-solve is infeasible are escalated to one joint
        // solve.
        let mut repairs = Vec::new();
        let mut round = 0usize;
        loop {
            let conflicts = detect_conflicts(problem, &by_app);
            if conflicts.is_empty() {
                break;
            }
            if round >= self.config.max_repair_rounds {
                // Repair rounds count as extra stages past the partitions,
                // so the reported indices stay coherent ("stage N of N").
                let e = SynthesisError::ResourceLimit {
                    stage: plan.groups.len() + round,
                };
                return self.monolithic_or(problem, start, e, plan, threads, partition_wall_time);
            }
            let conflicting = conflicting_apps(&conflicts);
            let cover = vertex_cover(&conflicts);
            let _round_span = tsn_telemetry::span!("scale.repair_round", round);
            let round_start = Instant::now();
            let Some((mut round_stage, escalated_apps)) =
                self.repair_apps(problem, &candidates, &messages, &mut by_app, &cover)
            else {
                let e = SynthesisError::Unsatisfiable {
                    stage: plan.groups.len() + round,
                    stages: plan.groups.len() + round + 1,
                };
                return self.monolithic_or(problem, start, e, plan, threads, partition_wall_time);
            };
            round_stage.solve_time = round_start.elapsed();
            scale_metrics()
                .conflict_repair
                .observe(round_stage.solve_time);
            repairs.push(RepairReport {
                round,
                conflicting_apps: conflicting.len(),
                conflict_pairs: conflicts.len(),
                resolved_apps: cover.len() - escalated_apps,
                escalated_apps,
                solve_time: round_stage.solve_time,
            });
            stage_reports.push(round_stage);
            round += 1;
        }

        // Merge, verify, assemble.
        let mut merged: Vec<MessageSchedule> = by_app.into_iter().flatten().collect();
        merged.sort_by_key(|m| (m.message.release, m.message.app, m.message.instance));
        let schedule = Schedule {
            hyperperiod: problem.hyperperiod(),
            messages: merged,
        };
        verify_schedule(problem, &schedule, self.config.synthesis.mode)
            .map_err(|what| SynthesisError::VerificationFailed { what })?;
        for (i, stage) in stage_reports.iter_mut().enumerate() {
            stage.stage = i;
        }
        let report = SynthesisReport::assemble(problem, schedule, stage_reports, start.elapsed());
        Ok(ScaleReport {
            report,
            partitions,
            repairs,
            threads,
            contention_edges: plan.contention_edges,
            cut_edges: plan.cut_edges,
            partition_wall_time,
            monolithic_fallback: false,
            strategy: self.config.strategy,
            heuristic,
        })
    }

    /// One deterministic first-fit pass over every application, in plan
    /// order, against a single occupancy table, then an SMT repair of the
    /// applications the pass could not place. `None` when that residue is
    /// infeasible against the pinned placement.
    fn place_on_shared_table(
        &self,
        problem: &SynthesisProblem,
        candidates: &RouteCandidates,
        messages: &[MessageInstance],
        plan: &PartitionPlan,
    ) -> Option<Placed> {
        let apps = problem.applications().len();
        let mode = self.config.synthesis.mode;
        let pass_span = tsn_telemetry::span!("scale.heuristic");
        let pass_start = Instant::now();
        let mut instances: Vec<Vec<MessageInstance>> = vec![Vec::new(); apps];
        for m in messages {
            instances[m.app].push(*m);
        }
        let mut occupancy = OccupancyTable::new();
        let mut by_app: Vec<Vec<MessageSchedule>> = vec![Vec::new(); apps];
        let mut residue: Vec<usize> = Vec::new();
        let mut partitions = Vec::with_capacity(plan.groups.len());
        for (partition, group) in plan.groups.iter().enumerate() {
            for &app in group {
                let of_app = &instances[app];
                match place_app(problem, candidates, app, of_app, &mut occupancy, mode) {
                    Some(schedules) => by_app[app] = schedules,
                    None => residue.push(app),
                }
            }
            partitions.push(PartitionReport {
                partition,
                apps: group.len(),
                totals: StageReport {
                    stage: partition,
                    messages: group.iter().map(|&app| instances[app].len()).sum(),
                    ..StageReport::default()
                },
            });
        }
        // The pass is reported as one zero-counter stage, so the merged
        // report still accounts for every message and the placement time.
        let mut stages = vec![StageReport {
            messages: by_app.iter().map(Vec::len).sum(),
            solve_time: pass_start.elapsed(),
            ..StageReport::default()
        }];
        scale_metrics().heuristic.observe(stages[0].solve_time);
        drop(pass_span);
        if !residue.is_empty() {
            residue.sort_unstable();
            let _span = tsn_telemetry::span!("scale.repair");
            let repair_start = Instant::now();
            let (mut stage, _) =
                self.repair_apps(problem, candidates, messages, &mut by_app, &residue)?;
            stage.solve_time = repair_start.elapsed();
            scale_metrics().repair.observe(stage.solve_time);
            stages.push(stage);
        }
        let stats = HeuristicStats {
            placed_apps: apps - residue.len(),
            repaired_apps: residue.len(),
            fallback_partitions: 0,
        };
        Some((by_app, partitions, stages, stats))
    }

    fn resolve_threads(&self, partitions: usize) -> usize {
        let configured = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        configured.min(partitions).max(1)
    }

    /// Solves every partition on a pool of scoped worker threads. Partition
    /// indices are handed out through an atomic cursor; results land in
    /// plan-order slots, so the outcome is independent of scheduling.
    fn solve_partitions(
        &self,
        problem: &SynthesisProblem,
        candidates: &RouteCandidates,
        messages: &[MessageInstance],
        plan: &PartitionPlan,
        threads: usize,
    ) -> Vec<PartitionOutcome> {
        let group_messages: Vec<Vec<MessageInstance>> = plan
            .groups
            .iter()
            .map(|group| {
                messages
                    .iter()
                    .filter(|m| group.binary_search(&m.app).is_ok())
                    .copied()
                    .collect()
            })
            .collect();
        let slots: Mutex<Vec<Option<PartitionOutcome>>> =
            Mutex::new((0..plan.groups.len()).map(|_| None).collect());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= plan.groups.len() {
                        break;
                    }
                    let _span = tsn_telemetry::span!("scale.partition", idx);
                    let timer = Instant::now();
                    let outcome = self.smt_partition(
                        problem,
                        candidates,
                        idx,
                        &plan.groups[idx],
                        &group_messages[idx],
                    );
                    scale_metrics().partition.observe(timer.elapsed());
                    slots.lock().expect("no poisoned workers")[idx] = Some(outcome);
                });
            }
        });
        slots
            .into_inner()
            .expect("scope joined every worker")
            .into_iter()
            .map(|o| o.expect("every slot filled"))
            .collect()
    }

    /// Solves one partition: its messages are staged over the hyper-period
    /// and solved incrementally on a single warm-started model, each stage
    /// pinned before the next (the `tsn_online` freeze/pin pattern applied
    /// offline).
    fn smt_partition(
        &self,
        problem: &SynthesisProblem,
        candidates: &RouteCandidates,
        partition: usize,
        group: &[usize],
        msgs: &[MessageInstance],
    ) -> PartitionOutcome {
        let start = Instant::now();
        let stage_count = self.config.synthesis.stages.max(1);
        let slices = partition_into_stages(msgs, problem.hyperperiod(), stage_count);
        let mut model = Model::new();
        model.set_warm_start(true);
        let mut fixed: Vec<MessageSchedule> = Vec::with_capacity(msgs.len());
        let mut stages = Vec::new();
        for (stage_idx, slice) in slices.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            let stage_start = Instant::now();
            let mut encoder =
                StageEncoder::with_model(problem, candidates, &self.config.synthesis, model);
            encoder.encode(slice, &fixed);
            let (outcome, stats) = encoder.solve(slice);
            let stage_time = stage_start.elapsed();
            stages.push(StageReport::from_stats(0, slice.len(), stage_time, &stats));
            match outcome {
                StageOutcome::Solved(schedules) => {
                    encoder.pin_solution(&schedules);
                    model = encoder.into_model();
                    fixed.extend(schedules);
                }
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
        // The partition totals are by definition the sums over its stage
        // reports — derive them so the two views cannot drift. The wall
        // clock covers encoding too, so it overrides the summed solve time.
        let mut totals = StageReport {
            stage: partition,
            ..StageReport::default()
        };
        for stage in &stages {
            totals.absorb(stage);
        }
        totals.solve_time = start.elapsed();
        Ok((
            fixed,
            PartitionReport {
                partition,
                apps: group.len(),
                totals,
            },
            stages,
        ))
    }

    /// Re-solves `apps` (sorted) one at a time, each against the pinned
    /// schedules of every other application, then jointly those whose own
    /// re-solve failed: together they can reshuffle each other, which
    /// single-application solves cannot. Updates `by_app` and returns the
    /// summed solver statistics and the number of escalated applications;
    /// `None` when the joint escalation fails too.
    fn repair_apps(
        &self,
        problem: &SynthesisProblem,
        candidates: &RouteCandidates,
        messages: &[MessageInstance],
        by_app: &mut [Vec<MessageSchedule>],
        apps: &[usize],
    ) -> Option<(StageReport, usize)> {
        let mut total = StageReport::default();
        let mut failed_apps: Vec<usize> = Vec::new();
        for &app in apps {
            match self.repair_solve(problem, candidates, messages, by_app, &[app]) {
                Some((schedules, stage)) => {
                    by_app[app] = schedules;
                    total.absorb(&stage);
                }
                None => failed_apps.push(app),
            }
        }
        if !failed_apps.is_empty() {
            let (schedules, stage) =
                self.repair_solve(problem, candidates, messages, by_app, &failed_apps)?;
            for &app in &failed_apps {
                by_app[app].clear();
            }
            for s in schedules {
                by_app[s.message.app].push(s);
            }
            total.absorb(&stage);
        }
        Some((total, failed_apps.len()))
    }

    /// Re-solves all messages of `apps` (sorted) jointly against the pinned
    /// reservations of every other application. Returns the schedules (in
    /// message order) and the solver statistics of the batch; `None` when
    /// the re-solve is unsatisfiable or hits its resource limit.
    fn repair_solve(
        &self,
        problem: &SynthesisProblem,
        candidates: &RouteCandidates,
        messages: &[MessageInstance],
        by_app: &[Vec<MessageSchedule>],
        apps: &[usize],
    ) -> Option<(Vec<MessageSchedule>, StageReport)> {
        let current: Vec<MessageInstance> = messages
            .iter()
            .filter(|m| apps.binary_search(&m.app).is_ok())
            .copied()
            .collect();
        let fixed: Vec<MessageSchedule> = by_app
            .iter()
            .enumerate()
            .filter(|(app, _)| apps.binary_search(app).is_err())
            .flat_map(|(_, v)| v.iter().cloned())
            .collect();
        let mut encoder = StageEncoder::new(problem, candidates, &self.config.synthesis);
        encoder.encode(&current, &fixed);
        let (outcome, stats) = encoder.solve(&current);
        match outcome {
            StageOutcome::Solved(schedules) => {
                let stage = StageReport::from_stats(0, current.len(), Duration::ZERO, &stats);
                Some((schedules, stage))
            }
            StageOutcome::Unsatisfiable | StageOutcome::ResourceLimit => None,
        }
    }

    /// Falls back to the monolithic synthesizer, or propagates the
    /// partitioned failure when the fallback is disabled.
    fn monolithic_or(
        &self,
        problem: &SynthesisProblem,
        start: Instant,
        error: SynthesisError,
        plan: PartitionPlan,
        threads: usize,
        partition_wall_time: Duration,
    ) -> Result<ScaleReport, SynthesisError> {
        if !self.config.fallback_monolithic {
            return Err(error);
        }
        let config = SynthesisConfig {
            verify: true,
            ..self.config.synthesis.clone()
        };
        let report = Synthesizer::new(config)
            .synthesize(problem)
            .map_err(|_| error)?;
        let mut report = report;
        report.total_time = start.elapsed();
        Ok(ScaleReport {
            report,
            partitions: Vec::new(),
            repairs: Vec::new(),
            threads,
            contention_edges: plan.contention_edges,
            cut_edges: plan.cut_edges,
            partition_wall_time,
            monolithic_fallback: true,
            strategy: self.config.strategy,
            heuristic: HeuristicStats::default(),
        })
    }
}

/// Detects link-overlap conflicts between applications in the merged
/// schedule, sweeping the same per-link occupancy table
/// ([`tsn_synthesis::link_occupancies`]) the independent verifier checks —
/// so anything the verifier would reject between two applications is found
/// (and repaired) here first. Returns the conflicting application pairs,
/// each ordered `(low, high)` and deduplicated. Only *cross-partition* pairs
/// can actually occur (intra-partition overlaps are excluded by the
/// partition's own encoding, and repair re-solves against everything else
/// pinned), but the scan does not rely on that: any inter-application
/// overlap is reported and repaired.
fn detect_conflicts(
    problem: &SynthesisProblem,
    by_app: &[Vec<MessageSchedule>],
) -> Vec<(usize, usize)> {
    let per_link = tsn_synthesis::link_occupancies(problem, by_app.iter().flatten());
    let mut pairs = std::collections::BTreeSet::new();
    for occupancies in per_link.values() {
        for (i, &(_, end_a, app_a, _)) in occupancies.iter().enumerate() {
            for &(start_b, _, app_b, _) in &occupancies[i + 1..] {
                if start_b >= end_a {
                    break;
                }
                if app_a != app_b {
                    pairs.insert((app_a.min(app_b), app_a.max(app_b)));
                }
            }
        }
    }
    pairs.into_iter().collect()
}

/// The sorted set of applications appearing in any conflict pair.
fn conflicting_apps(pairs: &[(usize, usize)]) -> Vec<usize> {
    let mut apps: Vec<usize> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    apps.sort_unstable();
    apps.dedup();
    apps
}

/// A deterministic greedy vertex cover of the conflict graph: repeatedly
/// takes the application with the most uncovered conflict edges (ties break
/// towards the smaller index). Re-solving a cover leaves the remaining
/// applications pairwise conflict-free, so one feasible joint re-solve of
/// the cover repairs every conflict.
fn vertex_cover(pairs: &[(usize, usize)]) -> Vec<usize> {
    let apps = pairs.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0);
    let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); apps];
    for &(a, b) in pairs {
        neighbours[a].push(b);
        neighbours[b].push(a);
    }
    // Uncovered edges per application, kept current as the cover grows.
    let mut degree: Vec<usize> = neighbours.iter().map(Vec::len).collect();
    let mut cover = Vec::new();
    while let Some(best) = (0..apps)
        .filter(|&app| degree[app] > 0)
        .max_by_key(|&app| (degree[app], std::cmp::Reverse(app)))
    {
        cover.push(best);
        degree[best] = 0;
        for &other in &neighbours[best] {
            // A zero degree marks a cover member: its edges are gone.
            if degree[other] > 0 {
                degree[other] -= 1;
            }
        }
    }
    cover.sort_unstable();
    cover
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_cover_covers_every_edge() {
        let pairs = vec![(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)];
        let cover = vertex_cover(&pairs);
        for (a, b) in &pairs {
            assert!(
                cover.contains(a) || cover.contains(b),
                "edge ({a},{b}) uncovered by {cover:?}"
            );
        }
        assert!(cover.len() <= 4, "greedy cover too large: {cover:?}");
        assert_eq!(cover, vertex_cover(&pairs), "cover is deterministic");
    }

    /// `vertex_cover` as it was before it kept degrees incrementally: the
    /// degrees of all remaining pairs are recounted for every pick.
    fn vertex_cover_reference(pairs: &[(usize, usize)]) -> Vec<usize> {
        let mut remaining: Vec<(usize, usize)> = pairs.to_vec();
        let mut cover = Vec::new();
        while !remaining.is_empty() {
            let mut degree: std::collections::BTreeMap<usize, usize> =
                std::collections::BTreeMap::new();
            for &(a, b) in &remaining {
                *degree.entry(a).or_default() += 1;
                *degree.entry(b).or_default() += 1;
            }
            let best = degree
                .iter()
                .max_by_key(|(app, d)| (**d, std::cmp::Reverse(**app)))
                .map(|(app, _)| *app)
                .expect("non-empty remaining set");
            cover.push(best);
            remaining.retain(|&(a, b)| a != best && b != best);
        }
        cover.sort_unstable();
        cover
    }

    #[test]
    fn incremental_vertex_cover_equals_the_recounting_one_on_random_graphs() {
        // SMT-only re-solves exactly the cover: its counters move with it.
        // 300 xorshift-drawn graphs, sparse to dense, with repeated pairs.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        assert!(vertex_cover(&[]).is_empty());
        for graph in 0..300 {
            let apps = 2 + next(60);
            let edges = 1 + next(apps * (1 + graph % 6));
            let pairs: Vec<(usize, usize)> = (0..edges)
                .map(|_| {
                    let a = next(apps);
                    let b = (a + 1 + next(apps - 1)) % apps;
                    (a.min(b), a.max(b))
                })
                .collect();
            assert_eq!(
                vertex_cover(&pairs),
                vertex_cover_reference(&pairs),
                "graph {graph}: {pairs:?}"
            );
        }
    }

    #[test]
    fn conflicting_apps_flattens_and_dedups() {
        assert_eq!(conflicting_apps(&[(3, 1), (1, 2)]), vec![1, 2, 3]);
        assert!(conflicting_apps(&[]).is_empty());
    }

    #[test]
    fn heuristic_first_solves_the_example_and_reports_placements() {
        use tsn_control::PiecewiseLinearBound;
        use tsn_net::{builders, LinkSpec};

        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut problem = SynthesisProblem::new(net.topology, Time::from_micros(5));
        for i in 0..3 {
            problem
                .add_application(
                    format!("loop-{i}"),
                    net.sensors[i],
                    net.controllers[i],
                    Time::from_millis(10),
                    1500,
                    PiecewiseLinearBound::single_segment(2.0, 0.012),
                )
                .unwrap();
        }
        let config = ScaleConfig {
            target_apps_per_partition: 2,
            threads: 1,
            strategy: SynthesisStrategy::HeuristicFirst,
            fallback_monolithic: false,
            ..ScaleConfig::default()
        };
        let report = ScaleSynthesizer::new(config).synthesize(&problem).unwrap();
        assert!(report.all_stable());
        assert_eq!(report.strategy, SynthesisStrategy::HeuristicFirst);
        assert_eq!(report.report.schedule.messages.len(), 3);
        assert!(report.heuristic.placed_apps + report.heuristic.repaired_apps <= 3);
        if report.heuristic.fallback_partitions == 0 {
            assert_eq!(
                report.heuristic.placed_apps + report.heuristic.repaired_apps,
                3,
                "without fallback, every application is placed or repaired"
            );
        }
        // Partition bookkeeping holds for the heuristic path too.
        let apps: usize = report.partitions.iter().map(|p| p.apps).sum();
        let messages: usize = report.partitions.iter().map(|p| p.totals.messages).sum();
        assert_eq!(apps, 3);
        assert_eq!(messages, 3);
    }

    #[test]
    fn repair_errors_report_coherent_stage_indices() {
        // A repair failure in round r is reported as stage P+r of P+r+1
        // (the repair rounds count as extra stages past the P partitions),
        // so the rendered message never claims "stage 11 of 10".
        let e = SynthesisError::Unsatisfiable {
            stage: 10,
            stages: 11,
        };
        assert!(e.to_string().contains("stage 11 of 11"));
    }
}
