//! The event-driven reconfiguration engine.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use tsn_net::{LinkId, Route, Time, Topology};
use tsn_smt::Model;
use tsn_synthesis::{
    verify_schedule, ControlApplication, MessageInstance, MessageSchedule, RouteCandidates,
    RouteStrategy, Schedule, StageEncoder, StageOutcome, SynthesisConfig, SynthesisProblem,
    SynthesisReport,
};
use tsn_telemetry::{Clock, Histogram, MonotonicClock};

use crate::{AppId, BatchPolicy, BatchReport, Decision, EventReport, NetworkEvent};

/// Always-on latency histograms for event and batch processing; observed
/// once per `process` / batch call from the engine's injected clock.
struct OnlineMetrics {
    event: Histogram,
    batch: Histogram,
}

fn online_metrics() -> &'static OnlineMetrics {
    static METRICS: OnceLock<OnlineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = tsn_telemetry::registry();
        OnlineMetrics {
            event: registry.histogram("online_event_seconds"),
            batch: registry.histogram("online_batch_seconds"),
        }
    })
}

/// Configuration of an [`OnlineEngine`].
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// The synthesis configuration used for every solve: constraint mode,
    /// route strategy and per-solve resource limits. `stages` is ignored
    /// (each event is its own stage) and `verify` is ignored (the engine
    /// always verifies before committing).
    pub synthesis: SynthesisConfig,
    /// Whether a failed incremental admission may fall back to a full
    /// re-synthesis of all loops (disruptive but more complete).
    pub fallback: bool,
    /// Extra candidate routes generated per application while links are
    /// down, so that filtering the failed links still leaves the configured
    /// number of alternatives.
    pub route_slack: usize,
    /// When the warm solver session grows beyond this many clauses it is
    /// dropped and rebuilt cold — bounds memory on long traces.
    pub max_session_clauses: usize,
    /// Garbage-collection threshold of the warm session, as a percentage:
    /// the session is dropped (and rebuilt lazily) once the clauses of
    /// removed or re-solved loops exceed this percentage of the total. The
    /// default of 50 rebuilds when retired clauses outnumber half the
    /// session; smaller values trade warmth for a tighter memory bound.
    /// Since retired clauses can never exceed the session total, any value
    /// of 100 or more disables ratio-triggered collection entirely (the
    /// absolute [`max_session_clauses`](OnlineConfig::max_session_clauses)
    /// bound still applies).
    pub gc_retired_percent: u32,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            synthesis: SynthesisConfig {
                stages: 1,
                verify: false,
                route_strategy: RouteStrategy::KShortest(3),
                // Coarser than the offline default: admission decisions are
                // latency-sensitive, and a 1 ms latency grid keeps per-event
                // solves small while still certifying stability exactly
                // (the grid is sound for any granularity).
                mode: tsn_synthesis::ConstraintMode::StabilityAware {
                    granularity: Time::from_millis(1),
                },
                ..SynthesisConfig::default()
            },
            fallback: true,
            route_slack: 4,
            max_session_clauses: 250_000,
            gc_retired_percent: 50,
        }
    }
}

/// One live (admitted) control loop and its committed reservations.
#[derive(Debug, Clone)]
struct LiveApp {
    id: AppId,
    app: ControlApplication,
    /// Committed schedules of this loop's messages over the *current*
    /// hyper-period; `message.app` equals the loop's current position in the
    /// live list.
    committed: Vec<MessageSchedule>,
    /// Number of clauses this loop's latest pinned batch contributed to the
    /// warm session — retired (and eventually garbage-collected) when the
    /// loop is removed or re-solved.
    session_clauses: usize,
}

/// The engine state the joint batch path may have mutated during its
/// no-solve bookkeeping phase, captured up front so an aborted joint
/// attempt restores the exact pre-batch state before retrying sequentially.
/// The warm solver session is deliberately absent: the joint path only
/// touches it through a scoped probe that pops on rejection, so its clause
/// count is already exact on abort.
struct BatchSnapshot {
    live: Vec<LiveApp>,
    down: BTreeSet<LinkId>,
    next_id: u64,
    retired_clauses: usize,
}

/// One live loop inside a [`SessionSnapshot`]: identity, parameters, and
/// the committed per-message reservations over the snapshot hyper-period.
#[derive(Debug, Clone)]
pub struct SnapshotApp {
    /// The loop's engine-assigned id (stable across migration).
    pub id: AppId,
    /// The control application's parameters.
    pub app: ControlApplication,
    /// Committed message schedules; `message.app` is the loop's position in
    /// the snapshot's app list.
    pub committed: Vec<MessageSchedule>,
    /// Clauses the loop's latest pinned batch contributed to the donor's
    /// warm session (garbage-collection accounting).
    pub session_clauses: usize,
}

/// A complete serializable image of an [`OnlineEngine`]'s observable state:
/// topology, configuration, every live loop's frozen reservations, failed
/// links, and the session bookkeeping (clause totals, retirement counters,
/// event cursor). Produced by [`export_session`](OnlineEngine::export_session)
/// and consumed by [`restore`](OnlineEngine::restore), this is the unit of
/// **warm-session migration**: a tenant's engine moves between daemon shards
/// by shipping its snapshot over the wire (`tsn_online::wire::
/// session_snapshot_to_json`) instead of cold re-solving on arrival.
///
/// The warm solver session travels *with* the snapshot: when the donor held
/// one, [`session`](SessionSnapshot::session) carries the model's complete
/// exported state ([`tsn_smt::ModelState`] — clauses, difference atoms,
/// learned-clause cache, saved phases and activities). Restoring it
/// reproduces the donor's solver bit-for-bit, so a migrated tenant's later
/// solves take exactly the decisions the donor would have taken. A `None`
/// session restores a cold engine that warms up on its next solve.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// The network topology the engine operates on.
    pub topology: Topology,
    /// The switch forwarding delay.
    pub forwarding_delay: Time,
    /// The engine configuration.
    pub config: OnlineConfig,
    /// Every live loop, in admission order.
    pub apps: Vec<SnapshotApp>,
    /// Directed link ids currently failed.
    pub down: Vec<LinkId>,
    /// The next [`AppId`] to assign.
    pub next_id: u64,
    /// Events processed so far (the index of the next report).
    pub events_processed: usize,
    /// Session clauses belonging to removed or re-solved loops.
    pub retired_clauses: usize,
    /// The donor's warm solver session, when one was alive at export time.
    pub session: Option<tsn_smt::ModelState>,
}

/// The online admission-control and reconfiguration engine.
///
/// The engine owns the network topology and a running [`Schedule`], and
/// processes a stream of [`NetworkEvent`]s. Per event it decides whether to
/// *admit* (solving only the new or affected messages against the frozen
/// existing reservations, through [`StageEncoder`]'s incremental machinery
/// on a persistent warm-started [`Model`]), *reject*, or *fall back* to a
/// full re-synthesis, and reports per-event latency, disruption and the
/// stability of every admitted loop.
///
/// Invariants maintained after every event:
///
/// * the committed schedule verifies under the configured constraint mode
///   ([`verify_schedule`]) — events that would break it are rejected;
/// * loops untouched by an event keep their committed routes (`eta`) and
///   release times (`gamma`) bit-identical (modulo hyper-period
///   replication when the hyper-period grows or shrinks);
/// * the engine is fully deterministic: the same event trace always
///   produces the same decisions and schedules.
#[derive(Debug)]
pub struct OnlineEngine {
    topology: Topology,
    forwarding_delay: Time,
    config: OnlineConfig,
    live: Vec<LiveApp>,
    /// Directed link ids currently failed (both directions of a physical
    /// link are always present together).
    down: BTreeSet<LinkId>,
    /// The persistent warm-started solver session, when one is alive.
    session: Option<Model>,
    /// The time source behind every latency field in the reports. The real
    /// monotonic clock by default; tests inject a
    /// [`ManualClock`](tsn_telemetry::ManualClock) via
    /// [`set_clock`](OnlineEngine::set_clock) to make latencies exact.
    clock: Arc<dyn Clock>,
    /// Clauses of the session that belong to removed or re-solved loops.
    /// When they outnumber the live clauses the session is rebuilt — the
    /// garbage-collection that keeps long add/remove traces from growing the
    /// pinned model without bound.
    retired_clauses: usize,
    next_id: u64,
    events_processed: usize,
}

impl OnlineEngine {
    /// Creates an engine over a topology with the given switch forwarding
    /// delay.
    pub fn new(topology: Topology, forwarding_delay: Time, config: OnlineConfig) -> Self {
        OnlineEngine {
            topology,
            forwarding_delay,
            config,
            live: Vec::new(),
            down: BTreeSet::new(),
            session: None,
            clock: Arc::new(MonotonicClock),
            retired_clauses: 0,
            next_id: 0,
            events_processed: 0,
        }
    }

    /// Replaces the engine's time source (used by tests to measure event
    /// latencies against a deterministic clock). Latency fields in
    /// subsequent reports are read from `clock`; nothing else — decisions,
    /// schedules, stability — depends on time.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// The network topology the engine operates on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The engine's configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// The ids of the currently admitted loops, in admission order.
    pub fn live_ids(&self) -> Vec<AppId> {
        self.live.iter().map(|l| l.id).collect()
    }

    /// The committed message schedules of one live loop.
    pub fn committed_of(&self, id: AppId) -> Option<&[MessageSchedule]> {
        self.live
            .iter()
            .find(|l| l.id == id)
            .map(|l| l.committed.as_slice())
    }

    /// The currently failed directed links.
    pub fn down_links(&self) -> Vec<LinkId> {
        self.down.iter().copied().collect()
    }

    /// The current hyper-period (zero when no loop is admitted).
    pub fn hyperperiod(&self) -> Time {
        self.live
            .iter()
            .map(|l| l.app.period)
            .reduce(|a, b| a.lcm(b))
            .unwrap_or(Time::ZERO)
    }

    /// The number of clauses held by the warm solver session (0 when cold).
    pub fn session_clauses(&self) -> usize {
        self.session.as_ref().map_or(0, Model::num_clauses)
    }

    /// The number of session clauses that belong to removed or re-solved
    /// loops, still awaiting garbage collection.
    pub fn retired_session_clauses(&self) -> usize {
        self.retired_clauses
    }

    /// Whether a warm solver session is currently alive.
    pub fn is_warm(&self) -> bool {
        self.session.is_some()
    }

    /// Drops the warm solver session (idle eviction: the memory-pressure
    /// valve of the service layer). The engine stays fully functional — its
    /// committed schedules are untouched — and the next incremental solve
    /// rebuilds a session from scratch, paying one cold solve for the
    /// reclaimed memory.
    pub fn evict_session(&mut self) {
        self.drop_session();
    }

    /// Drops the warm session and resets the retirement accounting (used
    /// when the session is garbage-collected or overflows its size bound).
    fn drop_session(&mut self) {
        self.session = None;
        self.retired_clauses = 0;
        for live in &mut self.live {
            live.session_clauses = 0;
        }
    }

    /// Garbage-collects the warm session when the clauses of removed or
    /// re-solved loops exceed the configured share of the session
    /// ([`OnlineConfig::gc_retired_percent`], 50 by default — retired
    /// clauses outnumbering the live ones): the session is dropped and
    /// rebuilt lazily by the next incremental solve, which re-encodes only
    /// its own batch (live reservations enter later probes as frozen
    /// constants, so nothing needs re-encoding up front). This keeps long
    /// add/remove traces from growing the pinned model without bound while
    /// preserving warmth as long as most of the session is still useful.
    fn maybe_gc_session(&mut self) {
        let total = self.session_clauses();
        let threshold = u128::from(self.config.gc_retired_percent);
        if total > 0 && (self.retired_clauses as u128) * 100 > (total as u128) * threshold {
            self.drop_session();
        }
    }

    /// The current state as a synthesis problem plus committed schedule, or
    /// `None` when no loop is admitted. This is the unit consumed by the
    /// oracle ([`verify_schedule`], `testkit::three_way_check`) and by the
    /// epoch replay of `tsn_sim`.
    pub fn snapshot(&self) -> Option<(SynthesisProblem, Schedule)> {
        if self.live.is_empty() {
            return None;
        }
        Some((self.problem(), self.schedule()))
    }

    /// The current state as a [`SynthesisReport`] (empty stage list, zero
    /// synthesis time), for use with report-shaped oracles.
    pub fn report(&self) -> Option<SynthesisReport> {
        let (problem, schedule) = self.snapshot()?;
        Some(SynthesisReport::assemble(
            &problem,
            schedule,
            Vec::new(),
            std::time::Duration::ZERO,
        ))
    }

    /// Exports the engine's complete observable state as a
    /// [`SessionSnapshot`], without disturbing the engine. See the snapshot
    /// type for the migration contract.
    pub fn export_session(&self) -> SessionSnapshot {
        SessionSnapshot {
            topology: self.topology.clone(),
            forwarding_delay: self.forwarding_delay,
            config: self.config.clone(),
            apps: self
                .live
                .iter()
                .map(|l| SnapshotApp {
                    id: l.id,
                    app: l.app.clone(),
                    committed: l.committed.clone(),
                    session_clauses: l.session_clauses,
                })
                .collect(),
            down: self.down.iter().copied().collect(),
            next_id: self.next_id,
            events_processed: self.events_processed,
            retired_clauses: self.retired_clauses,
            session: self.session.as_ref().map(|m| {
                m.export_state()
                    .expect("session scopes are balanced between events")
            }),
        }
    }

    /// Reconstructs an engine from a snapshot (the receiving end of a
    /// warm-session migration).
    ///
    /// When the snapshot carries a [`session`](SessionSnapshot::session)
    /// the restored engine rebuilds the donor's warm solver from it —
    /// clauses, learned-clause cache, saved phases and activities — so every
    /// future decision (solves, garbage collection, size-bound rebuilds)
    /// tracks the donor engine exactly
    /// (`crates/online/tests/session_migration.rs` proves the per-event
    /// reports bit-identical). The clock is *not* part of the snapshot; the
    /// restored engine starts on the real monotonic clock and callers
    /// inject their own via [`set_clock`](OnlineEngine::set_clock).
    ///
    /// # Errors
    ///
    /// Returns a message when the snapshot is internally inconsistent: an
    /// app that does not validate against the snapshot topology (bad
    /// endpoints or parameters), a duplicate sensor, a failed link id
    /// outside the topology, or a session state whose internal references
    /// are out of range.
    pub fn restore(snapshot: SessionSnapshot) -> Result<Self, String> {
        // Re-validate every loop the way admission would have: the snapshot
        // may come off the wire, so nothing about it is trusted.
        let mut problem =
            SynthesisProblem::new(snapshot.topology.clone(), snapshot.forwarding_delay);
        let mut sensors = BTreeSet::new();
        for entry in &snapshot.apps {
            let a = &entry.app;
            problem
                .add_application(
                    a.name.clone(),
                    a.sensor,
                    a.controller,
                    a.period,
                    a.frame_bytes,
                    a.stability.clone(),
                )
                .map_err(|e| format!("snapshot app {} invalid: {e}", entry.id))?;
            if !sensors.insert(a.sensor) {
                return Err(format!(
                    "snapshot app {} reuses sensor {}",
                    entry.id, a.sensor
                ));
            }
        }
        for link in &snapshot.down {
            if link.index() >= snapshot.topology.link_count() {
                return Err(format!("snapshot failed link {link} outside the topology"));
            }
        }
        let live = snapshot
            .apps
            .into_iter()
            .enumerate()
            .map(|(pos, entry)| {
                let mut committed = entry.committed;
                for m in &mut committed {
                    m.message.app = pos;
                }
                LiveApp {
                    id: entry.id,
                    app: entry.app,
                    committed,
                    session_clauses: entry.session_clauses,
                }
            })
            .collect();
        let session = match snapshot.session {
            Some(state) => Some(
                Model::from_state(state).map_err(|e| format!("snapshot session invalid: {e}"))?,
            ),
            None => None,
        };
        Ok(OnlineEngine {
            topology: snapshot.topology,
            forwarding_delay: snapshot.forwarding_delay,
            config: snapshot.config,
            live,
            down: snapshot.down.into_iter().collect(),
            session,
            clock: Arc::new(MonotonicClock),
            retired_clauses: snapshot.retired_clauses,
            next_id: snapshot.next_id,
            events_processed: snapshot.events_processed,
        })
    }

    /// Processes one event and reports what happened.
    pub fn process(&mut self, event: NetworkEvent) -> EventReport {
        let _span = tsn_telemetry::span!("online.event");
        let start_ns = self.clock.now_ns();
        let index = self.events_processed;
        self.events_processed += 1;
        let warm = self.session.is_some();
        let mut solver_decisions = 0u64;
        let mut solver_conflicts = 0u64;
        let (decision, rescheduled) = match &event {
            NetworkEvent::AdmitApp { app } => {
                self.admit(app.clone(), &mut solver_decisions, &mut solver_conflicts)
            }
            NetworkEvent::RemoveApp { app } => (self.remove(*app), 0),
            NetworkEvent::LinkDown { link } => {
                self.link_down(*link, &mut solver_decisions, &mut solver_conflicts)
            }
            NetworkEvent::LinkUp { link } => (self.link_up(*link), 0),
        };
        if self.session_clauses() > self.config.max_session_clauses {
            self.drop_session();
        }
        // The decision is made; everything below is reporting. Capture the
        // latency here so the admission-latency metric measures the solver
        // work, not the O(loops) stability bookkeeping of the report.
        let latency = self.clock.since_ns(start_ns);
        online_metrics().event.observe(latency);
        let (stable_loops, total_loops) = self.stability_counts();
        EventReport {
            index,
            event,
            decision,
            latency,
            rescheduled,
            stable_loops,
            total_loops,
            solver_decisions,
            solver_conflicts,
            warm,
        }
    }

    /// Processes a whole batch of events with [`BatchPolicy::Joint`]: the
    /// affected-app set is coalesced across the window (the union of loops
    /// touched by every net link failure plus all queued admissions) and
    /// committed with **one** joint incremental solve against the frozen
    /// reservations of untouched loops, so correlated failures are rerouted
    /// jointly instead of loop by loop. Falls back to sequential per-event
    /// processing when the joint solve rejects; either way every event gets
    /// its own [`EventReport`] and the committed state verifies afterwards.
    pub fn process_batch(&mut self, events: Vec<NetworkEvent>) -> BatchReport {
        self.process_batch_with(events, BatchPolicy::Joint)
    }

    /// Processes a batch of events under an explicit [`BatchPolicy`].
    ///
    /// [`BatchPolicy::Sequential`] is bit-identical to calling
    /// [`process`](OnlineEngine::process) once per event (callers batching
    /// opportunistically use it so batch boundaries cannot change any
    /// report); [`BatchPolicy::Joint`] is the coalescing path described on
    /// [`process_batch`](OnlineEngine::process_batch).
    pub fn process_batch_with(
        &mut self,
        events: Vec<NetworkEvent>,
        policy: BatchPolicy,
    ) -> BatchReport {
        let _span = tsn_telemetry::span!("online.batch", events.len());
        let start_ns = self.clock.now_ns();
        if policy == BatchPolicy::Sequential || events.len() <= 1 {
            return self.batch_sequential(events, start_ns, policy == BatchPolicy::Joint);
        }
        let snapshot = BatchSnapshot {
            live: self.live.clone(),
            down: self.down.clone(),
            next_id: self.next_id,
            retired_clauses: self.retired_clauses,
        };
        match self.batch_joint(&events, start_ns) {
            Some(report) => report,
            None => {
                // The joint path aborted before committing anything: phase-1
                // bookkeeping is rolled back exactly and the warm session is
                // untouched (the joint probe popped its scope), so the
                // sequential path starts from the precise pre-batch state.
                self.live = snapshot.live;
                self.down = snapshot.down;
                self.next_id = snapshot.next_id;
                self.retired_clauses = snapshot.retired_clauses;
                self.batch_sequential(events, start_ns, false)
            }
        }
    }

    /// The sequential batch path: one [`process`](OnlineEngine::process)
    /// call per event. `joint` records whether a (trivial) joint commit is
    /// being reported — single-event and empty batches commit through here.
    fn batch_sequential(
        &mut self,
        events: Vec<NetworkEvent>,
        start_ns: u64,
        joint: bool,
    ) -> BatchReport {
        let reports: Vec<EventReport> = events.into_iter().map(|e| self.process(e)).collect();
        let solver_decisions = reports.iter().map(|r| r.solver_decisions).sum();
        let solver_conflicts = reports.iter().map(|r| r.solver_conflicts).sum();
        let latency = self.clock.since_ns(start_ns);
        online_metrics().batch.observe(latency);
        BatchReport {
            reports,
            joint,
            affected_loops: 0,
            queued_admissions: 0,
            latency,
            solver_decisions,
            solver_conflicts,
        }
    }

    /// The joint batch path. Returns `None` when the batch must be retried
    /// sequentially — in that case **no** engine state has leaked: the
    /// caller restores the phase-1 bookkeeping and the warm session was
    /// only touched through a popped solver scope.
    fn batch_joint(&mut self, events: &[NetworkEvent], start_ns: u64) -> Option<BatchReport> {
        let warm = self.session.is_some();
        // Committed schedules stay expressed over the batch-entry
        // hyper-period until the single commit point (removals inside the
        // batch must not truncate bits an admission is about to regrow).
        let entry_hyper = self.hyperperiod();
        // ---- Phase 1: bookkeeping in event order, no solving. ----------
        // Per-event decisions where they can be made without a solve;
        // `None` marks events whose decision awaits the joint solve.
        let mut decisions: Vec<Option<Decision>> = Vec::with_capacity(events.len());
        // Admissions queued for the joint solve: (id, app).
        let mut queued: Vec<(AppId, ControlApplication)> = Vec::new();
        // Which event queued each admission (for attribution).
        let mut queued_events: Vec<usize> = Vec::new();
        // Net-new failed links of this batch, in event order (for
        // attributing rescheduled loops to the first matching failure).
        let mut new_downs: Vec<(usize, LinkId, LinkId)> = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let decision = match event {
                NetworkEvent::AdmitApp { app } => {
                    let id = AppId(self.next_id);
                    self.next_id += 1;
                    let holder = self
                        .live
                        .iter()
                        .map(|l| (l.id, l.app.sensor))
                        .chain(queued.iter().map(|(id, a)| (*id, a.sensor)))
                        .find(|&(_, sensor)| sensor == app.sensor);
                    match holder {
                        Some((holder_id, _)) => Some(Decision::Rejected {
                            app: id,
                            reason: format!(
                                "sensor {} is already used by {}",
                                app.sensor, holder_id
                            ),
                        }),
                        None => {
                            queued.push((id, app.clone()));
                            queued_events.push(i);
                            None
                        }
                    }
                }
                NetworkEvent::RemoveApp { app } => {
                    if queued.iter().any(|(id, _)| id == app) {
                        // An intra-batch removal of a not-yet-solved
                        // admission: the joint path does not model this
                        // dependency — let the sequential path handle it.
                        return None;
                    }
                    Some(self.remove_for_batch(*app))
                }
                NetworkEvent::LinkDown { link } => {
                    if link.index() >= self.topology.link_count() || self.down.contains(link) {
                        Some(Decision::NoOp)
                    } else {
                        let reverse = self.topology.link(*link).reverse();
                        self.down.insert(*link);
                        self.down.insert(reverse);
                        new_downs.push((i, *link, reverse));
                        None
                    }
                }
                NetworkEvent::LinkUp { link } => {
                    if link.index() < self.topology.link_count() && self.down.remove(link) {
                        self.down.remove(&self.topology.link(*link).reverse());
                        Some(Decision::LinkRestored)
                    } else {
                        Some(Decision::NoOp)
                    }
                }
            };
            decisions.push(decision);
        }

        // ---- Phase 2: the coalesced affected set (net link churn). ------
        // Routes of every surviving loop before the solve (attribution and
        // the affected test both look at the *old* routes).
        let affected: Vec<usize> = self
            .live
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.committed
                    .iter()
                    .any(|m| m.route.links().iter().any(|link| self.down.contains(link)))
            })
            .map(|(pos, _)| pos)
            .collect();
        let affected_loops = affected.len();
        let queued_admissions = queued.len();

        if affected.is_empty() && queued.is_empty() {
            // Pure bookkeeping: removals, link churn touching no committed
            // route, rejections. Re-express the survivors over the (only
            // possibly smaller) post-removal hyper-period and commit
            // phase 1 as-is.
            let hyper = self.hyperperiod();
            for live in &mut self.live {
                live.committed = expand_via(&live.committed, live.app.period, entry_hyper, hyper);
            }
            for (i, _, _) in &new_downs {
                decisions[*i] = Some(Decision::Rerouted {
                    rescheduled: Vec::new(),
                    evicted: Vec::new(),
                });
            }
            self.maybe_gc_session();
            return Some(self.assemble_batch(
                events,
                decisions,
                true,
                (affected_loops, queued_admissions),
                (0, 0),
                warm,
                start_ns,
            ));
        }

        // ---- Phase 3: one joint incremental solve. ----------------------
        let old_hyper = entry_hyper;
        let mut problem = SynthesisProblem::new(self.topology.clone(), self.forwarding_delay);
        for live in &self.live {
            let a = &live.app;
            problem
                .add_application(
                    a.name.clone(),
                    a.sensor,
                    a.controller,
                    a.period,
                    a.frame_bytes,
                    a.stability.clone(),
                )
                .ok()?;
        }
        for (_, app) in &queued {
            problem
                .add_application(
                    app.name.clone(),
                    app.sensor,
                    app.controller,
                    app.period,
                    app.frame_bytes,
                    app.stability.clone(),
                )
                .ok()?;
        }
        let new_hyper = problem.hyperperiod();
        // `expand_via` passes through the lcm of both hyper-periods, which
        // also counts the periods this batch removed. Where that overflows,
        // the sequential path (one hyper-period change at a time) decides.
        if old_hyper > Time::ZERO {
            old_hyper.checked_lcm(new_hyper)?;
        }

        let mut needed: Vec<usize> = affected.clone();
        needed.extend(self.live.len()..self.live.len() + queued.len());
        let candidates = self.build_candidates(&problem, &needed).ok()?;

        let mut current: Vec<MessageInstance> = Vec::new();
        for &pos in &affected {
            current.extend(app_messages(pos, self.live[pos].app.period, new_hyper));
        }
        for (k, (_, app)) in queued.iter().enumerate() {
            current.extend(app_messages(self.live.len() + k, app.period, new_hyper));
        }
        let fixed: Vec<MessageSchedule> = self
            .live
            .iter()
            .enumerate()
            .filter(|(pos, _)| !affected.contains(pos))
            .flat_map(|(_, l)| expand_via(&l.committed, l.app.period, old_hyper, new_hyper))
            .collect();

        let mut solver_decisions = 0u64;
        let mut solver_conflicts = 0u64;
        let mode = self.config.synthesis.mode;
        let (schedules, added) = self.solve_incremental(
            &problem,
            &candidates,
            &current,
            &fixed,
            &mut solver_decisions,
            &mut solver_conflicts,
            |schedules| {
                let mut messages = fixed.clone();
                messages.extend(schedules.iter().cloned());
                verify_tentative(&problem, new_hyper, messages, mode)
            },
        )?;

        // ---- Phase 4: commit and attribute. -----------------------------
        let mut per_app: Vec<Vec<MessageSchedule>> =
            vec![Vec::new(); self.live.len() + queued.len()];
        for schedule in schedules {
            per_app[schedule.message.app].push(schedule);
        }
        for v in &mut per_app {
            v.sort_by_key(|m| m.message.instance);
        }
        // The joint batch is pinned as one clause block; attribute it
        // evenly across its members for the GC accounting (same policy as
        // a full re-synthesis).
        let share = added
            .checked_div(affected.len() + queued.len())
            .unwrap_or(0);
        // Disruption per rescheduled existing loop, attributed to the first
        // net-new LinkDown whose link its old route used.
        let mut rescheduled_by_event: BTreeMap<usize, (Vec<AppId>, usize)> = BTreeMap::new();
        for &pos in &affected {
            let old_route_links: Vec<LinkId> = self.live[pos]
                .committed
                .first()
                .map(|m| m.route.links().to_vec())
                .unwrap_or_default();
            let event_index = new_downs
                .iter()
                .find(|(_, link, reverse)| {
                    old_route_links.contains(link) || old_route_links.contains(reverse)
                })
                .map(|(i, _, _)| *i)
                .or_else(|| new_downs.first().map(|(i, _, _)| *i));
            let baseline = expand_via(
                &self.live[pos].committed,
                self.live[pos].app.period,
                old_hyper,
                new_hyper,
            );
            let changed = count_changed(&baseline, &per_app[pos]);
            if let Some(i) = event_index {
                let entry = rescheduled_by_event.entry(i).or_default();
                if changed > 0 {
                    entry.0.push(self.live[pos].id);
                }
                entry.1 += changed;
            }
            self.retired_clauses += self.live[pos].session_clauses;
        }
        for (pos, live) in self.live.iter_mut().enumerate() {
            if affected.contains(&pos) {
                live.committed = per_app[pos].clone();
                live.session_clauses = share;
            } else {
                live.committed = expand_via(&live.committed, live.app.period, old_hyper, new_hyper);
            }
        }
        for (k, (id, app)) in queued.into_iter().enumerate() {
            let pos = self.live.len();
            debug_assert_eq!(pos, per_app.len() - queued_admissions + k);
            self.live.push(LiveApp {
                id,
                app,
                committed: per_app[pos].clone(),
                session_clauses: share,
            });
            decisions[queued_events[k]] = Some(Decision::Admitted { app: id });
        }
        for (i, _, _) in &new_downs {
            let (rescheduled, _) = rescheduled_by_event.get(i).cloned().unwrap_or_default();
            decisions[*i] = Some(Decision::Rerouted {
                rescheduled,
                evicted: Vec::new(),
            });
        }
        self.maybe_gc_session();
        if self.session_clauses() > self.config.max_session_clauses {
            self.drop_session();
        }
        let mut report = self.assemble_batch(
            events,
            decisions,
            true,
            (affected_loops, queued_admissions),
            (solver_decisions, solver_conflicts),
            warm,
            start_ns,
        );
        for (i, (_, changed)) in rescheduled_by_event {
            report.reports[i].rescheduled = changed;
        }
        Some(report)
    }

    /// Turns phase-1/phase-4 decisions into a [`BatchReport`], assigning
    /// event indices and the post-batch stability counts.
    #[allow(clippy::too_many_arguments)]
    fn assemble_batch(
        &mut self,
        events: &[NetworkEvent],
        decisions: Vec<Option<Decision>>,
        joint: bool,
        (affected_loops, queued_admissions): (usize, usize),
        (solver_decisions, solver_conflicts): (u64, u64),
        warm: bool,
        start_ns: u64,
    ) -> BatchReport {
        let latency = self.clock.since_ns(start_ns);
        online_metrics().batch.observe(latency);
        let per_event = latency
            .checked_div(events.len().max(1) as u32)
            .unwrap_or(Duration::ZERO);
        let (stable_loops, total_loops) = self.stability_counts();
        let reports: Vec<EventReport> = events
            .iter()
            .zip(decisions)
            .map(|(event, decision)| {
                let index = self.events_processed;
                self.events_processed += 1;
                EventReport {
                    index,
                    event: event.clone(),
                    decision: decision.expect("every event decided by commit time"),
                    latency: per_event,
                    rescheduled: 0,
                    stable_loops,
                    total_loops,
                    solver_decisions: 0,
                    solver_conflicts: 0,
                    warm,
                }
            })
            .collect();
        BatchReport {
            reports,
            joint,
            affected_loops,
            queued_admissions,
            latency,
            solver_decisions,
            solver_conflicts,
        }
    }

    /// Processes a whole trace, returning one report per event.
    pub fn run_trace(
        &mut self,
        events: impl IntoIterator<Item = NetworkEvent>,
    ) -> Vec<EventReport> {
        events.into_iter().map(|e| self.process(e)).collect()
    }

    // ------------------------------------------------------------------
    // Event handlers.
    // ------------------------------------------------------------------

    fn admit(
        &mut self,
        app: ControlApplication,
        decisions: &mut u64,
        conflicts: &mut u64,
    ) -> (Decision, usize) {
        let id = AppId(self.next_id);
        self.next_id += 1;
        let reject = |reason: String| (Decision::Rejected { app: id, reason }, 0);

        // A sensor end station has one port and messages leave it exactly at
        // their release times, so two loops on one sensor always collide at
        // instant zero of the hyper-period.
        if let Some(holder) = self.live.iter().find(|l| l.app.sensor == app.sensor) {
            return reject(format!(
                "sensor {} is already used by {}",
                app.sensor, holder.id
            ));
        }

        // Build the prospective problem (validates endpoints and parameters).
        let mut problem = SynthesisProblem::new(self.topology.clone(), self.forwarding_delay);
        for live in &self.live {
            let a = &live.app;
            if let Err(e) = problem.add_application(
                a.name.clone(),
                a.sensor,
                a.controller,
                a.period,
                a.frame_bytes,
                a.stability.clone(),
            ) {
                return reject(format!("internal: live loop no longer valid: {e}"));
            }
        }
        let new_pos = self.live.len();
        if let Err(e) = problem.add_application(
            app.name.clone(),
            app.sensor,
            app.controller,
            app.period,
            app.frame_bytes,
            app.stability.clone(),
        ) {
            return reject(e.to_string());
        }

        let old_hyper = self.hyperperiod();
        let new_hyper = problem.hyperperiod();
        let fixed: Vec<MessageSchedule> = self
            .live
            .iter()
            .flat_map(|l| expand_committed(&l.committed, l.app.period, old_hyper, new_hyper))
            .collect();
        let current = app_messages(new_pos, app.period, new_hyper);

        let candidates = match self.build_candidates(&problem, &[new_pos]) {
            Ok(c) => c,
            Err(reason) => return reject(reason),
        };

        // Incremental probe on the warm session.
        let mode = self.config.synthesis.mode;
        let solved = self.solve_incremental(
            &problem,
            &candidates,
            &current,
            &fixed,
            decisions,
            conflicts,
            |schedules| {
                let mut messages = fixed.clone();
                messages.extend(schedules.iter().cloned());
                verify_tentative(&problem, new_hyper, messages, mode)
            },
        );
        if let Some((schedules, added)) = solved {
            // Commit: replace the live apps' schedules with their expanded
            // forms and append the newcomer.
            for live in &mut self.live {
                live.committed =
                    expand_committed(&live.committed, live.app.period, old_hyper, new_hyper);
            }
            self.live.push(LiveApp {
                id,
                app,
                committed: schedules,
                session_clauses: added,
            });
            return (Decision::Admitted { app: id }, 0);
        }

        if !self.config.fallback {
            return reject("incremental admission infeasible".to_string());
        }

        // Fallback: joint cold re-synthesis of every loop.
        let all_candidates = match self.build_candidates(&problem, &all_positions(new_pos + 1)) {
            Ok(c) => c,
            Err(reason) => return reject(reason),
        };
        let all_messages = tsn_synthesis::expand_messages(&problem);
        match self.solve_cold(
            &problem,
            &all_candidates,
            &all_messages,
            decisions,
            conflicts,
        ) {
            Some(schedules) => {
                if verify_tentative(
                    &problem,
                    new_hyper,
                    schedules.clone(),
                    self.config.synthesis.mode,
                )
                .is_none()
                {
                    // The cold solve already replaced the warm session with
                    // a model pinning the now-rejected placements; keeping
                    // it would contradict the retained committed schedules
                    // in every later probe. Drop it and rebuild lazily.
                    self.drop_session();
                    return reject("full re-synthesis produced an unverifiable schedule".into());
                }
                let (disrupted, _) =
                    self.commit_full(new_hyper, old_hyper, schedules, Some((id, app)));
                (Decision::AdmittedFallback { app: id }, disrupted)
            }
            None => reject("admission infeasible even with full re-synthesis".to_string()),
        }
    }

    fn remove(&mut self, id: AppId) -> Decision {
        let decision = self.remove_inner(id);
        self.maybe_gc_session();
        decision
    }

    /// Removal without the garbage-collection check — the joint batch path
    /// defers GC to its commit point so an aborted batch can restore the
    /// retirement accounting exactly (GC drops the session, which cannot be
    /// un-dropped).
    fn remove_inner(&mut self, id: AppId) -> Decision {
        let Some(pos) = self.live.iter().position(|l| l.id == id) else {
            return Decision::UnknownApp { app: id };
        };
        let old_hyper = self.hyperperiod();
        let removed = self.live.remove(pos);
        self.retired_clauses += removed.session_clauses;
        let new_hyper = self.hyperperiod();
        for (new_pos, live) in self.live.iter_mut().enumerate() {
            let mut committed =
                expand_committed(&live.committed, live.app.period, old_hyper, new_hyper);
            for m in &mut committed {
                m.message.app = new_pos;
            }
            live.committed = committed;
        }
        Decision::Removed { app: id }
    }

    /// Removal for the joint batch path: retires the loop and renumbers the
    /// survivors' message positions, but leaves their committed schedules
    /// expressed over the batch-entry hyper-period. A sequential removal
    /// truncates immediately; inside a batch that would destroy schedule
    /// bits a queued admission is about to need again (the hyper-period
    /// regrows at the joint commit), so reconciliation happens exactly once
    /// — at the commit, via [`expand_via`].
    fn remove_for_batch(&mut self, id: AppId) -> Decision {
        let Some(pos) = self.live.iter().position(|l| l.id == id) else {
            return Decision::UnknownApp { app: id };
        };
        let removed = self.live.remove(pos);
        self.retired_clauses += removed.session_clauses;
        for (new_pos, live) in self.live.iter_mut().enumerate() {
            for m in &mut live.committed {
                m.message.app = new_pos;
            }
        }
        Decision::Removed { app: id }
    }

    fn link_down(
        &mut self,
        link: LinkId,
        decisions: &mut u64,
        conflicts: &mut u64,
    ) -> (Decision, usize) {
        if link.index() >= self.topology.link_count() {
            return (Decision::NoOp, 0);
        }
        let reverse = self.topology.link(link).reverse();
        if self.down.contains(&link) {
            return (Decision::NoOp, 0);
        }
        self.down.insert(link);
        self.down.insert(reverse);

        let affected: Vec<usize> = self
            .live
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                l.committed
                    .iter()
                    .any(|m| m.route.contains_link(link) || m.route.contains_link(reverse))
            })
            .map(|(pos, _)| pos)
            .collect();
        if affected.is_empty() {
            return (
                Decision::Rerouted {
                    rescheduled: Vec::new(),
                    evicted: Vec::new(),
                },
                0,
            );
        }

        let problem = self.problem();
        let hyper = self.hyperperiod();
        // Tentative reservation table: affected loops are cleared and
        // re-solved one at a time against everything already placed.
        let mut placed: Vec<Option<Vec<MessageSchedule>>> = self
            .live
            .iter()
            .map(|l| Some(l.committed.clone()))
            .collect();
        for &pos in &affected {
            placed[pos] = None;
        }
        let mut rescheduled_ids = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        let mut added_by_pos: Vec<usize> = vec![0; self.live.len()];
        for &pos in &affected {
            let current = app_messages(pos, self.live[pos].app.period, hyper);
            let fixed: Vec<MessageSchedule> = placed
                .iter()
                .flatten()
                .flat_map(|v| v.iter().cloned())
                .collect();
            let candidates = match self.build_candidates(&problem, &[pos]) {
                Ok(c) => c,
                Err(_) => {
                    failed.push(pos);
                    continue;
                }
            };
            let solved = self.solve_incremental(
                &problem,
                &candidates,
                &current,
                &fixed,
                decisions,
                conflicts,
                |_| Some(()),
            );
            match solved {
                Some((schedules, added)) => {
                    rescheduled_ids.push(self.live[pos].id);
                    placed[pos] = Some(schedules);
                    added_by_pos[pos] = added;
                }
                None => failed.push(pos),
            }
        }

        if failed.is_empty() {
            // Verify the reassembled state before committing.
            let messages: Vec<MessageSchedule> = placed
                .iter()
                .flatten()
                .flat_map(|v| v.iter().cloned())
                .collect();
            if verify_tentative(&problem, hyper, messages, self.config.synthesis.mode).is_some() {
                let mut disrupted = 0usize;
                for (pos, schedules) in placed.into_iter().enumerate() {
                    let schedules = schedules.expect("no failures");
                    disrupted += count_changed(&self.live[pos].committed, &schedules);
                    self.live[pos].committed = schedules;
                    if affected.contains(&pos) {
                        // The loop's previous pinned batch is now garbage.
                        self.retired_clauses += self.live[pos].session_clauses;
                        self.live[pos].session_clauses = added_by_pos[pos];
                    }
                }
                self.maybe_gc_session();
                return (
                    Decision::Rerouted {
                        rescheduled: rescheduled_ids,
                        evicted: Vec::new(),
                    },
                    disrupted,
                );
            }
            // A cross-loop inconsistency slipped through (should not happen:
            // each batch was solved against the full frozen set). The
            // per-loop re-solves pinned placements we are now abandoning, so
            // the session contradicts the state we keep — drop it. Fall
            // through to the joint path, then to eviction.
            self.drop_session();
            added_by_pos = vec![0; self.live.len()];
            failed = affected.clone();
        }

        // Joint fallback: re-synthesize everything on the surviving links.
        if self.config.fallback {
            if let Ok(all_candidates) =
                self.build_candidates(&problem, &all_positions(self.live.len()))
            {
                let all_messages = tsn_synthesis::expand_messages(&problem);
                if let Some(schedules) = self.solve_cold(
                    &problem,
                    &all_candidates,
                    &all_messages,
                    decisions,
                    conflicts,
                ) {
                    // The cold solve replaced the session wholesale; any
                    // batches the per-loop re-solves pinned died with it.
                    added_by_pos = vec![0; self.live.len()];
                    if verify_tentative(
                        &problem,
                        hyper,
                        schedules.clone(),
                        self.config.synthesis.mode,
                    )
                    .is_some()
                    {
                        // A joint re-synthesis may move *any* loop, not just
                        // the affected ones; report exactly the loops whose
                        // reservations actually changed so the untouched
                        // invariant stays accurate.
                        let (disrupted, moved) = self.commit_full(hyper, hyper, schedules, None);
                        return (
                            Decision::Rerouted {
                                rescheduled: moved,
                                evicted: Vec::new(),
                            },
                            disrupted,
                        );
                    }
                    // Unverifiable joint schedule: the fresh session pins
                    // placements we are not keeping.
                    self.drop_session();
                }
            }
        }

        // Eviction: drop the loops that could not be saved, keep the rest.
        let evicted_ids: Vec<AppId> = failed.iter().map(|&p| self.live[p].id).collect();
        rescheduled_ids.retain(|id| !evicted_ids.contains(id));
        let mut disrupted = 0usize;
        // Commit the successful reschedules first (indices still valid).
        for &pos in &affected {
            if failed.contains(&pos) {
                continue;
            }
            if let Some(schedules) = placed[pos].take() {
                disrupted += count_changed(&self.live[pos].committed, &schedules);
                self.live[pos].committed = schedules;
                self.retired_clauses += self.live[pos].session_clauses;
                self.live[pos].session_clauses = added_by_pos[pos];
            }
        }
        for id in &evicted_ids {
            self.remove(*id);
        }
        self.maybe_gc_session();
        (
            Decision::Rerouted {
                rescheduled: rescheduled_ids,
                evicted: evicted_ids,
            },
            disrupted,
        )
    }

    fn link_up(&mut self, link: LinkId) -> Decision {
        if link.index() >= self.topology.link_count() {
            return Decision::NoOp;
        }
        let reverse = self.topology.link(link).reverse();
        if !self.down.remove(&link) {
            return Decision::NoOp;
        }
        self.down.remove(&reverse);
        Decision::LinkRestored
    }

    // ------------------------------------------------------------------
    // Solving helpers.
    // ------------------------------------------------------------------

    /// Runs an incremental probe on the warm session: push a scope, encode
    /// `current` against `fixed`, solve, and ask `accept` whether the
    /// solution may be committed. On acceptance the solution is pinned into
    /// the session (so later events treat it as frozen), the scope is kept
    /// and the number of clauses the batch added is returned alongside the
    /// schedules (for the session's garbage-collection accounting);
    /// otherwise the scope is popped and the session is unchanged.
    #[allow(clippy::too_many_arguments)]
    fn solve_incremental<T>(
        &mut self,
        problem: &SynthesisProblem,
        candidates: &RouteCandidates,
        current: &[MessageInstance],
        fixed: &[MessageSchedule],
        decisions: &mut u64,
        conflicts: &mut u64,
        accept: impl FnOnce(&[MessageSchedule]) -> Option<T>,
    ) -> Option<(Vec<MessageSchedule>, usize)> {
        let mut model = self.session.take().unwrap_or_else(|| {
            let mut m = Model::new();
            m.set_warm_start(true);
            m
        });
        let clauses_before = model.num_clauses();
        model.push();
        let mut encoder =
            StageEncoder::with_model(problem, candidates, &self.config.synthesis, model);
        encoder.encode(current, fixed);
        let (outcome, stats) = encoder.solve(current);
        *decisions += stats.decisions;
        *conflicts += stats.conflicts;
        let accepted = match outcome {
            StageOutcome::Solved(schedules) => {
                if accept(&schedules).is_some() {
                    encoder.pin_solution(&schedules);
                    Some(schedules)
                } else {
                    None
                }
            }
            StageOutcome::Unsatisfiable | StageOutcome::ResourceLimit => None,
        };
        let mut model = encoder.into_model();
        let result = if let Some(schedules) = accepted {
            model.commit();
            let added = model.num_clauses().saturating_sub(clauses_before);
            Some((schedules, added))
        } else {
            model.pop();
            None
        };
        self.session = Some(model);
        result
    }

    /// Joint cold solve of a full message set on a fresh model. On success
    /// the fresh model (with the solution pinned) becomes the new session.
    fn solve_cold(
        &mut self,
        problem: &SynthesisProblem,
        candidates: &RouteCandidates,
        messages: &[MessageInstance],
        decisions: &mut u64,
        conflicts: &mut u64,
    ) -> Option<Vec<MessageSchedule>> {
        let mut model = Model::new();
        model.set_warm_start(true);
        let mut encoder =
            StageEncoder::with_model(problem, candidates, &self.config.synthesis, model);
        encoder.encode(messages, &[]);
        let (outcome, stats) = encoder.solve(messages);
        *decisions += stats.decisions;
        *conflicts += stats.conflicts;
        match outcome {
            StageOutcome::Solved(schedules) => {
                encoder.pin_solution(&schedules);
                model = encoder.into_model();
                self.session = Some(model);
                Some(schedules)
            }
            _ => None,
        }
    }

    /// Commits a full re-synthesis result, optionally appending a newly
    /// admitted loop. Returns the number of previously committed messages
    /// that changed plus the ids of the pre-existing loops they belong to.
    fn commit_full(
        &mut self,
        new_hyper: Time,
        old_hyper: Time,
        schedules: Vec<MessageSchedule>,
        newcomer: Option<(AppId, ControlApplication)>,
    ) -> (usize, Vec<AppId>) {
        let mut per_app: Vec<Vec<MessageSchedule>> =
            vec![Vec::new(); self.live.len() + usize::from(newcomer.is_some())];
        for schedule in schedules {
            per_app[schedule.message.app].push(schedule);
        }
        for v in &mut per_app {
            v.sort_by_key(|m| m.message.instance);
        }
        let mut disrupted = 0usize;
        let mut moved = Vec::new();
        for (live, fresh) in self.live.iter_mut().zip(per_app.iter()) {
            let baseline = expand_committed(&live.committed, live.app.period, old_hyper, new_hyper);
            let changed = count_changed(&baseline, fresh);
            if changed > 0 {
                moved.push(live.id);
            }
            disrupted += changed;
            live.committed = fresh.clone();
        }
        if let Some((id, app)) = newcomer {
            self.live.push(LiveApp {
                id,
                app,
                committed: per_app.last().cloned().unwrap_or_default(),
                session_clauses: 0,
            });
        }
        // The cold session encodes every loop as one joint batch; attribute
        // its clauses evenly so later removals retire a fair share.
        self.retired_clauses = 0;
        let share = self
            .session_clauses()
            .checked_div(self.live.len())
            .unwrap_or(0);
        for live in &mut self.live {
            live.session_clauses = share;
        }
        (disrupted, moved)
    }

    // ------------------------------------------------------------------
    // State assembly.
    // ------------------------------------------------------------------

    fn problem(&self) -> SynthesisProblem {
        let mut problem = SynthesisProblem::new(self.topology.clone(), self.forwarding_delay);
        for live in &self.live {
            let a = &live.app;
            problem
                .add_application(
                    a.name.clone(),
                    a.sensor,
                    a.controller,
                    a.period,
                    a.frame_bytes,
                    a.stability.clone(),
                )
                .expect("live applications were validated at admission");
        }
        problem
    }

    fn schedule(&self) -> Schedule {
        let mut messages: Vec<MessageSchedule> = self
            .live
            .iter()
            .flat_map(|l| l.committed.iter().cloned())
            .collect();
        messages.sort_by_key(|m| (m.message.release, m.message.app, m.message.instance));
        Schedule {
            hyperperiod: self.hyperperiod(),
            messages,
        }
    }

    fn stability_counts(&self) -> (usize, usize) {
        if self.live.is_empty() {
            return (0, 0);
        }
        let problem = self.problem();
        let schedule = self.schedule();
        (schedule.stable_application_count(&problem), self.live.len())
    }

    /// Builds route candidates: the positions in `needed` get (filtered)
    /// generated routes, every other live loop keeps its committed route as
    /// the sole candidate (enough for the encoder, which only reads the
    /// candidates of messages it schedules).
    fn build_candidates(
        &self,
        problem: &SynthesisProblem,
        needed: &[usize],
    ) -> Result<RouteCandidates, String> {
        let apps = problem.applications();
        let mut per_app: Vec<Vec<Route>> = Vec::with_capacity(apps.len());
        for (pos, app) in apps.iter().enumerate() {
            if !needed.contains(&pos) {
                let committed_route = self
                    .live
                    .get(pos)
                    .and_then(|l| l.committed.first())
                    .map(|m| m.route.clone());
                per_app.push(committed_route.into_iter().collect());
                continue;
            }
            let routes = self
                .generate_routes(app.sensor, app.controller)
                .map_err(|e| format!("no route for {}: {e}", app.name))?;
            if routes.is_empty() {
                return Err(format!(
                    "no route for {} avoids the {} failed links",
                    app.name,
                    self.down.len()
                ));
            }
            per_app.push(routes);
        }
        Ok(RouteCandidates::from_routes(per_app))
    }

    fn generate_routes(
        &self,
        sensor: tsn_net::NodeId,
        controller: tsn_net::NodeId,
    ) -> Result<Vec<Route>, tsn_net::NetError> {
        let mut routes = match self.config.synthesis.route_strategy {
            RouteStrategy::KShortest(k) => {
                let want = k.max(1)
                    + if self.down.is_empty() {
                        0
                    } else {
                        self.config.route_slack
                    };
                let generated = self.topology.k_shortest_routes(sensor, controller, want)?;
                let mut kept: Vec<Route> = generated
                    .into_iter()
                    .filter(|r| self.route_is_up(r))
                    .collect();
                kept.truncate(k.max(1));
                kept
            }
            RouteStrategy::AllSimple {
                max_hops,
                max_routes,
            } => self
                .topology
                .all_simple_routes(sensor, controller, max_hops, max_routes)?
                .into_iter()
                .filter(|r| self.route_is_up(r))
                .collect(),
        };
        routes.dedup();
        Ok(routes)
    }

    fn route_is_up(&self, route: &Route) -> bool {
        self.down.is_empty() || route.links().iter().all(|l| !self.down.contains(l))
    }
}

/// The message instances of application `pos` (period `period`) over one
/// hyper-period.
fn app_messages(pos: usize, period: Time, hyper: Time) -> Vec<MessageInstance> {
    let count = if hyper == Time::ZERO {
        0
    } else {
        hyper / period
    };
    (0..count)
        .map(|j| MessageInstance {
            app: pos,
            instance: j as usize,
            release: period * j,
        })
        .collect()
}

fn all_positions(count: usize) -> Vec<usize> {
    (0..count).collect()
}

/// Re-expresses one loop's committed schedules over a new hyper-period.
///
/// Growth (`new` a multiple of `old`) replicates every instance with a
/// release shift of `k * old` per replica — sound because transmissions
/// never cross hyper-period boundaries, so shifted replicas can only touch
/// at boundary instants, which end-exclusive occupancy permits. Shrink
/// (`old` a multiple of `new`) keeps the instances released before `new`.
fn expand_committed(
    committed: &[MessageSchedule],
    period: Time,
    old: Time,
    new: Time,
) -> Vec<MessageSchedule> {
    if old == new || committed.is_empty() {
        return committed.to_vec();
    }
    if new > old {
        debug_assert_eq!(new % old, Time::ZERO, "hyper-periods stay lcm-nested");
        let replicas = new / old;
        let per_old = (old / period) as usize;
        let mut out = Vec::with_capacity(committed.len() * replicas as usize);
        for k in 0..replicas {
            let offset = old * k;
            for m in committed {
                let mut m = m.clone();
                m.message.instance += k as usize * per_old;
                m.message.release += offset;
                for entry in &mut m.link_release {
                    entry.1 += offset;
                }
                out.push(m);
            }
        }
        out.sort_by_key(|m| m.message.instance);
        out
    } else {
        debug_assert_eq!(old % new, Time::ZERO, "hyper-periods stay lcm-nested");
        committed
            .iter()
            .filter(|m| m.message.release < new)
            .cloned()
            .collect()
    }
}

/// Re-expresses committed schedules across two hyper-periods that need not
/// be lcm-nested, going through their lcm: grow first (replication, which
/// preserves every bit of the `from` window), then shrink (truncation,
/// which keeps every bit below `to`). This is the batch-commit path — a
/// batch may remove the loop that dominated the hyper-period *and* admit
/// one that regrows it, and the net expansion must preserve the bits of
/// every instance that survives.
fn expand_via(
    committed: &[MessageSchedule],
    period: Time,
    from: Time,
    to: Time,
) -> Vec<MessageSchedule> {
    if from == to || committed.is_empty() {
        return committed.to_vec();
    }
    let mid = from.lcm(to);
    if mid == from {
        return expand_committed(committed, period, from, to);
    }
    let grown = expand_committed(committed, period, from, mid);
    expand_committed(&grown, period, mid, to)
}

/// Counts messages of `before` whose route or timing differs in `after`
/// (matched by instance), plus instances present on one side only.
fn count_changed(before: &[MessageSchedule], after: &[MessageSchedule]) -> usize {
    let mut changed = 0usize;
    let find = |instance: usize, set: &[MessageSchedule]| -> Option<MessageSchedule> {
        set.iter().find(|m| m.message.instance == instance).cloned()
    };
    for b in before {
        match find(b.message.instance, after) {
            Some(a) => {
                if a.route != b.route || a.link_release != b.link_release {
                    changed += 1;
                }
            }
            None => changed += 1,
        }
    }
    changed + after.len().saturating_sub(before.len())
}

/// Builds and verifies a tentative schedule; returns it when it verifies.
fn verify_tentative(
    problem: &SynthesisProblem,
    hyper: Time,
    mut messages: Vec<MessageSchedule>,
    mode: tsn_synthesis::ConstraintMode,
) -> Option<Schedule> {
    messages.sort_by_key(|m| (m.message.release, m.message.app, m.message.instance));
    let schedule = Schedule {
        hyperperiod: hyper,
        messages,
    };
    verify_schedule(problem, &schedule, mode)
        .ok()
        .map(|()| schedule)
}
