//! Network events, admission decisions and per-event reports.

use std::fmt;
use std::time::Duration;

use tsn_net::LinkId;
use tsn_synthesis::ControlApplication;

/// Stable identifier of an admitted (or admission-requested) control loop.
///
/// Every [`AdmitApp`](NetworkEvent::AdmitApp) event consumes one id, whether
/// or not the admission succeeds, so trace generators can predict ids
/// without knowing admission outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub u64);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// One event of a dynamic network scenario.
#[derive(Debug, Clone)]
pub enum NetworkEvent {
    /// A new control application asks to join the network.
    AdmitApp {
        /// The application requesting admission.
        app: ControlApplication,
    },
    /// A previously admitted application leaves the network.
    RemoveApp {
        /// The id assigned when the application was admitted.
        app: AppId,
    },
    /// A directed link (and its reverse direction) fails.
    LinkDown {
        /// Either direction of the failing physical link.
        link: LinkId,
    },
    /// A previously failed link comes back.
    LinkUp {
        /// Either direction of the restored physical link.
        link: LinkId,
    },
}

/// What the engine decided for one event.
#[derive(Debug, Clone)]
pub enum Decision {
    /// The application was admitted incrementally: only its own messages
    /// were scheduled, every existing reservation is untouched.
    Admitted {
        /// The id assigned to the admitted application.
        app: AppId,
    },
    /// The application was admitted, but only after a full re-synthesis
    /// (the incremental probe failed).
    AdmittedFallback {
        /// The id assigned to the admitted application.
        app: AppId,
    },
    /// The application was rejected; the network state is unchanged.
    Rejected {
        /// The id the request consumed.
        app: AppId,
        /// Why admission failed.
        reason: String,
    },
    /// The application was removed; remaining reservations are untouched.
    Removed {
        /// The id of the removed application.
        app: AppId,
    },
    /// A removal named an id that is not currently admitted.
    UnknownApp {
        /// The unknown id.
        app: AppId,
    },
    /// A link failure was handled: affected loops were rescheduled onto
    /// surviving routes; loops that could not be saved were evicted.
    Rerouted {
        /// Ids of the applications that were rescheduled.
        rescheduled: Vec<AppId>,
        /// Ids of the applications that had to be dropped.
        evicted: Vec<AppId>,
    },
    /// A failed link was restored; the running schedule is unchanged.
    LinkRestored,
    /// The event had no effect (unknown link, already-down link, ...).
    NoOp,
}

impl Decision {
    /// Returns `true` for the two admission-success variants.
    pub fn is_admitted(&self) -> bool {
        matches!(
            self,
            Decision::Admitted { .. } | Decision::AdmittedFallback { .. }
        )
    }
}

/// The engine's report for one processed event.
#[derive(Debug, Clone)]
pub struct EventReport {
    /// Position of the event in the processed trace.
    pub index: usize,
    /// The event itself.
    pub event: NetworkEvent,
    /// What the engine decided.
    pub decision: Decision,
    /// Wall-clock time spent processing the event.
    pub latency: Duration,
    /// Number of *existing* committed messages whose route or timing
    /// changed — the disruption caused by this event. Incremental admission
    /// always reports 0 here; a full re-synthesis reports how many
    /// reservations actually moved.
    pub rescheduled: usize,
    /// Number of live loops whose stability is guaranteed after the event.
    pub stable_loops: usize,
    /// Total number of live loops after the event.
    pub total_loops: usize,
    /// Solver decisions spent on this event (all solve calls combined).
    pub solver_decisions: u64,
    /// Solver conflicts spent on this event (all solve calls combined).
    pub solver_conflicts: u64,
    /// Whether the event was served by a warm-started solver session
    /// (learned clauses from earlier events were available).
    pub warm: bool,
}

/// How [`OnlineEngine::process_batch_with`](crate::OnlineEngine::process_batch_with)
/// treats a window of events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Coalesce the affected-app set across the whole window and commit it
    /// with **one** joint incremental solve against the frozen reservations
    /// of untouched loops, falling back to [`Sequential`](Self::Sequential)
    /// when the joint solve rejects.
    #[default]
    Joint,
    /// Process the events one at a time, exactly as repeated
    /// [`process`](crate::OnlineEngine::process) calls would — per-event
    /// reports and committed state are bit-identical to unbatched
    /// processing, which makes this policy safe for *opportunistic*
    /// batching (a server draining a tenant's queued backlog must not let
    /// timing-dependent batch boundaries change any response).
    Sequential,
}

/// The engine's report for one processed batch of events.
///
/// Per-event attribution lives in [`reports`](BatchReport::reports) — one
/// [`EventReport`] per submitted event, in order. When the batch committed
/// through the joint path ([`joint`](BatchReport::joint) is `true`), the
/// solver counters of the single joint solve are reported at the batch
/// level (the per-event counters are zero, since the work cannot be split
/// honestly), every report carries the *post-batch* stability counts, and
/// the disruption of rescheduled loops is attributed to the first
/// [`LinkDown`](NetworkEvent::LinkDown) of the batch whose link the loop's
/// previous route used. Under the sequential path the per-event reports are
/// exactly what repeated [`process`](crate::OnlineEngine::process) calls
/// would have produced and the batch-level counters are their sums.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per event, in submission order.
    pub reports: Vec<EventReport>,
    /// Whether the batch was committed by the batch path without a
    /// sequential fallback: `true` for the single joint incremental solve
    /// (and, trivially, for windows of at most one event, where the two
    /// paths coincide); `false` when the events were processed one at a
    /// time — because the joint solve rejected, the batch contained an
    /// intra-batch dependency the joint path does not model, or the caller
    /// asked for [`BatchPolicy::Sequential`].
    pub joint: bool,
    /// Existing loops in the coalesced affected set (loops whose committed
    /// routes crossed links that are down after the batch's net link
    /// churn). Zero when the batch ran sequentially.
    pub affected_loops: usize,
    /// Admissions queued into the joint solve. Zero when the batch ran
    /// sequentially.
    pub queued_admissions: usize,
    /// Wall-clock time of the whole batch.
    pub latency: Duration,
    /// Solver decisions spent on the batch (the joint solve, or the sum
    /// over the sequential events).
    pub solver_decisions: u64,
    /// Solver conflicts spent on the batch.
    pub solver_conflicts: u64,
}

impl BatchReport {
    /// Ids evicted anywhere in the batch.
    pub fn evicted(&self) -> Vec<AppId> {
        self.reports
            .iter()
            .filter_map(|r| match &r.decision {
                Decision::Rerouted { evicted, .. } => Some(evicted.iter().copied()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    /// Number of admission-success decisions in the batch.
    pub fn admitted(&self) -> usize {
        self.reports
            .iter()
            .filter(|r| r.decision.is_admitted())
            .count()
    }
}

/// Aggregate statistics of a processed trace, for reporting and benches.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Number of events processed.
    pub events: usize,
    /// Incremental admissions.
    pub admitted: usize,
    /// Admissions that needed the full re-synthesis fallback.
    pub fallbacks: usize,
    /// Rejected admissions.
    pub rejected: usize,
    /// Applications removed on request.
    pub removed: usize,
    /// Link-failure events that triggered rescheduling.
    pub reroutes: usize,
    /// Applications evicted because no reroute existed.
    pub evicted: usize,
    /// Total disruption: existing messages rescheduled across all events.
    pub rescheduled: usize,
    /// Maximum per-event processing latency.
    pub max_latency: Duration,
    /// Sum of per-event processing latencies.
    pub total_latency: Duration,
}

impl TraceSummary {
    /// Folds a sequence of event reports into a summary.
    pub fn from_reports<'a>(reports: impl IntoIterator<Item = &'a EventReport>) -> Self {
        let mut s = TraceSummary::default();
        for r in reports {
            s.events += 1;
            s.rescheduled += r.rescheduled;
            s.max_latency = s.max_latency.max(r.latency);
            s.total_latency += r.latency;
            match &r.decision {
                Decision::Admitted { .. } => s.admitted += 1,
                Decision::AdmittedFallback { .. } => {
                    s.admitted += 1;
                    s.fallbacks += 1;
                }
                Decision::Rejected { .. } => s.rejected += 1,
                Decision::Removed { .. } => s.removed += 1,
                Decision::Rerouted { evicted, .. } => {
                    s.reroutes += 1;
                    s.evicted += evicted.len();
                }
                Decision::UnknownApp { .. } | Decision::LinkRestored | Decision::NoOp => {}
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_counts_decisions() {
        let mk = |decision: Decision, rescheduled: usize| EventReport {
            index: 0,
            event: NetworkEvent::LinkUp {
                link: LinkId::new(0),
            },
            decision,
            latency: Duration::from_micros(10),
            rescheduled,
            stable_loops: 1,
            total_loops: 1,
            solver_decisions: 0,
            solver_conflicts: 0,
            warm: false,
        };
        let reports = vec![
            mk(Decision::Admitted { app: AppId(0) }, 0),
            mk(Decision::AdmittedFallback { app: AppId(1) }, 3),
            mk(
                Decision::Rejected {
                    app: AppId(2),
                    reason: "x".into(),
                },
                0,
            ),
            mk(Decision::Removed { app: AppId(0) }, 0),
            mk(
                Decision::Rerouted {
                    rescheduled: vec![AppId(1)],
                    evicted: vec![AppId(3), AppId(4)],
                },
                4,
            ),
            mk(Decision::NoOp, 0),
        ];
        let s = TraceSummary::from_reports(&reports);
        assert_eq!(s.events, 6);
        assert_eq!(s.admitted, 2);
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.removed, 1);
        assert_eq!(s.reroutes, 1);
        assert_eq!(s.evicted, 2);
        assert_eq!(s.rescheduled, 7);
        assert_eq!(s.total_latency, Duration::from_micros(60));
    }

    #[test]
    fn decision_admission_predicate() {
        assert!(Decision::Admitted { app: AppId(1) }.is_admitted());
        assert!(Decision::AdmittedFallback { app: AppId(1) }.is_admitted());
        assert!(!Decision::NoOp.is_admitted());
        assert_eq!(AppId(7).to_string(), "app#7");
    }
}
