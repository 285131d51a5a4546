//! Error type of the SMT crate.

use std::error::Error;
use std::fmt;

/// Errors produced by the SMT layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SmtError {
    /// An assignment presented for verification violates the model.
    ModelViolation {
        /// Description of the violated constraint.
        what: String,
    },
}

impl fmt::Display for SmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtError::ModelViolation { what } => write!(f, "model violation: {what}"),
        }
    }
}

impl Error for SmtError {}

/// Statistics of one solver run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of conflicts (Boolean and theory).
    pub conflicts: u64,
    /// Number of theory (difference-logic) conflicts.
    pub theory_conflicts: u64,
    /// Number of difference atoms asserted into the theory solver (each is
    /// one incremental consistency check of the constraint graph).
    pub theory_checks: u64,
    /// Number of literals the theory implied: unassigned atoms decided by
    /// an asserted edge over the same pair of integer variables, enqueued
    /// instead of left to a decision.
    pub theory_implications: u64,
    /// Number of unit propagations.
    pub propagations: u64,
    /// Number of learned clauses.
    pub learned_clauses: u64,
    /// Number of restarts.
    pub restarts: u64,
    /// Theory repair (Dijkstra) invocations that reused the solver's
    /// persistent scratch arenas instead of allocating fresh buffers.
    pub theory_scratch_reuses: u64,
    /// Learned clauses deleted by activity-driven clause-DB reduction.
    pub deleted_clauses: u64,
    /// High-water mark of live clauses (problem + learned) in the clause
    /// database. A lifetime peak: it is never decreased by reduction and is
    /// carried through [`SolverStats::delta_since`] as a maximum, not a
    /// difference.
    pub peak_live_clauses: u64,
    /// Conflicts whose backjump would have undone more levels than the
    /// chronological-backtracking threshold, and which backtracked one
    /// level instead.
    pub chrono_backtracks: u64,
    /// Wall-clock time of the solve call.
    pub solve_time: std::time::Duration,
}

impl SolverStats {
    /// The per-solve delta between these (cumulative) statistics and an
    /// earlier `baseline` snapshot of the same solver.
    ///
    /// [`Solver`](crate::Solver) statistics accumulate over the solver's
    /// lifetime; callers that present per-solve figures (stage reports,
    /// benchmark points) snapshot the stats before a solve and subtract the
    /// snapshot afterwards with this method. Monotone counters subtract
    /// saturating; `peak_live_clauses` is a high-water mark and is carried
    /// over as a maximum instead.
    #[must_use]
    pub fn delta_since(&self, baseline: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(baseline.decisions),
            conflicts: self.conflicts.saturating_sub(baseline.conflicts),
            theory_conflicts: self
                .theory_conflicts
                .saturating_sub(baseline.theory_conflicts),
            theory_checks: self.theory_checks.saturating_sub(baseline.theory_checks),
            theory_implications: self
                .theory_implications
                .saturating_sub(baseline.theory_implications),
            propagations: self.propagations.saturating_sub(baseline.propagations),
            learned_clauses: self
                .learned_clauses
                .saturating_sub(baseline.learned_clauses),
            restarts: self.restarts.saturating_sub(baseline.restarts),
            theory_scratch_reuses: self
                .theory_scratch_reuses
                .saturating_sub(baseline.theory_scratch_reuses),
            deleted_clauses: self
                .deleted_clauses
                .saturating_sub(baseline.deleted_clauses),
            peak_live_clauses: self.peak_live_clauses.max(baseline.peak_live_clauses),
            chrono_backtracks: self
                .chrono_backtracks
                .saturating_sub(baseline.chrono_backtracks),
            solve_time: self.solve_time.saturating_sub(baseline.solve_time),
        }
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} decisions, {} conflicts ({} theory), {} propagations, {} theory checks \
             ({} scratch reuses, {} implications), {} learned ({} deleted, {} peak live), \
             {} restarts, {} chrono backtracks in {:?}",
            self.decisions,
            self.conflicts,
            self.theory_conflicts,
            self.propagations,
            self.theory_checks,
            self.theory_scratch_reuses,
            self.theory_implications,
            self.learned_clauses,
            self.deleted_clauses,
            self.peak_live_clauses,
            self.restarts,
            self.chrono_backtracks,
            self.solve_time
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SmtError::ModelViolation {
            what: "clause #3 is falsified".into(),
        };
        assert!(e.to_string().contains("clause #3"));
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SmtError>();
    }

    #[test]
    fn stats_display_mentions_all_counters() {
        let s = SolverStats {
            decisions: 1,
            conflicts: 2,
            theory_conflicts: 1,
            theory_checks: 4,
            theory_implications: 8,
            propagations: 3,
            learned_clauses: 2,
            restarts: 0,
            theory_scratch_reuses: 7,
            deleted_clauses: 6,
            peak_live_clauses: 9,
            chrono_backtracks: 11,
            solve_time: std::time::Duration::from_millis(5),
        };
        let text = s.to_string();
        assert!(text.contains("1 decisions"));
        assert!(text.contains("2 conflicts"));
        assert!(text.contains("4 theory checks"));
        assert!(text.contains("7 scratch reuses"));
        assert!(text.contains("8 implications"));
        assert!(text.contains("6 deleted"));
        assert!(text.contains("9 peak live"));
        assert!(text.contains("11 chrono backtracks"));
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_the_peak() {
        let baseline = SolverStats {
            decisions: 10,
            conflicts: 4,
            propagations: 100,
            theory_checks: 20,
            theory_implications: 30,
            restarts: 1,
            deleted_clauses: 2,
            peak_live_clauses: 50,
            chrono_backtracks: 6,
            solve_time: std::time::Duration::from_millis(3),
            ..SolverStats::default()
        };
        let cumulative = SolverStats {
            decisions: 15,
            conflicts: 9,
            propagations: 160,
            theory_checks: 21,
            theory_implications: 42,
            restarts: 1,
            deleted_clauses: 2,
            peak_live_clauses: 80,
            chrono_backtracks: 13,
            solve_time: std::time::Duration::from_millis(7),
            ..SolverStats::default()
        };
        let delta = cumulative.delta_since(&baseline);
        assert_eq!(delta.decisions, 5);
        assert_eq!(delta.conflicts, 5);
        assert_eq!(delta.propagations, 60);
        assert_eq!(delta.theory_checks, 1);
        assert_eq!(delta.theory_implications, 12);
        assert_eq!(delta.restarts, 0);
        assert_eq!(delta.deleted_clauses, 0);
        assert_eq!(delta.chrono_backtracks, 7);
        // The peak is a high-water mark, never a difference.
        assert_eq!(delta.peak_live_clauses, 80);
        assert_eq!(delta.solve_time, std::time::Duration::from_millis(4));
    }
}
