//! Pins the solver's exact search on a handful of light grid rows.
//!
//! The CDCL(T) search is deterministic, so its counters are a fingerprint
//! of every choice it makes: which variable is decided, in which order
//! clauses are learned, when a restart fires. A change that claims to leave
//! the search untouched (a faster data structure under the same decision
//! order, say) must leave these totals exactly as they are. A change that
//! alters the search on purpose — theory propagation, a different restart
//! policy — re-pins them deliberately and says why.

use testkit::{build_problem, config_for, scenario_grid};
use tsn_synthesis::Synthesizer;

/// Grid rows whose stage reports are summed: every topology shape, both
/// stage counts, the mixed link class and the fat-tree, each row solved in
/// a few milliseconds (release) with conflicts enough to restart.
const ROWS: [usize; 7] = [5, 21, 28, 39, 55, 66, 68];

#[test]
fn search_counts_on_light_grid_rows_are_pinned() {
    let grid = scenario_grid();
    // decisions, conflicts, propagations, theory_checks, restarts
    let mut totals = [0u64; 5];
    for &row in &ROWS {
        let spec = &grid[row];
        let problem = build_problem(spec).expect("grid rows build");
        let report = Synthesizer::new(config_for(spec))
            .synthesize(&problem)
            .unwrap_or_else(|e| panic!("row {row} must solve: {e}"));
        for stage in &report.stages {
            totals[0] += stage.decisions;
            totals[1] += stage.conflicts;
            totals[2] += stage.propagations;
            totals[3] += stage.theory_checks;
            totals[4] += stage.restarts;
        }
    }
    assert_eq!(
        totals,
        [10_899, 288, 33_749, 13_945, 3],
        "[decisions, conflicts, propagations, theory_checks, restarts] moved: \
         the solver no longer makes the same choices"
    );
}
