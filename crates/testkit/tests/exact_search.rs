//! Pins the solver's exact search on a handful of light grid rows.
//!
//! The CDCL(T) search is deterministic, so its counters are a fingerprint
//! of every choice it makes: which variable is decided, in which order
//! clauses are learned, when a restart fires. A change that claims to leave
//! the search untouched (a faster data structure under the same decision
//! order, say) must leave these totals exactly as they are. A change that
//! alters the search on purpose — theory propagation, a different restart
//! policy — re-pins them deliberately and says why.

use rand::rngs::StdRng;
use rand::SeedableRng;
use testkit::diffsolver::replay_into;
use testkit::{
    brute_force_sat, build_model, build_problem, config_for, crowded_instance, random_instance,
    scenario_grid,
};
use tsn_smt::{Model, SolveOptions, SolverStats};
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

/// Seeded `diffsolver` instances (alternately `random_instance` and
/// `crowded_instance`) behind the clause-DB pin.
const REDUCTION_INSTANCES: usize = 1000;

#[test]
fn search_counts_under_clause_db_reduction_are_pinned() {
    // The grid rows above never reach the reduction threshold, so this pin
    // covers what they cannot: with a threshold of zero every restart
    // deletes the lower-activity half of the learned clauses and compacts
    // the clause database, renumbering the clauses that every watcher and
    // reason points to. Each instance is solved alone, then the
    // satisfiable ones once more as one disjoint conjunction: that model
    // conflicts enough to restart, and so to reduce.
    let options = SolveOptions {
        reduce_threshold: Some(0),
        ..SolveOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(0x00C1_A05E);
    let instances: Vec<_> = (0..REDUCTION_INSTANCES)
        .map(|i| {
            if i % 2 == 0 {
                random_instance(&mut rng)
            } else {
                crowded_instance(&mut rng)
            }
        })
        .collect();
    // decisions, conflicts, propagations, theory_checks, restarts,
    // deleted_clauses, peak_live_clauses
    let mut totals = [0u64; 7];
    let mut add = |stats: &SolverStats| {
        for (total, count) in totals.iter_mut().zip([
            stats.decisions,
            stats.conflicts,
            stats.propagations,
            stats.theory_checks,
            stats.restarts,
            stats.deleted_clauses,
            stats.peak_live_clauses,
        ]) {
            *total += count;
        }
    };
    let mut union = Model::new();
    for instance in &instances {
        let mut built = build_model(instance);
        let sat = built.model.solve_with(options).is_sat();
        assert_eq!(sat, brute_force_sat(instance), "{instance:?}");
        add(built.model.last_stats());
        if sat {
            replay_into(&mut union, instance);
        }
    }
    assert!(union.solve_with(options).is_sat());
    add(union.last_stats());
    assert!(totals[5] > 0, "no learned clause was deleted: {totals:?}");
    assert_eq!(
        totals,
        [81_512, 571, 135_396, 74_576, 4, 68, 4_201],
        "[decisions, conflicts, propagations, theory_checks, restarts, \
         deleted_clauses, peak_live_clauses] moved: the solver no longer \
         makes the same choices under clause-DB reduction"
    );
}
