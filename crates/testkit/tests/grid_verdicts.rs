//! Pins what the synthesizer *decides* on every `scenario_grid()` row.
//!
//! `exact_search.rs` pins how the solver searches; this file pins only its
//! verdicts: for every row, whether synthesis succeeds, how many stages it
//! solves and how many applications end up worst-case stable (or at which
//! stage it is refused). A change to the search — a different decision
//! order, theory propagation, another restart policy — may find different
//! schedules, but it must leave every line of this table as it is.

use testkit::{build_problem, config_for, scenario_grid};
use tsn_synthesis::{SynthesisError, Synthesizer};

/// One line per grid row, in grid order.
const EXPECTED: [&str; 69] = [
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 2 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 2 stages, 4 stable",
    "solved in 1 stages, 4 stable",
    "solved in 1 stages, 2 stable",
    "solved in 2 stages, 4 stable",
];

#[test]
fn every_grid_row_keeps_its_verdict() {
    let actual: Vec<String> = scenario_grid()
        .iter()
        .map(|spec| {
            let problem = build_problem(spec).expect("grid rows build");
            match Synthesizer::new(config_for(spec)).synthesize(&problem) {
                Ok(report) => format!(
                    "solved in {} stages, {} stable",
                    report.stages.len(),
                    report.stable_applications
                ),
                Err(SynthesisError::Unsatisfiable { stage, .. }) => {
                    format!("unsatisfiable at stage {stage}")
                }
                Err(e) => panic!("row {}: unexpected synthesis error: {e}", spec.index),
            }
        })
        .collect();
    let mismatches: Vec<String> = actual
        .iter()
        .zip(EXPECTED)
        .enumerate()
        .filter(|(_, (got, want))| got != want)
        .map(|(row, (got, want))| format!("row {row}: {want:?} became {got:?}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "verdicts moved:\n{}\nfull table:\n{actual:#?}",
        mismatches.join("\n")
    );
}
