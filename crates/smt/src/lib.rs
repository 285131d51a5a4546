//! A satisfiability-modulo-theories solver specialized for time-triggered
//! scheduling problems: a CDCL SAT core combined with an integer
//! *difference-logic* theory (DPLL(T)).
//!
//! The joint routing/scheduling constraints of the paper (topology,
//! contention-freedom, transposition, no-loop, route and stability, Eq. 4–10)
//! can all be expressed as Boolean structure over difference atoms
//! `x - y <= k`, which is exactly the fragment this solver decides. It plays
//! the role Z3 plays in the paper's experiments.
//!
//! * [`Model`] — the builder API: Boolean/integer variables, clauses,
//!   difference atoms, cardinality helpers, bounds, and `solve`.
//! * [`Assignment`] / [`Outcome`] — model extraction.
//! * [`Solver`] — the underlying CDCL(T) engine (two-watched literals,
//!   first-UIP learning, activity ordering, Luby restarts, same-pair theory
//!   propagation).
//! * [`DifferenceLogic`] — the incremental Cotton–Maler difference-logic
//!   theory with negative-cycle explanations.
//!
//! # Example
//!
//! ```
//! use tsn_smt::Model;
//!
//! let mut model = Model::new();
//! let release_a = model.new_int();
//! let release_b = model.new_int();
//! model.int_bounds(release_a, 0, 1000);
//! model.int_bounds(release_b, 0, 1000);
//! // The two frames share a link: one transmission (120 time units) must
//! // finish before the other starts.
//! let a_first = model.diff_le(release_a, release_b, -120);
//! let b_first = model.diff_le(release_b, release_a, -120);
//! model.add_clause([a_first, b_first]);
//!
//! let outcome = model.solve();
//! let assignment = outcome.assignment().expect("schedulable");
//! let gap = (assignment.int_value(release_a) - assignment.int_value(release_b)).abs();
//! assert!(gap >= 120);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod model;
mod sat;
mod theory;
mod types;

pub use error::{SmtError, SolverStats};
pub use model::{Assignment, Model, ModelState, Outcome, SolveOptions};
pub use sat::{Limits, SatResult, Solver};
pub use theory::{DiffAtom, DifferenceLogic};
pub use types::{BoolVar, IntVar, Lit, Value};
