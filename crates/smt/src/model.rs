//! High-level model builder: variables, clauses, difference atoms and
//! convenience constraints, plus model extraction. Variables are unnamed
//! indices and clauses share one flat literal store (see [`Model`]).
//!
//! Every solve hands the search the solver a build from every clause, in
//! model order, produces. While a scope is open, the model keeps the part
//! of that build below the innermost scope's mark (its *image*) and each
//! solve copies the image and adds only the rest; see "Solver images" on
//! [`Model`].

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use crate::sat::{Limits, SatResult, Solver, WatchLists};
use crate::theory::{DiffAtom, DifferenceLogic};
use crate::types::{BoolVar, IntVar, Lit, Value};
use crate::{SmtError, SolverStats};

/// Configuration of a [`Model::solve`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveOptions {
    /// Give up after this many conflicts (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Give up after this much wall-clock time (`None` = unlimited).
    pub timeout: Option<Duration>,
    /// Learned-clause count that triggers activity-driven clause-DB
    /// reduction (`None` = the solver's default threshold).
    pub reduce_threshold: Option<usize>,
    /// Backjump length, in decision levels, above which a conflict
    /// backtracks one level instead (`None` = the solver's default). A test
    /// lever: `Some(0)` makes every multi-level backjump chronological.
    pub chrono_threshold: Option<u32>,
}

/// The outcome of a [`Model::solve`] call.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The constraints are satisfiable; a model is attached.
    Sat(Assignment),
    /// The constraints are unsatisfiable.
    Unsat,
    /// A resource limit was reached before a verdict.
    Unknown,
}

impl Outcome {
    /// Returns the assignment if the outcome is satisfiable.
    pub fn assignment(&self) -> Option<&Assignment> {
        match self {
            Outcome::Sat(a) => Some(a),
            _ => None,
        }
    }

    /// Returns `true` for the satisfiable outcome.
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }

    /// Returns `true` for the unsatisfiable outcome.
    pub fn is_unsat(&self) -> bool {
        matches!(self, Outcome::Unsat)
    }
}

/// A satisfying assignment: values for every Boolean and integer variable.
#[derive(Debug, Clone)]
pub struct Assignment {
    bools: Vec<bool>,
    ints: Vec<i64>,
}

impl Assignment {
    /// The value of a Boolean variable.
    ///
    /// Variables the solver left unconstrained default to `false`.
    pub fn bool_value(&self, var: BoolVar) -> bool {
        self.bools.get(var.index()).copied().unwrap_or(false)
    }

    /// The value of a literal.
    pub fn lit_value(&self, lit: Lit) -> bool {
        self.bool_value(lit.var()) != lit.is_negative()
    }

    /// The value of an integer variable.
    pub fn int_value(&self, var: IntVar) -> i64 {
        self.ints.get(var.index()).copied().unwrap_or(0)
    }
}

/// The sizes of a [`Model`]'s growable stores: at a scope's push, or as far
/// as a solver image holds them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sizes {
    bools: usize,
    ints: usize,
    clauses: usize,
    clause_lits: usize,
    atoms: usize,
}

impl Sizes {
    /// Whether every store is at least as large as in `other`.
    fn covers(&self, other: &Sizes) -> bool {
        self.bools >= other.bools
            && self.ints >= other.ints
            && self.clauses >= other.clauses
            && self.clause_lits >= other.clause_lits
            && self.atoms >= other.atoms
    }
}

/// One recorded [`Model::push`] scope: the sizes of every growable store at
/// push time, so [`Model::pop`] can truncate back to them.
#[derive(Debug, Clone, Copy)]
struct ScopeMark {
    sizes: Sizes,
    zero: Option<IntVar>,
    learned: usize,
}

/// A solver built from the model's stores up to `sizes`: variables and
/// atoms, clauses (level-0 units enqueued) and the same-pair index. No
/// warm-start seed, no learned clause and no propagation: exactly the
/// first part of every build, whatever comes after it. `lists` are the
/// emptied watch lists of the last solve, which the next build refills
/// instead of allocating its own.
#[derive(Debug)]
struct Image {
    solver: Solver,
    sizes: Sizes,
    lists: WatchLists,
}

/// Upper bound on the number of literals of a learned clause worth caching
/// for warm starts (longer clauses rarely pay for their propagation cost).
const WARM_MAX_CLAUSE_LEN: usize = 16;
/// Upper bound on the total number of cached learned clauses.
const WARM_MAX_CACHE: usize = 8192;
/// Upper bound on the number of clauses harvested from a single solve call.
const WARM_MAX_PER_SOLVE: usize = 1024;

/// A complete serializable image of a [`Model`] at scope depth zero: the
/// variable counts, atom table, clause set, and the warm-start state
/// (learned-clause cache, saved phases, VSIDS activities). Produced by
/// [`Model::export_state`] and consumed by [`Model::from_state`], this is
/// what lets a warm solver session *move between processes* — the restored
/// model solves future queries with bit-identical statistics to the donor,
/// because everything a solve call reads from the model is carried.
///
/// Variable and clause payloads use raw wire-friendly integers (literal
/// codes in the MiniSat `2 * var + sign` encoding, atom triples `(x, y, k)`
/// for `x - y <= k`); [`Model::from_state`] re-validates every index, so a
/// state decoded from an untrusted source cannot corrupt a model.
#[derive(Debug, Clone, Default)]
pub struct ModelState {
    /// Number of Boolean variables (atom proxies included).
    pub bools: usize,
    /// Number of integer variables.
    pub ints: usize,
    /// The zero-reference variable's index, when one was created.
    pub zero: Option<u32>,
    /// Difference atoms in creation order, as `(x, y, k)` triples.
    pub atoms: Vec<(u32, u32, i64)>,
    /// The proxy Boolean variable of each atom, parallel to `atoms`.
    pub atom_proxy: Vec<u32>,
    /// Clauses as vectors of literal codes.
    pub clauses: Vec<Vec<u32>>,
    /// The warm-start learned-clause cache, as vectors of literal codes.
    pub learned: Vec<Vec<u32>>,
    /// Saved phases of the warm-start state, one per Boolean variable.
    pub phase: Vec<bool>,
    /// Saved VSIDS activities of the warm-start state.
    pub activity: Vec<f64>,
    /// The saved activity increment.
    pub var_inc: f64,
    /// Whether warm starts are enabled on the model.
    pub warm_start: bool,
}

/// A satisfiability-modulo-theories model over Booleans and integer
/// difference constraints.
///
/// The model is a pure builder: every [`solve`](Model::solve) call searches
/// with the CDCL(T) [`Solver`] a build from the model's clauses alone
/// produces, which keeps repeated solving (e.g. the incremental-synthesis
/// heuristic) deterministic and free of hidden state.
///
/// Variables are bare indices: the model keeps no names for them. Clauses
/// live in one flat literal store plus the end offset of each clause, so
/// adding a clause allocates nothing of its own, a scope is two lengths,
/// and every solve hands the solver borrowed slices.
///
/// # Scopes, assumptions and warm starts
///
/// Three facilities support *online* use, where one model is solved many
/// times as constraints come and go:
///
/// * [`push`](Model::push) / [`pop`](Model::pop) open and discard scopes:
///   variables, atoms and clauses created inside a popped scope are removed,
///   restoring the model exactly to its pre-push state. A successful probe
///   can instead be kept with [`commit`](Model::commit).
/// * [`solve_with_assumptions`](Model::solve_with_assumptions) solves under
///   temporary unit assumptions without adding them to the model.
/// * [`set_warm_start`](Model::set_warm_start) carries learned clauses,
///   saved phases and variable activities from one solve call to the next.
///   Learned clauses are consequences of the clause set they were derived
///   from, so the cache is truncated on `pop` back to its push-time size —
///   anything learned while the popped constraints were present is dropped,
///   keeping the cache sound under retraction.
///
/// # Solver images
///
/// Online use solves inside a scope, and most clauses lie below it,
/// unchanged since the last solve. So while a scope is open, a solve
/// builds (or extends) an *image*: a solver holding the stores below the
/// innermost scope's mark, with atoms attached, clauses added, level-0
/// units enqueued and the same-pair index built. Each solve copies the
/// image and adds the rest in the order a build from scratch would: the
/// remaining variables and atoms, the warm-start seed, the remaining
/// clauses, the learned cache. The image holds no watcher: a solver
/// watches its clauses when its search starts, in clause order, so the
/// copy watches them there as a build from scratch would, and it refills
/// the watch lists the previous solve left instead of allocating its own.
/// The result is that build, field for field; debug builds check it on
/// every solve that starts from an image.
///
/// * A model never solved inside a scope keeps no image and no watch list.
/// * [`commit`](Model::commit) keeps the image; the next solve extends it
///   up to the innermost mark.
/// * [`pop`](Model::pop) below the image's extent drops it.
/// * [`from_state`](Model::from_state) starts without one.
///
/// # Example
///
/// ```
/// use tsn_smt::Model;
///
/// let mut model = Model::new();
/// let start_a = model.new_int();
/// let start_b = model.new_int();
/// // Two unit-length jobs on one machine: one must finish before the other.
/// let a_first = model.diff_le(start_a, start_b, -1); // a + 1 <= b
/// let b_first = model.diff_le(start_b, start_a, -1); // b + 1 <= a
/// model.add_clause([a_first, b_first]);
/// // Both must start within [0, 1].
/// model.int_bounds(start_a, 0, 1);
/// model.int_bounds(start_b, 0, 1);
///
/// let outcome = model.solve();
/// let assignment = outcome.assignment().expect("satisfiable");
/// let a = assignment.int_value(start_a);
/// let b = assignment.int_value(start_b);
/// assert!((a - b).abs() >= 1);
/// assert!((0..=1).contains(&a) && (0..=1).contains(&b));
/// ```
#[derive(Debug, Default)]
pub struct Model {
    /// Every clause's literals, back to back in creation order: clause `i`
    /// is `clause_lits[clause_ends[i - 1]..clause_ends[i]]` (from 0 for the
    /// first), so adding a clause allocates nothing of its own.
    clause_lits: Vec<Lit>,
    clause_ends: Vec<usize>,
    /// Atom definitions in creation order: (proxy index, atom).
    atoms: Vec<DiffAtom>,
    atom_proxy: Vec<BoolVar>,
    /// Deduplication of identical atoms.
    atom_index: HashMap<(u32, u32, i64), BoolVar>,
    /// Number of plain Boolean variables (proxies included).
    num_bools: usize,
    num_ints: usize,
    /// Lazily created zero-reference variable for unary bounds.
    zero: Option<IntVar>,
    /// Open scopes, innermost last.
    scopes: Vec<ScopeMark>,
    /// The kept solver image (see "Solver images" above).
    image: Option<Box<Image>>,
    /// Whether solve calls carry learned clauses / phases / activities over.
    warm_start: bool,
    /// Learned clauses harvested from previous solve calls (warm start).
    learned_cache: Vec<Vec<Lit>>,
    /// Saved phases from the last solve call (warm start).
    saved_phase: Vec<bool>,
    /// Saved activities and activity increment (warm start).
    saved_activity: Vec<f64>,
    saved_var_inc: f64,
    /// Statistics of the last solve call.
    last_stats: SolverStats,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a fresh Boolean variable.
    pub fn new_bool(&mut self) -> BoolVar {
        let var = BoolVar(self.num_bools as u32);
        self.num_bools += 1;
        var
    }

    /// Adds a fresh integer variable.
    pub fn new_int(&mut self) -> IntVar {
        let var = IntVar(self.num_ints as u32);
        self.num_ints += 1;
        var
    }

    /// The number of Boolean variables (including atom proxies).
    pub fn num_bools(&self) -> usize {
        self.num_bools
    }

    /// The number of integer variables.
    pub fn num_ints(&self) -> usize {
        self.num_ints
    }

    /// The number of clauses added so far.
    pub fn num_clauses(&self) -> usize {
        self.clause_ends.len()
    }

    /// The current sizes of the growable stores.
    fn sizes(&self) -> Sizes {
        Sizes {
            bools: self.num_bools,
            ints: self.num_ints,
            clauses: self.clause_ends.len(),
            clause_lits: self.clause_lits.len(),
            atoms: self.atoms.len(),
        }
    }

    /// The clauses in creation order, each as a slice of the flat store.
    fn clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        self.clauses_between(Sizes::default(), self.sizes())
    }

    /// The clauses added after the stores had sizes `from` and before they
    /// had `to`, in creation order.
    fn clauses_between(&self, from: Sizes, to: Sizes) -> impl Iterator<Item = &[Lit]> + '_ {
        let mut start = from.clause_lits;
        self.clause_ends[from.clauses..to.clauses]
            .iter()
            .map(move |&end| {
                let clause = &self.clause_lits[start..end];
                start = end;
                clause
            })
    }

    /// Statistics of the most recent [`solve`](Model::solve) call.
    pub fn last_stats(&self) -> &SolverStats {
        &self.last_stats
    }

    /// The proxy literal of the difference atom `x - y <= k`.
    ///
    /// Asserting the literal enforces the constraint; asserting its negation
    /// enforces the integer negation `y - x <= -k - 1`. Identical atoms share
    /// one proxy.
    pub fn diff_le(&mut self, x: IntVar, y: IntVar, k: i64) -> Lit {
        if let Some(&proxy) = self.atom_index.get(&(x.0, y.0, k)) {
            return proxy.lit();
        }
        let proxy = self.new_bool();
        self.atom_index.insert((x.0, y.0, k), proxy);
        self.atoms.push(DiffAtom {
            x: x.index(),
            y: y.index(),
            k,
        });
        self.atom_proxy.push(proxy);
        proxy.lit()
    }

    /// The proxy literal of `x - y >= k` (i.e. `y - x <= -k`).
    pub fn diff_ge(&mut self, x: IntVar, y: IntVar, k: i64) -> Lit {
        self.diff_le(y, x, -k)
    }

    /// The lazily created reference variable pinned to value zero in every
    /// model, used to express unary bounds as difference atoms.
    pub fn zero(&mut self) -> IntVar {
        if let Some(z) = self.zero {
            return z;
        }
        let z = self.new_int();
        self.zero = Some(z);
        z
    }

    /// The proxy literal of the unary constraint `x <= k`.
    pub fn le_const(&mut self, x: IntVar, k: i64) -> Lit {
        let z = self.zero();
        self.diff_le(x, z, k)
    }

    /// The proxy literal of the unary constraint `x >= k`.
    pub fn ge_const(&mut self, x: IntVar, k: i64) -> Lit {
        let z = self.zero();
        self.diff_le(z, x, -k)
    }

    /// Adds a clause (a disjunction of literals). An empty clause makes the
    /// model trivially unsatisfiable.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.clause_lits.extend(lits);
        self.clause_ends.push(self.clause_lits.len());
    }

    /// Asserts a single literal.
    pub fn assert_lit(&mut self, lit: Lit) {
        self.add_clause([lit]);
    }

    /// Asserts the difference constraint `x - y <= k` unconditionally.
    pub fn assert_diff_le(&mut self, x: IntVar, y: IntVar, k: i64) {
        let l = self.diff_le(x, y, k);
        self.assert_lit(l);
    }

    /// Asserts the two-sided bound `lo <= x <= hi`.
    pub fn int_bounds(&mut self, x: IntVar, lo: i64, hi: i64) {
        let l = self.ge_const(x, lo);
        self.assert_lit(l);
        let u = self.le_const(x, hi);
        self.assert_lit(u);
    }

    /// Adds the implication `premise -> conclusion`.
    pub fn implies(&mut self, premise: Lit, conclusion: Lit) {
        self.add_clause([!premise, conclusion]);
    }

    /// Adds `premises -> conclusion` (conjunction of premises).
    pub fn implies_all(&mut self, premises: &[Lit], conclusion: Lit) {
        self.add_clause(premises.iter().map(|&p| !p).chain([conclusion]));
    }

    /// Requires at least one of the literals to hold.
    pub fn at_least_one(&mut self, lits: &[Lit]) {
        self.add_clause(lits.iter().copied());
    }

    /// Requires at most one of the literals to hold (pairwise encoding).
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.add_clause([!lits[i], !lits[j]]);
            }
        }
    }

    /// Requires exactly one of the literals to hold.
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        self.at_least_one(lits);
        self.at_most_one(lits);
    }

    /// Opens a new scope. Variables, atoms and clauses created from now on
    /// are removed again by the matching [`pop`](Model::pop) (or kept by
    /// [`commit`](Model::commit)).
    pub fn push(&mut self) {
        self.scopes.push(ScopeMark {
            sizes: self.sizes(),
            zero: self.zero,
            learned: self.learned_cache.len(),
        });
    }

    /// Discards the innermost scope, restoring the model to its state at the
    /// matching [`push`](Model::push). Warm-start state (learned clauses,
    /// phases, activities) referring to the discarded constraints is dropped
    /// with it, and so is a solver image that holds any of them.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without a matching push");
        let sizes = mark.sizes;
        if self
            .image
            .as_ref()
            .is_some_and(|image| !sizes.covers(&image.sizes))
        {
            self.image = None;
        }
        for atom in self.atoms.drain(sizes.atoms..) {
            self.atom_index
                .remove(&(atom.x as u32, atom.y as u32, atom.k));
        }
        self.atom_proxy.truncate(sizes.atoms);
        self.clause_ends.truncate(sizes.clauses);
        self.clause_lits.truncate(sizes.clause_lits);
        self.num_bools = sizes.bools;
        self.num_ints = sizes.ints;
        self.zero = mark.zero;
        self.learned_cache.truncate(mark.learned);
        self.saved_phase.truncate(sizes.bools);
        self.saved_activity.truncate(sizes.bools);
    }

    /// Closes the innermost scope *keeping* its contents: the variables and
    /// constraints added since the matching [`push`](Model::push) become part
    /// of the enclosing scope. This is the accept path of a push/solve/commit
    /// probe. A solver image stays: it still holds a prefix of the model.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn commit(&mut self) {
        self.scopes.pop().expect("commit without a matching push");
    }

    /// The number of currently open scopes.
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    /// Enables or disables warm starts: when enabled, every solve call seeds
    /// the solver with the learned clauses, phases and variable activities
    /// harvested from previous calls on this model.
    pub fn set_warm_start(&mut self, enabled: bool) {
        self.warm_start = enabled;
        if !enabled {
            self.learned_cache.clear();
            self.saved_phase.clear();
            self.saved_activity.clear();
        }
    }

    /// The number of learned clauses currently cached for warm starts.
    pub fn warm_cache_len(&self) -> usize {
        self.learned_cache.len()
    }

    /// Exports the model as a serializable [`ModelState`] image.
    ///
    /// Everything a later [`solve`](Model::solve) call reads is captured —
    /// clauses, atoms, and the warm-start state — so a model rebuilt with
    /// [`from_state`](Model::from_state) produces bit-identical outcomes
    /// *and statistics* for any future query sequence.
    ///
    /// # Errors
    ///
    /// Returns an error while scopes are open: an open probe is transient
    /// state that must be committed or popped before the model can move.
    pub fn export_state(&self) -> Result<ModelState, String> {
        if !self.scopes.is_empty() {
            return Err(format!(
                "cannot export a model with {} open scope(s)",
                self.scopes.len()
            ));
        }
        let codes = |clause: &[Lit]| clause.iter().map(|l| l.0).collect();
        Ok(ModelState {
            bools: self.num_bools,
            ints: self.num_ints,
            zero: self.zero.map(|z| z.0),
            atoms: self
                .atoms
                .iter()
                .map(|a| (a.x as u32, a.y as u32, a.k))
                .collect(),
            atom_proxy: self.atom_proxy.iter().map(|p| p.0).collect(),
            clauses: self.clauses().map(codes).collect(),
            learned: self.learned_cache.iter().map(|c| codes(c)).collect(),
            phase: self.saved_phase.clone(),
            activity: self.saved_activity.clone(),
            var_inc: self.saved_var_inc,
            warm_start: self.warm_start,
        })
    }

    /// Rebuilds a model from an exported [`ModelState`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first inconsistency when the state does
    /// not describe a valid model (out-of-range variable indices or literal
    /// codes, mismatched atom tables, a proxy shared by two atoms, an atom
    /// listed twice, oversized warm-start vectors, or a non-finite activity
    /// increment) — states decoded from untrusted wire input go through the
    /// same checks as hand-built ones.
    pub fn from_state(state: ModelState) -> Result<Self, String> {
        let lit_limit = (state.bools as u64) * 2;
        let check_lits = |clauses: &[Vec<u32>], what: &str| -> Result<(), String> {
            for clause in clauses {
                for &code in clause {
                    if u64::from(code) >= lit_limit {
                        return Err(format!(
                            "{what} literal code {code} out of range (bools: {})",
                            state.bools
                        ));
                    }
                }
            }
            Ok(())
        };
        check_lits(&state.clauses, "clause")?;
        check_lits(&state.learned, "learned-clause")?;
        if state.atoms.len() != state.atom_proxy.len() {
            return Err(format!(
                "atom table mismatch: {} atoms vs {} proxies",
                state.atoms.len(),
                state.atom_proxy.len()
            ));
        }
        for &(x, y, _) in &state.atoms {
            if x as usize >= state.ints || y as usize >= state.ints {
                return Err(format!(
                    "atom variable ({x}, {y}) out of range (ints: {})",
                    state.ints
                ));
            }
        }
        // The solver keeps one atom per proxy variable, so a proxy listed
        // twice would silently drop all but one of its atoms.
        let mut proxies = HashSet::with_capacity(state.atom_proxy.len());
        for &proxy in &state.atom_proxy {
            if proxy as usize >= state.bools {
                return Err(format!(
                    "atom proxy {proxy} out of range (bools: {})",
                    state.bools
                ));
            }
            if !proxies.insert(proxy) {
                return Err(format!("atom proxy {proxy} is shared by two atoms"));
            }
        }
        // `diff_le` gives every triple one proxy; two would make the
        // deduplication index (and `pop`) lose track of one of them.
        let mut atom_index = HashMap::with_capacity(state.atoms.len());
        for (&(x, y, k), &proxy) in state.atoms.iter().zip(&state.atom_proxy) {
            if atom_index.insert((x, y, k), BoolVar(proxy)).is_some() {
                return Err(format!("atom x{x} - x{y} <= {k} is listed twice"));
            }
        }
        if let Some(zero) = state.zero {
            if zero as usize >= state.ints {
                return Err(format!(
                    "zero variable {zero} out of range (ints: {})",
                    state.ints
                ));
            }
        }
        if state.phase.len() > state.bools || state.activity.len() > state.bools {
            return Err(format!(
                "warm-start vectors exceed the variable count ({} phases, {} \
                 activities, {} bools)",
                state.phase.len(),
                state.activity.len(),
                state.bools
            ));
        }
        if !state.var_inc.is_finite() || state.activity.iter().any(|a| !a.is_finite()) {
            return Err("non-finite warm-start activity".to_string());
        }
        let mut clause_lits = Vec::with_capacity(state.clauses.iter().map(Vec::len).sum());
        let mut clause_ends = Vec::with_capacity(state.clauses.len());
        for clause in &state.clauses {
            clause_lits.extend(clause.iter().map(|&code| Lit(code)));
            clause_ends.push(clause_lits.len());
        }
        let lits = |clause: Vec<u32>| clause.into_iter().map(Lit).collect();
        Ok(Model {
            clause_lits,
            clause_ends,
            atoms: state
                .atoms
                .into_iter()
                .map(|(x, y, k)| DiffAtom {
                    x: x as usize,
                    y: y as usize,
                    k,
                })
                .collect(),
            atom_proxy: state.atom_proxy.into_iter().map(BoolVar).collect(),
            atom_index,
            num_bools: state.bools,
            num_ints: state.ints,
            zero: state.zero.map(IntVar),
            scopes: Vec::new(),
            image: None,
            warm_start: state.warm_start,
            learned_cache: state.learned.into_iter().map(lits).collect(),
            saved_phase: state.phase,
            saved_activity: state.activity,
            saved_var_inc: state.var_inc,
            last_stats: SolverStats::default(),
        })
    }

    /// Solves the model with default (unlimited) resources.
    pub fn solve(&mut self) -> Outcome {
        self.solve_with(SolveOptions::default())
    }

    /// Solves the model under the given resource limits.
    pub fn solve_with(&mut self, options: SolveOptions) -> Outcome {
        self.solve_with_assumptions(&[], options)
    }

    /// Solves the model under the given unit assumptions and resource
    /// limits. The assumptions are *not* added to the model: an `Unsat`
    /// outcome means unsatisfiable under these assumptions only.
    pub fn solve_with_assumptions(
        &mut self,
        assumptions: &[Lit],
        options: SolveOptions,
    ) -> Outcome {
        // Every call searches with the solver a build from every clause
        // gives. Inside a scope that build starts from the image of the
        // clauses below the innermost mark, made or extended here; the span
        // covers image, copy and extension, apart from `smt.solve`'s search.
        let build_span = tsn_telemetry::span!("smt.build");
        if let Some(mark) = self.scopes.last() {
            let below = mark.sizes;
            self.extend_image(below);
        }
        let mut image = self.image.take();
        let mut solver = match &mut image {
            Some(image) => {
                let lists = std::mem::take(&mut image.lists);
                self.build_from(&image.solver, image.sizes, lists)
            }
            None => self.build_from_scratch(),
        };
        drop(build_span);
        #[cfg(debug_assertions)]
        if image.is_some() {
            let mut fresh = self.build_from_scratch();
            fresh.index_pairs();
            solver.index_pairs();
            solver.assert_same_state(&fresh);
        }
        self.image = image;
        // Solver statistics are cumulative over the solver's lifetime, and
        // a copy of an image carries the image's; subtract a pre-solve
        // snapshot so `last_stats` is per-call.
        let baseline = solver.stats().clone();
        let result = solver.solve_under(
            assumptions,
            Limits {
                max_conflicts: options.max_conflicts,
                timeout: options.timeout,
                reduce_threshold: options.reduce_threshold,
                chrono_threshold: options.chrono_threshold,
            },
        );
        self.last_stats = solver.stats().delta_since(&baseline);
        if self.warm_start {
            self.harvest_warm_state(&solver);
        }
        if let Some(image) = &mut self.image {
            image.lists = solver.take_watch_lists();
        }
        match result {
            SatResult::Unsat => Outcome::Unsat,
            SatResult::Unknown => Outcome::Unknown,
            SatResult::Sat => {
                let bools = (0..self.num_bools)
                    .map(|i| solver.value(BoolVar(i as u32)) == Value::True)
                    .collect();
                let offset = self
                    .zero
                    .map(|z| solver.theory().value(z.index()))
                    .unwrap_or(0);
                let ints = (0..self.num_ints)
                    .map(|i| solver.theory().value(i) - offset)
                    .collect();
                Outcome::Sat(Assignment { bools, ints })
            }
        }
    }

    /// The solver of a solve call: a copy of `base`, which holds the stores
    /// up to `from`, extended by the rest of the model in model order —
    /// variables and atoms, the warm-start seed, clauses, then the learned
    /// cache. From an empty solver this is the build from scratch. The
    /// solver's watch lists are `lists`, refilled.
    fn build_from(&self, base: &Solver, from: Sizes, lists: WatchLists) -> Solver {
        let to = self.sizes();
        let learned_lits: usize = self.learned_cache.iter().map(Vec::len).sum();
        let mut solver = base.clone_with_room(
            to.bools - from.bools,
            to.ints - from.ints,
            to.clauses - from.clauses + self.learned_cache.len(),
            to.clause_lits - from.clause_lits + learned_lits,
            lists,
        );
        self.add_variables(&mut solver, from, to);
        if self.warm_start {
            solver.seed_phases(&self.saved_phase);
            solver.seed_activity(&self.saved_activity, self.saved_var_inc);
        }
        for clause in self.clauses_between(from, to) {
            solver.add_clause(clause);
        }
        // Learned clauses from earlier solve calls are consequences of (a
        // prefix of) the clauses just added, so replaying them is sound and
        // lets the solver skip re-deriving them.
        for clause in &self.learned_cache {
            solver.add_clause(clause);
        }
        solver.watch_clauses();
        solver
    }

    /// The solver of a solve call, built from an empty solver.
    fn build_from_scratch(&self) -> Solver {
        let empty = Solver::new(DifferenceLogic::new());
        self.build_from(&empty, Sizes::default(), WatchLists::default())
    }

    /// Brings the solver image up to `to`, the innermost scope's mark,
    /// starting from an empty solver when there is no image. An image
    /// already past `to` (its scope was committed into an outer one) is
    /// still a prefix of the model and stays as it is.
    fn extend_image(&mut self, to: Sizes) {
        let mut image = self.image.take().unwrap_or_else(|| {
            Box::new(Image {
                solver: Solver::new(DifferenceLogic::new()),
                sizes: Sizes::default(),
                lists: WatchLists::default(),
            })
        });
        let from = image.sizes;
        if to.covers(&from) {
            self.add_variables(&mut image.solver, from, to);
            for clause in self.clauses_between(from, to) {
                image.solver.add_clause(clause);
            }
            image.sizes = to;
        }
        image.solver.index_pairs();
        self.image = Some(image);
    }

    /// Adds the integer and Boolean variables created after the stores had
    /// sizes `from` and before they had `to`, and attaches the atoms created
    /// in between.
    fn add_variables(&self, solver: &mut Solver, from: Sizes, to: Sizes) {
        for _ in from.ints..to.ints {
            solver.theory_mut().new_var();
        }
        for _ in from.bools..to.bools {
            solver.new_var();
        }
        let range = from.atoms..to.atoms;
        for (atom, proxy) in self.atoms[range.clone()]
            .iter()
            .zip(&self.atom_proxy[range])
        {
            solver.attach_atom(*proxy, *atom);
        }
    }

    /// Harvests learned clauses, phases and activities from a finished
    /// solver for the next warm-started solve call.
    fn harvest_warm_state(&mut self, solver: &Solver) {
        self.saved_phase = solver.phase_snapshot();
        self.saved_phase.truncate(self.num_bools);
        let (activity, var_inc) = solver.activity_snapshot();
        self.saved_activity = activity;
        self.saved_activity.truncate(self.num_bools);
        self.saved_var_inc = var_inc;
        if self.learned_cache.len() >= WARM_MAX_CACHE {
            return;
        }
        let seen: HashSet<&[Lit]> = self.learned_cache.iter().map(|c| c.as_slice()).collect();
        let mut fresh: Vec<Vec<Lit>> = Vec::new();
        for mut clause in solver.export_learned(WARM_MAX_CLAUSE_LEN) {
            clause.sort_by_key(|l| l.code());
            clause.dedup();
            if seen.contains(clause.as_slice()) || fresh.contains(&clause) {
                continue;
            }
            fresh.push(clause);
            if fresh.len() >= WARM_MAX_PER_SOLVE
                || self.learned_cache.len() + fresh.len() >= WARM_MAX_CACHE
            {
                break;
            }
        }
        self.learned_cache.extend(fresh);
    }

    /// Verifies that an assignment satisfies every clause and every asserted
    /// atom of this model — an independent soundness check used by tests and
    /// by the synthesis verifier.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::ModelViolation`] naming the first violated
    /// constraint.
    pub fn verify(&self, assignment: &Assignment) -> Result<(), SmtError> {
        for (idx, clause) in self.clauses().enumerate() {
            if clause.is_empty() || clause.iter().all(|&l| !assignment.lit_value(l)) {
                return Err(SmtError::ModelViolation {
                    what: format!("clause #{idx} is falsified"),
                });
            }
        }
        for (atom, proxy) in self.atoms.iter().zip(self.atom_proxy.iter()) {
            let x = assignment.ints[atom.x];
            let y = assignment.ints[atom.y];
            let holds = x - y <= atom.k;
            if assignment.bool_value(*proxy) != holds {
                return Err(SmtError::ModelViolation {
                    what: format!(
                        "atom {} - {} <= {} disagrees with its proxy value",
                        IntVar(atom.x as u32),
                        IntVar(atom.y as u32),
                        atom.k
                    ),
                });
            }
        }
        if let Some(z) = self.zero {
            if assignment.int_value(z) != 0 {
                return Err(SmtError::ModelViolation {
                    what: "zero reference variable is not zero".to_string(),
                });
            }
        }
        Ok(())
    }
}

// A model (including its warm-start cache of learned clauses, phases and
// activities) owns all of its state, so it can be moved into worker threads —
// the partitioned synthesis of `tsn_scale` solves one model per partition on
// a scoped thread pool. This assertion keeps that property from regressing.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Model>();
    assert_send_sync::<Assignment>();
    assert_send_sync::<SolverStats>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_boolean_sat() {
        let mut m = Model::new();
        let a = m.new_bool();
        let b = m.new_bool();
        m.add_clause([a.lit(), b.lit()]);
        m.add_clause([a.negated(), b.lit()]);
        let outcome = m.solve();
        let asg = outcome.assignment().unwrap();
        assert!(asg.bool_value(b));
        m.verify(asg).unwrap();
    }

    #[test]
    fn pure_boolean_unsat() {
        let mut m = Model::new();
        let a = m.new_bool();
        m.assert_lit(a.lit());
        m.assert_lit(a.negated());
        assert!(m.solve().is_unsat());
    }

    #[test]
    fn bounds_and_ordering() {
        let mut m = Model::new();
        let x = m.new_int();
        let y = m.new_int();
        m.int_bounds(x, 0, 100);
        m.int_bounds(y, 0, 100);
        m.assert_diff_le(x, y, -10); // x + 10 <= y
        let outcome = m.solve();
        let asg = outcome.assignment().unwrap();
        assert!(asg.int_value(y) - asg.int_value(x) >= 10);
        assert!(asg.int_value(x) >= 0 && asg.int_value(y) <= 100);
        m.verify(asg).unwrap();
    }

    #[test]
    fn infeasible_bounds() {
        let mut m = Model::new();
        let x = m.new_int();
        let y = m.new_int();
        m.int_bounds(x, 0, 5);
        m.int_bounds(y, 0, 5);
        m.assert_diff_le(x, y, -10);
        assert!(m.solve().is_unsat());
    }

    #[test]
    fn exactly_one_selection() {
        let mut m = Model::new();
        let options: Vec<Lit> = (0..5).map(|_| m.new_bool().lit()).collect();
        m.exactly_one(&options);
        let outcome = m.solve();
        let asg = outcome.assignment().unwrap();
        let chosen = options.iter().filter(|&&l| asg.lit_value(l)).count();
        assert_eq!(chosen, 1);
        m.verify(asg).unwrap();
    }

    #[test]
    fn disjunctive_scheduling_toy() {
        // Three unit jobs on one machine within [0, 2]: a permutation must be
        // found.
        let mut m = Model::new();
        let starts: Vec<IntVar> = (0..3).map(|_| m.new_int()).collect();
        for &s in &starts {
            m.int_bounds(s, 0, 2);
        }
        for i in 0..3 {
            for j in (i + 1)..3 {
                let before = m.diff_le(starts[i], starts[j], -1);
                let after = m.diff_le(starts[j], starts[i], -1);
                m.add_clause([before, after]);
            }
        }
        let outcome = m.solve();
        let asg = outcome.assignment().unwrap();
        let mut values: Vec<i64> = starts.iter().map(|&s| asg.int_value(s)).collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 1, 2]);
        m.verify(asg).unwrap();
    }

    #[test]
    fn disjunctive_scheduling_overconstrained() {
        // Four unit jobs in a window of three slots: unsatisfiable.
        let mut m = Model::new();
        let starts: Vec<IntVar> = (0..4).map(|_| m.new_int()).collect();
        for &s in &starts {
            m.int_bounds(s, 0, 2);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                let before = m.diff_le(starts[i], starts[j], -1);
                let after = m.diff_le(starts[j], starts[i], -1);
                m.add_clause([before, after]);
            }
        }
        assert!(m.solve().is_unsat());
    }

    #[test]
    fn conditional_constraints_follow_selection() {
        // If route A is chosen, x must be at least 50; if route B, at most 10.
        let mut m = Model::new();
        let x = m.new_int();
        m.int_bounds(x, 0, 100);
        let route_a = m.new_bool();
        let route_b = m.new_bool();
        m.exactly_one(&[route_a.lit(), route_b.lit()]);
        let ge50 = m.ge_const(x, 50);
        let le10 = m.le_const(x, 10);
        m.implies(route_a.lit(), ge50);
        m.implies(route_b.lit(), le10);
        // Additionally force x >= 20, so only route A works.
        let ge20 = m.ge_const(x, 20);
        m.assert_lit(ge20);
        let outcome = m.solve();
        let asg = outcome.assignment().unwrap();
        assert!(asg.bool_value(route_a));
        assert!(!asg.bool_value(route_b));
        assert!(asg.int_value(x) >= 50);
        m.verify(asg).unwrap();
    }

    #[test]
    fn atom_deduplication() {
        let mut m = Model::new();
        let x = m.new_int();
        let y = m.new_int();
        let a1 = m.diff_le(x, y, 3);
        let a2 = m.diff_le(x, y, 3);
        assert_eq!(a1, a2);
        let a3 = m.diff_le(x, y, 4);
        assert_ne!(a1, a3);
    }

    #[test]
    fn unknown_on_tiny_conflict_budget() {
        // A pigeonhole-flavoured model that needs more than one conflict.
        let mut m = Model::new();
        let vars: Vec<Vec<Lit>> = (0..5)
            .map(|_| (0..4).map(|_| m.new_bool().lit()).collect())
            .collect();
        for row in &vars {
            m.at_least_one(row);
        }
        for j in 0..4 {
            let column: Vec<Lit> = vars.iter().map(|row| row[j]).collect();
            m.at_most_one(&column);
        }
        let outcome = m.solve_with(SolveOptions {
            max_conflicts: Some(1),
            ..SolveOptions::default()
        });
        assert!(matches!(outcome, Outcome::Unknown));
        // And with unlimited resources it is proven unsatisfiable.
        assert!(m.solve().is_unsat());
    }

    #[test]
    fn stats_are_populated() {
        let mut m = Model::new();
        let a = m.new_bool();
        let b = m.new_bool();
        m.add_clause([a.lit(), b.lit()]);
        let _ = m.solve();
        assert!(m.last_stats().decisions <= 2);
    }

    #[test]
    fn warm_session_stats_are_per_solve_not_cumulative() {
        // A hard unsatisfiable probe followed by a trivial solve on the same
        // warm model: if stats were reported cumulatively, the second report
        // would carry the first solve's conflicts along. Per-solve deltas
        // keep the trivial solve's figures trivial.
        let mut m = Model::new();
        m.set_warm_start(true);
        let x = m.new_int();
        m.int_bounds(x, 0, 3);
        m.push();
        let vars: Vec<Vec<Lit>> = (0..6)
            .map(|_| (0..5).map(|_| m.new_bool().lit()).collect())
            .collect();
        for row in &vars {
            m.at_least_one(row);
        }
        for j in 0..5 {
            let column: Vec<Lit> = vars.iter().map(|row| row[j]).collect();
            m.at_most_one(&column);
        }
        assert!(m.solve().is_unsat());
        let hard = m.last_stats().clone();
        assert!(hard.conflicts > 0, "the pigeonhole probe must conflict");
        m.pop();

        assert!(m.solve().is_sat());
        let trivial = m.last_stats();
        assert!(
            trivial.conflicts < hard.conflicts,
            "second report ({} conflicts) must not include the first's ({})",
            trivial.conflicts,
            hard.conflicts
        );
        assert!(
            trivial.decisions <= 2,
            "a one-variable model needs at most a couple of decisions, got {}",
            trivial.decisions
        );
    }

    /// Builds a warm model with some solve history: a satisfiable
    /// scheduling-flavoured core plus a guarded pigeonhole probe that
    /// conflicts enough to populate the learned cache, phases and
    /// activities — while leaving the model satisfiable once the guard
    /// assumption is dropped.
    fn warm_model_with_history() -> Model {
        let mut m = Model::new();
        m.set_warm_start(true);
        let x = m.new_int();
        let y = m.new_int();
        m.int_bounds(x, 0, 10);
        m.int_bounds(y, 0, 10);
        m.assert_diff_le(x, y, -2);
        let guard = m.new_bool().lit();
        let vars: Vec<Vec<Lit>> = (0..5)
            .map(|_| (0..4).map(|_| m.new_bool().lit()).collect())
            .collect();
        for row in &vars {
            let mut clause = vec![!guard];
            clause.extend_from_slice(row);
            m.add_clause(clause);
        }
        for j in 0..4 {
            let column: Vec<Lit> = vars.iter().map(|row| row[j]).collect();
            m.at_most_one(&column);
        }
        assert!(
            m.solve_with_assumptions(&[guard], SolveOptions::default())
                .is_unsat(),
            "pigeonhole core is unsat under its guard"
        );
        m
    }

    #[test]
    fn exported_state_restores_bit_identical_solving() {
        let mut donor = warm_model_with_history();
        assert!(donor.warm_cache_len() > 0, "history must leave warm state");
        let state = donor.export_state().unwrap();
        let mut restored = Model::from_state(state.clone()).unwrap();
        assert_eq!(restored.num_bools(), donor.num_bools());
        assert_eq!(restored.num_ints(), donor.num_ints());
        assert_eq!(restored.num_clauses(), donor.num_clauses());
        assert_eq!(restored.warm_cache_len(), donor.warm_cache_len());

        // The same future query must produce the same outcome AND the same
        // statistics on both models — that is the migration contract.
        let probe = |m: &mut Model| {
            m.push();
            let a = m.new_int();
            let b = m.new_int();
            m.int_bounds(a, 0, 6);
            m.int_bounds(b, 0, 6);
            let first = m.diff_le(a, b, -3);
            let second = m.diff_le(b, a, -3);
            m.add_clause([first, second]);
            let outcome = m.solve();
            let mut stats = m.last_stats().clone();
            // Wall-clock time is the one legitimately non-deterministic
            // statistic; every counter must match exactly.
            stats.solve_time = std::time::Duration::ZERO;
            m.commit();
            (outcome.is_sat(), stats)
        };
        let (donor_sat, donor_stats) = probe(&mut donor);
        let (restored_sat, restored_stats) = probe(&mut restored);
        assert!(donor_sat);
        assert_eq!(restored_sat, donor_sat);
        assert_eq!(restored_stats, donor_stats, "statistics must migrate");

        // Exporting the restored model reproduces the donor's export.
        let donor_again = donor.export_state().unwrap();
        let restored_again = restored.export_state().unwrap();
        assert_eq!(donor_again.clauses, restored_again.clauses);
        assert_eq!(donor_again.learned, restored_again.learned);
        assert_eq!(donor_again.phase, restored_again.phase);
        assert_eq!(donor_again.activity, restored_again.activity);
    }

    #[test]
    fn export_refuses_open_scopes_and_restore_validates() {
        let mut m = warm_model_with_history();
        m.push();
        assert!(m.export_state().is_err(), "open scopes cannot move");
        m.pop();
        let good = m.export_state().unwrap();
        assert!(Model::from_state(good.clone()).is_ok());

        let mut bad = good.clone();
        bad.clauses.push(vec![u32::MAX]);
        assert!(Model::from_state(bad).is_err(), "lit code out of range");

        let mut bad = good.clone();
        bad.atom_proxy.pop();
        assert!(Model::from_state(bad).is_err(), "atom table mismatch");

        let mut bad = good.clone();
        bad.atoms.push((9_999, 0, 1));
        bad.atom_proxy.push(0);
        assert!(Model::from_state(bad).is_err(), "atom var out of range");

        let mut bad = good.clone();
        bad.atom_proxy[1] = bad.atom_proxy[0];
        assert!(Model::from_state(bad).is_err(), "proxy shared by two atoms");

        let mut bad = good.clone();
        bad.atoms[1] = bad.atoms[0];
        assert!(Model::from_state(bad).is_err(), "atom listed twice");

        let mut bad = good.clone();
        bad.zero = Some(9_999);
        assert!(Model::from_state(bad).is_err(), "zero out of range");

        let mut bad = good.clone();
        bad.phase = vec![true; bad.bools + 1];
        assert!(Model::from_state(bad).is_err(), "oversized phase vector");

        let mut bad = good;
        bad.var_inc = f64::NAN;
        assert!(Model::from_state(bad).is_err(), "non-finite activity");
    }

    #[test]
    fn push_pop_restores_the_model() {
        let mut m = Model::new();
        let x = m.new_int();
        let y = m.new_int();
        m.int_bounds(x, 0, 10);
        m.int_bounds(y, 0, 10);
        m.assert_diff_le(x, y, -2); // x + 2 <= y
        assert!(m.solve().is_sat());
        let (bools, ints, clauses) = (m.num_bools(), m.num_ints(), m.num_clauses());

        m.push();
        assert_eq!(m.scope_depth(), 1);
        let z = m.new_int();
        m.int_bounds(z, 0, 1);
        m.assert_diff_le(y, z, -2); // y + 2 <= z: impossible with z <= 1
        assert!(m.solve().is_unsat());
        m.pop();

        assert_eq!(m.scope_depth(), 0);
        assert_eq!(m.num_bools(), bools);
        assert_eq!(m.num_ints(), ints);
        assert_eq!(m.num_clauses(), clauses);
        let outcome = m.solve();
        let asg = outcome.assignment().expect("restored model is satisfiable");
        m.verify(asg).unwrap();

        // Atom deduplication must be scope-aware: re-creating an atom that
        // was popped yields a fresh proxy, not a dangling one.
        m.push();
        let inner = m.diff_le(x, y, 7);
        m.pop();
        let again = m.diff_le(x, y, 7);
        assert_eq!(inner, again, "same position is reused after pop");
        assert!(again.var().index() < m.num_bools());
    }

    #[test]
    fn commit_keeps_the_scope_contents() {
        let mut m = Model::new();
        let x = m.new_int();
        m.int_bounds(x, 0, 100);
        m.push();
        let le = m.le_const(x, 10);
        m.assert_lit(le);
        m.commit();
        assert_eq!(m.scope_depth(), 0);
        let outcome = m.solve();
        assert!(outcome.assignment().unwrap().int_value(x) <= 10);
    }

    #[test]
    fn assumptions_do_not_stick() {
        let mut m = Model::new();
        let x = m.new_int();
        m.int_bounds(x, 0, 100);
        let ge50 = m.ge_const(x, 50);
        let le10 = m.le_const(x, 10);
        let under = m.solve_with_assumptions(&[ge50], SolveOptions::default());
        assert!(under.assignment().unwrap().int_value(x) >= 50);
        // Contradictory assumptions: unsat under them, sat without.
        let both = m.solve_with_assumptions(&[ge50, le10], SolveOptions::default());
        assert!(both.is_unsat());
        assert!(m.solve().is_sat());
    }

    #[test]
    fn warm_start_preserves_outcomes() {
        // The same sequence of probes with and without warm start must give
        // identical verdicts; the warm model accumulates learned clauses.
        let build = |warm: bool| {
            let mut m = Model::new();
            m.set_warm_start(warm);
            let starts: Vec<IntVar> = (0..4).map(|_| m.new_int()).collect();
            for &s in &starts {
                m.int_bounds(s, 0, 3);
            }
            for i in 0..4 {
                for j in (i + 1)..4 {
                    let before = m.diff_le(starts[i], starts[j], -1);
                    let after = m.diff_le(starts[j], starts[i], -1);
                    m.add_clause([before, after]);
                }
            }
            let mut verdicts = Vec::new();
            verdicts.push(m.solve().is_sat());
            // Probe: a fifth job in the same window is too much.
            m.push();
            let extra = m.new_int();
            m.int_bounds(extra, 0, 3);
            for &s in &starts {
                let before = m.diff_le(extra, s, -1);
                let after = m.diff_le(s, extra, -1);
                m.add_clause([before, after]);
            }
            verdicts.push(m.solve().is_sat());
            m.pop();
            verdicts.push(m.solve().is_sat());
            (verdicts, m.warm_cache_len())
        };
        let (cold, cold_cache) = build(false);
        let (warm, _) = build(true);
        assert_eq!(cold, warm);
        assert_eq!(cold, vec![true, false, true]);
        assert_eq!(cold_cache, 0, "cold models never cache");
    }

    #[test]
    fn warm_cache_is_truncated_on_pop() {
        let mut m = Model::new();
        m.set_warm_start(true);
        let x = m.new_int();
        m.int_bounds(x, 0, 3);
        let _ = m.solve();
        let base_cache = m.warm_cache_len();
        m.push();
        // An unsatisfiable probe that forces learning.
        let vars: Vec<Vec<Lit>> = (0..4)
            .map(|_| (0..3).map(|_| m.new_bool().lit()).collect())
            .collect();
        for row in &vars {
            m.at_least_one(row);
        }
        for j in 0..3 {
            let column: Vec<Lit> = vars.iter().map(|row| row[j]).collect();
            m.at_most_one(&column);
        }
        assert!(m.solve().is_unsat());
        m.pop();
        assert_eq!(
            m.warm_cache_len(),
            base_cache,
            "clauses learned inside the popped scope must be dropped"
        );
        assert!(m.solve().is_sat());
    }

    #[test]
    fn empty_clause_makes_model_unsat() {
        let mut m = Model::new();
        let _ = m.new_bool();
        m.add_clause(Vec::<Lit>::new());
        assert!(m.solve().is_unsat());
    }
}
