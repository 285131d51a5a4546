//! The CDCL SAT core with difference-logic theory integration (DPLL(T)).
//!
//! A fairly standard conflict-driven clause-learning solver: two-watched
//! literals, first-UIP conflict analysis, VSIDS-style activity ordering with
//! phase saving, and Luby restarts. After every Boolean propagation fixpoint
//! the newly assigned difference-atom proxies are forwarded to the
//! [`DifferenceLogic`] theory; a theory conflict is turned into a learned
//! clause and handled exactly like a Boolean conflict.
//!
//! # Theory propagation
//!
//! The theory does not only check what the SAT core asserts, it also
//! implies. Every proxy belongs to the slice of atoms over its unordered
//! integer pair `{x, y}`. Once the theory accepts an edge `from → to` of
//! weight `w` (`to − from ≤ w`), every unassigned atom of that pair it
//! decides is enqueued: `to − from ≤ k` with `k ≥ w` as true, and
//! `from − to ≤ k` with `k < −w` as false. The stability staircase (many
//! unary bounds on one release) and the two orderings of a contended link
//! are exactly such pairs, so the search no longer decides an atom an edge
//! on the same two variables has already settled. An implied literal's
//! reason is the binary clause `(implied ∨ ¬edge literal)`; it is never
//! stored (the reason slot holds `THEORY_REASON` and the edge literal sits
//! in a per-variable table), so clause-DB reduction and the exported learned
//! clauses never see it. An implied literal is not asserted into the theory
//! in turn: the stronger edge that implied it already is. Implications via
//! longer paths are not made.
//!
//! # Decision order
//!
//! The next decision is the unassigned variable that comes first in one
//! strict total order: higher activity first, ties to the lower variable
//! index. The candidates sit in MiniSat's indexed binary max-heap under that
//! order, so a decision costs O(log n) instead of a sort or a scan. A bump
//! sifts its variable up, a backjump re-inserts every variable it
//! unassigns, and a variable assigned by propagation stays in the heap until
//! a decision pops and drops it. Because the order is strict, the heap's
//! top is *the* argmax: every choice, and therefore every learned clause and
//! every statistic, is a function of the activities alone, not of how the
//! heap happens to be laid out.
//!
//! # Clause storage
//!
//! Every stored clause's literals sit back to back in one arena, and a
//! clause is a small header (offset, length, learned flag, activity) in a
//! vector indexed by clause number. Watchers and reasons name that number.
//! Adding a clause sorts, deduplicates and filters it in one scratch buffer
//! the solver keeps and appends it to the arena, so building a solver
//! allocates per clause nothing but arena space.
//! Clause-DB reduction deletes headers and slides the surviving literals
//! down over the gaps, keeping clause order, so the renumbering it applies
//! to watchers and reasons is the same as for a vector of owned clauses.
//!
//! An added clause is stored unwatched. Before a search, the watchers of
//! every clause added since the last one are attached in clause order, into
//! watch lists each allocated once at the size their clauses need (or
//! refilled from a finished solver's lists). Nothing reads a watch list
//! before the search, and a list holds at most one watcher per clause, so
//! the lists come out as if each clause had been watched as it was added.
//! Until then a solver holds no watcher, which keeps small the image of
//! its clauses below an open scope that a [`Model`](crate::Model) keeps,
//! and copies for each solve.
//!
//! Each variable's difference atom, if it is a proxy, sits in a dense table
//! indexed by the variable, so theory propagation looks it up without
//! hashing. The same-pair slices are one flat array kept sorted on (pair,
//! variable): before a solve, the proxies attached since the last one are
//! sorted and merged in. No hashing there either, and because (pair,
//! variable) is a total order the index is the same however its proxies
//! arrived, so the order of implications is a function of the model alone
//! and the search is the same for any thread count.

use std::cmp::Ordering;
use std::sync::OnceLock;

use tsn_telemetry::{Clock, Counter, Histogram, MonotonicClock};

use crate::theory::{DiffAtom, DifferenceLogic};
use crate::types::{BoolVar, Lit, Value};
use crate::SolverStats;

/// Resource limits for a single `solve` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Limits {
    /// Maximum number of conflicts before giving up (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Wall-clock budget (`None` = unlimited).
    pub timeout: Option<std::time::Duration>,
    /// Learned-clause count above which the clause database is reduced at
    /// the next restart (`None` = the built-in default). Tests force tiny
    /// values to make reduction fire on small instances.
    pub reduce_threshold: Option<usize>,
}

/// Default learned-clause count that triggers clause-DB reduction at a
/// restart boundary; grows by half after every reduction within a solve.
const DEFAULT_REDUCE_THRESHOLD: usize = 4000;

/// `Solver::heap_pos` entry of a variable that is not in the decision heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// `Solver::reason` entry of a literal the theory implied. It names no
/// clause: the reason is `(implied ∨ ¬antecedent[var])`, expanded by
/// `analyze` on demand.
const THEORY_REASON: usize = usize::MAX;

/// Telemetry handles for the solver, resolved once per process: one
/// histogram per solve phase plus restart/reduction counters. The phase
/// histograms are fed from per-solve accumulators (see [`SolveTelemetry`]),
/// never from inside the search loop.
struct SmtMetrics {
    solve: Histogram,
    propagate: Histogram,
    theory: Histogram,
    decide: Histogram,
    reduce: Histogram,
    restarts: Counter,
    reductions: Counter,
}

fn smt_metrics() -> &'static SmtMetrics {
    static METRICS: OnceLock<SmtMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = tsn_telemetry::registry();
        SmtMetrics {
            solve: registry.histogram("smt_solve_seconds"),
            propagate: registry.histogram("smt_propagate_seconds"),
            theory: registry.histogram("smt_theory_seconds"),
            decide: registry.histogram("smt_decide_seconds"),
            reduce: registry.histogram("smt_reduce_db_seconds"),
            restarts: registry.counter("smt_restarts_total"),
            reductions: registry.counter("smt_db_reductions_total"),
        }
    })
}

/// Per-solve phase timing. Clock reads inside the CDCL loop happen only
/// when span recording is enabled ([`tsn_telemetry::enabled`], checked once
/// at solve entry) — with telemetry off the loop pays nothing. Accumulated
/// nanoseconds are flushed into the phase histograms on drop, which runs on
/// every exit path of [`Solver::solve_under`].
struct SolveTelemetry {
    timed: bool,
    start: std::time::Instant,
    propagate_ns: u64,
    theory_ns: u64,
    decide_ns: u64,
    reduce_ns: u64,
}

impl SolveTelemetry {
    fn begin() -> Self {
        SolveTelemetry {
            timed: tsn_telemetry::enabled(),
            start: std::time::Instant::now(),
            propagate_ns: 0,
            theory_ns: 0,
            decide_ns: 0,
            reduce_ns: 0,
        }
    }

    /// A phase-start mark; zero (and free) when timing is off.
    #[inline]
    fn mark(&self) -> u64 {
        if self.timed {
            MonotonicClock.now_ns()
        } else {
            0
        }
    }

    #[inline]
    fn lap(&self, mark: u64) -> u64 {
        if self.timed {
            MonotonicClock.now_ns().saturating_sub(mark)
        } else {
            0
        }
    }
}

impl Drop for SolveTelemetry {
    fn drop(&mut self) {
        let metrics = smt_metrics();
        metrics.solve.observe(self.start.elapsed());
        if self.timed {
            metrics.propagate.observe_ns(self.propagate_ns);
            metrics.theory.observe_ns(self.theory_ns);
            metrics.decide.observe_ns(self.decide_ns);
            if self.reduce_ns > 0 {
                metrics.reduce.observe_ns(self.reduce_ns);
            }
        }
    }
}

/// Raw solver outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment was found.
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
    /// A resource limit was hit before a verdict was reached.
    Unknown,
}

/// One clause of the database: where its literals sit in the literal
/// arena, and how it ranks for clause-DB reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Clause {
    /// Offset of the clause's first literal in `Solver::lits`.
    start: u32,
    /// Number of literals: at least two, except in a theory lemma, which is
    /// analyzed at once and never watched.
    len: u32,
    /// Whether the clause was learned during search. Only learned clauses
    /// are eligible for clause-DB reduction.
    learned: bool,
    /// Bump-and-decay activity: raised whenever the clause participates in
    /// conflict analysis, used to rank reduction victims.
    activity: f64,
}

impl Clause {
    /// The clause's literals as a range of `Solver::lits`.
    fn range(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Watcher {
    clause: usize,
    blocker: Lit,
}

/// The capacity of a watch list of `len` watchers that may gain `extra`
/// more, rounded up as pushing would have grown it: propagation moves
/// watchers between lists, and an exact fit would reallocate on the first
/// move in.
fn watch_capacity(len: usize, extra: u32) -> usize {
    match len + extra as usize {
        0 => 0,
        n => n.next_power_of_two().max(4),
    }
}

/// A copy of `items` with room for `extra` more, in one allocation.
pub(crate) fn with_room<T: Clone>(items: &[T], extra: usize) -> Vec<T> {
    let mut copy = Vec::with_capacity(items.len() + extra);
    copy.extend_from_slice(items);
    copy
}

/// Emptied watch lists of a finished solver, for a later build to refill:
/// that build then allocates only the lists these do not cover or are too
/// small for.
#[derive(Debug, Default)]
pub(crate) struct WatchLists(Vec<Vec<Watcher>>);

/// The CDCL(T) solver. Built and driven by [`Model`](crate::Model).
#[derive(Debug)]
pub struct Solver {
    // Clause database: one header per clause, in creation order, over one
    // literal arena (`lits`) that holds every clause back to back. The
    // clauses from `watched` on were added since the last search and are
    // not watched yet (`watch_clauses`); `watches` has a list per literal
    // code only once they are.
    clauses: Vec<Clause>,
    lits: Vec<Lit>,
    watched: usize,
    watches: Vec<Vec<Watcher>>,
    // `add_clause`'s sort-dedup-filter buffer, kept across calls.
    add_scratch: Vec<Lit>,
    // Assignment state.
    assigns: Vec<Value>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // Decision ordering: VSIDS activities, the amount the next bump adds,
    // and a binary max-heap of candidate variables under [`Solver::before`]
    // (higher activity first, ties to the lower index). Every unassigned
    // variable is in the heap; assigned ones may linger until popped.
    // `heap_pos[v]` is v's slot in `heap`, or `NOT_IN_HEAP`.
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<BoolVar>,
    heap_pos: Vec<u32>,
    // Clause activity (for DB reduction victim ranking).
    cla_inc: f64,
    // Conflict-analysis scratch: `seen[v] == seen_epoch` marks v as visited
    // in the current analysis (epoch stamping avoids an O(num_vars)
    // allocation per conflict).
    seen: Vec<u64>,
    seen_epoch: u64,
    // Theory: the difference atom of each proxy variable, indexed by
    // variable (`None` for plain Booleans).
    theory: DifferenceLogic,
    atoms: Vec<Option<DiffAtom>>,
    theory_qhead: usize,
    // Same-pair index: `pair_members[pair_start[p]..pair_start[p + 1]]` are
    // the proxies over integer pair `p`, in variable order, and
    // `pair_of[v]` is proxy v's pair. `pairs_pending` holds the proxies
    // attached since the last `index_pairs`, which `solve_under` merges in.
    pair_of: Vec<u32>,
    pair_start: Vec<u32>,
    pair_members: Vec<BoolVar>,
    pairs_pending: Vec<BoolVar>,
    // For a variable whose reason is `THEORY_REASON`: the literal of the
    // edge that implied it.
    antecedent: Vec<Lit>,
    // Bookkeeping.
    found_empty_clause: bool,
    learned_units: Vec<Lit>,
    stats: SolverStats,
}

impl Solver {
    /// Creates a solver over the given theory with no variables or clauses.
    pub fn new(theory: DifferenceLogic) -> Self {
        Solver {
            clauses: Vec::new(),
            lits: Vec::new(),
            watched: 0,
            watches: Vec::new(),
            add_scratch: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            cla_inc: 1.0,
            seen: Vec::new(),
            seen_epoch: 0,
            theory,
            atoms: Vec::new(),
            theory_qhead: 0,
            pair_of: Vec::new(),
            pair_start: Vec::new(),
            pair_members: Vec::new(),
            pairs_pending: Vec::new(),
            antecedent: Vec::new(),
            found_empty_clause: false,
            learned_units: Vec::new(),
            stats: SolverStats::default(),
        }
    }

    /// A copy of the solver with room for `vars` more Boolean and `ints`
    /// more integer variables and for `clauses` more clauses of `lits`
    /// literals in all: each array is allocated once, at that size, while
    /// it is copied. Watch lists are not copied: the copy's clauses are
    /// watched when it first searches, in `lists`.
    pub(crate) fn clone_with_room(
        &self,
        vars: usize,
        ints: usize,
        clauses: usize,
        lits: usize,
        lists: WatchLists,
    ) -> Solver {
        Solver {
            clauses: with_room(&self.clauses, clauses),
            lits: with_room(&self.lits, lits),
            watched: 0,
            watches: lists.0,
            add_scratch: Vec::new(),
            assigns: with_room(&self.assigns, vars),
            phase: with_room(&self.phase, vars),
            level: with_room(&self.level, vars),
            reason: with_room(&self.reason, vars),
            trail: with_room(&self.trail, vars),
            trail_lim: self.trail_lim.clone(),
            qhead: self.qhead,
            activity: with_room(&self.activity, vars),
            var_inc: self.var_inc,
            heap: with_room(&self.heap, vars),
            heap_pos: with_room(&self.heap_pos, vars),
            cla_inc: self.cla_inc,
            seen: with_room(&self.seen, vars),
            seen_epoch: self.seen_epoch,
            theory: self.theory.clone_with_room(ints),
            atoms: with_room(&self.atoms, vars),
            theory_qhead: self.theory_qhead,
            pair_of: with_room(&self.pair_of, vars),
            pair_start: self.pair_start.clone(),
            pair_members: with_room(&self.pair_members, self.pairs_pending.len() + vars),
            pairs_pending: with_room(&self.pairs_pending, vars),
            antecedent: with_room(&self.antecedent, vars),
            found_empty_clause: self.found_empty_clause,
            learned_units: self.learned_units.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Adds a fresh Boolean variable.
    pub fn new_var(&mut self) -> BoolVar {
        let var = BoolVar(self.assigns.len() as u32);
        self.assigns.push(Value::Unassigned);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(0);
        self.atoms.push(None);
        self.pair_of.push(0);
        self.antecedent.push(var.lit());
        self.heap_pos.push(NOT_IN_HEAP);
        self.heap_insert(var);
        var
    }

    /// Attaches a difference atom to a Boolean proxy variable. A variable
    /// proxies at most one atom; attaching a second replaces the first.
    /// Atoms may be attached between solves: the next solve indexes them.
    pub fn attach_atom(&mut self, var: BoolVar, atom: DiffAtom) {
        if self.atoms[var.index()].replace(atom).is_none() {
            self.pairs_pending.push(var);
        } else {
            // The replaced atom may sit on another pair: index every proxy
            // anew.
            self.pair_members.clear();
            self.pairs_pending.clear();
            self.pairs_pending.extend(
                (0..self.atoms.len() as u32)
                    .map(BoolVar)
                    .filter(|v| self.atoms[v.index()].is_some()),
            );
        }
    }

    /// Brings the same-pair index up to date: sorts the proxies attached
    /// since the last call on (unordered pair, variable), merges them into
    /// the index, which is kept in that order, and cuts the run at each new
    /// pair. The key is a total order, so the merged index is the one a
    /// sort of every proxy gives; the first call merges into an empty index.
    pub(crate) fn index_pairs(&mut self) {
        if self.pairs_pending.is_empty() {
            return;
        }
        let atoms = &self.atoms;
        let key = |var: BoolVar| {
            let a = atoms[var.index()].expect("only proxies are indexed");
            ((a.x.min(a.y), a.x.max(a.y)), var)
        };
        let pending = &mut self.pairs_pending;
        pending.sort_unstable_by_key(|&var| key(var));
        // Merge from the back into the slots the newcomers open at the end;
        // the members below the smallest newcomer stay where they are.
        let members = &mut self.pair_members;
        let mut old = members.len();
        members.resize(old + pending.len(), BoolVar(0));
        for slot in (0..members.len()).rev() {
            let Some(&new) = pending.last() else {
                break;
            };
            if old > 0 && key(members[old - 1]) > key(new) {
                members[slot] = members[old - 1];
                old -= 1;
            } else {
                members[slot] = new;
                pending.pop();
            }
        }
        self.pair_start.clear();
        let mut previous = None;
        for (i, &var) in self.pair_members.iter().enumerate() {
            let (pair, _) = key(var);
            if previous != Some(pair) {
                previous = Some(pair);
                self.pair_start.push(i as u32);
            }
            self.pair_of[var.index()] = (self.pair_start.len() - 1) as u32;
        }
        self.pair_start.push(self.pair_members.len() as u32);
    }

    /// Asserts that `other` holds the same state as `self`, field by field:
    /// assignment and trail, decision order, clause database and watch
    /// lists, atoms and the same-pair index, and the theory's variables.
    /// It checks that a solver a [`Model`](crate::Model) extended from its
    /// kept image is the solver a build from scratch gives.
    #[cfg(debug_assertions)]
    pub(crate) fn assert_same_state(&self, other: &Solver) {
        let bits = |activity: &[f64]| activity.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
        assert_eq!(self.assigns, other.assigns, "assigns");
        assert_eq!(self.phase, other.phase, "phase");
        assert_eq!(self.level, other.level, "level");
        assert_eq!(self.reason, other.reason, "reason");
        assert_eq!(self.trail, other.trail, "trail");
        assert_eq!(self.trail_lim, other.trail_lim, "trail_lim");
        assert_eq!(self.qhead, other.qhead, "qhead");
        assert_eq!(bits(&self.activity), bits(&other.activity), "activity");
        assert_eq!(self.var_inc.to_bits(), other.var_inc.to_bits(), "var_inc");
        assert_eq!(self.heap, other.heap, "heap");
        assert_eq!(self.heap_pos, other.heap_pos, "heap_pos");
        assert_eq!(self.watched, other.watched, "watched");
        assert_eq!(self.watches, other.watches, "watches");
        assert_eq!(self.clauses, other.clauses, "clause headers");
        assert_eq!(self.lits, other.lits, "clause arena");
        assert_eq!(self.atoms, other.atoms, "atoms");
        assert_eq!(self.pair_of, other.pair_of, "pair_of");
        assert_eq!(self.pair_start, other.pair_start, "pair_start");
        assert_eq!(self.pair_members, other.pair_members, "pair_members");
        assert_eq!(self.pairs_pending, other.pairs_pending, "pairs_pending");
        assert_eq!(
            self.theory.num_vars(),
            other.theory.num_vars(),
            "theory variables"
        );
        assert_eq!(
            self.found_empty_clause, other.found_empty_clause,
            "found_empty_clause"
        );
        assert_eq!(self.stats, other.stats, "stats");
    }

    /// Mutable access to the theory (used by the model builder to create
    /// integer variables).
    pub fn theory_mut(&mut self) -> &mut DifferenceLogic {
        &mut self.theory
    }

    /// Shared access to the theory (used to read the integer model).
    pub fn theory(&self) -> &DifferenceLogic {
        &self.theory
    }

    /// Solver statistics, cumulative over the solver's lifetime (every
    /// `solve`/`solve_under` call adds to the same counters). Callers that
    /// want per-solve figures snapshot before the call and use
    /// [`SolverStats::delta_since`] afterwards.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// The learned clauses currently in the database that have at most
    /// `max_len` literals, plus the unit clauses learned by the most recent
    /// `solve` call. Every returned clause is a logical consequence of the
    /// clause database the solver was given (learned clauses are derived by
    /// resolution over input clauses and by theory lemmas only — never from
    /// assumptions or decisions), so they can be replayed into a future
    /// solver over the same or a larger clause set as a warm start.
    pub fn export_learned(&self, max_len: usize) -> Vec<Vec<Lit>> {
        let mut out: Vec<Vec<Lit>> = self.learned_units.iter().map(|&l| vec![l]).collect();
        out.extend(
            self.clauses
                .iter()
                .filter(|c| c.learned && c.len as usize <= max_len)
                .map(|c| self.lits[c.range()].to_vec()),
        );
        out
    }

    /// The saved phase (last assigned polarity) of every variable.
    pub fn phase_snapshot(&self) -> Vec<bool> {
        self.phase.clone()
    }

    /// The VSIDS activity of every variable plus the current increment.
    pub fn activity_snapshot(&self) -> (Vec<f64>, f64) {
        (self.activity.clone(), self.var_inc)
    }

    /// Seeds the saved phases from a previous run (extra entries ignored,
    /// missing entries keep the default). An assigned variable keeps its
    /// value as its phase, as `enqueue` set it, so a level-0 unit leaves
    /// the same phase whether its clause was added before the seed or
    /// after.
    pub fn seed_phases(&mut self, phases: &[bool]) {
        for ((slot, &value), &p) in self.phase.iter_mut().zip(&self.assigns).zip(phases) {
            if value == Value::Unassigned {
                *slot = p;
            }
        }
    }

    /// Seeds the variable activities and increment from a previous run.
    pub fn seed_activity(&mut self, activity: &[f64], var_inc: f64) {
        for (slot, &a) in self.activity.iter_mut().zip(activity.iter()) {
            *slot = a;
        }
        if var_inc.is_finite() && var_inc > 0.0 {
            self.var_inc = var_inc;
        }
        self.rebuild_heap();
    }

    /// The number of Boolean variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// The number of clauses (original plus learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The current value of a variable.
    pub fn value(&self, var: BoolVar) -> Value {
        self.assigns[var.index()]
    }

    fn lit_value(&self, lit: Lit) -> Value {
        self.assigns[lit.var().index()].of_lit(lit)
    }

    /// Adds a clause. Must be called before `solve`; clauses added at
    /// decision level 0 only. The literals are sorted, deduplicated and
    /// filtered against the level-0 assignment in one buffer the solver
    /// keeps, so adding a clause allocates nothing but its arena space. The
    /// clause is watched when the next search starts.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert!(self.trail_lim.is_empty(), "clauses are added at level 0");
        let mut scratch = std::mem::take(&mut self.add_scratch);
        scratch.clear();
        scratch.extend_from_slice(lits);
        self.add_sorted_clause(&mut scratch);
        self.add_scratch = scratch;
    }

    /// The body of [`add_clause`](Solver::add_clause) over its scratch copy
    /// of the literals.
    fn add_sorted_clause(&mut self, lits: &mut Vec<Lit>) {
        // Remove duplicates and detect tautologies. Equal codes are equal
        // literals, so the unstable sort orders exactly as a stable one.
        lits.sort_unstable_by_key(|l| l.code());
        lits.dedup();
        for w in lits.windows(2) {
            if w[0].var() == w[1].var() {
                return; // l and !l in the same clause: tautology.
            }
        }
        // Drop literals already false at level 0, stop if any is true.
        let mut kept = 0;
        for i in 0..lits.len() {
            let l = lits[i];
            match self.lit_value(l) {
                Value::True => return,
                Value::False => {}
                Value::Unassigned => {
                    lits[kept] = l;
                    kept += 1;
                }
            }
        }
        lits.truncate(kept);
        match lits.len() {
            0 => {
                self.found_empty_clause = true;
            }
            1 => {
                // Unit clause: assign immediately at level 0.
                if !self.enqueue(lits[0], None) {
                    self.found_empty_clause = true;
                }
            }
            _ => {
                self.store_clause(lits, false, 0.0);
            }
        }
    }

    /// Empties the watch lists and hands them over for a later build (the
    /// solver is spent: it has no watch list left).
    pub(crate) fn take_watch_lists(&mut self) -> WatchLists {
        let mut lists = std::mem::take(&mut self.watches);
        for list in &mut lists {
            list.clear();
        }
        WatchLists(lists)
    }

    /// Watches every clause added since the last search on its first two
    /// literals, in clause order, after creating the watch lists of new
    /// variables and giving each list, once, room for every stored clause
    /// that holds its literal's complement (a clause can come to be watched
    /// on any of its literals).
    pub(crate) fn watch_clauses(&mut self) {
        let first = self.watched;
        if first == self.clauses.len() && self.watches.len() == 2 * self.num_vars() {
            return;
        }
        self.watches.resize_with(2 * self.num_vars(), Vec::new);
        // The clauses from `first` on hold the end of the arena.
        let mut occurrences = vec![0u32; self.watches.len()];
        let start = self
            .clauses
            .get(first)
            .map_or(self.lits.len(), |c| c.start as usize);
        for &l in &self.lits[start..] {
            occurrences[l.complement().code()] += 1;
        }
        for (list, &extra) in self.watches.iter_mut().zip(&occurrences) {
            let capacity = watch_capacity(list.len(), extra);
            if capacity > list.capacity() {
                list.reserve_exact(capacity - list.len());
            }
        }
        for idx in first..self.clauses.len() {
            let start = self.clauses[idx].start as usize;
            self.watch_clause(idx, self.lits[start], self.lits[start + 1]);
        }
        self.watched = self.clauses.len();
    }

    /// Appends a clause to the database, unwatched. Returns its index.
    fn store_clause(&mut self, lits: &[Lit], learned: bool, activity: f64) -> usize {
        let idx = self.clauses.len();
        // Offsets are `u32`: the end bound covers the start and the length.
        let start = self.lits.len();
        u32::try_from(start + lits.len()).expect("clause arena exceeds 2^32 literals");
        self.lits.extend_from_slice(lits);
        self.clauses.push(Clause {
            start: start as u32,
            len: lits.len() as u32,
            learned,
            activity,
        });
        self.note_clause_peak();
        idx
    }

    /// Watches clause `idx` on its first two literals, `first` and `second`.
    fn watch_clause(&mut self, idx: usize, first: Lit, second: Lit) {
        self.watches[first.complement().code()].push(Watcher {
            clause: idx,
            blocker: second,
        });
        self.watches[second.complement().code()].push(Watcher {
            clause: idx,
            blocker: first,
        });
    }

    /// Records the clause-database high-water mark.
    fn note_clause_peak(&mut self) {
        self.stats.peak_live_clauses = self.stats.peak_live_clauses.max(self.clauses.len() as u64);
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<usize>) -> bool {
        match self.lit_value(lit) {
            Value::True => true,
            Value::False => false,
            Value::Unassigned => {
                let var = lit.var().index();
                self.assigns[var] = if lit.is_negative() {
                    Value::False
                } else {
                    Value::True
                };
                self.phase[var] = !lit.is_negative();
                self.level[var] = self.decision_level();
                self.reason[var] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Boolean constraint propagation. Returns the index of a conflicting
    /// clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let falsified = lit; // watchers of `lit` watch its complement
            let mut watchers = std::mem::take(&mut self.watches[falsified.code()]);
            let mut i = 0;
            while i < watchers.len() {
                let w = watchers[i];
                // Quick skip when the blocker literal is already true.
                if self.lit_value(w.blocker) == Value::True {
                    i += 1;
                    continue;
                }
                let clause_idx = w.clause;
                let range = self.clauses[clause_idx].range();
                let start = range.start;
                // Normalize: ensure the falsified literal is at position 1.
                let watched = falsified.complement();
                if self.lits[start] == watched {
                    self.lits.swap(start, start + 1);
                }
                let first = self.lits[start];
                if first != w.blocker && self.lit_value(first) == Value::True {
                    watchers[i] = Watcher {
                        clause: clause_idx,
                        blocker: first,
                    };
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut new_watch = None;
                for pos in start + 2..range.end {
                    if self.lit_value(self.lits[pos]) != Value::False {
                        new_watch = Some(pos);
                        break;
                    }
                }
                if let Some(pos) = new_watch {
                    self.lits.swap(start + 1, pos);
                    let new_lit = self.lits[start + 1];
                    self.watches[new_lit.complement().code()].push(Watcher {
                        clause: clause_idx,
                        blocker: first,
                    });
                    // Remove from current watcher list (swap_remove keeps it O(1)).
                    watchers.swap_remove(i);
                    continue;
                }
                // No new watch: clause is unit or conflicting.
                if self.lit_value(first) == Value::False {
                    // Conflict: restore remaining watchers and report.
                    self.watches[falsified.code()].append(&mut watchers.split_off(i));
                    self.watches[falsified.code()].extend(watchers.drain(..i));
                    self.qhead = self.trail.len();
                    return Some(clause_idx);
                }
                let enq = self.enqueue(first, Some(clause_idx));
                debug_assert!(enq, "unit literal must be assignable");
                i += 1;
            }
            self.watches[falsified.code()].extend(watchers);
        }
        None
    }

    /// Forwards newly assigned difference-atom proxies to the theory and
    /// enqueues the same-pair atoms each accepted edge decides. Returns a
    /// conflict clause (all of whose literals are currently false) on theory
    /// inconsistency.
    ///
    /// A literal the theory implied is not forwarded: its edge is weaker
    /// than the one that implied it, which stays asserted for as long as
    /// the implied literal stays on the trail, so asserting it could neither
    /// fail nor imply anything new.
    fn theory_propagate(&mut self) -> Option<Vec<Lit>> {
        while self.theory_qhead < self.trail.len() {
            let lit = self.trail[self.theory_qhead];
            self.theory_qhead += 1;
            let Some(atom) = self.atoms[lit.var().index()] else {
                continue;
            };
            if self.reason[lit.var().index()] == Some(THEORY_REASON) {
                continue;
            }
            let height = self.theory_qhead - 1;
            self.stats.theory_checks += 1;
            // The edge `from -> to` of weight `w`: `to - from <= w`.
            let (from, to, w) = if lit.is_negative() {
                // not (x - y <= k)  ==>  y - x <= -k - 1. In two's
                // complement `!k == -k - 1` for every k, including
                // `i64::MIN` where `-k` alone would overflow.
                (atom.x, atom.y, !atom.k)
            } else {
                (atom.y, atom.x, atom.k)
            };
            let result = self.theory.assert_le(to, from, w, lit, height);
            self.stats.theory_scratch_reuses = self.theory.scratch_reuses();
            if let Err(true_lits) = result {
                self.stats.theory_conflicts += 1;
                return Some(true_lits.into_iter().map(|l| !l).collect());
            }
            self.imply_same_pair(lit, from, to, w);
        }
        None
    }

    /// Enqueues every unassigned atom over `{from, to}` that the edge
    /// `to - from <= w`, just accepted for `lit`, decides: `to - from <= k`
    /// holds for every `k >= w`, and `from - to <= k` fails for every
    /// `k < -w`, written `k <= !w` (`!w == -w - 1`) so that `w == i64::MIN`
    /// cannot overflow. Each implied literal's reason is `lit` alone.
    fn imply_same_pair(&mut self, lit: Lit, from: usize, to: usize, w: i64) {
        let pair = self.pair_of[lit.var().index()] as usize;
        for i in self.pair_start[pair] as usize..self.pair_start[pair + 1] as usize {
            let var = self.pair_members[i];
            if self.assigns[var.index()] != Value::Unassigned {
                continue;
            }
            let atom = self.atoms[var.index()].expect("pair members are proxies");
            let implied = if atom.x == to && atom.y == from && atom.k >= w {
                var.lit()
            } else if atom.x == from && atom.y == to && atom.k <= !w {
                var.negated()
            } else {
                continue;
            };
            self.antecedent[var.index()] = lit;
            self.enqueue(implied, Some(THEORY_REASON));
            self.stats.theory_implications += 1;
        }
    }

    fn bump_var(&mut self, var: BoolVar) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            // Rounding can turn two activities into a tie that the index
            // then breaks the other way, anywhere in the heap.
            self.rebuild_heap();
        } else {
            let pos = self.heap_pos[var.index()];
            if pos != NOT_IN_HEAP {
                self.sift_up(pos as usize);
            }
        }
    }

    /// Whether `a` is decided before `b`: higher activity first, ties to
    /// the lower index. (`partial_cmp` keeps the incomparable NaN case on
    /// the index too, so this is exactly the sort order the reference
    /// `pick_by_sort_and_scan` uses.)
    fn before(&self, a: BoolVar, b: BoolVar) -> bool {
        match self.activity[a.index()].partial_cmp(&self.activity[b.index()]) {
            Some(Ordering::Greater) => true,
            Some(Ordering::Less) => false,
            _ => a.index() < b.index(),
        }
    }

    /// Adds `var` to the decision heap unless it is already there.
    fn heap_insert(&mut self, var: BoolVar) {
        if self.heap_pos[var.index()] != NOT_IN_HEAP {
            return;
        }
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1);
    }

    /// Moves the variable at heap slot `pos` towards the root until its
    /// parent comes before it.
    fn sift_up(&mut self, mut pos: usize) {
        let var = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let above = self.heap[parent];
            if !self.before(var, above) {
                break;
            }
            self.heap[pos] = above;
            self.heap_pos[above.index()] = pos as u32;
            pos = parent;
        }
        self.heap[pos] = var;
        self.heap_pos[var.index()] = pos as u32;
    }

    /// Moves the variable at heap slot `pos` towards the leaves until it
    /// comes before both children.
    fn sift_down(&mut self, mut pos: usize) {
        let var = self.heap[pos];
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let below = self.heap[child];
            if !self.before(below, var) {
                break;
            }
            self.heap[pos] = below;
            self.heap_pos[below.index()] = pos as u32;
            pos = child;
        }
        self.heap[pos] = var;
        self.heap_pos[var.index()] = pos as u32;
    }

    /// Removes and returns the heap's first variable.
    fn heap_pop(&mut self) -> Option<BoolVar> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        self.heap_pos[top.index()] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some(top)
    }

    /// Re-establishes the heap order over the heap's current members after
    /// activities changed wholesale (a rescale or a warm-start seed).
    fn rebuild_heap(&mut self) {
        for pos in (0..self.heap.len() / 2).rev() {
            self.sift_down(pos);
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Raises a learned clause's activity (problem clauses are not ranked).
    fn bump_clause(&mut self, ci: usize) {
        if !self.clauses[ci].learned {
            return;
        }
        self.clauses[ci].activity += self.cla_inc;
        if self.clauses[ci].activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Visits one (false) antecedent literal during `analyze`: a literal of
    /// the current decision level is counted for resolution, an older one
    /// joins the learned clause, a level-0 or already visited one is
    /// skipped.
    fn analyze_visit(&mut self, l: Lit, epoch: u64, counter: &mut usize, learned: &mut Vec<Lit>) {
        let v = l.var();
        if self.seen[v.index()] == epoch || self.level[v.index()] == 0 {
            return;
        }
        self.seen[v.index()] = epoch;
        self.bump_var(v);
        if self.level[v.index()] == self.decision_level() {
            *counter += 1;
        } else {
            learned.push(l);
        }
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the level to backtrack to.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        let mut learned: Vec<Lit> = Vec::new();
        self.seen_epoch += 1;
        let epoch = self.seen_epoch;
        let mut counter = 0usize;
        let mut asserting: Option<Lit> = None;
        let mut trail_idx = self.trail.len();
        let mut clause_idx = Some(conflict);

        loop {
            match clause_idx {
                // The implied literal's unstored reason `(implied ∨ ¬edge)`:
                // its one antecedent is the edge literal's negation.
                Some(THEORY_REASON) => {
                    let implied = asserting.expect("a conflict clause is a stored clause");
                    let edge = self.antecedent[implied.var().index()];
                    self.analyze_visit(!edge, epoch, &mut counter, &mut learned);
                }
                Some(ci) => {
                    self.bump_clause(ci);
                    // Skip the literal we are currently resolving on (the
                    // clause is its reason); everything else is an
                    // antecedent. `analyze_visit` leaves the arena alone, so
                    // the literals are read in place, by position.
                    let resolved_var = asserting.map(|l| l.var());
                    for pos in self.clauses[ci].range() {
                        let l = self.lits[pos];
                        if Some(l.var()) != resolved_var {
                            self.analyze_visit(l, epoch, &mut counter, &mut learned);
                        }
                    }
                }
                None => {}
            }
            // Find the next literal of the current level on the trail.
            loop {
                trail_idx -= 1;
                let lit = self.trail[trail_idx];
                if self.seen[lit.var().index()] == epoch {
                    asserting = Some(lit);
                    break;
                }
            }
            let lit = asserting.expect("asserting literal exists");
            counter -= 1;
            if counter == 0 {
                learned.insert(0, !lit);
                break;
            }
            clause_idx = self.reason[lit.var().index()];
            self.seen[lit.var().index()] = epoch;
        }

        // Backtrack level: second highest level in the learned clause.
        let backtrack_level = if learned.len() == 1 {
            0
        } else {
            let mut max_pos = 1;
            let mut max_level = self.level[learned[1].var().index()];
            for (i, &l) in learned.iter().enumerate().skip(2) {
                let lvl = self.level[l.var().index()];
                if lvl > max_level {
                    max_level = lvl;
                    max_pos = i;
                }
            }
            learned.swap(1, max_pos);
            max_level
        };
        (learned, backtrack_level)
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        self.theory.backtrack_to(target);
        for i in (target..self.trail.len()).rev() {
            let var = self.trail[i].var();
            self.assigns[var.index()] = Value::Unassigned;
            self.reason[var.index()] = None;
            self.heap_insert(var);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = target;
        self.theory_qhead = self.theory_qhead.min(target);
    }

    /// Records a learned clause, attaches watches and enqueues its asserting
    /// literal. The clause must be non-empty and its first literal
    /// unassigned after backtracking.
    fn learn(&mut self, lits: Vec<Lit>) {
        self.stats.learned_clauses += 1;
        if lits.len() == 1 {
            self.learned_units.push(lits[0]);
            let ok = self.enqueue(lits[0], None);
            debug_assert!(ok);
            return;
        }
        let idx = self.store_clause(&lits, true, self.cla_inc);
        self.watch_clause(idx, lits[0], lits[1]);
        let ok = self.enqueue(lits[0], Some(idx));
        debug_assert!(ok);
    }

    /// Activity-driven clause-DB reduction: deletes the lowest-activity half
    /// of the removable learned clauses and compacts the database. Must be
    /// called at decision level 0 (restart boundaries). Kept out of the
    /// victim set: problem clauses, binary clauses, and clauses currently
    /// acting as the reason of an assigned variable.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        let mut locked = vec![false; self.clauses.len()];
        for &r in self.reason.iter().flatten() {
            // A theory reason names no clause, so it locks none.
            if r != THEORY_REASON {
                locked[r] = true;
            }
        }
        let mut removable: Vec<usize> = (0..self.clauses.len())
            .filter(|&i| self.clauses[i].learned && self.clauses[i].len > 2 && !locked[i])
            .collect();
        if removable.len() < 2 {
            return;
        }
        // Lowest activity first; ties break towards the older clause so the
        // order (and therefore the whole search) stays deterministic.
        removable.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let victims = &removable[..removable.len() / 2];
        let mut delete = vec![false; self.clauses.len()];
        for &v in victims {
            delete[v] = true;
        }
        // Watchers and reasons store clause *indices*: drop watchers of
        // deleted clauses, compact the database, then remap every survivor.
        for wlist in &mut self.watches {
            wlist.retain(|w| !delete[w.clause]);
        }
        // Survivors keep their order, and their literals slide down the
        // arena over the gaps the victims leave.
        let mut remap = vec![usize::MAX; self.clauses.len()];
        let (mut kept, mut end) = (0, 0);
        for i in 0..self.clauses.len() {
            if delete[i] {
                continue;
            }
            let clause = self.clauses[i];
            self.lits.copy_within(clause.range(), end);
            self.clauses[kept] = Clause {
                start: end as u32,
                ..clause
            };
            remap[i] = kept;
            kept += 1;
            end += clause.len as usize;
        }
        self.clauses.truncate(kept);
        self.lits.truncate(end);
        for wlist in &mut self.watches {
            for w in wlist.iter_mut() {
                w.clause = remap[w.clause];
                debug_assert_ne!(w.clause, usize::MAX);
            }
        }
        for r in self.reason.iter_mut().flatten() {
            if *r != THEORY_REASON {
                *r = remap[*r];
                debug_assert_ne!(*r, usize::MAX);
            }
        }
        self.stats.deleted_clauses += victims.len() as u64;
    }

    /// The next decision variable: the first unassigned variable under
    /// [`before`](Solver::before), or `None` when every variable is
    /// assigned. Variables that propagation assigned since they were
    /// inserted are popped and dropped here; `cancel_until` puts them back
    /// when it unassigns them.
    fn pick_branch_var(&mut self) -> Option<BoolVar> {
        #[cfg(test)]
        let reference = self.pick_by_sort_and_scan();
        let picked = loop {
            match self.heap_pop() {
                Some(var) if self.assigns[var.index()] != Value::Unassigned => {}
                next => break next,
            }
        };
        #[cfg(test)]
        assert_eq!(
            picked, reference,
            "the heap must decide exactly what sort-and-scan decides"
        );
        picked
    }

    /// The decision procedure the heap replaced, kept as the reference the
    /// unit tests hold every heap decision to: sort every variable by
    /// activity, descending, ties by index, and take the first unassigned
    /// one.
    #[cfg(test)]
    fn pick_by_sort_and_scan(&self) -> Option<BoolVar> {
        let mut order: Vec<BoolVar> = (0..self.num_vars() as u32).map(BoolVar).collect();
        order.sort_by(|a, b| {
            self.activity[b.index()]
                .partial_cmp(&self.activity[a.index()])
                .unwrap_or(Ordering::Equal)
                .then(a.index().cmp(&b.index()))
        });
        order
            .into_iter()
            .find(|v| self.assigns[v.index()] == Value::Unassigned)
    }

    fn luby(mut i: u64) -> u64 {
        // Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
        loop {
            let mut k = 1u32;
            while (1u64 << k) - 1 < i + 1 {
                k += 1;
            }
            if (1u64 << k) - 1 == i + 1 {
                return 1 << (k - 1);
            }
            i -= (1u64 << (k - 1)) - 1;
        }
    }

    /// Runs the CDCL(T) main loop.
    pub fn solve(&mut self, limits: Limits) -> SatResult {
        self.solve_under(&[], limits)
    }

    /// Runs the CDCL(T) main loop under the given assumptions.
    ///
    /// Assumptions are installed as the first decisions (one per decision
    /// level, in order) and re-installed after every restart or backjump, the
    /// classic MiniSat scheme. If propagation ever falsifies an assumption
    /// the formula is unsatisfiable *under the assumptions* and `Unsat` is
    /// returned; the solver itself (its clause database and learned clauses)
    /// remains valid, which is what makes assumption-based probing cheap.
    pub fn solve_under(&mut self, assumptions: &[Lit], limits: Limits) -> SatResult {
        let mut telemetry = SolveTelemetry::begin();
        let _solve_span = tsn_telemetry::span!("smt.solve");
        // Undo any leftover search state from a previous call (level-0
        // assignments are permanent and stay). Statistics are cumulative
        // across calls — callers wanting per-solve figures snapshot and
        // subtract with `SolverStats::delta_since` — so restart pacing and
        // the conflict budget run on a call-local counter.
        self.cancel_until(0);
        self.learned_units.clear();
        if self.found_empty_clause {
            return SatResult::Unsat;
        }
        self.watch_clauses();
        self.index_pairs();
        let result = self.search(assumptions, limits, &mut telemetry);
        // The search watches each learned clause as it stores it and never
        // watches a theory lemma: none of its clauses waits for
        // `watch_clauses`.
        self.watched = self.clauses.len();
        result
    }

    /// The CDCL(T) main loop of [`solve_under`](Solver::solve_under), from
    /// level 0 with every clause watched and the same-pair index built.
    fn search(
        &mut self,
        assumptions: &[Lit],
        limits: Limits,
        telemetry: &mut SolveTelemetry,
    ) -> SatResult {
        let start = telemetry.start;
        let mut call_conflicts = 0u64;
        let mut restart_count = 0u64;
        let mut conflicts_until_restart = 32 * Self::luby(restart_count);
        let mut reduce_at = limits.reduce_threshold.unwrap_or(DEFAULT_REDUCE_THRESHOLD);

        loop {
            if let Some(timeout) = limits.timeout {
                if start.elapsed() > timeout {
                    self.stats.solve_time += start.elapsed();
                    return SatResult::Unknown;
                }
            }
            // Boolean propagation followed by theory propagation, repeated
            // until both are at fixpoint or a conflict appears. A Boolean
            // conflict is analyzed through its clause index directly; only a
            // theory conflict materializes a new (lemma) clause.
            let conflict: Option<usize> = {
                let mark = telemetry.mark();
                let boolean_conflict = self.propagate();
                telemetry.propagate_ns += telemetry.lap(mark);
                match boolean_conflict {
                    Some(ci) => Some(ci),
                    None => {
                        let mark = telemetry.mark();
                        let theory_conflict = self.theory_propagate();
                        telemetry.theory_ns += telemetry.lap(mark);
                        // The lemma is analyzed at once and never watched.
                        theory_conflict.map(|lits| self.store_clause(&lits, true, 0.0))
                    }
                }
            };
            match conflict {
                Some(idx) => {
                    self.stats.conflicts += 1;
                    call_conflicts += 1;
                    if let Some(max) = limits.max_conflicts {
                        if call_conflicts > max {
                            self.stats.solve_time += start.elapsed();
                            return SatResult::Unknown;
                        }
                    }
                    if self.decision_level() == 0 {
                        // A conflict with no decisions involved: the clause
                        // set itself is unsatisfiable, permanently — later
                        // calls must not search (the conflicting clause's
                        // watchers have already fired and would stay silent).
                        self.found_empty_clause = true;
                        self.stats.solve_time += start.elapsed();
                        return SatResult::Unsat;
                    }
                    let (learned, backtrack_level) = self.analyze(idx);
                    self.cancel_until(backtrack_level);
                    self.learn(learned);
                    self.decay_activities();
                    if call_conflicts >= conflicts_until_restart {
                        restart_count += 1;
                        conflicts_until_restart = call_conflicts + 32 * Self::luby(restart_count);
                        self.stats.restarts += 1;
                        smt_metrics().restarts.inc();
                        self.cancel_until(0);
                        // Clause-DB reduction rides the restart machinery:
                        // at level 0 no learned clause under analysis can be
                        // invalidated by the compaction.
                        let learned_count = self.clauses.iter().filter(|c| c.learned).count();
                        if learned_count > reduce_at {
                            let _reduce_span = tsn_telemetry::span!("smt.reduce_db");
                            let mark = telemetry.mark();
                            self.reduce_db();
                            telemetry.reduce_ns += telemetry.lap(mark);
                            smt_metrics().reductions.inc();
                            reduce_at += reduce_at / 2 + 1;
                        }
                    }
                }
                // Theory propagation implied literals that Boolean
                // propagation has not seen yet: back to BCP first.
                None if self.qhead < self.trail.len() => {}
                None => {
                    // No conflict: install the next pending assumption (one
                    // decision level per assumption), then decide.
                    if self.trail_lim.len() < assumptions.len() {
                        let lit = assumptions[self.trail_lim.len()];
                        match self.lit_value(lit) {
                            Value::True => {
                                // Already implied: open an empty level so the
                                // level <-> assumption indexing stays aligned.
                                self.trail_lim.push(self.trail.len());
                            }
                            Value::False => {
                                self.stats.solve_time += start.elapsed();
                                return SatResult::Unsat;
                            }
                            Value::Unassigned => {
                                self.trail_lim.push(self.trail.len());
                                let ok = self.enqueue(lit, None);
                                debug_assert!(ok);
                            }
                        }
                        continue;
                    }
                    // Decide the next variable or report SAT.
                    let mark = telemetry.mark();
                    let picked = self.pick_branch_var();
                    telemetry.decide_ns += telemetry.lap(mark);
                    match picked {
                        Some(var) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let lit = if self.phase[var.index()] {
                                var.lit()
                            } else {
                                var.negated()
                            };
                            let ok = self.enqueue(lit, None);
                            debug_assert!(ok);
                        }
                        None => {
                            self.stats.solve_time += start.elapsed();
                            debug_assert!(self.theory.check_invariant());
                            return SatResult::Sat;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver_vars: &[BoolVar], spec: &[(usize, bool)]) -> Vec<Lit> {
        spec.iter()
            .map(|&(i, pos)| {
                if pos {
                    solver_vars[i].lit()
                } else {
                    solver_vars[i].negated()
                }
            })
            .collect()
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new(DifferenceLogic::new());
        let v: Vec<BoolVar> = (0..2).map(|_| s.new_var()).collect();
        s.add_clause(&[v[0].lit()]);
        s.add_clause(&[v[1].negated()]);
        assert_eq!(s.solve(Limits::default()), SatResult::Sat);
        assert_eq!(s.value(v[0]), Value::True);
        assert_eq!(s.value(v[1]), Value::False);

        let mut s = Solver::new(DifferenceLogic::new());
        let v = s.new_var();
        s.add_clause(&[v.lit()]);
        s.add_clause(&[v.negated()]);
        assert_eq!(s.solve(Limits::default()), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new(DifferenceLogic::new());
        let _ = s.new_var();
        s.add_clause(&[]);
        assert_eq!(s.solve(Limits::default()), SatResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (a) and (!a | b) and (!b | c) forces c.
        let mut s = Solver::new(DifferenceLogic::new());
        let v: Vec<BoolVar> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(&lits(&v, &[(0, true)]));
        s.add_clause(&lits(&v, &[(0, false), (1, true)]));
        s.add_clause(&lits(&v, &[(1, false), (2, true)]));
        assert_eq!(s.solve(Limits::default()), SatResult::Sat);
        assert_eq!(s.value(v[2]), Value::True);
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        // 3 pigeons, 2 holes: var p_{i,h} means pigeon i in hole h.
        let mut s = Solver::new(DifferenceLogic::new());
        let mut p = vec![];
        for _ in 0..3 {
            let row: Vec<BoolVar> = (0..2).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            s.add_clause(&[row[0].lit(), row[1].lit()]);
        }
        for h in 0..2 {
            for (i, row_i) in p.iter().enumerate() {
                for row_j in &p[(i + 1)..] {
                    s.add_clause(&[row_i[h].negated(), row_j[h].negated()]);
                }
            }
        }
        assert_eq!(s.solve(Limits::default()), SatResult::Unsat);
    }

    #[test]
    fn conflict_limit_reports_unknown() {
        // A hard-ish pigeonhole with a conflict budget of 1.
        let mut s = Solver::new(DifferenceLogic::new());
        let mut p = vec![];
        for _ in 0..5 {
            let row: Vec<BoolVar> = (0..4).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            s.add_clause(&row.iter().map(|v| v.lit()).collect::<Vec<_>>());
        }
        for h in 0..4 {
            for (i, row_i) in p.iter().enumerate() {
                for row_j in &p[(i + 1)..] {
                    s.add_clause(&[row_i[h].negated(), row_j[h].negated()]);
                }
            }
        }
        let result = s.solve(Limits {
            max_conflicts: Some(1),
            ..Limits::default()
        });
        assert_eq!(result, SatResult::Unknown);
    }

    #[test]
    fn theory_conflict_drives_boolean_search() {
        // x - y <= -1 (a) and y - x <= -1 (b) cannot both hold; clauses force
        // at least one of them, so the solver must pick exactly one.
        let mut s = Solver::new(DifferenceLogic::new());
        let a = s.new_var();
        let b = s.new_var();
        let x = s.theory_mut().new_var();
        let y = s.theory_mut().new_var();
        s.attach_atom(a, DiffAtom { x, y, k: -1 });
        s.attach_atom(b, DiffAtom { x: y, y: x, k: -1 });
        s.add_clause(&[a.lit(), b.lit()]);
        assert_eq!(s.solve(Limits::default()), SatResult::Sat);
        let a_true = s.value(a) == Value::True;
        let b_true = s.value(b) == Value::True;
        assert!(a_true || b_true);
        assert!(!(a_true && b_true), "both atoms cannot be asserted");
    }

    #[test]
    fn theory_unsat_when_both_atoms_forced() {
        let mut s = Solver::new(DifferenceLogic::new());
        let a = s.new_var();
        let b = s.new_var();
        let x = s.theory_mut().new_var();
        let y = s.theory_mut().new_var();
        s.attach_atom(a, DiffAtom { x, y, k: -1 });
        s.attach_atom(b, DiffAtom { x: y, y: x, k: -1 });
        s.add_clause(&[a.lit()]);
        s.add_clause(&[b.lit()]);
        assert_eq!(s.solve(Limits::default()), SatResult::Unsat);
    }

    #[test]
    fn negated_atom_asserts_integer_negation() {
        // Atom a: x - y <= 5. Forcing !a means x - y >= 6.
        let mut s = Solver::new(DifferenceLogic::new());
        let a = s.new_var();
        let x = s.theory_mut().new_var();
        let y = s.theory_mut().new_var();
        s.attach_atom(a, DiffAtom { x, y, k: 5 });
        s.add_clause(&[a.negated()]);
        assert_eq!(s.solve(Limits::default()), SatResult::Sat);
        let vx = s.theory().value(x);
        let vy = s.theory().value(y);
        assert!(vx - vy >= 6, "negated atom must be respected: {vx} - {vy}");
    }

    #[test]
    fn an_edge_implies_the_same_pair_atoms_it_decides_even_at_the_i64_limits() {
        // Each case forces the edge atom `x - y <= k` (or its negation) and
        // leaves one more atom over the same two variables free. The edge
        // alone settles it (`Some(value)`: the theory enqueues it, nothing is
        // decided) or leaves it open (`None`: the SAT core decides it).
        const MIN: i64 = i64::MIN;
        const MAX: i64 = i64::MAX;
        // (edge k, edge polarity, candidate (x_first, k), expected value)
        let cases = [
            // x - y <= MIN: x - y <= MIN holds, y - x <= MAX cannot
            // (y - x >= 2^63), whatever -MIN would have overflowed to.
            (MIN, true, (true, MIN), Some(true)),
            (MIN, true, (true, MAX), Some(true)),
            (MIN, true, (false, MAX), Some(false)),
            // x - y <= MAX: y - x >= MIN + 1, so y - x <= MIN fails.
            (MAX, true, (true, MAX), Some(true)),
            (MAX, true, (true, MAX - 1), None),
            (MAX, true, (false, MIN), Some(false)),
            (MAX, true, (false, MIN + 1), None),
            // not (x - y <= MAX) is the edge y - x <= MIN.
            (MAX, false, (false, MIN), Some(true)),
            (MAX, false, (true, MAX - 1), Some(false)),
            // not (x - y <= MIN) is the edge y - x <= MAX.
            (MIN, false, (false, MAX), Some(true)),
            (MIN, false, (false, MAX - 1), None),
            (MIN, false, (true, MIN), Some(false)),
            (MIN, false, (true, MIN + 1), None),
            // Away from the limits: x - y <= 0.
            (0, true, (true, 0), Some(true)),
            (0, true, (true, -1), None),
            (0, true, (false, 0), None),
            (0, true, (false, -1), Some(false)),
        ];
        for (edge_k, edge_true, (x_first, k), expected) in cases {
            let mut s = Solver::new(DifferenceLogic::new());
            let edge = s.new_var();
            let candidate = s.new_var();
            let x = s.theory_mut().new_var();
            let y = s.theory_mut().new_var();
            s.attach_atom(edge, DiffAtom { x, y, k: edge_k });
            let atom = if x_first {
                DiffAtom { x, y, k }
            } else {
                DiffAtom { x: y, y: x, k }
            };
            s.attach_atom(candidate, atom);
            s.add_clause(&[if edge_true {
                edge.lit()
            } else {
                edge.negated()
            }]);
            let case = format!("edge {edge_k} {edge_true}, candidate {atom:?}");
            assert_eq!(s.solve(Limits::default()), SatResult::Sat, "{case}");
            let stats = s.stats();
            match expected {
                Some(value) => {
                    assert_eq!(stats.theory_implications, 1, "{case}");
                    assert_eq!(stats.decisions, 0, "{case}");
                    let want = if value { Value::True } else { Value::False };
                    assert_eq!(s.value(candidate), want, "{case}");
                }
                None => {
                    assert_eq!(stats.theory_implications, 0, "{case}");
                    assert_eq!(stats.decisions, 1, "{case}");
                }
            }
        }
    }

    #[test]
    fn assumptions_restrict_without_commitment() {
        // (a | b) is satisfiable; under assumption !a the solver must set b,
        // under assumptions !a and !b it is unsatisfiable, and afterwards the
        // unrestricted formula is still satisfiable.
        let mut s = Solver::new(DifferenceLogic::new());
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.lit(), b.lit()]);
        assert_eq!(
            s.solve_under(&[a.negated()], Limits::default()),
            SatResult::Sat
        );
        assert_eq!(s.value(b), Value::True);
        assert_eq!(
            s.solve_under(&[a.negated(), b.negated()], Limits::default()),
            SatResult::Unsat
        );
        assert_eq!(s.solve(Limits::default()), SatResult::Sat);
    }

    #[test]
    fn assumptions_drive_theory_atoms() {
        // Assuming both halves of a negative cycle is unsat; assuming one is
        // fine.
        let mut s = Solver::new(DifferenceLogic::new());
        let a = s.new_var();
        let b = s.new_var();
        let x = s.theory_mut().new_var();
        let y = s.theory_mut().new_var();
        s.attach_atom(a, DiffAtom { x, y, k: -1 });
        s.attach_atom(b, DiffAtom { x: y, y: x, k: -1 });
        assert_eq!(s.solve_under(&[a.lit()], Limits::default()), SatResult::Sat);
        assert_eq!(
            s.solve_under(&[a.lit(), b.lit()], Limits::default()),
            SatResult::Unsat
        );
        assert_eq!(s.solve_under(&[b.lit()], Limits::default()), SatResult::Sat);
    }

    #[test]
    fn learned_clauses_are_exported() {
        // The 3-into-2 pigeonhole forces learning before the Unsat verdict.
        let mut s = Solver::new(DifferenceLogic::new());
        let mut p = vec![];
        for _ in 0..3 {
            let row: Vec<BoolVar> = (0..2).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            s.add_clause(&[row[0].lit(), row[1].lit()]);
        }
        for h in 0..2 {
            for (i, row_i) in p.iter().enumerate() {
                for row_j in &p[(i + 1)..] {
                    s.add_clause(&[row_i[h].negated(), row_j[h].negated()]);
                }
            }
        }
        assert_eq!(s.solve(Limits::default()), SatResult::Unsat);
        assert!(!s.export_learned(8).is_empty());
    }

    /// An unsatisfiable pigeonhole instance (`pigeons` into `pigeons - 1`
    /// holes) — enough conflicts to drive restarts and clause learning.
    fn pigeonhole(s: &mut Solver, pigeons: usize) {
        let holes = pigeons - 1;
        let mut p = vec![];
        for _ in 0..pigeons {
            let row: Vec<BoolVar> = (0..holes).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            s.add_clause(&row.iter().map(|v| v.lit()).collect::<Vec<_>>());
        }
        for h in 0..holes {
            for (i, row_i) in p.iter().enumerate() {
                for row_j in &p[(i + 1)..] {
                    s.add_clause(&[row_i[h].negated(), row_j[h].negated()]);
                }
            }
        }
    }

    #[test]
    fn clause_db_reduction_preserves_the_verdict_and_counts_deletions() {
        // With a zero threshold every restart reduces the clause database;
        // the verdict must not change and the deletions must be visible in
        // the statistics.
        let mut with_reduction = Solver::new(DifferenceLogic::new());
        pigeonhole(&mut with_reduction, 6);
        let verdict = with_reduction.solve(Limits {
            reduce_threshold: Some(0),
            ..Limits::default()
        });
        assert_eq!(verdict, SatResult::Unsat);
        let stats = with_reduction.stats().clone();
        assert!(
            stats.restarts > 0,
            "the instance must be hard enough to restart"
        );
        assert!(
            stats.deleted_clauses > 0,
            "a zero threshold must delete learned clauses: {stats}"
        );
        assert!(
            stats.peak_live_clauses >= with_reduction.num_clauses() as u64,
            "the peak must dominate the final database size"
        );

        let mut without = Solver::new(DifferenceLogic::new());
        pigeonhole(&mut without, 6);
        assert_eq!(without.solve(Limits::default()), SatResult::Unsat);
        assert_eq!(without.stats().deleted_clauses, 0);
    }

    #[test]
    fn reduction_keeps_satisfiable_instances_satisfiable() {
        // Pigeons == holes is satisfiable but conflict-rich on the way.
        let holes = 5;
        let mut s = Solver::new(DifferenceLogic::new());
        let mut p = vec![];
        for _ in 0..holes {
            let row: Vec<BoolVar> = (0..holes).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            s.add_clause(&row.iter().map(|v| v.lit()).collect::<Vec<_>>());
        }
        for h in 0..holes {
            for (i, row_i) in p.iter().enumerate() {
                for row_j in &p[(i + 1)..] {
                    s.add_clause(&[row_i[h].negated(), row_j[h].negated()]);
                }
            }
        }
        let verdict = s.solve(Limits {
            reduce_threshold: Some(0),
            ..Limits::default()
        });
        assert_eq!(verdict, SatResult::Sat);
        // The model must still satisfy every constraint: each pigeon in some
        // hole, no two pigeons sharing one.
        for row in &p {
            assert!(row.iter().any(|&v| s.value(v) == Value::True));
        }
        for h in 0..holes {
            let occupants = p
                .iter()
                .filter(|row| s.value(row[h]) == Value::True)
                .count();
            assert!(occupants <= 1, "hole {h} holds {occupants} pigeons");
        }
    }

    #[test]
    fn stats_accumulate_across_solves_and_delta_recovers_per_call() {
        // A satisfiable square pigeonhole (4 pigeons, 4 holes), solved
        // twice on the same solver: the lifetime counters grow across calls
        // and `delta_since` recovers the second call's own work.
        let n = 4;
        let mut s = Solver::new(DifferenceLogic::new());
        let mut p = vec![];
        for _ in 0..n {
            let row: Vec<BoolVar> = (0..n).map(|_| s.new_var()).collect();
            p.push(row);
        }
        for row in &p {
            s.add_clause(&row.iter().map(|v| v.lit()).collect::<Vec<_>>());
        }
        for h in 0..n {
            for (i, row_i) in p.iter().enumerate() {
                for row_j in &p[(i + 1)..] {
                    s.add_clause(&[row_i[h].negated(), row_j[h].negated()]);
                }
            }
        }
        assert_eq!(s.solve(Limits::default()), SatResult::Sat);
        let after_first = s.stats().clone();
        assert!(after_first.decisions > 0);
        assert_eq!(s.solve(Limits::default()), SatResult::Sat);
        let after_second = s.stats().clone();
        // Lifetime counters only ever grow...
        assert!(after_second.decisions > after_first.decisions);
        assert!(after_second.propagations >= after_first.propagations);
        // ...and the per-call delta excludes the first call's work.
        let delta = after_second.delta_since(&after_first);
        assert_eq!(
            delta.decisions,
            after_second.decisions - after_first.decisions
        );
        assert_eq!(
            delta.propagations,
            after_second.propagations - after_first.propagations
        );
        assert!(delta.solve_time <= after_second.solve_time);
    }

    #[test]
    fn resolving_after_a_level_zero_conflict_stays_unsat() {
        // Once a conflict is derived with no decisions involved, the clause
        // set is permanently unsatisfiable; a second solve call must report
        // Unsat instead of searching past the already-fired watchers.
        let mut s = Solver::new(DifferenceLogic::new());
        pigeonhole(&mut s, 4);
        assert_eq!(s.solve(Limits::default()), SatResult::Unsat);
        assert_eq!(s.solve(Limits::default()), SatResult::Unsat);
    }

    /// Whether the solver's assignment (read after `Sat`) satisfies every
    /// clause.
    fn satisfies(s: &Solver, clauses: &[Vec<Lit>]) -> bool {
        clauses
            .iter()
            .all(|c| c.iter().any(|&l| s.lit_value(l) == Value::True))
    }

    #[test]
    fn heap_decides_exactly_what_sort_and_scan_decides() {
        // `pick_branch_var` asserts, under `cfg(test)`, that every heap pick
        // equals `pick_by_sort_and_scan`'s. Drive it through seeded random
        // clause + difference-atom instances, solved repeatedly under
        // assumptions on one solver, with warm activities that tie (the
        // index must break them) or trip the 1e100 rescale (whose rounding
        // creates new ties).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Two activities one ulp apart that the 1e-100 rescale rounds to
        // one value.
        let tie = std::iter::successors(Some(1.6e100_f64), |a| Some(a.next_up()))
            .find(|&a| a * 1e-100 == a.next_up() * 1e-100)
            .expect("the rescale merges some pair of neighbours");
        let mut rng = StdRng::seed_from_u64(0x4EA9);
        let (mut decisions, mut rescaled, mut sat, mut unsat) = (0u64, 0, 0, 0);
        for round in 0..200 {
            let mut s = Solver::new(DifferenceLogic::new());
            let vars: Vec<BoolVar> = (0..rng.gen_range(6..=24)).map(|_| s.new_var()).collect();
            let ints: Vec<usize> = (0..rng.gen_range(2..=5))
                .map(|_| s.theory_mut().new_var())
                .collect();
            for &v in &vars {
                if rng.gen_bool(0.5) {
                    let x = rng.gen_range(0..ints.len());
                    let y = (x + rng.gen_range(1..ints.len())) % ints.len();
                    let k = rng.gen_range(-3..=3);
                    s.attach_atom(
                        v,
                        DiffAtom {
                            x: ints[x],
                            y: ints[y],
                            k,
                        },
                    );
                }
            }
            let random_lit = |rng: &mut StdRng| {
                let v = vars[rng.gen_range(0..vars.len())];
                if rng.gen_bool(0.5) {
                    v.lit()
                } else {
                    v.negated()
                }
            };
            let clauses: Vec<Vec<Lit>> = (0..rng.gen_range(vars.len()..=2 * vars.len()))
                .map(|_| {
                    (0..rng.gen_range(2..=4))
                        .map(|_| random_lit(&mut rng))
                        .collect()
                })
                .collect();
            for c in &clauses {
                s.add_clause(c);
            }
            let seeded_inc = match round % 3 {
                // Cold: every activity 0, so the index alone decides at first.
                0 => 1.0,
                // Warm with ties: activities from a three-value set.
                1 => {
                    let activity: Vec<f64> = vars
                        .iter()
                        .map(|_| f64::from(rng.gen_range(0..3u8)))
                        .collect();
                    s.seed_activity(&activity, 1.0);
                    1.0
                }
                // At the rescale: the first bump of a `tie` variable
                // crosses 1e100, and the rescale then merges `tie` and its
                // successor, so the index decides where activity did.
                _ => {
                    let activity: Vec<f64> = vars
                        .iter()
                        .map(|_| match rng.gen_range(0..3u8) {
                            0 => tie,
                            1 => tie.next_up(),
                            _ => rng.gen_range(0.0..1e100),
                        })
                        .collect();
                    s.seed_activity(&activity, 2e98);
                    2e98
                }
            };
            for _ in 0..3 {
                let assumptions: Vec<Lit> = (0..rng.gen_range(0..=3))
                    .map(|_| random_lit(&mut rng))
                    .collect();
                match s.solve_under(&assumptions, Limits::default()) {
                    SatResult::Sat => {
                        assert!(satisfies(&s, &clauses), "round {round}: bad model");
                        sat += 1;
                    }
                    SatResult::Unsat => unsat += 1,
                    SatResult::Unknown => panic!("round {round}: no limit was set"),
                }
            }
            decisions += s.stats().decisions;
            // `var_inc` only ever grows, except through the rescale.
            if s.activity_snapshot().1 < seeded_inc {
                rescaled += 1;
            }
        }
        assert!(decisions > 1_000, "too few decisions checked: {decisions}");
        assert!(rescaled > 0, "no instance reached the activity rescale");
        assert!(sat > 50 && unsat > 50, "{sat} sat / {unsat} unsat solves");
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
        }
    }
}
