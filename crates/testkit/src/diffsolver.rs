//! Brute-force reference solver for the mixed Boolean / difference-logic
//! fragment implemented by [`tsn_smt`].
//!
//! This is the library form of the cross-check in
//! `crates/smt/tests/random_cross_check.rs`, with a richer instance shape
//! (unit assertions, `diff_ge` atoms, constant comparisons) so the reference
//! covers more of the `Model` API. Instances are tiny by construction —
//! the Boolean space is enumerated exhaustively and the implied difference
//! constraints are checked with Bellman–Ford — so the reference is obviously
//! correct and any disagreement is a solver bug.

use rand::rngs::StdRng;
use rand::Rng;
use tsn_smt::{IntVar, Lit, Model, Outcome};

/// The atom kinds the reference generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomKind {
    /// `x - y <= k` (via `Model::diff_le`).
    DiffLe,
    /// `x - y >= k` (via `Model::diff_ge`).
    DiffGe,
    /// `x <= k` (via `Model::le_const`).
    LeConst,
    /// `x >= k` (via `Model::ge_const`).
    GeConst,
}

/// One theory atom of an instance.
#[derive(Debug, Clone, Copy)]
pub struct Atom {
    /// Atom kind.
    pub kind: AtomKind,
    /// First integer variable.
    pub x: usize,
    /// Second integer variable (ignored by the `*Const` kinds).
    pub y: usize,
    /// The constant.
    pub k: i64,
}

/// A small random mixed Boolean / difference-logic instance that can be
/// replayed onto a [`Model`] or onto the brute-force checker.
#[derive(Debug, Clone)]
pub struct DiffInstance {
    /// Number of plain Boolean variables.
    pub num_bools: usize,
    /// Number of integer variables.
    pub num_ints: usize,
    /// Theory atoms; their proxies are Booleans `num_bools..num_bools+len`.
    pub atoms: Vec<Atom>,
    /// Clauses over `(bool index, polarity)` pairs, where indices order plain
    /// Booleans before atom proxies.
    pub clauses: Vec<Vec<(usize, bool)>>,
    /// Unit-asserted literals over the same indexing.
    pub units: Vec<(usize, bool)>,
    /// Inclusive bounds per integer variable.
    pub bounds: Vec<(i64, i64)>,
}

impl DiffInstance {
    /// Total number of Boolean proxies (plain + atoms).
    pub fn total_bools(&self) -> usize {
        self.num_bools + self.atoms.len()
    }
}

/// Draws a random instance. Sizes are kept tiny so brute force stays exact
/// and fast: at most 9 Booleans (512 assignments) and 5 integer variables.
pub fn random_instance(rng: &mut StdRng) -> DiffInstance {
    let num_bools = rng.gen_range(1..4);
    let num_ints = rng.gen_range(2..5);
    let num_atoms = rng.gen_range(1..6);
    let num_clauses = rng.gen_range(1..8);
    let atoms: Vec<Atom> = (0..num_atoms)
        .map(|_| {
            let kind = match rng.gen_range(0..6) {
                0 => AtomKind::DiffGe,
                1 => AtomKind::LeConst,
                2 => AtomKind::GeConst,
                // Bias toward DiffLe, the workhorse of the scheduling encoding.
                _ => AtomKind::DiffLe,
            };
            let x = rng.gen_range(0..num_ints);
            let mut y = rng.gen_range(0..num_ints);
            if y == x {
                y = (y + 1) % num_ints;
            }
            Atom {
                kind,
                x,
                y,
                k: rng.gen_range(-10..10),
            }
        })
        .collect();
    let total_bools = num_bools + atoms.len();
    let clauses = (0..num_clauses)
        .map(|_| {
            let len = rng.gen_range(1..4);
            (0..len)
                .map(|_| (rng.gen_range(0..total_bools), rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    let units = if rng.gen_bool(0.3) {
        vec![(rng.gen_range(0..total_bools), rng.gen_bool(0.5))]
    } else {
        Vec::new()
    };
    let bounds = (0..num_ints).map(|_| (0, rng.gen_range(3..15))).collect();
    DiffInstance {
        num_bools,
        num_ints,
        atoms,
        clauses,
        units,
        bounds,
    }
}

/// Draws a random instance whose atoms crowd onto one or two integer pairs,
/// several bounds each and in both directions, the way the scheduling
/// encoding's do: a stability staircase is a run of unary bounds on one
/// release (atoms over `{x0, zero}`), a contended link is the two opposite
/// orderings of one pair of offsets (atoms over `{x0, x1}`). Constants are
/// drawn close together and close to the variables' bounds, so asserting
/// one atom of a pair often decides others. Sizes stay within
/// [`random_instance`]'s limits.
pub fn crowded_instance(rng: &mut StdRng) -> DiffInstance {
    let num_bools = rng.gen_range(0..2);
    let num_ints = rng.gen_range(2..4);
    let with_bounds_pair = rng.gen_bool(0.5);
    let atoms: Vec<Atom> = (0..rng.gen_range(4..8))
        .map(|_| {
            let k = rng.gen_range(-4..5);
            let (kind, x, y) = match rng.gen_range(0..if with_bounds_pair { 5 } else { 3 }) {
                0 => (AtomKind::DiffLe, 0, 1),
                1 => (AtomKind::DiffLe, 1, 0),
                2 => (AtomKind::DiffGe, 0, 1),
                3 => (AtomKind::LeConst, 0, 0),
                _ => (AtomKind::GeConst, 0, 0),
            };
            Atom { kind, x, y, k }
        })
        .collect();
    let total_bools = num_bools + atoms.len();
    let clauses = (0..rng.gen_range(2..10))
        .map(|_| {
            (0..rng.gen_range(2..4))
                .map(|_| (rng.gen_range(0..total_bools), rng.gen_bool(0.5)))
                .collect()
        })
        .collect();
    let units = if rng.gen_bool(0.3) {
        vec![(rng.gen_range(0..total_bools), rng.gen_bool(0.5))]
    } else {
        Vec::new()
    };
    let bounds = (0..num_ints).map(|_| (0, rng.gen_range(3..15))).collect();
    DiffInstance {
        num_bools,
        num_ints,
        atoms,
        clauses,
        units,
        bounds,
    }
}

/// The difference constraint `x - y <= k` implied by assigning `value` to an
/// atom's proxy, in normalized `(x, y, k)` form over `num_ints + 1` nodes
/// (node `num_ints` is the implicit zero for the `*Const` kinds).
fn implied_constraint(atom: &Atom, value: bool, zero: usize) -> (usize, usize, i64) {
    // Each kind is first normalized to `x - y <= k`; a false proxy negates it
    // to `y - x <= -k - 1` (integer semantics).
    let (x, y, k) = match atom.kind {
        AtomKind::DiffLe => (atom.x, atom.y, atom.k),
        AtomKind::DiffGe => (atom.y, atom.x, -atom.k), // x - y >= k  <=>  y - x <= -k
        AtomKind::LeConst => (atom.x, zero, atom.k),
        AtomKind::GeConst => (zero, atom.x, -atom.k),
    };
    if value {
        (x, y, k)
    } else {
        (y, x, -k - 1)
    }
}

/// Checks satisfiability by brute force: enumerate every assignment of the
/// Boolean proxies, filter by clauses and units, then test the implied
/// difference-constraint system (plus bounds) for consistency with
/// Bellman–Ford negative-cycle detection.
pub fn brute_force_sat(inst: &DiffInstance) -> bool {
    let total_bools = inst.total_bools();
    assert!(total_bools <= 20, "instance too large for brute force");
    let zero = inst.num_ints;
    'outer: for mask in 0..(1u32 << total_bools) {
        let value = |b: usize| mask & (1 << b) != 0;
        for &(v, pos) in &inst.units {
            if value(v) != pos {
                continue 'outer;
            }
        }
        for clause in &inst.clauses {
            if !clause.iter().any(|&(v, pos)| value(v) == pos) {
                continue 'outer;
            }
        }
        let mut constraints: Vec<(usize, usize, i64)> = inst
            .atoms
            .iter()
            .enumerate()
            .map(|(i, atom)| implied_constraint(atom, value(inst.num_bools + i), zero))
            .collect();
        for (v, &(lo, hi)) in inst.bounds.iter().enumerate() {
            constraints.push((v, zero, hi));
            constraints.push((zero, v, -lo));
        }
        if diff_system_consistent(inst.num_ints + 1, &constraints) {
            return true;
        }
    }
    false
}

/// Bellman–Ford feasibility of a difference-constraint system
/// (`x - y <= k` becomes edge `y -> x` of weight `k`).
fn diff_system_consistent(nodes: usize, constraints: &[(usize, usize, i64)]) -> bool {
    let mut dist = vec![0i64; nodes];
    for _ in 0..nodes {
        let mut changed = false;
        for &(x, y, k) in constraints {
            if dist[y] + k < dist[x] {
                dist[x] = dist[y] + k;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    constraints.iter().all(|&(x, y, k)| dist[y] + k >= dist[x])
}

/// A [`Model`] built from a [`DiffInstance`], with the index mappings needed
/// to talk about it from outside: `lits[i]` is the positive literal of
/// Boolean index `i` (plain Booleans first, then atom proxies) and `ints[v]`
/// is integer variable `v`.
#[derive(Debug)]
pub struct BuiltModel {
    /// The populated model.
    pub model: Model,
    /// Positive literal per instance Boolean index.
    pub lits: Vec<Lit>,
    /// Model variable per instance integer index.
    pub ints: Vec<IntVar>,
}

/// Replays a [`DiffInstance`] onto a fresh [`Model`], returning the model
/// plus index mappings (used by the scope/assumption differential tests,
/// which need to keep driving the model after the replay).
pub fn build_model(inst: &DiffInstance) -> BuiltModel {
    let mut model = Model::new();
    let (lits, ints) = replay_into(&mut model, inst);
    BuiltModel { model, lits, ints }
}

/// Replays a [`DiffInstance`] onto an existing [`Model`] over fresh
/// variables, so several instances can share one model as a disjoint
/// conjunction. Returns the positive literal per instance Boolean index and
/// the model variable per instance integer index, as in [`BuiltModel`].
pub fn replay_into(model: &mut Model, inst: &DiffInstance) -> (Vec<Lit>, Vec<IntVar>) {
    let bools: Vec<_> = (0..inst.num_bools).map(|_| model.new_bool()).collect();
    let ints: Vec<IntVar> = (0..inst.num_ints).map(|_| model.new_int()).collect();
    let proxies: Vec<Lit> = inst
        .atoms
        .iter()
        .map(|atom| match atom.kind {
            AtomKind::DiffLe => model.diff_le(ints[atom.x], ints[atom.y], atom.k),
            AtomKind::DiffGe => model.diff_ge(ints[atom.x], ints[atom.y], atom.k),
            AtomKind::LeConst => model.le_const(ints[atom.x], atom.k),
            AtomKind::GeConst => model.ge_const(ints[atom.x], atom.k),
        })
        .collect();
    for (v, &(lo, hi)) in inst.bounds.iter().enumerate() {
        model.int_bounds(ints[v], lo, hi);
    }
    let lits: Vec<Lit> = bools
        .iter()
        .map(|b| b.lit())
        .chain(proxies.iter().copied())
        .collect();
    for &(v, pos) in &inst.units {
        let lit = if pos { lits[v] } else { !lits[v] };
        model.assert_lit(lit);
    }
    for clause in &inst.clauses {
        let clause_lits: Vec<Lit> = clause
            .iter()
            .map(|&(v, pos)| if pos { lits[v] } else { !lits[v] })
            .collect();
        model.add_clause(clause_lits);
    }
    (lits, ints)
}

/// Replays the instance onto a [`Model`] and solves it.
///
/// On SAT the returned assignment is re-verified by `Model::verify` and the
/// atom proxies are checked semantically against the integer values.
///
/// # Panics
///
/// Panics if the solver returns an inconsistent model or `Unknown` (no limits
/// are set, so `Unknown` is impossible).
pub fn solve_with_smt(inst: &DiffInstance) -> bool {
    let BuiltModel {
        mut model,
        lits,
        ints,
    } = build_model(inst);
    let proxies = &lits[inst.num_bools..];
    match model.solve() {
        Outcome::Sat(assignment) => {
            model
                .verify(&assignment)
                .expect("solver returned a model that violates its own constraints");
            for (i, atom) in inst.atoms.iter().enumerate() {
                let xv = assignment.int_value(ints[atom.x]);
                let yv = assignment.int_value(ints[atom.y]);
                let holds = match atom.kind {
                    AtomKind::DiffLe => xv - yv <= atom.k,
                    AtomKind::DiffGe => xv - yv >= atom.k,
                    AtomKind::LeConst => xv <= atom.k,
                    AtomKind::GeConst => xv >= atom.k,
                };
                assert_eq!(
                    holds,
                    assignment.lit_value(proxies[i]),
                    "atom {i} value disagrees with its proxy: {atom:?}"
                );
            }
            for (v, &(lo, hi)) in inst.bounds.iter().enumerate() {
                let value = assignment.int_value(ints[v]);
                assert!((lo..=hi).contains(&value), "bound violated: {value}");
            }
            true
        }
        Outcome::Unsat => false,
        Outcome::Unknown => panic!("no limits were set, Unknown is impossible"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn reference_handles_trivial_instances() {
        // x - y <= -1 and y - x <= -1 is a negative cycle: UNSAT.
        let unsat = DiffInstance {
            num_bools: 0,
            num_ints: 2,
            atoms: vec![
                Atom {
                    kind: AtomKind::DiffLe,
                    x: 0,
                    y: 1,
                    k: -1,
                },
                Atom {
                    kind: AtomKind::DiffLe,
                    x: 1,
                    y: 0,
                    k: -1,
                },
            ],
            clauses: vec![vec![(0, true)], vec![(1, true)]],
            units: Vec::new(),
            bounds: vec![(0, 10), (0, 10)],
        };
        assert!(!brute_force_sat(&unsat));
        assert!(!solve_with_smt(&unsat));

        // A single satisfiable atom.
        let sat = DiffInstance {
            num_bools: 0,
            num_ints: 2,
            atoms: vec![Atom {
                kind: AtomKind::DiffGe,
                x: 0,
                y: 1,
                k: 2,
            }],
            clauses: vec![vec![(0, true)]],
            units: Vec::new(),
            bounds: vec![(0, 10), (0, 10)],
        };
        assert!(brute_force_sat(&sat));
        assert!(solve_with_smt(&sat));
    }

    #[test]
    fn instance_generation_is_deterministic() {
        let a = random_instance(&mut StdRng::seed_from_u64(11));
        let b = random_instance(&mut StdRng::seed_from_u64(11));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
