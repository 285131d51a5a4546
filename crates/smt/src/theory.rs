//! Integer difference-logic theory.
//!
//! The theory decides conjunctions of *difference atoms* `x - y <= k` over
//! integer variables. Atoms are attached to Boolean proxy variables by the
//! [`Model`](crate::Model); whenever the SAT core assigns such a proxy, the
//! corresponding constraint (or its integer negation `y - x <= -k - 1`) is
//! asserted here. An accepted edge also decides other atoms: the
//! [`Solver`](crate::Solver) implies every unassigned atom over the same two
//! variables that the edge settles, so the theory's verdicts reach the
//! search as propagations, not only as conflicts.
//!
//! Consistency is maintained incrementally with the Cotton–Maler potential
//! algorithm: a potential function `pi` with non-negative reduced cost
//! `pi(y) + k - pi(x)` for every asserted edge `y -> x (k)` is kept at all
//! times; asserting a new edge triggers a Dijkstra-like repair restricted to
//! the affected nodes, and a failure to repair exposes a negative cycle whose
//! atoms form the theory conflict. Because any potential feasible for a set
//! of edges is feasible for every subset, backtracking only needs to remove
//! edges — the potentials are kept as-is.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::sat::with_room;
use crate::types::Lit;

/// An asserted difference constraint `x - y <= k`, i.e. a graph edge
/// `y -> x` with weight `k`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    from: usize,
    to: usize,
    weight: i64,
    /// The literal whose assertion introduced this edge (used to build
    /// conflict explanations).
    lit: Lit,
}

/// The difference atom attached to a Boolean proxy variable:
/// `x - y <= k` when the proxy is true, `y - x <= -k - 1` when false.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffAtom {
    /// Left-hand variable `x`.
    pub x: usize,
    /// Right-hand variable `y`.
    pub y: usize,
    /// The bound `k`.
    pub k: i64,
}

/// The incremental difference-logic solver.
#[derive(Debug, Default)]
pub struct DifferenceLogic {
    /// Number of integer variables.
    num_vars: usize,
    /// Potential function; doubles as the satisfying assignment.
    potential: Vec<i64>,
    /// Outgoing edge indexes per node.
    out_edges: Vec<Vec<usize>>,
    /// All currently asserted edges (a stack, unwound on backtracking).
    edges: Vec<Edge>,
    /// `trail[i]` is the SAT-trail height at which `edges[i]` was asserted.
    assert_heights: Vec<usize>,
    /// Epoch-stamped scratch arenas for the Dijkstra repair. `gamma` and
    /// `parent` for a node are valid only when `scratch_stamp[node]` equals
    /// the current `scratch_epoch` (reading a stale stamp means "default":
    /// gamma 0, no parent); `settled_stamp` marks settled nodes the same
    /// way. Keeping the buffers on the struct turns the per-assert cost from
    /// three O(num_vars) allocations plus a heap allocation into O(touched).
    scratch_gamma: Vec<i64>,
    scratch_parent: Vec<Option<usize>>,
    scratch_stamp: Vec<u64>,
    settled_stamp: Vec<u64>,
    scratch_epoch: u64,
    /// Repair work-list, retained across calls (cleared, never freed).
    heap: BinaryHeap<Reverse<(i64, usize)>>,
    /// Potentials modified by the current repair, for rollback on conflict.
    touched: Vec<(usize, i64)>,
    /// Number of repair invocations that reused the (already allocated)
    /// scratch arenas — every repair after the first.
    scratch_reuses: u64,
}

impl DifferenceLogic {
    /// Creates an empty theory.
    pub fn new() -> Self {
        DifferenceLogic::default()
    }

    /// Registers a new integer variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        let idx = self.num_vars;
        self.num_vars += 1;
        self.potential.push(0);
        self.out_edges.push(Vec::new());
        self.scratch_gamma.push(0);
        self.scratch_parent.push(None);
        self.scratch_stamp.push(0);
        self.settled_stamp.push(0);
        idx
    }

    /// A copy of the theory with room for `extra` more variables in every
    /// per-variable array, so that creating them reallocates nothing.
    pub(crate) fn clone_with_room(&self, extra: usize) -> Self {
        DifferenceLogic {
            num_vars: self.num_vars,
            potential: with_room(&self.potential, extra),
            out_edges: with_room(&self.out_edges, extra),
            edges: self.edges.clone(),
            assert_heights: self.assert_heights.clone(),
            scratch_gamma: with_room(&self.scratch_gamma, extra),
            scratch_parent: with_room(&self.scratch_parent, extra),
            scratch_stamp: with_room(&self.scratch_stamp, extra),
            settled_stamp: with_room(&self.settled_stamp, extra),
            scratch_epoch: self.scratch_epoch,
            heap: self.heap.clone(),
            touched: self.touched.clone(),
            scratch_reuses: self.scratch_reuses,
        }
    }

    /// Number of repair invocations that reused the persistent scratch
    /// arenas (every Dijkstra repair after the first).
    pub fn scratch_reuses(&self) -> u64 {
        self.scratch_reuses
    }

    /// The number of integer variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The number of currently asserted edges.
    pub fn num_asserted(&self) -> usize {
        self.edges.len()
    }

    /// The current value of a variable (the potential).
    ///
    /// Values are only meaningful w.r.t. each other (differences); the
    /// [`Model`](crate::Model) normalizes them against its zero variable.
    pub fn value(&self, var: usize) -> i64 {
        self.potential[var]
    }

    /// Asserts the constraint `x - y <= k` justified by `lit`, at the given
    /// SAT-trail height.
    ///
    /// Returns `Err(conflict)` when the constraint closes a negative cycle;
    /// the conflict is the set of literals (including `lit`) whose
    /// constraints form that cycle. The new edge is *not* recorded in that
    /// case.
    ///
    /// All potential arithmetic saturates at the `i64` boundaries — both the
    /// feasibility fast path and the Dijkstra repair — so constants near
    /// `i64::MAX`/`i64::MIN` clamp instead of wrapping (or panicking in
    /// debug builds). Scheduling workloads keep times many orders of
    /// magnitude below the clamp, where saturation never engages.
    pub fn assert_le(
        &mut self,
        x: usize,
        y: usize,
        k: i64,
        lit: Lit,
        height: usize,
    ) -> Result<(), Vec<Lit>> {
        debug_assert!(x < self.num_vars && y < self.num_vars);
        let from = y;
        let to = x;
        // Fast path: already feasible under the current potential.
        if self.potential[from].saturating_add(k) >= self.potential[to] {
            self.push_edge(from, to, k, lit, height);
            return Ok(());
        }
        // Dijkstra-like repair (Cotton & Maler). gamma(v) < 0 is the amount
        // by which pi(v) must decrease. The arenas persist on the struct;
        // bumping the epoch invalidates every stale entry in O(1).
        self.scratch_epoch += 1;
        let epoch = self.scratch_epoch;
        if epoch > 1 {
            self.scratch_reuses += 1;
        }
        self.heap.clear();
        self.touched.clear();

        let seed = self.potential[from]
            .saturating_add(k)
            .saturating_sub(self.potential[to]);
        self.scratch_gamma[to] = seed;
        // usize::MAX marks "the new edge" as parent.
        self.scratch_parent[to] = Some(usize::MAX);
        self.scratch_stamp[to] = epoch;
        self.heap.push(Reverse((seed, to)));

        while let Some(Reverse((g, s))) = self.heap.pop() {
            let s_gamma = if self.scratch_stamp[s] == epoch {
                self.scratch_gamma[s]
            } else {
                0
            };
            if self.settled_stamp[s] == epoch || g > s_gamma {
                continue;
            }
            if s == from {
                // Lowering the source of the new edge: negative cycle.
                // Restore the potentials we already modified.
                for &(node, old) in self.touched.iter().rev() {
                    self.potential[node] = old;
                }
                let conflict = self.explain_cycle(from, lit, epoch);
                // Leftover work must not leak into the next repair.
                self.heap.clear();
                return Err(conflict);
            }
            self.settled_stamp[s] = epoch;
            self.touched.push((s, self.potential[s]));
            self.potential[s] = self.potential[s].saturating_add(s_gamma);
            self.scratch_gamma[s] = 0;
            for i in 0..self.out_edges[s].len() {
                let edge_idx = self.out_edges[s][i];
                let e = self.edges[edge_idx];
                debug_assert_eq!(e.from, s);
                let t = e.to;
                if self.settled_stamp[t] == epoch {
                    continue;
                }
                let reduced = self.potential[s]
                    .saturating_add(e.weight)
                    .saturating_sub(self.potential[t]);
                let t_gamma = if self.scratch_stamp[t] == epoch {
                    self.scratch_gamma[t]
                } else {
                    0
                };
                if reduced < t_gamma {
                    self.scratch_gamma[t] = reduced;
                    self.scratch_parent[t] = Some(edge_idx);
                    self.scratch_stamp[t] = epoch;
                    self.heap.push(Reverse((reduced, t)));
                }
            }
        }
        self.push_edge(from, to, k, lit, height);
        Ok(())
    }

    fn push_edge(&mut self, from: usize, to: usize, weight: i64, lit: Lit, height: usize) {
        let idx = self.edges.len();
        self.edges.push(Edge {
            from,
            to,
            weight,
            lit,
        });
        self.assert_heights.push(height);
        self.out_edges[from].push(idx);
    }

    /// Reconstructs the literals of the negative cycle closed by the new
    /// edge `from -> ...` using the stamped parent pointers of the failed
    /// repair (entries are valid only at the given epoch).
    fn explain_cycle(&self, from: usize, new_lit: Lit, epoch: u64) -> Vec<Lit> {
        let mut conflict = vec![new_lit];
        let mut node = from;
        // Walk parents until we hit the node introduced by the new edge
        // (marked with usize::MAX).
        loop {
            let parent = if self.scratch_stamp[node] == epoch {
                self.scratch_parent[node]
            } else {
                None
            };
            match parent {
                Some(usize::MAX) => break,
                Some(edge_idx) => {
                    let e = self.edges[edge_idx];
                    conflict.push(e.lit);
                    node = e.from;
                }
                None => break,
            }
        }
        conflict
    }

    /// Removes every edge asserted at or above the given SAT-trail height.
    ///
    /// The potential function stays untouched: a potential feasible for a
    /// superset of edges is feasible for the remaining subset.
    pub fn backtrack_to(&mut self, height: usize) {
        while let Some(&h) = self.assert_heights.last() {
            if h < height {
                break;
            }
            self.assert_heights.pop();
            let edge = self.edges.pop().expect("edge stack in sync with heights");
            let popped = self.out_edges[edge.from].pop();
            debug_assert_eq!(popped, Some(self.edges.len()));
        }
    }

    /// Checks that the current potential satisfies every asserted edge —
    /// the theory's internal soundness invariant, used by tests and debug
    /// assertions.
    pub fn check_invariant(&self) -> bool {
        self.edges
            .iter()
            .all(|e| self.potential[e.from].saturating_add(e.weight) >= self.potential[e.to])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::BoolVar;

    fn lit(i: u32) -> Lit {
        BoolVar(i).lit()
    }

    #[test]
    fn consistent_chain_is_accepted() {
        let mut t = DifferenceLogic::new();
        let a = t.new_var();
        let b = t.new_var();
        let c = t.new_var();
        // a - b <= -1 (a < b), b - c <= -1 (b < c)
        t.assert_le(a, b, -1, lit(0), 0).unwrap();
        t.assert_le(b, c, -1, lit(1), 1).unwrap();
        assert!(t.check_invariant());
        assert!(t.value(a) < t.value(b));
        assert!(t.value(b) < t.value(c));
    }

    #[test]
    fn negative_cycle_is_detected_with_explanation() {
        let mut t = DifferenceLogic::new();
        let a = t.new_var();
        let b = t.new_var();
        // a - b <= -3 and b - a <= 2 gives a cycle of weight -1.
        t.assert_le(a, b, -3, lit(0), 0).unwrap();
        let conflict = t.assert_le(b, a, 2, lit(1), 1).unwrap_err();
        assert!(conflict.contains(&lit(0)));
        assert!(conflict.contains(&lit(1)));
        assert_eq!(conflict.len(), 2);
        // The failed assertion must not leave the edge behind.
        assert_eq!(t.num_asserted(), 1);
        assert!(t.check_invariant());
    }

    #[test]
    fn zero_weight_cycle_is_fine() {
        let mut t = DifferenceLogic::new();
        let a = t.new_var();
        let b = t.new_var();
        // a - b <= 0 and b - a <= 0 forces equality: satisfiable.
        t.assert_le(a, b, 0, lit(0), 0).unwrap();
        t.assert_le(b, a, 0, lit(1), 1).unwrap();
        assert_eq!(t.value(a), t.value(b));
    }

    #[test]
    fn longer_negative_cycle() {
        let mut t = DifferenceLogic::new();
        let v: Vec<usize> = (0..4).map(|_| t.new_var()).collect();
        // v0 < v1 < v2 < v3 and v3 - v0 <= 1 -> cycle weight -3 + 1 = -2.
        t.assert_le(v[0], v[1], -1, lit(0), 0).unwrap();
        t.assert_le(v[1], v[2], -1, lit(1), 1).unwrap();
        t.assert_le(v[2], v[3], -1, lit(2), 2).unwrap();
        let conflict = t.assert_le(v[3], v[0], 1, lit(3), 3).unwrap_err();
        assert_eq!(conflict.len(), 4);
        for i in 0..4 {
            assert!(conflict.contains(&lit(i)));
        }
    }

    #[test]
    fn backtracking_removes_edges_and_allows_reassertion() {
        let mut t = DifferenceLogic::new();
        let a = t.new_var();
        let b = t.new_var();
        t.assert_le(a, b, -3, lit(0), 0).unwrap();
        assert!(t.assert_le(b, a, 2, lit(1), 5).is_err());
        // Drop the first constraint and assert the second: now fine.
        t.backtrack_to(0);
        assert_eq!(t.num_asserted(), 0);
        t.assert_le(b, a, 2, lit(1), 5).unwrap();
        assert!(t.check_invariant());
        // Partial backtrack keeps lower assertions.
        let mut t = DifferenceLogic::new();
        let a = t.new_var();
        let b = t.new_var();
        let c = t.new_var();
        t.assert_le(a, b, -1, lit(0), 0).unwrap();
        t.assert_le(b, c, -1, lit(1), 3).unwrap();
        t.backtrack_to(2);
        assert_eq!(t.num_asserted(), 1);
        assert!(t.check_invariant());
    }

    #[test]
    fn bounds_via_a_zero_variable() {
        let mut t = DifferenceLogic::new();
        let zero = t.new_var();
        let x = t.new_var();
        // 5 <= x <= 10  as  zero - x <= -5 and x - zero <= 10.
        t.assert_le(zero, x, -5, lit(0), 0).unwrap();
        t.assert_le(x, zero, 10, lit(1), 1).unwrap();
        let v = t.value(x) - t.value(zero);
        assert!((5..=10).contains(&v));
        // Contradictory bounds are rejected.
        let conflict = t.assert_le(x, zero, 4, lit(2), 2);
        assert!(conflict.is_err());
    }

    #[test]
    fn extreme_offsets_repair_without_overflow() {
        // Regression: the repair path used to compute potentials with raw
        // `+`/`-` while the fast path saturated, so near-`i64::MAX`
        // constants passed the guard and then overflowed inside Dijkstra
        // (panic in debug, wrap in release). The whole path saturates now.
        let huge = i64::MAX / 2;
        let mut t = DifferenceLogic::new();
        let a = t.new_var();
        let b = t.new_var();
        let c = t.new_var();
        let d = t.new_var();
        // Each assert forces a repair that drops a potential by ~2^62.
        t.assert_le(a, b, -huge, lit(0), 0).unwrap();
        assert!(t.check_invariant());
        t.assert_le(c, a, -huge, lit(1), 1).unwrap();
        assert!(t.check_invariant());
        // potential(c) is near -i64::MAX here; one more drop would overflow
        // the unchecked arithmetic of the old repair path.
        t.assert_le(d, c, -4, lit(2), 2).unwrap();
        assert!(t.check_invariant());
        // A near-MAX upper bound on an extreme node stays consistent.
        t.assert_le(b, d, i64::MAX, lit(3), 3).unwrap();
        assert!(t.check_invariant());
    }

    #[test]
    fn extreme_negative_cycle_is_detected_not_wrapped() {
        let huge = i64::MAX / 2;
        let mut t = DifferenceLogic::new();
        let a = t.new_var();
        let b = t.new_var();
        t.assert_le(a, b, -huge, lit(0), 0).unwrap();
        // Closing a cycle of weight ~-i64::MAX must report a conflict, not
        // wrap around to a "feasible" positive weight.
        let conflict = t.assert_le(b, a, -huge, lit(1), 1).unwrap_err();
        assert!(conflict.contains(&lit(0)));
        assert!(conflict.contains(&lit(1)));
        assert_eq!(t.num_asserted(), 1);
        assert!(t.check_invariant());
        // The theory stays usable after the extreme conflict.
        t.assert_le(b, a, huge, lit(2), 2).unwrap();
        assert!(t.check_invariant());
    }

    #[test]
    fn repairs_reuse_the_scratch_arena() {
        let mut t = DifferenceLogic::new();
        let a = t.new_var();
        let b = t.new_var();
        let c = t.new_var();
        assert_eq!(t.scratch_reuses(), 0);
        // Each of these is infeasible under the current potential and
        // triggers a repair.
        t.assert_le(a, b, -1, lit(0), 0).unwrap();
        t.assert_le(b, c, -1, lit(1), 1).unwrap();
        t.assert_le(a, c, -5, lit(2), 2).unwrap();
        assert!(
            t.scratch_reuses() >= 2,
            "later repairs must reuse the arena (got {})",
            t.scratch_reuses()
        );
        assert!(t.check_invariant());
    }

    #[test]
    fn dense_random_constraints_keep_invariant() {
        // A deterministic pseudo-random soak: assert many chain and bound
        // constraints, verifying the potential invariant throughout.
        let mut t = DifferenceLogic::new();
        let _vars: Vec<usize> = (0..30).map(|_| t.new_var()).collect();
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as i64
        };
        let mut height = 0usize;
        let mut ok = 0;
        for _ in 0..300 {
            let x = (next() % 30).unsigned_abs() as usize;
            let y = (next() % 30).unsigned_abs() as usize;
            if x == y {
                continue;
            }
            let k = next() % 50;
            height += 1;
            if t.assert_le(x, y, k, lit(height as u32), height).is_ok() {
                ok += 1;
            }
            assert!(t.check_invariant());
        }
        assert!(ok > 0);
    }
}
