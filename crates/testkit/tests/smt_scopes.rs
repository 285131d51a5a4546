//! Differential coverage for `tsn_smt` push/pop scopes and assumption-based
//! solving.
//!
//! Ground truth per instance: for every full assignment of the Boolean
//! space, the brute-force reference decides feasibility (clauses + units +
//! the implied difference system). The *satisfiable set* of a model is the
//! set of assignments the reference accepts; the solver is asked the same
//! question via `solve_with_assumptions` pinning every Boolean. The test
//! asserts that
//!
//! * the per-assignment verdicts agree with brute force (assumptions
//!   differential),
//! * pushing a scope and adding constraints only ever *shrinks* the set,
//! * popping the scope restores exactly the pre-push satisfiable set.
//!
//! The same questions are asked of instances whose atoms crowd onto one or
//! two integer pairs, where most of the solver's work is theory
//! implication rather than decision.
//!
//! Last, scripted scope shapes drive the model's solver image (the solver
//! it keeps of the clauses below an open scope) through being made,
//! extended, kept past its mark and dropped, with every verdict checked by
//! brute force; debug builds also compare each solver started from the
//! image with a build from scratch, field by field.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use testkit::diffsolver::replay_into;
use testkit::{
    brute_force_sat, build_model, crowded_instance, random_instance, solve_with_smt, DiffInstance,
};
use tsn_smt::{Lit, Model, SolveOptions};

/// The satisfiable set of an instance according to the brute-force
/// reference: one bool per full Boolean assignment (bit `i` of the mask is
/// Boolean index `i`).
fn reference_set(inst: &DiffInstance) -> Vec<bool> {
    let total = inst.total_bools();
    (0..(1u32 << total))
        .map(|mask| {
            let mut pinned = inst.clone();
            for b in 0..total {
                pinned.units.push((b, mask & (1 << b) != 0));
            }
            brute_force_sat(&pinned)
        })
        .collect()
}

/// The satisfiable set according to the solver, probing every assignment
/// with assumptions (nothing is ever added to the model).
fn solver_set(model: &mut Model, lits: &[Lit]) -> Vec<bool> {
    solver_set_with(model, lits, SolveOptions::default())
}

/// [`solver_set`] under explicit solve options (e.g. a forced clause-DB
/// reduction threshold).
fn solver_set_with(model: &mut Model, lits: &[Lit], options: SolveOptions) -> Vec<bool> {
    probe_set(model, lits, &[], options).0
}

/// The satisfiable set with `fixed` assumed in front of every probe, plus
/// the number of literals the theory implied over all probes. Satisfiable
/// probes are re-verified against the model, so an unsound assignment fails
/// here rather than passing silently.
fn probe_set(
    model: &mut Model,
    lits: &[Lit],
    fixed: &[Lit],
    options: SolveOptions,
) -> (Vec<bool>, u64) {
    let mut implications = 0;
    let set = (0..(1u32 << lits.len()))
        .map(|mask| {
            let assumptions: Vec<Lit> = fixed
                .iter()
                .copied()
                .chain(
                    lits.iter()
                        .enumerate()
                        .map(|(b, &l)| if mask & (1 << b) != 0 { l } else { !l }),
                )
                .collect();
            let outcome = model.solve_with_assumptions(&assumptions, options);
            implications += model.last_stats().theory_implications;
            if let Some(assignment) = outcome.assignment() {
                model
                    .verify(assignment)
                    .expect("satisfiable probes produce real models");
            }
            outcome.is_sat()
        })
        .collect();
    (set, implications)
}

/// Adds six pigeons in five holes behind a fresh `gate` literal and returns
/// the gate: assuming it forces enough conflicts for the Luby restarts (and,
/// with a zero threshold, for actual clause deletion), while assuming its
/// negation leaves the rest of the model as it was.
fn gated_pigeonhole(m: &mut Model) -> Lit {
    let gate = m.new_bool().lit();
    let vars: Vec<Vec<Lit>> = (0..6)
        .map(|_| (0..5).map(|_| m.new_bool().lit()).collect())
        .collect();
    for row in &vars {
        let mut clause = vec![!gate];
        clause.extend(row.iter().copied());
        m.add_clause(clause);
    }
    for j in 0..5 {
        let column: Vec<Lit> = vars.iter().map(|row| row[j]).collect();
        for a in 0..column.len() {
            for b in (a + 1)..column.len() {
                m.add_clause([!column[a], !column[b]]);
            }
        }
    }
    gate
}

#[test]
fn popping_a_scope_restores_the_satisfiable_set() {
    let mut rng = StdRng::seed_from_u64(0x5C0B_ED1F);
    let mut nontrivial = 0usize;
    for round in 0..25 {
        let inst = random_instance(&mut rng);
        let built = build_model(&inst);
        let mut model = built.model;
        let lits = built.lits;
        let ints = built.ints;

        // Assumption differential: the solver's satisfiable set must equal
        // the brute-force reference's, assignment by assignment.
        let pre = reference_set(&inst);
        let solver_pre = solver_set(&mut model, &lits);
        assert_eq!(
            solver_pre, pre,
            "round {round}: assumption probing disagrees with brute force: {inst:?}"
        );
        if pre.iter().any(|&s| s) && pre.iter().any(|&s| !s) {
            nontrivial += 1;
        }

        // Push a scope and constrain further: random clauses over existing
        // literals plus a fresh difference atom between two integers.
        model.push();
        let extra_clauses = rng.gen_range(1..4);
        for _ in 0..extra_clauses {
            let len = rng.gen_range(1..3);
            let clause: Vec<Lit> = (0..len)
                .map(|_| {
                    let l = lits[rng.gen_range(0..lits.len())];
                    if rng.gen_bool(0.5) {
                        l
                    } else {
                        !l
                    }
                })
                .collect();
            model.add_clause(clause);
        }
        if ints.len() >= 2 {
            let x = ints[rng.gen_range(0..ints.len())];
            let mut y = ints[rng.gen_range(0..ints.len())];
            if x == y {
                y = ints[(ints.iter().position(|&v| v == x).unwrap() + 1) % ints.len()];
            }
            let atom = model.diff_le(x, y, rng.gen_range(-5..5));
            model.assert_lit(atom);
        }

        // Inside the scope the set can only shrink.
        let inside = solver_set(&mut model, &lits);
        for (mask, (&now, &before)) in inside.iter().zip(pre.iter()).enumerate() {
            assert!(
                !now || before,
                "round {round}: assignment {mask:#b} became satisfiable by ADDING constraints"
            );
        }

        // Popping restores exactly the pre-push satisfiable set.
        model.pop();
        let after = solver_set(&mut model, &lits);
        assert_eq!(
            after, pre,
            "round {round}: popping the scope did not restore the satisfiable set: {inst:?}"
        );
    }
    assert!(
        nontrivial >= 5,
        "the generator must produce instances with mixed verdicts ({nontrivial})"
    );
}

#[test]
fn clause_db_reduction_preserves_the_satisfiable_set() {
    // The same instance set, probed with the default reduction threshold and
    // with reduction forced at every restart (`reduce_threshold: Some(0)`):
    // the satisfiable sets must be identical to each other and to brute
    // force, and every satisfiable probe must still produce a verifiable
    // model (checked inside `solver_set_with`).
    let forced = SolveOptions {
        reduce_threshold: Some(0),
        ..SolveOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(0x0DE1_E7ED);
    for round in 0..25 {
        let inst = random_instance(&mut rng);
        let reference = reference_set(&inst);
        let built = build_model(&inst);
        let mut model = built.model;
        let lits = built.lits;
        let plain = solver_set_with(&mut model, &lits, SolveOptions::default());
        let reduced = solver_set_with(&mut model, &lits, forced);
        assert_eq!(
            plain, reference,
            "round {round}: default options disagree with brute force: {inst:?}"
        );
        assert_eq!(
            reduced, reference,
            "round {round}: forced clause-DB reduction changed a verdict: {inst:?}"
        );
    }
}

#[test]
fn forced_reduction_deletes_clauses_without_changing_verdicts() {
    // A gated pigeonhole: the selector literal arms six at-least-one rows
    // over five holes, so assuming it forces enough conflicts for the Luby
    // restarts — and, with a zero threshold, for actual clause deletion —
    // while its negation keeps the model satisfiable. Both verdicts must
    // match the unreduced solver's.
    let forced = SolveOptions {
        reduce_threshold: Some(0),
        ..SolveOptions::default()
    };
    let mut m = Model::new();
    let gate = gated_pigeonhole(&mut m);
    let open = m.solve_with_assumptions(&[!gate], forced);
    m.verify(open.assignment().expect("ungated model is satisfiable"))
        .unwrap();
    assert!(m.solve_with_assumptions(&[gate], forced).is_unsat());
    let stats = m.last_stats().clone();
    assert!(stats.restarts > 0, "the gated pigeonhole must restart");
    assert!(
        stats.deleted_clauses > 0,
        "a zero threshold must actually delete learned clauses: {stats}"
    );
    // The unreduced solver agrees on both verdicts.
    assert!(m
        .solve_with_assumptions(&[gate], SolveOptions::default())
        .is_unsat());
    assert_eq!(m.last_stats().deleted_clauses, 0);
    assert!(m
        .solve_with_assumptions(&[!gate], SolveOptions::default())
        .is_sat());
}

#[test]
fn warm_started_scoped_probing_agrees_with_cold() {
    // The same probe sequence with warm starts on and off must produce
    // identical verdicts (warm start is a performance feature, never a
    // semantic one), including across push/pop boundaries.
    let mut rng_a = StdRng::seed_from_u64(0xFEED);
    let mut rng_b = StdRng::seed_from_u64(0xFEED);
    for _ in 0..10 {
        let inst_a = random_instance(&mut rng_a);
        let inst_b = random_instance(&mut rng_b);
        let mut cold = build_model(&inst_a).model;
        let built = build_model(&inst_b);
        let mut warm = built.model;
        warm.set_warm_start(true);
        let lits = built.lits;

        let cold_verdicts = {
            let v1 = cold.solve().is_sat();
            cold.push();
            if !lits.is_empty() {
                cold.assert_lit(lits[0]);
            }
            let v2 = cold.solve().is_sat();
            cold.pop();
            let v3 = cold.solve().is_sat();
            (v1, v2, v3)
        };
        let warm_verdicts = {
            let v1 = warm.solve().is_sat();
            warm.push();
            if !lits.is_empty() {
                warm.assert_lit(lits[0]);
            }
            let v2 = warm.solve().is_sat();
            warm.pop();
            let v3 = warm.solve().is_sat();
            (v1, v2, v3)
        };
        assert_eq!(cold_verdicts, warm_verdicts);
        assert_eq!(cold_verdicts.0, cold_verdicts.2, "pop must restore verdict");
    }
}

#[test]
fn crowded_pairs_keep_their_verdicts_under_theory_propagation() {
    // Atoms crowded onto one or two pairs, as the stability staircase and
    // the link orderings crowd them: asserting one atom decides several
    // others, so the theory implies literals instead of leaving them to
    // decisions. The verdicts must stay brute force's through assumptions,
    // push/pop and forced clause-DB reduction. The gated pigeonhole makes
    // the reduction real: assuming the gate restarts the search, and every
    // restart compacts the clause database while the level-0 implications
    // of the variable bounds hold theory reasons.
    let forced = SolveOptions {
        reduce_threshold: Some(0),
        ..SolveOptions::default()
    };
    let mut rng = StdRng::seed_from_u64(0xC0_0DED);
    // First the plain verdict, found by search rather than pinned by
    // assumptions, over far more instances than the probes below can
    // afford: this is where conflicts run through implied literals.
    for round in 0..5000 {
        let inst = crowded_instance(&mut rng);
        assert_eq!(
            solve_with_smt(&inst),
            brute_force_sat(&inst),
            "round {round}: {inst:?}"
        );
    }
    let (mut implications, mut deleted, mut nontrivial) = (0u64, 0u64, 0usize);
    for round in 0..25 {
        let inst = crowded_instance(&mut rng);
        let built = build_model(&inst);
        let mut model = built.model;
        let lits = built.lits;
        let ints = built.ints;
        let gate = gated_pigeonhole(&mut model);
        let open = [!gate];

        let pre = reference_set(&inst);
        if pre.iter().any(|&s| s) && pre.iter().any(|&s| !s) {
            nontrivial += 1;
        }
        for options in [SolveOptions::default(), forced] {
            let (set, implied) = probe_set(&mut model, &lits, &open, options);
            assert_eq!(
                set, pre,
                "round {round}: disagrees with brute force: {inst:?}"
            );
            implications += implied;
        }
        assert!(
            model.solve_with_assumptions(&[gate], forced).is_unsat(),
            "round {round}: the gated pigeonhole is unsatisfiable"
        );
        deleted += model.last_stats().deleted_clauses;

        // One more bound on the crowded pair, inside a scope: the set can
        // only shrink, and popping restores it.
        model.push();
        let k = rng.gen_range(-4..5);
        let atom = if rng.gen_bool(0.5) {
            model.diff_le(ints[0], ints[1], k)
        } else {
            model.diff_le(ints[1], ints[0], k)
        };
        model.assert_lit(atom);
        let (inside, implied) = probe_set(&mut model, &lits, &open, forced);
        implications += implied;
        for (mask, (&now, &before)) in inside.iter().zip(pre.iter()).enumerate() {
            assert!(
                !now || before,
                "round {round}: assignment {mask:#b} became satisfiable by ADDING a bound"
            );
        }
        model.pop();
        let (after, _) = probe_set(&mut model, &lits, &open, forced);
        assert_eq!(
            after, pre,
            "round {round}: pop did not restore the set: {inst:?}"
        );
    }
    assert!(
        nontrivial >= 5,
        "too few mixed-verdict instances ({nontrivial})"
    );
    assert!(implications > 0, "the theory implied nothing");
    assert!(deleted > 0, "no reduction ran under the theory reasons");
}

/// One random instance replayed into a shared model, with the model
/// literal of each of its Boolean indices.
struct Layer {
    inst: DiffInstance,
    lits: Vec<Lit>,
}

/// Replays a fresh random instance into `model` as one more layer.
fn add_layer(model: &mut Model, rng: &mut StdRng, layers: &mut Vec<Layer>) {
    let inst = random_instance(rng);
    let (lits, _) = replay_into(model, &inst);
    layers.push(Layer { inst, lits });
}

/// Solves the model plainly and under one random assumption, and checks
/// both verdicts against brute force: the layers share no variable, so the
/// model is satisfiable exactly when every layer is. Returns the plain
/// verdict.
fn check_layers(model: &mut Model, layers: &[Layer], rng: &mut StdRng, what: &str) -> bool {
    let expected = layers.iter().all(|layer| brute_force_sat(&layer.inst));
    let outcome = model.solve();
    assert_eq!(outcome.is_sat(), expected, "{what}");
    if let Some(assignment) = outcome.assignment() {
        model
            .verify(assignment)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
    }
    let which = rng.gen_range(0..layers.len());
    let index = rng.gen_range(0..layers[which].lits.len());
    let positive = rng.gen_bool(0.5);
    let lit = layers[which].lits[index];
    let assumed = if positive { lit } else { !lit };
    let expected_under = layers.iter().enumerate().all(|(i, layer)| {
        let mut inst = layer.inst.clone();
        if i == which {
            inst.units.push((index, positive));
        }
        brute_force_sat(&inst)
    });
    let outcome = model.solve_with_assumptions(&[assumed], SolveOptions::default());
    assert_eq!(
        outcome.is_sat(),
        expected_under,
        "{what}, under an assumption"
    );
    if let Some(assignment) = outcome.assignment() {
        model
            .verify(assignment)
            .unwrap_or_else(|e| panic!("{what}, under an assumption: {e}"));
    }
    expected
}

#[test]
fn the_solver_image_is_made_extended_and_dropped_with_the_scopes() {
    // Each round runs one script of scope shapes over random layers, on a
    // cold model in even rounds and a warm one in odd rounds (the warm
    // seed goes onto a copy of the image, after its level-0 units):
    //
    // * a solve with no scope open, which keeps no image;
    // * a probe, which makes the image at its scope's mark, then a commit
    //   or a pop at random;
    // * a second probe, which extends a committed image to the new mark;
    // * a solve after the commit with no scope open, from the image;
    // * a unit added with no scope open, then nested scopes, which extend
    //   the image over the unit to the innermost mark;
    // * popping the inner scope (the image stays, past the outer mark),
    //   then the outer one, which drops it;
    // * a last solve with no scope open.
    let mut rng = StdRng::seed_from_u64(0x1A6E_5C0B);
    // Plain verdicts: [unsat, sat].
    let mut verdicts = [0usize; 2];
    for round in 0..60 {
        let mut model = Model::new();
        model.set_warm_start(round % 2 == 1);
        let mut layers = Vec::new();
        let mut check = |model: &mut Model, layers: &[Layer], rng: &mut StdRng, what: &str| {
            let what = format!("round {round}: {what}");
            verdicts[usize::from(check_layers(model, layers, rng, &what))] += 1;
        };
        add_layer(&mut model, &mut rng, &mut layers);
        check(&mut model, &layers, &mut rng, "no scope");

        model.push();
        add_layer(&mut model, &mut rng, &mut layers);
        check(&mut model, &layers, &mut rng, "first probe");
        if round % 4 < 2 {
            model.commit();
        } else {
            model.pop();
            layers.pop();
        }
        model.push();
        add_layer(&mut model, &mut rng, &mut layers);
        check(&mut model, &layers, &mut rng, "second probe");
        model.commit();
        check(&mut model, &layers, &mut rng, "committed, no scope");

        // A unit on a variable the last solve assigned, below the next
        // scope's mark: the image holds it, and a warm seed carries the
        // solve's phase for it, which may disagree.
        let which = rng.gen_range(0..layers.len());
        let index = rng.gen_range(0..layers[which].lits.len());
        let positive = rng.gen_bool(0.5);
        let lit = layers[which].lits[index];
        model.assert_lit(if positive { lit } else { !lit });
        layers[which].inst.units.push((index, positive));
        let outer = layers.len();
        model.push();
        add_layer(&mut model, &mut rng, &mut layers);
        model.push();
        add_layer(&mut model, &mut rng, &mut layers);
        check(&mut model, &layers, &mut rng, "nested scopes");
        model.pop();
        layers.pop();
        check(&mut model, &layers, &mut rng, "inner scope popped");
        model.pop();
        layers.truncate(outer);
        check(&mut model, &layers, &mut rng, "popped below the image");
        assert_eq!(model.scope_depth(), 0);
    }
    let [unsat, sat] = verdicts;
    assert!(sat > 50 && unsat > 50, "{sat} sat / {unsat} unsat checks");
}
