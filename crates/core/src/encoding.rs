//! The SMT encoding of the joint routing and scheduling constraints
//! (Section V of the paper).
//!
//! Route selection is encoded with one selector Boolean per candidate route
//! (which makes the topology, no-loop and route constraints, Eq. 4/7/8, hold
//! by construction), release times are integer difference-logic variables,
//! and the contention-free (Eq. 5), transposition (Eq. 6), deadline and
//! stability (Eq. 2/3/10) constraints become clauses over difference atoms.
//!
//! The stability constraint `L_i + alpha_j J_i <= beta_j` mixes the minimum
//! and maximum end-to-end delays of an application with a rational
//! coefficient, which difference logic cannot express directly. It is encoded
//! exactly-in-the-limit by discretizing the latency axis: for each
//! sub-interval `[a, b]` of a stability segment, a selector Boolean implies
//! (1) every end-to-end delay is at least `a`, (2) at least one end-to-end
//! delay is at most `b`, and (3) every end-to-end delay is at most
//! `a + (beta - b) / alpha`. All three are difference constraints with
//! constant bounds; picking any sub-interval therefore certifies stability,
//! and every truly stable schedule is accepted as the sub-interval width
//! shrinks.

use std::collections::BTreeMap;

use tsn_net::{LinkId, Route, Time};
use tsn_smt::{IntVar, Lit, Model, Outcome, SolveOptions};

use crate::{
    ConstraintMode, MessageInstance, MessageSchedule, RouteCandidates, SynthesisConfig,
    SynthesisProblem,
};

/// Outcome of solving one stage (or one online admission probe).
#[derive(Debug)]
pub enum StageOutcome {
    /// Schedules for the stage's messages, in the same order as the input.
    Solved(Vec<MessageSchedule>),
    /// The stage constraints are unsatisfiable.
    Unsatisfiable,
    /// The solver gave up because of resource limits.
    ResourceLimit,
}

/// Builds and solves the SMT model of one synthesis stage.
///
/// The encoder is also the incremental-staging machinery behind the online
/// admission engine (`tsn_online`): [`with_model`](StageEncoder::with_model)
/// re-uses a warm [`Model`] across events, [`encode`](StageEncoder::encode)
/// adds the constraints of a batch of messages against a set of frozen
/// reservations, [`solve`](StageEncoder::solve) runs the solver, and
/// [`pin_solution`](StageEncoder::pin_solution) freezes an accepted batch
/// inside the model so later probes see it as immutable.
#[derive(Debug)]
pub struct StageEncoder<'a> {
    problem: &'a SynthesisProblem,
    candidates: &'a RouteCandidates,
    config: &'a SynthesisConfig,
    model: Model,
    /// Per current message: selector literal per candidate route.
    route_sel: Vec<Vec<Lit>>,
    /// Per current message: release-time variable per (non-sensor) link.
    /// Ordered maps keep every clause-emission order (and therefore the
    /// solver's search and the synthesized schedule) fully deterministic —
    /// hash maps would leak the per-thread hash seed into the encoding,
    /// which the partitioned parallel solver (`tsn_scale`) cannot afford.
    link_vars: Vec<BTreeMap<LinkId, IntVar>>,
    /// Per current message: "uses link" proxy per link.
    link_used: Vec<BTreeMap<LinkId, Lit>>,
}

impl<'a> StageEncoder<'a> {
    /// Creates an encoder over a fresh model.
    pub fn new(
        problem: &'a SynthesisProblem,
        candidates: &'a RouteCandidates,
        config: &'a SynthesisConfig,
    ) -> Self {
        StageEncoder::with_model(problem, candidates, config, Model::new())
    }

    /// Creates an encoder over an existing (possibly warm) model. The model
    /// keeps whatever constraints and warm-start state it already holds;
    /// callers manage scopes via [`model_mut`](StageEncoder::model_mut) and
    /// reclaim the model with [`into_model`](StageEncoder::into_model).
    pub fn with_model(
        problem: &'a SynthesisProblem,
        candidates: &'a RouteCandidates,
        config: &'a SynthesisConfig,
        model: Model,
    ) -> Self {
        StageEncoder {
            problem,
            candidates,
            config,
            model,
            route_sel: Vec::new(),
            link_vars: Vec::new(),
            link_used: Vec::new(),
        }
    }

    /// Mutable access to the underlying model (for scope management).
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
    }

    /// Consumes the encoder, returning the underlying model for reuse.
    pub fn into_model(self) -> Model {
        self.model
    }

    fn ld(&self, app: usize, link: LinkId) -> Time {
        let frame = self.problem.applications()[app].frame_bytes;
        self.problem.topology().link(link).transmission_delay(frame)
    }

    fn sd(&self) -> Time {
        self.problem.forwarding_delay()
    }

    /// The earliest possible arrival-relative end-to-end delay of a message
    /// of `app` (used to clip the stability grid).
    fn min_base_delay(&self, app: usize) -> Time {
        self.candidates
            .for_app(app)
            .iter()
            .map(|r| {
                r.base_delay(
                    self.problem.topology(),
                    self.problem.applications()[app].frame_bytes,
                    self.sd(),
                )
            })
            .min()
            .unwrap_or(Time::ZERO)
    }

    /// Encodes and solves one stage, returning the outcome together with the
    /// solver statistics of the stage.
    pub fn solve_stage(
        mut self,
        current: &[MessageInstance],
        fixed: &[MessageSchedule],
    ) -> (StageOutcome, tsn_smt::SolverStats) {
        self.encode(current, fixed);
        self.solve(current)
    }

    /// Encodes the constraints of `current` messages against the frozen
    /// `fixed` reservations: routing, transposition and deadlines, contention
    /// freedom, and (in stability-aware mode) the stability grid. Can be
    /// called once per scope on a reused model; the per-message tables always
    /// describe the most recent batch.
    pub fn encode(&mut self, current: &[MessageInstance], fixed: &[MessageSchedule]) {
        self.route_sel.clear();
        self.link_vars.clear();
        self.link_used.clear();
        self.encode_routing_and_timing(current);
        self.encode_contention(current, fixed);
        match self.config.mode {
            ConstraintMode::DeadlineOnly => {}
            ConstraintMode::StabilityAware { granularity } => {
                self.encode_stability(current, fixed, granularity);
            }
        }
    }

    /// Solves the model and extracts the schedules of the most recently
    /// [`encode`](StageEncoder::encode)d batch of messages.
    pub fn solve(&mut self, current: &[MessageInstance]) -> (StageOutcome, tsn_smt::SolverStats) {
        let outcome = self.model.solve_with(SolveOptions {
            max_conflicts: self.config.max_conflicts_per_stage,
            timeout: self.config.timeout_per_stage,
            ..SolveOptions::default()
        });
        let stats = self.model.last_stats().clone();
        let result = match outcome {
            Outcome::Unsat => StageOutcome::Unsatisfiable,
            Outcome::Unknown => StageOutcome::ResourceLimit,
            Outcome::Sat(assignment) => {
                let mut schedules = Vec::with_capacity(current.len());
                for (idx, message) in current.iter().enumerate() {
                    let route_idx = self.route_sel[idx]
                        .iter()
                        .position(|&l| assignment.lit_value(l))
                        .expect("exactly-one selection guarantees a chosen route");
                    let route = self.candidates.for_app(message.app)[route_idx].clone();
                    schedules.push(self.extract_schedule(message, &route, idx, &assignment));
                }
                StageOutcome::Solved(schedules)
            }
        };
        (result, stats)
    }

    /// Pins an accepted solution of the most recent batch into the model:
    /// the chosen route selector is asserted and every release-time variable
    /// is fixed to its solved value. After pinning, the batch behaves like an
    /// immutable reservation in all later solves on the same model (learned
    /// clauses about it stay valid), which is what makes warm-started online
    /// admission incremental.
    ///
    /// `schedules` must be the `Solved` payload for the same batch, in order.
    pub fn pin_solution(&mut self, schedules: &[MessageSchedule]) {
        debug_assert_eq!(schedules.len(), self.route_sel.len());
        for (idx, schedule) in schedules.iter().enumerate() {
            let routes = self.candidates.for_app(schedule.message.app);
            if let Some(route_idx) = routes.iter().position(|r| *r == schedule.route) {
                let sel = self.route_sel[idx][route_idx];
                self.model.assert_lit(sel);
            }
            for &(link, time) in schedule.link_release.iter().skip(1) {
                if let Some(&var) = self.link_vars[idx].get(&link) {
                    let ns = time.as_nanos();
                    self.model.int_bounds(var, ns, ns);
                }
            }
        }
    }

    fn extract_schedule(
        &self,
        message: &MessageInstance,
        route: &Route,
        idx: usize,
        assignment: &tsn_smt::Assignment,
    ) -> MessageSchedule {
        let mut link_release = Vec::with_capacity(route.links().len());
        for (hop, &link) in route.links().iter().enumerate() {
            let time = if hop == 0 {
                message.release
            } else {
                Time::from_nanos(assignment.int_value(self.link_vars[idx][&link]))
            };
            link_release.push((link, time));
        }
        let last_link = *route.links().last().expect("routes are never empty");
        let arrival = link_release.last().expect("non-empty").1 + self.ld(message.app, last_link);
        MessageSchedule {
            message: *message,
            route: route.clone(),
            link_release,
            end_to_end: arrival - message.release,
        }
    }

    /// Route selection (Eq. 8), transposition (Eq. 6) and the implicit
    /// period deadline for every current message.
    fn encode_routing_and_timing(&mut self, current: &[MessageInstance]) {
        for message in current {
            let app = &self.problem.applications()[message.app];
            let routes = self.candidates.for_app(message.app);
            let release_ns = message.release.as_nanos();
            let deadline_ns = (message.release + app.period).as_nanos();

            // One selector per candidate route; exactly one is chosen.
            let selectors: Vec<Lit> = routes.iter().map(|_| self.model.new_bool().lit()).collect();
            self.model.exactly_one(&selectors);

            // One release-time variable per distinct switch-egress link.
            let mut vars: BTreeMap<LinkId, IntVar> = BTreeMap::new();
            let mut used: BTreeMap<LinkId, Lit> = BTreeMap::new();
            for route in routes {
                for &link in route.links().iter().skip(1) {
                    vars.entry(link).or_insert_with(|| {
                        let v = self.model.new_int();
                        self.model.int_bounds(v, release_ns, deadline_ns);
                        v
                    });
                }
                for &link in route.links() {
                    used.entry(link)
                        .or_insert_with(|| self.model.new_bool().lit());
                }
            }

            for (r, route) in routes.iter().enumerate() {
                let sel = selectors[r];
                let links = route.links();
                // Selected route marks all its links as used.
                for &link in links {
                    self.model.implies(sel, used[&link]);
                }
                // Transposition along the route. The first link is the
                // sensor's own transmission at the (fixed) release time.
                let sd = self.sd().as_nanos();
                for hop in 1..links.len() {
                    let prev_ld = self.ld(message.app, links[hop - 1]).as_nanos();
                    let var = vars[&links[hop]];
                    if hop == 1 {
                        let earliest = release_ns + prev_ld + sd;
                        let bound = self.model.ge_const(var, earliest);
                        self.model.implies_all(&[sel], bound);
                    } else {
                        let prev_var = vars[&links[hop - 1]];
                        let bound = self.model.diff_ge(var, prev_var, prev_ld + sd);
                        self.model.implies_all(&[sel], bound);
                    }
                }
                // Implicit deadline: the message arrives at the controller
                // before its next instance is released.
                let last = *links.last().expect("non-empty route");
                let last_ld = self.ld(message.app, last).as_nanos();
                if links.len() == 1 {
                    // Direct sensor-to-controller link: delay is constant and
                    // either meets the deadline or the route is unusable.
                    if last_ld > app.period.as_nanos() {
                        self.model.assert_lit(!sel);
                    }
                } else {
                    let latest = deadline_ns - last_ld;
                    let bound = self.model.le_const(vars[&last], latest);
                    self.model.implies_all(&[sel], bound);
                }
            }

            self.route_sel.push(selectors);
            self.link_vars.push(vars);
            self.link_used.push(used);
        }
    }

    /// Contention-free constraints (Eq. 5) between current messages and
    /// between current and already-fixed messages.
    fn encode_contention(&mut self, current: &[MessageInstance], fixed: &[MessageSchedule]) {
        // Current vs current.
        for i in 0..current.len() {
            for j in (i + 1)..current.len() {
                if !self.windows_overlap(&current[i], &current[j]) {
                    continue;
                }
                let shared: Vec<LinkId> = self.link_vars[i]
                    .keys()
                    .filter(|l| self.link_vars[j].contains_key(l))
                    .copied()
                    .collect();
                for link in shared {
                    let ld_i = self.ld(current[i].app, link).as_nanos();
                    let ld_j = self.ld(current[j].app, link).as_nanos();
                    let ti = self.link_vars[i][&link];
                    let tj = self.link_vars[j][&link];
                    let i_first = self.model.diff_le(ti, tj, -ld_i);
                    let j_first = self.model.diff_le(tj, ti, -ld_j);
                    let ui = self.link_used[i][&link];
                    let uj = self.link_used[j][&link];
                    self.model.add_clause([!ui, !uj, i_first, j_first]);
                }
            }
        }
        // Current vs fixed.
        for (i, message) in current.iter().enumerate() {
            for f in fixed {
                if !self.window_overlaps_fixed(message, f) {
                    continue;
                }
                for &(link, t_fixed) in f.link_release.iter().skip(1) {
                    let Some(&ti) = self.link_vars[i].get(&link) else {
                        continue;
                    };
                    let ld_i = self.ld(message.app, link).as_nanos();
                    let ld_f = self.ld(f.message.app, link).as_nanos();
                    let before = self.model.le_const(ti, t_fixed.as_nanos() - ld_i);
                    let after = self.model.ge_const(ti, t_fixed.as_nanos() + ld_f);
                    let ui = self.link_used[i][&link];
                    self.model.add_clause([!ui, before, after]);
                }
            }
        }
    }

    fn windows_overlap(&self, a: &MessageInstance, b: &MessageInstance) -> bool {
        let a_end = a.release + self.problem.applications()[a.app].period;
        let b_end = b.release + self.problem.applications()[b.app].period;
        a.release <= b_end && b.release <= a_end
    }

    fn window_overlaps_fixed(&self, a: &MessageInstance, f: &MessageSchedule) -> bool {
        let a_end = a.release + self.problem.applications()[a.app].period;
        let f_end = f.message.release + self.problem.applications()[f.message.app].period;
        a.release <= f_end && f.message.release <= a_end
    }

    /// Stability constraints (Eq. 2/3/10) over the latency grid.
    fn encode_stability(
        &mut self,
        current: &[MessageInstance],
        fixed: &[MessageSchedule],
        granularity: Time,
    ) {
        let step = granularity.max(Time::from_micros(10)).as_nanos();
        for app_idx in 0..self.problem.applications().len() {
            let current_msgs: Vec<usize> = current
                .iter()
                .enumerate()
                .filter(|(_, m)| m.app == app_idx)
                .map(|(i, _)| i)
                .collect();
            let fixed_e2e: Vec<i64> = fixed
                .iter()
                .filter(|f| f.message.app == app_idx)
                .map(|f| f.end_to_end.as_nanos())
                .collect();
            if current_msgs.is_empty() && fixed_e2e.is_empty() {
                continue;
            }
            if current_msgs.is_empty() {
                // All messages of this application were fixed in earlier
                // stages; their stability was already enforced there.
                continue;
            }
            let app = &self.problem.applications()[app_idx];
            let period_ns = app.period.as_nanos();
            // The latency can never be below the best-case path delay nor
            // above the period (deadline), so the grid is clipped.
            let grid_start = self.min_base_delay(app_idx).as_nanos();
            let mut intervals: Vec<Lit> = Vec::new();
            let mut prev_limit_s = 0.0f64;
            for segment in app.stability.segments() {
                let seg_lo = (prev_limit_s * 1e9) as i64;
                let seg_hi = (segment.latency_limit * 1e9).round() as i64;
                prev_limit_s = segment.latency_limit;
                let lo = seg_lo.max(grid_start);
                let hi = seg_hi.min(period_ns);
                if lo > hi {
                    continue;
                }
                let beta_ns = (segment.beta * 1e9).round() as i64;
                let mut a = lo;
                while a <= hi {
                    let b = (a + step).min(hi);
                    // Jitter allowance when the latency lies in [a, b].
                    let allowance = ((beta_ns - b) as f64 / segment.alpha.max(1e-9)) as i64;
                    let upper = a.saturating_add(allowance.max(0));
                    if allowance >= 0 && upper >= a {
                        let g = self.model.new_bool().lit();
                        self.encode_stability_interval(
                            app_idx,
                            &current_msgs,
                            current,
                            &fixed_e2e,
                            g,
                            a,
                            b,
                            upper,
                        );
                        intervals.push(g);
                    }
                    if b >= hi {
                        break;
                    }
                    a = b;
                }
            }
            if intervals.is_empty() {
                // No latency interval can certify stability: the application
                // is infeasible under this mode.
                self.model.add_clause(Vec::<Lit>::new());
            } else {
                self.model.at_least_one(&intervals);
            }
        }
    }

    /// Encodes one latency sub-interval `[a, b]` with end-to-end upper bound
    /// `upper` for application `app_idx`, guarded by selector `g`.
    #[allow(clippy::too_many_arguments)]
    fn encode_stability_interval(
        &mut self,
        app_idx: usize,
        current_msgs: &[usize],
        current: &[MessageInstance],
        fixed_e2e: &[i64],
        g: Lit,
        a: i64,
        b: i64,
        upper: i64,
    ) {
        // Fixed messages: their end-to-end delays are constants.
        for &e2e in fixed_e2e {
            if e2e < a || e2e > upper {
                self.model.assert_lit(!g);
                return;
            }
        }
        let routes = self.candidates.for_app(app_idx);
        // Current messages: conditional bounds per candidate route.
        for &m in current_msgs {
            let release = current[m].release.as_nanos();
            for (r, route) in routes.iter().enumerate() {
                let sel = self.route_sel[m][r];
                let last = *route.links().last().expect("non-empty route");
                let last_ld = self.ld(app_idx, last).as_nanos();
                if route.links().len() == 1 {
                    // Constant end-to-end delay (direct link).
                    let e2e = last_ld;
                    if e2e < a || e2e > upper {
                        self.model.add_clause([!g, !sel]);
                    }
                    continue;
                }
                let t_last = self.link_vars[m][&last];
                // g and sel imply e2e >= a  <=>  t_last >= release + a - ld.
                let ge = self.model.ge_const(t_last, release + a - last_ld);
                self.model.add_clause([!g, !sel, ge]);
                // g and sel imply e2e <= upper.
                let le = self.model.le_const(t_last, release + upper - last_ld);
                self.model.add_clause([!g, !sel, le]);
            }
        }
        // At least one message attains an end-to-end delay of at most b
        // (so the latency really lies inside [a, b]).
        if fixed_e2e.iter().any(|&e| e <= b) {
            return;
        }
        let mut low_lits = vec![!g];
        for &m in current_msgs {
            let release = current[m].release.as_nanos();
            let low = self.model.new_bool().lit();
            for (r, route) in routes.iter().enumerate() {
                let sel = self.route_sel[m][r];
                let last = *route.links().last().expect("non-empty route");
                let last_ld = self.ld(app_idx, last).as_nanos();
                if route.links().len() == 1 {
                    if last_ld > b {
                        self.model.add_clause([!low, !sel]);
                    }
                    continue;
                }
                let t_last = self.link_vars[m][&last];
                let le = self.model.le_const(t_last, release + b - last_ld);
                self.model.add_clause([!low, !sel, le]);
            }
            low_lits.push(low);
        }
        self.model.add_clause(low_lits);
    }
}
