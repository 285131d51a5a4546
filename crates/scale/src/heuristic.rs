//! Greedy first-fit route + offset placement: the fast path of
//! [`SynthesisStrategy::HeuristicFirst`](crate::SynthesisStrategy).
//!
//! Following *"Just a Second"* (arXiv:2306.07710), which schedules thousands
//! of streams per second by greedy placement against one global conflict
//! structure, every application of the problem is placed against **one**
//! [`OccupancyTable`]: the single source of truth for which link is busy
//! when. An application is placed only where the table is free, so two
//! placed applications never collide and nothing has to be repaired after
//! the fact; the SMT solver sees only the applications first-fit cannot
//! place at all. A table per partition would place as fast and then pay
//! seconds of SMT conflict repair at the merge for collisions a shared
//! table never creates.
//!
//! The placer assigns every application one candidate route and one
//! *per-hop offset vector* applied identically to all of its instances:
//!
//! * the first hop is pinned at the release time (the verifier's Eq. 6
//!   contract), so the offset of hop 0 is always zero;
//! * every later hop starts at the transposition minimum
//!   `prev + ld + sd` and is pushed later, first-fit, past any occupied
//!   interval of its link;
//! * because the offsets are shared by all instances, every instance of an
//!   application has the same end-to-end delay — zero jitter by
//!   construction, which makes the stability check (Eq. 10) a single margin
//!   evaluation at the final delay.
//!
//! The placer is purely additive: offsets only grow, so the search
//! terminates as soon as the implied end-to-end delay exceeds the period
//! deadline, and the whole procedure is deterministic (route order, then
//! hop order, then instance order).

use std::collections::HashMap;

use tsn_net::{LinkId, Time};
use tsn_synthesis::{
    ConstraintMode, MessageInstance, MessageSchedule, RouteCandidates, SynthesisProblem,
};

/// Per-link sorted, pairwise-disjoint occupancy intervals `[start, end)`
/// accumulated by the greedy placer: one table for the whole problem.
#[derive(Debug, Default)]
pub struct OccupancyTable {
    per_link: HashMap<LinkId, Vec<(Time, Time)>>,
}

impl OccupancyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        OccupancyTable::default()
    }

    /// Returns `None` when `[start, end)` is free on `link`, otherwise the
    /// end of the blocking interval (the earliest start that could clear it).
    pub fn blocked_until(&self, link: LinkId, start: Time, end: Time) -> Option<Time> {
        let intervals = self.per_link.get(&link)?;
        // Intervals are sorted by start and pairwise disjoint, so the only
        // candidate overlapping `[start, end)` is the last one starting
        // before `end`.
        let idx = intervals.partition_point(|&(s, _)| s < end);
        match idx.checked_sub(1).map(|i| intervals[i]) {
            Some((_, e)) if e > start => Some(e),
            _ => None,
        }
    }

    /// Reserves `[start, end)` on `link`. The caller must have checked the
    /// interval is free.
    ///
    /// # Panics
    ///
    /// Panics if it is not: [`blocked_until`](Self::blocked_until) is only
    /// right while the intervals of a link stay pairwise disjoint.
    pub fn reserve(&mut self, link: LinkId, start: Time, end: Time) {
        let intervals = self.per_link.entry(link).or_default();
        let idx = intervals.partition_point(|&(s, _)| s < start);
        assert!(
            intervals.get(idx).is_none_or(|&(next, _)| next >= end)
                && (idx == 0 || intervals[idx - 1].1 <= start),
            "reserving an occupied interval"
        );
        intervals.insert(idx, (start, end));
    }

    /// Reserves every link transmission of a finished schedule, so repaired
    /// or externally produced schedules participate in later placements.
    pub fn reserve_schedule(&mut self, problem: &SynthesisProblem, schedule: &MessageSchedule) {
        let frame = problem.applications()[schedule.message.app].frame_bytes;
        for &(link, time) in &schedule.link_release {
            let ld = problem.topology().link(link).transmission_delay(frame);
            self.reserve(link, time, time + ld);
        }
    }
}

/// Tries to place every instance of application `app` with one route and one
/// shared per-hop offset vector, first-fit against `occupancy`. On success
/// the chosen intervals are reserved and the message schedules returned (in
/// the order of `instances`); `None` leaves the table untouched.
pub fn place_app(
    problem: &SynthesisProblem,
    candidates: &RouteCandidates,
    app: usize,
    instances: &[MessageInstance],
    occupancy: &mut OccupancyTable,
    mode: ConstraintMode,
) -> Option<Vec<MessageSchedule>> {
    if instances.is_empty() {
        return Some(Vec::new());
    }
    let application = &problem.applications()[app];
    let sd = problem.forwarding_delay();
    let topology = problem.topology();
    'routes: for route in candidates.for_app(app) {
        let links = route.links();
        let lds: Vec<Time> = links
            .iter()
            .map(|&l| topology.link(l).transmission_delay(application.frame_bytes))
            .collect();
        // Shared offsets relative to each instance's release; hop 0 is
        // pinned at the release itself.
        let mut off: Vec<Time> = vec![Time::ZERO; links.len()];
        for h in 1..off.len() {
            off[h] = off[h - 1] + lds[h - 1] + sd;
        }
        // First-fit: push each hop past occupied intervals until every
        // instance fits. Offsets only grow, so the deadline bounds the
        // search; the bump cap guards against pathological fragmentation.
        let mut bumps = 0usize;
        let max_bumps = 64 + 16 * links.len() * instances.len();
        let mut hop = 0usize;
        while hop < links.len() {
            let mut bumped = false;
            for m in instances {
                let start = m.release + off[hop];
                if let Some(until) = occupancy.blocked_until(links[hop], start, start + lds[hop]) {
                    if hop == 0 {
                        // The sensor transmission cannot move.
                        continue 'routes;
                    }
                    off[hop] = until - m.release;
                    for h in (hop + 1)..links.len() {
                        off[h] = off[h].max(off[h - 1] + lds[h - 1] + sd);
                    }
                    bumps += 1;
                    if bumps > max_bumps
                        || off[hop] + lds[hop] + sd * (links.len() - 1 - hop) as i64
                            > application.period
                    {
                        continue 'routes;
                    }
                    bumped = true;
                    break;
                }
            }
            if !bumped {
                hop += 1;
            }
        }
        let end_to_end = off[links.len() - 1] + lds[links.len() - 1];
        if end_to_end > application.period {
            continue;
        }
        // Shared offsets give every instance the same end-to-end delay:
        // zero jitter, so stability reduces to one margin evaluation.
        if matches!(mode, ConstraintMode::StabilityAware { .. })
            && !application.is_stable(end_to_end, Time::ZERO)
        {
            continue;
        }
        let mut schedules = Vec::with_capacity(instances.len());
        for m in instances {
            let link_release: Vec<(LinkId, Time)> = links
                .iter()
                .zip(off.iter())
                .map(|(&l, &o)| (l, m.release + o))
                .collect();
            for (&(link, time), &ld) in link_release.iter().zip(lds.iter()) {
                occupancy.reserve(link, time, time + ld);
            }
            schedules.push(MessageSchedule {
                message: *m,
                route: route.clone(),
                link_release,
                end_to_end,
            });
        }
        return Some(schedules);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec};
    use tsn_synthesis::{expand_messages, verify_schedule, RouteStrategy, Schedule};

    #[test]
    fn occupancy_table_finds_blockers_and_gaps() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let route = net
            .topology
            .shortest_route(net.sensors[0], net.controllers[0])
            .unwrap();
        let link = route.links()[0];
        let mut occ = OccupancyTable::new();
        let us = Time::from_micros;
        occ.reserve(link, us(100), us(200));
        occ.reserve(link, us(300), us(400));
        assert_eq!(occ.blocked_until(link, us(0), us(100)), None);
        assert_eq!(occ.blocked_until(link, us(150), us(160)), Some(us(200)));
        assert_eq!(occ.blocked_until(link, us(90), us(110)), Some(us(200)));
        assert_eq!(occ.blocked_until(link, us(200), us(300)), None);
        assert_eq!(occ.blocked_until(link, us(390), us(450)), Some(us(400)));
        assert_eq!(occ.blocked_until(link, us(400), us(500)), None);
    }

    #[test]
    #[should_panic(expected = "reserving an occupied interval")]
    fn reserving_into_the_tail_of_the_previous_interval_panics() {
        // [150, 250) ends before [300, 400) but starts inside [100, 200):
        // only the check against the previous interval catches it.
        let (us, link) = (Time::from_micros, LinkId::new(0));
        let mut occ = OccupancyTable::new();
        occ.reserve(link, us(100), us(200));
        occ.reserve(link, us(300), us(400));
        occ.reserve(link, us(150), us(250));
    }

    #[test]
    fn greedy_placement_passes_the_verifier() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let mut problem = tsn_synthesis::SynthesisProblem::new(net.topology, Time::from_micros(5));
        for i in 0..3 {
            problem
                .add_application(
                    format!("loop-{i}"),
                    net.sensors[i],
                    net.controllers[i],
                    Time::from_millis(10 * (1 + i as i64 % 2)),
                    1500,
                    PiecewiseLinearBound::single_segment(2.0, 0.012),
                )
                .unwrap();
        }
        let candidates = RouteCandidates::generate(&problem, RouteStrategy::KShortest(3)).unwrap();
        let messages = expand_messages(&problem);
        let mode = ConstraintMode::StabilityAware {
            granularity: Time::from_millis(1),
        };
        let mut occ = OccupancyTable::new();
        let mut placed = Vec::new();
        for app in 0..problem.applications().len() {
            let instances: Vec<MessageInstance> =
                messages.iter().filter(|m| m.app == app).copied().collect();
            let schedules = place_app(&problem, &candidates, app, &instances, &mut occ, mode)
                .expect("the Figure-1 example is easy to place");
            // All instances of one app share an end-to-end delay.
            assert!(schedules
                .windows(2)
                .all(|w| w[0].end_to_end == w[1].end_to_end));
            placed.extend(schedules);
        }
        placed.sort_by_key(|m| (m.message.release, m.message.app, m.message.instance));
        let schedule = Schedule {
            hyperperiod: problem.hyperperiod(),
            messages: placed,
        };
        verify_schedule(&problem, &schedule, mode).unwrap();
    }
}
