//! Contention-graph partitioning of applications.
//!
//! Two applications *contend* when their candidate routes can share a
//! directed link (the sensor's own access link is excluded: it belongs to
//! exactly one application). Contention is exactly the condition under which
//! two independently solved schedules can collide, so the partitioner groups
//! heavily contending applications together: intra-partition contention is
//! resolved by the partition's own solver, and only the (minimized)
//! cross-partition contention is left to the conflict-repair loop.
//!
//! The grouping is a deterministic greedy agglomeration — applications are
//! visited in decreasing order of total contention weight, and each joins the
//! open partition it shares the most links with (or opens a new one when it
//! contends with nothing placed so far). Determinism matters: the partition
//! plan is part of the reproducible solve, independent of thread count.
//!
//! The graph itself is built from a link → applications index: each
//! application counts, in one dense counter, the links it shares with every
//! later application listed on its own links. The cost is one counter step
//! per (link, pair of applications on it), with no pair set and no second
//! pass to intersect link sets.

use tsn_synthesis::{RouteCandidates, SynthesisProblem};

/// One application's contention neighbours: `(other_app, shared_links)`.
type Edges = Vec<(usize, u32)>;

/// A deterministic partition plan over the applications of a problem.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Application indices per partition; each group is sorted ascending and
    /// the groups are ordered by their smallest member.
    pub groups: Vec<Vec<usize>>,
    /// Number of edges in the contention graph.
    pub contention_edges: usize,
    /// Number of contention edges crossing partition boundaries — the edges
    /// the conflict-repair loop may have to fix.
    pub cut_edges: usize,
    /// Total shared-link weight of the crossing edges.
    pub cut_weight: u64,
}

impl PartitionPlan {
    /// The partition index of every application.
    pub fn partition_of(&self, app_count: usize) -> Vec<usize> {
        let mut of = vec![0usize; app_count];
        for (p, group) in self.groups.iter().enumerate() {
            for &app in group {
                of[app] = p;
            }
        }
        of
    }
}

/// The sorted switch-egress link set an application's candidate routes can
/// touch (the first hop — the sensor's private access link — is excluded).
fn link_set(candidates: &RouteCandidates, app: usize) -> Vec<u32> {
    let mut links: Vec<u32> = candidates
        .for_app(app)
        .iter()
        .flat_map(|r| r.links().iter().skip(1))
        .map(|l| l.index() as u32)
        .collect();
    links.sort_unstable();
    links.dedup();
    links
}

/// Builds the contention graph: for every application, its weighted
/// neighbour list, ascending by neighbour.
fn contention_graph(candidates: &RouteCandidates, app_count: usize) -> Vec<Edges> {
    let sets: Vec<Vec<u32>> = (0..app_count).map(|a| link_set(candidates, a)).collect();
    let link_count = sets
        .iter()
        .filter_map(|set| set.last())
        .max()
        .map_or(0, |&l| l as usize + 1);
    // Each list is ascending: applications are pushed in index order.
    let mut apps_of_link: Vec<Vec<usize>> = vec![Vec::new(); link_count];
    for (app, set) in sets.iter().enumerate() {
        for &l in set {
            apps_of_link[l as usize].push(app);
        }
    }
    let mut edges: Vec<Edges> = vec![Vec::new(); app_count];
    let mut shared = vec![0u32; app_count];
    let mut later: Vec<usize> = Vec::new();
    for (a, set) in sets.iter().enumerate() {
        for &l in set {
            let apps = &apps_of_link[l as usize];
            for &b in &apps[apps.partition_point(|&b| b <= a)..] {
                if shared[b] == 0 {
                    later.push(b);
                }
                shared[b] += 1;
            }
        }
        // Earlier neighbours were appended to `edges[a]` in ascending order
        // while they were counted; the later ones follow, also ascending.
        later.sort_unstable();
        for &b in &later {
            let w = std::mem::take(&mut shared[b]);
            edges[a].push((b, w));
            edges[b].push((a, w));
        }
        later.clear();
    }
    edges
}

/// Plans partitions of at most `target_apps` applications each, grouping
/// applications by contention.
pub fn plan_partitions(
    problem: &SynthesisProblem,
    candidates: &RouteCandidates,
    target_apps: usize,
) -> PartitionPlan {
    let n = problem.applications().len();
    let target = target_apps.max(1);
    let max_groups = n.div_ceil(target);
    let edges = contention_graph(candidates, n);
    let contention_edges = edges.iter().map(Vec::len).sum::<usize>() / 2;

    // Visit heavy apps first so the partitions crystallize around the
    // congestion hot spots.
    let mut order: Vec<usize> = (0..n).collect();
    let total_weight: Vec<u64> = edges
        .iter()
        .map(|e| e.iter().map(|&(_, w)| w as u64).sum())
        .collect();
    order.sort_by_key(|&a| (std::cmp::Reverse(total_weight[a]), a));

    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: Vec<Option<usize>> = vec![None; n];
    for &app in &order {
        // Affinity of this app to every open, non-full group.
        let mut affinity: Vec<u64> = vec![0; groups.len()];
        for &(other, w) in &edges[app] {
            if let Some(g) = group_of[other] {
                if groups[g].len() < target {
                    affinity[g] += w as u64;
                }
            }
        }
        let best = (0..groups.len())
            .filter(|&g| groups[g].len() < target && affinity[g] > 0)
            .max_by_key(|&g| (affinity[g], std::cmp::Reverse(g)));
        let g = match best {
            Some(g) => g,
            None if groups.len() < max_groups => {
                groups.push(Vec::new());
                groups.len() - 1
            }
            None => {
                // Every group is full or unrelated: join the emptiest one
                // that still has room (there is always room: the target
                // bound is only saturated when max_groups * target >= n).
                (0..groups.len())
                    .filter(|&g| groups[g].len() < target)
                    .min_by_key(|&g| (groups[g].len(), g))
                    .expect("max_groups * target >= app count")
            }
        };
        groups[g].push(app);
        group_of[app] = Some(g);
    }

    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort_by_key(|g| g[0]);
    let mut plan = PartitionPlan {
        groups,
        contention_edges,
        cut_edges: 0,
        cut_weight: 0,
    };
    let of = plan.partition_of(n);
    for (a, adj) in edges.iter().enumerate() {
        for &(b, w) in adj {
            if a < b && of[a] != of[b] {
                plan.cut_edges += 1;
                plan.cut_weight += w as u64;
            }
        }
    }
    plan
}

/// The contention graph as it was built before it counted: every pair
/// collected once per shared link, then intersected again. The reference
/// the tests hold [`contention_graph`] to.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeSet, HashMap};

    use super::{link_set, Edges};
    use tsn_synthesis::RouteCandidates;

    /// The number of common elements of two sorted, deduplicated slices.
    fn intersection_size(a: &[u32], b: &[u32]) -> u32 {
        let (mut i, mut j, mut n) = (0usize, 0usize, 0u32);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    pub(super) fn contention_graph(candidates: &RouteCandidates, app_count: usize) -> Vec<Edges> {
        let sets: Vec<Vec<u32>> = (0..app_count).map(|a| link_set(candidates, a)).collect();
        let mut apps_of_link: HashMap<u32, Vec<usize>> = HashMap::new();
        for (app, set) in sets.iter().enumerate() {
            for &l in set {
                apps_of_link.entry(l).or_default().push(app);
            }
        }
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        for apps in apps_of_link.values() {
            for (i, &a) in apps.iter().enumerate() {
                for &b in &apps[i + 1..] {
                    pairs.insert((a.min(b), a.max(b)));
                }
            }
        }
        let mut edges: Vec<Edges> = vec![Vec::new(); app_count];
        for (a, b) in pairs {
            let w = intersection_size(&sets[a], &sets[b]);
            edges[a].push((b, w));
            edges[b].push((a, w));
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsn_control::PiecewiseLinearBound;
    use tsn_net::{builders, LinkSpec, Time};
    use tsn_synthesis::RouteStrategy;
    use tsn_workload::{large_scale_problem, LargeScaleScenario, LargeTopology};

    fn problem(apps: usize) -> SynthesisProblem {
        let net = builders::automotive_backbone(apps, apps, LinkSpec::fast_ethernet());
        let mut p = SynthesisProblem::new(net.topology, Time::from_micros(5));
        for i in 0..apps {
            p.add_application(
                format!("a{i}"),
                net.sensors[i],
                net.controllers[i],
                Time::from_millis(20),
                1500,
                PiecewiseLinearBound::single_segment(1.5, 0.03),
            )
            .unwrap();
        }
        p
    }

    #[test]
    fn plan_covers_every_app_exactly_once() {
        let p = problem(7);
        let candidates = RouteCandidates::generate(&p, RouteStrategy::KShortest(3)).unwrap();
        let plan = plan_partitions(&p, &candidates, 3);
        assert!(
            plan.groups.len() >= 3,
            "7 apps at target 3 need >= 3 groups"
        );
        let mut all: Vec<usize> = plan.groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..7).collect::<Vec<_>>());
        for g in &plan.groups {
            assert!(g.len() <= 3);
            assert!(g.windows(2).all(|w| w[0] < w[1]), "groups stay sorted");
        }
        let of = plan.partition_of(7);
        assert_eq!(of.len(), 7);
    }

    #[test]
    fn plan_is_deterministic() {
        let p = problem(6);
        let candidates = RouteCandidates::generate(&p, RouteStrategy::KShortest(3)).unwrap();
        let a = plan_partitions(&p, &candidates, 2);
        let b = plan_partitions(&p, &candidates, 2);
        assert_eq!(a.groups, b.groups);
        assert_eq!(a.cut_edges, b.cut_edges);
        assert_eq!(a.cut_weight, b.cut_weight);
    }

    #[test]
    fn single_partition_when_target_covers_all() {
        let p = problem(4);
        let candidates = RouteCandidates::generate(&p, RouteStrategy::KShortest(2)).unwrap();
        let plan = plan_partitions(&p, &candidates, 16);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.cut_edges, 0);
        assert_eq!(plan.cut_weight, 0);
    }

    #[test]
    fn contention_graph_ignores_sensor_links() {
        // Two apps on one line fabric: they share every switch link but not
        // each other's sensor access links.
        let p = problem(2);
        let candidates = RouteCandidates::generate(&p, RouteStrategy::KShortest(1)).unwrap();
        let edges = contention_graph(&candidates, 2);
        for (app, adj) in edges.iter().enumerate() {
            let set = link_set(&candidates, app);
            for r in candidates.for_app(app) {
                let sensor_link = r.links()[0].index() as u32;
                assert!(!set.contains(&sensor_link));
            }
            for &(other, w) in adj {
                assert_ne!(other, app);
                assert!(w > 0);
            }
        }
    }

    fn assert_same_graph(problem: &SynthesisProblem, k: usize, what: &str) -> usize {
        let candidates = RouteCandidates::generate(problem, RouteStrategy::KShortest(k)).unwrap();
        let n = problem.applications().len();
        let edges = contention_graph(&candidates, n);
        assert_eq!(edges, reference::contention_graph(&candidates, n), "{what}");
        edges.iter().map(Vec::len).sum::<usize>() / 2
    }

    #[test]
    fn contention_graph_matches_the_reference_on_the_generated_fat_trees() {
        // The flagship's instance, one at four times its streams and the
        // SMT-only workload's, at the scale default of four routes.
        for streams in [500, 2000, 100] {
            let scenario = LargeScaleScenario {
                streams,
                seed: 1,
                ..LargeScaleScenario::default()
            };
            let p = large_scale_problem(&scenario).unwrap();
            let pairs = assert_same_graph(&p, 4, &format!("{streams} streams"));
            assert!(
                pairs > streams,
                "{streams} streams: only {pairs} contention edges"
            );
        }
    }

    #[test]
    fn contention_graph_matches_the_reference_on_seeded_random_problems() {
        let mut pairs = 0;
        for seed in 0..200u64 {
            let scenario = LargeScaleScenario {
                topology: LargeTopology::ALL[seed as usize % 3],
                switches: 8 + (seed as usize * 7) % 33,
                streams: 2 + (seed as usize * 13) % 59,
                seed,
                fast_stream_percent: 12,
            };
            let p = large_scale_problem(&scenario).unwrap();
            pairs += assert_same_graph(&p, 1 + seed as usize % 4, &format!("{scenario:?}"));
        }
        assert!(pairs > 10_000, "only {pairs} contention edges compared");
    }
}
