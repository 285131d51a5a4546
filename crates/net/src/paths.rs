//! Path enumeration: shortest paths, Yen's K-shortest paths and bounded
//! enumeration of all simple paths.
//!
//! These algorithms feed the route-candidate generation of the synthesizer:
//! the paper's *route subset* heuristic (Section V-C1) keeps only the first
//! `K` shortest routes of each control application, while the basic solution
//! considers all simple routes.

use std::collections::{BTreeSet, VecDeque};

use crate::{NetError, NodeId, Route, Topology};

impl Topology {
    /// Returns `true` if `node` may appear as an *intermediate* hop of a
    /// route, i.e. it is a switch. End stations only ever appear as route
    /// endpoints.
    fn is_forwarding_node(&self, node: NodeId) -> bool {
        self.node(node).kind().is_switch()
    }

    fn check_route_endpoints(&self, source: NodeId, destination: NodeId) -> Result<(), NetError> {
        if source.index() >= self.node_count() {
            return Err(NetError::UnknownNode(source));
        }
        if destination.index() >= self.node_count() {
            return Err(NetError::UnknownNode(destination));
        }
        if source == destination {
            return Err(NetError::InvalidEndpoints {
                source,
                destination,
            });
        }
        Ok(())
    }

    /// The shortest route (minimum hop count) from `source` to `destination`
    /// that only traverses switches in between.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] if the destination is unreachable and
    /// [`NetError::UnknownNode`] / [`NetError::InvalidEndpoints`] for invalid
    /// arguments.
    pub fn shortest_route(&self, source: NodeId, destination: NodeId) -> Result<Route, NetError> {
        self.check_route_endpoints(source, destination)?;
        let nodes = self
            .constrained_shortest(source, destination, &[], &[])
            .ok_or(NetError::NoRoute {
                source,
                destination,
            })?;
        self.route_from_nodes(&nodes)
    }

    /// The `k` shortest loop-free routes from `source` to `destination`
    /// (Yen's algorithm over hop count), ordered by increasing length.
    ///
    /// Fewer than `k` routes are returned when the topology does not contain
    /// that many simple paths. This implements the paper's *route subset*
    /// heuristic input.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] if no route exists at all, and the usual
    /// argument errors.
    pub fn k_shortest_routes(
        &self,
        source: NodeId,
        destination: NodeId,
        k: usize,
    ) -> Result<Vec<Route>, NetError> {
        self.check_route_endpoints(source, destination)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let first = self.shortest_route(source, destination)?;
        let mut result: Vec<Route> = vec![first];
        // Candidate set ordered by (hop count, node sequence) for determinism.
        let mut candidates: BTreeSet<(usize, Vec<NodeId>)> = BTreeSet::new();

        while result.len() < k {
            let last = result.last().expect("result never empty").clone();
            // For each node of the previous shortest path except the last,
            // compute a spur path that deviates at that node.
            for i in 0..last.nodes().len() - 1 {
                let spur_node = last.nodes()[i];
                let root: Vec<NodeId> = last.nodes()[..=i].to_vec();

                // Links removed: for every already accepted route sharing the
                // same root, forbid its next hop out of the spur node.
                let mut banned_next: Vec<NodeId> = Vec::new();
                for r in &result {
                    if r.nodes().len() > i && r.nodes()[..=i] == root[..] {
                        banned_next.push(r.nodes()[i + 1]);
                    }
                }
                // Nodes of the root (except the spur node) must not reappear.
                let banned_nodes: Vec<NodeId> = root[..i].to_vec();

                if let Some(spur) =
                    self.constrained_shortest(spur_node, destination, &banned_nodes, &banned_next)
                {
                    let mut total = root.clone();
                    total.extend_from_slice(&spur[1..]);
                    // The concatenation might still repeat a node if the spur
                    // re-enters the root; skip those.
                    let mut unique = BTreeSet::new();
                    if total.iter().all(|n| unique.insert(*n)) {
                        candidates.insert((total.len(), total));
                    }
                }
            }
            let Some((_, nodes)) = candidates.iter().next().cloned() else {
                break;
            };
            candidates.remove(&(nodes.len(), nodes.clone()));
            if result.iter().any(|r| r.nodes() == nodes.as_slice()) {
                continue;
            }
            result.push(self.route_from_nodes(&nodes)?);
        }
        Ok(result)
    }

    /// BFS shortest path avoiding `banned_nodes` entirely and avoiding the
    /// given first hops out of `source`.
    ///
    /// Only switches are ever enqueued: an end station cannot forward, so
    /// expanding it could never reach anything, and on a fabric with a dozen
    /// end stations per switch they are most of the graph. The search stops
    /// the moment the destination is discovered — its predecessor chain is
    /// fixed by then — and switches are still visited in egress-port order,
    /// so the path is the one a plain BFS over every node returns.
    fn constrained_shortest(
        &self,
        source: NodeId,
        destination: NodeId,
        banned_nodes: &[NodeId],
        banned_first_hops: &[NodeId],
    ) -> Option<Vec<NodeId>> {
        let mut prev: Vec<Option<NodeId>> = vec![None; self.node_count()];
        let mut seen = vec![false; self.node_count()];
        for &b in banned_nodes {
            seen[b.index()] = true;
        }
        let mut queue = VecDeque::new();
        seen[source.index()] = true;
        queue.push_back(source);
        'search: while let Some(n) = queue.pop_front() {
            for &link in self.out_links(n) {
                let next = self.link(link).target();
                if seen[next.index()] || (n == source && banned_first_hops.contains(&next)) {
                    continue;
                }
                seen[next.index()] = true;
                prev[next.index()] = Some(n);
                if next == destination {
                    break 'search;
                }
                if self.is_forwarding_node(next) {
                    queue.push_back(next);
                }
            }
        }
        // Every discovered node has a predecessor, so the chain from a
        // discovered destination ends at the source.
        prev[destination.index()]?;
        let mut nodes = vec![destination];
        let mut cur = destination;
        while let Some(p) = prev[cur.index()] {
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        Some(nodes)
    }

    /// Enumerates all simple routes from `source` to `destination` whose hop
    /// count does not exceed `max_hops`, stopping after `max_routes` routes.
    ///
    /// This corresponds to the paper's *basic* formulation in which all
    /// possible routes of a message are considered; the bounds exist only to
    /// keep enumeration finite on dense topologies.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NoRoute`] if no route exists within the bounds.
    pub fn all_simple_routes(
        &self,
        source: NodeId,
        destination: NodeId,
        max_hops: usize,
        max_routes: usize,
    ) -> Result<Vec<Route>, NetError> {
        self.check_route_endpoints(source, destination)?;
        let mut routes = Vec::new();
        let mut stack: Vec<NodeId> = vec![source];
        let mut on_path = vec![false; self.node_count()];
        on_path[source.index()] = true;
        self.dfs_simple(
            source,
            destination,
            max_hops,
            max_routes,
            &mut stack,
            &mut on_path,
            &mut routes,
        );
        if routes.is_empty() {
            return Err(NetError::NoRoute {
                source,
                destination,
            });
        }
        // Order by hop count, then lexicographically, for determinism.
        routes.sort_by(|a: &Route, b: &Route| {
            a.hop_count()
                .cmp(&b.hop_count())
                .then_with(|| a.nodes().cmp(b.nodes()))
        });
        Ok(routes)
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_simple(
        &self,
        current: NodeId,
        destination: NodeId,
        max_hops: usize,
        max_routes: usize,
        stack: &mut Vec<NodeId>,
        on_path: &mut [bool],
        routes: &mut Vec<Route>,
    ) {
        if routes.len() >= max_routes {
            return;
        }
        if current == destination {
            if let Ok(route) = self.route_from_nodes(stack) {
                routes.push(route);
            }
            return;
        }
        if stack.len() > max_hops {
            return;
        }
        if current != stack[0] && !self.is_forwarding_node(current) {
            return;
        }
        for next in self.neighbors(current) {
            if on_path[next.index()] {
                continue;
            }
            stack.push(next);
            on_path[next.index()] = true;
            self.dfs_simple(
                next,
                destination,
                max_hops,
                max_routes,
                stack,
                on_path,
                routes,
            );
            on_path[next.index()] = false;
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkSpec, NodeKind};

    /// A diamond with a long detour:
    ///
    /// ```text
    ///      s - a - b - c  (c = controller)
    ///          |   |
    ///          d - e
    ///          |
    ///          f (extra switch, dead end)
    /// ```
    fn diamond() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let s = t.add_node("s", NodeKind::Sensor);
        let a = t.add_node("a", NodeKind::Switch);
        let b = t.add_node("b", NodeKind::Switch);
        let c = t.add_node("c", NodeKind::Controller);
        let d = t.add_node("d", NodeKind::Switch);
        let e = t.add_node("e", NodeKind::Switch);
        let f = t.add_node("f", NodeKind::Switch);
        let spec = LinkSpec::fast_ethernet();
        t.connect(s, a, spec).unwrap();
        t.connect(a, b, spec).unwrap();
        t.connect(b, c, spec).unwrap();
        t.connect(a, d, spec).unwrap();
        t.connect(d, e, spec).unwrap();
        t.connect(e, b, spec).unwrap();
        t.connect(d, f, spec).unwrap();
        (t, s, c)
    }

    #[test]
    fn shortest_route_minimizes_hops() {
        let (t, s, c) = diamond();
        let r = t.shortest_route(s, c).unwrap();
        assert_eq!(r.hop_count(), 3);
        assert_eq!(r.source(), s);
        assert_eq!(r.destination(), c);
    }

    #[test]
    fn k_shortest_returns_increasing_lengths_without_duplicates() {
        let (t, s, c) = diamond();
        let routes = t.k_shortest_routes(s, c, 4).unwrap();
        assert_eq!(routes.len(), 2, "diamond has exactly two simple routes");
        assert_eq!(routes[0].hop_count(), 3);
        assert_eq!(routes[1].hop_count(), 5);
        assert_ne!(routes[0], routes[1]);
    }

    #[test]
    fn k_shortest_respects_k() {
        let (t, s, c) = diamond();
        let routes = t.k_shortest_routes(s, c, 1).unwrap();
        assert_eq!(routes.len(), 1);
        assert!(t.k_shortest_routes(s, c, 0).unwrap().is_empty());
    }

    #[test]
    fn all_simple_routes_enumerates_everything() {
        let (t, s, c) = diamond();
        let routes = t.all_simple_routes(s, c, 16, 1000).unwrap();
        assert_eq!(routes.len(), 2);
        // Sorted by hop count.
        assert!(routes[0].hop_count() <= routes[1].hop_count());
    }

    #[test]
    fn all_simple_routes_honours_bounds() {
        let (t, s, c) = diamond();
        let routes = t.all_simple_routes(s, c, 3, 1000).unwrap();
        assert_eq!(routes.len(), 1, "only the short route fits in 3 hops");
        let routes = t.all_simple_routes(s, c, 16, 1).unwrap();
        assert_eq!(routes.len(), 1);
    }

    #[test]
    fn routes_never_traverse_end_stations() {
        // s - a - c1, and c2 - a: route s->c2 must not pass through c1.
        let mut t = Topology::new();
        let s = t.add_node("s", NodeKind::Sensor);
        let a = t.add_node("a", NodeKind::Switch);
        let c1 = t.add_node("c1", NodeKind::Controller);
        let c2 = t.add_node("c2", NodeKind::Controller);
        let spec = LinkSpec::fast_ethernet();
        t.connect(s, a, spec).unwrap();
        t.connect(a, c1, spec).unwrap();
        t.connect(a, c2, spec).unwrap();
        let r = t.shortest_route(s, c2).unwrap();
        assert!(!r.contains_node(c1));
        let all = t.all_simple_routes(s, c2, 10, 100).unwrap();
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn unreachable_destination_is_an_error() {
        let mut t = Topology::new();
        let s = t.add_node("s", NodeKind::Sensor);
        let a = t.add_node("a", NodeKind::Switch);
        let c = t.add_node("c", NodeKind::Controller);
        t.connect(s, a, LinkSpec::fast_ethernet()).unwrap();
        assert_eq!(
            t.shortest_route(s, c),
            Err(NetError::NoRoute {
                source: s,
                destination: c
            })
        );
        assert!(t.k_shortest_routes(s, c, 3).is_err());
        assert!(t.all_simple_routes(s, c, 10, 10).is_err());
    }

    #[test]
    fn same_endpoints_rejected() {
        let (t, s, _) = diamond();
        assert!(matches!(
            t.shortest_route(s, s),
            Err(NetError::InvalidEndpoints { .. })
        ));
    }

    #[test]
    fn k_shortest_on_larger_mesh_is_deterministic() {
        // 3x3 switch grid with a sensor on one corner and controller on the
        // opposite corner: many equal-length routes, results must be stable.
        let mut t = Topology::new();
        let spec = LinkSpec::fast_ethernet();
        let mut grid = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                grid.push(t.add_node(format!("sw{r}{c}"), NodeKind::Switch));
            }
        }
        for r in 0..3 {
            for c in 0..3 {
                if c + 1 < 3 {
                    t.connect(grid[r * 3 + c], grid[r * 3 + c + 1], spec)
                        .unwrap();
                }
                if r + 1 < 3 {
                    t.connect(grid[r * 3 + c], grid[(r + 1) * 3 + c], spec)
                        .unwrap();
                }
            }
        }
        let s = t.add_node("s", NodeKind::Sensor);
        let c = t.add_node("c", NodeKind::Controller);
        t.connect(s, grid[0], spec).unwrap();
        t.connect(c, grid[8], spec).unwrap();

        let a = t.k_shortest_routes(s, c, 8).unwrap();
        let b = t.k_shortest_routes(s, c, 8).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        // Hop counts must be non-decreasing.
        for w in a.windows(2) {
            assert!(w[0].hop_count() <= w[1].hop_count());
        }
        // All returned routes are distinct.
        for i in 0..a.len() {
            for j in i + 1..a.len() {
                assert_ne!(a[i], a[j]);
            }
        }
    }
}
