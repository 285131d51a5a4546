//! Path enumeration: shortest paths, Yen's K-shortest paths and bounded
//! enumeration of all simple paths.
//!
//! These algorithms feed the route-candidate generation of the synthesizer:
//! the paper's *route subset* heuristic (Section V-C1) keeps only the first
//! `K` shortest routes of each control application, while the basic solution
//! considers all simple routes.
//!
//! At scale the route subset is most of the work in front of the solver:
//! Yen's algorithm runs one breadth-first search per spur node, about 21
//! per application at `K` = 4. Each search is therefore proportional to the
//! switch fabric, not to the whole graph: switches are expanded over a
//! switch-only adjacency that the topology builds on the first search, an
//! end-station destination is reached through its one attachment switch,
//! and the searches of one call share their marks, predecessors and queue.
//! The routes are those of a plain BFS over every node; the unit tests hold
//! them to the previous search on the generated fat-tree instances.

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
        let mut search = Search::new(self.node_count());
        let nodes = self
            .constrained_shortest(&mut search, source, destination, &[], &[])
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
        // One search state serves every spur search of this call.
        let mut search = Search::new(self.node_count());
        let first = self
            .constrained_shortest(&mut search, source, destination, &[], &[])
            .ok_or(NetError::NoRoute {
                source,
                destination,
            })?;
        let mut result: Vec<Route> = vec![self.route_from_nodes(&first)?];
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

                if let Some(spur) = self.constrained_shortest(
                    &mut search,
                    spur_node,
                    destination,
                    &banned_nodes,
                    &banned_next,
                ) {
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
    /// The source's whole port list is scanned: it may be an end station,
    /// and the banned first hops are its ports. Every other node expanded is
    /// a switch, and it is expanded over the topology's switch adjacency
    /// (`Fabric`: its switch neighbours in egress-port order), so the
    /// dozens of end-station ports of an edge switch are never looked at.
    /// An end-station destination hangs off exactly one switch
    /// ([`NetError::EndStationDegree`]), the only node that can discover it,
    /// so the search stops when that switch is discovered: its predecessor
    /// chain is fixed by then. A switch destination stops the search when it
    /// is discovered itself. Switches are visited in the same order as a
    /// plain BFS over every node, so the path is the one that BFS returns.
    fn constrained_shortest(
        &self,
        search: &mut Search,
        source: NodeId,
        destination: NodeId,
        banned_nodes: &[NodeId],
        banned_first_hops: &[NodeId],
    ) -> Option<Vec<NodeId>> {
        search.start();
        for &b in banned_nodes {
            search.discover(b, b);
        }
        search.discover(source, source);
        if search.is_seen(destination) {
            return None;
        }
        // The switch whose discovery ends the search.
        let goal = if self.is_forwarding_node(destination) {
            destination
        } else {
            match self.out_links(destination) {
                [port] => self.link(*port).target(),
                _ => return None,
            }
        };
        for &link in self.out_links(source) {
            let next = self.link(link).target();
            if banned_first_hops.contains(&next) || !search.discover(next, source) {
                continue;
            }
            if next == destination || next == goal {
                return Some(search.path(source, next, destination));
            }
            if self.is_forwarding_node(next) {
                search.queue.push_back(next);
            }
        }
        // The goal is the source or banned: nothing else can discover it.
        if search.is_seen(goal) {
            return None;
        }
        let fabric = self.fabric();
        while let Some(n) = search.queue.pop_front() {
            for &next in fabric.switches_after(n) {
                if !search.discover(next, n) {
                    continue;
                }
                if next == goal {
                    return Some(search.path(source, goal, destination));
                }
                search.queue.push_back(next);
            }
        }
        None
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

/// The state of one breadth-first search, kept across the searches of one
/// [`Topology::k_shortest_routes`] call instead of allocated per search.
struct Search {
    /// `stamp[n] == epoch` marks node `n` seen by the current search, so a
    /// new search clears every mark by bumping `epoch`.
    stamp: Vec<u32>,
    epoch: u32,
    /// The predecessor of every node the current search discovered; stale
    /// entries of earlier searches are never read.
    prev: Vec<NodeId>,
    queue: VecDeque<NodeId>,
}

impl Search {
    fn new(node_count: usize) -> Self {
        Search {
            stamp: vec![0; node_count],
            epoch: 0,
            prev: vec![NodeId::default(); node_count],
            queue: VecDeque::new(),
        }
    }

    fn start(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
    }

    fn is_seen(&self, node: NodeId) -> bool {
        self.stamp[node.index()] == self.epoch
    }

    /// Marks `node` seen with predecessor `from`; `false` if it already was.
    fn discover(&mut self, node: NodeId, from: NodeId) -> bool {
        if self.is_seen(node) {
            return false;
        }
        self.stamp[node.index()] = self.epoch;
        self.prev[node.index()] = from;
        true
    }

    /// The discovered path from `source` to `reached`, extended by
    /// `destination` when that is another node (the end station behind
    /// `reached`).
    fn path(&self, source: NodeId, reached: NodeId, destination: NodeId) -> Vec<NodeId> {
        let mut nodes = vec![destination];
        if reached != destination {
            nodes.push(reached);
        }
        let mut cur = reached;
        while cur != source {
            cur = self.prev[cur.index()];
            nodes.push(cur);
        }
        nodes.reverse();
        nodes
    }
}

/// The route search as it was before the switch adjacency and the shared
/// search state: the references the tests hold the search above to.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeSet, VecDeque};

    use crate::{NetError, NodeId, Route, Topology};

    /// BFS over every out-link of every expanded node, two fresh vectors
    /// per call.
    pub(super) fn constrained_shortest(
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
        banned_nodes: &[NodeId],
        banned_first_hops: &[NodeId],
    ) -> Option<Vec<NodeId>> {
        let mut prev: Vec<Option<NodeId>> = vec![None; topology.node_count()];
        let mut seen = vec![false; topology.node_count()];
        for &b in banned_nodes {
            seen[b.index()] = true;
        }
        let mut queue = VecDeque::new();
        seen[source.index()] = true;
        queue.push_back(source);
        'search: while let Some(n) = queue.pop_front() {
            for &link in topology.out_links(n) {
                let next = topology.link(link).target();
                if seen[next.index()] || (n == source && banned_first_hops.contains(&next)) {
                    continue;
                }
                seen[next.index()] = true;
                prev[next.index()] = Some(n);
                if next == destination {
                    break 'search;
                }
                if topology.is_forwarding_node(next) {
                    queue.push_back(next);
                }
            }
        }
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

    /// Yen's algorithm over [`constrained_shortest`].
    pub(super) fn k_shortest_routes(
        topology: &Topology,
        source: NodeId,
        destination: NodeId,
        k: usize,
    ) -> Result<Vec<Route>, NetError> {
        topology.check_route_endpoints(source, destination)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        let first = constrained_shortest(topology, source, destination, &[], &[]).ok_or(
            NetError::NoRoute {
                source,
                destination,
            },
        )?;
        let mut result: Vec<Route> = vec![topology.route_from_nodes(&first)?];
        let mut candidates: BTreeSet<(usize, Vec<NodeId>)> = BTreeSet::new();

        while result.len() < k {
            let last = result.last().expect("result never empty").clone();
            for i in 0..last.nodes().len() - 1 {
                let spur_node = last.nodes()[i];
                let root: Vec<NodeId> = last.nodes()[..=i].to_vec();
                let mut banned_next: Vec<NodeId> = Vec::new();
                for r in &result {
                    if r.nodes().len() > i && r.nodes()[..=i] == root[..] {
                        banned_next.push(r.nodes()[i + 1]);
                    }
                }
                let banned_nodes: Vec<NodeId> = root[..i].to_vec();
                if let Some(spur) = constrained_shortest(
                    topology,
                    spur_node,
                    destination,
                    &banned_nodes,
                    &banned_next,
                ) {
                    let mut total = root.clone();
                    total.extend_from_slice(&spur[1..]);
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
            result.push(topology.route_from_nodes(&nodes)?);
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{builders, LinkSpec, NodeKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Small networks of every builder shape, with end stations attached.
    fn small_networks() -> Vec<Topology> {
        let fast = LinkSpec::fast_ethernet();
        let with_stations = |(topology, switches): (Topology, Vec<NodeId>), count, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            builders::attach_end_stations(topology, &switches, count, fast, &mut rng).topology
        };
        let (fat_tree, layers) = builders::fat_tree(4, fast);
        vec![
            builders::figure1_example(fast).topology,
            with_stations(builders::switch_ring(8, fast), 4, 8),
            with_stations(builders::switch_grid(3, 3, fast), 4, 33),
            with_stations((fat_tree, layers.edge), 12, 20),
        ]
    }

    #[test]
    fn constrained_shortest_matches_the_reference_under_random_bans() {
        // Every ordered pair of nodes, switches and end stations alike, with
        // no bans and with random banned nodes and first hops: the shapes
        // Yen's spur searches produce, and more.
        let mut rng = StdRng::seed_from_u64(42);
        let mut compared = 0usize;
        for t in small_networks() {
            let mut search = Search::new(t.node_count());
            let nodes: Vec<NodeId> = t.nodes().map(|n| n.id()).collect();
            for &source in &nodes {
                for &destination in &nodes {
                    if source == destination {
                        continue;
                    }
                    for round in 0..4 {
                        let mut pick = |count: usize| -> Vec<NodeId> {
                            (0..count)
                                .map(|_| nodes[rng.gen_range(0..nodes.len())])
                                .filter(|&n| n != source && n != destination)
                                .collect()
                        };
                        let (banned, first_hops) = match round {
                            0 => (Vec::new(), Vec::new()),
                            1 => (Vec::new(), t.neighbors(source)),
                            _ => (pick(3), pick(2)),
                        };
                        let fast = t.constrained_shortest(
                            &mut search,
                            source,
                            destination,
                            &banned,
                            &first_hops,
                        );
                        let slow = reference::constrained_shortest(
                            &t,
                            source,
                            destination,
                            &banned,
                            &first_hops,
                        );
                        assert_eq!(
                            fast, slow,
                            "{source:?} -> {destination:?}, banned {banned:?}, first hops {first_hops:?}"
                        );
                        compared += usize::from(fast.is_some());
                    }
                }
            }
        }
        assert!(compared > 5000, "only {compared} paths compared");
    }

    /// The applications' endpoints of the 80-switch fat-tree instance
    /// `tsn_workload` generates for the scale workloads (seed 1, as the
    /// benchmark's), over its topology rebuilt here: the generator links the
    /// library build of this crate, which is a distinct crate to these
    /// tests, so every node and link is re-added in id order, keeping every
    /// id. Hop-count routes do not read link specs.
    fn generated_instance(streams: usize) -> (Topology, Vec<(NodeId, NodeId)>) {
        let problem = tsn_workload::large_scale_problem(&tsn_workload::LargeScaleScenario {
            streams,
            seed: 1,
            ..Default::default()
        })
        .expect("the generator builds its instances");
        let generated = problem.topology();
        let mut topology = Topology::new();
        for node in generated.nodes() {
            let kind = match node.kind().to_string().as_str() {
                "switch" => NodeKind::Switch,
                "sensor" => NodeKind::Sensor,
                _ => NodeKind::Controller,
            };
            topology.add_node(node.name(), kind);
        }
        let id = |index: usize| NodeId::new(index as u32);
        for link in generated.links().step_by(2) {
            topology
                .connect(
                    id(link.source().index()),
                    id(link.target().index()),
                    LinkSpec::fast_ethernet(),
                )
                .expect("the generated topology is valid");
        }
        assert_eq!(topology.link_count(), generated.link_count());
        let apps = problem
            .applications()
            .iter()
            .map(|app| (id(app.sensor.index()), id(app.controller.index())))
            .collect();
        (topology, apps)
    }

    #[test]
    fn k_shortest_matches_the_reference_on_the_generated_fat_trees() {
        // The flagship's instance and one at four times its streams: every
        // application's route list, at each route count the workloads use.
        for streams in [500, 2000] {
            let (t, apps) = generated_instance(streams);
            assert_eq!(apps.len(), streams);
            let mut routes = 0usize;
            for &(sensor, controller) in &apps {
                for k in [1, 3, 4] {
                    let fast = t.k_shortest_routes(sensor, controller, k).unwrap();
                    let slow = reference::k_shortest_routes(&t, sensor, controller, k).unwrap();
                    assert_eq!(
                        fast, slow,
                        "{streams} streams: {sensor:?} -> {controller:?}, k = {k}"
                    );
                    routes += fast.len();
                }
            }
            assert!(routes > 6 * streams, "only {routes} routes compared");
        }
    }

    #[test]
    fn the_switch_adjacency_follows_changes_to_the_graph() {
        let (mut t, s, c) = diamond();
        let a = t.node_by_name("a").unwrap();
        let shortcut = t.add_node("g", NodeKind::Switch);
        let fresh = t.add_node("c2", NodeKind::Controller);
        // The first search builds the adjacency while both are isolated...
        assert_eq!(t.shortest_route(s, c).unwrap().hop_count(), 3);
        assert!(t.shortest_route(s, fresh).is_err());
        // ...and links added after it must be seen by the next search.
        t.connect(a, shortcut, LinkSpec::fast_ethernet()).unwrap();
        t.connect(shortcut, fresh, LinkSpec::fast_ethernet())
            .unwrap();
        let r = t.shortest_route(s, fresh).unwrap();
        assert_eq!(r.nodes(), [s, a, shortcut, fresh]);
        assert_eq!(
            t.k_shortest_routes(s, fresh, 4).unwrap(),
            reference::k_shortest_routes(&t, s, fresh, 4).unwrap()
        );
    }
}
