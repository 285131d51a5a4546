//! Property tests for path enumeration: on every topology we build, the
//! k-shortest routes must be simple (no repeated nodes), sorted by hop count,
//! distinct, and actually connect the requested sensor to the requested
//! controller.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsn_net::{builders, LinkSpec, NodeId, Route, Topology};

/// Asserts the route-set properties for `k_shortest_routes(source, dest, k)`.
fn assert_route_properties(topo: &Topology, source: NodeId, destination: NodeId, k: usize) {
    let routes = topo
        .k_shortest_routes(source, destination, k)
        .expect("route enumeration must succeed for connected endpoints");
    assert!(
        !routes.is_empty(),
        "no route found from {source:?} to {destination:?}"
    );
    assert!(routes.len() <= k, "more than k routes returned");

    for route in &routes {
        // Endpoints connect sensor to controller.
        assert_eq!(route.source(), source, "route starts at the wrong node");
        assert_eq!(
            route.destination(),
            destination,
            "route ends at the wrong node"
        );
        // Simple: no repeated nodes.
        let mut nodes: Vec<NodeId> = route.nodes().to_vec();
        let hop_count = route.hop_count();
        nodes.sort();
        let before = nodes.len();
        nodes.dedup();
        assert_eq!(nodes.len(), before, "route repeats a node: {route:?}");
        // Links and nodes are consistent: n hops need n+1 nodes.
        assert_eq!(route.links().len(), hop_count, "links/hop_count mismatch");
        assert_eq!(
            route.nodes().len(),
            hop_count + 1,
            "nodes/hop_count mismatch"
        );
        // Every consecutive node pair is actually linked in the topology.
        for (pair, &link) in route.nodes().windows(2).zip(route.links()) {
            let found = topo
                .link_between(pair[0], pair[1])
                .expect("route uses a nonexistent link");
            let l = topo.link(link);
            assert!(
                (l.source(), l.target()) == (pair[0], pair[1]),
                "route link does not match its node pair"
            );
            assert_eq!(found, link, "route link differs from topology's link");
        }
    }

    // Sorted by hop count (Yen's algorithm yields non-decreasing lengths).
    for pair in routes.windows(2) {
        assert!(
            pair[0].hop_count() <= pair[1].hop_count(),
            "routes not sorted by hop count: {} then {}",
            pair[0].hop_count(),
            pair[1].hop_count()
        );
    }

    // Pairwise distinct.
    for (i, a) in routes.iter().enumerate() {
        for b in routes.iter().skip(i + 1) {
            assert_ne!(a.nodes(), b.nodes(), "duplicate route returned");
        }
    }

    // The first route is a shortest route.
    let shortest = topo
        .shortest_route(source, destination)
        .expect("shortest route");
    assert_eq!(
        routes[0].hop_count(),
        shortest.hop_count(),
        "first k-shortest route is not shortest"
    );
}

#[test]
fn figure1_routes_are_simple_sorted_and_connecting() {
    let net = builders::figure1_example(LinkSpec::fast_ethernet());
    for &sensor in &net.sensors {
        for &controller in &net.controllers {
            for k in [1, 2, 4, 8] {
                assert_route_properties(&net.topology, sensor, controller, k);
            }
        }
    }
}

#[test]
fn ring_routes_are_simple_sorted_and_connecting() {
    for ring_size in [3usize, 5, 8] {
        let (topology, switches) = builders::switch_ring(ring_size, LinkSpec::fast_ethernet());
        let mut rng = StdRng::seed_from_u64(ring_size as u64);
        let net = builders::attach_end_stations(
            topology,
            &switches,
            2,
            LinkSpec::fast_ethernet(),
            &mut rng,
        );
        for &sensor in &net.sensors {
            for &controller in &net.controllers {
                for k in [1, 2, 4] {
                    assert_route_properties(&net.topology, sensor, controller, k);
                }
            }
        }
    }
}

#[test]
fn grid_mesh_routes_are_simple_sorted_and_connecting() {
    for (rows, cols) in [(2usize, 3usize), (3, 3), (2, 5)] {
        let (topology, switches) = builders::switch_grid(rows, cols, LinkSpec::gigabit_ethernet());
        let mut rng = StdRng::seed_from_u64((rows * 31 + cols) as u64);
        let net = builders::attach_end_stations(
            topology,
            &switches,
            3,
            LinkSpec::gigabit_ethernet(),
            &mut rng,
        );
        for &sensor in &net.sensors {
            for &controller in &net.controllers {
                for k in [1, 3, 6] {
                    assert_route_properties(&net.topology, sensor, controller, k);
                }
            }
        }
    }
}

#[test]
fn ring_offers_two_disjoint_route_families() {
    // On a ring, a sensor and controller attached to different switches must
    // see at least two routes that share no switch-to-switch link.
    let (topology, switches) = builders::switch_ring(6, LinkSpec::fast_ethernet());
    let mut topo = topology;
    let sensor = topo.add_node("S0", tsn_net::NodeKind::Sensor);
    let controller = topo.add_node("C0", tsn_net::NodeKind::Controller);
    topo.connect(sensor, switches[0], LinkSpec::fast_ethernet())
        .expect("attach sensor");
    topo.connect(controller, switches[3], LinkSpec::fast_ethernet())
        .expect("attach controller");
    let routes: Vec<Route> = topo
        .k_shortest_routes(sensor, controller, 4)
        .expect("routes");
    assert!(routes.len() >= 2, "ring should offer both directions");
    let shared: Vec<_> = routes[0].shared_links(&routes[1]).collect();
    // Only the sensor's and controller's access links may be shared.
    for link in shared {
        let l = topo.link(link);
        assert!(
            l.source() == sensor
                || l.target() == sensor
                || l.source() == controller
                || l.target() == controller,
            "ring routes share a backbone link: {l:?}"
        );
    }
}

/// The BFS this crate used before it stopped enqueueing end stations and
/// allocating a neighbour list per visited node, kept verbatim as the
/// reference: every node is enqueued, end stations are skipped only when
/// popped, and the search ends when the destination itself is popped.
fn reference_constrained_shortest(
    topo: &Topology,
    source: NodeId,
    destination: NodeId,
    banned_nodes: &[NodeId],
    banned_first_hops: &[NodeId],
) -> Option<Vec<NodeId>> {
    let mut prev: Vec<Option<NodeId>> = vec![None; topo.node_count()];
    let mut seen = vec![false; topo.node_count()];
    for &b in banned_nodes {
        seen[b.index()] = true;
    }
    let mut queue = std::collections::VecDeque::new();
    seen[source.index()] = true;
    queue.push_back(source);
    while let Some(n) = queue.pop_front() {
        if n == destination {
            break;
        }
        if n != source && !topo.node(n).kind().is_switch() {
            continue;
        }
        for next in topo.neighbors(n) {
            if n == source && banned_first_hops.contains(&next) {
                continue;
            }
            if !seen[next.index()] {
                seen[next.index()] = true;
                prev[next.index()] = Some(n);
                queue.push_back(next);
            }
        }
    }
    if !seen[destination.index()] || prev[destination.index()].is_none() {
        return None;
    }
    let mut nodes = vec![destination];
    let mut cur = destination;
    while let Some(p) = prev[cur.index()] {
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    (nodes.first() == Some(&source)).then_some(nodes)
}

/// Yen's algorithm exactly as `Topology::k_shortest_routes` runs it, over
/// the reference BFS.
fn reference_k_shortest(
    topo: &Topology,
    source: NodeId,
    destination: NodeId,
    k: usize,
) -> Vec<Route> {
    use std::collections::BTreeSet;
    let first = reference_constrained_shortest(topo, source, destination, &[], &[])
        .expect("endpoints are connected");
    let mut result = vec![topo
        .route_from_nodes(&first)
        .expect("a BFS path is a route")];
    let mut candidates: BTreeSet<(usize, Vec<NodeId>)> = BTreeSet::new();
    while result.len() < k {
        let last = result.last().expect("result never empty").clone();
        for i in 0..last.nodes().len() - 1 {
            let root = &last.nodes()[..=i];
            let banned_next: Vec<NodeId> = result
                .iter()
                .filter(|r| r.nodes().len() > i && r.nodes()[..=i] == *root)
                .map(|r| r.nodes()[i + 1])
                .collect();
            if let Some(spur) =
                reference_constrained_shortest(topo, root[i], destination, &root[..i], &banned_next)
            {
                let mut total = root.to_vec();
                total.extend_from_slice(&spur[1..]);
                let mut unique = BTreeSet::new();
                if total.iter().all(|n| unique.insert(*n)) {
                    candidates.insert((total.len(), total));
                }
            }
        }
        let Some((_, nodes)) = candidates.pop_first() else {
            break;
        };
        if result.iter().any(|r| r.nodes() == nodes.as_slice()) {
            continue;
        }
        result.push(
            topo.route_from_nodes(&nodes)
                .expect("a spur path is a route"),
        );
    }
    result
}

#[test]
fn switch_only_bfs_returns_the_routes_of_the_full_bfs_in_the_same_order() {
    let fast = LinkSpec::fast_ethernet();
    let with_stations = |(topology, switches): (Topology, Vec<NodeId>), count, seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        builders::attach_end_stations(topology, &switches, count, fast, &mut rng)
    };
    let (fat_tree, layers) = builders::fat_tree(4, fast);
    assert_eq!(layers.switch_count(), 20);
    let networks = [
        builders::figure1_example(fast),
        with_stations(builders::switch_ring(8, fast), 4, 8),
        with_stations(builders::switch_grid(3, 3, fast), 4, 33),
        with_stations((fat_tree, layers.edge), 12, 20),
    ];
    let mut compared = 0usize;
    for net in &networks {
        for &sensor in &net.sensors {
            for &controller in &net.controllers {
                for k in [1, 3, 4] {
                    let routes = net
                        .topology
                        .k_shortest_routes(sensor, controller, k)
                        .expect("endpoints are connected");
                    assert_eq!(
                        routes,
                        reference_k_shortest(&net.topology, sensor, controller, k),
                        "{sensor:?} -> {controller:?}, k = {k}"
                    );
                    assert_eq!(
                        net.topology
                            .shortest_route(sensor, controller)
                            .ok()
                            .as_ref(),
                        routes.first()
                    );
                    compared += routes.len();
                }
            }
        }
    }
    assert!(compared > 1000, "only {compared} routes compared");
}
