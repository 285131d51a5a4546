//! Topology builders: regular structures, Erdős–Rényi random graphs and the
//! automotive backbone used by the paper's evaluation.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{LinkSpec, NetError, NodeId, NodeKind, Topology};

/// A topology together with the sensors and controllers attached to it, in
/// the order they were created.
///
/// This is the unit consumed by the synthesis problem builders: application
/// `i` uses `sensors[i]` as its source and `controllers[i]` as destination.
#[derive(Debug, Clone)]
pub struct BuiltNetwork {
    /// The network topology.
    pub topology: Topology,
    /// Sensor end stations, one per prospective control application.
    pub sensors: Vec<NodeId>,
    /// Controller end stations, one per prospective control application.
    pub controllers: Vec<NodeId>,
}

impl BuiltNetwork {
    /// The number of sensor/controller pairs available for applications.
    pub fn application_slots(&self) -> usize {
        self.sensors.len().min(self.controllers.len())
    }
}

/// Builds a chain of `n` switches: `sw0 - sw1 - ... - sw(n-1)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn switch_line(n: usize, spec: LinkSpec) -> (Topology, Vec<NodeId>) {
    assert!(n > 0, "a switch line needs at least one switch");
    let mut topo = Topology::new();
    let switches: Vec<NodeId> = (0..n)
        .map(|i| topo.add_node(format!("SW{i}"), NodeKind::Switch))
        .collect();
    for w in switches.windows(2) {
        topo.connect(w[0], w[1], spec)
            .expect("line links are unique");
    }
    (topo, switches)
}

/// Builds a ring of `n` switches.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn switch_ring(n: usize, spec: LinkSpec) -> (Topology, Vec<NodeId>) {
    assert!(n >= 3, "a ring needs at least three switches");
    let (mut topo, switches) = switch_line(n, spec);
    topo.connect(switches[n - 1], switches[0], spec)
        .expect("closing link is unique");
    (topo, switches)
}

/// Builds an `rows x cols` grid (mesh) of switches with horizontal and
/// vertical links.
///
/// # Panics
///
/// Panics if either dimension is zero.
pub fn switch_grid(rows: usize, cols: usize, spec: LinkSpec) -> (Topology, Vec<NodeId>) {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut topo = Topology::new();
    let mut switches = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            switches.push(topo.add_node(format!("SW{r}_{c}"), NodeKind::Switch));
        }
    }
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            if c + 1 < cols {
                topo.connect(switches[idx], switches[idx + 1], spec)
                    .expect("grid links are unique");
            }
            if r + 1 < rows {
                topo.connect(switches[idx], switches[idx + cols], spec)
                    .expect("grid links are unique");
            }
        }
    }
    (topo, switches)
}

/// The three switch layers of a [`fat_tree`] fabric.
///
/// End stations should attach to [`edge`](FatTreeLayers::edge) switches only
/// (as hosts do in a data-center fat-tree); the aggregation and core layers
/// exist to provide many equal-length alternative routes between edges.
#[derive(Debug, Clone)]
pub struct FatTreeLayers {
    /// Core switches, `(pods / 2)^2` of them.
    pub core: Vec<NodeId>,
    /// Aggregation switches, `pods / 2` per pod.
    pub aggregation: Vec<NodeId>,
    /// Edge switches, `pods / 2` per pod — the attachment points.
    pub edge: Vec<NodeId>,
}

impl FatTreeLayers {
    /// All switches of the fabric, core first, in creation order.
    pub fn all(&self) -> Vec<NodeId> {
        let mut v = self.core.clone();
        v.extend_from_slice(&self.aggregation);
        v.extend_from_slice(&self.edge);
        v
    }

    /// The total switch count of the fabric: `5 * (pods / 2)^2` for `pods`
    /// pods (e.g. 20 for 4 pods, 45 for 6, 80 for 8).
    pub fn switch_count(&self) -> usize {
        self.core.len() + self.aggregation.len() + self.edge.len()
    }
}

/// The pod count whose [`fat_tree`] has a total switch count closest to
/// `switches` (inverting the `5 * (pods / 2)^2` relation). The result is
/// always a valid pod count — even and at least 4 — chosen as the nearer of
/// the two adjacent even candidates.
///
/// This is the one place that inversion lives — workload generators and
/// scenario grids that take a target switch count go through it.
pub fn fat_tree_pods_for(switches: usize) -> usize {
    let raw = (switches as f64 / 5.0).sqrt() * 2.0;
    let below = (((raw / 2.0).floor() as usize) * 2).max(4);
    let above = below + 2;
    let count = |pods: usize| 5 * (pods / 2) * (pods / 2);
    if switches.abs_diff(count(below)) <= switches.abs_diff(count(above)) {
        below
    } else {
        above
    }
}

/// Builds a `pods`-ary fat-tree switch fabric (the standard three-layer
/// data-center topology): `(pods / 2)^2` core switches, and per pod
/// `pods / 2` aggregation plus `pods / 2` edge switches. Within a pod the
/// aggregation and edge layers form a complete bipartite graph; aggregation
/// switch `a` of every pod connects to the core switches
/// `a * pods/2 .. (a+1) * pods/2`.
///
/// Any two edge switches in different pods are connected by `(pods / 2)^2`
/// equal-length routes, which is exactly the path diversity the large-scale
/// partitioned synthesis exploits to keep partitions low-contention.
///
/// `pods` is rounded up to the next even value and to at least 4.
pub fn fat_tree(pods: usize, spec: LinkSpec) -> (Topology, FatTreeLayers) {
    let pods = pods.max(4).next_multiple_of(2);
    let half = pods / 2;
    let mut topo = Topology::new();
    let core: Vec<NodeId> = (0..half * half)
        .map(|i| topo.add_node(format!("CORE{i}"), NodeKind::Switch))
        .collect();
    let mut aggregation = Vec::with_capacity(pods * half);
    let mut edge = Vec::with_capacity(pods * half);
    for p in 0..pods {
        let aggs: Vec<NodeId> = (0..half)
            .map(|a| topo.add_node(format!("AGG{p}_{a}"), NodeKind::Switch))
            .collect();
        let edges: Vec<NodeId> = (0..half)
            .map(|e| topo.add_node(format!("EDGE{p}_{e}"), NodeKind::Switch))
            .collect();
        for (a, &agg) in aggs.iter().enumerate() {
            // Complete bipartite pod wiring.
            for &ed in &edges {
                topo.connect(agg, ed, spec).expect("pod links are unique");
            }
            // Each aggregation switch owns a contiguous slice of the core.
            for c in 0..half {
                topo.connect(agg, core[a * half + c], spec)
                    .expect("core links are unique");
            }
        }
        aggregation.extend(aggs);
        edge.extend(edges);
    }
    (
        topo,
        FatTreeLayers {
            core,
            aggregation,
            edge,
        },
    )
}

/// Builds a connected Erdős–Rényi random graph over `n` switches: every pair
/// of switches is connected with probability `p`, and a random spanning tree
/// is added first so the result is always connected (the paper generates its
/// Figure 7 topologies "randomly based on the Erdős–Rényi graph model" and
/// needs them connected to route at all).
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not within `[0, 1]`.
pub fn erdos_renyi_switches<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    spec: LinkSpec,
    rng: &mut R,
) -> (Topology, Vec<NodeId>) {
    assert!(n > 0, "need at least one switch");
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    let mut topo = Topology::new();
    let switches: Vec<NodeId> = (0..n)
        .map(|i| topo.add_node(format!("SW{i}"), NodeKind::Switch))
        .collect();
    // Random spanning tree: connect node i to a random earlier node.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(rng);
    for i in 1..n {
        let j = rng.gen_range(0..i);
        let (a, b) = (switches[order[i]], switches[order[j]]);
        let _ = topo.connect(a, b, spec);
    }
    // Extra Erdős–Rényi edges.
    for i in 0..n {
        for j in (i + 1)..n {
            if topo.link_between(switches[i], switches[j]).is_none() && rng.gen_bool(p) {
                let _ = topo.connect(switches[i], switches[j], spec);
            }
        }
    }
    (topo, switches)
}

/// Attaches `count` sensors and `count` controllers to random switches of an
/// existing switch fabric, returning the completed [`BuiltNetwork`].
pub fn attach_end_stations<R: Rng + ?Sized>(
    mut topology: Topology,
    switches: &[NodeId],
    count: usize,
    spec: LinkSpec,
    rng: &mut R,
) -> BuiltNetwork {
    let mut sensors = Vec::with_capacity(count);
    let mut controllers = Vec::with_capacity(count);
    for i in 0..count {
        let s = topology.add_node(format!("S{i}"), NodeKind::Sensor);
        let sw = switches[rng.gen_range(0..switches.len())];
        topology
            .connect(s, sw, spec)
            .expect("new end station has no prior link");
        sensors.push(s);
    }
    for i in 0..count {
        let c = topology.add_node(format!("C{i}"), NodeKind::Controller);
        let sw = switches[rng.gen_range(0..switches.len())];
        topology
            .connect(c, sw, spec)
            .expect("new end station has no prior link");
        controllers.push(c);
    }
    BuiltNetwork {
        topology,
        sensors,
        controllers,
    }
}

/// The example network of the paper's Figure 1: 14 nodes, 8 Ethernet switches
/// connecting 3 sensors to 3 controllers.
///
/// The exact wiring of Figure 1 is not fully specified in the paper; this
/// builder reconstructs a faithful equivalent — an 8-switch two-row backbone
/// with cross links offering several alternative routes between each
/// sensor/controller pair (which is what the routing exploration needs).
pub fn figure1_example(spec: LinkSpec) -> BuiltNetwork {
    let BuiltNetwork {
        topology,
        mut sensors,
        mut controllers,
    } = automotive_backbone(3, 3, spec);
    sensors.truncate(3);
    controllers.truncate(3);
    BuiltNetwork {
        topology,
        sensors,
        controllers,
    }
}

/// The automotive backbone used for the paper's case study: 8 Ethernet
/// switches arranged as two redundant rows of four with vertical and diagonal
/// cross links (zonal automotive architectures are built this way so every
/// pair of zones has several disjoint routes), with `sensor_count` sensors
/// and `controller_count` controllers distributed round-robin over the
/// switches.
pub fn automotive_backbone(
    sensor_count: usize,
    controller_count: usize,
    spec: LinkSpec,
) -> BuiltNetwork {
    let mut topo = Topology::new();
    let switches: Vec<NodeId> = (0..8)
        .map(|i| topo.add_node(format!("SW{i}"), NodeKind::Switch))
        .collect();
    // Two rows of four:   SW0 - SW1 - SW2 - SW3
    //                      |  X  |     |  X  |
    //                     SW4 - SW5 - SW6 - SW7
    let row_links = [
        (0, 1),
        (1, 2),
        (2, 3),
        (4, 5),
        (5, 6),
        (6, 7),
        // vertical links
        (0, 4),
        (1, 5),
        (2, 6),
        (3, 7),
        // diagonal cross links at both ends
        (0, 5),
        (1, 4),
        (2, 7),
        (3, 6),
    ];
    for (a, b) in row_links {
        topo.connect(switches[a], switches[b], spec)
            .expect("backbone links are unique");
    }
    let mut sensors = Vec::with_capacity(sensor_count);
    for i in 0..sensor_count {
        let s = topo.add_node(format!("S{i}"), NodeKind::Sensor);
        // Sensors attach to the top row, spread round-robin.
        let sw = switches[i % 4];
        topo.connect(s, sw, spec).expect("sensor link is unique");
        sensors.push(s);
    }
    let mut controllers = Vec::with_capacity(controller_count);
    for i in 0..controller_count {
        let c = topo.add_node(format!("C{i}"), NodeKind::Controller);
        // Controllers attach to the bottom row, offset so that routes cross
        // the backbone.
        let sw = switches[4 + ((i + 2) % 4)];
        topo.connect(c, sw, spec)
            .expect("controller link is unique");
        controllers.push(c);
    }
    BuiltNetwork {
        topology: topo,
        sensors,
        controllers,
    }
}

/// Validates that a built network can route every application: each
/// sensor/controller pair `i` must have at least one route.
///
/// # Errors
///
/// Returns the first routing error encountered.
pub fn validate_routability(network: &BuiltNetwork) -> Result<(), NetError> {
    for (s, c) in network.sensors.iter().zip(network.controllers.iter()) {
        network.topology.shortest_route(*s, *c)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn line_ring_grid_shapes() {
        let (line, sw) = switch_line(5, LinkSpec::fast_ethernet());
        assert_eq!(line.node_count(), 5);
        assert_eq!(line.physical_link_count(), 4);
        assert_eq!(sw.len(), 5);
        assert!(line.is_connected());

        let (ring, _) = switch_ring(5, LinkSpec::fast_ethernet());
        assert_eq!(ring.physical_link_count(), 5);
        assert!(ring.is_connected());

        let (grid, sw) = switch_grid(3, 4, LinkSpec::fast_ethernet());
        assert_eq!(sw.len(), 12);
        assert_eq!(grid.physical_link_count(), 3 * 3 + 2 * 4);
        assert!(grid.is_connected());
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn tiny_ring_rejected() {
        let _ = switch_ring(2, LinkSpec::fast_ethernet());
    }

    #[test]
    fn fat_tree_has_standard_shape() {
        for (pods, switches) in [(4usize, 20usize), (6, 45), (8, 80)] {
            let (topo, layers) = fat_tree(pods, LinkSpec::gigabit_ethernet());
            let half = pods / 2;
            assert_eq!(layers.core.len(), half * half);
            assert_eq!(layers.aggregation.len(), pods * half);
            assert_eq!(layers.edge.len(), pods * half);
            assert_eq!(layers.switch_count(), switches);
            assert_eq!(topo.node_count(), switches);
            assert_eq!(layers.all().len(), switches);
            // Pod wiring (pods * half^2) plus core wiring (pods * half^2).
            assert_eq!(topo.physical_link_count(), 2 * pods * half * half);
            assert!(topo.is_connected());
            // Cross-pod edge pairs see the full core-level path diversity.
            let routes = topo
                .k_shortest_routes(layers.edge[0], layers.edge[half], half * half)
                .unwrap();
            assert_eq!(routes.len(), half * half);
            for r in &routes {
                assert_eq!(r.links().len(), 4, "edge-agg-core-agg-edge");
            }
        }
        // Degenerate parameters are rounded up to the smallest fat-tree.
        let (_, layers) = fat_tree(0, LinkSpec::fast_ethernet());
        assert_eq!(layers.switch_count(), 20);
        let (_, layers) = fat_tree(5, LinkSpec::fast_ethernet());
        assert_eq!(layers.switch_count(), 45);
    }

    #[test]
    fn fat_tree_pods_for_picks_the_closest_valid_configuration() {
        // Exact switch counts invert exactly.
        for (pods, switches) in [(4usize, 20usize), (6, 45), (8, 80), (10, 125)] {
            assert_eq!(fat_tree_pods_for(switches), pods);
        }
        // In-between targets pick the nearer of the adjacent even pod
        // counts: 32 is closer to 20 (4 pods) than to 45 (6 pods).
        assert_eq!(fat_tree_pods_for(32), 4);
        assert_eq!(fat_tree_pods_for(33), 6);
        assert_eq!(fat_tree_pods_for(128), 10);
        // The result is always a buildable pod count (even, >= 4), so
        // fat_tree never re-rounds it.
        for switches in [0, 1, 19, 21, 44, 46, 79, 81, 200] {
            let pods = fat_tree_pods_for(switches);
            assert!(
                pods >= 4 && pods.is_multiple_of(2),
                "switches {switches} -> {pods}"
            );
            let (_, layers) = fat_tree(pods, LinkSpec::fast_ethernet());
            assert_eq!(layers.switch_count(), 5 * (pods / 2) * (pods / 2));
        }
    }

    #[test]
    fn erdos_renyi_is_connected_for_any_probability() {
        let mut rng = StdRng::seed_from_u64(42);
        for &p in &[0.0, 0.1, 0.5, 1.0] {
            let (topo, sw) = erdos_renyi_switches(15, p, LinkSpec::fast_ethernet(), &mut rng);
            assert!(topo.is_connected(), "p={p} must still be connected");
            assert_eq!(sw.len(), 15);
            assert!(topo.physical_link_count() >= 14, "spanning tree present");
        }
        // p = 1.0 must produce the complete graph.
        let (topo, _) = erdos_renyi_switches(6, 1.0, LinkSpec::fast_ethernet(), &mut rng);
        assert_eq!(topo.physical_link_count(), 6 * 5 / 2);
    }

    #[test]
    fn attach_end_stations_builds_routable_network() {
        let mut rng = StdRng::seed_from_u64(7);
        let (topo, switches) = erdos_renyi_switches(15, 0.25, LinkSpec::fast_ethernet(), &mut rng);
        let net = attach_end_stations(topo, &switches, 10, LinkSpec::fast_ethernet(), &mut rng);
        assert_eq!(net.sensors.len(), 10);
        assert_eq!(net.controllers.len(), 10);
        assert_eq!(net.application_slots(), 10);
        assert_eq!(net.topology.node_count(), 35); // 15 switches + 20 end stations
        validate_routability(&net).unwrap();
    }

    #[test]
    fn figure1_has_fourteen_nodes() {
        let net = figure1_example(LinkSpec::automotive_10mbps());
        assert_eq!(net.topology.node_count(), 14);
        assert_eq!(net.topology.switches().len(), 8);
        assert_eq!(net.sensors.len(), 3);
        assert_eq!(net.controllers.len(), 3);
        validate_routability(&net).unwrap();
        // Every application must have several alternative routes for the
        // route-subset heuristic to be meaningful.
        for (s, c) in net.sensors.iter().zip(net.controllers.iter()) {
            let routes = net.topology.k_shortest_routes(*s, *c, 4).unwrap();
            assert!(
                routes.len() >= 3,
                "expected at least 3 routes, got {}",
                routes.len()
            );
        }
    }

    #[test]
    fn automotive_backbone_scales_to_case_study_size() {
        let net = automotive_backbone(20, 20, LinkSpec::automotive_10mbps());
        assert_eq!(net.topology.switches().len(), 8);
        assert_eq!(net.sensors.len(), 20);
        assert_eq!(net.controllers.len(), 20);
        validate_routability(&net).unwrap();
    }
}
