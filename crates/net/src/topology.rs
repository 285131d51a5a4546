//! The network topology graph.

use std::collections::HashMap;
use std::fmt;

use crate::{Link, LinkId, LinkSpec, NetError, Node, NodeId, NodeKind};

/// The network and its topology: a graph `G = (V, E)` whose nodes are
/// Ethernet switches, sensors or controllers and whose edges are full-duplex
/// physical links (Section II-A of the paper).
///
/// Internally every full-duplex connection is stored as two *directed* links,
/// because scheduling, contention and routing decisions are made per egress
/// port of a switch.
///
/// # Example
///
/// ```
/// use tsn_net::{LinkSpec, NodeKind, Topology};
///
/// # fn main() -> Result<(), tsn_net::NetError> {
/// let mut topo = Topology::new();
/// let s = topo.add_node("S", NodeKind::Sensor);
/// let sw = topo.add_node("SW", NodeKind::Switch);
/// let c = topo.add_node("C", NodeKind::Controller);
/// topo.connect(s, sw, LinkSpec::fast_ethernet())?;
/// topo.connect(sw, c, LinkSpec::fast_ethernet())?;
///
/// assert_eq!(topo.node_count(), 3);
/// assert_eq!(topo.link_count(), 4); // two directed links per connection
/// assert!(topo.is_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    out_links: Vec<Vec<LinkId>>,
    link_index: HashMap<(NodeId, NodeId), LinkId>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node with the given name and kind and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, name, kind));
        self.out_links.push(Vec::new());
        id
    }

    /// Connects two nodes with a full-duplex link, creating the two directed
    /// links `(a -> b)` and `(b -> a)`. Returns their ids in that order.
    ///
    /// # Errors
    ///
    /// Returns an error if either node is unknown, if `a == b`, if the nodes
    /// are already connected, or if an end station (sensor/controller) would
    /// end up with more than one port.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        spec: LinkSpec,
    ) -> Result<(LinkId, LinkId), NetError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(NetError::SelfLoop(a));
        }
        if self.link_index.contains_key(&(a, b)) {
            return Err(NetError::DuplicateLink(a, b));
        }
        for &n in &[a, b] {
            if self.node(n).kind().is_end_station() && !self.out_links[n.index()].is_empty() {
                return Err(NetError::EndStationDegree(n));
            }
        }
        let ab = LinkId::new(self.links.len() as u32);
        let ba = LinkId::new(self.links.len() as u32 + 1);
        self.links.push(Link::new(ab, a, b, spec, ba));
        self.links.push(Link::new(ba, b, a, spec, ab));
        self.out_links[a.index()].push(ab);
        self.out_links[b.index()].push(ba);
        self.link_index.insert((a, b), ab);
        self.link_index.insert((b, a), ba);
        Ok((ab, ba))
    }

    fn check_node(&self, n: NodeId) -> Result<(), NetError> {
        if n.index() < self.nodes.len() {
            Ok(())
        } else {
            Err(NetError::UnknownNode(n))
        }
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The number of *directed* links (twice the number of physical links).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The number of full-duplex physical links.
    pub fn physical_link_count(&self) -> usize {
        self.links.len() / 2
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this topology.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The directed link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this topology.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.nodes.iter()
    }

    /// Iterates over all directed links.
    pub fn links(&self) -> impl Iterator<Item = &Link> + '_ {
        self.links.iter()
    }

    /// All node ids of the given kind.
    pub fn nodes_of_kind(&self, kind: NodeKind) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind() == kind)
            .map(|n| n.id())
            .collect()
    }

    /// All switch node ids.
    pub fn switches(&self) -> Vec<NodeId> {
        self.nodes_of_kind(NodeKind::Switch)
    }

    /// All sensor node ids.
    pub fn sensors(&self) -> Vec<NodeId> {
        self.nodes_of_kind(NodeKind::Sensor)
    }

    /// All controller node ids.
    pub fn controllers(&self) -> Vec<NodeId> {
        self.nodes_of_kind(NodeKind::Controller)
    }

    /// Finds a node by its name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.name() == name).map(|n| n.id())
    }

    /// The directed link from `a` to `b`, if the two nodes are connected.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.link_index.get(&(a, b)).copied()
    }

    /// The outgoing directed links (egress ports) of a node.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node.index()]
    }

    /// The neighbors reachable from `node` over one link.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.out_links[node.index()]
            .iter()
            .map(|&l| self.links[l.index()].target())
            .collect()
    }

    /// The degree (number of attached physical links) of a node.
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_links[node.index()].len()
    }

    /// Returns `true` if every node can reach every other node.
    ///
    /// An empty topology is considered connected.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &l in &self.out_links[n.index()] {
                let t = self.links[l.index()].target();
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    count += 1;
                    stack.push(t);
                }
            }
        }
        count == self.nodes.len()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "topology with {} nodes ({} switches, {} sensors, {} controllers) and {} physical links",
            self.node_count(),
            self.switches().len(),
            self.sensors().len(),
            self.controllers().len(),
            self.physical_link_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Switch);
        let b = t.add_node("b", NodeKind::Switch);
        let c = t.add_node("c", NodeKind::Switch);
        t.connect(a, b, LinkSpec::fast_ethernet()).unwrap();
        t.connect(b, c, LinkSpec::fast_ethernet()).unwrap();
        t.connect(c, a, LinkSpec::fast_ethernet()).unwrap();
        (t, a, b, c)
    }

    #[test]
    fn connect_creates_both_directions() {
        let (t, a, b, _) = triangle();
        let ab = t.link_between(a, b).unwrap();
        let ba = t.link_between(b, a).unwrap();
        assert_ne!(ab, ba);
        assert_eq!(t.link(ab).reverse(), ba);
        assert_eq!(t.link(ba).reverse(), ab);
        assert_eq!(t.link(ab).source(), a);
        assert_eq!(t.link(ab).target(), b);
    }

    #[test]
    fn duplicate_and_self_loops_rejected() {
        let (mut t, a, b, _) = triangle();
        assert_eq!(
            t.connect(a, b, LinkSpec::fast_ethernet()),
            Err(NetError::DuplicateLink(a, b))
        );
        assert_eq!(
            t.connect(b, a, LinkSpec::fast_ethernet()),
            Err(NetError::DuplicateLink(b, a))
        );
        assert_eq!(
            t.connect(a, a, LinkSpec::fast_ethernet()),
            Err(NetError::SelfLoop(a))
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let (mut t, a, _, _) = triangle();
        let ghost = NodeId::new(99);
        assert_eq!(
            t.connect(a, ghost, LinkSpec::fast_ethernet()),
            Err(NetError::UnknownNode(ghost))
        );
    }

    #[test]
    fn end_stations_have_a_single_port() {
        let mut t = Topology::new();
        let s = t.add_node("s", NodeKind::Sensor);
        let sw1 = t.add_node("sw1", NodeKind::Switch);
        let sw2 = t.add_node("sw2", NodeKind::Switch);
        t.connect(s, sw1, LinkSpec::fast_ethernet()).unwrap();
        assert_eq!(
            t.connect(s, sw2, LinkSpec::fast_ethernet()),
            Err(NetError::EndStationDegree(s))
        );
    }

    #[test]
    fn kind_queries() {
        let mut t = Topology::new();
        let s = t.add_node("s", NodeKind::Sensor);
        let sw = t.add_node("sw", NodeKind::Switch);
        let c = t.add_node("c", NodeKind::Controller);
        assert_eq!(t.sensors(), vec![s]);
        assert_eq!(t.switches(), vec![sw]);
        assert_eq!(t.controllers(), vec![c]);
        assert_eq!(t.node_by_name("sw"), Some(sw));
        assert_eq!(t.node_by_name("nope"), None);
    }

    #[test]
    fn connectivity() {
        let (t, ..) = triangle();
        assert!(t.is_connected());
        let mut t2 = Topology::new();
        t2.add_node("x", NodeKind::Switch);
        t2.add_node("y", NodeKind::Switch);
        assert!(!t2.is_connected());
        assert!(Topology::new().is_connected());
    }

    #[test]
    fn neighbors_and_degree() {
        let (t, a, b, c) = triangle();
        let mut n = t.neighbors(a);
        n.sort();
        assert_eq!(n, vec![b, c]);
        assert_eq!(t.degree(a), 2);
        assert_eq!(t.out_links(a).len(), 2);
    }

    #[test]
    fn display_summarizes_topology() {
        let (t, ..) = triangle();
        let s = t.to_string();
        assert!(s.contains("3 nodes"));
        assert!(s.contains("3 physical links"));
    }
}
