//! Routes: simple paths from a source end station to a destination.

use std::fmt;

use crate::{LinkId, NetError, NodeId, Time, Topology};

/// A loop-free route through the network: an ordered sequence of nodes from a
/// source (typically a sensor) to a destination (typically a controller),
/// together with the directed links traversed between them.
///
/// Routes satisfy by construction the paper's *topology* (Eq. 4), *no-loop*
/// (Eq. 7) and *route* (Eq. 8) constraints: consecutive nodes are connected,
/// no node repeats, and the path connects the requested endpoints. This is
/// what allows the synthesizer to encode route selection as a choice among
/// candidate [`Route`]s instead of free per-switch port variables.
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
/// let route = topo.route_from_nodes(&[s, sw, c])?;
/// assert_eq!(route.hop_count(), 2);
/// assert_eq!(route.switch_count(&topo), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
}

impl Route {
    pub(crate) fn new(nodes: Vec<NodeId>, links: Vec<LinkId>) -> Self {
        debug_assert_eq!(nodes.len(), links.len() + 1);
        Route { nodes, links }
    }

    /// Reassembles a route from its raw parts, as produced by
    /// [`nodes`](Route::nodes) and [`links`](Route::links). This is the
    /// deserialization hook for wire formats; it checks the shape invariants
    /// (`nodes.len() == links.len() + 1`, at least one link, no repeated
    /// node) but not membership in any particular topology — use
    /// [`Topology::route_from_nodes`] when a topology is at hand.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::RepeatedNode`] for a repeated node and
    /// [`NetError::NoRoute`] for a malformed shape.
    pub fn from_parts(nodes: Vec<NodeId>, links: Vec<LinkId>) -> Result<Route, NetError> {
        if nodes.len() < 2 || nodes.len() != links.len() + 1 {
            return Err(NetError::NoRoute {
                source: nodes.first().copied().unwrap_or_default(),
                destination: nodes.last().copied().unwrap_or_default(),
            });
        }
        for (i, &n) in nodes.iter().enumerate() {
            if nodes[..i].contains(&n) {
                return Err(NetError::RepeatedNode(n));
            }
        }
        Ok(Route { nodes, links })
    }

    /// The source node (first node of the path).
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The destination node (last node of the path).
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("routes are never empty")
    }

    /// The ordered nodes of the route, including source and destination.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The ordered directed links of the route.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The number of links (hops) of the route.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// The number of intermediate switches traversed.
    pub fn switch_count(&self, topology: &Topology) -> usize {
        self.nodes
            .iter()
            .filter(|&&n| topology.node(n).kind().is_switch())
            .count()
    }

    /// Returns `true` if the route traverses the given directed link.
    pub fn contains_link(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }

    /// Returns `true` if the route visits the given node.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// The links shared by this route and another (same direction only).
    pub fn shared_links<'a>(&'a self, other: &'a Route) -> impl Iterator<Item = LinkId> + 'a {
        self.links
            .iter()
            .copied()
            .filter(move |l| other.links.contains(l))
    }

    /// The minimum end-to-end delay of a frame of `frame_bytes` bytes sent on
    /// this route, assuming zero queueing: the sum of per-hop transmission
    /// delays plus a forwarding delay for every intermediate switch.
    ///
    /// This is the lower bound used by the synthesizer to prune candidate
    /// routes that can never satisfy a deadline or stability bound.
    pub fn base_delay(
        &self,
        topology: &Topology,
        frame_bytes: u32,
        forwarding_delay: Time,
    ) -> Time {
        let tx: Time = self
            .links
            .iter()
            .map(|&l| topology.link(l).transmission_delay(frame_bytes))
            .sum();
        let switch_hops = self.hop_count().saturating_sub(1) as i64;
        tx + forwarding_delay * switch_hops
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                write!(f, " -> ")?;
            }
            write!(f, "{n}")?;
        }
        Ok(())
    }
}

impl Topology {
    /// Builds a [`Route`] from an explicit node sequence, validating that the
    /// sequence is a simple path of this topology.
    ///
    /// # Errors
    ///
    /// Returns an error if the sequence is shorter than two nodes, references
    /// unknown nodes, repeats a node, or contains a hop with no link.
    pub fn route_from_nodes(&self, nodes: &[NodeId]) -> Result<Route, NetError> {
        if nodes.len() < 2 {
            return Err(NetError::NoRoute {
                source: nodes.first().copied().unwrap_or_default(),
                destination: nodes.last().copied().unwrap_or_default(),
            });
        }
        for &n in nodes {
            if n.index() >= self.node_count() {
                return Err(NetError::UnknownNode(n));
            }
        }
        for (i, &n) in nodes.iter().enumerate() {
            if nodes[..i].contains(&n) {
                return Err(NetError::RepeatedNode(n));
            }
        }
        let mut links = Vec::with_capacity(nodes.len() - 1);
        for pair in nodes.windows(2) {
            let link = self
                .link_between(pair[0], pair[1])
                .ok_or(NetError::DisconnectedPath {
                    from: pair[0],
                    to: pair[1],
                })?;
            links.push(link);
        }
        Ok(Route::new(nodes.to_vec(), links))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkSpec, NodeKind};

    fn small() -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let s = t.add_node("s", NodeKind::Sensor);
        let a = t.add_node("a", NodeKind::Switch);
        let b = t.add_node("b", NodeKind::Switch);
        let c = t.add_node("c", NodeKind::Controller);
        t.connect(s, a, LinkSpec::automotive_10mbps()).unwrap();
        t.connect(a, b, LinkSpec::automotive_10mbps()).unwrap();
        t.connect(b, c, LinkSpec::automotive_10mbps()).unwrap();
        (t, vec![s, a, b, c])
    }

    #[test]
    fn valid_route_construction() {
        let (t, n) = small();
        let r = t.route_from_nodes(&n).unwrap();
        assert_eq!(r.source(), n[0]);
        assert_eq!(r.destination(), n[3]);
        assert_eq!(r.hop_count(), 3);
        assert_eq!(r.switch_count(&t), 2);
        assert_eq!(r.nodes().len(), 4);
        assert_eq!(r.links().len(), 3);
        assert!(r.contains_node(n[1]));
        assert!(r.contains_link(t.link_between(n[1], n[2]).unwrap()));
        assert!(!r.contains_link(t.link_between(n[2], n[1]).unwrap()));
    }

    #[test]
    fn base_delay_accumulates_hops() {
        let (t, n) = small();
        let r = t.route_from_nodes(&n).unwrap();
        // 3 links * 1.2 ms + 2 switches * 5 us
        let expected = Time::from_micros(3 * 1200 + 2 * 5);
        assert_eq!(r.base_delay(&t, 1500, Time::from_micros(5)), expected);
    }

    #[test]
    fn disconnected_and_repeated_paths_rejected() {
        let (t, n) = small();
        assert_eq!(
            t.route_from_nodes(&[n[0], n[2]]),
            Err(NetError::DisconnectedPath {
                from: n[0],
                to: n[2]
            })
        );
        assert_eq!(
            t.route_from_nodes(&[n[0], n[1], n[0]]),
            Err(NetError::RepeatedNode(n[0]))
        );
        assert!(t.route_from_nodes(&[n[0]]).is_err());
        assert_eq!(
            t.route_from_nodes(&[n[0], NodeId::new(99)]),
            Err(NetError::UnknownNode(NodeId::new(99)))
        );
    }

    #[test]
    fn shared_links_are_direction_sensitive() {
        let (t, n) = small();
        let r1 = t.route_from_nodes(&n).unwrap();
        let r2 = t.route_from_nodes(&[n[1], n[2], n[3]]).unwrap();
        let shared: Vec<_> = r1.shared_links(&r2).collect();
        assert_eq!(shared.len(), 2);
        let reverse = t.route_from_nodes(&[n[2], n[1]]).unwrap();
        assert_eq!(r1.shared_links(&reverse).count(), 0);
    }

    #[test]
    fn display_lists_nodes() {
        let (t, n) = small();
        let r = t.route_from_nodes(&n).unwrap();
        assert_eq!(r.to_string(), "n0 -> n1 -> n2 -> n3");
    }
}
