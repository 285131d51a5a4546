//! Nodes of the network topology.

use std::fmt;

use crate::NodeId;

/// The role a node plays in the networked control system.
///
/// The paper's system model (Section II) distinguishes Ethernet switches,
/// sensors (message sources) and controllers (message sinks). End stations
/// (sensors and controllers) have a single port; switches forward traffic
/// between multiple ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An IEEE 802.1Qbv Ethernet switch with scheduled egress queues.
    Switch,
    /// A sensor end station, the source of a periodic message flow.
    Sensor,
    /// A controller end station, the destination of a message flow.
    Controller,
}

impl NodeKind {
    /// Returns `true` for end stations (sensors and controllers).
    pub const fn is_end_station(self) -> bool {
        matches!(self, NodeKind::Sensor | NodeKind::Controller)
    }

    /// Returns `true` for switches.
    pub const fn is_switch(self) -> bool {
        matches!(self, NodeKind::Switch)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Switch => "switch",
            NodeKind::Sensor => "sensor",
            NodeKind::Controller => "controller",
        };
        f.write_str(s)
    }
}

/// A node of the topology: an Ethernet switch, a sensor or a controller.
///
/// # Example
///
/// ```
/// use tsn_net::{NodeKind, Topology};
///
/// let mut topo = Topology::new();
/// let id = topo.add_node("SW0", NodeKind::Switch);
/// let node = topo.node(id);
/// assert_eq!(node.name(), "SW0");
/// assert!(node.kind().is_switch());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    id: NodeId,
    name: String,
    kind: NodeKind,
}

impl Node {
    pub(crate) fn new(id: NodeId, name: impl Into<String>, kind: NodeKind) -> Self {
        Node {
            id,
            name: name.into(),
            kind,
        }
    }

    /// The identifier of this node.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The human-readable name of this node.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The role of this node.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::Switch.is_switch());
        assert!(!NodeKind::Switch.is_end_station());
        assert!(NodeKind::Sensor.is_end_station());
        assert!(NodeKind::Controller.is_end_station());
        assert!(!NodeKind::Controller.is_switch());
    }

    #[test]
    fn node_accessors() {
        let n = Node::new(NodeId::new(2), "radar", NodeKind::Sensor);
        assert_eq!(n.id(), NodeId::new(2));
        assert_eq!(n.name(), "radar");
        assert_eq!(n.kind(), NodeKind::Sensor);
        assert_eq!(n.to_string(), "radar (sensor)");
    }
}
