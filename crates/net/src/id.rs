//! Strongly typed identifiers for topology elements.

use std::fmt;

/// Identifier of a node (switch, sensor or controller) inside a [`Topology`].
///
/// Node ids are dense indexes assigned in insertion order, so they can be
/// used directly to index per-node side tables.
///
/// [`Topology`]: crate::Topology
///
/// # Example
///
/// ```
/// use tsn_net::{NodeKind, Topology};
///
/// let mut topo = Topology::new();
/// let a = topo.add_node("A", NodeKind::Switch);
/// let b = topo.add_node("B", NodeKind::Switch);
/// assert_eq!(a.index(), 0);
/// assert_eq!(b.index(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw dense index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a *directed* link (an egress port) inside a [`Topology`].
///
/// Every full-duplex physical connection contributes two directed links, one
/// per direction. Scheduling and contention are per directed link, matching
/// the egress-port queues of an IEEE 802.1Qbv switch.
///
/// [`Topology`]: crate::Topology
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// Creates a link id from a raw dense index.
    pub const fn new(index: u32) -> Self {
        LinkId(index)
    }

    /// The dense index of this link.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId::new(0) < NodeId::new(1));
        assert!(LinkId::new(3) > LinkId::new(2));
        assert_eq!(NodeId::new(7).index(), 7);
        assert_eq!(LinkId::new(9).index(), 9);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::new(4).to_string(), "n4");
        assert_eq!(LinkId::new(11).to_string(), "l11");
    }
}
