//! Directed links (egress ports) of the network topology.

use std::fmt;

use crate::{LinkId, NodeId, Time};

/// Physical properties of a full-duplex link.
///
/// The paper's evaluation uses 10 Mbit/s links with maximum 1500-byte frames,
/// giving a transmission delay `ld = 1.2 ms`, and a constant switch forwarding
/// delay `sd = 5 µs`. [`LinkSpec`] captures data rate and propagation delay so
/// the transmission delay can be derived per frame size.
///
/// # Example
///
/// ```
/// use tsn_net::{LinkSpec, Time};
///
/// // The paper's automotive case study: 10 Mbit/s, 1500-byte frames.
/// let spec = LinkSpec::new(10_000_000, Time::ZERO);
/// assert_eq!(spec.transmission_delay(1500), Time::from_micros(1200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkSpec {
    /// Data rate in bits per second.
    data_rate_bps: u64,
    /// Constant propagation delay of the medium.
    propagation_delay: Time,
}

impl LinkSpec {
    /// Creates a link specification from a data rate (bits per second) and a
    /// propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `data_rate_bps` is zero.
    pub fn new(data_rate_bps: u64, propagation_delay: Time) -> Self {
        assert!(data_rate_bps > 0, "link data rate must be positive");
        LinkSpec {
            data_rate_bps,
            propagation_delay,
        }
    }

    /// A 10 Mbit/s link with no propagation delay, as used in the paper's
    /// automotive case study.
    pub fn automotive_10mbps() -> Self {
        LinkSpec::new(10_000_000, Time::ZERO)
    }

    /// A 100 Mbit/s Fast Ethernet link with no propagation delay.
    pub fn fast_ethernet() -> Self {
        LinkSpec::new(100_000_000, Time::ZERO)
    }

    /// A 1 Gbit/s Ethernet link with no propagation delay.
    pub fn gigabit_ethernet() -> Self {
        LinkSpec::new(1_000_000_000, Time::ZERO)
    }

    /// The data rate in bits per second.
    pub fn data_rate_bps(&self) -> u64 {
        self.data_rate_bps
    }

    /// The propagation delay of the medium.
    pub fn propagation_delay(&self) -> Time {
        self.propagation_delay
    }

    /// The transmission delay (`ld` in the paper) of a frame of
    /// `frame_bytes` bytes on this link, including propagation delay.
    ///
    /// The delay is rounded up to the next nanosecond so that schedules built
    /// from it are always conservative.
    pub fn transmission_delay(&self, frame_bytes: u32) -> Time {
        let bits = frame_bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.data_rate_bps as u128);
        Time::from_nanos(ns as i64) + self.propagation_delay
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::fast_ethernet()
    }
}

/// A directed link of the topology, i.e. one egress port of its source node.
///
/// Two [`Link`]s with swapped endpoints are created for every full-duplex
/// physical connection added through [`Topology::connect`].
///
/// [`Topology::connect`]: crate::Topology::connect
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    id: LinkId,
    source: NodeId,
    target: NodeId,
    spec: LinkSpec,
    /// The link going in the opposite direction over the same physical cable.
    reverse: LinkId,
}

impl Link {
    pub(crate) fn new(
        id: LinkId,
        source: NodeId,
        target: NodeId,
        spec: LinkSpec,
        reverse: LinkId,
    ) -> Self {
        Link {
            id,
            source,
            target,
            spec,
            reverse,
        }
    }

    /// The identifier of this directed link.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The node transmitting on this link.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The node receiving on this link.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The physical properties of the link.
    pub fn spec(&self) -> LinkSpec {
        self.spec
    }

    /// The directed link of the opposite direction on the same cable.
    pub fn reverse(&self) -> LinkId {
        self.reverse
    }

    /// The transmission delay of a frame of `frame_bytes` bytes on this link.
    pub fn transmission_delay(&self, frame_bytes: u32) -> Time {
        self.spec.transmission_delay(frame_bytes)
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.source, self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_delay_matches_paper_case_study() {
        // 1500 bytes at 10 Mbit/s = 1.2 ms.
        let spec = LinkSpec::automotive_10mbps();
        assert_eq!(spec.transmission_delay(1500), Time::from_micros(1200));
        // 1500 bytes at 100 Mbit/s = 120 us.
        assert_eq!(
            LinkSpec::fast_ethernet().transmission_delay(1500),
            Time::from_micros(120)
        );
        // 64 bytes at 1 Gbit/s = 512 ns.
        assert_eq!(
            LinkSpec::gigabit_ethernet().transmission_delay(64),
            Time::from_nanos(512)
        );
    }

    #[test]
    fn transmission_delay_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s, must round up to full ns.
        let spec = LinkSpec::new(3, Time::ZERO);
        assert_eq!(spec.transmission_delay(1), Time::from_nanos(2_666_666_667));
    }

    #[test]
    fn propagation_delay_is_added() {
        let spec = LinkSpec::new(10_000_000, Time::from_micros(2));
        assert_eq!(spec.transmission_delay(1500), Time::from_micros(1202));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = LinkSpec::new(0, Time::ZERO);
    }
}
