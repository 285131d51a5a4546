//! Wire codecs for the network substrate: topologies, link specifications
//! and node kinds as JSON documents.
//!
//! The synthesis daemon (`tsn_service`) receives whole problems over the
//! wire, so the network itself needs a codec. A topology is encoded as its
//! node list plus one entry per *physical* link, in creation order; decoding
//! replays [`Topology::add_node`] / [`Topology::connect`] in that order,
//! which reproduces the exact same [`NodeId`](crate::NodeId) /
//! [`LinkId`](crate::LinkId) assignment — encoder and decoder round-trip
//! bit-exactly, including ids.

use crate::json::{bad, echo, get_arr, get_i64, get_str, get_u64, Json, JsonError};
use crate::{LinkSpec, NodeKind, Time, Topology};

/// Encodes a [`Time`] as exact integer nanoseconds.
pub fn time_to_json(t: Time) -> Json {
    Json::Int(t.as_nanos())
}

/// Decodes a [`Time`] from integer nanoseconds.
///
/// # Errors
///
/// Returns a [`JsonError`] when the value is not an integer.
pub fn time_from_json(json: &Json) -> Result<Time, JsonError> {
    json.as_i64()
        .map(Time::from_nanos)
        .ok_or_else(|| bad("time is not an integer nanosecond count"))
}

/// Decodes member `key` of `json` as a delay: a [`Time`] that is not
/// negative. Every link propagation and switch forwarding delay read from
/// outside input goes through here; a negative one would let a schedule run
/// backwards along its route and still pass verification.
///
/// # Errors
///
/// Returns a [`JsonError`] when the member is missing, not an integer or
/// negative.
pub fn delay_from_json(json: &Json, key: &str) -> Result<Time, JsonError> {
    let delay = time_from_json(json.field(key)?)?;
    if delay.is_negative() {
        return Err(bad(format!("member {key:?} is a negative delay")));
    }
    Ok(delay)
}

/// Encodes a [`NodeKind`] as its lowercase name.
pub fn node_kind_to_json(kind: NodeKind) -> Json {
    Json::from(match kind {
        NodeKind::Switch => "switch",
        NodeKind::Sensor => "sensor",
        NodeKind::Controller => "controller",
    })
}

/// Decodes a [`NodeKind`] from its lowercase name.
///
/// # Errors
///
/// Returns a [`JsonError`] for unknown kind names.
pub fn node_kind_from_json(json: &Json) -> Result<NodeKind, JsonError> {
    match json.as_str() {
        Some("switch") => Ok(NodeKind::Switch),
        Some("sensor") => Ok(NodeKind::Sensor),
        Some("controller") => Ok(NodeKind::Controller),
        Some(other) => Err(bad(format!("unknown node kind {}", echo(other)))),
        None => Err(bad("node kind is not a string")),
    }
}

/// Encodes a [`LinkSpec`] as data rate and propagation delay.
pub fn link_spec_to_json(spec: LinkSpec) -> Json {
    Json::obj([
        ("rate_bps", Json::Int(spec.data_rate_bps() as i64)),
        ("prop_ns", time_to_json(spec.propagation_delay())),
    ])
}

/// Decodes a [`LinkSpec`].
///
/// # Errors
///
/// Returns a [`JsonError`] for malformed members, a non-positive data
/// rate or a negative propagation delay.
pub fn link_spec_from_json(json: &Json) -> Result<LinkSpec, JsonError> {
    let rate = get_u64(json, "rate_bps")?;
    if rate == 0 {
        return Err(bad("link data rate must be positive"));
    }
    Ok(LinkSpec::new(rate, delay_from_json(json, "prop_ns")?))
}

/// Encodes a [`Topology`]: the node list plus one `{a, b, spec}` entry per
/// physical link, both in creation order.
pub fn topology_to_json(topology: &Topology) -> Json {
    let nodes = topology
        .nodes()
        .map(|n| {
            Json::obj([
                ("name", Json::from(n.name())),
                ("kind", node_kind_to_json(n.kind())),
            ])
        })
        .collect();
    // Each physical link appears as two directed links; keep the first
    // direction of each pair (creation order), which `connect` re-creates.
    let links = topology
        .links()
        .filter(|l| l.id().index() < l.reverse().index())
        .map(|l| {
            Json::obj([
                ("a", Json::from(l.source().index())),
                ("b", Json::from(l.target().index())),
                ("spec", link_spec_to_json(l.spec())),
            ])
        })
        .collect();
    Json::obj([("nodes", Json::Arr(nodes)), ("links", Json::Arr(links))])
}

/// Decodes a [`Topology`] by replaying node and link creation.
///
/// # Errors
///
/// Returns a [`JsonError`] for malformed members or a link list that
/// violates the topology invariants (unknown endpoints, duplicate links,
/// end stations with more than one port).
pub fn topology_from_json(json: &Json) -> Result<Topology, JsonError> {
    let mut topology = Topology::new();
    for node in get_arr(json, "nodes")? {
        topology.add_node(
            get_str(node, "name")?,
            node_kind_from_json(node.field("kind")?)?,
        );
    }
    let node_id = |json: &Json, key: &str| -> Result<crate::NodeId, JsonError> {
        u32::try_from(get_i64(json, key)?)
            .map(crate::NodeId::new)
            .map_err(|_| bad(format!("member {key:?} is not a valid node index")))
    };
    for link in get_arr(json, "links")? {
        let a = node_id(link, "a")?;
        let b = node_id(link, "b")?;
        let spec = link_spec_from_json(link.field("spec")?)?;
        topology
            .connect(a, b, spec)
            .map_err(|e| bad(format!("invalid link: {e}")))?;
    }
    Ok(topology)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn figure1_topology_round_trips_bit_exactly() {
        let net = builders::figure1_example(LinkSpec::fast_ethernet());
        let json = topology_to_json(&net.topology);
        let text = json.to_string();
        let back = topology_from_json(&Json::parse(&text).unwrap()).unwrap();
        // Same document again — ids, names, kinds and specs all survived.
        assert_eq!(topology_to_json(&back), json);
        assert_eq!(back.node_count(), net.topology.node_count());
        assert_eq!(back.link_count(), net.topology.link_count());
        for (a, b) in net.topology.links().zip(back.links()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.source(), b.source());
            assert_eq!(a.target(), b.target());
            assert_eq!(a.reverse(), b.reverse());
            assert_eq!(a.spec(), b.spec());
        }
        assert!(back.is_connected());
        // Lookups work on the decoded topology.
        for l in net.topology.links() {
            assert_eq!(back.link_between(l.source(), l.target()), Some(l.id()));
        }
    }

    #[test]
    fn mixed_speed_topologies_keep_their_specs() {
        let mut t = Topology::new();
        let s = t.add_node("s", NodeKind::Sensor);
        let sw0 = t.add_node("sw0", NodeKind::Switch);
        let sw1 = t.add_node("sw1", NodeKind::Switch);
        let c = t.add_node("c", NodeKind::Controller);
        t.connect(s, sw0, LinkSpec::fast_ethernet()).unwrap();
        t.connect(sw0, sw1, LinkSpec::gigabit_ethernet()).unwrap();
        t.connect(sw1, c, LinkSpec::new(10_000_000, Time::from_nanos(50)))
            .unwrap();
        let back = topology_from_json(&topology_to_json(&t)).unwrap();
        assert_eq!(topology_to_json(&back), topology_to_json(&t));
        let l = back.link_between(sw1, c).unwrap();
        assert_eq!(
            back.link(l).spec().propagation_delay(),
            Time::from_nanos(50)
        );
    }

    #[test]
    fn malformed_topologies_are_rejected() {
        for bad_doc in [
            r#"{"nodes": [], "links": [{"a":0,"b":1,"spec":{"rate_bps":1,"prop_ns":0}}]}"#,
            r#"{"nodes": [{"name":"x","kind":"router"}], "links": []}"#,
            r#"{"nodes": [{"name":"x"}], "links": []}"#,
            r#"{"nodes": 3, "links": []}"#,
            r#"{"links": []}"#,
            r#"{"nodes": [{"name":"a","kind":"switch"},{"name":"b","kind":"switch"}],
                "links": [{"a":0,"b":1,"spec":{"rate_bps":0,"prop_ns":0}}]}"#,
        ] {
            let doc = Json::parse(bad_doc).unwrap();
            assert!(topology_from_json(&doc).is_err(), "accepted: {bad_doc}");
        }
    }

    #[test]
    fn self_and_duplicate_links_fail_decoding() {
        let two = r#"{"nodes": [{"name":"a","kind":"switch"},{"name":"b","kind":"switch"}],
            "links": [{"a":0,"b":1,"spec":{"rate_bps":1000,"prop_ns":0}},
                      {"a":1,"b":0,"spec":{"rate_bps":1000,"prop_ns":0}}]}"#;
        assert!(topology_from_json(&Json::parse(two).unwrap()).is_err());
    }
}
