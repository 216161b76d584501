//! Resolved routes.
//!
//! A [`RoutePath`] is the deterministic hop sequence a transaction follows
//! from source to destination (the paper's L3 transaction layer routes data
//! "deterministically from the source to the destination"). It caches the
//! unloaded latency sum and the switch-hop count, which the engines and the
//! Table 2 bench consume.

use serde::{Deserialize, Serialize};

use crate::graph::Topology;
use crate::ids::{LinkId, NodeId};

/// One step of a route: the node arrived at, and the link used to get there
/// (`None` for the first hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hop {
    /// Node arrived at.
    pub node: NodeId,
    /// Link traversed to arrive, `None` at the route's origin.
    pub via: Option<LinkId>,
}

/// A resolved route with cached aggregates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutePath {
    /// Hop sequence, origin first.
    pub hops: Vec<Hop>,
    /// Sum of node service latencies and link propagation latencies, ns.
    pub latency_ns: f64,
    /// Number of NoC switches traversed.
    pub switch_hops: u32,
}

impl RoutePath {
    /// A route from a node to itself.
    pub(crate) fn trivial(node: NodeId, node_latency_ns: f64) -> Self {
        RoutePath {
            hops: vec![Hop { node, via: None }],
            latency_ns: node_latency_ns,
            switch_hops: 0,
        }
    }

    /// Builds a route from a hop sequence, computing aggregates from the
    /// topology's node and link latencies.
    pub(crate) fn from_hops(hops: Vec<Hop>, topo: &Topology) -> Self {
        let mut latency_ns = 0.0;
        let mut switch_hops = 0;
        for hop in &hops {
            let node = topo.node(hop.node);
            latency_ns += node.latency_ns;
            if node.kind.is_switch() {
                switch_hops += 1;
            }
            if let Some(link) = hop.via {
                latency_ns += topo.link(link).latency_ns;
            }
        }
        RoutePath {
            hops,
            latency_ns,
            switch_hops,
        }
    }

    /// The route's origin node.
    pub fn source(&self) -> NodeId {
        self.hops.first().expect("route is never empty").node
    }

    /// The route's destination node.
    pub fn destination(&self) -> NodeId {
        self.hops.last().expect("route is never empty").node
    }

    /// Link ids along the route, in traversal order.
    pub fn link_sequence(&self) -> Vec<LinkId> {
        self.hops.iter().filter_map(|h| h.via).collect()
    }

    /// Number of links traversed.
    pub fn link_count(&self) -> usize {
        self.hops.len().saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CoreId, DimmId};
    use crate::spec::PlatformSpec;

    #[test]
    fn endpoints_and_sequences() {
        let t = Topology::build(&PlatformSpec::epyc_7302());
        let p = t.route_core_to_dimm(CoreId(0), DimmId(0));
        assert_eq!(p.source(), t.core_node(CoreId(0)));
        assert_eq!(p.destination(), t.dimm_node(DimmId(0)));
        assert_eq!(p.link_sequence().len(), p.link_count());
        assert_eq!(p.hops.len(), p.link_count() + 1);
    }

    #[test]
    fn links_connect_consecutive_nodes() {
        let t = Topology::build(&PlatformSpec::epyc_9634());
        let p = t.route_core_to_dimm(CoreId(10), DimmId(5));
        for w in p.hops.windows(2) {
            let link = t.link(w[1].via.expect("non-first hop has link"));
            let (a, b) = (w[0].node, w[1].node);
            assert!(
                (link.a == a && link.b == b) || (link.a == b && link.b == a),
                "link does not join consecutive hops"
            );
        }
    }

    #[test]
    fn latency_is_positive_for_memory_routes() {
        let t = Topology::build(&PlatformSpec::epyc_7302());
        let p = t.route_core_to_dimm(CoreId(0), DimmId(0));
        assert!(p.latency_ns >= 100.0);
    }
}
