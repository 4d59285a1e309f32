//! Routing: table-driven oblivious/static schemes and adaptive routing.
//!
//! HORNET routes packets with per-node routing tables addressed by
//! `⟨previous node, flow⟩`; each entry is a set of weighted next-hop results
//! `{⟨next node, next flow, weight⟩, …}`. When a lookup returns several
//! options one is chosen at random with probability proportional to its
//! weight, and the packet's flow identifier is renamed to `next flow` — this
//! single mechanism expresses DOR (XY/YX), O1TURN, Valiant, ROMM, PROM and
//! application-aware static routing. Adaptive routing bypasses the tables and
//! selects among minimal next hops based on downstream congestion.

pub mod adaptive;
pub mod dor;
pub mod multiphase;
pub mod prom;
pub mod staticlb;
pub mod table;

pub use adaptive::DistanceMatrix;
pub use table::{NextHop, RoutingTable, TableBuilder};

use crate::geometry::Geometry;
use crate::ids::{FlowId, NodeId};
use std::sync::Arc;

/// A flow that the routing tables must be able to carry: a (source,
/// destination) pair plus its canonical flow identifier.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct FlowSpec {
    /// Canonical (phase-0) flow identifier.
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

impl FlowSpec {
    /// Creates a flow spec with the canonical pair flow identifier.
    pub fn pair(src: NodeId, dst: NodeId, node_count: usize) -> Self {
        Self {
            flow: FlowId::for_pair(src, dst, node_count),
            src,
            dst,
        }
    }

    /// All-to-all flows over a geometry (every ordered pair of distinct nodes).
    pub fn all_to_all(geometry: &Geometry) -> Vec<Self> {
        let n = geometry.node_count();
        let mut flows = Vec::with_capacity(n * (n - 1));
        for s in geometry.nodes() {
            for d in geometry.nodes() {
                if s != d {
                    flows.push(Self::pair(s, d, n));
                }
            }
        }
        flows
    }
}

/// The routing algorithm families available out of the box (paper §II-A2).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum RoutingKind {
    /// Dimension-ordered XY routing.
    Xy,
    /// Dimension-ordered YX routing.
    Yx,
    /// O1TURN: each packet picks XY or YX with equal probability.
    O1Turn,
    /// Valiant: route to a uniformly random intermediate node, then to the
    /// destination (both phases XY).
    Valiant,
    /// Two-phase ROMM: like Valiant but the intermediate node is restricted to
    /// the minimal rectangle between source and destination.
    Romm,
    /// PROM: probabilistic oblivious minimal routing — at every hop the next
    /// minimal direction is chosen with probability proportional to the number
    /// of remaining minimal paths through it.
    Prom,
    /// Application-aware static routing (BSOR-style): one fixed minimal path
    /// per flow, chosen greedily to balance link load.
    StaticLoadBalanced,
    /// Minimal adaptive routing: choose among minimal next hops by downstream
    /// buffer availability.
    AdaptiveMinimal,
}

impl RoutingKind {
    /// A short lowercase label, matching the figure legends of the paper.
    pub fn label(self) -> &'static str {
        match self {
            RoutingKind::Xy => "xy",
            RoutingKind::Yx => "yx",
            RoutingKind::O1Turn => "o1turn",
            RoutingKind::Valiant => "valiant",
            RoutingKind::Romm => "romm",
            RoutingKind::Prom => "prom",
            RoutingKind::StaticLoadBalanced => "static",
            RoutingKind::AdaptiveMinimal => "adaptive",
        }
    }

    /// True if this scheme needs more than one virtual-channel set to stay
    /// deadlock-free (subroute / phase separation).
    pub fn needs_phase_separated_vcs(self) -> bool {
        matches!(
            self,
            RoutingKind::O1Turn | RoutingKind::Valiant | RoutingKind::Romm
        )
    }
}

impl std::fmt::Display for RoutingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-node routing policy the router consults in its RC stage.
#[derive(Clone, Debug)]
pub enum RoutingPolicy {
    /// Table-driven (oblivious or static) routing.
    Table(Arc<RoutingTable>),
    /// Minimal adaptive routing over a shared distance matrix.
    AdaptiveMinimal(Arc<DistanceMatrix>),
}

impl RoutingPolicy {
    /// Returns the weighted next-hop candidates for a packet of flow `flow`
    /// heading to `dst` that arrived at `node` from `prev` (where
    /// `prev == node` denotes local injection).
    ///
    /// Returns an empty vector if the policy has no route — the router treats
    /// that as a configuration error and drops the packet while counting it.
    pub fn candidates(
        &self,
        node: NodeId,
        prev: NodeId,
        flow: FlowId,
        dst: NodeId,
    ) -> Vec<NextHop> {
        let mut out = Vec::new();
        self.candidates_into(node, prev, flow, dst, &mut out);
        out
    }

    /// Allocation-free variant of [`candidates`](Self::candidates): clears
    /// `out` and fills it with the weighted next-hop candidates. The router's
    /// RC stage calls this every cycle with a reusable scratch vector, so the
    /// steady-state hot path never touches the heap.
    pub fn candidates_into(
        &self,
        node: NodeId,
        prev: NodeId,
        flow: FlowId,
        dst: NodeId,
        out: &mut Vec<NextHop>,
    ) {
        out.clear();
        match self {
            RoutingPolicy::Table(table) => out.extend_from_slice(table.lookup(prev, flow)),
            RoutingPolicy::AdaptiveMinimal(dist) => {
                if node == dst {
                    out.push(NextHop {
                        next_node: node,
                        next_flow: flow,
                        weight: 1.0,
                    });
                    return;
                }
                for &w in dist.neighbors_of(node) {
                    if dist.is_minimal_hop(node, w, dst) {
                        out.push(NextHop {
                            next_node: w,
                            next_flow: flow,
                            weight: 1.0,
                        });
                    }
                }
            }
        }
    }

    /// True if the router should break ties among candidates by downstream
    /// congestion rather than by weighted random selection.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, RoutingPolicy::AdaptiveMinimal(_))
    }
}

/// Builds one routing policy per node for the requested scheme.
///
/// `flows` must list every flow the traffic will use; table-driven schemes
/// only install entries for those flows (exactly like HORNET's configuration
/// files do).
///
/// # Panics
///
/// Panics if a table-driven scheme is requested for a geometry without
/// coordinates (custom geometries support `Xy` = BFS shortest path,
/// `StaticLoadBalanced` and `AdaptiveMinimal` only).
pub fn build_routing(
    kind: RoutingKind,
    geometry: &Geometry,
    flows: &[FlowSpec],
) -> Vec<RoutingPolicy> {
    let tables = match kind {
        RoutingKind::Xy => dor::build_dor_tables(geometry, flows, dor::DimensionOrder::XFirst),
        RoutingKind::Yx => dor::build_dor_tables(geometry, flows, dor::DimensionOrder::YFirst),
        RoutingKind::O1Turn => multiphase::build_o1turn_tables(geometry, flows),
        RoutingKind::Valiant => multiphase::build_valiant_tables(geometry, flows, false),
        RoutingKind::Romm => multiphase::build_valiant_tables(geometry, flows, true),
        RoutingKind::Prom => prom::build_prom_tables(geometry, flows),
        RoutingKind::StaticLoadBalanced => staticlb::build_static_tables(geometry, flows),
        RoutingKind::AdaptiveMinimal => {
            let dist = Arc::new(DistanceMatrix::new(geometry));
            return (0..geometry.node_count())
                .map(|_| RoutingPolicy::AdaptiveMinimal(Arc::clone(&dist)))
                .collect();
        }
    };
    tables
        .into_iter()
        .map(|t| RoutingPolicy::Table(Arc::new(t)))
        .collect()
}

/// Follows a table-driven route from `src` to `dst`, always taking the
/// highest-weight option, and returns the node sequence. Used by tests and by
/// the congestion-oblivious (ideal) network model to compute hop counts.
pub fn trace_route(
    policies: &[RoutingPolicy],
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    max_hops: usize,
) -> Option<Vec<NodeId>> {
    let mut path = vec![src];
    let mut cur = src;
    let mut prev = src;
    let mut cur_flow = flow;
    for _ in 0..max_hops {
        let cands = policies[cur.index()].candidates(cur, prev, cur_flow, dst);
        let best = cands
            .iter()
            .max_by(|a, b| a.weight.partial_cmp(&b.weight).unwrap())?;
        if best.next_node == cur {
            return Some(path);
        }
        prev = cur;
        cur = best.next_node;
        cur_flow = best.next_flow;
        path.push(cur);
        if cur == dst {
            // Verify the table can terminate at the destination.
            let terminal = policies[cur.index()].candidates(cur, prev, cur_flow, dst);
            if terminal.iter().any(|h| h.next_node == cur) {
                return Some(path);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_kind_labels_are_unique() {
        use std::collections::HashSet;
        let kinds = [
            RoutingKind::Xy,
            RoutingKind::Yx,
            RoutingKind::O1Turn,
            RoutingKind::Valiant,
            RoutingKind::Romm,
            RoutingKind::Prom,
            RoutingKind::StaticLoadBalanced,
            RoutingKind::AdaptiveMinimal,
        ];
        let labels: HashSet<_> = kinds.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), kinds.len());
        assert!(RoutingKind::Romm.needs_phase_separated_vcs());
        assert!(!RoutingKind::Xy.needs_phase_separated_vcs());
    }

    #[test]
    fn flow_spec_all_to_all_counts() {
        let g = Geometry::mesh2d(3, 3);
        let flows = FlowSpec::all_to_all(&g);
        assert_eq!(flows.len(), 9 * 8);
        assert!(flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn every_kind_routes_a_small_mesh() {
        let g = Geometry::mesh2d(4, 4);
        let flows = FlowSpec::all_to_all(&g);
        for kind in [
            RoutingKind::Xy,
            RoutingKind::Yx,
            RoutingKind::O1Turn,
            RoutingKind::Valiant,
            RoutingKind::Romm,
            RoutingKind::Prom,
            RoutingKind::StaticLoadBalanced,
            RoutingKind::AdaptiveMinimal,
        ] {
            let policies = build_routing(kind, &g, &flows);
            assert_eq!(policies.len(), 16);
            for f in &flows {
                let path = trace_route(&policies, f.src, f.dst, f.flow, 64)
                    .unwrap_or_else(|| panic!("{kind:?} failed to route {f:?}"));
                assert_eq!(*path.first().unwrap(), f.src);
                assert_eq!(*path.last().unwrap(), f.dst, "{kind:?} {f:?} path {path:?}");
                // Consecutive path nodes must be physically connected.
                for w in path.windows(2) {
                    assert!(g.connected(w[0], w[1]), "{kind:?} hop {w:?} not a link");
                }
            }
        }
    }
}
