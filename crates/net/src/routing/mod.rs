//! Routing: oblivious and static schemes as weighted next-hop sets, and
//! adaptive routing.
//!
//! HORNET routes packets with per-node routing tables addressed by
//! `⟨previous node, flow⟩`; each entry is a set of weighted next-hop results
//! `{⟨next node, next flow, weight⟩, …}`. When a lookup returns several
//! options one is chosen at random with probability proportional to its
//! weight, and the packet's flow identifier is renamed to `next flow` — this
//! single mechanism expresses DOR (XY/YX), O1TURN, Valiant, ROMM, PROM and
//! application-aware static routing.
//!
//! A table is a cache of a function. Where that function is a few compares
//! on coordinates — XY, YX and O1TURN on lines, rings, meshes, tori and fully
//! connected multi-layer meshes — [`RoutingPolicy::Dor`] computes each
//! answer instead ([`DorRoutes`]), bit for bit what the table would hold,
//! from state that grows as one bit per pair flow rather than one entry per
//! flow per hop. Valiant, ROMM, PROM and static load-balanced routing keep
//! frozen [`RoutingTable`]s: their weights come from merging routes over
//! intermediate nodes or from global analysis. So do XY, YX and O1TURN on
//! custom geometries and on multi-layer meshes with sparse vertical links,
//! whose routes detour by breadth-first search. Adaptive routing bypasses
//! both and selects among minimal next hops based on downstream congestion.

pub mod adaptive;
pub mod dor;
pub mod multiphase;
pub mod prom;
pub mod staticlb;
pub mod table;

pub use adaptive::DistanceMatrix;
pub use dor::DorRoutes;
use dor::DorScheme;
pub use table::{NextHop, RoutingTable, TableBuilder};

use crate::geometry::{Geometry, Topology};
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
    /// Dimension-ordered routing (XY, YX, O1TURN) computed from coordinates.
    Dor(Arc<DorRoutes>),
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
            RoutingPolicy::Dor(routes) => routes.candidates_into(node, prev, flow, out),
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
/// `flows` must list every flow the traffic will use; oblivious and static
/// schemes only route those flows (exactly like HORNET's configuration files
/// do), whether from tables or computed. `(kind, geometry)` alone picks the
/// representation: XY, YX and O1TURN are computed ([`RoutingPolicy::Dor`])
/// on every geometry whose dimension-ordered routes follow coordinates —
/// lines, rings, 2-D meshes and tori, `XCube` multi-layer meshes — and
/// tabled elsewhere; PROM is XY off 2-D meshes; every other oblivious or
/// static scheme builds frozen tables.
///
/// # Panics
///
/// Panics if a tabled scheme gets a flow whose destination is unreachable
/// from its source (on a custom geometry, where routes are breadth-first
/// paths), or a computed one a flow whose identifier is not its pair's
/// canonical one ([`FlowSpec::pair`]).
pub fn build_routing(
    kind: RoutingKind,
    geometry: &Geometry,
    flows: &[FlowSpec],
) -> Vec<RoutingPolicy> {
    let n = geometry.node_count();
    let kind = match kind {
        // PROM is defined on 2-D meshes; elsewhere its one minimal path is XY.
        RoutingKind::Prom if !matches!(geometry.topology(), Topology::Mesh2D { .. }) => {
            RoutingKind::Xy
        }
        kind => kind,
    };
    let scheme = match kind {
        RoutingKind::Xy => Some(DorScheme::Single(dor::DimensionOrder::XFirst)),
        RoutingKind::Yx => Some(DorScheme::Single(dor::DimensionOrder::YFirst)),
        RoutingKind::O1Turn => Some(DorScheme::O1Turn),
        _ => None,
    };
    if let Some(routes) = scheme.and_then(|s| DorRoutes::new(geometry, flows, s)) {
        let routes = Arc::new(routes);
        return (0..n)
            .map(|_| RoutingPolicy::Dor(Arc::clone(&routes)))
            .collect();
    }
    let tables = match kind {
        // No coordinate route: custom geometries and sparse multi-layer meshes.
        RoutingKind::Xy => dor::build_dor_tables(geometry, flows, dor::DimensionOrder::XFirst),
        RoutingKind::Yx => dor::build_dor_tables(geometry, flows, dor::DimensionOrder::YFirst),
        RoutingKind::O1Turn => multiphase::build_o1turn_tables(geometry, flows),
        RoutingKind::Valiant => multiphase::build_valiant_tables(geometry, flows, false),
        RoutingKind::Romm => multiphase::build_valiant_tables(geometry, flows, true),
        RoutingKind::Prom => prom::build_prom_tables(geometry, flows),
        RoutingKind::StaticLoadBalanced => staticlb::build_static_tables(geometry, flows),
        RoutingKind::AdaptiveMinimal => {
            let dist = Arc::new(DistanceMatrix::new(geometry));
            return (0..n)
                .map(|_| RoutingPolicy::AdaptiveMinimal(Arc::clone(&dist)))
                .collect();
        }
    };
    tables
        .into_iter()
        .map(|t| RoutingPolicy::Table(Arc::new(t)))
        .collect()
}

/// Follows an oblivious or static route from `src` to `dst`, always taking the
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
    fn dimension_ordered_kinds_are_computed_on_meshes_and_tabled_without_coordinates() {
        use crate::geometry::{Connection, VerticalLinks};
        let mesh = Geometry::mesh2d(4, 4);
        let custom = Geometry::custom(
            3,
            vec![
                Connection::new(NodeId::new(0), NodeId::new(1)),
                Connection::new(NodeId::new(1), NodeId::new(2)),
            ],
        );
        let sparse = Geometry::mesh3d(2, 2, 2, VerticalLinks::X1);
        for kind in [RoutingKind::Xy, RoutingKind::Yx, RoutingKind::O1Turn] {
            let policies = build_routing(kind, &mesh, &FlowSpec::all_to_all(&mesh));
            let RoutingPolicy::Dor(routes) = &policies[0] else {
                panic!("{kind:?} on a mesh is not computed");
            };
            assert!(policies
                .iter()
                .all(|p| matches!(p, RoutingPolicy::Dor(r) if Arc::ptr_eq(r, routes))));
            for g in [&custom, &sparse] {
                let policies = build_routing(kind, g, &FlowSpec::all_to_all(g));
                assert!(
                    matches!(policies[0], RoutingPolicy::Table(_)),
                    "{kind:?} on {:?}",
                    g.topology()
                );
            }
        }
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
