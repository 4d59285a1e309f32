//! PROM: Path-based, Randomized, Oblivious, Minimal routing.
//!
//! At every hop inside the minimal rectangle the packet chooses among the
//! minimal next hops with probability proportional to the number of minimal
//! lattice paths that continue through each of them — this realizes a uniform
//! distribution over all minimal paths using only local, table-driven
//! decisions, and is exactly the weighting HORNET's tables support natively.

use crate::geometry::{Geometry, Topology};
use crate::ids::NodeId;
use crate::routing::table::{RoutingTable, TableBuilder};
use crate::routing::FlowSpec;

/// Number of minimal lattice paths between two points that are `dx` apart in x
/// and `dy` apart in y: the binomial coefficient C(dx + dy, dx), computed with
/// saturating 64-bit arithmetic (plenty for on-chip mesh dimensions).
fn lattice_paths(dx: u64, dy: u64) -> f64 {
    // C(dx+dy, dx) built multiplicatively to stay accurate for small inputs.
    let k = dx.min(dy);
    let n = dx + dy;
    let mut result = 1.0f64;
    for i in 0..k {
        result *= (n - i) as f64 / (i + 1) as f64;
    }
    result
}

/// Builds PROM routing tables.
///
/// PROM is defined on 2-D meshes; on other topologies
/// [`build_routing`](crate::routing::build_routing) routes it as XY, the
/// degenerate single-minimal-path case of PROM.
///
/// # Panics
///
/// Panics if `geometry` is not a 2-D mesh.
pub fn build_prom_tables(geometry: &Geometry, flows: &[FlowSpec]) -> Vec<RoutingTable> {
    assert!(
        matches!(geometry.topology(), Topology::Mesh2D { .. }),
        "PROM tables are built for 2-D meshes"
    );
    let mut tables = vec![TableBuilder::new(); geometry.node_count()];
    let mut prevs: Vec<NodeId> = Vec::new();
    let mut options: Vec<(NodeId, f64)> = Vec::with_capacity(2);
    for spec in flows {
        let (dx, dy, _) = geometry.coords(spec.dst).expect("mesh coords");
        let (sx, sy, _) = geometry.coords(spec.src).expect("mesh coords");
        let (x0, x1) = (sx.min(dx), sx.max(dx));
        let (y0, y1) = (sy.min(dy), sy.max(dy));
        for y in y0..=y1 {
            for x in x0..=x1 {
                let node = geometry.node_at(x, y, 0).expect("in-mesh node");
                // Possible predecessors: any rectangle neighbour that could
                // have forwarded the packet here, plus the node itself if it
                // is the source (local injection).
                prevs.clear();
                prevs.extend(geometry.neighbors(node).iter().copied().filter(|&p| {
                    let (px, py, _) = geometry.coords(p).expect("mesh coords");
                    px >= x0 && px <= x1 && py >= y0 && py <= y1
                }));
                if node == spec.src {
                    prevs.push(node);
                }
                if node == spec.dst {
                    for &prev in &prevs {
                        tables[node.index()].add(prev, spec.flow, node, spec.flow, 1.0);
                    }
                    continue;
                }
                // Minimal next hops: one step toward the destination in x
                // and/or in y, weighted by the number of minimal paths that
                // remain after taking that step.
                options.clear();
                if x != dx {
                    let nx = if dx > x { x + 1 } else { x - 1 };
                    let next = geometry.node_at(nx, y, 0).expect("in-mesh node");
                    let rem_x = dx.abs_diff(nx) as u64;
                    let rem_y = dy.abs_diff(y) as u64;
                    options.push((next, lattice_paths(rem_x, rem_y)));
                }
                if y != dy {
                    let ny = if dy > y { y + 1 } else { y - 1 };
                    let next = geometry.node_at(x, ny, 0).expect("in-mesh node");
                    let rem_x = dx.abs_diff(x) as u64;
                    let rem_y = dy.abs_diff(ny) as u64;
                    options.push((next, lattice_paths(rem_x, rem_y)));
                }
                for &prev in &prevs {
                    for &(next, w) in &options {
                        tables[node.index()].add(prev, spec.flow, next, spec.flow, w);
                    }
                }
            }
        }
    }
    tables.into_iter().map(TableBuilder::freeze).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{trace_route, RoutingPolicy};
    use std::sync::Arc;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn lattice_path_counts() {
        assert_eq!(lattice_paths(0, 0), 1.0);
        assert_eq!(lattice_paths(3, 0), 1.0);
        assert_eq!(lattice_paths(1, 1), 2.0);
        assert_eq!(lattice_paths(2, 2), 6.0);
        assert_eq!(lattice_paths(3, 2), 10.0);
    }

    #[test]
    fn prom_source_weights_match_path_counts() {
        // 3x3 mesh, flow 6 -> 2 (opposite corners): 6 = (0,2), 2 = (2,0).
        // From the source there are C(4,2)=6 minimal paths; 3 start with +x
        // (leaving C(3,1)=3 paths) and 3 start with -y.
        let g = Geometry::mesh2d(3, 3);
        let spec = FlowSpec::pair(n(6), n(2), 9);
        let tables = build_prom_tables(&g, &[spec]);
        let options = tables[6].lookup(n(6), spec.flow);
        assert_eq!(options.len(), 2);
        for o in options {
            assert!((o.weight - 0.5).abs() < 1e-9, "{options:?}");
        }
    }

    #[test]
    fn prom_routes_reach_destination_minimally() {
        let g = Geometry::mesh2d(4, 4);
        let flows = FlowSpec::all_to_all(&g);
        let tables = build_prom_tables(&g, &flows);
        let pol: Vec<RoutingPolicy> = tables
            .into_iter()
            .map(|t| RoutingPolicy::Table(Arc::new(t)))
            .collect();
        for f in &flows {
            let path = trace_route(&pol, f.src, f.dst, f.flow, 32).expect("route");
            assert_eq!(*path.last().unwrap(), f.dst);
            assert_eq!(path.len() - 1, g.hop_distance(f.src, f.dst), "minimality");
        }
    }

    #[test]
    fn prom_falls_back_to_xy_on_rings() {
        use crate::routing::{build_routing, RoutingKind};
        let g = Geometry::ring(6);
        let flows = vec![FlowSpec::pair(n(0), n(3), 6)];
        let prom = build_routing(RoutingKind::Prom, &g, &flows);
        assert!(matches!(prom[0], RoutingPolicy::Dor(_)));
        let xy = build_routing(RoutingKind::Xy, &g, &flows);
        let f = flows[0];
        assert_eq!(
            trace_route(&prom, f.src, f.dst, f.flow, 8),
            trace_route(&xy, f.src, f.dst, f.flow, 8)
        );
        assert!(!prom[0].candidates(n(0), n(0), f.flow, f.dst).is_empty());
    }
}
