//! Dimension-ordered routing (DOR): XY and YX, on meshes, tori, rings and
//! multi-layer meshes. For custom geometries without coordinates the builder
//! falls back to breadth-first shortest paths.

use crate::geometry::{Geometry, Topology};
use crate::ids::{FlowId, NodeId};
use crate::routing::table::{RoutingTable, TableBuilder};
use crate::routing::FlowSpec;

/// Which dimension is resolved first.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DimensionOrder {
    /// Route X first, then Y, then layer (classic XY / DOR).
    XFirst,
    /// Route Y first, then X, then layer.
    YFirst,
}

/// Steps one coordinate toward a target, honouring torus wraparound when the
/// geometry provides it.
fn step_toward(cur: usize, dst: usize, extent: usize, wraps: bool) -> usize {
    if cur == dst {
        return cur;
    }
    if wraps {
        let forward = (dst + extent - cur) % extent;
        let backward = (cur + extent - dst) % extent;
        if forward <= backward {
            (cur + 1) % extent
        } else {
            (cur + extent - 1) % extent
        }
    } else if dst > cur {
        cur + 1
    } else {
        cur - 1
    }
}

/// Computes the dimension-ordered path (inclusive of both endpoints) from
/// `src` to `dst`.
///
/// For `Custom` geometries this degenerates to a breadth-first shortest path
/// (the geometry has no coordinate system to order dimensions by).
///
/// # Panics
///
/// Panics if the geometry is disconnected between `src` and `dst`.
pub fn dor_path(
    geometry: &Geometry,
    src: NodeId,
    dst: NodeId,
    order: DimensionOrder,
) -> Vec<NodeId> {
    let mut path = Vec::new();
    dor_path_into(geometry, src, dst, order, &mut path);
    path
}

/// [`dor_path`] into a caller-owned buffer (cleared first), so table builders
/// can reuse one allocation for every flow.
///
/// # Panics
///
/// Panics if the geometry is disconnected between `src` and `dst`.
pub fn dor_path_into(
    geometry: &Geometry,
    src: NodeId,
    dst: NodeId,
    order: DimensionOrder,
    path: &mut Vec<NodeId>,
) {
    path.clear();
    path.push(src);
    if src == dst {
        return;
    }
    match geometry.topology() {
        Topology::Custom { .. } => *path = bfs_path(geometry, src, dst),
        topo => {
            let wraps = matches!(topo, Topology::Torus2D { .. } | Topology::Ring { .. });
            let width = geometry.width().expect("coordinate topology");
            let height = geometry.height().expect("coordinate topology");
            let layers = match topo {
                Topology::Mesh3D { layers, .. } => *layers,
                _ => 1,
            };
            let (mut x, mut y, mut l) = geometry.coords(src).expect("coordinate topology");
            let (dx, dy, dl) = geometry.coords(dst).expect("coordinate topology");
            let mut guard = 0usize;
            let max_steps = width + height + layers + 4;
            while (x, y, l) != (dx, dy, dl) {
                guard += 1;
                assert!(
                    guard <= max_steps * 2,
                    "dimension-ordered routing failed to converge"
                );
                match order {
                    DimensionOrder::XFirst => {
                        if x != dx {
                            x = step_toward(x, dx, width, wraps);
                        } else if y != dy {
                            y = step_toward(y, dy, height, wraps);
                        } else {
                            l = step_toward(l, dl, layers, false);
                        }
                    }
                    DimensionOrder::YFirst => {
                        if y != dy {
                            y = step_toward(y, dy, height, wraps);
                        } else if x != dx {
                            x = step_toward(x, dx, width, wraps);
                        } else {
                            l = step_toward(l, dl, layers, false);
                        }
                    }
                }
                let next = geometry
                    .node_at(x, y, l)
                    .expect("dimension-ordered step stayed inside the geometry");
                // Multi-layer meshes with sparse vertical links may not have a
                // direct link for the layer step from an arbitrary (x, y);
                // route within the layer to a pillar first by falling back to
                // BFS in that rare case.
                if !geometry.connected(*path.last().unwrap(), next) {
                    *path = bfs_path(geometry, src, dst);
                    return;
                }
                path.push(next);
            }
        }
    }
}

/// Breadth-first shortest path (inclusive of endpoints).
///
/// # Panics
///
/// Panics if `dst` is unreachable from `src`.
pub fn bfs_path(geometry: &Geometry, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    if src == dst {
        return vec![src];
    }
    let n = geometry.node_count();
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    seen[src.index()] = true;
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        if v == dst {
            break;
        }
        for &w in geometry.neighbors(v) {
            if !seen[w.index()] {
                seen[w.index()] = true;
                prev[w.index()] = Some(v);
                queue.push_back(w);
            }
        }
    }
    assert!(
        seen[dst.index()],
        "destination {dst} unreachable from {src}"
    );
    let mut path = vec![dst];
    let mut cur = dst;
    while let Some(p) = prev[cur.index()] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    path
}

/// Installs a single path into per-node routing tables for a flow, with the
/// given weight, keeping the flow identifier constant along the path.
pub fn install_path(tables: &mut [TableBuilder], path: &[NodeId], flow: FlowId, weight: f64) {
    install_path_with_flows(tables, path, |_| flow, weight);
}

/// Installs a path where each position may carry a different (renamed) flow
/// identifier. `flow_at(i)` is the flow identifier the packet carries when it
/// is *at* `path[i]`; renaming to `flow_at(i + 1)` happens on the hop out of
/// `path[i]`.
pub fn install_path_with_flows(
    tables: &mut [TableBuilder],
    path: &[NodeId],
    flow_at: impl Fn(usize) -> FlowId,
    weight: f64,
) {
    for (i, &node) in path.iter().enumerate() {
        let prev = if i == 0 { node } else { path[i - 1] };
        let flow_here = flow_at(i);
        match path.get(i + 1) {
            Some(&next) => tables[node.index()].add(prev, flow_here, next, flow_at(i + 1), weight),
            // Terminal entry: deliver locally, restoring the base flow.
            None => {
                tables[node.index()].add(prev, flow_here, node, flow_here.with_phase(0), weight)
            }
        }
    }
}

/// Builds dimension-ordered routing tables for the given flows.
pub fn build_dor_tables(
    geometry: &Geometry,
    flows: &[FlowSpec],
    order: DimensionOrder,
) -> Vec<RoutingTable> {
    let mut tables = vec![TableBuilder::new(); geometry.node_count()];
    let mut path = Vec::new();
    for spec in flows {
        dor_path_into(geometry, spec.src, spec.dst, order, &mut path);
        install_path(&mut tables, &path, spec.flow, 1.0);
    }
    tables.into_iter().map(TableBuilder::freeze).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn xy_path_on_mesh_matches_paper_example() {
        // Paper Figure 3a: 3x3 mesh, flow from node 6 to node 2 goes
        // 6 -> 7 -> 8 -> 5 -> 2 under XY routing.
        let g = Geometry::mesh2d(3, 3);
        let path = dor_path(&g, n(6), n(2), DimensionOrder::XFirst);
        assert_eq!(path, vec![n(6), n(7), n(8), n(5), n(2)]);
    }

    #[test]
    fn yx_path_on_mesh() {
        let g = Geometry::mesh2d(3, 3);
        let path = dor_path(&g, n(6), n(2), DimensionOrder::YFirst);
        assert_eq!(path, vec![n(6), n(3), n(0), n(1), n(2)]);
    }

    #[test]
    fn dor_path_is_minimal_on_mesh() {
        let g = Geometry::mesh2d(8, 8);
        for (s, d) in [(0u32, 63u32), (7, 56), (12, 34), (63, 0)] {
            let path = dor_path(&g, n(s), n(d), DimensionOrder::XFirst);
            assert_eq!(path.len() - 1, g.hop_distance(n(s), n(d)));
        }
    }

    #[test]
    fn torus_uses_wraparound_when_shorter() {
        let g = Geometry::torus2d(8, 8);
        // 0 -> 7 is 1 hop across the wraparound link.
        let path = dor_path(&g, n(0), n(7), DimensionOrder::XFirst);
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn path_to_self_is_single_node() {
        let g = Geometry::mesh2d(4, 4);
        assert_eq!(dor_path(&g, n(5), n(5), DimensionOrder::XFirst), vec![n(5)]);
    }

    #[test]
    fn bfs_path_works_on_custom_geometry() {
        use crate::geometry::Connection;
        let g = Geometry::custom(
            4,
            vec![
                Connection::new(n(0), n(1)),
                Connection::new(n(1), n(2)),
                Connection::new(n(2), n(3)),
                Connection::new(n(0), n(3)),
            ],
        );
        let path = dor_path(&g, n(0), n(2), DimensionOrder::XFirst);
        assert_eq!(path.len(), 3); // 0-1-2 or 0-3-2
    }

    #[test]
    fn tables_have_entries_along_the_path_only() {
        let g = Geometry::mesh2d(3, 3);
        let flow = FlowSpec::pair(n(6), n(2), 9);
        let tables = build_dor_tables(&g, &[flow], DimensionOrder::XFirst);
        // Nodes on the path 6,7,8,5,2 have an entry; others don't.
        for (i, t) in tables.iter().enumerate() {
            let expected = [6usize, 7, 8, 5, 2].contains(&i);
            assert_eq!(!t.is_empty(), expected, "node {i}");
        }
        // Source entry keyed by (self, flow).
        let src_entry = tables[6].lookup(n(6), flow.flow);
        assert_eq!(src_entry.len(), 1);
        assert_eq!(src_entry[0].next_node, n(7));
        // Terminal entry at the destination delivers locally.
        let dst_entry = tables[2].lookup(n(5), flow.flow);
        assert_eq!(dst_entry.len(), 1);
        assert_eq!(dst_entry[0].next_node, n(2));
    }

    #[test]
    fn mesh3d_dor_path_reaches_other_layer() {
        use crate::geometry::VerticalLinks;
        let g = Geometry::mesh3d(3, 3, 2, VerticalLinks::XCube);
        let path = dor_path(&g, n(0), n(17), DimensionOrder::XFirst);
        assert_eq!(*path.last().unwrap(), n(17));
        for w in path.windows(2) {
            assert!(g.connected(w[0], w[1]));
        }
    }

    #[test]
    fn mesh3d_sparse_vertical_falls_back_to_bfs() {
        use crate::geometry::VerticalLinks;
        let g = Geometry::mesh3d(3, 3, 2, VerticalLinks::X1);
        // Destination on the other layer far from the single pillar at (0,0).
        let src = g.node_at(2, 2, 0).unwrap();
        let dst = g.node_at(2, 2, 1).unwrap();
        let path = dor_path(&g, src, dst, DimensionOrder::XFirst);
        assert_eq!(*path.last().unwrap(), dst);
        for w in path.windows(2) {
            assert!(g.connected(w[0], w[1]));
        }
    }
}
