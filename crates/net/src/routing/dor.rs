//! Dimension-ordered routing (DOR): XY and YX, on meshes, tori, rings and
//! multi-layer meshes. For custom geometries without coordinates the builder
//! falls back to breadth-first shortest paths.
//!
//! Where coordinates define the route, [`DorRoutes`] computes each hop (for
//! XY, YX and O1TURN) with the same one step [`dor_path_into`] takes;
//! [`build_dor_tables`] serves the other geometries and is the oracle the
//! computed routes are tested against.

use crate::geometry::{Geometry, Topology, VerticalLinks};
use crate::ids::{FlowId, NodeId};
use crate::routing::multiphase::AUX_PHASE;
use crate::routing::table::{NextHop, RoutingTable, TableBuilder};
use crate::routing::FlowSpec;

/// Which dimension is resolved first.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DimensionOrder {
    /// Route X first, then Y, then layer (classic XY / DOR).
    XFirst,
    /// Route Y first, then X, then layer.
    YFirst,
}

impl DimensionOrder {
    /// The dimensions (0 = x, 1 = y, 2 = layer) in the order a route resolves
    /// them.
    fn dims(self) -> [usize; 3] {
        match self {
            DimensionOrder::XFirst => [0, 1, 2],
            DimensionOrder::YFirst => [1, 0, 2],
        }
    }
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

/// The coordinate system of a geometry that has one: per-dimension extents
/// (x, y, layer) and whether x and y wrap around (tori and rings; layers
/// never wrap). Node `(x, y, l)` is number `(l·height + y)·width + x`, which
/// is how every coordinate topology numbers its nodes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Grid {
    extent: [usize; 3],
    wraps: bool,
}

impl Grid {
    /// The grid of `geometry`, or `None` for a custom geometry.
    fn of(geometry: &Geometry) -> Option<Self> {
        let layers = match geometry.topology() {
            Topology::Custom { .. } => return None,
            Topology::Mesh3D { layers, .. } => *layers,
            _ => 1,
        };
        Some(Self {
            extent: [geometry.width()?, geometry.height()?, layers],
            wraps: matches!(
                geometry.topology(),
                Topology::Torus2D { .. } | Topology::Ring { .. }
            ),
        })
    }

    fn wraps(&self, dim: usize) -> bool {
        self.wraps && dim < 2
    }

    fn coords(&self, node: NodeId) -> [usize; 3] {
        let [w, h, _] = self.extent;
        let i = node.index();
        [i % w, i / w % h, i / (w * h)]
    }

    fn node_at(&self, c: [usize; 3]) -> NodeId {
        let [w, h, _] = self.extent;
        NodeId::from((c[2] * h + c[1]) * w + c[0])
    }

    /// The one dimension-ordered step from `cur` toward `dst`: the first
    /// dimension in `order` where they differ moves one hop (the short way
    /// round where it wraps, forward on a tie). `cur` itself if they are equal.
    fn step(&self, cur: [usize; 3], dst: [usize; 3], order: DimensionOrder) -> [usize; 3] {
        let mut next = cur;
        if let Some(d) = order.dims().into_iter().find(|&d| cur[d] != dst[d]) {
            next[d] = step_toward(cur[d], dst[d], self.extent[d], self.wraps(d));
        }
        next
    }

    /// If coordinate `at` of dimension `dim` lies on the walk that
    /// [`step`](Self::step) takes from `from` toward `to`, other than at
    /// `from` itself, the coordinate the walk visited just before it.
    fn back_along(&self, dim: usize, from: usize, at: usize, to: usize) -> Option<usize> {
        let e = self.extent[dim];
        if self.wraps(dim) {
            // Hops from `a` up to `b`, wrapping.
            let up = |a: usize, b: usize| (b + e - a) % e;
            let ahead = up(from, to);
            if ahead <= e - ahead {
                (0 < up(from, at) && up(from, at) <= ahead).then(|| (at + e - 1) % e)
            } else {
                (0 < up(at, from) && up(at, from) <= e - ahead).then(|| (at + 1) % e)
            }
        } else if to > from {
            (from < at && at <= to).then(|| at - 1)
        } else {
            (to <= at && at < from).then(|| at + 1)
        }
    }

    /// The node a packet on the `order` route from `src` to `dst` visits
    /// just before `at`: `at` itself if `at` is the source, `None` if the
    /// route does not pass `at`.
    fn predecessor(
        &self,
        order: DimensionOrder,
        at: [usize; 3],
        src: [usize; 3],
        dst: [usize; 3],
    ) -> Option<[usize; 3]> {
        let dims = order.dims();
        // The route resolves dimensions one after another, so `at` is on the
        // stretch along the last dimension in which it has left the source,
        // every earlier dimension already at the destination's value.
        let Some(k) = (0..3).rev().find(|&k| at[dims[k]] != src[dims[k]]) else {
            return Some(at);
        };
        if dims[..k].iter().any(|&d| at[d] != dst[d]) {
            return None;
        }
        let d = dims[k];
        let mut prev = at;
        prev[d] = self.back_along(d, src[d], at[d], dst[d])?;
        Some(prev)
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
    let Some(grid) = Grid::of(geometry) else {
        *path = bfs_path(geometry, src, dst);
        return;
    };
    let (mut cur, to) = (grid.coords(src), grid.coords(dst));
    while cur != to {
        cur = grid.step(cur, to, order);
        let next = grid.node_at(cur);
        // Multi-layer meshes with sparse vertical links may not have a direct
        // link for the layer step from an arbitrary (x, y); route within the
        // layer to a pillar first by falling back to BFS in that case.
        if !geometry.connected(*path.last().unwrap(), next) {
            *path = bfs_path(geometry, src, dst);
            return;
        }
        path.push(next);
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
///
/// [`build_routing`](crate::routing::build_routing) uses [`DorRoutes`]
/// instead wherever coordinates define the route.
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

/// Which dimension-ordered scheme a [`DorRoutes`] computes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum DorScheme {
    /// Every flow takes the route of one dimension order (XY or YX).
    Single(DimensionOrder),
    /// O1TURN: at its source a flow takes the XY or the YX route with equal
    /// weight; the YX subroute carries the flow renamed to [`AUX_PHASE`].
    O1Turn,
}

/// Dimension-ordered routes computed from node coordinates: the function
/// that a [`build_dor_tables`] or
/// [`build_o1turn_tables`](crate::routing::multiphase::build_o1turn_tables)
/// table caches.
///
/// Every `(node, prev, flow)` key gets exactly the options the frozen table
/// holds, in the same order and with the same weight bits, and nothing where
/// the table has no entry: an undeclared flow, or a `prev` that is not the
/// flow's predecessor on its route. One instance serves every node; its state
/// is the nodes' coordinates and one bit per pair flow (`src · N + dst`)
/// marking the declared ones, N² bits in place of an entry per flow per hop.
#[derive(Clone, Debug)]
pub struct DorRoutes {
    scheme: DorScheme,
    grid: Grid,
    coords: Vec<[u32; 3]>,
    declared: Vec<u64>,
}

impl DorRoutes {
    /// Computed `scheme` routes for `flows`, or `None` where a route is not a
    /// function of coordinates alone: custom geometries (breadth-first paths)
    /// and multi-layer meshes whose sparse vertical links send some routes
    /// through a breadth-first detour.
    ///
    /// # Panics
    ///
    /// Panics if a flow's identifier is not its pair's canonical one
    /// ([`FlowSpec::pair`]): routes read source and destination from it.
    pub(crate) fn new(geometry: &Geometry, flows: &[FlowSpec], scheme: DorScheme) -> Option<Self> {
        if let Topology::Mesh3D { vertical, .. } = geometry.topology() {
            if *vertical != VerticalLinks::XCube {
                return None;
            }
        }
        let grid = Grid::of(geometry)?;
        let n = geometry.node_count();
        let mut declared = vec![0u64; (n * n).div_ceil(64)];
        for spec in flows {
            assert_eq!(
                spec.flow,
                FlowId::for_pair(spec.src, spec.dst, n),
                "flow {} → {} does not carry its pair's identifier",
                spec.src,
                spec.dst
            );
            let bit = spec.flow.base() as usize;
            declared[bit / 64] |= 1 << (bit % 64);
        }
        let coords = geometry
            .nodes()
            .map(|v| grid.coords(v).map(|c| c as u32))
            .collect();
        Some(Self {
            scheme,
            grid,
            coords,
            declared,
        })
    }

    /// Appends to `out` the options for a packet of flow `flow` that arrived
    /// at `node` from `prev` (`prev == node` for local injection).
    pub fn candidates_into(
        &self,
        node: NodeId,
        prev: NodeId,
        flow: FlowId,
        out: &mut Vec<NextHop>,
    ) {
        let n = self.coords.len() as u64;
        let base = flow.base();
        if base >= n * n || self.declared[(base / 64) as usize] & 1 << (base % 64) == 0 {
            return;
        }
        let (src, dst) = ((base / n) as usize, (base % n) as usize);
        let ends = (self.at(src), self.at(dst));
        // The XY and YX routes differ exactly when both x and y change.
        let turns = ends.0[0] != ends.1[0] && ends.0[1] != ends.1[1];
        match (self.scheme, flow.phase()) {
            (DorScheme::Single(order), 0) => out.extend(self.follow(order, node, prev, flow, ends)),
            (DorScheme::O1Turn, 0) if turns && node.index() == src && prev == node => {
                let here = ends.0;
                for (order, next_flow) in [
                    (DimensionOrder::XFirst, flow),
                    (DimensionOrder::YFirst, flow.with_phase(AUX_PHASE)),
                ] {
                    out.push(NextHop {
                        next_node: self.grid.node_at(self.grid.step(here, ends.1, order)),
                        next_flow,
                        weight: 0.5,
                    });
                }
            }
            (DorScheme::O1Turn, 0) => {
                out.extend(self.follow(DimensionOrder::XFirst, node, prev, flow, ends))
            }
            (DorScheme::O1Turn, AUX_PHASE) if turns && node.index() != src => {
                out.extend(self.follow(DimensionOrder::YFirst, node, prev, flow, ends))
            }
            _ => {}
        }
    }

    /// The one option at `node` of the `order` route between `ends`, if
    /// `prev` is the node that route visits just before `node`.
    fn follow(
        &self,
        order: DimensionOrder,
        node: NodeId,
        prev: NodeId,
        flow: FlowId,
        (src, dst): ([usize; 3], [usize; 3]),
    ) -> Option<NextHop> {
        let here = self.at(node.index());
        let before = self.grid.predecessor(order, here, src, dst)?;
        if self.grid.node_at(before) != prev {
            return None;
        }
        Some(if here == dst {
            // Deliver locally, restoring the base flow.
            NextHop {
                next_node: node,
                next_flow: flow.with_phase(0),
                weight: 1.0,
            }
        } else {
            NextHop {
                next_node: self.grid.node_at(self.grid.step(here, dst, order)),
                next_flow: flow,
                weight: 1.0,
            }
        })
    }

    fn at(&self, node: usize) -> [usize; 3] {
        self.coords[node].map(|c| c as usize)
    }

    /// Bytes of heap memory the routes own (shared by every node).
    pub fn heap_bytes(&self) -> usize {
        self.coords.capacity() * std::mem::size_of::<[u32; 3]>()
            + self.declared.capacity() * std::mem::size_of::<u64>()
    }
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

    /// Pair flows `i → t(i)` where `t` maps `(x, y, l)` to `(y, x, l)` where
    /// that is a node and `i` to `N − 1 − i` otherwise; self pairs are left
    /// out.
    fn transpose(g: &Geometry) -> Vec<FlowSpec> {
        let n = g.node_count();
        g.nodes()
            .filter_map(|s| {
                let (x, y, l) = g.coords(s).unwrap();
                let d = g
                    .node_at(y, x, l)
                    .unwrap_or(NodeId::from(n - 1 - s.index()));
                (s != d).then(|| FlowSpec::pair(s, d, n))
            })
            .collect()
    }

    /// Every `(node, prev, flow)` key, with `prev` a neighbour or the node
    /// itself and `flow` any pair flow or its auxiliary-phase rename, gets
    /// from the computed routes exactly the options the frozen table holds:
    /// same order, same weight bits, and none where it has no entry.
    fn assert_computed_equals_tables(g: &Geometry, flows: &[FlowSpec]) {
        use crate::routing::multiphase::build_o1turn_tables;
        use DimensionOrder::{XFirst, YFirst};
        let bits = |hops: &[NextHop]| -> Vec<(NodeId, FlowId, u64)> {
            hops.iter()
                .map(|h| (h.next_node, h.next_flow, h.weight.to_bits()))
                .collect()
        };
        let n = g.node_count();
        for (scheme, tables) in [
            (
                DorScheme::Single(XFirst),
                build_dor_tables(g, flows, XFirst),
            ),
            (
                DorScheme::Single(YFirst),
                build_dor_tables(g, flows, YFirst),
            ),
            (DorScheme::O1Turn, build_o1turn_tables(g, flows)),
        ] {
            let routes = DorRoutes::new(g, flows, scheme).expect("a coordinate geometry");
            let (mut out, mut answered) = (Vec::new(), 0);
            for node in g.nodes() {
                let mut prevs = g.neighbors(node).to_vec();
                prevs.push(node);
                for prev in prevs {
                    for base in 0..(n * n) as u64 {
                        let flow = FlowId::new(base);
                        for flow in [flow, flow.with_phase(AUX_PHASE)] {
                            out.clear();
                            routes.candidates_into(node, prev, flow, &mut out);
                            let want = tables[node.index()].lookup(prev, flow);
                            assert_eq!(
                                bits(&out),
                                bits(want),
                                "{:?} {scheme:?} at {node} from {prev}, {flow:?}",
                                g.topology()
                            );
                            answered += usize::from(!out.is_empty());
                        }
                    }
                }
            }
            let entries: usize = tables.iter().map(RoutingTable::len).sum();
            assert_eq!(answered, entries, "{:?} {scheme:?}", g.topology());
        }
    }

    fn assert_computed_equals_tables_for_both_flow_sets(geometries: &[Geometry]) {
        for g in geometries {
            assert_computed_equals_tables(g, &FlowSpec::all_to_all(g));
            assert_computed_equals_tables(g, &transpose(g));
        }
    }

    #[test]
    fn computed_routes_equal_the_frozen_tables_on_meshes() {
        assert_computed_equals_tables_for_both_flow_sets(&[
            Geometry::mesh2d(4, 4),
            Geometry::mesh2d(8, 8),
            Geometry::mesh2d(5, 3),
        ]);
    }

    #[test]
    fn computed_routes_equal_the_frozen_tables_on_tori_rings_and_3d_meshes() {
        use crate::geometry::VerticalLinks;
        // Tori with even and odd extents: half-way wrap ties go forward.
        assert_computed_equals_tables_for_both_flow_sets(&[
            Geometry::torus2d(4, 4),
            Geometry::torus2d(5, 5),
            Geometry::ring(7),
            Geometry::ring(6),
            Geometry::line(5),
            Geometry::mesh3d(3, 2, 3, VerticalLinks::XCube),
        ]);
    }

    #[test]
    fn routes_without_a_coordinate_function_are_not_computed() {
        use crate::geometry::{Connection, VerticalLinks};
        let scheme = DorScheme::Single(DimensionOrder::XFirst);
        let ring = Geometry::custom(
            3,
            vec![
                Connection::new(n(0), n(1)),
                Connection::new(n(1), n(2)),
                Connection::new(n(2), n(0)),
            ],
        );
        assert!(DorRoutes::new(&ring, &FlowSpec::all_to_all(&ring), scheme).is_none());
        for vertical in [VerticalLinks::X1, VerticalLinks::X1Y1] {
            let g = Geometry::mesh3d(3, 3, 2, vertical);
            assert!(DorRoutes::new(&g, &FlowSpec::all_to_all(&g), scheme).is_none());
        }
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
