//! Multi-phase oblivious routing: O1TURN, Valiant, and two-phase ROMM.
//!
//! These schemes are expressed with the same weighted routing tables as DOR by
//! (a) renaming the flow while the packet is in an auxiliary phase (the YX
//! subroute for O1TURN, the "heading to the intermediate node" phase for
//! Valiant/ROMM) and renaming it back at the phase boundary, and (b) merging
//! all routes that share a `(previous node, flow)` key into weighted entries.

use crate::geometry::{Geometry, Topology};
use crate::ids::NodeId;
use crate::routing::dor::{dor_path_into, install_path, install_path_with_flows, DimensionOrder};
use crate::routing::table::{RoutingTable, TableBuilder};
use crate::routing::FlowSpec;

/// Phase tag used for the YX subroute of O1TURN and the first (to-intermediate)
/// phase of Valiant/ROMM.
pub const AUX_PHASE: u8 = 1;

/// Builds O1TURN routing tables: each packet takes the XY path or the YX path
/// with equal probability; the YX subroute is renamed to phase 1 so that VC
/// allocation can keep the two subroutes on disjoint virtual channels
/// (the deadlock-freedom condition of O1TURN).
///
/// [`build_routing`](crate::routing::build_routing) computes these routes
/// instead wherever coordinates define them
/// ([`DorRoutes`](crate::routing::DorRoutes)); the tables serve the other
/// geometries and are the oracle the computed routes are tested against.
pub fn build_o1turn_tables(geometry: &Geometry, flows: &[FlowSpec]) -> Vec<RoutingTable> {
    let mut tables = vec![TableBuilder::new(); geometry.node_count()];
    let (mut xy, mut yx) = (Vec::new(), Vec::new());
    for spec in flows {
        dor_path_into(
            geometry,
            spec.src,
            spec.dst,
            DimensionOrder::XFirst,
            &mut xy,
        );
        dor_path_into(
            geometry,
            spec.src,
            spec.dst,
            DimensionOrder::YFirst,
            &mut yx,
        );
        if xy == yx {
            // Source and destination share a row or column: only one DOR path.
            install_path(&mut tables, &xy, spec.flow, 1.0);
            continue;
        }
        install_path(&mut tables, &xy, spec.flow, 0.5);
        // The packet is injected carrying the base flow.
        let aux = spec.flow.with_phase(AUX_PHASE);
        install_path_with_flows(
            &mut tables,
            &yx,
            |i| if i == 0 { spec.flow } else { aux },
            0.5,
        );
    }
    tables.into_iter().map(TableBuilder::freeze).collect()
}

/// Returns the candidate intermediate nodes for a flow: the whole network for
/// Valiant, the minimal rectangle spanned by source and destination for
/// two-phase ROMM.
fn intermediates(geometry: &Geometry, spec: &FlowSpec, minimal_rectangle: bool) -> Vec<NodeId> {
    if !minimal_rectangle {
        return geometry.nodes().collect();
    }
    match geometry.topology() {
        Topology::Mesh2D { .. } | Topology::Mesh3D { .. } => {
            let (sx, sy, sl) = geometry.coords(spec.src).expect("mesh coords");
            let (dx, dy, dl) = geometry.coords(spec.dst).expect("mesh coords");
            let (x0, x1) = (sx.min(dx), sx.max(dx));
            let (y0, y1) = (sy.min(dy), sy.max(dy));
            let (l0, l1) = (sl.min(dl), sl.max(dl));
            let mut nodes = Vec::new();
            for l in l0..=l1 {
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        if let Some(n) = geometry.node_at(x, y, l) {
                            nodes.push(n);
                        }
                    }
                }
            }
            nodes
        }
        // Rectangles are not well-defined on rings/tori/custom graphs; use the
        // set of nodes on minimal paths as the closest equivalent: nodes m with
        // d(s,m) + d(m,d) == d(s,d).
        _ => {
            let total = geometry.hop_distance(spec.src, spec.dst);
            geometry
                .nodes()
                .filter(|&m| {
                    geometry.hop_distance(spec.src, m) + geometry.hop_distance(m, spec.dst) == total
                })
                .collect()
        }
    }
}

/// Builds Valiant (`minimal_rectangle = false`) or two-phase ROMM
/// (`minimal_rectangle = true`) routing tables.
///
/// For each flow and each candidate intermediate node `m`, the route is the XY
/// path to `m` (phase 1, renamed flow) followed by the XY path from `m` to the
/// destination (phase 0, original flow); all routes of a flow are merged into
/// weighted table entries, which reproduces the construction described in the
/// paper (§II-A2): weights at a node are proportional to the number of
/// intermediate choices whose route continues through each next hop.
///
/// The table size (and construction time) is `O(flows × intermediates ×
/// path length)`; the paper's ROMM experiments use 8×8 meshes, where this is
/// trivially cheap. For all-to-all flow sets on ≥ 32×32 meshes prefer XY,
/// YX or O1TURN, which [`build_routing`](crate::routing::build_routing)
/// computes from coordinates with no tables at all (128 KiB of state at
/// 1 024 tiles).
pub fn build_valiant_tables(
    geometry: &Geometry,
    flows: &[FlowSpec],
    minimal_rectangle: bool,
) -> Vec<RoutingTable> {
    let mut tables = vec![TableBuilder::new(); geometry.node_count()];
    let (mut path, mut tail) = (Vec::new(), Vec::new());
    for spec in flows {
        let aux = spec.flow.with_phase(AUX_PHASE);
        for m in intermediates(geometry, spec, minimal_rectangle) {
            if m == spec.src || m == spec.dst {
                dor_path_into(
                    geometry,
                    spec.src,
                    spec.dst,
                    DimensionOrder::XFirst,
                    &mut path,
                );
                install_path(&mut tables, &path, spec.flow, 1.0);
                continue;
            }
            // Combined node sequence: src .. m .. dst (m appears once).
            dor_path_into(geometry, spec.src, m, DimensionOrder::XFirst, &mut path);
            let to_m = path.len();
            dor_path_into(geometry, m, spec.dst, DimensionOrder::XFirst, &mut tail);
            path.extend_from_slice(&tail[1..]);
            // Flow carried at each position: base at the source, the renamed
            // phase-1 flow until the intermediate node (inclusive), base after.
            let flow_at = |i| if i == 0 || i >= to_m { spec.flow } else { aux };
            install_path_with_flows(&mut tables, &path, flow_at, 1.0);
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

    fn policies(tables: Vec<RoutingTable>) -> Vec<RoutingPolicy> {
        tables
            .into_iter()
            .map(|t| RoutingPolicy::Table(Arc::new(t)))
            .collect()
    }

    #[test]
    fn o1turn_source_has_two_options() {
        // Paper Figure 3b: 3x3 mesh, flow 6 -> 2: start node has two entries
        // (via node 3 and via node 7) weighted equally.
        let g = Geometry::mesh2d(3, 3);
        let spec = FlowSpec::pair(n(6), n(2), 9);
        let tables = build_o1turn_tables(&g, &[spec]);
        let options = tables[6].lookup(n(6), spec.flow);
        assert_eq!(options.len(), 2);
        let nodes: Vec<_> = options.iter().map(|o| o.next_node).collect();
        assert!(nodes.contains(&n(3)) && nodes.contains(&n(7)));
        for o in options {
            assert!((o.weight - 0.5).abs() < 1e-9);
        }
        // Destination has two entries: one arriving from node 1 (YX) and one
        // from node 5 (XY).
        assert_eq!(tables[2].lookup(n(5), spec.flow).len(), 1);
        assert_eq!(
            tables[2]
                .lookup(n(1), spec.flow.with_phase(AUX_PHASE))
                .len(),
            1
        );
    }

    #[test]
    fn o1turn_degenerate_same_row_is_single_path() {
        let g = Geometry::mesh2d(3, 3);
        let spec = FlowSpec::pair(n(3), n(5), 9);
        let tables = build_o1turn_tables(&g, &[spec]);
        let options = tables[3].lookup(n(3), spec.flow);
        assert_eq!(options.len(), 1);
        assert!((options[0].weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn romm_intermediate_stays_in_rectangle() {
        let g = Geometry::mesh2d(3, 3);
        let spec = FlowSpec::pair(n(6), n(2), 9);
        let mids = intermediates(&g, &spec, true);
        // The 6..2 rectangle is the whole 3x3 mesh here.
        assert_eq!(mids.len(), 9);
        let spec2 = FlowSpec::pair(n(0), n(2), 9);
        let mids2 = intermediates(&g, &spec2, true);
        // Same-row flow: rectangle is just that row.
        assert_eq!(mids2.len(), 3);
    }

    #[test]
    fn romm_routes_always_reach_destination() {
        let g = Geometry::mesh2d(4, 4);
        let flows = crate::routing::FlowSpec::all_to_all(&g);
        let tables = build_valiant_tables(&g, &flows, true);
        let pol = policies(tables);
        for f in &flows {
            let path = trace_route(&pol, f.src, f.dst, f.flow, 64).expect("route");
            assert_eq!(*path.last().unwrap(), f.dst);
        }
    }

    #[test]
    fn valiant_uses_nonminimal_paths() {
        // With Valiant, the table at the source of a 1-hop flow must offer
        // next hops other than the destination (routes via far intermediates).
        let g = Geometry::mesh2d(4, 4);
        let spec = FlowSpec::pair(n(0), n(1), 16);
        let tables = build_valiant_tables(&g, &[spec], false);
        let options = tables[0].lookup(n(0), spec.flow);
        assert!(
            options.len() >= 2,
            "expected nonminimal options, got {options:?}"
        );
    }

    #[test]
    fn romm_paper_example_node4_weights() {
        // Paper §II-A2 example: flow 6 -> 2 on a 3x3 mesh; at node 4, a packet
        // arriving from node 7 (still in phase 1) goes to node 1 or node 5
        // with equal probability (one path each), renaming when it goes to 5.
        let g = Geometry::mesh2d(3, 3);
        let spec = FlowSpec::pair(n(6), n(2), 9);
        let tables = build_valiant_tables(&g, &[spec], true);
        let phase1 = spec.flow.with_phase(AUX_PHASE);
        let opts = tables[4].lookup(n(7), phase1);
        assert_eq!(opts.len(), 2, "{opts:?}");
        for o in opts {
            assert!((o.weight - 0.5).abs() < 1e-9, "{opts:?}");
            if o.next_node == n(5) {
                assert_eq!(o.next_flow, spec.flow, "renamed back after intermediate");
            } else {
                assert_eq!(o.next_node, n(1));
                assert_eq!(o.next_flow, phase1, "still heading to intermediate");
            }
        }
    }
}
