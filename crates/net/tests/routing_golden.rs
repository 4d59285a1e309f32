//! Pins the exact routes every oblivious and static scheme returns.
//!
//! For each node, every `(prev, flow)` key with `prev` a neighbour or the node
//! itself and `flow` a declared flow or its auxiliary-phase rename is read
//! back in key order (prev, then flow) through
//! `RoutingPolicy::candidates_into`, and the options of every non-empty answer
//! are hashed in the order the policy returns them as `(next_node, next_flow,
//! weight bits)`. The router draws among those options by cumulative weight,
//! so a change of option order or of a single weight bit changes which hop a
//! packet takes; the digests below make any such change visible. Where the
//! policy is a frozen table, the keys found must also be every key it holds.

use hornet_net::geometry::Geometry;
use hornet_net::ids::{FlowId, NodeId};
use hornet_net::routing::multiphase::AUX_PHASE;
use hornet_net::routing::{build_routing, FlowSpec, RoutingKind, RoutingPolicy};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of every route of `kind` on a `side`×`side` mesh with all-to-all
/// flows, plus the number of non-empty `(node, prev, flow)` keys hashed.
fn digest(kind: RoutingKind, side: usize) -> (u64, usize) {
    let g = Geometry::mesh2d(side, side);
    let specs = FlowSpec::all_to_all(&g);
    let policies = build_routing(kind, &g, &specs);
    // Every flow identifier a table can hold: the base flows and their
    // auxiliary-phase renames, in `FlowId` order.
    let mut flows: Vec<FlowId> = specs
        .iter()
        .flat_map(|s| [s.flow, s.flow.with_phase(AUX_PHASE)])
        .collect();
    flows.sort();
    let n = g.node_count();
    let mut h = Fnv::new();
    let mut entries = 0;
    let mut options = Vec::new();
    for node in g.nodes() {
        let policy = &policies[node.index()];
        assert!(!policy.is_adaptive(), "{kind:?} is adaptive");
        let mut prevs: Vec<NodeId> = g.neighbors(node).to_vec();
        prevs.push(node);
        prevs.sort();
        let mut found = 0;
        for &prev in &prevs {
            for &flow in &flows {
                policy.candidates_into(node, prev, flow, flow.destination(n), &mut options);
                if options.is_empty() {
                    continue;
                }
                found += 1;
                h.u32(node.raw());
                h.u32(prev.raw());
                h.u64(flow.raw());
                h.u32(options.len() as u32);
                for o in &options {
                    h.u32(o.next_node.raw());
                    h.u64(o.next_flow.raw());
                    h.u64(o.weight.to_bits());
                }
            }
        }
        if let RoutingPolicy::Table(table) = policy {
            assert_eq!(
                found,
                table.len(),
                "{kind:?} node {node}: an entry is keyed outside (neighbour or self, flow)"
            );
        }
        entries += found;
    }
    (h.0, entries)
}

#[test]
fn every_table_driven_scheme_builds_the_pinned_tables() {
    let expected: [(RoutingKind, usize, u64, usize); 14] = [
        (RoutingKind::Xy, 4, 0xd33b_62d1_03d2_dcd5, 880),
        (RoutingKind::Yx, 4, 0xeeb6_80c3_5ff5_f6e5, 880),
        (RoutingKind::O1Turn, 4, 0x72c8_24f5_5b11_9315, 1360),
        (RoutingKind::Valiant, 4, 0x9240_9f58_b1b6_705d, 7344),
        (RoutingKind::Romm, 4, 0x7292_790d_d503_2b6d, 2080),
        (RoutingKind::Prom, 4, 0x69df_4075_f150_c695, 3120),
        (
            RoutingKind::StaticLoadBalanced,
            4,
            0x1575_289d_3a24_c88f,
            880,
        ),
        (RoutingKind::Xy, 8, 0x04d5_4254_4aae_8dc5, 25536),
        (RoutingKind::Yx, 8, 0x0164_d7a6_6ae3_ac05, 25536),
        (RoutingKind::O1Turn, 8, 0x5464_208a_bf2f_3c45, 44352),
        (RoutingKind::Valiant, 8, 0x648c_4123_111c_9d2d, 511168),
        (RoutingKind::Romm, 8, 0x26aa_e577_0725_aa9d, 99456),
        (RoutingKind::Prom, 8, 0x32bb_5c31_58f5_4a29, 159936),
        (
            RoutingKind::StaticLoadBalanced,
            8,
            0x2ff1_4a7a_0b6a_df44,
            25536,
        ),
    ];
    let mut mismatches = Vec::new();
    for (kind, side, want_digest, want_entries) in expected {
        let (got_digest, got_entries) = digest(kind, side);
        if (got_digest, got_entries) != (want_digest, want_entries) {
            mismatches.push(format!(
                "(RoutingKind::{kind:?}, {side}, {got_digest:#018x}, {got_entries}),"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "tables moved:\n{}",
        mismatches.join("\n")
    );
}
