//! The per-node routing table: `⟨prev node, flow⟩ → {⟨next node, next flow, weight⟩}`.
//!
//! Tables are built, then frozen. A [`TableBuilder`] appends one record per
//! [`add`](TableBuilder::add); [`freeze`](TableBuilder::freeze) sorts the
//! records by key, merges each key's options and normalises their weights into
//! a read-only [`RoutingTable`]: every option in one contiguous array in key
//! order, one 16-byte key per entry naming where its options start, and an
//! open-addressed index of key positions.

use crate::ids::{FlowId, NodeId};

/// One weighted next-hop option returned by a routing-table lookup.
///
/// `next_node == <current node>` denotes delivery to the locally attached
/// agent (the packet has reached its destination).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NextHop {
    /// Node to forward the packet to (or the current node, for delivery).
    pub next_node: NodeId,
    /// Flow identifier the packet is renamed to when taking this hop.
    pub next_flow: FlowId,
    /// Relative selection weight (need not be normalised).
    pub weight: f64,
}

/// One `add` call, as recorded by a [`TableBuilder`].
#[derive(Copy, Clone, Debug)]
struct Record {
    prev: NodeId,
    next_node: NodeId,
    flow: FlowId,
    next_flow: FlowId,
    weight: f64,
}

/// Collects the options of one node's routing table.
#[derive(Clone, Debug, Default)]
pub struct TableBuilder {
    records: Vec<Record>,
}

impl TableBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds weight `weight` to the option `(next_node, next_flow)` of the
    /// entry addressed by `(prev, flow)`, creating either if absent.
    ///
    /// Accumulating weights lets multi-phase table generators (Valiant, ROMM)
    /// express "several routes with different intermediate destinations but
    /// the same next hop" as a single weighted entry.
    pub fn add(
        &mut self,
        prev: NodeId,
        flow: FlowId,
        next_node: NodeId,
        next_flow: FlowId,
        weight: f64,
    ) {
        self.records.push(Record {
            prev,
            next_node,
            flow,
            next_flow,
            weight,
        });
    }

    /// Builds the table.
    ///
    /// Each entry lists its options in the order they were first added, and
    /// an option's weight is the sum of its added weights in the order they
    /// were added, divided by the sum of the entry's weights (entries whose
    /// weights sum to zero keep them as added). The router draws among the
    /// options by cumulative weight, so both orders are part of the result.
    ///
    /// # Panics
    ///
    /// Panics if the table would hold 2³² options or more.
    pub fn freeze(mut self) -> RoutingTable {
        // Stable: records of one key stay in the order they were added.
        assert!(
            u32::try_from(self.records.len()).is_ok(),
            "a routing table holds fewer than 2^32 options"
        );
        self.records.sort_by_key(|r| (r.prev, r.flow));
        let groups = || {
            self.records
                .chunk_by(|a, b| (a.prev, a.flow) == (b.prev, b.flow))
        };
        let mut keys = Vec::with_capacity(groups().count());
        let mut hops: Vec<NextHop> = Vec::with_capacity(self.records.len());
        for group in groups() {
            let start = hops.len();
            for r in group {
                match hops[start..]
                    .iter_mut()
                    .find(|o| o.next_node == r.next_node && o.next_flow == r.next_flow)
                {
                    Some(o) => o.weight += r.weight,
                    None => hops.push(NextHop {
                        next_node: r.next_node,
                        next_flow: r.next_flow,
                        weight: r.weight,
                    }),
                }
            }
            let options = &mut hops[start..];
            let total: f64 = options.iter().map(|o| o.weight).sum();
            if total > 0.0 {
                for o in options.iter_mut() {
                    o.weight /= total;
                }
            }
            keys.push(Key {
                flow: group[0].flow,
                prev: group[0].prev,
                start: start as u32,
            });
        }
        hops.shrink_to_fit();
        let index = if keys.is_empty() {
            Vec::new()
        } else {
            // Load factor below 2/3: an empty slot always ends a probe.
            let slots = (keys.len() + keys.len() / 2 + 1).next_power_of_two();
            let mut index = vec![EMPTY; slots];
            for (i, key) in keys.iter().enumerate() {
                let mut slot = home_slot(key.prev, key.flow, slots);
                while index[slot] != EMPTY {
                    slot = (slot + 1) & (slots - 1);
                }
                index[slot] = i as u32;
            }
            index
        };
        RoutingTable { keys, hops, index }
    }
}

/// One `(prev, flow)` entry of a frozen table: its options are
/// `hops[start..]` up to the next key's `start`.
#[derive(Copy, Clone, Debug)]
struct Key {
    flow: FlowId,
    prev: NodeId,
    start: u32,
}

/// An unused slot of [`RoutingTable::index`].
const EMPTY: u32 = u32::MAX;

/// The slot a linear probe for `(prev, flow)` starts at, in an index of
/// `slots` (a power of two, at least 2) slots: Fibonacci hashing of the key
/// packed into one word.
fn home_slot(prev: NodeId, flow: FlowId, slots: usize) -> usize {
    let word = flow.raw() ^ (u64::from(prev.raw()) << 32);
    (word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - slots.trailing_zeros())) as usize
}

/// A per-node routing table, frozen by [`TableBuilder::freeze`].
///
/// Lookups are addressed by `⟨previous node, flow⟩`; the previous node of a
/// locally injected packet is the node itself, exactly as in the paper's
/// example for XY routing.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    /// Entries sorted by `(prev, flow)`.
    keys: Vec<Key>,
    /// Every entry's options, in key order.
    hops: Vec<NextHop>,
    /// Open-addressed (linear probing) positions in `keys`; empty, or a power
    /// of two of at least 2 slots with at least one `EMPTY`.
    index: Vec<u32>,
}

impl RoutingTable {
    /// Looks up the weighted next-hop set for `(prev, flow)`.
    ///
    /// Returns an empty slice when the table has no entry (a mis-configured
    /// flow); the router counts such packets as routing failures.
    pub fn lookup(&self, prev: NodeId, flow: FlowId) -> &[NextHop] {
        if self.index.is_empty() {
            return &[];
        }
        let mut slot = home_slot(prev, flow, self.index.len());
        loop {
            let i = self.index[slot];
            if i == EMPTY {
                return &[];
            }
            let key = &self.keys[i as usize];
            if key.prev == prev && key.flow == flow {
                let end = self
                    .keys
                    .get(i as usize + 1)
                    .map_or(self.hops.len(), |next| next.start as usize);
                return &self.hops[key.start as usize..end];
            }
            slot = (slot + 1) & (self.index.len() - 1);
        }
    }

    /// Number of `(prev, flow)` entries in the table.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Bytes of heap memory the table owns.
    pub fn heap_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<Key>()
            + self.hops.capacity() * std::mem::size_of::<NextHop>()
            + self.index.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }
    fn f(i: u64) -> FlowId {
        FlowId::new(i)
    }

    #[test]
    fn add_and_lookup() {
        let mut b = TableBuilder::new();
        b.add(n(6), f(1), n(7), f(1), 1.0);
        let t = b.freeze();
        assert_eq!(t.lookup(n(6), f(1)).len(), 1);
        assert_eq!(t.lookup(n(6), f(2)).len(), 0);
        assert_eq!(t.lookup(n(5), f(1)).len(), 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn weights_accumulate_for_same_option() {
        let mut b = TableBuilder::new();
        b.add(n(0), f(1), n(1), f(1), 1.0);
        b.add(n(0), f(1), n(2), f(1), 1.0);
        b.add(n(0), f(1), n(1), f(1), 2.0);
        let options = b.freeze().lookup(n(0), f(1)).to_vec();
        assert_eq!(options.len(), 2);
        // First-seen order survives the merge.
        assert_eq!(options[0].next_node, n(1));
        assert_eq!(options[0].weight, 0.75);
        assert_eq!(options[1].weight, 0.25);
    }

    #[test]
    fn options_keep_first_seen_order_across_interleaved_keys() {
        let mut b = TableBuilder::new();
        b.add(n(3), f(9), n(4), f(9), 1.0);
        b.add(n(0), f(1), n(2), f(1), 1.0);
        b.add(n(3), f(9), n(2), f(9), 1.0);
        b.add(n(0), f(1), n(1), f(1), 1.0);
        let t = b.freeze();
        let nodes = |prev, flow| -> Vec<NodeId> {
            t.lookup(prev, flow).iter().map(|o| o.next_node).collect()
        };
        assert_eq!(nodes(n(0), f(1)), vec![n(2), n(1)]);
        assert_eq!(nodes(n(3), f(9)), vec![n(4), n(2)]);
    }

    #[test]
    fn renamed_flows_are_distinct_options() {
        let mut b = TableBuilder::new();
        b.add(n(0), f(1), n(1), f(1), 1.0);
        b.add(n(0), f(1), n(1), f(1).with_phase(1), 1.0);
        assert_eq!(b.freeze().lookup(n(0), f(1)).len(), 2);
    }

    #[test]
    fn freeze_normalises_weights() {
        let mut b = TableBuilder::new();
        b.add(n(0), f(1), n(1), f(1), 1.0);
        b.add(n(0), f(1), n(2), f(1), 3.0);
        b.add(n(5), f(2), n(6), f(2), 0.0);
        let t = b.freeze();
        let options = t.lookup(n(0), f(1));
        let total: f64 = options.iter().map(|o| o.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let w2 = options.iter().find(|o| o.next_node == n(2)).unwrap().weight;
        assert!((w2 - 0.75).abs() < 1e-12);
        // A zero-weight entry is kept as added.
        assert_eq!(t.lookup(n(5), f(2))[0].weight, 0.0);
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = TableBuilder::new().freeze();
        assert!(t.is_empty());
        assert_eq!(t.heap_bytes(), 0);
        assert!(t.lookup(n(0), f(0)).is_empty());
    }

    #[test]
    fn all_to_all_xy_tables_take_at_most_56_heap_bytes_per_entry() {
        use crate::geometry::Geometry;
        use crate::routing::dor::{build_dor_tables, DimensionOrder};
        use crate::routing::FlowSpec;
        let g = Geometry::mesh2d(8, 8);
        let tables = build_dor_tables(&g, &FlowSpec::all_to_all(&g), DimensionOrder::XFirst);
        let entries: usize = tables.iter().map(RoutingTable::len).sum();
        let bytes: usize = tables.iter().map(RoutingTable::heap_bytes).sum();
        assert_eq!(entries, 25_536);
        assert!(
            bytes <= 56 * entries,
            "{bytes} heap bytes for {entries} entries"
        );
    }

    #[test]
    fn every_key_of_a_crowded_table_is_found() {
        // Keys that share low bits and prevs, so probes collide and wrap.
        let mut b = TableBuilder::new();
        for prev in 0..5 {
            for flow in (0..600u64).map(|i| i << 20) {
                b.add(n(prev), f(flow).with_phase(1), n(prev + 1), f(flow), 1.0);
            }
        }
        let t = b.freeze();
        assert_eq!(t.len(), 3000);
        for prev in 0..5 {
            for flow in (0..600u64).map(|i| i << 20) {
                let options = t.lookup(n(prev), f(flow).with_phase(1));
                assert_eq!(options.len(), 1);
                assert_eq!(options[0].next_node, n(prev + 1));
                assert_eq!(options[0].next_flow, f(flow));
                assert!(t.lookup(n(prev), f(flow)).is_empty());
            }
        }
    }
}
