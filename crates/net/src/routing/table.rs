//! The per-node routing table: `⟨prev node, flow⟩ → {⟨next node, next flow, weight⟩}`.

use crate::ids::{FlowId, NodeId};
use std::collections::HashMap;

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

/// A per-node routing table.
///
/// Lookups are addressed by `⟨previous node, flow⟩`; the previous node of a
/// locally injected packet is the node itself, exactly as in the paper's
/// example for XY routing.
#[derive(Clone, Debug, Default)]
pub struct RoutingTable {
    entries: HashMap<(NodeId, FlowId), Vec<NextHop>>,
}

impl RoutingTable {
    /// Creates an empty table.
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
        let options = self.entries.entry((prev, flow)).or_default();
        if let Some(o) = options
            .iter_mut()
            .find(|o| o.next_node == next_node && o.next_flow == next_flow)
        {
            o.weight += weight;
        } else {
            options.push(NextHop {
                next_node,
                next_flow,
                weight,
            });
        }
    }

    /// Looks up the weighted next-hop set for `(prev, flow)`.
    ///
    /// Returns an empty slice when the table has no entry (a mis-configured
    /// flow); the router counts such packets as routing failures.
    pub fn lookup(&self, prev: NodeId, flow: FlowId) -> &[NextHop] {
        self.entries
            .get(&(prev, flow))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of `(prev, flow)` entries in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all entries.
    pub fn iter(&self) -> impl Iterator<Item = (&(NodeId, FlowId), &Vec<NextHop>)> {
        self.entries.iter()
    }

    /// Normalises every entry's weights to sum to 1.0 (entries whose weights
    /// sum to zero are left untouched).
    pub fn normalize(&mut self) {
        for options in self.entries.values_mut() {
            let total: f64 = options.iter().map(|o| o.weight).sum();
            if total > 0.0 {
                for o in options.iter_mut() {
                    o.weight /= total;
                }
            }
        }
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
        let mut t = RoutingTable::new();
        t.add(n(6), f(1), n(7), f(1), 1.0);
        assert_eq!(t.lookup(n(6), f(1)).len(), 1);
        assert_eq!(t.lookup(n(6), f(2)).len(), 0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn weights_accumulate_for_same_option() {
        let mut t = RoutingTable::new();
        t.add(n(0), f(1), n(1), f(1), 1.0);
        t.add(n(0), f(1), n(1), f(1), 2.0);
        t.add(n(0), f(1), n(2), f(1), 1.0);
        let options = t.lookup(n(0), f(1));
        assert_eq!(options.len(), 2);
        let w1 = options.iter().find(|o| o.next_node == n(1)).unwrap().weight;
        assert_eq!(w1, 3.0);
    }

    #[test]
    fn renamed_flows_are_distinct_options() {
        let mut t = RoutingTable::new();
        t.add(n(0), f(1), n(1), f(1), 1.0);
        t.add(n(0), f(1), n(1), f(1).with_phase(1), 1.0);
        assert_eq!(t.lookup(n(0), f(1)).len(), 2);
    }

    #[test]
    fn normalize_scales_weights() {
        let mut t = RoutingTable::new();
        t.add(n(0), f(1), n(1), f(1), 1.0);
        t.add(n(0), f(1), n(2), f(1), 3.0);
        t.normalize();
        let options = t.lookup(n(0), f(1));
        let total: f64 = options.iter().map(|o| o.weight).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let w2 = options.iter().find(|o| o.next_node == n(2)).unwrap().weight;
        assert!((w2 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = RoutingTable::new();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }
}
