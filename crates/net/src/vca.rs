//! Virtual-channel allocation (VCA).
//!
//! Like routing, VC allocation is table-driven: a lookup is addressed by the
//! four-tuple `⟨prev node, flow, next node, next flow⟩` and returns a weighted
//! set of candidate next-hop VCs. On top of the table mechanism, HORNET also
//! supports allocation schemes whose choice depends on the *contents* of the
//! candidate VCs (EDVCA, FAA); those are expressed here as state-dependent
//! policies evaluated against a snapshot of the downstream VC state.

use crate::ids::{FlowId, NodeId, VcId};
use std::collections::HashMap;
use std::sync::Arc;

/// The VC-allocation schemes available out of the box (paper §II-A3).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum VcAllocKind {
    /// Dynamic VCA: any free VC, chosen uniformly at random.
    Dynamic,
    /// Static set VCA: the VC is a fixed function of the flow identifier.
    StaticSet,
    /// Phase-separated dynamic VCA: the VC set is partitioned by routing phase
    /// (used to keep O1TURN / Valiant / ROMM deadlock-free), dynamic within
    /// each partition.
    Phased,
    /// EDVCA: exclusive dynamic VCA — a flow owns at most one VC per link at a
    /// time, guaranteeing in-order delivery.
    Edvca,
    /// FAA: flow-aware allocation — prefer a VC already carrying the flow,
    /// otherwise the emptiest free VC.
    Faa,
    /// Explicit user-provided table.
    Table,
}

impl VcAllocKind {
    /// Short label used in reports and figure legends.
    pub fn label(self) -> &'static str {
        match self {
            VcAllocKind::Dynamic => "dynamic",
            VcAllocKind::StaticSet => "static-set",
            VcAllocKind::Phased => "phased",
            VcAllocKind::Edvca => "edvca",
            VcAllocKind::Faa => "faa",
            VcAllocKind::Table => "table",
        }
    }
}

impl std::fmt::Display for VcAllocKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A VCA table key: `⟨prev node, flow, next node, next flow⟩`.
type VcaKey = (NodeId, FlowId, NodeId, FlowId);

/// An explicit VCA table: `⟨prev, flow, next, next flow⟩ → {(vc, weight)}`.
#[derive(Clone, Debug, Default)]
pub struct VcaTable {
    entries: HashMap<VcaKey, Vec<(VcId, f64)>>,
}

impl VcaTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a candidate VC with a weight to an entry.
    pub fn add(
        &mut self,
        prev: NodeId,
        flow: FlowId,
        next: NodeId,
        next_flow: FlowId,
        vc: VcId,
        weight: f64,
    ) {
        self.entries
            .entry((prev, flow, next, next_flow))
            .or_default()
            .push((vc, weight));
    }

    /// Looks up the weighted candidate set for a four-tuple.
    pub fn lookup(
        &self,
        prev: NodeId,
        flow: FlowId,
        next: NodeId,
        next_flow: FlowId,
    ) -> &[(VcId, f64)] {
        self.entries
            .get(&(prev, flow, next, next_flow))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Snapshot of one downstream (next-hop) VC as seen by the allocating router.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct DownstreamVc {
    /// The VC index.
    pub vc: VcId,
    /// True if no packet currently holds this VC (a new packet may be
    /// allocated to it).
    pub free_for_allocation: bool,
    /// Flits currently buffered in the downstream VC.
    pub occupancy: usize,
    /// Capacity of the downstream VC buffer in flits.
    pub capacity: usize,
    /// Flow whose packets currently occupy (or were last allocated to) the
    /// VC, if any — the state EDVCA and FAA consult.
    pub resident_flow: Option<FlowId>,
}

/// A VC-allocation request for one packet.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct VcaRequest {
    /// Node the packet arrived from (this node for local injection).
    pub prev: NodeId,
    /// Flow the packet currently carries.
    pub flow: FlowId,
    /// Next-hop node chosen by route computation.
    pub next: NodeId,
    /// Flow the packet will carry on the next hop.
    pub next_flow: FlowId,
}

/// The per-node VC-allocation policy consulted in the router's VA stage.
#[derive(Clone, Debug)]
pub enum VcaPolicy {
    /// Any free VC, uniformly.
    Dynamic,
    /// VC = hash(flow) mod VC count.
    StaticSet,
    /// VC set partitioned by routing phase; dynamic within the partition.
    Phased {
        /// Number of routing phases to separate (2 for O1TURN/ROMM/Valiant).
        phases: u8,
    },
    /// Exclusive dynamic VCA.
    Edvca,
    /// Flow-aware allocation.
    Faa,
    /// Explicit table; falls back to dynamic when a tuple has no entry.
    Table(Arc<VcaTable>),
}

impl VcaPolicy {
    /// Builds the default policy for a kind.
    pub fn from_kind(kind: VcAllocKind) -> Self {
        match kind {
            VcAllocKind::Dynamic => VcaPolicy::Dynamic,
            VcAllocKind::StaticSet => VcaPolicy::StaticSet,
            VcAllocKind::Phased => VcaPolicy::Phased { phases: 2 },
            VcAllocKind::Edvca => VcaPolicy::Edvca,
            VcAllocKind::Faa => VcaPolicy::Faa,
            VcAllocKind::Table => VcaPolicy::Table(Arc::new(VcaTable::new())),
        }
    }

    /// Returns the weighted candidate VCs for a request, given the snapshot of
    /// the downstream VC state. An empty result means the packet must wait in
    /// the VA stage this cycle.
    ///
    /// Candidates are always restricted to VCs that are free for allocation
    /// (wormhole flow control allocates a VC to one packet at a time), except
    /// for EDVCA/FAA preference rules which additionally require flow
    /// residence conditions.
    pub fn candidates(&self, req: &VcaRequest, downstream: &[DownstreamVc]) -> Vec<(VcId, f64)> {
        let mut out = Vec::new();
        self.candidates_into(req, downstream, &mut out);
        out
    }

    /// Allocation-free variant of [`candidates`](Self::candidates): clears
    /// `out` and fills it with the weighted candidate VCs, in the same order
    /// [`candidates`](Self::candidates) returns them. The router's VA stage
    /// calls this with a reusable scratch vector so the steady-state hot path
    /// never touches the heap.
    pub fn candidates_into(
        &self,
        req: &VcaRequest,
        downstream: &[DownstreamVc],
        out: &mut Vec<(VcId, f64)>,
    ) {
        out.clear();
        let push_free = |out: &mut Vec<(VcId, f64)>| {
            for d in downstream.iter().filter(|d| d.free_for_allocation) {
                out.push((d.vc, 1.0));
            }
        };
        match self {
            VcaPolicy::Dynamic => push_free(out),
            VcaPolicy::StaticSet => {
                if downstream.is_empty() {
                    return;
                }
                let idx = (req.next_flow.base() % downstream.len() as u64) as usize;
                let d = &downstream[idx];
                if d.free_for_allocation {
                    out.push((d.vc, 1.0));
                }
            }
            VcaPolicy::Phased { phases } => {
                let phases = (*phases).max(1) as usize;
                let per_set = (downstream.len() / phases).max(1);
                let phase = (req.flow.phase() as usize).min(phases - 1);
                let lo = phase * per_set;
                let hi = if phase == phases - 1 {
                    downstream.len()
                } else {
                    lo + per_set
                };
                for d in downstream
                    .iter()
                    .skip(lo)
                    .take(hi.saturating_sub(lo))
                    .filter(|d| d.free_for_allocation)
                {
                    out.push((d.vc, 1.0));
                }
            }
            VcaPolicy::Edvca => {
                // If some VC already carries this flow, the packet must use it
                // (and only when it is free for a new packet); otherwise use a
                // VC not currently carrying any flow.
                if let Some(d) = downstream
                    .iter()
                    .find(|d| d.resident_flow == Some(req.next_flow))
                {
                    if d.free_for_allocation {
                        out.push((d.vc, 1.0));
                    }
                } else {
                    for d in downstream
                        .iter()
                        .filter(|d| d.free_for_allocation && d.resident_flow.is_none())
                    {
                        out.push((d.vc, 1.0));
                    }
                }
            }
            VcaPolicy::Faa => {
                // Prefer a VC already carrying this flow; otherwise weight free
                // VCs by available space so the emptiest is most likely.
                for d in downstream
                    .iter()
                    .filter(|d| d.free_for_allocation && d.resident_flow == Some(req.next_flow))
                {
                    out.push((d.vc, 1.0));
                }
                if !out.is_empty() {
                    return;
                }
                for d in downstream.iter().filter(|d| d.free_for_allocation) {
                    out.push((
                        d.vc,
                        1.0 + (d.capacity - d.occupancy.min(d.capacity)) as f64,
                    ));
                }
            }
            VcaPolicy::Table(table) => {
                let entry = table.lookup(req.prev, req.flow, req.next, req.next_flow);
                if entry.is_empty() {
                    push_free(out);
                    return;
                }
                for cand in entry.iter().filter(|(vc, _)| {
                    downstream
                        .iter()
                        .any(|d| d.vc == *vc && d.free_for_allocation)
                }) {
                    out.push(*cand);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(i: u16) -> VcId {
        VcId::new(i)
    }
    fn req(flow: u64) -> VcaRequest {
        VcaRequest {
            prev: NodeId::new(0),
            flow: FlowId::new(flow),
            next: NodeId::new(1),
            next_flow: FlowId::new(flow),
        }
    }
    fn downstream(n: usize) -> Vec<DownstreamVc> {
        (0..n)
            .map(|i| DownstreamVc {
                vc: vc(i as u16),
                free_for_allocation: true,
                occupancy: 0,
                capacity: 4,
                resident_flow: None,
            })
            .collect()
    }

    #[test]
    fn dynamic_offers_all_free_vcs() {
        let pol = VcaPolicy::Dynamic;
        let mut ds = downstream(4);
        assert_eq!(pol.candidates(&req(1), &ds).len(), 4);
        ds[1].free_for_allocation = false;
        ds[3].free_for_allocation = false;
        let c = pol.candidates(&req(1), &ds);
        assert_eq!(c.len(), 2);
        assert!(c.iter().all(|(v, _)| *v == vc(0) || *v == vc(2)));
    }

    #[test]
    fn static_set_is_a_function_of_the_flow() {
        let pol = VcaPolicy::StaticSet;
        let ds = downstream(4);
        let c1 = pol.candidates(&req(5), &ds);
        let c2 = pol.candidates(&req(5), &ds);
        let c3 = pol.candidates(&req(6), &ds);
        assert_eq!(c1, c2);
        assert_eq!(c1.len(), 1);
        assert_ne!(c1[0].0, c3[0].0);
    }

    #[test]
    fn phased_partitions_the_vc_range() {
        let pol = VcaPolicy::Phased { phases: 2 };
        let ds = downstream(4);
        let phase0 = pol.candidates(&req(9), &ds);
        let mut r1 = req(9);
        r1.flow = r1.flow.with_phase(1);
        let phase1 = pol.candidates(&r1, &ds);
        assert_eq!(phase0.len(), 2);
        assert_eq!(phase1.len(), 2);
        assert!(phase0.iter().all(|(v, _)| v.index() < 2));
        assert!(phase1.iter().all(|(v, _)| v.index() >= 2));
    }

    #[test]
    fn edvca_reuses_the_vc_already_carrying_the_flow() {
        let pol = VcaPolicy::Edvca;
        let mut ds = downstream(4);
        ds[2].resident_flow = Some(FlowId::new(7));
        let c = pol.candidates(&req(7), &ds);
        assert_eq!(c, vec![(vc(2), 1.0)]);
        // If that VC is busy with an in-flight packet, the flow must wait.
        ds[2].free_for_allocation = false;
        assert!(pol.candidates(&req(7), &ds).is_empty());
        // A different flow avoids VCs carrying other flows.
        let c2 = pol.candidates(&req(8), &ds);
        assert_eq!(c2.len(), 3);
        assert!(c2.iter().all(|(v, _)| *v != vc(2)));
    }

    #[test]
    fn faa_prefers_emptier_vcs() {
        let pol = VcaPolicy::Faa;
        let mut ds = downstream(2);
        ds[0].occupancy = 3;
        ds[1].occupancy = 0;
        let c = pol.candidates(&req(1), &ds);
        let w0 = c.iter().find(|(v, _)| *v == vc(0)).unwrap().1;
        let w1 = c.iter().find(|(v, _)| *v == vc(1)).unwrap().1;
        assert!(w1 > w0);
    }

    #[test]
    fn table_policy_restricts_to_listed_vcs() {
        let mut table = VcaTable::new();
        let r = req(3);
        table.add(r.prev, r.flow, r.next, r.next_flow, vc(1), 1.0);
        let pol = VcaPolicy::Table(Arc::new(table));
        let ds = downstream(4);
        let c = pol.candidates(&r, &ds);
        assert_eq!(c, vec![(vc(1), 1.0)]);
        // Unlisted tuples fall back to dynamic.
        let c2 = pol.candidates(&req(99), &ds);
        assert_eq!(c2.len(), 4);
    }

    /// One policy of every kind; the table is populated for flows 0..3 (so
    /// both its lookup and its dynamic fallback are exercised).
    fn every_policy() -> Vec<VcaPolicy> {
        let mut table = VcaTable::new();
        for flow in 0..3 {
            let r = req(flow);
            for v in 0..8 {
                table.add(r.prev, r.flow, r.next, r.next_flow, vc(v), 1.0 + v as f64);
            }
        }
        vec![
            VcaPolicy::Dynamic,
            VcaPolicy::StaticSet,
            VcaPolicy::Phased { phases: 2 },
            VcaPolicy::Edvca,
            VcaPolicy::Faa,
            VcaPolicy::Table(Arc::new(table)),
        ]
    }

    proptest::proptest! {
        /// The premise of the early return in `Router::va`: whatever the
        /// flows, residents and occupancies, no policy offers a candidate
        /// when no downstream VC is free for allocation.
        #[test]
        fn no_policy_offers_a_candidate_when_every_vc_is_owned(
            vcs in proptest::collection::vec((proptest::option::of(0u64..6), 0usize..5), 0..9),
            flow in 0u64..6,
            phase in 0u8..3,
        ) {
            let owned: Vec<DownstreamVc> = vcs
                .iter()
                .enumerate()
                .map(|(i, &(resident, occupancy))| DownstreamVc {
                    vc: vc(i as u16),
                    free_for_allocation: false,
                    occupancy,
                    capacity: 4,
                    resident_flow: resident.map(FlowId::new),
                })
                .collect();
            let mut r = req(flow);
            r.flow = r.flow.with_phase(phase);
            for policy in every_policy() {
                let offered = policy.candidates(&r, &owned);
                proptest::prop_assert!(offered.is_empty(), "{policy:?} offered {offered:?}");
            }
        }
    }

    #[test]
    fn every_policy_offers_something_when_every_vc_is_free() {
        // The property above is not vacuous: the same requests find
        // candidates once the VCs are free.
        let ds = downstream(8);
        for policy in every_policy() {
            for flow in 0..6 {
                assert!(!policy.candidates(&req(flow), &ds).is_empty(), "{policy:?}");
            }
        }
    }

    #[test]
    fn empty_downstream_yields_no_candidates() {
        for kind in [
            VcAllocKind::Dynamic,
            VcAllocKind::StaticSet,
            VcAllocKind::Edvca,
            VcAllocKind::Faa,
        ] {
            let pol = VcaPolicy::from_kind(kind);
            assert!(pol.candidates(&req(1), &[]).is_empty(), "{kind:?}");
        }
    }
}
