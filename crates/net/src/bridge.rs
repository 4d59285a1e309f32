//! The bridge between a locally attached agent (traffic injector, CPU core,
//! memory controller) and the router.
//!
//! The bridge presents a simple packet-based interface to the agent, hiding
//! the details of splitting packets into flits, DMA-style injection into the
//! router's CPU-facing ingress port, retrying when the network cannot accept
//! flits, and reassembling ejected flits back into packets.

use crate::codec::{self, Dec, Enc};
use crate::flit::{DeliveredPacket, Flit, Packet};
use crate::ids::{Cycle, NodeId, PacketId};
use crate::payload::PayloadStore;
use crate::stats::NetworkStats;
use crate::vcbuf::VcBuffer;
use hornet_obs::trace::{TraceEvent, TraceKind, TraceRing};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// One slot of the reassembly slab: the flits of one in-flight inbound
/// packet. `expected == 0` marks a free slot whose `flits` allocation is
/// retained for reuse, so steady-state reassembly never allocates — the slab
/// only grows to the high-water mark of *concurrently* reassembling packets
/// (bounded by the router's ingress VC count, since flits of one packet
/// arrive on one VC in order).
#[derive(Debug)]
struct ReassemblySlot {
    packet: PacketId,
    expected: u32,
    flits: Vec<Flit>,
}

impl Default for ReassemblySlot {
    fn default() -> Self {
        Self {
            packet: PacketId::new(0),
            expected: 0,
            flits: Vec::new(),
        }
    }
}

/// Injection state: the flits of the packet currently being pushed into one
/// injection VC.
#[derive(Debug)]
struct InjectionSlot {
    flits: VecDeque<Flit>,
}

/// The packet-based bridge between one agent and its router.
#[derive(Debug)]
pub struct Bridge {
    node: NodeId,
    /// Injection VC buffers of the local router.
    injection_vcs: Vec<Arc<VcBuffer>>,
    /// Flits per cycle the bridge may push toward the router.
    injection_bandwidth: u32,
    /// Packets waiting to enter the network.
    pending: VecDeque<Packet>,
    /// Per-VC packet currently being injected (wormhole: one packet at a time
    /// per VC).
    slots: Vec<Option<InjectionSlot>>,
    /// Reassembly slab for inbound packets: a handful of reusable slots
    /// searched linearly by packet id (cheaper than hashing at the small
    /// concurrency the ejection port can sustain, and allocation-free in
    /// steady state).
    reassembly: Vec<ReassemblySlot>,
    /// Original packets by id, so payloads survive the trip (the network only
    /// carries flits; a real chip would DMA the payload).
    in_flight_payloads: HashMap<PacketId, Packet>,
    /// Fully reassembled inbound packets not yet consumed by the agent.
    delivered: VecDeque<DeliveredPacket>,
    /// Packet id allocator (node-unique ids composed with the node index).
    next_packet_seq: u64,
    /// Shared out-of-band payload transport (DMA model); when absent, payloads
    /// only survive node-local loopback.
    payload_store: Option<Arc<PayloadStore>>,
}

impl Bridge {
    /// Creates a bridge for `node` wired to the given injection VC buffers.
    pub fn new(node: NodeId, injection_vcs: Vec<Arc<VcBuffer>>, injection_bandwidth: u32) -> Self {
        let slots = (0..injection_vcs.len()).map(|_| None).collect();
        Self {
            node,
            injection_vcs,
            injection_bandwidth: injection_bandwidth.max(1),
            pending: VecDeque::new(),
            slots,
            reassembly: Vec::new(),
            in_flight_payloads: HashMap::new(),
            delivered: VecDeque::new(),
            next_packet_seq: 0,
            payload_store: None,
        }
    }

    /// Attaches the shared payload store so payloads reach remote
    /// destinations (see [`PayloadStore`]).
    pub fn attach_payload_store(&mut self, store: Arc<PayloadStore>) {
        self.payload_store = Some(store);
    }

    /// The node this bridge belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Allocates a packet identifier unique across the simulation (node index
    /// in the high bits, local sequence number in the low bits).
    pub fn alloc_packet_id(&mut self) -> PacketId {
        let id = PacketId::new(((self.node.raw() as u64) << 40) | self.next_packet_seq);
        self.next_packet_seq += 1;
        id
    }

    /// Queues a packet for injection. The packet enters the network when
    /// injection-port buffer space allows; the agent can observe backpressure
    /// through [`pending_packets`](Self::pending_packets).
    pub fn send(&mut self, packet: Packet) {
        self.pending.push_back(packet);
    }

    /// Number of packets queued at the injector (including the ones partially
    /// injected).
    pub fn pending_packets(&self) -> usize {
        self.pending.len() + self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True if the bridge has nothing left to inject.
    pub fn injection_idle(&self) -> bool {
        self.pending.is_empty() && self.slots.iter().all(|s| s.is_none())
    }

    /// Takes the next delivered packet, if any.
    pub fn try_recv(&mut self) -> Option<DeliveredPacket> {
        self.delivered.pop_front()
    }

    /// Peeks at the next delivered packet without consuming it.
    pub fn peek_recv(&self) -> Option<&DeliveredPacket> {
        self.delivered.front()
    }

    /// Number of delivered packets waiting for the agent.
    pub fn delivered_len(&self) -> usize {
        self.delivered.len()
    }

    /// Injection step, run during the tile's negative edge: move flits from
    /// the pending queue into the router's injection VC buffers, respecting
    /// buffer capacity, wormhole ordering (one packet per VC at a time) and
    /// the injection bandwidth.
    pub fn inject(&mut self, now: Cycle, stats: &mut NetworkStats) {
        self.inject_traced(now, stats, None);
    }

    /// [`inject`](Self::inject) with an optional event tracer: records a
    /// [`TraceKind::FlitInject`] event per flit that actually enters the
    /// router's injection VCs (back-pressured flits are not traced until the
    /// cycle they go in).
    pub fn inject_traced(
        &mut self,
        now: Cycle,
        stats: &mut NetworkStats,
        mut tracer: Option<&mut TraceRing>,
    ) {
        // Fill idle slots with pending packets.
        for slot in &mut self.slots {
            if slot.is_none() {
                if let Some(mut packet) = self.pending.pop_front() {
                    packet.injected_at = now;
                    stats.injected_packets += 1;
                    let flits = packet.to_flits(now);
                    if packet.dst == self.node || self.payload_store.is_none() {
                        self.in_flight_payloads.insert(packet.id, packet.clone());
                    } else if let Some(store) = &self.payload_store {
                        store.deposit(packet.clone());
                    }
                    *slot = Some(InjectionSlot {
                        flits: flits.into(),
                    });
                } else {
                    break;
                }
            }
        }
        // Push flits, round-robin over the slots, up to the injection bandwidth.
        let mut budget = self.injection_bandwidth;
        for vc in 0..self.slots.len() {
            if budget == 0 {
                break;
            }
            let Some(slot) = &mut self.slots[vc] else {
                continue;
            };
            // Ask for space before touching the flit: under back-pressure
            // every occupied slot is refused every cycle, and a refusal must
            // cost one compare, not a flit copy.
            let mut space = self.injection_vcs[vc].free_space();
            while budget > 0 && space > 0 {
                let Some(mut flit) = slot.flits.pop_front() else {
                    break;
                };
                flit.visible_at = now + 1;
                flit.stats.injected_at = now;
                flit.stats.arrived_at_current = now;
                let pushed = self.injection_vcs[vc].push(flit);
                assert!(pushed, "injection VC refused a flit it had space for");
                stats.injected_flits += 1;
                budget -= 1;
                space -= 1;
                if let Some(t) = tracer.as_deref_mut() {
                    t.record(TraceEvent {
                        cycle: now,
                        node: self.node.raw(),
                        kind: TraceKind::FlitInject,
                        a: flit.packet.raw(),
                        b: flit.seq as u64,
                    });
                }
            }
            if slot.flits.is_empty() {
                self.slots[vc] = None;
            }
        }
    }

    /// Accepts flits ejected by the router (run after the router's negative
    /// edge) and reassembles them into delivered packets. The input vector is
    /// drained in place so its allocation survives into the next cycle.
    pub fn accept(&mut self, flits: &mut Vec<Flit>, now: Cycle, stats: &mut NetworkStats) {
        for flit in flits.drain(..) {
            // Find the packet's slab slot (or claim a free one). Linear
            // search: the slab holds at most one entry per ingress VC.
            let mut slot_idx = None;
            let mut free_idx = None;
            for (i, slot) in self.reassembly.iter().enumerate() {
                if slot.expected != 0 {
                    if slot.packet == flit.packet {
                        slot_idx = Some(i);
                        break;
                    }
                } else if free_idx.is_none() {
                    free_idx = Some(i);
                }
            }
            let idx = slot_idx.unwrap_or_else(|| {
                let idx = free_idx.unwrap_or_else(|| {
                    self.reassembly.push(ReassemblySlot::default());
                    self.reassembly.len() - 1
                });
                let slot = &mut self.reassembly[idx];
                slot.packet = flit.packet;
                slot.expected = flit.packet_len;
                debug_assert!(slot.flits.is_empty());
                idx
            });
            let entry = &mut self.reassembly[idx];
            entry.flits.push(flit);
            if entry.flits.len() as u32 == entry.expected {
                let head = entry
                    .flits
                    .iter()
                    .find(|f| f.seq == 0)
                    .copied()
                    .expect("head flit present");
                let tail = entry
                    .flits
                    .iter()
                    .max_by_key(|f| f.seq)
                    .copied()
                    .expect("tail flit present");
                let expected = entry.expected;
                // Release the slot but keep its flit vector's allocation.
                entry.expected = 0;
                entry.flits.clear();
                let packet = self
                    .in_flight_payloads
                    .remove(&flit.packet)
                    .or_else(|| {
                        self.payload_store
                            .as_ref()
                            .and_then(|store| store.claim(flit.packet))
                    })
                    .unwrap_or_else(|| Packet {
                        id: head.packet,
                        flow: head.original_flow,
                        src: head.src,
                        dst: head.dst,
                        len_flits: head.packet_len,
                        created_at: head.stats.injected_at,
                        injected_at: head.stats.injected_at,
                        payload: crate::flit::Payload::empty(),
                    });
                stats.record_delivery(
                    packet.flow,
                    expected as u64,
                    head.stats.accumulated_latency,
                    tail.stats.accumulated_latency,
                    tail.stats.hops,
                );
                self.delivered.push_back(DeliveredPacket {
                    packet,
                    delivered_at: now,
                    head_latency: head.stats.accumulated_latency,
                    tail_latency: tail.stats.accumulated_latency,
                    hops: tail.stats.hops,
                });
            }
        }
    }

    /// Forgets a payload for a packet injected on another node but destined
    /// here (payloads travel out-of-band between bridges on different tiles
    /// only via [`accept`]'s fallback reconstruction). Exposed for the memory
    /// hierarchy, which re-attaches payloads from its own protocol state.
    pub fn register_inbound_payload(&mut self, packet: Packet) {
        self.in_flight_payloads.insert(packet.id, packet);
    }

    /// Serializes the bridge's architectural state: the id allocator, the
    /// pending queue, the per-VC injection slots, the active reassembly
    /// slots, the in-flight loopback payloads (sorted by packet id so the
    /// encoding is canonical) and the delivered-but-unconsumed packets.
    pub fn snapshot(&self, e: &mut Enc) {
        e.u64(self.next_packet_seq);
        e.u32(self.pending.len() as u32);
        for p in &self.pending {
            codec::encode_packet(e, p);
        }
        e.u32(self.slots.len() as u32);
        for slot in &self.slots {
            match slot {
                None => {
                    e.u8(0);
                }
                Some(s) => {
                    e.u8(1).u32(s.flits.len() as u32);
                    for f in &s.flits {
                        codec::encode_flit(e, f);
                    }
                }
            }
        }
        let active: Vec<&ReassemblySlot> =
            self.reassembly.iter().filter(|s| s.expected != 0).collect();
        e.u32(active.len() as u32);
        for slot in active {
            e.u64(slot.packet.raw()).u32(slot.expected);
            e.u32(slot.flits.len() as u32);
            for f in &slot.flits {
                codec::encode_flit(e, f);
            }
        }
        let mut payloads: Vec<&Packet> = self.in_flight_payloads.values().collect();
        payloads.sort_by_key(|p| p.id.raw());
        e.u32(payloads.len() as u32);
        for p in payloads {
            codec::encode_packet(e, p);
        }
        e.u32(self.delivered.len() as u32);
        for d in &self.delivered {
            codec::encode_packet(e, &d.packet);
            e.u64(d.delivered_at)
                .u64(d.head_latency)
                .u64(d.tail_latency)
                .u32(d.hops);
        }
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot) into this
    /// freshly built bridge.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` if the injection VC count does not match or
    /// the checkpoint is corrupt.
    pub fn restore(&mut self, d: &mut Dec) -> std::io::Result<()> {
        let corrupt = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bridge checkpoint: {what}"),
            )
        };
        self.next_packet_seq = d.u64()?;
        self.pending = (0..d.u32()?)
            .map(|_| codec::decode_packet(d))
            .collect::<std::io::Result<_>>()?;
        if d.u32()? as usize != self.slots.len() {
            return Err(corrupt("injection VC count mismatch"));
        }
        for slot in &mut self.slots {
            *slot = match d.u8()? {
                0 => None,
                _ => Some(InjectionSlot {
                    flits: (0..d.u32()?)
                        .map(|_| codec::decode_flit(d))
                        .collect::<std::io::Result<_>>()?,
                }),
            };
        }
        self.reassembly.clear();
        for _ in 0..d.u32()? {
            let packet = PacketId::new(d.u64()?);
            let expected = d.u32()?;
            if expected == 0 {
                return Err(corrupt("free reassembly slot in checkpoint"));
            }
            let flits = (0..d.u32()?)
                .map(|_| codec::decode_flit(d))
                .collect::<std::io::Result<_>>()?;
            self.reassembly.push(ReassemblySlot {
                packet,
                expected,
                flits,
            });
        }
        self.in_flight_payloads.clear();
        for _ in 0..d.u32()? {
            let p = codec::decode_packet(d)?;
            self.in_flight_payloads.insert(p.id, p);
        }
        self.delivered.clear();
        for _ in 0..d.u32()? {
            let packet = codec::decode_packet(d)?;
            self.delivered.push_back(DeliveredPacket {
                packet,
                delivered_at: d.u64()?,
                head_latency: d.u64()?,
                tail_latency: d.u64()?,
                hops: d.u32()?,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Payload;
    use crate::ids::FlowId;
    use crate::vcbuf::Aggregate;

    fn bridge_with_vcs(n: usize, capacity: usize) -> Bridge {
        let vcs = (0..n).map(|_| Arc::new(VcBuffer::new(capacity))).collect();
        Bridge::new(NodeId::new(0), vcs, 1)
    }

    fn packet(id: u64, len: u32) -> Packet {
        Packet::new(
            PacketId::new(id),
            FlowId::new(1),
            NodeId::new(0),
            NodeId::new(1),
            len,
            0,
        )
    }

    #[test]
    fn packet_ids_are_unique_and_node_scoped() {
        let mut b0 = bridge_with_vcs(1, 4);
        let mut b1 = Bridge::new(NodeId::new(1), vec![Arc::new(VcBuffer::new(4))], 1);
        let ids: Vec<_> = (0..10)
            .map(|_| b0.alloc_packet_id())
            .chain((0..10).map(|_| b1.alloc_packet_id()))
            .collect();
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn injection_respects_bandwidth_and_capacity() {
        let mut b = bridge_with_vcs(1, 2);
        let mut stats = NetworkStats::new();
        b.send(packet(1, 4));
        assert_eq!(b.pending_packets(), 1);
        b.inject(0, &mut stats);
        // Bandwidth 1: only one flit entered this cycle.
        assert_eq!(stats.injected_flits, 1);
        b.inject(1, &mut stats);
        assert_eq!(stats.injected_flits, 2);
        // Buffer is now full (capacity 2); further injection stalls.
        b.inject(2, &mut stats);
        assert_eq!(stats.injected_flits, 2);
        assert!(!b.injection_idle());
    }

    #[test]
    fn blocked_injection_touches_nothing_and_resumes_with_one_flit() {
        let agg = Arc::new(Aggregate::default());
        let vc = Arc::new(VcBuffer::with_aggregate(2, Arc::clone(&agg)));
        let mut b = Bridge::new(NodeId::new(0), vec![Arc::clone(&vc)], 4);
        let mut stats = NetworkStats::new();
        b.send(packet(1, 5));
        // Bandwidth 4 but capacity 2: two flits go in, then the VC is full.
        b.inject(0, &mut stats);
        let state = |stats: &NetworkStats| (vc.occupancy(), agg.get(), stats.injected_flits);
        assert_eq!(state(&stats), (2, 2, 2));
        for now in 1..4 {
            b.inject(now, &mut stats);
            assert_eq!(state(&stats), (2, 2, 2), "blocked at cycle {now}");
            assert_eq!(b.pending_packets(), 1);
        }
        // The router takes one flit; exactly one follows, whatever the budget.
        vc.absorb_tail();
        assert_eq!(vc.pop_if(9, |_| true).map(|f| f.seq), Some(0));
        b.inject(4, &mut stats);
        assert_eq!(state(&stats), (2, 2, 3));
        // It is the next flit in order, stamped by the cycle it went in.
        vc.absorb_tail();
        assert_eq!(vc.pop_if(9, |_| true).map(|f| f.seq), Some(1));
        let resumed = vc.pop_if(9, |_| true).expect("the resumed flit");
        assert_eq!((resumed.seq, resumed.visible_at), (2, 5));
        assert_eq!(resumed.stats.injected_at, 4);
    }

    #[test]
    fn reassembly_delivers_complete_packets_only() {
        let mut b = bridge_with_vcs(1, 4);
        let mut stats = NetworkStats::new();
        let p = packet(7, 3);
        let flits = p.to_flits(0);
        b.accept(&mut vec![flits[0], flits[1]], 5, &mut stats);
        assert!(b.try_recv().is_none());
        b.accept(&mut vec![flits[2]], 6, &mut stats);
        let d = b.try_recv().expect("packet delivered");
        assert_eq!(d.packet.id, p.id);
        assert_eq!(d.delivered_at, 6);
        assert_eq!(stats.delivered_packets, 1);
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn payloads_survive_when_registered() {
        let mut b = bridge_with_vcs(1, 4);
        let mut stats = NetworkStats::new();
        let p = packet(9, 2).with_payload(Payload::from_words(&[0xdead, 0xbeef]));
        b.register_inbound_payload(p.clone());
        let mut flits = p.to_flits(0);
        b.accept(&mut flits, 3, &mut stats);
        let d = b.try_recv().unwrap();
        assert_eq!(d.packet.payload.words(), &[0xdead, 0xbeef]);
    }

    #[test]
    fn multi_vc_bridge_interleaves_packets() {
        let mut b = Bridge::new(
            NodeId::new(0),
            vec![Arc::new(VcBuffer::new(8)), Arc::new(VcBuffer::new(8))],
            4,
        );
        let mut stats = NetworkStats::new();
        b.send(packet(1, 2));
        b.send(packet(2, 2));
        b.inject(0, &mut stats);
        // Both packets got a slot; with bandwidth 4 all four flits entered.
        assert_eq!(stats.injected_flits, 4);
        assert!(b.injection_idle());
    }
}
