//! The bridge between a locally attached agent (traffic injector, CPU core,
//! memory controller) and the router.
//!
//! The bridge presents a simple packet-based interface to the agent, hiding
//! the details of splitting packets into flits, DMA-style injection into the
//! router's CPU-facing ingress port, retrying when the network cannot accept
//! flits, and reassembling ejected flits back into packets.
//!
//! A packet is its flits plus its payload. Under an open-loop source past
//! saturation the injection backlog grows without bound, so a waiting packet
//! is kept small: a packed record in one byte FIFO (see `Backlog`) — one byte
//! for a source's steady stream — with its payload, if it has one,
//! side-queued. When the packet goes in, an injection slot builds each flit
//! from the packet's head as it is pushed and its payload moves to the
//! shared [`PayloadStore`]. At the destination a reassembly slot keeps the
//! head flit and a count of the flits received; when the tail arrives,
//! [`Bridge::accept`] builds the delivered packet from the head flit and the
//! payload claimed by id — the one place a delivered packet comes from.
//! Checkpoints still write every waiting packet out in full.

use crate::codec::{self, Dec, Enc};
use crate::flit::{DeliveredPacket, Flit, FlitStats, Packet, Payload};
use crate::ids::{Cycle, FlowId, NodeId, PacketId};
use crate::payload::PayloadStore;
use crate::stats::NetworkStats;
use crate::vcbuf::VcBuffer;
use hornet_obs::trace::{TraceEvent, TraceKind, TraceRing};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// One slot of the reassembly slab: the head flit of one inbound packet and
/// how many of its flits have arrived. Flits of one packet arrive in order
/// on one VC, so the next one is flit `received` and the one that completes
/// the count is the tail. `received == 0` marks a free slot. The slab only
/// grows to the high-water mark of *concurrently* reassembling packets
/// (bounded by the router's ingress VC count).
#[derive(Debug)]
struct ReassemblySlot {
    head: Flit,
    received: u32,
}

/// One packet in the injection backlog: what [`Packet`] carries minus the
/// source (always the bridge's own node) and the payload (side-queued, and
/// only for packets that carry one). [`Backlog`] stores it packed; this is
/// the decoded value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Queued {
    id: PacketId,
    flow: FlowId,
    dst: NodeId,
    len_flits: u32,
}

impl Queued {
    /// The base the first record of an empty backlog is coded against.
    const ZERO: Queued = Queued {
        id: PacketId::new(0),
        flow: FlowId::new(0),
        dst: NodeId::new(0),
        len_flits: 0,
    };

    /// True if `self` continues `prev`'s stream: the next id, the same
    /// flow, destination and length.
    fn follows(&self, prev: &Queued) -> bool {
        self.id.raw() == prev.id.raw().wrapping_add(1)
            && self.flow == prev.flow
            && self.dst == prev.dst
            && self.len_flits == prev.len_flits
    }

    /// The packet this record stands for, sent by `src`.
    fn packet(&self, src: NodeId, payload: Payload) -> Packet {
        Packet {
            id: self.id,
            flow: self.flow,
            src,
            dst: self.dst,
            len_flits: self.len_flits,
            payload,
        }
    }
}

/// The longest record: the full-record tag byte, two 10-byte varints of
/// 64-bit deltas, then two 5-byte varints of 32-bit fields.
const MAX_RECORD: usize = 1 + 2 * 10 + 2 * 5;

/// The first byte of a record: a steady record is this byte alone; a full
/// record opens with [`FULL`].
const STEADY: u8 = 1;
const FULL: u8 = 0;

/// The injection backlog: a FIFO of [`Queued`] records packed into bytes.
///
/// A record that [`follows`](Queued::follows) the record before it is
/// *steady*: the one byte [`STEADY`]. A source's steady stream (ids one
/// apart, one flow, destination and length) packs into one byte a packet
/// where a [`Queued`] is 24. Any other record is *full*: the tag byte
/// [`FULL`], the zigzag-LEB128 varints of the wrapping deltas of its packet
/// id and flow, then the LEB128 `dst` and `len_flits`. No record exceeds
/// [`MAX_RECORD`]. The writer's base is the last record pushed and the
/// reader's the last record popped, so any sequence of values round-trips:
/// nothing assumes ids or flows move forward.
#[derive(Debug)]
struct Backlog {
    bytes: VecDeque<u8>,
    len: usize,
    /// The last record pushed: the base of the next one written.
    pushed: Queued,
    /// The last record popped: the base of the record at the front.
    popped: Queued,
}

impl Default for Backlog {
    fn default() -> Self {
        Self {
            bytes: VecDeque::new(),
            len: 0,
            pushed: Queued::ZERO,
            popped: Queued::ZERO,
        }
    }
}

impl Backlog {
    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn push(&mut self, q: Queued) {
        let base = self.pushed;
        if q.follows(&base) {
            self.bytes.push_back(STEADY);
        } else {
            let mut record = [FULL; MAX_RECORD];
            let mut n = 1;
            for v in [
                zigzag(q.id.raw().wrapping_sub(base.id.raw())),
                zigzag(q.flow.raw().wrapping_sub(base.flow.raw())),
                u64::from(q.dst.raw()),
                u64::from(q.len_flits),
            ] {
                n += put_varint(&mut record[n..], v);
            }
            self.bytes.extend(&record[..n]);
        }
        self.pushed = q;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<Queued> {
        if self.len == 0 {
            return None;
        }
        let bytes = &mut self.bytes;
        let q = read_record(self.popped, || bytes.pop_front().expect("a whole record"));
        self.popped = q;
        self.len -= 1;
        Some(q)
    }

    /// The queued records, front first, without consuming them.
    fn iter(&self) -> impl Iterator<Item = Queued> + '_ {
        let mut bytes = self.bytes.iter().copied();
        let mut base = self.popped;
        (0..self.len).map(move |_| {
            base = read_record(base, || bytes.next().expect("a whole record"));
            base
        })
    }

    /// Bytes the queued records take, packed.
    fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
        self.pushed = Queued::ZERO;
        self.popped = Queued::ZERO;
    }
}

fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ (z & 1).wrapping_neg()
}

/// Writes `v` as LEB128 at the start of `out`, returning the bytes written.
fn put_varint(out: &mut [u8], mut v: u64) -> usize {
    let mut n = 0;
    while v >= 0x80 {
        out[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    n + 1
}

/// Reads one LEB128 varint, taking its bytes from `next`.
fn read_varint(next: &mut impl FnMut() -> u8) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = next();
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Reads one record written by [`Backlog::push`] whose predecessor was
/// `base`, taking its bytes from `next`.
fn read_record(base: Queued, mut next: impl FnMut() -> u8) -> Queued {
    if next() == STEADY {
        return Queued {
            id: PacketId::new(base.id.raw().wrapping_add(1)),
            ..base
        };
    }
    let id = base.id.raw().wrapping_add(unzigzag(read_varint(&mut next)));
    let flow = base
        .flow
        .raw()
        .wrapping_add(unzigzag(read_varint(&mut next)));
    Queued {
        id: PacketId::new(id),
        flow: FlowId::from_raw(flow),
        dst: NodeId::new(read_varint(&mut next) as u32),
        len_flits: read_varint(&mut next) as u32,
    }
}

/// Injection state of one VC: the head flit of the packet being pushed
/// (stamped with the cycle the packet went in) and the sequence number of
/// the next flit to push. Each flit is built from the head as it is pushed.
#[derive(Debug)]
struct InjectionSlot {
    head: Flit,
    next: u32,
}

/// A packet handed to a bridge whose source is another node. A bridge
/// injects its own node's packets only: the backlog does not store a source.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ForeignSource {
    /// The node the bridge belongs to.
    pub node: NodeId,
    /// The source the packet named.
    pub src: NodeId,
}

impl std::fmt::Display for ForeignSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "packet from node {} sent through node {}'s bridge",
            self.src, self.node
        )
    }
}

impl std::error::Error for ForeignSource {}

/// The packet-based bridge between one agent and its router.
#[derive(Debug)]
pub struct Bridge {
    node: NodeId,
    /// Injection VC buffers of the local router.
    injection_vcs: Vec<Arc<VcBuffer>>,
    /// Flits per cycle the bridge may push toward the router.
    injection_bandwidth: u32,
    /// Packets waiting to enter the network, packed.
    pending: Backlog,
    /// Payloads of the backlog packets that carry one, in backlog order.
    pending_payloads: VecDeque<(PacketId, Payload)>,
    /// Per-VC packet currently being injected (wormhole: one packet at a time
    /// per VC).
    slots: Vec<Option<InjectionSlot>>,
    /// Reassembly slab for inbound packets: a handful of reusable slots
    /// searched linearly by packet id (cheaper than hashing at the small
    /// concurrency the ejection port can sustain, and allocation-free in
    /// steady state).
    reassembly: Vec<ReassemblySlot>,
    /// Fully reassembled inbound packets not yet consumed by the agent.
    delivered: VecDeque<DeliveredPacket>,
    /// Packet id allocator (node-unique ids composed with the node index).
    next_packet_seq: u64,
    /// The out-of-band payload transport (DMA model) every bridge of the
    /// process shares: payloads go in at injection and come out at delivery,
    /// loopback included.
    payloads: Arc<PayloadStore>,
}

impl Bridge {
    /// Creates a bridge for `node` wired to the given injection VC buffers,
    /// parking payloads in `payloads` (see [`PayloadStore`]).
    pub fn new(
        node: NodeId,
        injection_vcs: Vec<Arc<VcBuffer>>,
        injection_bandwidth: u32,
        payloads: Arc<PayloadStore>,
    ) -> Self {
        let slots = (0..injection_vcs.len()).map(|_| None).collect();
        Self {
            node,
            injection_vcs,
            injection_bandwidth: injection_bandwidth.max(1),
            pending: Backlog::default(),
            pending_payloads: VecDeque::new(),
            slots,
            reassembly: Vec::new(),
            delivered: VecDeque::new(),
            next_packet_seq: 0,
            payloads,
        }
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
    ///
    /// # Errors
    ///
    /// Refuses a packet whose source is not this bridge's node.
    pub fn send(&mut self, packet: Packet) -> Result<(), ForeignSource> {
        if packet.src != self.node {
            return Err(ForeignSource {
                node: self.node,
                src: packet.src,
            });
        }
        if !packet.payload.is_empty() {
            self.pending_payloads.push_back((packet.id, packet.payload));
        }
        self.pending.push(Queued {
            id: packet.id,
            flow: packet.flow,
            dst: packet.dst,
            len_flits: packet.len_flits,
        });
        Ok(())
    }
    /// Number of packets queued at the injector (including the ones partially
    /// injected).
    pub fn pending_packets(&self) -> usize {
        self.pending.len() + self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Packets waiting in the backlog, not yet taken by an injection slot.
    pub fn queued_packets(&self) -> usize {
        self.pending.len()
    }

    /// Bytes the backlog's packed records take (capacity aside).
    pub fn backlog_bytes(&self) -> usize {
        self.pending.encoded_len()
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
        // Fill idle slots with pending packets. A payload moves to the store,
        // where its destination will claim it.
        for slot in &mut self.slots {
            if slot.is_some() {
                continue;
            }
            let Some(q) = self.pending.pop() else {
                break;
            };
            if let Some((id, payload)) = self.pending_payloads.pop_front_if(|(id, _)| *id == q.id) {
                self.payloads.deposit(id, payload);
            }
            stats.injected_packets += 1;
            let head = Flit::head(q.id, q.flow, self.node, q.dst, q.len_flits, now);
            *slot = Some(InjectionSlot { head, next: 0 });
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
            while budget > 0 && space > 0 && slot.next < slot.head.packet_len {
                let mut flit = slot.head.with_seq(slot.next);
                slot.next += 1;
                flit.visible_at = now + 1;
                flit.stats = FlitStats::injected(now);
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
            if slot.next >= slot.head.packet_len {
                self.slots[vc] = None;
            }
        }
    }

    /// Accepts flits ejected by the router (run after the router's negative
    /// edge) and reassembles them into delivered packets. The input vector is
    /// drained in place so its allocation survives into the next cycle.
    ///
    /// This is where every delivered packet is built: the head flit's
    /// identity and framing, plus the payload parked for its id, if any.
    pub fn accept(&mut self, flits: &mut Vec<Flit>, now: Cycle, stats: &mut NetworkStats) {
        for flit in flits.drain(..) {
            let head = if flit.is_head() {
                if !flit.is_tail() {
                    self.open_slot(flit);
                    continue;
                }
                flit
            } else {
                // Linear search: the slab holds at most one entry per
                // ingress VC.
                let slot = self
                    .reassembly
                    .iter_mut()
                    .find(|s| s.received != 0 && s.head.packet == flit.packet)
                    .expect("a packet's flits follow its head");
                debug_assert_eq!(flit.seq, slot.received, "flits arrive in order");
                slot.received += 1;
                if slot.received < slot.head.packet_len {
                    continue;
                }
                slot.received = 0;
                slot.head
            };
            let packet = Packet {
                id: head.packet,
                flow: head.original_flow,
                src: head.src,
                dst: head.dst,
                len_flits: head.packet_len,
                payload: self.payloads.claim(head.packet).unwrap_or_default(),
            };
            let (head_latency, tail_latency, hops) = (
                head.stats.accumulated_latency(),
                flit.stats.accumulated_latency(),
                flit.stats.hops(),
            );
            stats.record_delivery(
                packet.flow,
                u64::from(packet.len_flits),
                head_latency,
                tail_latency,
                hops,
            );
            self.delivered.push_back(DeliveredPacket {
                packet,
                delivered_at: now,
                head_latency,
                tail_latency,
                hops,
            });
        }
    }

    /// Starts reassembling the packet `head` opens, in the first free slot.
    fn open_slot(&mut self, head: Flit) {
        let slot = ReassemblySlot { head, received: 1 };
        match self.reassembly.iter_mut().find(|s| s.received == 0) {
            Some(free) => *free = slot,
            None => self.reassembly.push(slot),
        }
    }

    /// Serializes the bridge's architectural state: the id allocator, the
    /// pending queue, the per-VC injection slots, the active reassembly
    /// slots (head flit and received count) and the delivered-but-unconsumed
    /// packets. Payloads in flight are the store's, not the bridge's.
    pub fn snapshot(&self, e: &mut Enc) {
        e.u64(self.next_packet_seq);
        e.u32(self.pending.len() as u32);
        let mut payloads = self.pending_payloads.iter().peekable();
        for q in self.pending.iter() {
            let payload = payloads
                .next_if(|(id, _)| *id == q.id)
                .map(|(_, p)| p.clone())
                .unwrap_or_default();
            codec::encode_packet(e, &q.packet(self.node, payload));
        }
        e.u32(self.slots.len() as u32);
        for slot in &self.slots {
            match slot {
                None => {
                    e.u8(0);
                }
                Some(s) => {
                    e.u8(1).u32(s.head.packet_len - s.next);
                    for seq in s.next..s.head.packet_len {
                        codec::encode_flit(e, &s.head.with_seq(seq));
                    }
                }
            }
        }
        let active = || self.reassembly.iter().filter(|s| s.received != 0);
        e.u32(active().count() as u32);
        for slot in active() {
            codec::encode_flit(e, &slot.head);
            e.u32(slot.received);
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
    /// the checkpoint is corrupt: a waiting packet from another node or
    /// twice in the backlog, an injection slot that is not one packet's
    /// remaining flits, or a reassembly slot whose head is not flit 0 of a
    /// packet of one or more flits, whose received count is not between 1
    /// and the packet's length, or whose packet has another slot.
    pub fn restore(&mut self, d: &mut Dec) -> std::io::Result<()> {
        let corrupt = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bridge checkpoint: {what}"),
            )
        };
        self.next_packet_seq = d.u64()?;
        self.pending.clear();
        self.pending_payloads.clear();
        let mut waiting = HashSet::new();
        for _ in 0..d.u32()? {
            let packet = codec::decode_packet(d)?;
            // The side queue pairs a payload with the first waiting packet
            // of its id.
            if !waiting.insert(packet.id) {
                return Err(corrupt("a packet id twice in the backlog"));
            }
            self.send(packet).map_err(|e| corrupt(&e.to_string()))?;
        }
        if d.u32()? as usize != self.slots.len() {
            return Err(corrupt("injection VC count mismatch"));
        }
        for slot in &mut self.slots {
            *slot = match d.u8()? {
                0 => None,
                1 => Some(restore_slot(d)?),
                _ => return Err(corrupt("injection slot tag other than 0 or 1")),
            };
        }
        self.reassembly.clear();
        let mut reassembling = HashSet::new();
        for _ in 0..d.u32()? {
            let head = codec::decode_flit(d)?;
            let received = d.u32()?;
            if head.packet_len == 0 {
                return Err(corrupt("reassembly slot of a zero-length packet"));
            }
            if head != head.with_seq(0) {
                return Err(corrupt("reassembly slot whose head is not flit 0"));
            }
            if received == 0 {
                return Err(corrupt("free reassembly slot in checkpoint"));
            }
            if received >= head.packet_len {
                return Err(corrupt("reassembly slot holding its whole packet"));
            }
            if !reassembling.insert(head.packet) {
                return Err(corrupt("two reassembly slots for one packet"));
            }
            self.reassembly.push(ReassemblySlot { head, received });
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

/// Decodes one occupied injection slot: the remaining flits of one packet,
/// in order, ending with its tail.
fn restore_slot(d: &mut Dec) -> std::io::Result<InjectionSlot> {
    let corrupt = || {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bridge checkpoint: injection slot is not one packet's remaining flits",
        )
    };
    let count = d.u32()?;
    if count == 0 {
        return Err(corrupt());
    }
    let first = codec::decode_flit(d)?;
    let slot = InjectionSlot {
        head: first.with_seq(0),
        next: first.seq,
    };
    if first.seq.checked_add(count) != Some(first.packet_len) {
        return Err(corrupt());
    }
    for seq in first.seq..first.packet_len {
        let flit = if seq == first.seq {
            first
        } else {
            codec::decode_flit(d)?
        };
        if flit != slot.head.with_seq(seq) {
            return Err(corrupt());
        }
    }
    Ok(slot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::FlitKind;
    use crate::rng::TileRng;
    use crate::vcbuf::Aggregate;

    fn store() -> Arc<PayloadStore> {
        Arc::new(PayloadStore::new())
    }

    fn bridge_with_vcs(n: usize, capacity: usize) -> Bridge {
        let vcs = (0..n).map(|_| Arc::new(VcBuffer::new(capacity))).collect();
        Bridge::new(NodeId::new(0), vcs, 1, store())
    }

    fn packet(id: u64, len: u32) -> Packet {
        Packet::new(
            PacketId::new(id),
            FlowId::new(1),
            NodeId::new(0),
            NodeId::new(1),
            len,
        )
    }

    #[test]
    fn packet_ids_are_unique_and_node_scoped() {
        let mut b0 = bridge_with_vcs(1, 4);
        let mut b1 = Bridge::new(NodeId::new(1), vec![Arc::new(VcBuffer::new(4))], 1, store());
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
        b.send(packet(1, 4)).unwrap();
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
        let mut b = Bridge::new(NodeId::new(0), vec![Arc::clone(&vc)], 4, store());
        let mut stats = NetworkStats::new();
        b.send(packet(1, 5)).unwrap();
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
        assert_eq!(resumed.stats.injected_at(), 4);
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

    /// The record after `prev`: mostly a source's steady stream, often a
    /// hostile value — ids of another node or running backwards, the
    /// extremes of every field, flows with phase bits.
    fn draw_record(rng: &mut TileRng, prev: Queued) -> Queued {
        if rng.range(0..2) == 0 {
            // The source's next packet: a steady record.
            return Queued {
                id: PacketId::new(prev.id.raw().wrapping_add(1)),
                ..prev
            };
        }
        let wide = |rng: &mut TileRng, steady: u64| match rng.range(0..8) {
            0 => steady.wrapping_sub(rng.range(1..1_000)),
            1 => u64::MAX,
            2 => 1 << 63,
            3 => rng.next_u64(),
            _ => steady,
        };
        let narrow = |rng: &mut TileRng, steady: u32| match rng.range(0..6) {
            0 => u32::MAX,
            1 => rng.next_u64() as u32,
            _ => steady,
        };
        let id = match rng.range(0..8) {
            0 => (rng.range(0..1 << 24) << 40) | rng.range(0..1 << 40),
            _ => wide(rng, prev.id.raw().wrapping_add(1)),
        };
        let flow = match rng.range(0..4) {
            0 => FlowId::new(rng.range(0..4_096)).with_phase(rng.range(0..256) as u8),
            _ => FlowId::from_raw(wide(rng, prev.flow.raw())),
        };
        Queued {
            id: PacketId::new(id),
            flow,
            dst: NodeId::new(narrow(rng, prev.dst.raw())),
            len_flits: narrow(rng, prev.len_flits),
        }
    }

    #[test]
    fn the_backlog_replays_any_records_in_order() {
        for seed in 0..64 {
            let mut rng = TileRng::seed_from_u64(seed);
            let mut backlog = Backlog::default();
            let mut model = VecDeque::new();
            let mut prev = Queued::ZERO;
            for step in 0..600 {
                if rng.range(0..3) == 0 {
                    assert_eq!(backlog.pop(), model.pop_front(), "seed {seed} step {step}");
                } else {
                    prev = draw_record(&mut rng, prev);
                    backlog.push(prev);
                    model.push_back(prev);
                }
                assert_eq!(backlog.len(), model.len());
                assert!(backlog.encoded_len() <= model.len() * MAX_RECORD);
                if step % 16 == 0 {
                    assert!(
                        backlog.iter().eq(model.iter().copied()),
                        "seed {seed} step {step}"
                    );
                }
            }
            let listed: Vec<Queued> = backlog.iter().collect();
            let drained: Vec<Queued> = std::iter::from_fn(|| backlog.pop()).collect();
            assert_eq!(listed, drained);
            assert_eq!(drained, Vec::from(model));
            assert!(backlog.is_empty() && backlog.encoded_len() == 0);
        }
    }

    #[test]
    fn a_record_takes_at_most_max_record_bytes() {
        let mut backlog = Backlog::default();
        let far = Queued {
            id: PacketId::new(1 << 63),
            flow: FlowId::from_raw(1 << 63),
            dst: NodeId::new(u32::MAX),
            len_flits: u32::MAX,
        };
        backlog.push(far);
        assert_eq!(backlog.encoded_len(), MAX_RECORD);
        let mut sizes = Vec::new();
        let mut push = |backlog: &mut Backlog, q: Queued| {
            let before = backlog.encoded_len();
            backlog.push(q);
            sizes.push(backlog.encoded_len() - before);
        };
        // The source's next packet: id + 1, nothing else changed — the tag
        // byte alone.
        let steady = Queued {
            id: PacketId::new(far.id.raw() + 1),
            ..far
        };
        push(&mut backlog, steady);
        // The same id again: a full record of a tag, one byte for each delta
        // and five each for the 32-bit fields.
        push(&mut backlog, steady);
        // A new destination past 127 and a new length: a full record of a
        // tag, one byte each for the deltas, two for the destination, one
        // for the length.
        let turned = Queued {
            id: PacketId::new(steady.id.raw() + 1),
            dst: NodeId::new(200),
            len_flits: 8,
            ..far
        };
        push(&mut backlog, turned);
        // The id half the space away: its delta takes ten bytes.
        let leap = Queued {
            id: PacketId::new(turned.id.raw().wrapping_add(1 << 63)),
            ..turned
        };
        push(&mut backlog, leap);
        assert_eq!(sizes, [1, 1 + 2 + 2 * 5, 1 + 2 + 2 + 1, 1 + 10 + 1 + 2 + 1]);
        let drained: Vec<Queued> = std::iter::from_fn(|| backlog.pop()).collect();
        assert_eq!(drained, [far, steady, steady, turned, leap]);
    }

    #[test]
    fn a_packet_from_another_node_is_refused() {
        let mut b = bridge_with_vcs(1, 4);
        let mut p = packet(1, 2);
        p.src = NodeId::new(3);
        let err = b.send(p).unwrap_err();
        assert_eq!(
            err,
            ForeignSource {
                node: NodeId::new(0),
                src: NodeId::new(3)
            }
        );
        assert!(b.injection_idle());

        // Its own node is a valid destination: the packet's payload goes
        // through the store like any other and is delivered with it.
        let mut own = packet(9, 2).with_payload(Payload::from_words(&[0xdead, 0xbeef]));
        own.dst = NodeId::new(0);
        let own_copy = own.clone();
        b.send(own).unwrap();
        let mut stats = NetworkStats::new();
        let mut flits = Vec::new();
        for now in 0..2 {
            b.inject(now, &mut stats);
            b.injection_vcs[0].absorb_tail();
            while let Some(f) = b.injection_vcs[0].pop_if(now + 9, |_| true) {
                flits.push(f);
            }
        }
        assert_eq!(b.payloads.len(), 1);
        b.accept(&mut flits, 3, &mut stats);
        let d = b.try_recv().expect("packet delivered");
        assert_eq!(d.packet, own_copy);
        assert!(b.payloads.is_empty());
    }

    /// Sends four packets, two of them with payloads, so the payload side
    /// queue and the backlog interleave.
    fn mixed_backlog() -> Bridge {
        let mut b = bridge_with_vcs(1, 2);
        for id in 1..=4u64 {
            let p = packet(id, 3);
            let p = if id % 2 == 0 {
                p.with_payload(Payload::from_words(&[id * 100]))
            } else {
                p
            };
            b.send(p).unwrap();
        }
        b
    }

    #[test]
    fn payloads_follow_their_packets_out_of_the_backlog() {
        let mut b = mixed_backlog();
        let mut stats = NetworkStats::new();
        // Bandwidth 1: packets 1..3 take three cycles each to go in.
        for now in 0..7 {
            b.inject(now, &mut stats);
            // Drain the VC so the next packet can take the slot.
            b.injection_vcs[0].absorb_tail();
            while b.injection_vcs[0].pop_if(now + 9, |_| true).is_some() {}
        }
        // Packets 1..3 went in; only packet 2's payload was parked.
        let parked = b.payloads.snapshot_payloads();
        assert_eq!(parked, [(PacketId::new(2), Payload::from_words(&[200]))]);
        assert!(b.pending_payloads.len() == 1 && b.pending.len() == 1);
    }

    #[test]
    fn snapshot_of_a_part_injected_backlog_restores_byte_for_byte() {
        let mut b = mixed_backlog();
        let mut stats = NetworkStats::new();
        // One flit of packet 1 goes in; packets 2..4 wait in the backlog.
        b.inject(0, &mut stats);
        let mut e = Enc::new();
        b.snapshot(&mut e);
        let mut restored = bridge_with_vcs(1, 2);
        restored.restore(&mut Dec::new(e.bytes())).unwrap();
        let mut again = Enc::new();
        restored.snapshot(&mut again);
        assert_eq!(again.bytes(), e.bytes());
        let slot = restored.slots[0]
            .as_ref()
            .expect("packet 1 is part injected");
        assert_eq!((slot.head.packet, slot.next), (PacketId::new(1), 1));
        assert_eq!(restored.pending_payloads.len(), 2);
    }

    #[test]
    fn a_slot_whose_flits_are_not_one_packets_tail_is_corrupt() {
        let flits = packet(1, 3).to_flits(0);
        // An occupied slot has a flit left to push: a count of 0 is refused
        // even when a flit one past the packet's tail follows it.
        let past_tail = flits[2].with_seq(3);
        for (count, bad) in [
            (2, vec![flits[2], flits[1]]),
            (2, vec![flits[0], flits[1]]),
            (0, vec![past_tail]),
        ] {
            let mut e = Enc::new();
            e.u64(0).u32(0).u32(1).u8(1).u32(count);
            for f in &bad {
                codec::encode_flit(&mut e, f);
            }
            e.u32(0).u32(0);
            let err = bridge_with_vcs(1, 2)
                .restore(&mut Dec::new(e.bytes()))
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    /// Flits of a `len`-flit packet from node 3 to node 0, injected at
    /// `at`, with `latency` cycles and `hops` hops accumulated on each.
    fn inbound(seq: u64, len: u32, at: Cycle, latency: u64, hops: u32) -> Vec<Flit> {
        let id = PacketId::new(3 << 40 | seq);
        let mut flits =
            Packet::new(id, FlowId::new(9), NodeId::new(3), NodeId::new(0), len).to_flits(at);
        for (i, f) in flits.iter_mut().enumerate() {
            f.stats = FlitStats::from_parts(at, latency + i as u64, hops).unwrap();
        }
        flits
    }

    #[test]
    fn the_delivered_packet_is_the_head_flit_and_the_claimed_payload() {
        let mut b = bridge_with_vcs(1, 4);
        let mut stats = NetworkStats::new();
        let with = Payload::from_words(&[5, 6, 7]);
        let flits = inbound(1, 3, 10, 20, 4);
        b.payloads.deposit(flits[0].packet, with.clone());
        // The head opens a slot; nothing is delivered until the tail.
        b.accept(&mut vec![flits[0]], 30, &mut stats);
        b.accept(&mut vec![flits[1]], 31, &mut stats);
        assert!(b.try_recv().is_none());
        let slot = &b.reassembly[0];
        assert_eq!((slot.head, slot.received), (flits[0], 2));
        b.accept(&mut vec![flits[2]], 32, &mut stats);
        // A single-flit packet never takes a slot.
        b.accept(&mut inbound(2, 1, 11, 5, 1), 33, &mut stats);
        assert_eq!(b.reassembly.len(), 1);
        assert_eq!(b.reassembly[0].received, 0, "the slot is free again");
        let sent = |seq: u64, len: u32| {
            let id = PacketId::new(3 << 40 | seq);
            Packet::new(id, FlowId::new(9), NodeId::new(3), NodeId::new(0), len)
        };
        let expected = [
            DeliveredPacket {
                packet: sent(1, 3).with_payload(with),
                delivered_at: 32,
                head_latency: 20,
                tail_latency: 22,
                hops: 4,
            },
            DeliveredPacket {
                packet: sent(2, 1),
                delivered_at: 33,
                head_latency: 5,
                tail_latency: 5,
                hops: 1,
            },
        ];
        assert_eq!(b.try_recv(), Some(expected[0].clone()));
        assert_eq!(b.try_recv(), Some(expected[1].clone()));
        assert!(b.payloads.is_empty());
        assert_eq!(stats.delivered_packets, 2);
        assert_eq!(stats.total_packet_latency, 22 + 5);
    }

    /// A bridge whose record holds every section: a backlog of steady
    /// records with and without payloads (packet 3's payload follows the
    /// payload-less packet 2), a part-pushed injection slot, two packets in
    /// reassembly and two delivered packets the agent has not taken, one
    /// with a payload.
    fn busy_bridge() -> Bridge {
        let mut b = bridge_with_vcs(1, 2);
        for id in 1..=5u64 {
            let p = packet(id, 3);
            let p = if id % 2 == 1 && id > 1 {
                p.with_payload(Payload::from_words(&[id, !id]))
            } else {
                p
            };
            b.send(p).unwrap();
        }
        let mut stats = NetworkStats::new();
        b.inject(0, &mut stats);
        let mut flits = inbound(1, 4, 3, 7, 2);
        flits.truncate(2);
        flits.extend(&inbound(2, 3, 4, 9, 1)[..1]);
        flits.extend(inbound(3, 2, 5, 11, 3));
        flits.extend(inbound(4, 1, 6, 3, 1));
        b.payloads
            .deposit(flits[3].packet, Payload::from_words(&[42]));
        b.accept(&mut flits, 20, &mut stats);
        b
    }

    fn record_of(b: &Bridge) -> Vec<u8> {
        let mut e = Enc::new();
        b.snapshot(&mut e);
        e.into_bytes()
    }

    #[test]
    fn a_busy_bridge_record_holds_every_section() {
        let b = busy_bridge();
        assert_eq!(b.pending.len(), 4);
        assert_eq!(b.pending_payloads.len(), 2);
        assert_eq!(b.slots[0].as_ref().map(|s| s.next), Some(1));
        let slots: Vec<(u32, u32)> = b
            .reassembly
            .iter()
            .map(|s| (s.head.packet_len, s.received))
            .collect();
        // Packet 3's slot is free again: only live slots are written.
        assert_eq!(slots, [(4, 2), (3, 1), (2, 0)]);
        assert_eq!(b.delivered_len(), 2);
        assert_eq!(b.delivered[0].packet.payload.words(), &[42]);
        let record = record_of(&b);
        let mut restored = bridge_with_vcs(1, 2);
        restored.restore(&mut Dec::new(&record)).unwrap();
        assert_eq!(record_of(&restored), record);
    }

    #[test]
    fn a_hostile_bridge_record_is_refused_or_restores_canonically() {
        let record = record_of(&busy_bridge());
        // Restores `bytes` into a fresh bridge; if accepted, the bridge must
        // snapshot back to exactly the bytes it read. Accepted or not, what
        // it holds stays within a small multiple of the bytes read: no count
        // in the record reserves memory before its entries are decoded.
        let accepts = |bytes: &[u8]| {
            let mut fresh = bridge_with_vcs(1, 2);
            let mut d = Dec::new(bytes);
            let restored = fresh.restore(&mut d);
            let held = [
                fresh.pending.bytes.capacity(),
                fresh.pending_payloads.capacity(),
                fresh.reassembly.capacity(),
                fresh.delivered.capacity(),
            ];
            assert!(held.iter().all(|&n| n <= 2 * bytes.len() + 8), "{held:?}");
            if let Err(e) = restored {
                assert!(matches!(
                    e.kind(),
                    std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                ));
                return false;
            }
            let read = bytes.len() - d.remaining();
            assert_eq!(
                record_of(&fresh),
                &bytes[..read],
                "accepted record re-encodes"
            );
            true
        };
        assert!(accepts(&record));
        for cut in 0..record.len() {
            assert!(!accepts(&record[..cut]), "prefix of {cut} bytes accepted");
        }
        let mut flipped = record.clone();
        let mut accepted = 0;
        for i in 0..record.len() {
            for mask in [0x01, 0x80, 0xff] {
                flipped[i] ^= mask;
                accepted += usize::from(accepts(&flipped));
                flipped[i] ^= mask;
            }
        }
        // Most flips land in ids, cycles and latencies, which take any value.
        assert!(accepted > 0 && accepted < 3 * record.len());
    }

    #[test]
    fn a_malformed_reassembly_slot_is_refused_by_name() {
        type Edit = fn(&mut ReassemblySlot);
        let refusal = |edit: Edit| {
            let mut b = busy_bridge();
            edit(&mut b.reassembly[0]);
            let record = record_of(&b);
            let err = bridge_with_vcs(1, 2)
                .restore(&mut Dec::new(&record))
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            err.to_string()
        };
        let cases: [(Edit, &str); 6] = [
            (|s| s.head = s.head.with_seq(1), "head is not flit 0"),
            (|s| s.head.kind = FlitKind::Tail, "head is not flit 0"),
            (
                |s| s.received = s.head.packet_len,
                "holding its whole packet",
            ),
            (|s| s.received = u32::MAX, "holding its whole packet"),
            (|s| s.head.packet_len = 0, "zero-length packet"),
            (
                |s| s.head.packet = PacketId::new(3 << 40 | 2),
                "two reassembly slots",
            ),
        ];
        for (edit, says) in cases {
            let err = refusal(edit);
            assert!(err.contains(says), "{says}: {err}");
        }
        // A free slot is never written; one that claims no flits is corrupt.
        let mut e = Enc::new();
        e.u64(0).u32(0).u32(1).u8(0).u32(1);
        codec::encode_flit(&mut e, &inbound(1, 4, 3, 7, 2)[0]);
        e.u32(0).u32(0);
        let err = bridge_with_vcs(1, 2)
            .restore(&mut Dec::new(e.bytes()))
            .unwrap_err();
        assert!(err.to_string().contains("free reassembly slot"), "{err}");
    }

    #[test]
    fn a_packet_id_twice_in_the_backlog_is_refused() {
        let mut e = Enc::new();
        e.u64(0).u32(2);
        codec::encode_packet(&mut e, &packet(7, 2));
        codec::encode_packet(
            &mut e,
            &packet(7, 2).with_payload(Payload::from_words(&[1])),
        );
        e.u32(1).u8(0).u32(0).u32(0);
        let err = bridge_with_vcs(1, 2)
            .restore(&mut Dec::new(e.bytes()))
            .unwrap_err();
        assert!(err.to_string().contains("twice in the backlog"), "{err}");
    }

    #[test]
    fn multi_vc_bridge_interleaves_packets() {
        let mut b = Bridge::new(
            NodeId::new(0),
            vec![Arc::new(VcBuffer::new(8)), Arc::new(VcBuffer::new(8))],
            4,
            store(),
        );
        let mut stats = NetworkStats::new();
        b.send(packet(1, 2)).unwrap();
        b.send(packet(2, 2)).unwrap();
        b.inject(0, &mut stats);
        // Both packets got a slot; with bandwidth 4 all four flits entered.
        assert_eq!(stats.injected_flits, 4);
        assert!(b.injection_idle());
    }
}
