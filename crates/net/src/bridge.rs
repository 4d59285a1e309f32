//! The bridge between a locally attached agent (traffic injector, CPU core,
//! memory controller) and the router.
//!
//! The bridge presents a simple packet-based interface to the agent, hiding
//! the details of splitting packets into flits, DMA-style injection into the
//! router's CPU-facing ingress port, retrying when the network cannot accept
//! flits, and reassembling ejected flits back into packets.
//!
//! Under an open-loop source past saturation the injection backlog grows
//! without bound, so a waiting packet is kept small: a packed record in one
//! byte FIFO (see `Backlog`) — one byte for a source's steady stream — with
//! its payload, if it has one, side-queued. An injection slot builds each
//! flit from the packet's head as it is pushed. Checkpoints still write
//! every waiting packet out in full.

use crate::codec::{self, Dec, Enc};
use crate::flit::{DeliveredPacket, Flit, FlitStats, Packet, Payload};
use crate::ids::{Cycle, FlowId, NodeId, PacketId};
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

/// One packet in the injection backlog: what [`Packet`] carries minus the
/// source (always the bridge's own node), the injection cycle (stamped when
/// the packet goes in) and the payload (side-queued, and only for packets
/// that carry one). [`Backlog`] stores it packed; this is the decoded value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Queued {
    id: PacketId,
    flow: FlowId,
    created_at: Cycle,
    dst: NodeId,
    len_flits: u32,
}

impl Queued {
    /// The base the first record of an empty backlog is coded against.
    const ZERO: Queued = Queued {
        id: PacketId::new(0),
        flow: FlowId::new(0),
        created_at: 0,
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
    fn packet(&self, src: NodeId, injected_at: Cycle, payload: Payload) -> Packet {
        Packet {
            id: self.id,
            flow: self.flow,
            src,
            dst: self.dst,
            len_flits: self.len_flits,
            created_at: self.created_at,
            injected_at,
            payload,
        }
    }
}

/// The longest record: the full-record tag byte, three 10-byte varints of
/// 64-bit deltas, then two 5-byte varints of 32-bit fields.
const MAX_RECORD: usize = 1 + 3 * 10 + 2 * 5;

/// Low bit of a record's first byte: set for a steady record, clear for the
/// tag byte (0) that opens a full one.
const STEADY: u64 = 1;

/// The injection backlog: a FIFO of [`Queued`] records packed into bytes.
///
/// A record that [`follows`](Queued::follows) the record before it and was
/// not created earlier is *steady*: one LEB128 varint of its creation-cycle
/// delta shifted left by one, with [`STEADY`] set. A source's steady stream
/// (ids one apart, one flow, destination and length, each created at most 63
/// cycles after the one before) packs into one byte a packet where a
/// [`Queued`] is 32. Any other record is *full*: a 0 tag byte, the
/// zigzag-LEB128 varints of the wrapping deltas of its packet id, creation
/// cycle and flow, then the LEB128 `dst` and `len_flits`. No record exceeds
/// [`MAX_RECORD`]. The writer's base is the last record pushed and the
/// reader's the last record popped, so any sequence of values round-trips:
/// nothing assumes ids, cycles or flows move forward.
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
        let mut record = [0u8; MAX_RECORD];
        let created = q.created_at.wrapping_sub(base.created_at);
        let n = if q.follows(&base) && created >> 63 == 0 {
            put_varint(&mut record, created << 1 | STEADY)
        } else {
            // record[0] stays the full-record tag, 0.
            let mut n = 1;
            for v in [
                zigzag(q.id.raw().wrapping_sub(base.id.raw())),
                zigzag(created),
                zigzag(q.flow.raw().wrapping_sub(base.flow.raw())),
                u64::from(q.dst.raw()),
                u64::from(q.len_flits),
            ] {
                n += put_varint(&mut record[n..], v);
            }
            n
        };
        self.bytes.extend(&record[..n]);
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

/// Reads the rest of a LEB128 varint whose first byte is `b`.
fn read_varint(mut b: u8, next: &mut impl FnMut() -> u8) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        v |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
        b = next();
    }
}

/// Reads one record written by [`Backlog::push`] whose predecessor was
/// `base`, taking its bytes from `next`.
fn read_record(base: Queued, mut next: impl FnMut() -> u8) -> Queued {
    let first = next();
    if u64::from(first) & STEADY != 0 {
        let created = read_varint(first, &mut next) >> 1;
        return Queued {
            id: PacketId::new(base.id.raw().wrapping_add(1)),
            created_at: base.created_at.wrapping_add(created),
            ..base
        };
    }
    let mut varint = || {
        let b = next();
        read_varint(b, &mut next)
    };
    let id = base.id.raw().wrapping_add(unzigzag(varint()));
    let created_at = base.created_at.wrapping_add(unzigzag(varint()));
    let flow = base.flow.raw().wrapping_add(unzigzag(varint()));
    Queued {
        id: PacketId::new(id),
        created_at,
        flow: FlowId::from_raw(flow),
        dst: NodeId::new(varint() as u32),
        len_flits: varint() as u32,
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
            pending: Backlog::default(),
            pending_payloads: VecDeque::new(),
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
    /// through [`pending_packets`](Self::pending_packets). The packet's
    /// `injected_at` is stamped when it goes in.
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
            created_at: packet.created_at,
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
        // Fill idle slots with pending packets. The packet itself (payload
        // included) moves to where its destination will claim it.
        for slot in &mut self.slots {
            if slot.is_some() {
                continue;
            }
            let Some(q) = self.pending.pop() else {
                break;
            };
            let payload = match self.pending_payloads.front() {
                Some(&(id, _)) if id == q.id => self.pending_payloads.pop_front().map(|(_, p)| p),
                _ => None,
            };
            stats.injected_packets += 1;
            let head = Flit::head(q.id, q.flow, self.node, q.dst, q.len_flits, now);
            let packet = q.packet(self.node, now, payload.unwrap_or_default());
            match &self.payload_store {
                Some(store) if packet.dst != self.node => store.deposit(packet),
                _ => {
                    self.in_flight_payloads.insert(packet.id, packet);
                }
            }
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
                        created_at: head.stats.injected_at(),
                        injected_at: head.stats.injected_at(),
                        payload: crate::flit::Payload::empty(),
                    });
                let (head_latency, tail_latency, hops) = (
                    head.stats.accumulated_latency(),
                    tail.stats.accumulated_latency(),
                    tail.stats.hops(),
                );
                stats.record_delivery(
                    packet.flow,
                    expected as u64,
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
    }

    /// Serializes the bridge's architectural state: the id allocator, the
    /// pending queue, the per-VC injection slots, the active reassembly
    /// slots, the in-flight loopback payloads (sorted by packet id so the
    /// encoding is canonical) and the delivered-but-unconsumed packets.
    pub fn snapshot(&self, e: &mut Enc) {
        e.u64(self.next_packet_seq);
        e.u32(self.pending.len() as u32);
        let mut payloads = self.pending_payloads.iter().peekable();
        for q in self.pending.iter() {
            let payload = payloads
                .next_if(|(id, _)| *id == q.id)
                .map(|(_, p)| p.clone())
                .unwrap_or_default();
            codec::encode_packet(e, &q.packet(self.node, q.created_at, payload));
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
        self.pending.clear();
        self.pending_payloads.clear();
        for _ in 0..d.u32()? {
            self.send(codec::decode_packet(d)?)
                .map_err(|e| corrupt(&e.to_string()))?;
        }
        if d.u32()? as usize != self.slots.len() {
            return Err(corrupt("injection VC count mismatch"));
        }
        for slot in &mut self.slots {
            *slot = match d.u8()? {
                0 => None,
                _ => restore_slot(d)?,
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

/// Decodes one occupied injection slot: the remaining flits of one packet,
/// in order, ending with its tail. No flits at all is an idle slot.
fn restore_slot(d: &mut Dec) -> std::io::Result<Option<InjectionSlot>> {
    let count = d.u32()?;
    if count == 0 {
        return Ok(None);
    }
    let first = codec::decode_flit(d)?;
    let slot = InjectionSlot {
        head: first.with_seq(0),
        next: first.seq,
    };
    let corrupt = || {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bridge checkpoint: injection slot is not one packet's remaining flits",
        )
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
    Ok(Some(slot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Payload;
    use crate::ids::FlowId;
    use crate::rng::TileRng;
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
        let mut b = Bridge::new(NodeId::new(0), vec![Arc::clone(&vc)], 4);
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
    /// hostile value — ids of another node or running backwards, cycles
    /// going back, the extremes of every field, flows with phase bits.
    fn draw_record(rng: &mut TileRng, prev: Queued) -> Queued {
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
        let later = prev.created_at.wrapping_add(rng.range(0..30));
        if rng.range(0..2) == 0 {
            // The source's next packet: a steady record, unless `created_at`
            // jumps too far for one.
            return Queued {
                id: PacketId::new(prev.id.raw().wrapping_add(1)),
                created_at: wide(rng, later),
                ..prev
            };
        }
        Queued {
            id: PacketId::new(id),
            flow,
            created_at: wide(rng, later),
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
            created_at: 1 << 63,
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
        // The source's next packet: id + 1, a few cycles later, nothing else
        // changed — one byte.
        let steady = Queued {
            id: PacketId::new(far.id.raw() + 1),
            created_at: far.created_at + 3,
            ..far
        };
        push(&mut backlog, steady);
        // 63 cycles later is still one byte; 64 takes a second.
        let late = Queued {
            id: PacketId::new(steady.id.raw() + 1),
            created_at: steady.created_at + 63,
            ..steady
        };
        push(&mut backlog, late);
        let later = Queued {
            id: PacketId::new(late.id.raw() + 1),
            created_at: late.created_at + 64,
            ..late
        };
        push(&mut backlog, later);
        // Created a cycle earlier than the one before: a full record of a
        // tag, one byte for each delta and five each for the 32-bit fields.
        let earlier = Queued {
            id: PacketId::new(later.id.raw() + 1),
            created_at: later.created_at - 1,
            ..later
        };
        push(&mut backlog, earlier);
        // A new destination past 127 and a new length: a full record of a
        // tag, one byte each for the deltas, two for the destination, one
        // for the length.
        let turned = Queued {
            id: PacketId::new(earlier.id.raw() + 1),
            created_at: earlier.created_at + 3,
            dst: NodeId::new(200),
            len_flits: 8,
            ..far
        };
        push(&mut backlog, turned);
        // The worst steady record: a creation delta of 63 bits, ten bytes;
        // one more bit and the record is full.
        let jump = Queued {
            id: PacketId::new(turned.id.raw() + 1),
            created_at: turned.created_at.wrapping_add((1 << 63) - 1),
            ..turned
        };
        push(&mut backlog, jump);
        let leap = Queued {
            id: PacketId::new(jump.id.raw() + 1),
            created_at: jump.created_at.wrapping_add(1 << 63),
            ..jump
        };
        push(&mut backlog, leap);
        assert_eq!(
            sizes,
            [1, 1, 2, 1 + 3 + 2 * 5, 7, 10, 1 + 1 + 10 + 1 + 2 + 1]
        );
        let drained: Vec<Queued> = std::iter::from_fn(|| backlog.pop()).collect();
        assert_eq!(
            drained,
            [far, steady, late, later, earlier, turned, jump, leap]
        );
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

        // Its own node is a valid destination: the packet's payload stays
        // with the bridge (not the shared store) and is delivered with it.
        b.attach_payload_store(Arc::new(PayloadStore::new()));
        let mut own = packet(9, 2).with_payload(Payload::from_words(&[0xdead, 0xbeef]));
        own.dst = NodeId::new(0);
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
        b.accept(&mut flits, 3, &mut stats);
        let d = b.try_recv().expect("packet delivered");
        assert_eq!(d.packet.payload.words(), &[0xdead, 0xbeef]);
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
        let words = |id: u64| {
            b.in_flight_payloads[&PacketId::new(id)]
                .payload
                .words()
                .to_vec()
        };
        assert_eq!(words(1), Vec::<u64>::new());
        assert_eq!(words(2), vec![200]);
        assert_eq!(words(3), Vec::<u64>::new());
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
        for bad in [vec![flits[2], flits[1]], vec![flits[0], flits[1]]] {
            let mut e = Enc::new();
            e.u64(0).u32(0).u32(1).u8(1).u32(bad.len() as u32);
            for f in &bad {
                codec::encode_flit(&mut e, f);
            }
            let err = bridge_with_vcs(1, 2)
                .restore(&mut Dec::new(e.bytes()))
                .unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn multi_vc_bridge_interleaves_packets() {
        let mut b = Bridge::new(
            NodeId::new(0),
            vec![Arc::new(VcBuffer::new(8)), Arc::new(VcBuffer::new(8))],
            4,
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
