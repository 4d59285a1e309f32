//! Packets and flits.
//!
//! A packet is the unit of end-to-end communication; it is split into flits
//! (flow-control digits) for transmission through the wormhole network. The
//! head flit carries the routing state; body and tail flits simply follow the
//! path the head established.
//!
//! Per the paper, measurement state (injection time, per-hop accumulated
//! latency) rides *inside* each flit so that loosely-synchronized parallel
//! simulation never compares clock values from two different tiles. A
//! [`Packet`] therefore carries no cycle stamps of its own: it is its flits'
//! header plus its payload, which travels beside them (see
//! [`crate::payload`]).
//!
//! A [`Flit`] is 64 bytes, one cache line: every VC ring slot holds one and
//! every hop copies one twice. Latency still accumulates per hop; only the
//! stamp of the cycle the flit reached its current router is derived rather
//! than stored. Both writers — the bridge at injection and the router as a
//! flit departs — keep that stamp equal to `injected_at +
//! accumulated_latency`, so [`FlitStats`] holds the injection cycle, the
//! accumulated latency (32 bits) and the hop count (16 bits) in 14 bytes.

use crate::ids::{Cycle, FlowId, NodeId, PacketId};

/// Position of a flit within its packet.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit; carries routing information.
    Head,
    /// Intermediate flit.
    Body,
    /// Last flit; frees the virtual channel behind it.
    Tail,
    /// Single-flit packet (head and tail at once).
    HeadTail,
}

impl FlitKind {
    /// True for `Head` and `HeadTail`.
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// True for `Tail` and `HeadTail`.
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }

    /// The kind of flit `seq` of a packet `len` flits long.
    pub fn at(seq: u32, len: u32) -> Self {
        match (seq, len) {
            (0, 1) => FlitKind::HeadTail,
            (0, _) => FlitKind::Head,
            (s, n) if s + 1 == n => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

/// Measurement state carried inside a flit.
///
/// Latency is accumulated *incrementally at each node* so that the reported
/// number never depends on the relative clock skew between two tiles — this is
/// what lets loose synchronization keep near-100 % timing fidelity.
///
/// Packed to 14 bytes so a [`Flit`] fits 64; the fields are read through
/// accessors. The accumulated latency saturates at `u32::MAX` cycles and the
/// hop count at `u16::MAX`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
#[repr(C, packed(2))]
pub struct FlitStats {
    /// Cycle (source-tile clock) at which the flit entered the source router's
    /// ingress port.
    injected_at: Cycle,
    /// Total in-network latency accumulated so far, in cycles.
    accumulated_latency: u32,
    /// Number of router-to-router hops traversed so far.
    hops: u16,
}

impl FlitStats {
    /// The stamps of a flit entering the network at `injected_at`.
    pub(crate) const fn injected(injected_at: Cycle) -> Self {
        Self {
            injected_at,
            accumulated_latency: 0,
            hops: 0,
        }
    }

    /// Stamps with the given fields, or `None` if the latency or the hop
    /// count does not fit the packed record or the arrival stamp would pass
    /// `Cycle::MAX`.
    pub(crate) fn from_parts(
        injected_at: Cycle,
        accumulated_latency: u64,
        hops: u32,
    ) -> Option<Self> {
        injected_at.checked_add(accumulated_latency)?;
        Some(Self {
            injected_at,
            accumulated_latency: accumulated_latency.try_into().ok()?,
            hops: hops.try_into().ok()?,
        })
    }

    /// Cycle (source-tile clock) at which the flit entered the source
    /// router's ingress port.
    pub fn injected_at(&self) -> Cycle {
        self.injected_at
    }

    /// Cycle at which the flit arrived at the router currently holding it
    /// (the start of its residence there): the injection cycle plus the
    /// latency accumulated so far.
    pub fn arrived_at_current(&self) -> Cycle {
        self.injected_at + u64::from(self.accumulated_latency)
    }

    /// Total in-network latency accumulated so far, in cycles.
    pub fn accumulated_latency(&self) -> u64 {
        u64::from(self.accumulated_latency)
    }

    /// Number of router-to-router hops traversed so far.
    pub fn hops(&self) -> u32 {
        u32::from(self.hops)
    }

    /// The flit leaves its current router at `departure`: its residence
    /// there joins the accumulated latency.
    #[inline]
    pub(crate) fn depart(&mut self, departure: Cycle) {
        let stay = departure.saturating_sub(self.arrived_at_current());
        let stay = u32::try_from(stay).unwrap_or(u32::MAX);
        self.accumulated_latency = self.accumulated_latency.saturating_add(stay);
    }

    /// The flit crosses one more router-to-router link.
    #[inline]
    pub(crate) fn hop(&mut self) {
        self.hops = self.hops.saturating_add(1);
    }
}

/// A flow-control digit: the unit of buffering and link transmission.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Flit {
    /// Packet this flit belongs to.
    pub packet: PacketId,
    /// Current flow identifier (may be a renamed phase of the original flow).
    pub flow: FlowId,
    /// Original (phase-0) flow identifier, restored at the destination.
    pub original_flow: FlowId,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Sequence number within the packet (head = 0).
    pub seq: u32,
    /// Total number of flits in the packet.
    pub packet_len: u32,
    /// Final destination node.
    pub dst: NodeId,
    /// Source node.
    pub src: NodeId,
    /// Cycle (sender's local clock) after which the flit may be observed by
    /// the downstream router; models the one-cycle link traversal and keeps
    /// cycle-accurate parallel simulation deterministic.
    pub visible_at: Cycle,
    /// Embedded measurement state.
    pub stats: FlitStats,
}

impl Flit {
    /// The head flit of a packet, stamped as entering the network at
    /// `injected_at`.
    pub fn head(
        packet: PacketId,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        packet_len: u32,
        injected_at: Cycle,
    ) -> Self {
        Flit {
            packet,
            flow,
            original_flow: flow,
            kind: FlitKind::at(0, packet_len),
            seq: 0,
            packet_len,
            dst,
            src,
            visible_at: injected_at,
            stats: FlitStats::injected(injected_at),
        }
    }

    /// Flit `seq` of the same packet: this flit's header and stamps with the
    /// sequence number and kind of position `seq`.
    pub fn with_seq(&self, seq: u32) -> Self {
        Flit {
            seq,
            kind: FlitKind::at(seq, self.packet_len),
            ..*self
        }
    }

    /// True if this flit is the head of its packet.
    pub fn is_head(&self) -> bool {
        self.kind.is_head()
    }

    /// True if this flit is the tail of its packet.
    pub fn is_tail(&self) -> bool {
        self.kind.is_tail()
    }
}

/// Words a [`Payload`] holds inside itself, with no heap allocation: the
/// longest memory-protocol message.
pub const INLINE_PAYLOAD_WORDS: usize = 5;

/// Payload attached to a packet.
///
/// Synthetic traffic carries no payload; the memory hierarchy and the core
/// model encode their protocol messages as a short sequence of words. Up to
/// [`INLINE_PAYLOAD_WORDS`] words live inline, so a protocol message costs no
/// allocation; a longer payload spills to the heap. The two forms are one
/// value: equality, `Debug` and the wire codec see only the words.
#[derive(Clone, Default)]
pub struct Payload(Words);

#[derive(Clone)]
enum Words {
    /// `len ≤ INLINE_PAYLOAD_WORDS` words at the front of `words`.
    Inline {
        len: u8,
        words: [u64; INLINE_PAYLOAD_WORDS],
    },
    /// More than `INLINE_PAYLOAD_WORDS` words.
    Heap(Vec<u64>),
}

impl Default for Words {
    fn default() -> Self {
        Words::Inline {
            len: 0,
            words: [0; INLINE_PAYLOAD_WORDS],
        }
    }
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Payload from a slice of words.
    pub fn from_words(words: &[u64]) -> Self {
        if words.len() > INLINE_PAYLOAD_WORDS {
            return Self(Words::Heap(words.to_vec()));
        }
        let mut inline = [0; INLINE_PAYLOAD_WORDS];
        inline[..words.len()].copy_from_slice(words);
        Self(Words::Inline {
            len: words.len() as u8,
            words: inline,
        })
    }

    /// Payload of `len` words, each taken from `next` in order; the first
    /// error ends it. Allocates only for a payload too long to hold inline.
    ///
    /// # Errors
    ///
    /// Whatever `next` returns.
    pub fn try_from_fn<E>(len: usize, mut next: impl FnMut() -> Result<u64, E>) -> Result<Self, E> {
        if len > INLINE_PAYLOAD_WORDS {
            let words = (0..len).map(|_| next()).collect::<Result<Vec<u64>, E>>()?;
            return Ok(Self(Words::Heap(words)));
        }
        let mut inline = [0; INLINE_PAYLOAD_WORDS];
        for w in &mut inline[..len] {
            *w = next()?;
        }
        Ok(Self(Words::Inline {
            len: len as u8,
            words: inline,
        }))
    }

    /// The payload words.
    pub fn words(&self) -> &[u64] {
        match &self.0 {
            Words::Inline { len, words } => &words[..*len as usize],
            Words::Heap(words) => words,
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words().len()
    }

    /// True if the payload carries no words.
    pub fn is_empty(&self) -> bool {
        self.words().is_empty()
    }
}

impl From<Vec<u64>> for Payload {
    fn from(v: Vec<u64>) -> Self {
        if v.len() > INLINE_PAYLOAD_WORDS {
            Self(Words::Heap(v))
        } else {
            Self::from_words(&v)
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.words() == other.words()
    }
}

impl Eq for Payload {}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Payload").field(&self.words()).finish()
    }
}

/// A packet: the unit of end-to-end communication offered to the network by a
/// traffic generator, core, or memory controller.
///
/// A packet is its flits plus its payload and holds nothing else: every field
/// but the payload rides in each of its flits (the head's `original_flow` is
/// `flow`, its `packet_len` is `len_flits`), and the destination bridge
/// rebuilds the packet from the head flit and the payload claimed from the
/// [`PayloadStore`](crate::payload::PayloadStore). Timing is not a packet
/// field: it rides in the flits' [`FlitStats`] and reaches the agent as the
/// [`DeliveredPacket`]'s latencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Unique identifier.
    pub id: PacketId,
    /// Flow this packet belongs to (phase 0).
    pub flow: FlowId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Packet length in flits (>= 1).
    pub len_flits: u32,
    /// Optional protocol payload.
    pub payload: Payload,
}

impl Packet {
    /// Creates a packet with the given identity and length and an empty payload.
    ///
    /// # Panics
    ///
    /// Panics if `len_flits == 0`.
    pub fn new(id: PacketId, flow: FlowId, src: NodeId, dst: NodeId, len_flits: u32) -> Self {
        assert!(len_flits >= 1, "a packet must contain at least one flit");
        Self {
            id,
            flow,
            src,
            dst,
            len_flits,
            payload: Payload::empty(),
        }
    }

    /// Attaches a payload, growing `len_flits` if needed so the payload fits.
    ///
    /// A flit is assumed to carry four 64-bit payload words beyond the header
    /// information (a 256-bit-ish flit, typical for on-chip networks), so the
    /// packet needs at least `1 + ceil(words / 4)` flits.
    pub fn with_payload(mut self, payload: Payload) -> Self {
        let needed = 1 + (payload.len() as u32).div_ceil(4);
        if self.len_flits < needed {
            self.len_flits = needed;
        }
        self.payload = payload;
        self
    }

    /// Splits this packet into its flits, stamping the given injection cycle.
    pub fn to_flits(&self, injected_at: Cycle) -> Vec<Flit> {
        let head = Flit::head(
            self.id,
            self.flow,
            self.src,
            self.dst,
            self.len_flits,
            injected_at,
        );
        (0..self.len_flits).map(|seq| head.with_seq(seq)).collect()
    }
}

/// A packet that has been fully reassembled at its destination, together with
/// the measurement data accumulated by its flits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveredPacket {
    /// The original packet (payload preserved by the bridge).
    pub packet: Packet,
    /// Cycle (destination-tile clock) at which the tail flit left the network.
    pub delivered_at: Cycle,
    /// In-network latency of the head flit (accumulated per hop).
    pub head_latency: u64,
    /// In-network latency of the tail flit (accumulated per hop); this is the
    /// packet latency the paper reports.
    pub tail_latency: u64,
    /// Number of hops the packet traversed.
    pub hops: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(len: u32) -> Packet {
        Packet::new(
            PacketId::new(1),
            FlowId::new(3),
            NodeId::new(0),
            NodeId::new(5),
            len,
        )
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let flits = packet(1).to_flits(10);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
        assert!(flits[0].is_head() && flits[0].is_tail());
    }

    #[test]
    fn multi_flit_packet_framing() {
        let flits = packet(4).to_flits(12);
        assert_eq!(flits.len(), 4);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert_eq!(flits[1].kind, FlitKind::Body);
        assert_eq!(flits[2].kind, FlitKind::Body);
        assert_eq!(flits[3].kind, FlitKind::Tail);
        assert!(flits.iter().enumerate().all(|(i, f)| f.seq == i as u32));
        assert!(flits.iter().all(|f| f.stats.injected_at() == 12));
        assert!(flits.iter().all(|f| f.packet_len == 4));
    }

    #[test]
    fn a_flit_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<FlitStats>(), 14);
        assert_eq!(std::mem::size_of::<Flit>(), 64);
    }

    #[test]
    fn the_arrival_stamp_follows_each_departure() {
        let mut s = FlitStats::injected(100);
        assert_eq!((s.arrived_at_current(), s.accumulated_latency()), (100, 0));
        s.depart(104);
        s.hop();
        s.depart(109);
        s.hop();
        assert_eq!(s.arrived_at_current(), 109);
        assert_eq!((s.accumulated_latency(), s.hops()), (9, 2));
        assert_eq!(FlitStats::from_parts(100, 9, 2), Some(s));
        // A departure stamped before the arrival adds nothing.
        s.depart(50);
        assert_eq!(s.arrived_at_current(), 109);
        for (at, latency, hops) in [(0, 1 << 32, 0), (0, 0, 1 << 16), (u64::MAX, 1, 0)] {
            assert_eq!(FlitStats::from_parts(at, latency, hops), None);
        }
        let mut full = FlitStats::from_parts(0, u64::from(u32::MAX), u32::from(u16::MAX)).unwrap();
        full.depart(u64::MAX);
        full.hop();
        assert_eq!(
            (full.accumulated_latency(), full.hops()),
            (u64::from(u32::MAX), 65_535)
        );
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_panics() {
        let _ = packet(0);
    }

    #[test]
    fn payload_grows_packet_length() {
        let p = packet(1).with_payload(Payload::from_words(&[1, 2, 3, 4, 5]));
        assert_eq!(p.len_flits, 3); // head + ceil(5/4) payload flits
        assert_eq!(p.payload.len(), 5);
        // A payload that already fits does not shrink the packet.
        let q = packet(8).with_payload(Payload::from_words(&[1]));
        assert_eq!(q.len_flits, 8);
    }

    #[test]
    fn flit_kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(!FlitKind::Tail.is_head());
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
    }

    #[test]
    fn payload_accessors() {
        let p = Payload::from_words(&[7, 8]);
        assert_eq!(p.words(), &[7, 8]);
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn short_payloads_are_inline_and_long_ones_spill() {
        assert!(std::mem::size_of::<Payload>() <= 48);
        for len in [0, 1, INLINE_PAYLOAD_WORDS, INLINE_PAYLOAD_WORDS + 1, 64] {
            let words: Vec<u64> = (1..=len as u64).collect();
            let p = Payload::from_words(&words);
            assert_eq!(p.words(), &words[..]);
            assert_eq!(
                matches!(p.0, Words::Heap(_)),
                len > INLINE_PAYLOAD_WORDS,
                "{len} words"
            );
            assert_eq!(Payload::from(words.clone()), p);
            let mut it = words.iter().copied();
            let q = Payload::try_from_fn(len, || it.next().ok_or(())).unwrap();
            assert_eq!(q, p);
            assert_eq!(format!("{p:?}"), format!("Payload({words:?})"));
        }
        let mut two = [7, 8].into_iter();
        assert_eq!(
            Payload::try_from_fn(3, || two.next().ok_or("short")),
            Err("short")
        );
    }
}
