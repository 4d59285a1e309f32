//! The hand-rolled little-endian wire codec.
//!
//! Everything that crosses a process boundary or lands in a checkpoint —
//! flits and credits on the data plane, specs, ledgers and directives on the
//! control plane, and the per-shard state snapshots — is encoded with this
//! explicit codec and framed with a `u32` length prefix. The encoding is
//! deliberately hand-rolled: the build image has no serialization crates,
//! and a fixed, versioned byte layout is exactly what a cross-machine
//! protocol (and an on-disk checkpoint) wants anyway.
//!
//! The module lives in `hornet-net` (rather than `hornet-dist`, where it
//! started) so the per-crate snapshot implementations in `hornet-net`,
//! `hornet-mem`, `hornet-cpu` and `hornet-traffic` can serialize through it
//! without depending on the distributed backend; `hornet-dist` re-exports it
//! as `wire`.

use crate::boundary::CreditMsg;
use crate::flit::{Flit, FlitKind, FlitStats, Packet, Payload};
use crate::ids::{FlowId, NodeId, PacketId};
use crate::stats::{FlowRecord, NetworkStats, RouterActivity};
use std::io::{self, Read, Write};

/// Size of one encoded flit, in bytes (fixed: flits are also stored in
/// fixed-slot shared-memory rings).
pub const FLIT_WIRE_BYTES: usize = 79;

/// Size of one encoded credit message, in bytes.
pub const CREDIT_WIRE_BYTES: usize = 12;

/// A growing little-endian encode buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, borrowed.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the buffer, keeping its allocation for the next message.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Starts a length-prefixed frame in place (the layout [`write_frame`]
    /// produces); everything encoded until [`end_frame`](Self::end_frame) is
    /// its payload. Returns the token `end_frame` takes.
    pub fn begin_frame(&mut self) -> usize {
        self.u32(0);
        self.buf.len()
    }

    /// Closes the frame opened at `start` by back-patching its length prefix.
    pub fn end_frame(&mut self, start: usize) {
        let len = (self.buf.len() - start) as u32;
        self.buf[start - 4..start].copy_from_slice(&len.to_le_bytes());
    }

    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Raw bytes with a length prefix.
    pub fn blob(&mut self, b: &[u8]) -> &mut Self {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
        self
    }
}

/// A little-endian decode cursor.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn short() -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, "truncated wire message")
}

impl<'a> Dec<'a> {
    /// Starts decoding `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(short());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn str(&mut self) -> io::Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "invalid UTF-8"))
    }

    pub fn blob(&mut self) -> io::Result<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Sanity bound on a frame's payload: a longer length prefix is corrupt.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

fn frame_len(prefix: [u8; 4]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    Ok(len)
}

/// Reads one length-prefixed frame (up to [`MAX_FRAME_BYTES`]).
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let mut buf = vec![0u8; frame_len(len)?];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Borrows the payload of the frame at the front of `buf` without copying it
/// (the frame occupies `4 + payload.len()` bytes); `None` while its bytes are
/// still arriving. An oversized length prefix is an error before a single
/// payload byte has been buffered.
pub fn peek_frame(buf: &[u8]) -> io::Result<Option<&[u8]>> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    Ok(buf.get(4..4 + frame_len(*prefix)?))
}

/// Encodes a flit into exactly [`FLIT_WIRE_BYTES`] bytes. The arrival
/// stamp [`FlitStats`] derives is written out in full, as are its 32-bit
/// latency and 16-bit hop count as 64 and 32 bits.
pub fn encode_flit(e: &mut Enc, f: &Flit) {
    let before = e.buf.len();
    e.u64(f.packet.raw());
    encode_flow(e, f.flow);
    encode_flow(e, f.original_flow);
    e.u8(match f.kind {
        FlitKind::Head => 0,
        FlitKind::Body => 1,
        FlitKind::Tail => 2,
        FlitKind::HeadTail => 3,
    });
    e.u32(f.seq);
    e.u32(f.packet_len);
    e.u32(f.dst.raw());
    e.u32(f.src.raw());
    e.u64(f.visible_at);
    e.u64(f.stats.injected_at());
    e.u64(f.stats.arrived_at_current());
    e.u64(f.stats.accumulated_latency());
    e.u32(f.stats.hops());
    debug_assert_eq!(e.buf.len() - before, FLIT_WIRE_BYTES);
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Decodes a flit written by [`encode_flit`].
///
/// # Errors
///
/// Refuses, with `InvalidData`, a record no flit encodes to: an unknown
/// kind, a flow base wider than 56 bits, an accumulated latency past
/// `u32::MAX`, a hop count past `u16::MAX`, or an arrival stamp other than
/// injection + accumulated latency.
pub fn decode_flit(d: &mut Dec) -> io::Result<Flit> {
    let packet = PacketId::new(d.u64()?);
    let flow = decode_flow(d)?;
    let original_flow = decode_flow(d)?;
    let kind = match d.u8()? {
        0 => FlitKind::Head,
        1 => FlitKind::Body,
        2 => FlitKind::Tail,
        3 => FlitKind::HeadTail,
        k => return Err(invalid(format!("bad flit kind {k}"))),
    };
    let seq = d.u32()?;
    let packet_len = d.u32()?;
    let dst = NodeId::new(d.u32()?);
    let src = NodeId::new(d.u32()?);
    let visible_at = d.u64()?;
    let (injected_at, arrived_at, accumulated, hops) = (d.u64()?, d.u64()?, d.u64()?, d.u32()?);
    let stats = FlitStats::from_parts(injected_at, accumulated, hops).ok_or_else(|| {
        invalid(format!(
            "flit latency {accumulated} or hop count {hops} out of range"
        ))
    })?;
    if stats.arrived_at_current() != arrived_at {
        return Err(invalid(format!(
            "flit arrival {arrived_at} is not injection {injected_at} + latency {accumulated}"
        )));
    }
    Ok(Flit {
        packet,
        flow,
        original_flow,
        kind,
        seq,
        packet_len,
        dst,
        src,
        visible_at,
        stats,
    })
}

/// Encodes a full packet: identity, flow, framing and payload words.
pub fn encode_packet(e: &mut Enc, p: &Packet) {
    e.u64(p.id.raw());
    encode_flow(e, p.flow);
    e.u32(p.src.raw());
    e.u32(p.dst.raw());
    e.u32(p.len_flits);
    encode_words(e, &p.payload);
}

/// Decodes a packet written by [`encode_packet`].
///
/// # Errors
///
/// Refuses, with `InvalidData`, a packet of no flits.
pub fn decode_packet(d: &mut Dec) -> io::Result<Packet> {
    let id = PacketId::new(d.u64()?);
    let flow = decode_flow(d)?;
    let src = NodeId::new(d.u32()?);
    let dst = NodeId::new(d.u32()?);
    let len_flits = d.u32()?;
    if len_flits == 0 {
        return Err(invalid("zero-length packet on the wire".into()));
    }
    let mut p = Packet::new(id, flow, src, dst, len_flits);
    p.payload = decode_words(d)?;
    Ok(p)
}

/// Encodes a parked payload with the id of its packet — the record that
/// follows a packet's tail flit across a process boundary so the destination
/// bridge can claim it (the DMA side of the flit model), and that a
/// checkpoint keeps for every payload parked in a store.
pub fn encode_payload(e: &mut Enc, id: PacketId, payload: &Payload) {
    e.u64(id.raw());
    encode_words(e, payload);
}

/// Decodes a record written by [`encode_payload`].
///
/// # Errors
///
/// Refuses, with `InvalidData`, an empty payload: a packet without one is
/// never parked.
pub fn decode_payload(d: &mut Dec) -> io::Result<(PacketId, Payload)> {
    let id = PacketId::new(d.u64()?);
    let payload = decode_words(d)?;
    if payload.is_empty() {
        return Err(invalid(format!("empty payload parked for packet {id}")));
    }
    Ok((id, payload))
}

/// Encodes a checkpoint's parked payloads, which must be sorted by packet id
/// (see [`PayloadStore::snapshot_payloads`](crate::payload::PayloadStore::snapshot_payloads)):
/// a count, then one [`encode_payload`] record each.
pub fn encode_parked(e: &mut Enc, parked: &[(PacketId, Payload)]) {
    e.u32(parked.len() as u32);
    for (id, payload) in parked {
        encode_payload(e, *id, payload);
    }
}

/// Decodes a section written by [`encode_parked`], handing each payload to
/// `deposit`.
///
/// # Errors
///
/// Refuses, with `InvalidData`, a record [`decode_payload`] refuses or ids
/// that do not strictly increase: anything else re-encodes differently.
pub fn decode_parked(d: &mut Dec, mut deposit: impl FnMut(PacketId, Payload)) -> io::Result<()> {
    let mut last = None;
    for _ in 0..d.u32()? {
        let (id, payload) = decode_payload(d)?;
        if last.is_some_and(|last| id <= last) {
            return Err(invalid(format!("parked payload {id} out of order")));
        }
        last = Some(id);
        deposit(id, payload);
    }
    Ok(())
}

fn encode_words(e: &mut Enc, payload: &Payload) {
    e.u32(payload.len() as u32);
    for w in payload.words() {
        e.u64(*w);
    }
}

fn decode_words(d: &mut Dec) -> io::Result<Payload> {
    let words = d.u32()? as usize;
    if d.remaining() / 8 < words {
        return Err(short());
    }
    Payload::try_from_fn(words, || d.u64())
}

/// Encodes a flow id as base + phase. `FlowId::new` masks the phase bits out
/// of a raw value, so the two components must travel separately.
pub fn encode_flow(e: &mut Enc, f: FlowId) {
    e.u64(f.base());
    e.u8(f.phase());
}

/// Decodes a flow id written by [`encode_flow`].
///
/// # Errors
///
/// Refuses, with `InvalidData`, a base with bits set in the phase field:
/// no flow id encodes to it.
pub fn decode_flow(d: &mut Dec) -> io::Result<FlowId> {
    let base = d.u64()?;
    let flow = FlowId::new(base);
    if flow.base() != base {
        return Err(invalid(format!(
            "flow base {base:#x} is wider than 56 bits"
        )));
    }
    Ok(flow.with_phase(d.u8()?))
}

/// Encodes a credit message into exactly [`CREDIT_WIRE_BYTES`] bytes.
pub fn encode_credit(e: &mut Enc, c: &CreditMsg) {
    e.u64(c.cycle);
    e.u32(c.count);
}

/// Decodes a credit message written by [`encode_credit`].
pub fn decode_credit(d: &mut Dec) -> io::Result<CreditMsg> {
    Ok(CreditMsg {
        cycle: d.u64()?,
        count: d.u32()?,
    })
}

/// Encodes a full per-shard statistics record (including the per-flow map
/// and the latency histogram, so bit-identity can be asserted end to end).
pub fn encode_stats(e: &mut Enc, s: &NetworkStats) {
    e.u64(s.offered_packets);
    e.u64(s.injected_packets);
    e.u64(s.injected_flits);
    e.u64(s.delivered_packets);
    e.u64(s.delivered_flits);
    e.u64(s.total_flit_latency);
    e.u64(s.total_packet_latency);
    e.u64(s.total_head_latency);
    e.u64(s.total_hops);
    e.u64(s.routing_failures);
    e.u64(s.activity.buffer_writes);
    e.u64(s.activity.buffer_reads);
    e.u64(s.activity.crossbar_transits);
    e.u64(s.activity.link_flits);
    e.u64(s.activity.arbitrations);
    e.u64(s.simulated_cycles);
    e.u64(s.fast_forwarded_cycles);
    e.u64(s.busy_cycles);
    e.u64(s.last_cycle);
    // Per-flow records, sorted by flow id so the encoding is canonical.
    let mut flows: Vec<(&u64, &FlowRecord)> = s.per_flow.iter().collect();
    flows.sort_by_key(|(id, _)| **id);
    e.u32(flows.len() as u32);
    for (id, rec) in flows {
        e.u64(*id);
        e.u64(rec.packets);
        e.u64(rec.flits);
        e.u64(rec.total_packet_latency);
    }
    e.u32(s.latency_histogram.len() as u32);
    for b in &s.latency_histogram {
        e.u64(*b);
    }
}

/// Decodes a statistics record written by [`encode_stats`].
pub fn decode_stats(d: &mut Dec) -> io::Result<NetworkStats> {
    let mut s = NetworkStats {
        offered_packets: d.u64()?,
        injected_packets: d.u64()?,
        injected_flits: d.u64()?,
        delivered_packets: d.u64()?,
        delivered_flits: d.u64()?,
        total_flit_latency: d.u64()?,
        total_packet_latency: d.u64()?,
        total_head_latency: d.u64()?,
        total_hops: d.u64()?,
        routing_failures: d.u64()?,
        activity: RouterActivity {
            buffer_writes: d.u64()?,
            buffer_reads: d.u64()?,
            crossbar_transits: d.u64()?,
            link_flits: d.u64()?,
            arbitrations: d.u64()?,
        },
        simulated_cycles: d.u64()?,
        fast_forwarded_cycles: d.u64()?,
        busy_cycles: d.u64()?,
        last_cycle: d.u64()?,
        ..NetworkStats::new()
    };
    let flows = d.u32()?;
    let mut last = None;
    for _ in 0..flows {
        let id = d.u64()?;
        // Written sorted and once each: anything else re-encodes differently.
        if last.is_some_and(|last| id <= last) {
            return Err(invalid(format!("per-flow record {id} out of order")));
        }
        last = Some(id);
        let rec = FlowRecord {
            packets: d.u64()?,
            flits: d.u64()?,
            total_packet_latency: d.u64()?,
        };
        s.per_flow.insert(id, rec);
    }
    let buckets = d.u32()?;
    s.latency_histogram = (0..buckets).map(|_| d.u64()).collect::<io::Result<_>>()?;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit() -> Flit {
        Flit {
            packet: PacketId::new(42),
            flow: FlowId::new(7).with_phase(1),
            original_flow: FlowId::new(7),
            kind: FlitKind::Tail,
            seq: 3,
            packet_len: 4,
            dst: NodeId::new(11),
            src: NodeId::new(2),
            visible_at: 1_000_003,
            stats: FlitStats::from_parts(999_000, 1_000, 5).unwrap(),
        }
    }

    #[test]
    fn flit_round_trips() {
        let mut e = Enc::new();
        encode_flit(&mut e, &flit());
        assert_eq!(e.bytes().len(), FLIT_WIRE_BYTES);
        let mut d = Dec::new(e.bytes());
        assert_eq!(decode_flit(&mut d).unwrap(), flit());
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn packet_round_trips_with_payload() {
        let mut p = Packet::new(
            PacketId::new(77),
            FlowId::new(3).with_phase(2),
            NodeId::new(4),
            NodeId::new(9),
            8,
        );
        p.payload = Payload::from_words(&[1, u64::MAX, 0xdead_beef]);
        let mut e = Enc::new();
        encode_packet(&mut e, &p);
        let back = decode_packet(&mut Dec::new(e.bytes())).unwrap();
        assert_eq!(back, p);

        let empty = Packet::new(
            PacketId::new(1),
            FlowId::new(0),
            NodeId::new(0),
            NodeId::new(1),
            2,
        );
        let mut e = Enc::new();
        encode_packet(&mut e, &empty);
        assert_eq!(decode_packet(&mut Dec::new(e.bytes())).unwrap(), empty);
    }

    #[test]
    fn credit_round_trips() {
        let c = CreditMsg {
            cycle: 123_456,
            count: 9,
        };
        let mut e = Enc::new();
        encode_credit(&mut e, &c);
        assert_eq!(e.bytes().len(), CREDIT_WIRE_BYTES);
        assert_eq!(decode_credit(&mut Dec::new(e.bytes())).unwrap(), c);
    }

    #[test]
    fn stats_round_trip_preserves_histogram_and_flows() {
        let mut s = NetworkStats::new();
        s.record_delivery(FlowId::new(3), 8, 10, 20, 4);
        s.record_delivery(FlowId::new(9), 8, 12, 300, 6);
        s.injected_flits = 16;
        s.busy_cycles = 77;
        s.simulated_cycles = 1_000;
        let mut e = Enc::new();
        encode_stats(&mut e, &s);
        let back = decode_stats(&mut Dec::new(e.bytes())).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn frames_round_trip_over_a_pipe() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[7u8; 300]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![7u8; 300]);

        // The in-place pair produces and consumes the same layout.
        let mut e = Enc::new();
        for payload in [&b"hello"[..], b"", &[7u8; 300]] {
            let start = e.begin_frame();
            e.buf.extend_from_slice(payload);
            e.end_frame(start);
        }
        assert_eq!(e.bytes(), buf);
        assert_eq!(peek_frame(&buf).unwrap(), Some(&b"hello"[..]));
        assert_eq!(peek_frame(&buf[..8]).unwrap(), None);
        assert_eq!(peek_frame(&buf[..3]).unwrap(), None);
        assert_eq!(peek_frame(&buf[9..]).unwrap(), Some(&b""[..]));
        assert!(peek_frame(&u32::MAX.to_le_bytes()).is_err());
    }

    /// Feeds `decode` every prefix of `record` and every byte of it XORed
    /// with 0x01, 0x80 and 0xff: every prefix must be refused and every
    /// accepted flip must re-encode to exactly the bytes read. Returns how
    /// many flips were accepted.
    fn hostile<T>(
        record: &[u8],
        decode: impl Fn(&mut Dec) -> io::Result<T>,
        encode: impl Fn(&mut Enc, &T),
    ) -> usize {
        let accepts = |bytes: &[u8]| {
            let mut d = Dec::new(bytes);
            let Ok(value) = decode(&mut d) else {
                return false;
            };
            let mut e = Enc::new();
            encode(&mut e, &value);
            assert_eq!(e.bytes(), &bytes[..bytes.len() - d.remaining()]);
            true
        };
        assert!(accepts(record));
        for cut in 0..record.len() {
            assert!(!accepts(&record[..cut]), "prefix of {cut} bytes accepted");
        }
        let mut flipped = record.to_vec();
        let mut accepted = 0;
        for i in 0..record.len() {
            for mask in [0x01, 0x80, 0xff] {
                flipped[i] ^= mask;
                accepted += usize::from(accepts(&flipped));
                flipped[i] ^= mask;
            }
        }
        accepted
    }

    #[test]
    fn hostile_flit_and_packet_records_are_refused_or_decode_canonically() {
        let mut e = Enc::new();
        encode_flit(&mut e, &flit());
        let accepted = hostile(e.bytes(), decode_flit, encode_flit);
        assert!(accepted > 0 && accepted < 3 * FLIT_WIRE_BYTES);

        let mut p = Packet::new(
            PacketId::new(5 << 40 | 77),
            FlowId::new(3).with_phase(2),
            NodeId::new(5),
            NodeId::new(9),
            8,
        );
        for payload in [&[][..], &[1, u64::MAX, 0xdead_beef]] {
            p.payload = Payload::from_words(payload);
            let mut e = Enc::new();
            encode_packet(&mut e, &p);
            let accepted = hostile(e.bytes(), decode_packet, encode_packet);
            assert!(accepted > 0);
        }
        let mut e = Enc::new();
        encode_payload(&mut e, p.id, &p.payload);
        let payload = |d: &mut Dec| decode_payload(d);
        let encode = |e: &mut Enc, (id, p): &(PacketId, Payload)| encode_payload(e, *id, p);
        assert!(hostile(e.bytes(), payload, encode) > 0);
        let mut e = Enc::new();
        encode_payload(&mut e, p.id, &Payload::empty());
        let err = decode_payload(&mut Dec::new(e.bytes())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        // A checkpoint's parked payloads, which must be sorted and distinct.
        let parked: Vec<_> = [3, 9]
            .map(|id| (PacketId::new(id), Payload::from_words(&[id])))
            .into();
        let parked_section = |e: &mut Enc, parked: &Vec<_>| encode_parked(e, parked);
        let read_parked = |d: &mut Dec| -> io::Result<Vec<_>> {
            let mut got = Vec::new();
            decode_parked(d, |id, payload| got.push((id, payload)))?;
            Ok(got)
        };
        let mut e = Enc::new();
        encode_parked(&mut e, &parked);
        assert_eq!(read_parked(&mut Dec::new(e.bytes())).unwrap(), parked);
        assert!(hostile(e.bytes(), read_parked, parked_section) > 0);
        for ids in [[9, 3], [3, 3]] {
            let mut e = Enc::new();
            encode_parked(
                &mut e,
                &ids.map(|id| (PacketId::new(id), Payload::from_words(&[id]))),
            );
            let err = read_parked(&mut Dec::new(e.bytes())).unwrap_err();
            assert!(err.to_string().contains("out of order"), "{ids:?}: {err}");
        }

        // A statistics record (the head of every router record) with
        // several per-flow entries, which must stay sorted and distinct.
        let mut s = NetworkStats::new();
        for (flow, latency) in [(3, 20), (9, 300), (12, 7)] {
            s.record_delivery(FlowId::new(flow), 8, latency / 2, latency, 4);
        }
        let mut e = Enc::new();
        encode_stats(&mut e, &s);
        assert!(hostile(e.bytes(), decode_stats, encode_stats) > 0);
    }

    #[test]
    fn a_flit_record_the_layout_cannot_hold_is_refused() {
        let f = flit();
        let mut good = Enc::new();
        encode_flit(&mut good, &f);
        // The stamps sit at the end: injection, arrival, latency, hops.
        let stamps = FLIT_WIRE_BYTES - 28;
        let refusal = |patches: &[(usize, &[u8])]| {
            let mut record = good.bytes().to_vec();
            for (at, bytes) in patches {
                record[*at..at + bytes.len()].copy_from_slice(bytes);
            }
            let err = decode_flit(&mut Dec::new(&record)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            err.to_string()
        };
        let wide = u64::from(u32::MAX) + 1;
        let cases = [
            (
                "arrival ≠ injection + accumulated",
                refusal(&[(stamps + 8, &1_000_001u64.to_le_bytes())]),
                "is not injection",
            ),
            (
                "accumulated > u32::MAX",
                refusal(&[
                    (stamps + 8, &(999_000 + wide).to_le_bytes()),
                    (stamps + 16, &wide.to_le_bytes()),
                ]),
                "out of range",
            ),
            (
                "hops > u16::MAX",
                refusal(&[(stamps + 24, &65_536u32.to_le_bytes())]),
                "out of range",
            ),
            (
                "flow base past 56 bits",
                refusal(&[(15, &[0x01])]),
                "wider than 56 bits",
            ),
        ];
        for (what, err, says) in cases {
            assert!(err.contains(says), "{what}: {err}");
        }
        // At the limits, the record still decodes.
        let mut edge = f;
        edge.stats = FlitStats::from_parts(7, u64::from(u32::MAX), u32::from(u16::MAX)).unwrap();
        let mut e = Enc::new();
        encode_flit(&mut e, &edge);
        assert_eq!(decode_flit(&mut Dec::new(e.bytes())).unwrap(), edge);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let mut e = Enc::new();
        encode_flit(&mut e, &flit());
        let cut = &e.bytes()[..20];
        assert!(decode_flit(&mut Dec::new(cut)).is_err());
    }
}
