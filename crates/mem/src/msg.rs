//! Memory-protocol messages and their packet encoding.
//!
//! All memory traffic (cache misses, coherence, NUCA remote accesses, DRAM
//! requests) travels through the simulated network as ordinary packets whose
//! payload words encode a [`MemMessage`]. The first payload word is a message
//! class so the receiving tile can demultiplex packets to its L1 controller,
//! directory slice, memory controller, or user (MPI-style) receive queues.

use hornet_net::codec::{Dec, Enc};
use hornet_net::flit::{Packet, Payload, INLINE_PAYLOAD_WORDS};
use hornet_net::ids::{FlowId, NodeId, PacketId};
use std::io;

/// Address of one cache line.
pub type LineAddr = u64;

/// Which component of a tile a packet is destined for.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// L1 cache controller (data responses, invalidations, fetches).
    L1 = 1,
    /// Directory slice (coherence requests, writebacks, acks).
    Directory = 2,
    /// Memory controller (DRAM reads/writes).
    MemoryController = 3,
    /// User-level message passing (MPI-style network syscalls).
    User = 4,
}

/// A memory-system protocol message.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MemMessage {
    /// L1 → directory: read (shared) request.
    GetS { line: LineAddr, requester: NodeId },
    /// L1 → directory: write (exclusive) request.
    GetM { line: LineAddr, requester: NodeId },
    /// Directory → L1: data response (with the number of invalidation acks the
    /// requester must wait for; 0 in this simplified protocol because the
    /// directory collects acks itself).
    Data { line: LineAddr, value: u64 },
    /// Directory → L1 (owner): forward the line to the requester and
    /// downgrade/invalidate.
    Fetch {
        line: LineAddr,
        requester: NodeId,
        invalidate: bool,
    },
    /// Directory → L1: invalidate a shared copy.
    Invalidate { line: LineAddr },
    /// L1 → directory: invalidation acknowledged.
    InvAck { line: LineAddr, from: NodeId },
    /// L1 → directory: writeback of a modified line (eviction or downgrade).
    PutM {
        line: LineAddr,
        value: u64,
        from: NodeId,
    },
    /// Owner L1 → requester L1: forwarded data (cache-to-cache transfer).
    FwdData { line: LineAddr, value: u64 },
    /// NUCA remote read request (no caching; executed at the home tile).
    RemoteRead { addr: u64, requester: NodeId },
    /// NUCA remote read reply.
    RemoteReadResp { addr: u64, value: u64 },
    /// NUCA remote write request.
    RemoteWrite {
        addr: u64,
        value: u64,
        requester: NodeId,
    },
    /// NUCA remote write acknowledgement.
    RemoteWriteAck { addr: u64 },
    /// Directory/L2 → memory controller: DRAM read.
    DramRead { line: LineAddr, requester: NodeId },
    /// Memory controller → requester: DRAM read reply.
    DramReadResp { line: LineAddr, value: u64 },
    /// Directory/L2 → memory controller: DRAM write (writeback).
    DramWrite { line: LineAddr, value: u64 },
}

impl MemMessage {
    /// The message class used for demultiplexing at the destination tile.
    pub fn class(&self) -> MsgClass {
        match self {
            MemMessage::GetS { .. }
            | MemMessage::GetM { .. }
            | MemMessage::InvAck { .. }
            | MemMessage::PutM { .. } => MsgClass::Directory,
            MemMessage::Data { .. }
            | MemMessage::Fetch { .. }
            | MemMessage::Invalidate { .. }
            | MemMessage::FwdData { .. }
            | MemMessage::RemoteReadResp { .. }
            | MemMessage::RemoteWriteAck { .. }
            | MemMessage::DramReadResp { .. } => MsgClass::L1,
            MemMessage::RemoteRead { .. } | MemMessage::RemoteWrite { .. } => MsgClass::Directory,
            MemMessage::DramRead { .. } | MemMessage::DramWrite { .. } => {
                MsgClass::MemoryController
            }
        }
    }

    /// True if the message carries a full cache line of data (and therefore
    /// uses a long packet).
    pub fn carries_data(&self) -> bool {
        matches!(
            self,
            MemMessage::Data { .. }
                | MemMessage::FwdData { .. }
                | MemMessage::PutM { .. }
                | MemMessage::RemoteReadResp { .. }
                | MemMessage::RemoteWrite { .. }
                | MemMessage::DramReadResp { .. }
                | MemMessage::DramWrite { .. }
        )
    }

    /// Encodes the message into payload words: the class, an opcode, then
    /// the fields. At most [`INLINE_PAYLOAD_WORDS`] words, so the payload
    /// never allocates.
    pub fn encode(&self) -> Payload {
        let class = self.class() as u64;
        let node = |n: NodeId| n.raw() as u64;
        let words = Payload::from_words;
        match *self {
            MemMessage::GetS { line, requester } => words(&[class, 1, line, node(requester)]),
            MemMessage::GetM { line, requester } => words(&[class, 2, line, node(requester)]),
            MemMessage::Data { line, value } => words(&[class, 3, line, value]),
            MemMessage::Fetch {
                line,
                requester,
                invalidate,
            } => words(&[class, 4, line, node(requester), invalidate as u64]),
            MemMessage::Invalidate { line } => words(&[class, 5, line]),
            MemMessage::InvAck { line, from } => words(&[class, 6, line, node(from)]),
            MemMessage::PutM { line, value, from } => words(&[class, 7, line, value, node(from)]),
            MemMessage::FwdData { line, value } => words(&[class, 8, line, value]),
            MemMessage::RemoteRead { addr, requester } => words(&[class, 9, addr, node(requester)]),
            MemMessage::RemoteReadResp { addr, value } => words(&[class, 10, addr, value]),
            MemMessage::RemoteWrite {
                addr,
                value,
                requester,
            } => words(&[class, 11, addr, value, node(requester)]),
            MemMessage::RemoteWriteAck { addr } => words(&[class, 12, addr]),
            MemMessage::DramRead { line, requester } => words(&[class, 13, line, node(requester)]),
            MemMessage::DramReadResp { line, value } => words(&[class, 14, line, value]),
            MemMessage::DramWrite { line, value } => words(&[class, 15, line, value]),
        }
    }

    /// Decodes a message from payload words.
    ///
    /// Returns `None` for malformed or non-memory payloads.
    pub fn decode(payload: &Payload) -> Option<Self> {
        Self::decode_words(payload.words())
    }

    /// Decodes a message from the words [`encode`](Self::encode) writes.
    ///
    /// Only the exact encoding is accepted — the right number of words, the
    /// class word of the message, node ids that fit 32 bits and a 0/1 flag —
    /// so a decoded message encodes back to the same words. Anything else is
    /// `None`, never a panic.
    pub fn decode_words(w: &[u64]) -> Option<Self> {
        let (&class, rest) = w.split_first()?;
        let (&op, f) = rest.split_first()?;
        let node = |i: usize| u32::try_from(f[i]).ok().map(NodeId::new);
        let msg = match (op, f.len()) {
            (1, 2) => MemMessage::GetS {
                line: f[0],
                requester: node(1)?,
            },
            (2, 2) => MemMessage::GetM {
                line: f[0],
                requester: node(1)?,
            },
            (3, 2) => MemMessage::Data {
                line: f[0],
                value: f[1],
            },
            (4, 3) => MemMessage::Fetch {
                line: f[0],
                requester: node(1)?,
                invalidate: match f[2] {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            },
            (5, 1) => MemMessage::Invalidate { line: f[0] },
            (6, 2) => MemMessage::InvAck {
                line: f[0],
                from: node(1)?,
            },
            (7, 3) => MemMessage::PutM {
                line: f[0],
                value: f[1],
                from: node(2)?,
            },
            (8, 2) => MemMessage::FwdData {
                line: f[0],
                value: f[1],
            },
            (9, 2) => MemMessage::RemoteRead {
                addr: f[0],
                requester: node(1)?,
            },
            (10, 2) => MemMessage::RemoteReadResp {
                addr: f[0],
                value: f[1],
            },
            (11, 3) => MemMessage::RemoteWrite {
                addr: f[0],
                value: f[1],
                requester: node(2)?,
            },
            (12, 1) => MemMessage::RemoteWriteAck { addr: f[0] },
            (13, 2) => MemMessage::DramRead {
                line: f[0],
                requester: node(1)?,
            },
            (14, 2) => MemMessage::DramReadResp {
                line: f[0],
                value: f[1],
            },
            (15, 2) => MemMessage::DramWrite {
                line: f[0],
                value: f[1],
            },
            _ => return None,
        };
        (msg.class() as u64 == class).then_some(msg)
    }

    /// Writes the message into a checkpoint: its word count, then the
    /// words [`encode`](Self::encode) gives.
    pub fn snapshot(&self, e: &mut Enc) {
        let payload = self.encode();
        e.u32(payload.len() as u32);
        for &w in payload.words() {
            e.u64(w);
        }
    }

    /// Reads a message [`snapshot`](Self::snapshot) wrote, into a stack
    /// buffer: `Ok(None)` if the words are no message `encode` writes.
    ///
    /// # Errors
    ///
    /// Fails if the record ends early.
    pub fn restore(d: &mut Dec) -> io::Result<Option<Self>> {
        let len = d.u32()? as usize;
        if len > INLINE_PAYLOAD_WORDS {
            return Ok(None);
        }
        let mut words = [0; INLINE_PAYLOAD_WORDS];
        for w in &mut words[..len] {
            *w = d.u64()?;
        }
        Ok(Self::decode_words(&words[..len]))
    }

    /// Builds a network packet carrying this message.
    ///
    /// Control messages occupy `control_len` flits and data-bearing messages
    /// `data_len` flits, mirroring the short-request / long-response packets
    /// of a cache-coherent NoC.
    pub fn to_packet(
        &self,
        id: PacketId,
        src: NodeId,
        dst: NodeId,
        node_count: usize,
        control_len: u32,
        data_len: u32,
    ) -> Packet {
        let len = if self.carries_data() {
            data_len
        } else {
            control_len
        };
        Packet::new(id, FlowId::for_pair(src, dst, node_count), src, dst, len)
            .with_payload(self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_for_all_variants() {
        let n = NodeId::new(7);
        let msgs = [
            MemMessage::GetS {
                line: 0x40,
                requester: n,
            },
            MemMessage::GetM {
                line: 0x80,
                requester: n,
            },
            MemMessage::Data {
                line: 0x40,
                value: 99,
            },
            MemMessage::Fetch {
                line: 1,
                requester: n,
                invalidate: true,
            },
            MemMessage::Invalidate { line: 2 },
            MemMessage::InvAck { line: 2, from: n },
            MemMessage::PutM {
                line: 3,
                value: 5,
                from: n,
            },
            MemMessage::FwdData { line: 3, value: 5 },
            MemMessage::RemoteRead {
                addr: 0x1000,
                requester: n,
            },
            MemMessage::RemoteReadResp {
                addr: 0x1000,
                value: 1,
            },
            MemMessage::RemoteWrite {
                addr: 0x1008,
                value: 2,
                requester: n,
            },
            MemMessage::RemoteWriteAck { addr: 0x1008 },
            MemMessage::DramRead {
                line: 9,
                requester: n,
            },
            MemMessage::DramReadResp { line: 9, value: 4 },
            MemMessage::DramWrite { line: 9, value: 4 },
        ];
        for m in msgs {
            let payload = m.encode();
            assert!(payload.len() <= INLINE_PAYLOAD_WORDS);
            let decoded = MemMessage::decode(&payload).expect("decodes");
            assert_eq!(decoded, m);
            assert_eq!(MemMessage::decode_words(payload.words()), Some(m));
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        for words in [
            &[][..],
            &[1],
            &[99, 1, 2, 3],
            &[1, 99, 2, 3],
            // GetS is a directory-class message: class word 2, four words.
            &[1, 1, 2, 3],
            &[2, 1],
            &[2, 1, 2],
            &[2, 1, 2, 3, 4],
            // A node id wider than 32 bits, a Fetch flag that is not 0/1.
            &[2, 1, 2, 1 << 32],
            &[1, 4, 2, 3, 2],
        ] {
            assert!(MemMessage::decode_words(words).is_none(), "{words:?}");
            assert!(MemMessage::decode(&Payload::from_words(words)).is_none());
        }
    }

    #[test]
    fn data_messages_use_long_packets() {
        let m = MemMessage::Data { line: 1, value: 2 };
        let p = m.to_packet(PacketId::new(1), NodeId::new(0), NodeId::new(1), 4, 2, 8);
        assert_eq!(p.len_flits, 8);
        let c = MemMessage::GetS {
            line: 1,
            requester: NodeId::new(0),
        };
        let p = c.to_packet(PacketId::new(2), NodeId::new(0), NodeId::new(1), 4, 2, 8);
        assert_eq!(p.len_flits, 2, "control messages use short packets");
    }

    #[test]
    fn classes_route_to_the_right_component() {
        assert_eq!(
            MemMessage::GetS {
                line: 0,
                requester: NodeId::new(0)
            }
            .class(),
            MsgClass::Directory
        );
        assert_eq!(MemMessage::Data { line: 0, value: 0 }.class(), MsgClass::L1);
        assert_eq!(
            MemMessage::DramRead {
                line: 0,
                requester: NodeId::new(0)
            }
            .class(),
            MsgClass::MemoryController
        );
    }
}
