//! Memory-protocol messages and their packet encoding.
//!
//! All memory traffic (cache misses, coherence, NUCA remote accesses, DRAM
//! requests) travels through the simulated network as ordinary packets whose
//! payload words encode a [`MemMessage`]. The first payload word is a message
//! class so the receiving tile can demultiplex packets to its L1 controller,
//! directory slice, memory controller, or user (MPI-style) receive queues.

use hornet_net::flit::{Packet, Payload};
use hornet_net::ids::{Cycle, FlowId, NodeId, PacketId};

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

impl MsgClass {
    fn from_word(w: u64) -> Option<Self> {
        match w {
            1 => Some(MsgClass::L1),
            2 => Some(MsgClass::Directory),
            3 => Some(MsgClass::MemoryController),
            4 => Some(MsgClass::User),
            _ => None,
        }
    }
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

    /// Encodes the message into payload words.
    pub fn encode(&self) -> Payload {
        let mut w = vec![self.class() as u64];
        match *self {
            MemMessage::GetS { line, requester } => {
                w.extend([1, line, requester.raw() as u64]);
            }
            MemMessage::GetM { line, requester } => {
                w.extend([2, line, requester.raw() as u64]);
            }
            MemMessage::Data { line, value } => w.extend([3, line, value]),
            MemMessage::Fetch {
                line,
                requester,
                invalidate,
            } => w.extend([4, line, requester.raw() as u64, invalidate as u64]),
            MemMessage::Invalidate { line } => w.extend([5, line]),
            MemMessage::InvAck { line, from } => w.extend([6, line, from.raw() as u64]),
            MemMessage::PutM { line, value, from } => {
                w.extend([7, line, value, from.raw() as u64]);
            }
            MemMessage::FwdData { line, value } => w.extend([8, line, value]),
            MemMessage::RemoteRead { addr, requester } => {
                w.extend([9, addr, requester.raw() as u64]);
            }
            MemMessage::RemoteReadResp { addr, value } => w.extend([10, addr, value]),
            MemMessage::RemoteWrite {
                addr,
                value,
                requester,
            } => w.extend([11, addr, value, requester.raw() as u64]),
            MemMessage::RemoteWriteAck { addr } => w.extend([12, addr]),
            MemMessage::DramRead { line, requester } => {
                w.extend([13, line, requester.raw() as u64]);
            }
            MemMessage::DramReadResp { line, value } => w.extend([14, line, value]),
            MemMessage::DramWrite { line, value } => w.extend([15, line, value]),
        }
        Payload(w)
    }

    /// Decodes a message from payload words.
    ///
    /// Returns `None` for malformed or non-memory payloads.
    pub fn decode(payload: &Payload) -> Option<Self> {
        let w = payload.words();
        if w.len() < 2 {
            return None;
        }
        MsgClass::from_word(w[0])?;
        let node = |i: usize| NodeId::new(w[i] as u32);
        Some(match w[1] {
            1 => MemMessage::GetS {
                line: w[2],
                requester: node(3),
            },
            2 => MemMessage::GetM {
                line: w[2],
                requester: node(3),
            },
            3 => MemMessage::Data {
                line: w[2],
                value: w[3],
            },
            4 => MemMessage::Fetch {
                line: w[2],
                requester: node(3),
                invalidate: w[4] != 0,
            },
            5 => MemMessage::Invalidate { line: w[2] },
            6 => MemMessage::InvAck {
                line: w[2],
                from: node(3),
            },
            7 => MemMessage::PutM {
                line: w[2],
                value: w[3],
                from: node(4),
            },
            8 => MemMessage::FwdData {
                line: w[2],
                value: w[3],
            },
            9 => MemMessage::RemoteRead {
                addr: w[2],
                requester: node(3),
            },
            10 => MemMessage::RemoteReadResp {
                addr: w[2],
                value: w[3],
            },
            11 => MemMessage::RemoteWrite {
                addr: w[2],
                value: w[3],
                requester: node(4),
            },
            12 => MemMessage::RemoteWriteAck { addr: w[2] },
            13 => MemMessage::DramRead {
                line: w[2],
                requester: node(3),
            },
            14 => MemMessage::DramReadResp {
                line: w[2],
                value: w[3],
            },
            15 => MemMessage::DramWrite {
                line: w[2],
                value: w[3],
            },
            _ => return None,
        })
    }

    /// Builds a network packet carrying this message.
    ///
    /// Control messages occupy `control_len` flits and data-bearing messages
    /// `data_len` flits, mirroring the short-request / long-response packets
    /// of a cache-coherent NoC.
    #[allow(clippy::too_many_arguments)]
    pub fn to_packet(
        &self,
        id: PacketId,
        src: NodeId,
        dst: NodeId,
        node_count: usize,
        now: Cycle,
        control_len: u32,
        data_len: u32,
    ) -> Packet {
        let len = if self.carries_data() {
            data_len
        } else {
            control_len
        };
        Packet::new(
            id,
            FlowId::for_pair(src, dst, node_count),
            src,
            dst,
            len,
            now,
        )
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
            let decoded = MemMessage::decode(&m.encode()).expect("decodes");
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(MemMessage::decode(&Payload(vec![])).is_none());
        assert!(MemMessage::decode(&Payload(vec![1])).is_none());
        assert!(MemMessage::decode(&Payload(vec![99, 1, 2, 3])).is_none());
        assert!(MemMessage::decode(&Payload(vec![1, 99, 2, 3])).is_none());
    }

    #[test]
    fn data_messages_use_long_packets() {
        let m = MemMessage::Data { line: 1, value: 2 };
        let p = m.to_packet(PacketId::new(1), NodeId::new(0), NodeId::new(1), 4, 0, 2, 8);
        assert_eq!(p.len_flits, 8);
        let c = MemMessage::GetS {
            line: 1,
            requester: NodeId::new(0),
        };
        let p = c.to_packet(PacketId::new(2), NodeId::new(0), NodeId::new(1), 4, 0, 2, 8);
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
