//! The per-tile memory system: private L1, directory slice, NUCA home, and
//! the glue that turns protocol messages into network packets.
//!
//! A [`MemoryNode`] is owned by the tile's core agent (or by the Pin-like
//! native frontend). The core presents loads and stores; hits complete
//! immediately, misses stall the core until the coherence protocol delivers
//! the line over the simulated network. Memory coherence is ensured either by
//! the directory-based MSI protocol or by NUCA-style remote accesses
//! (paper §II-D2).

use crate::cache::CacheConfig;
use crate::directory::{DirOutput, DirectorySlice};
use crate::l1::{AccessOutcome, CoreMemOp, L1Controller, L1Out, L1Stats};
use crate::msg::{LineAddr, MemMessage, MsgClass};
use hornet_net::agent::NodeIo;
use hornet_net::ids::{Cycle, NodeId};
use std::collections::VecDeque;

/// How memory coherence is maintained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Directory-based MSI protocol over private L1 caches.
    MsiDirectory,
    /// NUCA-style distributed shared memory with remote-access reads and
    /// stores (no private caching of remote lines).
    Nuca,
}

/// Where directory slices (and their backing memory) live.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirectoryPlacement {
    /// Every tile owns the slice for `line % node_count == tile`.
    Interleaved,
    /// Only the listed tiles (e.g. the memory controllers) own slices;
    /// lines are interleaved among them.
    AtNodes(Vec<NodeId>),
}

impl DirectoryPlacement {
    /// The home node for a line.
    pub fn home_of(&self, line: LineAddr, node_count: usize) -> NodeId {
        match self {
            DirectoryPlacement::Interleaved => NodeId::from((line as usize) % node_count),
            DirectoryPlacement::AtNodes(nodes) => {
                assert!(
                    !nodes.is_empty(),
                    "directory placement needs at least one node"
                );
                nodes[(line as usize) % nodes.len()]
            }
        }
    }

    /// True if `node` hosts a directory slice.
    pub fn hosts_directory(&self, node: NodeId, _node_count: usize) -> bool {
        match self {
            DirectoryPlacement::Interleaved => true,
            DirectoryPlacement::AtNodes(nodes) => nodes.contains(&node),
        }
    }
}

/// Configuration of the per-tile memory system.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoryConfig {
    /// Coherence mechanism.
    pub mode: CoherenceMode,
    /// Directory / home placement.
    pub placement: DirectoryPlacement,
    /// Private L1 geometry.
    pub l1: CacheConfig,
    /// Latency of an off-chip memory (DRAM) access, in network cycles.
    pub dram_latency: Cycle,
    /// Processing latency of a directory slice, in network cycles.
    pub directory_latency: Cycle,
    /// Latency of a local (same-tile) memory access, in cycles.
    pub local_latency: Cycle,
    /// Flits in a control packet.
    pub control_packet_len: u32,
    /// Flits in a data-bearing packet.
    pub data_packet_len: u32,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        Self {
            mode: CoherenceMode::MsiDirectory,
            placement: DirectoryPlacement::Interleaved,
            l1: CacheConfig::default(),
            dram_latency: 50,
            directory_latency: 2,
            local_latency: 1,
            control_packet_len: 2,
            data_packet_len: 8,
        }
    }
}

/// Aggregate statistics of a tile's memory system.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct MemNodeStats {
    /// Protocol messages sent over the network.
    pub messages_sent: u64,
    /// Protocol messages handled locally (same tile, no network).
    pub local_messages: u64,
    /// NUCA remote accesses issued.
    pub remote_accesses: u64,
    /// NUCA accesses that were local.
    pub local_accesses: u64,
}

/// A message waiting to be delivered (local latency or DRAM latency).
#[derive(Clone, Debug)]
struct Scheduled {
    /// Scheduling order: messages ready in the same tick leave by it.
    seq: u64,
    ready_at: Cycle,
    dst: NodeId,
    msg: MemMessage,
}

/// The per-tile memory system.
#[derive(Clone, Debug)]
pub struct MemoryNode {
    node: NodeId,
    node_count: usize,
    config: MemoryConfig,
    l1: L1Controller,
    directory: DirectorySlice,
    hosts_directory: bool,
    /// The delayed messages, in FIFO lanes whose `ready_at` never decreases
    /// front to back. A message joins the first lane whose last message is
    /// ready no later than it, so with one latency per call site and a
    /// clock that only moves forward there is one lane per distinct latency,
    /// and the ready messages of a lane are always a prefix of it. Lanes
    /// are kept when they empty, so no cycle allocates.
    lanes: Vec<VecDeque<Scheduled>>,
    /// Scratch for the L1's and the directory's outputs: empty between
    /// calls, kept so that handling a message allocates nothing.
    l1_out: Vec<L1Out>,
    dir_out: Vec<DirOutput>,
    /// The `seq` of the next message scheduled.
    next_seq: u64,
    /// No message in `lanes` is ready before this cycle (`Cycle::MAX` when
    /// they are empty). `tick` returns at once while it lies in the future.
    earliest: Cycle,
    stats: MemNodeStats,
}

impl MemoryNode {
    /// Creates the memory system for one tile.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero.
    pub fn new(node: NodeId, node_count: usize, config: MemoryConfig) -> Self {
        assert!(node_count > 0, "a memory system needs at least one node");
        let hosts_directory = config.placement.hosts_directory(node, node_count);
        Self {
            node,
            node_count,
            l1: L1Controller::new(node, config.l1),
            directory: DirectorySlice::new(),
            hosts_directory,
            lanes: Vec::new(),
            l1_out: Vec::new(),
            dir_out: Vec::new(),
            next_seq: 0,
            earliest: Cycle::MAX,
            stats: MemNodeStats::default(),
            config,
        }
    }

    /// The tile this memory system belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> &L1Stats {
        self.l1.stats()
    }

    /// Directory statistics (meaningful only on tiles that host a slice).
    pub fn directory_stats(&self) -> &crate::directory::DirectoryStats {
        self.directory.stats()
    }

    /// The directory slice homed at this tile.
    pub fn directory(&self) -> &DirectorySlice {
        &self.directory
    }

    /// Tile-level statistics.
    pub fn stats(&self) -> &MemNodeStats {
        &self.stats
    }

    /// True if this tile hosts a directory slice / NUCA home.
    pub fn hosts_directory(&self) -> bool {
        self.hosts_directory
    }

    /// The home node of a line under the configured placement.
    pub fn home_of(&self, line: LineAddr) -> NodeId {
        self.config.placement.home_of(line, self.node_count)
    }

    /// True if a core memory access is still outstanding.
    pub fn has_outstanding(&self) -> bool {
        self.l1.has_outstanding()
    }

    /// Takes the completion value of the last finished access, if any.
    pub fn take_completion(&mut self) -> Option<u64> {
        self.l1.take_completion()
    }

    /// Presents a core load or store. Returns `Some(value)` if it completed
    /// immediately (an L1 or local hit); otherwise the access is outstanding
    /// and the core must stall until [`take_completion`](Self::take_completion)
    /// yields a value.
    pub fn core_access(&mut self, op: CoreMemOp, now: Cycle) -> Option<u64> {
        match self.config.mode {
            CoherenceMode::MsiDirectory => match self.l1.access(op, now) {
                AccessOutcome::Hit(v) => Some(v),
                AccessOutcome::Busy => None,
                AccessOutcome::Miss(msg) => {
                    let line = self.l1.cache().config().line_of(op.addr());
                    let home = self.home_of(line);
                    self.route(home, msg, now);
                    None
                }
            },
            CoherenceMode::Nuca => {
                let line = op.addr() / 8; // word-granularity homes
                let home = self.home_of(line);
                if home == self.node {
                    self.stats.local_accesses += 1;
                    // Local access: read/write the home memory directly.
                    return Some(match op {
                        CoreMemOp::Load { addr } => self.directory.read(addr),
                        CoreMemOp::Store { addr, value } => {
                            self.directory.write(addr, value);
                            value
                        }
                    });
                }
                self.stats.remote_accesses += 1;
                // Mark the L1 as having an outstanding access so completions
                // flow through the same path as MSI misses.
                let msg = match self.l1.access(op, now) {
                    AccessOutcome::Miss(_) => match op {
                        CoreMemOp::Load { addr } => MemMessage::RemoteRead {
                            addr,
                            requester: self.node,
                        },
                        CoreMemOp::Store { addr, value } => MemMessage::RemoteWrite {
                            addr,
                            value,
                            requester: self.node,
                        },
                    },
                    AccessOutcome::Hit(v) => return Some(v),
                    AccessOutcome::Busy => return None,
                };
                self.route(home, msg, now);
                None
            }
        }
    }

    /// Handles a memory-protocol message delivered to this tile by the
    /// network (the core agent demultiplexes packets by [`MsgClass`]).
    pub fn handle_message(&mut self, msg: MemMessage, now: Cycle) {
        match msg.class() {
            MsgClass::L1 => {
                let mut outs = std::mem::take(&mut self.l1_out);
                self.l1.handle_into(msg, now, &mut outs);
                for out in outs.drain(..) {
                    match out {
                        L1Out::ToHome { line, msg } => {
                            let home = self.home_of(line);
                            self.route(home, msg, now);
                        }
                        L1Out::ToNode { dst, msg } => self.route(dst, msg, now),
                    }
                }
                self.l1_out = outs;
            }
            MsgClass::Directory | MsgClass::MemoryController => {
                if !self.hosts_directory {
                    // Misdirected message: treat this tile as hosting anyway so
                    // the protocol cannot wedge (counts as a local message).
                    self.stats.local_messages += 1;
                }
                let mut outs = std::mem::take(&mut self.dir_out);
                self.directory.handle_into(msg, &mut outs);
                for o in outs.drain(..) {
                    let delay = self.config.directory_latency
                        + if o.from_memory {
                            self.config.dram_latency
                        } else {
                            0
                        };
                    self.route_delayed(o.dst, o.msg, now + delay);
                }
                self.dir_out = outs;
            }
            MsgClass::User => {}
        }
    }

    fn route(&mut self, dst: NodeId, msg: MemMessage, now: Cycle) {
        if dst == self.node {
            self.stats.local_messages += 1;
            self.route_delayed(dst, msg, now + self.config.local_latency);
        } else {
            self.route_delayed(dst, msg, now);
        }
    }

    fn route_delayed(&mut self, dst: NodeId, msg: MemMessage, ready_at: Cycle) {
        self.earliest = self.earliest.min(ready_at);
        let seq = self.next_seq;
        self.next_seq += 1;
        let fits = |lane: &VecDeque<Scheduled>| lane.back().is_none_or(|b| b.ready_at <= ready_at);
        let lane = match self.lanes.iter().position(fits) {
            Some(lane) => lane,
            None => {
                self.lanes.push(VecDeque::new());
                self.lanes.len() - 1
            }
        };
        self.lanes[lane].push_back(Scheduled {
            seq,
            ready_at,
            dst,
            msg,
        });
    }

    /// The lane whose head is the earliest-scheduled message ready at `now`.
    fn next_ready(&self, now: Cycle) -> Option<usize> {
        self.lanes
            .iter()
            .enumerate()
            .filter_map(|(i, lane)| {
                lane.front()
                    .filter(|s| s.ready_at <= now)
                    .map(|s| (s.seq, i))
            })
            .min()
            .map(|(_, i)| i)
    }

    /// Per-cycle processing: releases delayed messages — local ones are
    /// handled in place, remote ones are packetised and sent through `io`.
    pub fn tick(&mut self, io: &mut dyn NodeIo, now: Cycle) {
        if self.earliest > now {
            return;
        }
        // Ready messages leave in scheduling order: a merge of the lanes'
        // ready prefixes on `seq`. Messages scheduled while this loop runs
        // come last and are handled in this tick if they are ready.
        while let Some(lane) = self.next_ready(now) {
            let s = self.lanes[lane].pop_front().expect("a ready head");
            if s.dst == self.node {
                self.handle_message(s.msg, now);
            } else {
                let id = io.alloc_packet_id();
                let packet = s.msg.to_packet(
                    id,
                    self.node,
                    s.dst,
                    self.node_count,
                    now,
                    self.config.control_packet_len,
                    self.config.data_packet_len,
                );
                io.send(packet);
                self.stats.messages_sent += 1;
            }
        }
        self.earliest = self
            .lanes
            .iter()
            .filter_map(|lane| lane.front().map(|s| s.ready_at))
            .min()
            .unwrap_or(Cycle::MAX);
    }

    /// True if no protocol message is waiting inside this tile.
    pub fn is_quiescent(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty) && !self.l1.has_outstanding()
    }

    /// Writes a value directly into the functional backing store of this
    /// tile's directory slice (used to preload program data before a
    /// simulation starts; bypasses the coherence protocol entirely).
    pub fn poke(&mut self, line: LineAddr, value: u64) {
        self.directory.write(line, value);
    }

    /// Reads a value directly from the functional backing store (testing /
    /// result extraction; bypasses the coherence protocol).
    pub fn peek(&self, line: LineAddr) -> u64 {
        self.directory.value_of(line)
    }

    /// Serializes the tile's full memory-system state — L1, directory slice,
    /// the delayed-message queue and the counters — for a checkpoint. The
    /// construction-time parameters (node, placement, latencies) are not
    /// stored; the restored node must be built from the same configuration.
    pub fn snapshot(&self, e: &mut hornet_net::codec::Enc) {
        self.l1.snapshot(e);
        self.directory.snapshot(e);
        let mut scheduled: Vec<&Scheduled> = self.lanes.iter().flatten().collect();
        scheduled.sort_unstable_by_key(|s| s.seq);
        e.u32(scheduled.len() as u32);
        for s in scheduled {
            e.u64(s.ready_at).u32(s.dst.raw());
            s.msg.snapshot(e);
        }
        e.u64(self.stats.messages_sent)
            .u64(self.stats.local_messages)
            .u64(self.stats.remote_accesses)
            .u64(self.stats.local_accesses);
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot).
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` on a corrupt record: one the L1 or the
    /// directory refuses, a scheduled message that does not decode, or one
    /// addressed outside the system.
    pub fn restore(&mut self, d: &mut hornet_net::codec::Dec) -> std::io::Result<()> {
        let corrupt =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        self.l1.restore(d)?;
        self.directory.restore(d)?;
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.earliest = Cycle::MAX;
        for _ in 0..d.u32()? {
            let ready_at = d.u64()?;
            let dst = NodeId::new(d.u32()?);
            if dst.index() >= self.node_count {
                return Err(corrupt(
                    "memory checkpoint: message to a node outside the system",
                ));
            }
            let msg = MemMessage::restore(d)?
                .ok_or_else(|| corrupt("memory checkpoint: bad scheduled message"))?;
            self.route_delayed(dst, msg, ready_at);
        }
        self.stats = MemNodeStats {
            messages_sent: d.u64()?,
            local_messages: d.u64()?,
            remote_accesses: d.u64()?,
            local_accesses: d.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_homes_are_stable() {
        let p = DirectoryPlacement::Interleaved;
        assert_eq!(p.home_of(5, 4), NodeId::new(1));
        assert!(p.hosts_directory(NodeId::new(3), 4));
        let mc = DirectoryPlacement::AtNodes(vec![NodeId::new(0), NodeId::new(7)]);
        assert_eq!(mc.home_of(2, 16), NodeId::new(0));
        assert_eq!(mc.home_of(3, 16), NodeId::new(7));
        assert!(mc.hosts_directory(NodeId::new(7), 16));
        assert!(!mc.hosts_directory(NodeId::new(3), 16));
    }

    #[test]
    fn local_msi_access_round_trips_without_network() {
        // One node: every line is homed locally, so a miss resolves through
        // the scheduled queue without any packets.
        let mut m = MemoryNode::new(NodeId::new(0), 1, MemoryConfig::default());
        assert_eq!(
            m.core_access(
                CoreMemOp::Store {
                    addr: 0x40,
                    value: 9
                },
                0
            ),
            None
        );
        // Drive ticks with a mock IO; nothing should be sent.
        struct NoIo;
        impl NodeIo for NoIo {
            fn node(&self) -> NodeId {
                NodeId::new(0)
            }
            fn cycle(&self) -> Cycle {
                0
            }
            fn alloc_packet_id(&mut self) -> hornet_net::ids::PacketId {
                hornet_net::ids::PacketId::new(0)
            }
            fn send(&mut self, _packet: hornet_net::flit::Packet) {
                panic!("local access must not use the network");
            }
            fn try_recv(&mut self) -> Option<hornet_net::flit::DeliveredPacket> {
                None
            }
            fn peek_recv(&self) -> Option<&hornet_net::flit::DeliveredPacket> {
                None
            }
            fn injection_backlog(&self) -> usize {
                0
            }
            fn recv_backlog(&self) -> usize {
                0
            }
        }
        let mut io = NoIo;
        let mut done = None;
        for cycle in 1..200 {
            m.tick(&mut io, cycle);
            if let Some(v) = m.take_completion() {
                done = Some((cycle, v));
                break;
            }
        }
        let (cycle, value) = done.expect("store completes");
        assert_eq!(value, 9);
        // Completion must include the DRAM latency for the cold miss.
        assert!(cycle >= MemoryConfig::default().dram_latency);
        // Subsequent store to the same line is an L1 hit.
        assert_eq!(
            m.core_access(
                CoreMemOp::Store {
                    addr: 0x48,
                    value: 10
                },
                cycle + 1
            ),
            Some(10)
        );
        assert_eq!(m.l1_stats().hits, 1);
    }

    /// Records the destination of every packet sent.
    struct Recorder(Vec<NodeId>);

    impl NodeIo for Recorder {
        fn node(&self) -> NodeId {
            NodeId::new(0)
        }
        fn cycle(&self) -> Cycle {
            0
        }
        fn alloc_packet_id(&mut self) -> hornet_net::ids::PacketId {
            hornet_net::ids::PacketId::new(self.0.len() as u64)
        }
        fn send(&mut self, packet: hornet_net::flit::Packet) {
            self.0.push(packet.dst);
        }
        fn try_recv(&mut self) -> Option<hornet_net::flit::DeliveredPacket> {
            None
        }
        fn peek_recv(&self) -> Option<&hornet_net::flit::DeliveredPacket> {
            None
        }
        fn injection_backlog(&self) -> usize {
            0
        }
        fn recv_backlog(&self) -> usize {
            0
        }
    }

    #[test]
    fn ready_messages_leave_in_insertion_order_and_not_before() {
        let mut m = MemoryNode::new(NodeId::new(0), 4, MemoryConfig::default());
        let msg = MemMessage::RemoteRead {
            addr: 0x40,
            requester: NodeId::new(0),
        };
        for (dst, ready_at) in [(1, 10), (2, 5), (3, 7)] {
            m.route_delayed(NodeId::new(dst), msg, ready_at);
        }
        let mut io = Recorder(Vec::new());
        for now in 0..5 {
            m.tick(&mut io, now);
        }
        assert!(io.0.is_empty(), "nothing is ready before cycle 5");
        m.tick(&mut io, 5);
        assert_eq!(io.0, [NodeId::new(2)]);
        // Both ready by cycle 10: the one scheduled first goes first.
        m.tick(&mut io, 10);
        assert_eq!(io.0, [2, 1, 3].map(NodeId::new));
        assert_eq!(m.earliest, Cycle::MAX, "an empty queue waits for nothing");
    }

    /// Messages of four latencies, scheduled interleaved over many cycles,
    /// leave exactly as a single queue scanned in scheduling order releases
    /// them, and the lanes stay one per latency.
    #[test]
    fn interleaved_latencies_leave_in_scheduling_order() {
        const NODES: usize = 4096;
        let mut m = MemoryNode::new(NodeId::new(0), NODES, MemoryConfig::default());
        let msg = MemMessage::RemoteRead {
            addr: 0x40,
            requester: NodeId::new(0),
        };
        // The reference: one queue in scheduling order, scanned every tick.
        let mut model: Vec<(Cycle, NodeId)> = Vec::new();
        let mut expected = Vec::new();
        let mut io = Recorder(Vec::new());
        let mut next_dst = 1;
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for now in 0..400 {
            for _ in 0..3 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(3) {
                    continue;
                }
                let latency = [0, 1, 2, 52][(x >> 8) as usize % 4];
                let dst = NodeId::from(next_dst);
                next_dst = next_dst % (NODES - 1) + 1;
                m.route_delayed(dst, msg, now + latency);
                model.push((now + latency, dst));
            }
            m.tick(&mut io, now);
            model.retain(|&(ready_at, dst)| {
                let ready = ready_at <= now;
                if ready {
                    expected.push(dst);
                }
                !ready
            });
            assert_eq!(io.0, expected, "cycle {now}");
        }
        assert!(expected.len() > 500);
        assert!(
            m.lanes.len() <= 4,
            "{} lanes for four latencies",
            m.lanes.len()
        );
    }

    #[test]
    fn nuca_local_accesses_bypass_the_protocol() {
        let cfg = MemoryConfig {
            mode: CoherenceMode::Nuca,
            ..MemoryConfig::default()
        };
        let mut m = MemoryNode::new(NodeId::new(0), 1, cfg);
        assert_eq!(
            m.core_access(
                CoreMemOp::Store {
                    addr: 0x10,
                    value: 3
                },
                0
            ),
            Some(3)
        );
        assert_eq!(m.core_access(CoreMemOp::Load { addr: 0x10 }, 1), Some(3));
        assert_eq!(m.stats().local_accesses, 2);
        assert_eq!(m.stats().remote_accesses, 0);
    }

    #[test]
    fn scheduled_messages_restore_only_if_a_snapshot_could_write_them() {
        use hornet_net::codec::{Dec, Enc};
        let node = MemoryNode::new(NodeId::new(0), 4, MemoryConfig::default());
        let mut e = Enc::new();
        node.snapshot(&mut e);
        let empty = e.into_bytes();
        // L1 and directory, then a scheduled-message count and 4 counters.
        let head = &empty[..empty.len() - 4 - 32];
        let with = |dst: u32, words: &[u64]| {
            let mut e = Enc::new();
            e.u32(1).u64(9).u32(dst).u32(words.len() as u32);
            for &w in words {
                e.u64(w);
            }
            for _ in 0..4 {
                e.u64(0);
            }
            [head, e.bytes()].concat()
        };
        let inv = MemMessage::Invalidate { line: 5 }.encode();
        let ok = with(3, inv.words());
        let mut restored = node.clone();
        restored.restore(&mut Dec::new(&ok)).expect("restores");
        let mut e = Enc::new();
        restored.snapshot(&mut e);
        assert_eq!(e.into_bytes(), ok);
        for (what, bytes) in [
            ("a node outside the system", with(4, inv.words())),
            ("an undecodable message", with(3, &[1, 5])),
            ("a six-word message", with(3, &[1, 5, 5, 0, 0, 0])),
        ] {
            let err = node.clone().restore(&mut Dec::new(&bytes)).expect_err(what);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        }
    }
}
