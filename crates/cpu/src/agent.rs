//! The tile agent that couples a MIPS-like core, its memory hierarchy, and the
//! MPI-style network interface to the simulated network.

use crate::core::{Core, CoreContext, CoreStats};
use crate::isa::Program;
use hornet_mem::hierarchy::{MemoryConfig, MemoryNode};
use hornet_mem::l1::CoreMemOp;
use hornet_mem::msg::MemMessage;
use hornet_net::agent::{NodeAgent, NodeIo};
use hornet_net::flit::{Packet, Payload};
use hornet_net::ids::{Cycle, FlowId, NodeId};
use hornet_net::rng::TileRng;
use std::collections::VecDeque;

/// First payload word of user-level (MPI-style) packets, distinguishing them
/// from memory-protocol packets at the receiving tile.
pub const USER_TAG: u64 = 4;

/// Configuration of one core tile.
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Memory-hierarchy configuration.
    pub memory: MemoryConfig,
    /// CPU cycles simulated per network cycle (the paper captures SPLASH
    /// traces with a 10× faster CPU clock; the integrated runs use 1).
    pub cpu_cycles_per_net_cycle: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            memory: MemoryConfig::default(),
            cpu_cycles_per_net_cycle: 1,
        }
    }
}

/// A received user-level packet waiting for a `net_recv` syscall.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct UserPacket {
    src: NodeId,
    word: u64,
}

/// The per-tile agent running one MIPS-like core.
#[derive(Debug)]
pub struct CoreAgent {
    node: NodeId,
    node_count: usize,
    core: Core,
    memory: MemoryNode,
    user_rx: VecDeque<UserPacket>,
    clock_ratio: u32,
}

impl CoreAgent {
    /// Creates a core agent for `node` running `program`.
    pub fn new(node: NodeId, node_count: usize, program: Program, config: CoreConfig) -> Self {
        Self {
            node,
            node_count,
            core: Core::new(program),
            memory: MemoryNode::new(node, node_count, config.memory),
            user_rx: VecDeque::new(),
            clock_ratio: config.cpu_cycles_per_net_cycle.max(1),
        }
    }

    /// The core's execution statistics.
    pub fn core_stats(&self) -> &CoreStats {
        self.core.stats()
    }

    /// The tile's memory system (for preloading data and extracting results).
    pub fn memory_mut(&mut self) -> &mut MemoryNode {
        &mut self.memory
    }

    /// The tile's memory system.
    pub fn memory(&self) -> &MemoryNode {
        &self.memory
    }

    /// Reads a core register (for extracting results in tests and examples).
    pub fn reg(&self, r: u8) -> u64 {
        self.core.reg(r)
    }

    /// True once the core has halted.
    pub fn halted(&self) -> bool {
        self.core.halted()
    }

    fn demux(&mut self, io: &mut dyn NodeIo, now: Cycle) {
        while let Some(d) = io.try_recv() {
            let words = d.packet.payload.words();
            match words.first() {
                Some(&USER_TAG) => self.user_rx.push_back(UserPacket {
                    src: d.packet.src,
                    word: words.get(1).copied().unwrap_or(0),
                }),
                Some(_) => {
                    if let Some(msg) = MemMessage::decode(&d.packet.payload) {
                        self.memory.handle_message(msg, now);
                    } else {
                        self.user_rx.push_back(UserPacket {
                            src: d.packet.src,
                            word: 0,
                        });
                    }
                }
                None => self.user_rx.push_back(UserPacket {
                    src: d.packet.src,
                    word: 0,
                }),
            }
        }
    }
}

/// The [`CoreContext`] the agent hands to the core each CPU cycle.
struct TileContext<'a> {
    node: NodeId,
    node_count: usize,
    now: Cycle,
    memory: &'a mut MemoryNode,
    user_rx: &'a mut VecDeque<UserPacket>,
    io: &'a mut dyn NodeIo,
}

impl CoreContext for TileContext<'_> {
    fn mem_access(&mut self, op: CoreMemOp) -> Option<u64> {
        self.memory.core_access(op, self.now)
    }

    fn mem_poll(&mut self) -> Option<u64> {
        self.memory.take_completion()
    }

    fn net_send(&mut self, dst: NodeId, word: u64, len_flits: u32) {
        if dst == self.node || dst.index() >= self.node_count {
            return; // self-sends and out-of-range destinations are dropped
        }
        let id = self.io.alloc_packet_id();
        let packet = Packet::new(
            id,
            FlowId::for_pair(self.node, dst, self.node_count),
            self.node,
            dst,
            len_flits.max(1),
            self.now,
        )
        .with_payload(Payload::from_words(&[USER_TAG, word]));
        self.io.send(packet);
    }

    fn net_poll(&mut self, from: Option<NodeId>) -> usize {
        match from {
            None => self.user_rx.len(),
            Some(src) => self.user_rx.iter().filter(|p| p.src == src).count(),
        }
    }

    fn net_recv(&mut self, from: Option<NodeId>) -> Option<(NodeId, u64)> {
        let idx = match from {
            None => (!self.user_rx.is_empty()).then_some(0),
            Some(src) => self.user_rx.iter().position(|p| p.src == src),
        }?;
        let p = self.user_rx.remove(idx).expect("index valid");
        Some((p.src, p.word))
    }

    fn node(&self) -> NodeId {
        self.node
    }

    fn node_count(&self) -> usize {
        self.node_count
    }
}

impl NodeAgent for CoreAgent {
    fn tick(&mut self, io: &mut dyn NodeIo, _rng: &mut TileRng) {
        let now = io.cycle();
        self.demux(io, now);
        self.memory.tick(io, now);
        for _ in 0..self.clock_ratio {
            if self.core.halted() {
                break;
            }
            let mut ctx = TileContext {
                node: self.node,
                node_count: self.node_count,
                now,
                memory: &mut self.memory,
                user_rx: &mut self.user_rx,
                io,
            };
            self.core.step(&mut ctx);
        }
        // Flush any messages the core's memory accesses produced this cycle.
        self.memory.tick(io, now);
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if self.finished() {
            None
        } else {
            Some(now + 1)
        }
    }

    fn finished(&self) -> bool {
        self.core.halted() && self.memory.is_quiescent()
    }

    fn label(&self) -> &str {
        "mips-core"
    }

    fn snapshot(&self, e: &mut hornet_net::codec::Enc) {
        self.core.snapshot(e);
        self.memory.snapshot(e);
        e.u32(self.user_rx.len() as u32);
        for p in &self.user_rx {
            e.u32(p.src.raw()).u64(p.word);
        }
    }

    fn restore(&mut self, d: &mut hornet_net::codec::Dec) -> std::io::Result<()> {
        self.core.restore(d)?;
        self.memory.restore(d)?;
        self.user_rx.clear();
        let n = d.u32()? as usize;
        for _ in 0..n {
            let src = NodeId::new(d.u32()?);
            let word = d.u64()?;
            self.user_rx.push_back(UserPacket { src, word });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{regs::*, Inst, ProgramBuilder, Syscall};
    use hornet_net::config::NetworkConfig;
    use hornet_net::geometry::Geometry;
    use hornet_net::network::Network;
    use hornet_net::routing::FlowSpec;

    fn network(n: usize) -> Network {
        let side = (n as f64).sqrt() as usize;
        let g = Geometry::mesh2d(side, side);
        let cfg =
            NetworkConfig::new(g).with_flows(FlowSpec::all_to_all(&Geometry::mesh2d(side, side)));
        Network::new(&cfg, 17).unwrap()
    }

    /// Node 0 sends a token to node 3; node 3 adds 1 and sends it back;
    /// node 0 stores the result in S0.
    fn ping_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Li(A0, 3));
        b.inst(Inst::Li(A1, 41));
        b.inst(Inst::Li(A2, 4));
        b.inst(Inst::Li(V0, Syscall::NetSend as u64));
        b.inst(Inst::Syscall);
        b.inst(Inst::Li(A1, 0));
        b.inst(Inst::Li(V0, Syscall::NetRecv as u64));
        b.inst(Inst::Syscall);
        b.inst(Inst::Add(S0, V0, ZERO));
        b.inst(Inst::Halt);
        b.assemble().unwrap()
    }

    fn pong_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Li(A1, 0));
        b.inst(Inst::Li(V0, Syscall::NetRecv as u64));
        b.inst(Inst::Syscall);
        b.inst(Inst::Addi(T0, V0, 1));
        b.inst(Inst::Add(A0, V1, ZERO)); // reply to the sender
        b.inst(Inst::Add(A1, T0, ZERO));
        b.inst(Inst::Li(A2, 4));
        b.inst(Inst::Li(V0, Syscall::NetSend as u64));
        b.inst(Inst::Syscall);
        b.inst(Inst::Halt);
        b.assemble().unwrap()
    }

    #[test]
    fn mpi_style_ping_pong_across_the_network() {
        let mut net = network(4);
        net.attach_agent(
            NodeId::new(0),
            Box::new(CoreAgent::new(
                NodeId::new(0),
                4,
                ping_program(),
                CoreConfig::default(),
            )),
        );
        net.attach_agent(
            NodeId::new(3),
            Box::new(CoreAgent::new(
                NodeId::new(3),
                4,
                pong_program(),
                CoreConfig::default(),
            )),
        );
        assert!(net.run_to_completion(50_000), "cores must finish");
        let stats = net.stats();
        assert_eq!(stats.delivered_packets, 2);
        assert!(stats.avg_packet_latency() > 0.0);
    }

    #[test]
    fn cached_memory_traffic_flows_through_the_network() {
        // Node 0 stores to an address homed on another tile, then loads it
        // back: the MSI protocol must generate network traffic and still
        // return the right value.
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Li(T0, 0x40 * 3)); // line 3 -> homed at node 3 (interleaved)
        b.inst(Inst::Li(T1, 1234));
        b.inst(Inst::Sw(T1, T0, 0));
        b.inst(Inst::Lw(S0, T0, 0));
        b.inst(Inst::Halt);
        let program = b.assemble().unwrap();
        let mut net = network(4);
        for i in 0..4u32 {
            let p = if i == 0 {
                program.clone()
            } else {
                Program::default()
            };
            net.attach_agent(
                NodeId::new(i),
                Box::new(CoreAgent::new(NodeId::new(i), 4, p, CoreConfig::default())),
            );
        }
        assert!(net.run_to_completion(100_000));
        let stats = net.stats();
        assert!(
            stats.delivered_packets >= 2,
            "a GetM and a Data packet must cross the network, got {}",
            stats.delivered_packets
        );
    }

    #[test]
    fn clock_ratio_speeds_up_the_core_relative_to_the_network() {
        let run = |ratio: u32| {
            let mut b = ProgramBuilder::new();
            b.inst(Inst::Li(T0, 500));
            b.label("loop");
            b.inst(Inst::Addi(T0, T0, -1));
            b.bne(T0, ZERO, "loop");
            b.inst(Inst::Halt);
            let mut net = network(4);
            net.attach_agent(
                NodeId::new(0),
                Box::new(CoreAgent::new(
                    NodeId::new(0),
                    4,
                    b.assemble().unwrap(),
                    CoreConfig {
                        cpu_cycles_per_net_cycle: ratio,
                        ..CoreConfig::default()
                    },
                )),
            );
            assert!(net.run_to_completion(100_000));
            net.stats().last_cycle
        };
        let slow = run(1);
        let fast = run(10);
        assert!(
            fast * 5 < slow,
            "10x CPU clock should finish much sooner ({fast} vs {slow})"
        );
    }
}
