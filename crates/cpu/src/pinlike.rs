//! The Pin-like native frontend.
//!
//! In the paper, HORNET can instrument native x86 binaries with Pin: each
//! application thread is mapped to a tile, every memory reference is routed
//! through the simulated memory hierarchy, and the non-memory portion of each
//! instruction is charged a table-driven cost. Pin itself is proprietary and
//! x86-specific, so this module reproduces the *interface*: a
//! [`NativeThread`] produces the same event stream Pin would (compute
//! intervals, loads, stores, and message-passing operations), and the
//! [`NativeFrontendAgent`] executes it against the simulated memory hierarchy
//! and network, with identical stall semantics to the MIPS core.
//!
//! [`SyntheticThread`] synthesizes such event streams from a few parameters
//! (instruction count, memory-reference fraction, working-set size, write
//! fraction, sharing), which is how the PARSEC-like `blackscholes` workload of
//! Figure 6 is reproduced without the original binaries.

use hornet_mem::hierarchy::{MemoryConfig, MemoryNode};
use hornet_mem::l1::CoreMemOp;
use hornet_mem::msg::MemMessage;
use hornet_net::agent::{NodeAgent, NodeIo};
use hornet_net::flit::{Packet, Payload};
use hornet_net::ids::{Cycle, FlowId, NodeId};
use hornet_net::rng::TileRng;
use std::collections::VecDeque;

use crate::agent::USER_TAG;

/// One event produced by an instrumented native thread.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum NativeOp {
    /// Execute `cycles` of non-memory work (the table-driven instruction cost).
    Compute(u32),
    /// Load from a byte address.
    Load(u64),
    /// Store a value to a byte address.
    Store(u64, u64),
    /// Send a message of `len_flits` flits carrying `word` to `dst`.
    Send {
        /// Destination tile.
        dst: NodeId,
        /// Payload word.
        word: u64,
        /// Packet length in flits.
        len_flits: u32,
    },
    /// Block until a message arrives (from a specific tile if given).
    Recv {
        /// Optional source filter.
        from: Option<NodeId>,
    },
    /// The thread has finished.
    Finish,
}

/// An instrumented native thread: the producer side of the Pin interface.
pub trait NativeThread: Send {
    /// Produces the next event. Called once per previous event completion.
    fn next_op(&mut self, rng: &mut TileRng) -> NativeOp;

    /// Notifies the thread that a `Recv` completed.
    fn on_recv(&mut self, _src: NodeId, _word: u64) {}

    /// A short label for reports.
    fn label(&self) -> &str {
        "native"
    }
}

/// Execution statistics of a native frontend tile.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Events executed (excluding per-cycle compute ticks).
    pub ops: u64,
    /// Cycles spent computing.
    pub compute_cycles: u64,
    /// Cycles stalled on memory.
    pub mem_stall_cycles: u64,
    /// Cycles stalled on receives.
    pub recv_stall_cycles: u64,
    /// Messages sent.
    pub sends: u64,
    /// Messages received.
    pub recvs: u64,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum FrontendState {
    Ready,
    Computing(u32),
    WaitingMem,
    WaitingRecv(Option<NodeId>),
    Done,
}

/// The agent that executes a [`NativeThread`] on one tile.
pub struct NativeFrontendAgent {
    node: NodeId,
    node_count: usize,
    thread: Box<dyn NativeThread>,
    memory: MemoryNode,
    state: FrontendState,
    user_rx: VecDeque<(NodeId, u64)>,
    stats: NativeStats,
    /// CPU cycles simulated per network cycle.
    clock_ratio: u32,
}

impl std::fmt::Debug for NativeFrontendAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeFrontendAgent")
            .field("node", &self.node)
            .field("state", &self.state)
            .finish()
    }
}

impl NativeFrontendAgent {
    /// Creates a native-frontend agent for `node` running `thread`.
    pub fn new(
        node: NodeId,
        node_count: usize,
        thread: Box<dyn NativeThread>,
        memory: MemoryConfig,
        clock_ratio: u32,
    ) -> Self {
        Self {
            node,
            node_count,
            thread,
            memory: MemoryNode::new(node, node_count, memory),
            state: FrontendState::Ready,
            user_rx: VecDeque::new(),
            stats: NativeStats::default(),
            clock_ratio: clock_ratio.max(1),
        }
    }

    /// Execution statistics.
    pub fn stats(&self) -> &NativeStats {
        &self.stats
    }

    /// The tile's memory system.
    pub fn memory(&self) -> &MemoryNode {
        &self.memory
    }

    /// True once the thread has finished.
    pub fn done(&self) -> bool {
        self.state == FrontendState::Done
    }

    fn demux(&mut self, io: &mut dyn NodeIo, now: Cycle) {
        while let Some(d) = io.try_recv() {
            let words = d.packet.payload.words();
            match words.first() {
                Some(&USER_TAG) => self
                    .user_rx
                    .push_back((d.packet.src, words.get(1).copied().unwrap_or(0))),
                Some(_) => {
                    if let Some(msg) = MemMessage::decode(&d.packet.payload) {
                        self.memory.handle_message(msg, now);
                    } else {
                        self.user_rx.push_back((d.packet.src, 0));
                    }
                }
                None => self.user_rx.push_back((d.packet.src, 0)),
            }
        }
    }

    fn step_cpu(&mut self, io: &mut dyn NodeIo, now: Cycle, rng: &mut TileRng) {
        match self.state {
            FrontendState::Done => {}
            FrontendState::Computing(remaining) => {
                self.stats.compute_cycles += 1;
                self.state = if remaining <= 1 {
                    FrontendState::Ready
                } else {
                    FrontendState::Computing(remaining - 1)
                };
            }
            FrontendState::WaitingMem => {
                if self.memory.take_completion().is_some() {
                    self.state = FrontendState::Ready;
                } else {
                    self.stats.mem_stall_cycles += 1;
                }
            }
            FrontendState::WaitingRecv(from) => {
                let idx = match from {
                    None => (!self.user_rx.is_empty()).then_some(0),
                    Some(src) => self.user_rx.iter().position(|(s, _)| *s == src),
                };
                if let Some(i) = idx {
                    let (src, word) = self.user_rx.remove(i).expect("index valid");
                    self.thread.on_recv(src, word);
                    self.stats.recvs += 1;
                    self.state = FrontendState::Ready;
                } else {
                    self.stats.recv_stall_cycles += 1;
                }
            }
            FrontendState::Ready => {
                let op = self.thread.next_op(rng);
                self.stats.ops += 1;
                match op {
                    NativeOp::Compute(c) => {
                        if c > 0 {
                            self.state = FrontendState::Computing(c);
                        }
                    }
                    NativeOp::Load(addr) => {
                        if self
                            .memory
                            .core_access(CoreMemOp::Load { addr }, now)
                            .is_none()
                        {
                            self.state = FrontendState::WaitingMem;
                        }
                    }
                    NativeOp::Store(addr, value) => {
                        if self
                            .memory
                            .core_access(CoreMemOp::Store { addr, value }, now)
                            .is_none()
                        {
                            self.state = FrontendState::WaitingMem;
                        }
                    }
                    NativeOp::Send {
                        dst,
                        word,
                        len_flits,
                    } => {
                        self.stats.sends += 1;
                        if dst != self.node && dst.index() < self.node_count {
                            let id = io.alloc_packet_id();
                            let packet = Packet::new(
                                id,
                                FlowId::for_pair(self.node, dst, self.node_count),
                                self.node,
                                dst,
                                len_flits.max(1),
                                now,
                            )
                            .with_payload(Payload::from_words(&[USER_TAG, word]));
                            io.send(packet);
                        }
                    }
                    NativeOp::Recv { from } => self.state = FrontendState::WaitingRecv(from),
                    NativeOp::Finish => self.state = FrontendState::Done,
                }
            }
        }
    }
}

impl NodeAgent for NativeFrontendAgent {
    fn tick(&mut self, io: &mut dyn NodeIo, rng: &mut TileRng) {
        let now = io.cycle();
        self.demux(io, now);
        self.memory.tick(io, now);
        for _ in 0..self.clock_ratio {
            if self.state == FrontendState::Done {
                break;
            }
            self.step_cpu(io, now, rng);
        }
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
        self.state == FrontendState::Done && self.memory.is_quiescent()
    }

    fn label(&self) -> &str {
        self.thread.label()
    }
}

/// Parameters of a synthetic instrumented thread (the `blackscholes`-like
/// workload).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct SyntheticThreadConfig {
    /// Total instructions to execute.
    pub instructions: u64,
    /// Fraction of instructions that reference memory.
    pub memory_fraction: f64,
    /// Fraction of memory references that are writes.
    pub write_fraction: f64,
    /// Private working-set size in bytes.
    pub working_set_bytes: u64,
    /// Fraction of memory references that touch data shared with other tiles
    /// (homed across the whole chip rather than in the private region).
    pub shared_fraction: f64,
    /// Shared region size in bytes.
    pub shared_bytes: u64,
    /// Non-memory cost per instruction, in cycles.
    pub compute_cost: u32,
}

impl Default for SyntheticThreadConfig {
    fn default() -> Self {
        Self {
            instructions: 100_000,
            memory_fraction: 0.3,
            write_fraction: 0.3,
            working_set_bytes: 64 * 1024,
            shared_fraction: 0.05,
            shared_bytes: 1024 * 1024,
            compute_cost: 1,
        }
    }
}

impl SyntheticThreadConfig {
    /// The blackscholes-like profile used in the Figure 6 reproduction:
    /// mostly private compute with a modest shared read-mostly footprint.
    pub fn blackscholes(instructions: u64) -> Self {
        Self {
            instructions,
            memory_fraction: 0.35,
            write_fraction: 0.2,
            working_set_bytes: 32 * 1024,
            shared_fraction: 0.08,
            shared_bytes: 4 * 1024 * 1024,
            compute_cost: 1,
        }
    }
}

/// A synthetic instrumented thread.
#[derive(Clone, Debug)]
pub struct SyntheticThread {
    config: SyntheticThreadConfig,
    node: NodeId,
    executed: u64,
}

impl SyntheticThread {
    /// Creates a synthetic thread for a tile.
    pub fn new(node: NodeId, config: SyntheticThreadConfig) -> Self {
        Self {
            config,
            node,
            executed: 0,
        }
    }
}

impl NativeThread for SyntheticThread {
    fn next_op(&mut self, rng: &mut TileRng) -> NativeOp {
        if self.executed >= self.config.instructions {
            return NativeOp::Finish;
        }
        self.executed += 1;
        if rng.f64() >= self.config.memory_fraction {
            return NativeOp::Compute(self.config.compute_cost);
        }
        // Memory reference: pick private or shared region.
        let addr = if rng.f64() < self.config.shared_fraction {
            // Shared region: global addresses (line-aligned).
            (rng.range(0..self.config.shared_bytes.max(64)) / 8) * 8
        } else {
            // Private region: offset by the node index so tiles do not falsely
            // share their private data.
            let base = 0x1000_0000u64 + (self.node.raw() as u64) * 0x100_0000;
            base + (rng.range(0..self.config.working_set_bytes.max(64)) / 8) * 8
        };
        if rng.f64() < self.config.write_fraction {
            NativeOp::Store(addr, rng.next_u64())
        } else {
            NativeOp::Load(addr)
        }
    }

    fn label(&self) -> &str {
        "blackscholes"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hornet_net::config::NetworkConfig;
    use hornet_net::geometry::Geometry;
    use hornet_net::network::Network;
    use hornet_net::routing::FlowSpec;

    #[test]
    fn synthetic_thread_produces_a_bounded_stream() {
        let mut t = SyntheticThread::new(
            NodeId::new(1),
            SyntheticThreadConfig {
                instructions: 100,
                ..SyntheticThreadConfig::default()
            },
        );
        let mut rng = TileRng::seed_from_u64(1);
        let mut count = 0;
        loop {
            match t.next_op(&mut rng) {
                NativeOp::Finish => break,
                _ => count += 1,
            }
            assert!(count <= 100);
        }
        assert_eq!(count, 100);
        // After finishing it keeps reporting Finish.
        assert_eq!(t.next_op(&mut rng), NativeOp::Finish);
    }

    #[test]
    fn native_frontend_runs_over_the_network() {
        let g = Geometry::mesh2d(2, 2);
        let cfg = NetworkConfig::new(g.clone()).with_flows(FlowSpec::all_to_all(&g));
        let mut net = Network::new(&cfg, 23).unwrap();
        for i in 0..4u32 {
            let node = NodeId::new(i);
            let thread = SyntheticThread::new(
                node,
                SyntheticThreadConfig {
                    instructions: 300,
                    memory_fraction: 0.5,
                    shared_fraction: 0.5,
                    shared_bytes: 4096,
                    ..SyntheticThreadConfig::default()
                },
            );
            net.attach_agent(
                node,
                Box::new(NativeFrontendAgent::new(
                    node,
                    4,
                    Box::new(thread),
                    hornet_mem::hierarchy::MemoryConfig::default(),
                    1,
                )),
            );
        }
        assert!(net.run_to_completion(2_000_000), "all threads must finish");
        let stats = net.stats();
        assert!(
            stats.delivered_packets > 0,
            "shared misses must generate coherence traffic"
        );
    }

    #[test]
    fn send_recv_ops_pass_messages() {
        /// Thread 0 sends then finishes; thread 1 receives then finishes.
        struct Sender {
            sent: bool,
        }
        impl NativeThread for Sender {
            fn next_op(&mut self, _rng: &mut TileRng) -> NativeOp {
                if self.sent {
                    NativeOp::Finish
                } else {
                    self.sent = true;
                    NativeOp::Send {
                        dst: NodeId::new(3),
                        word: 7,
                        len_flits: 6,
                    }
                }
            }
        }
        struct Receiver {
            got: Option<u64>,
        }
        impl NativeThread for Receiver {
            fn next_op(&mut self, _rng: &mut TileRng) -> NativeOp {
                if self.got.is_some() {
                    NativeOp::Finish
                } else {
                    NativeOp::Recv { from: None }
                }
            }
            fn on_recv(&mut self, _src: NodeId, word: u64) {
                self.got = Some(word);
            }
        }
        let g = Geometry::mesh2d(2, 2);
        let cfg = NetworkConfig::new(g.clone()).with_flows(FlowSpec::all_to_all(&g));
        let mut net = Network::new(&cfg, 2).unwrap();
        net.attach_agent(
            NodeId::new(0),
            Box::new(NativeFrontendAgent::new(
                NodeId::new(0),
                4,
                Box::new(Sender { sent: false }),
                hornet_mem::hierarchy::MemoryConfig::default(),
                1,
            )),
        );
        net.attach_agent(
            NodeId::new(3),
            Box::new(NativeFrontendAgent::new(
                NodeId::new(3),
                4,
                Box::new(Receiver { got: None }),
                hornet_mem::hierarchy::MemoryConfig::default(),
                1,
            )),
        );
        assert!(net.run_to_completion(100_000));
        assert_eq!(net.stats().delivered_packets, 1);
    }
}
