//! Ready-made guest workloads.
//!
//! * [`CannonThread`] — Cannon's algorithm for matrix multiplication using
//!   message passing, the workload the paper uses to quantify the difference
//!   between trace-driven and closed-loop (core + network) simulation
//!   (Figure 12). [`cannon_ideal_schedule`] produces the send schedule an
//!   ideal single-cycle network would yield, i.e. the "trace" side of that
//!   comparison.
//! * [`token_ring_program`] — a small MIPS program exercising the network
//!   syscall interface (each core increments a token and forwards it).
//! * [`vector_sum_program`] — a pure compute/memory MIPS kernel.

use crate::isa::{regs::*, Inst, Program, ProgramBuilder, Syscall};
use crate::pinlike::{NativeOp, NativeThread};
use hornet_net::ids::{Cycle, NodeId};
use hornet_net::rng::TileRng;

/// Configuration of the Cannon matrix-multiplication workload.
#[derive(Clone, Debug, PartialEq)]
pub struct CannonConfig {
    /// Matrix dimension (the paper uses 128×128).
    pub matrix_n: usize,
    /// Core grid dimension (the paper uses 8×8 = 64 cores).
    pub grid_p: usize,
    /// Cycles of compute per multiply-accumulate (set low to stress the
    /// network, as the paper does).
    pub cycles_per_madd: f64,
    /// Bytes per matrix element (set high to stress the network).
    pub bytes_per_element: usize,
    /// Bytes carried per flit.
    pub bytes_per_flit: usize,
    /// Mapping from logical grid position (row-major) to physical node.
    /// Identity when empty; the paper maps cores randomly to stress the
    /// network.
    pub mapping: Vec<NodeId>,
}

impl Default for CannonConfig {
    fn default() -> Self {
        Self {
            matrix_n: 128,
            grid_p: 8,
            cycles_per_madd: 1.0,
            bytes_per_element: 16,
            bytes_per_flit: 16,
            mapping: Vec::new(),
        }
    }
}

impl CannonConfig {
    /// Block dimension per core.
    pub fn block_dim(&self) -> usize {
        self.matrix_n / self.grid_p
    }

    /// Flits needed to ship one block.
    pub fn flits_per_block(&self) -> u32 {
        let bytes = self.block_dim() * self.block_dim() * self.bytes_per_element;
        (bytes.div_ceil(self.bytes_per_flit)).max(1) as u32
    }

    /// Compute cycles per round (one local block multiply).
    pub fn compute_cycles_per_round(&self) -> u32 {
        let b = self.block_dim() as f64;
        ((b * b * b) * self.cycles_per_madd).max(1.0) as u32
    }

    /// Physical node for logical grid position (row, col).
    pub fn node_at(&self, row: usize, col: usize) -> NodeId {
        let logical = row * self.grid_p + col;
        if self.mapping.is_empty() {
            NodeId::from(logical)
        } else {
            self.mapping[logical]
        }
    }

    /// Builds a random logical→physical mapping over `node_count` nodes
    /// (deterministic in `seed`), as the paper does to stress the network.
    pub fn with_random_mapping(mut self, node_count: usize, seed: u64) -> Self {
        assert!(node_count >= self.grid_p * self.grid_p);
        let mut nodes: Vec<NodeId> = (0..self.grid_p * self.grid_p).map(NodeId::from).collect();
        let mut rng = TileRng::seed_from_u64(seed);
        rng.shuffle(&mut nodes);
        self.mapping = nodes;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not divide evenly over the core grid.
    pub fn validated(self) -> Self {
        assert!(self.grid_p > 0 && self.matrix_n.is_multiple_of(self.grid_p));
        assert!(self.mapping.is_empty() || self.mapping.len() == self.grid_p * self.grid_p);
        self
    }
}

/// Phase within one Cannon round.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum CannonPhase {
    Compute,
    SendA,
    SendB,
    RecvA,
    RecvB,
    NextRound,
}

/// One core's thread of Cannon's algorithm (message-passing formulation).
#[derive(Clone, Debug)]
pub struct CannonThread {
    config: CannonConfig,
    row: usize,
    col: usize,
    round: usize,
    phase: CannonPhase,
}

impl CannonThread {
    /// Creates the thread for the core at logical grid position (row, col).
    pub fn new(config: CannonConfig, row: usize, col: usize) -> Self {
        Self {
            config,
            row,
            col,
            round: 0,
            phase: CannonPhase::Compute,
        }
    }

    fn left(&self) -> NodeId {
        let p = self.config.grid_p;
        self.config.node_at(self.row, (self.col + p - 1) % p)
    }

    fn up(&self) -> NodeId {
        let p = self.config.grid_p;
        self.config.node_at((self.row + p - 1) % p, self.col)
    }

    fn right(&self) -> NodeId {
        let p = self.config.grid_p;
        self.config.node_at(self.row, (self.col + 1) % p)
    }

    fn below(&self) -> NodeId {
        let p = self.config.grid_p;
        self.config.node_at((self.row + 1) % p, self.col)
    }
}

impl NativeThread for CannonThread {
    fn next_op(&mut self, _rng: &mut TileRng) -> NativeOp {
        if self.round >= self.config.grid_p {
            return NativeOp::Finish;
        }
        let flits = self.config.flits_per_block();
        match self.phase {
            CannonPhase::Compute => {
                self.phase = CannonPhase::SendA;
                NativeOp::Compute(self.config.compute_cycles_per_round())
            }
            CannonPhase::SendA => {
                self.phase = CannonPhase::SendB;
                NativeOp::Send {
                    dst: self.left(),
                    word: (self.round as u64) << 8,
                    len_flits: flits,
                }
            }
            CannonPhase::SendB => {
                self.phase = CannonPhase::RecvA;
                NativeOp::Send {
                    dst: self.up(),
                    word: (self.round as u64) << 8 | 1,
                    len_flits: flits,
                }
            }
            CannonPhase::RecvA => {
                self.phase = CannonPhase::RecvB;
                NativeOp::Recv {
                    from: Some(self.right()),
                }
            }
            CannonPhase::RecvB => {
                self.phase = CannonPhase::NextRound;
                NativeOp::Recv {
                    from: Some(self.below()),
                }
            }
            CannonPhase::NextRound => {
                self.round += 1;
                self.phase = CannonPhase::Compute;
                if self.round >= self.config.grid_p {
                    NativeOp::Finish
                } else {
                    NativeOp::Compute(0)
                }
            }
        }
    }

    fn label(&self) -> &str {
        "cannon"
    }
}

/// The send schedule Cannon's algorithm would produce on an ideal
/// single-cycle network (every receive completes the cycle after the matching
/// send): the "trace-based" side of Figure 12. Returns
/// `(timestamp, src, dst, flits)` tuples, one per block transfer.
pub fn cannon_ideal_schedule(config: &CannonConfig) -> Vec<(Cycle, NodeId, NodeId, u32)> {
    let p = config.grid_p;
    let compute = config.compute_cycles_per_round() as Cycle;
    let flits = config.flits_per_block();
    let mut events = Vec::new();
    // With an ideal network every core proceeds in lockstep: round r's sends
    // all happen at r * (compute + 2) + compute (the +2 covers the two send
    // ops themselves).
    for round in 0..p {
        let t = round as Cycle * (compute + 2) + compute;
        for row in 0..p {
            for col in 0..p {
                let thread = CannonThread::new(config.clone(), row, col);
                let src = config.node_at(row, col);
                events.push((t, src, thread.left(), flits));
                events.push((t + 1, src, thread.up(), flits));
            }
        }
    }
    events
}

/// Total execution time of Cannon's algorithm on an ideal single-cycle
/// network (the baseline the closed-loop run is compared against).
pub fn cannon_ideal_execution_time(config: &CannonConfig) -> Cycle {
    let compute = config.compute_cycles_per_round() as Cycle;
    config.grid_p as Cycle * (compute + 2) + 1
}

/// A MIPS program implementing one node of a token ring: node 0 injects a
/// token with value 1; every node receives the token, increments it, and
/// forwards it to `(node + 1) % node_count`; node 0 finally receives the
/// token back (value = `node_count`) into register `S0`.
pub fn token_ring_program(node: usize, node_count: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let next = ((node + 1) % node_count) as u64;
    if node == 0 {
        // Send the initial token.
        b.inst(Inst::Li(A0, next));
        b.inst(Inst::Li(A1, 1));
        b.inst(Inst::Li(A2, 2));
        b.inst(Inst::Li(V0, Syscall::NetSend as u64));
        b.inst(Inst::Syscall);
        // Wait for it to come back.
        b.inst(Inst::Li(A1, 0));
        b.inst(Inst::Li(V0, Syscall::NetRecv as u64));
        b.inst(Inst::Syscall);
        b.inst(Inst::Add(S0, V0, ZERO));
        b.inst(Inst::Halt);
    } else {
        // Receive, increment, forward.
        b.inst(Inst::Li(A1, 0));
        b.inst(Inst::Li(V0, Syscall::NetRecv as u64));
        b.inst(Inst::Syscall);
        b.inst(Inst::Addi(T0, V0, 1));
        b.inst(Inst::Li(A0, next));
        b.inst(Inst::Add(A1, T0, ZERO));
        b.inst(Inst::Li(A2, 2));
        b.inst(Inst::Li(V0, Syscall::NetSend as u64));
        b.inst(Inst::Syscall);
        b.inst(Inst::Add(S0, T0, ZERO));
        b.inst(Inst::Halt);
    }
    b.assemble().expect("token ring program assembles")
}

/// A MIPS kernel that stores `count` consecutive words and sums them back,
/// leaving the sum in `S0`. Exercises the cache hierarchy without any
/// message passing.
pub fn vector_sum_program(base_addr: u64, count: u64) -> Program {
    let mut b = ProgramBuilder::new();
    // Store phase: mem[base + 8*i] = i + 1.
    b.inst(Inst::Li(T0, base_addr));
    b.inst(Inst::Li(T1, 0)); // i
    b.inst(Inst::Li(T3, count));
    b.label("store");
    b.inst(Inst::Addi(T2, T1, 1));
    b.inst(Inst::Sw(T2, T0, 0));
    b.inst(Inst::Addi(T0, T0, 8));
    b.inst(Inst::Addi(T1, T1, 1));
    b.bne(T1, T3, "store");
    // Load phase: S0 = sum.
    b.inst(Inst::Li(T0, base_addr));
    b.inst(Inst::Li(T1, 0));
    b.inst(Inst::Li(S0, 0));
    b.label("load");
    b.inst(Inst::Lw(T2, T0, 0));
    b.inst(Inst::Add(S0, S0, T2));
    b.inst(Inst::Addi(T0, T0, 8));
    b.inst(Inst::Addi(T1, T1, 1));
    b.bne(T1, T3, "load");
    b.inst(Inst::Halt);
    b.assemble().expect("vector sum program assembles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cannon_config_arithmetic() {
        let c = CannonConfig::default().validated();
        assert_eq!(c.block_dim(), 16);
        assert_eq!(c.flits_per_block(), 16 * 16 * 16 / 16);
        assert!(c.compute_cycles_per_round() >= 1024);
        assert_eq!(c.node_at(0, 0), NodeId::new(0));
        assert_eq!(c.node_at(7, 7), NodeId::new(63));
    }

    #[test]
    fn random_mapping_is_a_permutation() {
        let c = CannonConfig::default()
            .with_random_mapping(64, 5)
            .validated();
        let mut seen: Vec<u32> = c.mapping.iter().map(|n| n.raw()).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn cannon_thread_emits_p_rounds() {
        let config = CannonConfig {
            matrix_n: 8,
            grid_p: 2,
            ..CannonConfig::default()
        }
        .validated();
        let mut t = CannonThread::new(config.clone(), 0, 1);
        let mut rng = TileRng::seed_from_u64(0);
        let mut sends = 0;
        let mut recvs = 0;
        loop {
            match t.next_op(&mut rng) {
                NativeOp::Finish => break,
                NativeOp::Send { dst, .. } => {
                    sends += 1;
                    assert_ne!(dst, config.node_at(0, 1));
                }
                NativeOp::Recv { .. } => recvs += 1,
                _ => {}
            }
        }
        assert_eq!(sends, 2 * config.grid_p);
        assert_eq!(recvs, 2 * config.grid_p);
    }

    #[test]
    fn ideal_schedule_covers_all_transfers() {
        let config = CannonConfig {
            matrix_n: 16,
            grid_p: 4,
            ..CannonConfig::default()
        }
        .validated();
        let sched = cannon_ideal_schedule(&config);
        assert_eq!(sched.len(), 4 * 4 * 4 * 2); // p rounds x p^2 cores x 2 sends
        let horizon = cannon_ideal_execution_time(&config);
        assert!(sched.iter().all(|(t, ..)| *t < horizon));
    }

    #[test]
    fn token_ring_programs_assemble_for_all_nodes() {
        for n in 0..8 {
            let p = token_ring_program(n, 8);
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn vector_sum_program_assembles() {
        let p = vector_sum_program(0x2000, 10);
        assert!(p.len() > 10);
    }
}
