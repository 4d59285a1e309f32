//! The single-cycle, in-order MIPS-like core.
//!
//! The core executes one instruction per CPU cycle unless it is stalled
//! waiting for the memory hierarchy (a cache miss travelling over the network)
//! or for a blocking network receive. Sends are DMA-like and never stall.
//! Everything the core needs from the outside world is abstracted behind
//! [`CoreContext`], so the same core model runs against the real network, the
//! ideal network, or a mock in unit tests.

use crate::isa::{regs, Inst, Program, Syscall};
use hornet_mem::l1::CoreMemOp;
use hornet_net::ids::NodeId;

/// Services the core needs from its tile (memory hierarchy + network
/// interface). Implemented by the tile agent.
pub trait CoreContext {
    /// Issues a load/store. `Some(value)` means it completed this cycle;
    /// `None` means the access is outstanding and will complete later via
    /// [`mem_poll`](Self::mem_poll).
    fn mem_access(&mut self, op: CoreMemOp) -> Option<u64>;
    /// Polls for the completion of an outstanding memory access.
    fn mem_poll(&mut self) -> Option<u64>;
    /// Sends a packet of `len_flits` flits carrying `word` to `dst`
    /// (DMA-like, never stalls).
    fn net_send(&mut self, dst: NodeId, word: u64, len_flits: u32);
    /// Number of packets waiting at the processor ingress (optionally
    /// restricted to one source).
    fn net_poll(&mut self, from: Option<NodeId>) -> usize;
    /// Receives a waiting packet (optionally from a specific source);
    /// returns the source and the first payload word.
    fn net_recv(&mut self, from: Option<NodeId>) -> Option<(NodeId, u64)>;
    /// This tile's node id.
    fn node(&self) -> NodeId;
    /// Number of nodes in the system.
    fn node_count(&self) -> usize;
}

/// Execution statistics of one core.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// CPU cycles elapsed (including stalls).
    pub cycles: u64,
    /// Cycles stalled waiting for memory.
    pub mem_stall_cycles: u64,
    /// Cycles stalled waiting for a network receive.
    pub recv_stall_cycles: u64,
    /// Packets sent through the network syscalls.
    pub packets_sent: u64,
    /// Packets received through the network syscalls.
    pub packets_received: u64,
}

/// What the core is currently doing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum CoreState {
    Running,
    WaitingMem { dest: Option<u8> },
    WaitingRecv { from: Option<NodeId> },
    Halted,
}

/// The core model.
#[derive(Clone, Debug)]
pub struct Core {
    program: Program,
    regs: [u64; 32],
    pc: usize,
    state: CoreState,
    stats: CoreStats,
}

impl Core {
    /// Creates a core that will run `program` from instruction 0.
    pub fn new(program: Program) -> Self {
        Self {
            program,
            regs: [0; 32],
            pc: 0,
            state: CoreState::Running,
            stats: CoreStats::default(),
        }
    }

    /// True once the core has halted.
    pub fn halted(&self) -> bool {
        self.state == CoreState::Halted
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Reads a register (register 0 always reads as zero).
    pub fn reg(&self, r: u8) -> u64 {
        if r == 0 {
            0
        } else {
            self.regs[r as usize]
        }
    }

    /// Writes a register (writes to register 0 are ignored).
    pub fn set_reg(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.regs[r as usize] = v;
        }
    }

    /// The initial data segment of the program (the agent loads it into the
    /// memory hierarchy before execution starts).
    pub fn initial_data(&self) -> &[(u64, u64)] {
        &self.program.data
    }

    /// Advances the core by one CPU cycle.
    pub fn step<C: CoreContext>(&mut self, ctx: &mut C) {
        if self.state == CoreState::Halted {
            return;
        }
        self.stats.cycles += 1;
        match self.state {
            CoreState::Halted => {}
            CoreState::WaitingMem { dest } => {
                if let Some(value) = ctx.mem_poll() {
                    if let Some(d) = dest {
                        self.set_reg(d, value);
                    }
                    self.state = CoreState::Running;
                } else {
                    self.stats.mem_stall_cycles += 1;
                }
            }
            CoreState::WaitingRecv { from } => {
                if let Some((src, word)) = ctx.net_recv(from) {
                    self.set_reg(regs::V0, word);
                    self.set_reg(regs::V1, src.raw() as u64);
                    self.stats.packets_received += 1;
                    self.state = CoreState::Running;
                } else {
                    self.stats.recv_stall_cycles += 1;
                }
            }
            CoreState::Running => self.execute(ctx),
        }
    }

    fn execute<C: CoreContext>(&mut self, ctx: &mut C) {
        let Some(&inst) = self.program.instructions.get(self.pc) else {
            self.state = CoreState::Halted;
            return;
        };
        self.stats.instructions += 1;
        self.pc += 1;
        match inst {
            Inst::Add(d, s, t) => self.set_reg(d, self.reg(s).wrapping_add(self.reg(t))),
            Inst::Sub(d, s, t) => self.set_reg(d, self.reg(s).wrapping_sub(self.reg(t))),
            Inst::Mul(d, s, t) => self.set_reg(d, self.reg(s).wrapping_mul(self.reg(t))),
            Inst::And(d, s, t) => self.set_reg(d, self.reg(s) & self.reg(t)),
            Inst::Or(d, s, t) => self.set_reg(d, self.reg(s) | self.reg(t)),
            Inst::Xor(d, s, t) => self.set_reg(d, self.reg(s) ^ self.reg(t)),
            Inst::Sltu(d, s, t) => self.set_reg(d, (self.reg(s) < self.reg(t)) as u64),
            Inst::Addi(d, s, imm) => self.set_reg(d, (self.reg(s) as i64).wrapping_add(imm) as u64),
            Inst::Li(d, imm) => self.set_reg(d, imm),
            Inst::Lw(d, base, offset) => {
                let addr = (self.reg(base) as i64).wrapping_add(offset) as u64;
                match ctx.mem_access(CoreMemOp::Load { addr }) {
                    Some(v) => self.set_reg(d, v),
                    None => self.state = CoreState::WaitingMem { dest: Some(d) },
                }
            }
            Inst::Sw(t, base, offset) => {
                let addr = (self.reg(base) as i64).wrapping_add(offset) as u64;
                let value = self.reg(t);
                if ctx.mem_access(CoreMemOp::Store { addr, value }).is_none() {
                    self.state = CoreState::WaitingMem { dest: None };
                }
            }
            Inst::Beq(s, t, target) => {
                if self.reg(s) == self.reg(t) {
                    self.pc = target;
                }
            }
            Inst::Bne(s, t, target) => {
                if self.reg(s) != self.reg(t) {
                    self.pc = target;
                }
            }
            Inst::J(target) => self.pc = target,
            Inst::Jal(target) => {
                self.set_reg(regs::RA, self.pc as u64);
                self.pc = target;
            }
            Inst::Jr(s) => self.pc = self.reg(s) as usize,
            Inst::Nop => {}
            Inst::Halt => self.state = CoreState::Halted,
            Inst::Syscall => self.syscall(ctx),
        }
    }

    fn syscall<C: CoreContext>(&mut self, ctx: &mut C) {
        let number = self.reg(regs::V0);
        match Syscall::from_number(number) {
            Some(Syscall::NetSend) => {
                let dst = NodeId::new(self.reg(regs::A0) as u32);
                let word = self.reg(regs::A1);
                let len = self.reg(regs::A2).clamp(1, 4096) as u32;
                ctx.net_send(dst, word, len);
                self.stats.packets_sent += 1;
            }
            Some(Syscall::NetPoll) => {
                let from =
                    (self.reg(regs::A1) != 0).then(|| NodeId::new(self.reg(regs::A0) as u32));
                let n = ctx.net_poll(from);
                self.set_reg(regs::V0, n as u64);
            }
            Some(Syscall::NetRecv) => {
                let from =
                    (self.reg(regs::A1) != 0).then(|| NodeId::new(self.reg(regs::A0) as u32));
                match ctx.net_recv(from) {
                    Some((src, word)) => {
                        self.set_reg(regs::V0, word);
                        self.set_reg(regs::V1, src.raw() as u64);
                        self.stats.packets_received += 1;
                    }
                    None => self.state = CoreState::WaitingRecv { from },
                }
            }
            Some(Syscall::MyNode) => self.set_reg(regs::V0, ctx.node().raw() as u64),
            Some(Syscall::NodeCount) => self.set_reg(regs::V0, ctx.node_count() as u64),
            Some(Syscall::Exit) | None => self.state = CoreState::Halted,
        }
    }

    /// Serializes the architectural state (registers, pc, run state, stats)
    /// into `e`. The program itself is not serialized: it is immutable and is
    /// rebuilt from the workload spec when the tile is reconstructed.
    pub fn snapshot(&self, e: &mut hornet_net::codec::Enc) {
        for r in &self.regs {
            e.u64(*r);
        }
        e.u64(self.pc as u64);
        match self.state {
            CoreState::Running => {
                e.u8(0);
            }
            CoreState::WaitingMem { dest } => {
                e.u8(1);
                match dest {
                    Some(d) => e.u8(1).u8(d),
                    None => e.u8(0),
                };
            }
            CoreState::WaitingRecv { from } => {
                e.u8(2);
                match from {
                    Some(n) => e.u8(1).u32(n.raw()),
                    None => e.u8(0),
                };
            }
            CoreState::Halted => {
                e.u8(3);
            }
        }
        e.u64(self.stats.instructions)
            .u64(self.stats.cycles)
            .u64(self.stats.mem_stall_cycles)
            .u64(self.stats.recv_stall_cycles)
            .u64(self.stats.packets_sent)
            .u64(self.stats.packets_received);
    }

    /// Restores architectural state captured by [`snapshot`](Self::snapshot).
    /// The core must already hold the same program the snapshot was taken
    /// against (the pc is validated against its length).
    pub fn restore(&mut self, d: &mut hornet_net::codec::Dec) -> std::io::Result<()> {
        let corrupt = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("core checkpoint: {what}"),
            )
        };
        for r in &mut self.regs {
            *r = d.u64()?;
        }
        // Note: a pc past the program end is legal (Jr can produce one; the
        // next step simply halts), so the pc is restored unvalidated.
        self.pc = d.u64()? as usize;
        let present = |d: &mut hornet_net::codec::Dec| match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("presence flag is neither 0 nor 1")),
        };
        self.state = match d.u8()? {
            0 => CoreState::Running,
            1 => {
                let dest = if present(d)? {
                    let r = d.u8()?;
                    if usize::from(r) >= self.regs.len() {
                        return Err(corrupt("load destination is not a register"));
                    }
                    Some(r)
                } else {
                    None
                };
                CoreState::WaitingMem { dest }
            }
            2 => {
                let from = if present(d)? {
                    Some(NodeId::new(d.u32()?))
                } else {
                    None
                };
                CoreState::WaitingRecv { from }
            }
            3 => CoreState::Halted,
            _ => return Err(corrupt("unknown core state tag")),
        };
        self.stats.instructions = d.u64()?;
        self.stats.cycles = d.u64()?;
        self.stats.mem_stall_cycles = d.u64()?;
        self.stats.recv_stall_cycles = d.u64()?;
        self.stats.packets_sent = d.u64()?;
        self.stats.packets_received = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use std::collections::VecDeque;

    /// A CoreContext backed by a flat in-memory array and loopback queues,
    /// for testing the core in isolation.
    #[derive(Debug, Default)]
    pub struct MockContext {
        pub memory: std::collections::HashMap<u64, u64>,
        pub inbox: VecDeque<(NodeId, u64)>,
        pub sent: Vec<(NodeId, u64, u32)>,
        pub node: u32,
        pub node_count: usize,
        /// If set, memory accesses take this many polls to complete.
        pub mem_delay: u32,
        /// The in-flight access, if any.
        pub pending: Option<(CoreMemOp, u32)>,
    }

    impl CoreContext for MockContext {
        fn mem_access(&mut self, op: CoreMemOp) -> Option<u64> {
            if self.mem_delay == 0 {
                Some(self.do_access(op))
            } else {
                self.pending = Some((op, self.mem_delay));
                None
            }
        }
        fn mem_poll(&mut self) -> Option<u64> {
            let (op, mut left) = self.pending?;
            left -= 1;
            if left == 0 {
                self.pending = None;
                Some(self.do_access(op))
            } else {
                self.pending = Some((op, left));
                None
            }
        }
        fn net_send(&mut self, dst: NodeId, word: u64, len_flits: u32) {
            self.sent.push((dst, word, len_flits));
        }
        fn net_poll(&mut self, _from: Option<NodeId>) -> usize {
            self.inbox.len()
        }
        fn net_recv(&mut self, _from: Option<NodeId>) -> Option<(NodeId, u64)> {
            self.inbox.pop_front()
        }
        fn node(&self) -> NodeId {
            NodeId::new(self.node)
        }
        fn node_count(&self) -> usize {
            self.node_count
        }
    }

    impl MockContext {
        fn do_access(&mut self, op: CoreMemOp) -> u64 {
            match op {
                CoreMemOp::Load { addr } => self.memory.get(&(addr / 8)).copied().unwrap_or(0),
                CoreMemOp::Store { addr, value } => {
                    self.memory.insert(addr / 8, value);
                    value
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::MockContext;
    use super::*;
    use crate::isa::{regs::*, ProgramBuilder};
    use hornet_net::codec::{Dec, Enc};

    fn run(core: &mut Core, ctx: &mut MockContext, max_cycles: u64) {
        for _ in 0..max_cycles {
            if core.halted() {
                break;
            }
            core.step(ctx);
        }
    }

    #[test]
    fn arithmetic_loop_computes_sum() {
        // Sum 1..=10 into S0.
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Li(T0, 10));
        b.inst(Inst::Li(S0, 0));
        b.label("loop");
        b.inst(Inst::Add(S0, S0, T0));
        b.inst(Inst::Addi(T0, T0, -1));
        b.bne(T0, ZERO, "loop");
        b.inst(Inst::Halt);
        let mut core = Core::new(b.assemble().unwrap());
        let mut ctx = MockContext {
            node_count: 1,
            ..MockContext::default()
        };
        run(&mut core, &mut ctx, 1000);
        assert!(core.halted());
        assert_eq!(core.reg(S0), 55);
        assert!(core.stats().instructions > 30);
    }

    #[test]
    fn loads_and_stores_stall_on_slow_memory() {
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Li(T0, 0x100));
        b.inst(Inst::Li(T1, 7));
        b.inst(Inst::Sw(T1, T0, 0));
        b.inst(Inst::Lw(S0, T0, 0));
        b.inst(Inst::Halt);
        let mut core = Core::new(b.assemble().unwrap());
        let mut ctx = MockContext {
            mem_delay: 5,
            node_count: 1,
            ..MockContext::default()
        };
        run(&mut core, &mut ctx, 1000);
        assert!(core.halted());
        assert_eq!(core.reg(S0), 7);
        assert!(
            core.stats().mem_stall_cycles >= 8,
            "two accesses x 4+ stalls"
        );
    }

    /// Every prefix of a core record stalled on a load, and every byte XORed
    /// with 0x01, 0x80 and 0xff: a record is refused or restores to a core
    /// that writes back the bytes it read and completes its load.
    #[test]
    fn a_corrupt_core_record_is_refused_without_a_panic() {
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Li(T0, 0x100));
        b.inst(Inst::Lw(S0, T0, 8));
        b.inst(Inst::Halt);
        let program = b.assemble().unwrap();
        let mut core = Core::new(program.clone());
        let mut ctx = MockContext {
            mem_delay: 5,
            node_count: 1,
            ..MockContext::default()
        };
        run(&mut core, &mut ctx, 3);
        assert_eq!(core.state, CoreState::WaitingMem { dest: Some(S0) });
        let mut e = Enc::new();
        core.snapshot(&mut e);
        let record = e.bytes().to_vec();
        let restore = |bytes: &[u8]| {
            let mut core = Core::new(program.clone());
            let mut d = Dec::new(bytes);
            core.restore(&mut d)
                .map(|()| (core, bytes.len() - d.remaining()))
        };
        for end in 0..record.len() {
            assert!(restore(&record[..end]).is_err(), "prefix of {end} bytes");
        }
        let mut accepted = 0;
        for at in 0..record.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut bytes = record.clone();
                bytes[at] ^= mask;
                let Ok((mut core, read)) = restore(&bytes) else {
                    continue;
                };
                accepted += 1;
                let mut again = Enc::new();
                core.snapshot(&mut again);
                assert_eq!(again.bytes(), &bytes[..read], "byte {at} ^ {mask:#x}");
                let mut ctx = MockContext {
                    node_count: 1,
                    pending: Some((CoreMemOp::Load { addr: 0x108 }, 1)),
                    ..MockContext::default()
                };
                run(&mut core, &mut ctx, 4);
            }
        }
        assert!(accepted > 0);
    }

    #[test]
    fn syscalls_send_poll_and_receive() {
        let mut b = ProgramBuilder::new();
        // send(node 3, word 42, 8 flits)
        b.inst(Inst::Li(A0, 3));
        b.inst(Inst::Li(A1, 42));
        b.inst(Inst::Li(A2, 8));
        b.inst(Inst::Li(V0, Syscall::NetSend as u64));
        b.inst(Inst::Syscall);
        // v0 = my node; v1 unchanged
        b.inst(Inst::Li(V0, Syscall::MyNode as u64));
        b.inst(Inst::Syscall);
        b.inst(Inst::Add(S1, V0, ZERO));
        // blocking receive from anyone
        b.inst(Inst::Li(A1, 0));
        b.inst(Inst::Li(V0, Syscall::NetRecv as u64));
        b.inst(Inst::Syscall);
        b.inst(Inst::Add(S0, V0, ZERO));
        b.inst(Inst::Halt);
        let mut core = Core::new(b.assemble().unwrap());
        let mut ctx = MockContext {
            node: 5,
            node_count: 16,
            ..MockContext::default()
        };
        // Run a while: the receive blocks because the inbox is empty.
        run(&mut core, &mut ctx, 50);
        assert!(!core.halted());
        assert!(core.stats().recv_stall_cycles > 0);
        assert_eq!(ctx.sent, vec![(NodeId::new(3), 42, 8)]);
        assert_eq!(core.reg(S1), 5);
        // A packet arrives; the core unblocks and finishes.
        ctx.inbox.push_back((NodeId::new(9), 123));
        run(&mut core, &mut ctx, 50);
        assert!(core.halted());
        assert_eq!(core.reg(S0), 123);
        assert_eq!(core.stats().packets_received, 1);
    }

    #[test]
    fn running_off_the_end_halts() {
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Nop);
        let mut core = Core::new(b.assemble().unwrap());
        let mut ctx = MockContext::default();
        run(&mut core, &mut ctx, 10);
        assert!(core.halted());
    }

    #[test]
    fn register_zero_is_immutable() {
        let mut core = Core::new(Program::default());
        core.set_reg(0, 99);
        assert_eq!(core.reg(0), 0);
    }

    #[test]
    fn jal_and_jr_implement_calls() {
        let mut b = ProgramBuilder::new();
        b.jal("func");
        b.inst(Inst::Add(S0, V0, ZERO));
        b.inst(Inst::Halt);
        b.label("func");
        b.inst(Inst::Li(V0, 77));
        b.inst(Inst::Jr(RA));
        let mut core = Core::new(b.assemble().unwrap());
        let mut ctx = MockContext::default();
        run(&mut core, &mut ctx, 20);
        assert!(core.halted());
        assert_eq!(core.reg(S0), 77);
    }
}
