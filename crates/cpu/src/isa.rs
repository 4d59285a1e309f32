//! A MIPS-like instruction set and a small embedded assembler.
//!
//! The paper's built-in core is a single-cycle, in-order MIPS simulator that
//! runs statically linked binaries produced by a MIPS cross-compiler. A full
//! GCC toolchain is out of scope here, so this module provides the same
//! programming model — 32 general-purpose registers, loads/stores, ALU
//! operations, branches, and the network system-call interface — with programs
//! assembled in Rust via [`ProgramBuilder`]. The calling convention for
//! syscalls follows MIPS o32: arguments in `a0..a3` (r4–r7), the syscall
//! number in `v0` (r2), results in `v0`/`v1` (r2/r3).

use std::collections::HashMap;

/// A register index (0–31). Register 0 is hard-wired to zero.
pub type Reg = u8;

/// Conventional MIPS register names.
pub mod regs {
    use super::Reg;
    /// Hard-wired zero.
    pub const ZERO: Reg = 0;
    /// Syscall number / first result.
    pub const V0: Reg = 2;
    /// Second result.
    pub const V1: Reg = 3;
    /// First argument.
    pub const A0: Reg = 4;
    /// Second argument.
    pub const A1: Reg = 5;
    /// Third argument.
    pub const A2: Reg = 6;
    /// Fourth argument.
    pub const A3: Reg = 7;
    /// Temporaries.
    pub const T0: Reg = 8;
    /// Temporary 1.
    pub const T1: Reg = 9;
    /// Temporary 2.
    pub const T2: Reg = 10;
    /// Temporary 3.
    pub const T3: Reg = 11;
    /// Saved registers.
    pub const S0: Reg = 16;
    /// Saved register 1.
    pub const S1: Reg = 17;
    /// Saved register 2.
    pub const S2: Reg = 18;
    /// Saved register 3.
    pub const S3: Reg = 19;
    /// Stack pointer.
    pub const SP: Reg = 29;
    /// Return address.
    pub const RA: Reg = 31;
}

/// The network / OS services exposed through the `syscall` instruction
/// (paper §II-D2: send packets on specific flows, poll the processor ingress,
/// receive packets from specific queues; sends and receives are DMA-like and
/// do not stall the core).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// `a0` = destination node, `a1` = payload word, `a2` = payload length in
    /// words (the remaining words are zero-filled). Non-blocking.
    NetSend = 1,
    /// `v0` ← number of packets waiting at the processor ingress
    /// (optionally from source `a0` if `a1` != 0).
    NetPoll = 2,
    /// Receive a packet: `a0` = source node (or any if `a1` == 0).
    /// Blocks until a packet is available; then `v0` ← first payload word,
    /// `v1` ← source node.
    NetRecv = 3,
    /// `v0` ← this core's node id.
    MyNode = 4,
    /// `v0` ← total number of nodes.
    NodeCount = 5,
    /// Halt the core.
    Exit = 10,
}

impl Syscall {
    /// Decodes a syscall number.
    pub fn from_number(n: u64) -> Option<Self> {
        match n {
            1 => Some(Syscall::NetSend),
            2 => Some(Syscall::NetPoll),
            3 => Some(Syscall::NetRecv),
            4 => Some(Syscall::MyNode),
            5 => Some(Syscall::NodeCount),
            10 => Some(Syscall::Exit),
            _ => None,
        }
    }
}

/// One instruction of the MIPS-like ISA.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// `rd ← rs + rt`
    Add(Reg, Reg, Reg),
    /// `rd ← rs - rt`
    Sub(Reg, Reg, Reg),
    /// `rd ← rs * rt`
    Mul(Reg, Reg, Reg),
    /// `rd ← rs & rt`
    And(Reg, Reg, Reg),
    /// `rd ← rs | rt`
    Or(Reg, Reg, Reg),
    /// `rd ← rs ^ rt`
    Xor(Reg, Reg, Reg),
    /// `rd ← (rs < rt) ? 1 : 0` (unsigned)
    Sltu(Reg, Reg, Reg),
    /// `rd ← rs + imm`
    Addi(Reg, Reg, i64),
    /// `rd ← imm`
    Li(Reg, u64),
    /// `rd ← mem[rs + offset]`
    Lw(Reg, Reg, i64),
    /// `mem[rs + offset] ← rt`
    Sw(Reg, Reg, i64),
    /// Branch to `target` if `rs == rt`.
    Beq(Reg, Reg, usize),
    /// Branch to `target` if `rs != rt`.
    Bne(Reg, Reg, usize),
    /// Unconditional jump to `target`.
    J(usize),
    /// Jump and link: `ra ← pc + 1`, jump to `target`.
    Jal(usize),
    /// Jump to the address in `rs`.
    Jr(Reg),
    /// Invoke the service selected by `v0`.
    Syscall,
    /// No operation.
    Nop,
    /// Halt the core (equivalent to `Syscall` with `v0 = Exit`).
    Halt,
}

/// A fully assembled program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// The instruction stream.
    pub instructions: Vec<Inst>,
    /// Initial data segment: (byte address, word value).
    pub data: Vec<(u64, u64)>,
}

impl Program {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }
}

/// A tiny two-pass assembler: emit instructions (possibly referring to labels
/// that are defined later), then [`assemble`](Self::assemble).
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    instructions: Vec<PendingInst>,
    labels: HashMap<String, usize>,
    data: Vec<(u64, u64)>,
}

#[derive(Clone, Debug)]
enum PendingInst {
    Ready(Inst),
    BranchEq(Reg, Reg, String),
    BranchNe(Reg, Reg, String),
    Jump(String),
    JumpAndLink(String),
}

/// Errors produced by [`ProgramBuilder::assemble`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssembleError {
    /// A branch or jump referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
}

impl std::fmt::Display for AssembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssembleError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AssembleError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
        }
    }
}

impl std::error::Error for AssembleError {}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) -> &mut Self {
        self.labels
            .insert(name.to_string(), self.instructions.len());
        self
    }

    /// Emits an already-resolved instruction.
    pub fn inst(&mut self, inst: Inst) -> &mut Self {
        self.instructions.push(PendingInst::Ready(inst));
        self
    }

    /// Emits `beq rs, rt, label`.
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Self {
        self.instructions
            .push(PendingInst::BranchEq(rs, rt, label.to_string()));
        self
    }

    /// Emits `bne rs, rt, label`.
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Self {
        self.instructions
            .push(PendingInst::BranchNe(rs, rt, label.to_string()));
        self
    }

    /// Emits `j label`.
    pub fn j(&mut self, label: &str) -> &mut Self {
        self.instructions.push(PendingInst::Jump(label.to_string()));
        self
    }

    /// Emits `jal label`.
    pub fn jal(&mut self, label: &str) -> &mut Self {
        self.instructions
            .push(PendingInst::JumpAndLink(label.to_string()));
        self
    }

    /// Adds an initial data word at a byte address.
    pub fn word(&mut self, addr: u64, value: u64) -> &mut Self {
        self.data.push((addr, value));
        self
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`AssembleError`] if a referenced label is undefined.
    pub fn assemble(&self) -> Result<Program, AssembleError> {
        let resolve = |name: &str| {
            self.labels
                .get(name)
                .copied()
                .ok_or_else(|| AssembleError::UndefinedLabel(name.to_string()))
        };
        let mut instructions = Vec::with_capacity(self.instructions.len());
        for p in &self.instructions {
            instructions.push(match p {
                PendingInst::Ready(i) => *i,
                PendingInst::BranchEq(a, b, l) => Inst::Beq(*a, *b, resolve(l)?),
                PendingInst::BranchNe(a, b, l) => Inst::Bne(*a, *b, resolve(l)?),
                PendingInst::Jump(l) => Inst::J(resolve(l)?),
                PendingInst::JumpAndLink(l) => Inst::Jal(resolve(l)?),
            });
        }
        Ok(Program {
            instructions,
            data: self.data.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regs::*;

    #[test]
    fn assembler_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        b.inst(Inst::Li(T0, 3));
        b.label("loop");
        b.inst(Inst::Addi(T0, T0, -1));
        b.bne(T0, ZERO, "loop");
        b.j("end");
        b.inst(Inst::Nop);
        b.label("end");
        b.inst(Inst::Halt);
        let p = b.assemble().expect("assembles");
        assert_eq!(p.len(), 6);
        assert_eq!(p.instructions[2], Inst::Bne(T0, ZERO, 1));
        assert_eq!(p.instructions[3], Inst::J(5));
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.j("nowhere");
        assert_eq!(
            b.assemble(),
            Err(AssembleError::UndefinedLabel("nowhere".to_string()))
        );
        assert!(b.assemble().unwrap_err().to_string().contains("nowhere"));
    }

    #[test]
    fn syscall_numbers_roundtrip() {
        for s in [
            Syscall::NetSend,
            Syscall::NetPoll,
            Syscall::NetRecv,
            Syscall::MyNode,
            Syscall::NodeCount,
            Syscall::Exit,
        ] {
            assert_eq!(Syscall::from_number(s as u64), Some(s));
        }
        assert_eq!(Syscall::from_number(99), None);
    }

    #[test]
    fn data_words_are_carried_through() {
        let mut b = ProgramBuilder::new();
        b.word(0x100, 7).word(0x108, 8);
        b.inst(Inst::Halt);
        let p = b.assemble().unwrap();
        assert_eq!(p.data, vec![(0x100, 7), (0x108, 8)]);
        assert!(!p.is_empty());
    }
}
