//! Basic-block control-flow graph over decoded SCVM bytecode.
//!
//! This is the substrate every analysis in [`crate::analysis`] runs on:
//! the deploy-time verifier's stack-depth intervals, the value-range
//! domain, the loop/trip-count analysis, and the gas-bound computation all
//! walk the same [`Cfg`].
//!
//! Leaders are offset 0, every `JUMPDEST`, and every instruction following
//! a halt or jump. A `JUMP`/`JUMPI` whose destination comes from the
//! immediately preceding `PUSH` in the same block is *static* (within a
//! block control is straight-line, so the pushed immediate is on top of
//! the stack when the jump executes); its target must be a `JUMPDEST` or
//! CFG construction fails. Other jumps are *dynamic* and conservatively
//! may reach every `JUMPDEST`.

use crate::error::VmError;
use crate::exec::MEMORY_LIMIT;
use crate::gas;
use crate::isa::Op;
use crate::verify::VerifyError;
use smartcrowd_crypto::U256;
use std::collections::{BTreeMap, BTreeSet};

/// One decoded instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Insn {
    /// Code offset of the opcode byte.
    pub pc: usize,
    /// The opcode.
    pub op: Op,
    /// `DUP`/`SWAP` index operand.
    pub index_imm: u8,
    /// Full `PUSH`/`PUSH32` immediate (zero for other opcodes).
    pub push: U256,
}

impl Insn {
    /// Low 64 bits of a `PUSH` immediate — exactly the value the
    /// interpreter would use as a jump destination (`low_u64`).
    pub(crate) fn push_low(&self) -> u64 {
        self.push.low_u64()
    }
}

/// How a basic block hands control onward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Exit {
    /// `STOP`/`RETURN`/`RETURNVAL`/`REVERT`, or falling off the code end.
    Halt,
    /// Unconditional jump to a statically-known `JUMPDEST`.
    StaticJump(usize),
    /// Conditional jump to a statically-known `JUMPDEST`, else fall through.
    StaticBranch {
        /// The jump target when the condition is nonzero.
        dest: usize,
        /// The next instruction when the condition is zero.
        fallthrough: usize,
    },
    /// `JUMP` with a runtime-computed destination: any `JUMPDEST`.
    DynamicJump,
    /// `JUMPI` with a runtime-computed destination: any `JUMPDEST`, or
    /// fall through.
    DynamicBranch {
        /// The next instruction when the condition is zero.
        fallthrough: usize,
    },
    /// Straight-line flow into the next block.
    FallThrough(usize),
}

/// A basic block: a maximal straight-line instruction run.
#[derive(Debug)]
pub struct Block {
    /// Index of the first instruction in the instruction list.
    pub first: usize,
    /// Index of the last instruction (inclusive).
    pub last: usize,
    /// The block's terminating control transfer.
    pub exit: Exit,
}

/// The control-flow graph: decoded instructions grouped into basic blocks
/// keyed by their starting code offset.
#[derive(Debug)]
pub struct Cfg {
    insns: Vec<Insn>,
    blocks: BTreeMap<usize, Block>,
    jumpdests: BTreeSet<usize>,
}

impl Cfg {
    /// Decodes `code` and partitions it into basic blocks, resolving each
    /// block's exit edges.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidOpcode`] / [`VmError::TruncatedImmediate`]
    /// for undecodable streams, and [`VmError::Verify`] for static jumps
    /// to non-`JUMPDEST` targets or dynamic jumps in a program without any
    /// `JUMPDEST`.
    pub fn build(code: &[u8]) -> Result<Cfg, VmError> {
        let insns = decode(code)?;
        let (blocks, jumpdests) = build_blocks(&insns)?;
        Ok(Cfg {
            insns,
            blocks,
            jumpdests,
        })
    }

    /// Whether the program has no instructions at all.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Total decoded instruction count.
    pub fn instruction_count(&self) -> usize {
        self.insns.len()
    }

    /// The entry block's code offset (always 0 for non-empty programs).
    pub fn entry(&self) -> usize {
        self.insns.first().map_or(0, |i| i.pc)
    }

    /// All block start offsets in ascending order.
    pub(crate) fn block_starts(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.keys().copied()
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block starting at offset `start`. Panics-free: returns `None`
    /// for offsets that are not block leaders.
    pub fn block(&self, start: usize) -> Option<&Block> {
        self.blocks.get(&start)
    }

    /// The instructions of the block starting at `start` (empty slice for
    /// non-leader offsets).
    pub(crate) fn block_insns(&self, start: usize) -> &[Insn] {
        match self.blocks.get(&start) {
            Some(b) => &self.insns[b.first..=b.last],
            None => &[],
        }
    }

    /// The successors of the block at `start`, as code offsets. Dynamic
    /// jumps conservatively target every `JUMPDEST`.
    pub(crate) fn successors(&self, start: usize) -> Vec<usize> {
        let Some(block) = self.blocks.get(&start) else {
            return Vec::new();
        };
        match &block.exit {
            Exit::Halt => Vec::new(),
            Exit::StaticJump(dest) => vec![*dest],
            Exit::StaticBranch { dest, fallthrough } => vec![*dest, *fallthrough],
            Exit::DynamicJump => self.jumpdests.iter().copied().collect(),
            Exit::DynamicBranch { fallthrough } => {
                let mut s: Vec<usize> = self.jumpdests.iter().copied().collect();
                s.push(*fallthrough);
                s
            }
            Exit::FallThrough(next) => vec![*next],
        }
    }

    /// Worst-case gas one full execution of the block at `start` can
    /// charge (sum of [`worst_case_gas`] over its instructions).
    pub(crate) fn block_gas(&self, start: usize) -> u64 {
        self.block_insns(start)
            .iter()
            .map(|i| worst_case_gas(i.op))
            .sum()
    }

    /// Whether any instruction in `reachable` blocks can grow scratch
    /// memory (and therefore pay the one-off memory-expansion gas).
    pub(crate) fn any_memory_op(&self, reachable: &BTreeSet<usize>) -> bool {
        reachable
            .iter()
            .any(|b| self.block_insns(*b).iter().any(|i| touches_memory(i.op)))
    }
}

/// The number of operands an opcode pops and pushes. `DUP` and `SWAP`
/// pop nothing but reach below the top (`stack_reach`).
pub(crate) fn stack_effect(op: Op) -> (usize, usize) {
    match op {
        Op::Stop | Op::Return | Op::JumpDest | Op::Swap => (0, 0),
        Op::Push8 | Op::Push32 | Op::Dup => (0, 1),
        Op::Pop | Op::Log | Op::ReturnVal | Op::Revert | Op::Jump => (1, 0),
        Op::Add
        | Op::Sub
        | Op::Mul
        | Op::Div
        | Op::Mod
        | Op::Lt
        | Op::Gt
        | Op::Eq
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Min
        | Op::Keccak => (2, 1),
        Op::IsZero
        | Op::Not
        | Op::EcRecover
        | Op::CallDataLoad
        | Op::Balance
        | Op::SLoad
        | Op::MLoad => (1, 1),
        Op::SelfAddr
        | Op::Caller
        | Op::CallValue
        | Op::CallDataSize
        | Op::Timestamp
        | Op::Number
        | Op::SelfBalance => (0, 1),
        Op::SStore | Op::MStore | Op::JumpI | Op::Transfer => (2, 0),
    }
}

/// How many slots from the top `insn` needs: its operands, or for
/// `DUP n` / `SWAP n` the `n + 1` slots down to the one it copies or
/// exchanges.
pub(crate) fn stack_reach(insn: &Insn) -> usize {
    match insn.op {
        Op::Dup | Op::Swap => usize::from(insn.index_imm) + 1,
        op => stack_effect(op).0,
    }
}

/// Whether the opcode can grow scratch memory (and therefore pay the
/// memory-expansion gas).
pub(crate) fn touches_memory(op: Op) -> bool {
    matches!(op, Op::Keccak | Op::EcRecover | Op::MLoad | Op::MStore)
}

/// Worst-case gas one instruction can charge without faulting: the static
/// cost plus the most expensive dynamic component (fresh `SSTORE` slot,
/// full `TRANSFER`, `KECCAK` over the largest in-bounds range). Memory
/// expansion is accounted once per program, not per instruction.
pub(crate) fn worst_case_gas(op: Op) -> u64 {
    let dynamic = match op {
        Op::SStore => gas::SSTORE_NEW_GAS,
        Op::Transfer => gas::TRANSFER_GAS,
        Op::Keccak => 6 * (MEMORY_LIMIT as u64 / 32 + 1),
        _ => 0,
    };
    gas::static_cost(op) + dynamic
}

/// Decodes `code` into whole instructions.
fn decode(code: &[u8]) -> Result<Vec<Insn>, VmError> {
    let mut insns = Vec::new();
    let mut pc = 0usize;
    while pc < code.len() {
        let op = Op::from_byte(code[pc])?;
        let imm = op.immediate_len();
        if pc + 1 + imm > code.len() {
            return Err(VmError::TruncatedImmediate { pc });
        }
        let mut insn = Insn {
            pc,
            op,
            index_imm: 0,
            push: U256::ZERO,
        };
        match op {
            Op::Dup | Op::Swap => insn.index_imm = code[pc + 1],
            Op::Push8 => {
                let mut b = [0u8; 8];
                b.copy_from_slice(&code[pc + 1..pc + 9]);
                insn.push = U256::from_u64(u64::from_be_bytes(b));
            }
            Op::Push32 => {
                let mut b = [0u8; 32];
                b.copy_from_slice(&code[pc + 1..pc + 33]);
                insn.push = U256::from_be_bytes(&b);
            }
            _ => {}
        }
        insns.push(insn);
        pc += 1 + imm;
    }
    Ok(insns)
}

fn is_terminator(op: Op) -> bool {
    matches!(
        op,
        Op::Stop | Op::Return | Op::ReturnVal | Op::Revert | Op::Jump | Op::JumpI
    )
}

/// Partitions the instruction stream into basic blocks and resolves each
/// block's exit edges.
fn build_blocks(insns: &[Insn]) -> Result<(BTreeMap<usize, Block>, BTreeSet<usize>), VmError> {
    let jumpdests: BTreeSet<usize> = insns
        .iter()
        .filter(|i| i.op == Op::JumpDest)
        .map(|i| i.pc)
        .collect();

    let mut leaders: BTreeSet<usize> = BTreeSet::new();
    if !insns.is_empty() {
        leaders.insert(0);
    }
    for (i, insn) in insns.iter().enumerate() {
        if insn.op == Op::JumpDest {
            leaders.insert(i);
        }
        if is_terminator(insn.op) && i + 1 < insns.len() {
            leaders.insert(i + 1);
        }
    }

    let leader_list: Vec<usize> = leaders.iter().copied().collect();
    let mut blocks = BTreeMap::new();
    for (bi, &first) in leader_list.iter().enumerate() {
        let last = leader_list
            .get(bi + 1)
            .map_or(insns.len() - 1, |&next| next - 1);
        let last_insn = &insns[last];
        // A jump is static when the destination provably comes from the
        // instruction just before it in the same block: within a block,
        // control is straight-line, so the pushed immediate is on top of
        // the stack when the jump executes.
        let static_dest = (last > first)
            .then(|| &insns[last - 1])
            .filter(|p| matches!(p.op, Op::Push8 | Op::Push32))
            .map(|p| usize::try_from(p.push_low()).unwrap_or(usize::MAX));
        let fallthrough_pc = |idx: usize| insns.get(idx + 1).map(|i| i.pc);
        let exit = match last_insn.op {
            Op::Stop | Op::Return | Op::ReturnVal | Op::Revert => Exit::Halt,
            Op::Jump => match static_dest {
                Some(dest) => {
                    if !jumpdests.contains(&dest) {
                        return Err(VmError::Verify(VerifyError::BadStaticJump {
                            pc: last_insn.pc,
                            dest,
                        }));
                    }
                    Exit::StaticJump(dest)
                }
                None => {
                    if jumpdests.is_empty() {
                        return Err(VmError::Verify(VerifyError::JumpWithoutTargets {
                            pc: last_insn.pc,
                        }));
                    }
                    Exit::DynamicJump
                }
            },
            Op::JumpI => {
                // Falling off the end after a JUMPI's false branch halts
                // cleanly, same as running past the last instruction.
                match (static_dest, fallthrough_pc(last)) {
                    (Some(dest), ft) => {
                        if !jumpdests.contains(&dest) {
                            return Err(VmError::Verify(VerifyError::BadStaticJump {
                                pc: last_insn.pc,
                                dest,
                            }));
                        }
                        match ft {
                            Some(fallthrough) => Exit::StaticBranch { dest, fallthrough },
                            None => Exit::StaticJump(dest),
                        }
                    }
                    (None, ft) => {
                        if jumpdests.is_empty() {
                            // cond == 0 still falls through, so this is
                            // only conservative routing, not a rejection.
                            match ft {
                                Some(fallthrough) => Exit::FallThrough(fallthrough),
                                None => Exit::Halt,
                            }
                        } else {
                            match ft {
                                Some(fallthrough) => Exit::DynamicBranch { fallthrough },
                                None => Exit::DynamicJump,
                            }
                        }
                    }
                }
            }
            _ => match fallthrough_pc(last) {
                Some(next) => Exit::FallThrough(next),
                None => Exit::Halt, // running past the end halts cleanly
            },
        };
        blocks.insert(insns[first].pc, Block { first, last, exit });
    }
    Ok((blocks, jumpdests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn cfg(src: &str) -> Cfg {
        Cfg::build(&assemble(src).expect("assembles")).expect("builds")
    }

    #[test]
    fn straight_line_is_one_block() {
        let c = cfg("PUSH 1\nPUSH 2\nADD\nSTOP\n");
        assert_eq!(c.block_count(), 1);
        assert_eq!(c.successors(0), Vec::<usize>::new());
        assert_eq!(c.block_insns(0).len(), 4);
    }

    #[test]
    fn static_branch_has_two_successors() {
        let c = cfg("PUSH 1\nPUSH @end\nJUMPI\nPUSH 9\nPOP\nend:\nSTOP\n");
        let succs = c.successors(0);
        assert_eq!(succs.len(), 2, "taken + fallthrough: {succs:?}");
    }

    #[test]
    fn dynamic_jump_targets_every_jumpdest() {
        let c = cfg("PUSH 0\nCALLDATALOAD\nJUMP\na:\nSTOP\nb:\nSTOP\n");
        assert_eq!(c.successors(0).len(), 2);
    }

    #[test]
    fn block_gas_prices_worst_case_sstore() {
        let c = cfg("PUSH 1\nPUSH 0\nSSTORE\nSTOP\n");
        assert!(c.block_gas(0) >= gas::SSTORE_NEW_GAS);
    }

    #[test]
    fn non_leader_offsets_are_safe() {
        let c = cfg("PUSH 1\nPOP\nSTOP\n");
        assert!(c.block(5).is_none());
        assert!(c.block_insns(5).is_empty());
        assert!(c.successors(5).is_empty());
        assert_eq!(c.block_gas(5), 0);
    }
}
