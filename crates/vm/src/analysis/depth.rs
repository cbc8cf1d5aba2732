//! Stack-depth abstract domain — the fault-proving half of the deploy
//! gate, now expressed as an [`engine::Domain`](crate::analysis::engine::Domain).
//!
//! Every opcode shifts the stack depth by a constant, so an entry interval
//! `[lo, hi]` has both endpoints realized by concrete paths: `lo` below the
//! slots an instruction needs (its operands, or `n + 1` for `DUP n` /
//! `SWAP n`) proves a reachable underflow, `hi` past
//! `STACK_LIMIT` proves a reachable overflow. The lattice is finite
//! (`0..=STACK_LIMIT` per endpoint), so plain join suffices: the domain's
//! `WIDEN_AFTER` is `usize::MAX`.

use crate::analysis::cfg::{stack_effect, stack_reach, Cfg, Insn};
use crate::analysis::engine::{run, Domain};
use crate::analysis::lattice::Lattice;
use crate::error::VmError;
use crate::exec::STACK_LIMIT;
use crate::isa::Op;
use crate::verify::VerifyError;
use std::collections::BTreeMap;

/// Stack-depth interval on entry to a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthInterval {
    /// Shallowest depth some path reaches this block with.
    pub lo: usize,
    /// Deepest depth some path reaches this block with.
    pub hi: usize,
}

impl Lattice for DepthInterval {
    fn join(&self, other: &Self) -> Self {
        DepthInterval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// The stack-depth domain. Rejects (via `Err`) programs with provable
/// stack faults or a `SWAP 0`, exactly like the PR 1 verifier.
#[derive(Debug)]
pub(crate) struct DepthDomain;

/// Abstractly executes one instruction on a depth interval, checking for
/// provable faults. Returns the new interval.
fn step(insn: &Insn, depth: DepthInterval) -> Result<DepthInterval, VmError> {
    let pc = insn.pc;
    if insn.op == Op::Swap && insn.index_imm == 0 {
        return Err(VmError::Verify(VerifyError::SwapZero { pc }));
    }
    let needs = stack_reach(insn);
    if depth.lo < needs {
        return Err(VmError::Verify(VerifyError::StackUnderflow {
            pc,
            depth: depth.lo,
            needs,
        }));
    }
    let (pops, pushes) = stack_effect(insn.op);
    let next = DepthInterval {
        lo: depth.lo - pops + pushes,
        hi: depth.hi - pops + pushes,
    };
    if next.hi > STACK_LIMIT {
        return Err(VmError::Verify(VerifyError::StackOverflow {
            pc,
            depth: next.hi,
        }));
    }
    Ok(next)
}

impl Domain for DepthDomain {
    type State = DepthInterval;
    const WIDEN_AFTER: usize = usize::MAX;

    fn entry_state(&self, _cfg: &Cfg) -> DepthInterval {
        DepthInterval { lo: 0, hi: 0 }
    }

    fn transfer(
        &self,
        cfg: &Cfg,
        block: usize,
        state: &DepthInterval,
    ) -> Result<DepthInterval, VmError> {
        let mut depth = *state;
        for insn in cfg.block_insns(block) {
            depth = step(insn, depth)?;
        }
        Ok(depth)
    }
}

/// The result of the depth analysis: per-block entry intervals plus the
/// deepest point any path reaches.
#[derive(Debug)]
pub(crate) struct DepthAnalysis {
    /// Entry depth interval for every reachable block.
    pub entry: BTreeMap<usize, DepthInterval>,
    /// The highest operand-stack depth any execution path can reach.
    pub max_depth: usize,
}

/// Runs the depth domain to a fixpoint and computes the deepest stack
/// excursion. Errors exactly where the PR 1 verifier did.
pub(crate) fn analyze_depth(cfg: &Cfg) -> Result<DepthAnalysis, VmError> {
    let entry = run(cfg, &DepthDomain)?;
    let mut max_depth = 0usize;
    for (&block, &state) in &entry {
        let mut depth = state;
        max_depth = max_depth.max(depth.hi);
        for insn in cfg.block_insns(block) {
            depth = step(insn, depth)?;
            max_depth = max_depth.max(depth.hi);
        }
    }
    Ok(DepthAnalysis { entry, max_depth })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn analyze(src: &str) -> Result<DepthAnalysis, VmError> {
        let cfg = Cfg::build(&assemble(src).expect("assembles"))?;
        analyze_depth(&cfg)
    }

    #[test]
    fn straight_line_depth_tracked() {
        let a = analyze("PUSH 2\nPUSH 3\nADD\nRETURNVAL\n").expect("verifies");
        assert_eq!(a.max_depth, 2);
    }

    #[test]
    fn underflow_detected() {
        assert!(matches!(
            analyze("ADD\n").unwrap_err(),
            VmError::Verify(VerifyError::StackUnderflow { pc: 0, .. })
        ));
    }

    #[test]
    fn net_pushing_loop_overflows() {
        let err = analyze("loop:\nJUMPDEST\nPUSH 7\nPUSH 1\nPUSH @loop\nJUMPI\n").unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::StackOverflow { .. })
        ));
    }

    #[test]
    fn balanced_loop_converges() {
        let a = analyze("loop:\nJUMPDEST\nPUSH 1\nPUSH 0\nSSTORE\nPUSH 1\nPUSH @loop\nJUMPI\n")
            .expect("balanced loop verifies");
        let head = a.entry.get(&0).expect("head reached");
        assert_eq!((head.lo, head.hi), (0, 0), "loop is stack-neutral");
    }
}
