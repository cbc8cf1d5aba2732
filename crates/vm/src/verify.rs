//! The deploy gate: [`WorldState::deploy_contract`](crate::WorldState::deploy_contract)
//! and [`Vm::deploy`](crate::Vm::deploy) refuse code that [`verify`]
//! rejects, before any state changes.
//!
//! The gate is [`crate::analysis::analyze`] — which rejects undecodable
//! code, provable stack faults, bad static jumps, target-less dynamic
//! jumps and `SWAP 0` — plus one economic rule: a provable escrow leak
//! ([`VerifyError::EscrowLeak`]), a `TRANSFER` after the whole balance was
//! already paid out, which can never pay and would revert the incentive
//! allocation. Every other
//! finding (dead code, unbounded loops, opaque or unguarded payouts) is a
//! diagnostic, not a rejection; `scvm-lint` prints them. The interpreter
//! keeps its own runtime checks as defense in depth.

use crate::analysis::{analyze, Analysis};
use crate::error::VmError;
use crate::exec::STACK_LIMIT;

/// A violation found by the static verifier.
///
/// Each variant names the program counter of the offending instruction so
/// a provider can map the rejection back to its assembly listing (via
/// [`crate::asm::SourceMap`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// Some execution path reaches this instruction with fewer operands
    /// than it pops.
    StackUnderflow {
        /// Program counter of the under-supplied instruction.
        pc: usize,
        /// Minimum stack depth on entry to the instruction.
        depth: usize,
        /// Operands the instruction requires.
        needs: usize,
    },
    /// Some execution path pushes past `STACK_LIMIT`.
    StackOverflow {
        /// Program counter of the overflowing instruction.
        pc: usize,
        /// Maximum stack depth after the instruction.
        depth: usize,
    },
    /// A `JUMP`/`JUMPI` with a statically-known destination targets a
    /// position that is not a `JUMPDEST`.
    BadStaticJump {
        /// Program counter of the jump.
        pc: usize,
        /// The (invalid) destination.
        dest: usize,
    },
    /// A dynamic `JUMP` exists but the program has no `JUMPDEST`: every
    /// execution of it faults.
    JumpWithoutTargets {
        /// Program counter of the jump.
        pc: usize,
    },
    /// `SWAP 0` — the interpreter faults on it at any stack depth.
    SwapZero {
        /// Program counter of the swap.
        pc: usize,
    },
    /// A `TRANSFER` sequenced after a provable full-balance drain: it can
    /// never pay a positive amount without faulting, so the contract
    /// provably leaks escrow semantics.
    EscrowLeak {
        /// Program counter of the transfer that can never be honored.
        pc: usize,
        /// Program counter of the earlier full-balance transfer.
        drain_pc: usize,
        /// Block offsets of a CFG path from the entry to the leak.
        witness: Vec<usize>,
    },
}

impl VerifyError {
    /// The program counter of the offending instruction.
    pub fn pc(&self) -> usize {
        match self {
            VerifyError::StackUnderflow { pc, .. }
            | VerifyError::StackOverflow { pc, .. }
            | VerifyError::BadStaticJump { pc, .. }
            | VerifyError::JumpWithoutTargets { pc }
            | VerifyError::SwapZero { pc }
            | VerifyError::EscrowLeak { pc, .. } => *pc,
        }
    }
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::StackUnderflow { pc, depth, needs } => write!(
                f,
                "provable stack underflow at pc {pc}: depth can be {depth}, needs {needs}"
            ),
            VerifyError::StackOverflow { pc, depth } => write!(
                f,
                "provable stack overflow at pc {pc}: depth can reach {depth} (limit {STACK_LIMIT})"
            ),
            VerifyError::BadStaticJump { pc, dest } => {
                write!(f, "jump at pc {pc} targets {dest}, which is not a JUMPDEST")
            }
            VerifyError::JumpWithoutTargets { pc } => {
                write!(f, "dynamic jump at pc {pc} but the program has no JUMPDEST")
            }
            VerifyError::SwapZero { pc } => {
                write!(f, "SWAP 0 at pc {pc} faults at every stack depth")
            }
            VerifyError::EscrowLeak {
                pc,
                drain_pc,
                witness,
            } => {
                let path: Vec<String> = witness.iter().map(|b| b.to_string()).collect();
                write!(
                    f,
                    "provable escrow leak: transfer at pc {pc} executes after the \
                     balance was fully drained at pc {drain_pc} and can never pay \
                     (witness path: {})",
                    path.join(" -> ")
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Runs the deploy gate over `code`, returning the analysis it ran.
///
/// # Errors
///
/// Returns [`VmError::InvalidOpcode`] / [`VmError::TruncatedImmediate`]
/// for undecodable streams and [`VmError::Verify`] for provable stack
/// faults, bad static jump targets, target-less dynamic jumps, `SWAP 0`,
/// and provable escrow leaks ([`VerifyError::EscrowLeak`]).
pub fn verify(code: &[u8]) -> Result<Analysis, VmError> {
    let _span = smartcrowd_telemetry::span!("vm.verify");
    let result = analyze(code).and_then(|analysis| match &analysis.safety.leak {
        Some(leak) => Err(VmError::Verify(VerifyError::EscrowLeak {
            pc: leak.pc,
            drain_pc: leak.drain_pc,
            witness: leak.witness.clone(),
        })),
        None => Ok(analysis),
    });
    if result.is_err() {
        smartcrowd_telemetry::counter!("vm.verify.rejected").inc();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::GasVerdict;
    use crate::asm::assemble;
    use crate::exec::MEMORY_LIMIT;
    use crate::gas;
    use crate::isa::Op;

    fn verify_asm(src: &str) -> Result<Analysis, VmError> {
        verify(&assemble(src).expect("assembles"))
    }

    #[test]
    fn empty_code_verifies() {
        let r = verify(&[]).unwrap();
        assert_eq!(r.cfg.block_count(), 0);
        assert_eq!(r.gas, GasVerdict::Bounded(0));
    }

    #[test]
    fn straight_line_program_verifies() {
        let r = verify_asm("PUSH 2\nPUSH 3\nADD\nRETURNVAL\n").unwrap();
        assert_eq!(r.cfg.instruction_count(), 4);
        assert_eq!(r.cfg.block_count(), 1);
        assert_eq!(r.reachable.len(), 1);
        assert_eq!(r.max_stack_depth, 2);
        assert!(r.unreachable.is_empty());
        // 3 + 3 + 3 + 3 gas, no dynamic components.
        assert_eq!(r.gas, GasVerdict::Bounded(12));
    }

    #[test]
    fn provable_underflow_rejected() {
        let err = verify_asm("ADD\n").unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::StackUnderflow {
                pc: 0,
                depth: 0,
                needs: 2
            })
        ));
    }

    #[test]
    fn underflow_on_one_branch_rejected() {
        // The taken branch arrives at `thin:` with one word, then pops two.
        let err = verify_asm("PUSH 1\nPUSH 1\nPUSH @thin\nJUMPI\nPUSH 9\nthin:\nADD\nSTOP\n")
            .unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::StackUnderflow { .. })
        ));
    }

    #[test]
    fn balanced_branches_verify() {
        let r =
            verify_asm("PUSH 1\nPUSH 1\nPUSH @other\nJUMPI\nPUSH 9\nPOP\nother:\nSTOP\n").unwrap();
        assert!(r.gas.is_bounded());
    }

    #[test]
    fn static_jump_into_immediate_rejected() {
        // PUSH 3 targets the middle of the PUSH's own immediate.
        let err = verify_asm("PUSH 3\nJUMP\nSTOP\n").unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::BadStaticJump { dest: 3, .. })
        ));
    }

    #[test]
    fn static_jump_to_jumpdest_verifies() {
        let r = verify_asm("PUSH @end\nJUMP\nend:\nSTOP\n").unwrap();
        assert_eq!(r.reachable.len(), 2);
    }

    #[test]
    fn dynamic_jump_without_targets_rejected() {
        // The destination comes off calldata, and there is no JUMPDEST.
        let err = verify_asm("PUSH 0\nCALLDATALOAD\nJUMP\nSTOP\n").unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::JumpWithoutTargets { .. })
        ));
    }

    #[test]
    fn dynamic_jump_with_targets_verifies() {
        let r = verify_asm("PUSH 0\nCALLDATALOAD\nJUMP\na:\nSTOP\nb:\nSTOP\n").unwrap();
        // Both JUMPDESTs are conservative successors, so all reachable.
        assert_eq!(r.unreachable, Vec::<usize>::new());
    }

    #[test]
    fn swap_zero_rejected() {
        let err = verify_asm("PUSH 1\nPUSH 2\nSWAP 0\nSTOP\n").unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::SwapZero { pc: 18 })
        ));
    }

    #[test]
    fn swap_needs_depth() {
        let err = verify_asm("PUSH 1\nSWAP 1\nSTOP\n").unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::StackUnderflow { needs: 2, .. })
        ));
        assert!(verify_asm("PUSH 1\nPUSH 2\nSWAP 1\nSTOP\n").is_ok());
    }

    #[test]
    fn dup_needs_depth() {
        let err = verify_asm("PUSH 1\nDUP 1\nSTOP\n").unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::StackUnderflow { needs: 2, .. })
        ));
        assert!(verify_asm("PUSH 1\nDUP 0\nSTOP\n").is_ok());
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(matches!(
            verify(&[0xfe]),
            Err(VmError::InvalidOpcode { byte: 0xfe })
        ));
    }

    #[test]
    fn truncated_push_rejected() {
        let code = vec![Op::Push32 as u8, 1, 2, 3];
        assert!(matches!(
            verify(&code),
            Err(VmError::TruncatedImmediate { pc: 0 })
        ));
    }

    // Supersedes PR 1's `loop_verifies_but_gas_is_unbounded`: a loop with
    // a recognizable counter now gets a finite loop-aware bound, ...
    #[test]
    fn counter_bounded_loop_gets_finite_gas_bound() {
        let r =
            verify_asm("PUSH 10\nloop:\nJUMPDEST\nPUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n")
                .unwrap();
        let bound = r
            .gas
            .bound()
            .expect("counter loop must be finitely bounded");
        // Ten trips through a cycle that includes at least the JUMPDEST,
        // SUB, DUP and JUMPI: strictly more than one acyclic pass.
        let one_pass: u64 = [
            Op::Push8,
            Op::JumpDest,
            Op::Push8,
            Op::Sub,
            Op::Dup,
            Op::Push8,
            Op::JumpI,
            Op::Stop,
        ]
        .iter()
        .map(|&op| gas::static_cost(op))
        .sum();
        assert!(bound > one_pass, "{bound} must price 10 iterations");
    }

    // ... while a genuinely unbounded loop reports an explicit verdict
    // with a witness block instead of a silent `None`.
    #[test]
    fn unbounded_loop_reports_witness_block() {
        let r = verify_asm("loop:\nJUMPDEST\nPUSH 1\nPUSH 0\nSSTORE\nPUSH 1\nPUSH @loop\nJUMPI\n")
            .unwrap();
        assert_eq!(
            r.gas,
            GasVerdict::Unbounded { witness_block: 0 },
            "constant-true latch has no trip bound"
        );
        assert_eq!(r.gas.bound(), None);
    }

    #[test]
    fn net_pushing_loop_rejected_as_overflow() {
        // Each iteration pushes one more word than it pops; the interval
        // widens past STACK_LIMIT at the fixpoint.
        let err = verify_asm("loop:\nJUMPDEST\nPUSH 7\nPUSH 1\nPUSH @loop\nJUMPI\n").unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::StackOverflow { .. })
        ));
    }

    #[test]
    fn deep_push_sequence_overflows() {
        let src = "PUSH 1\n".repeat(STACK_LIMIT + 1);
        let err = verify_asm(&src).unwrap_err();
        assert!(matches!(
            err,
            VmError::Verify(VerifyError::StackOverflow { depth, .. }) if depth == STACK_LIMIT + 1
        ));
        assert!(verify_asm(&"PUSH 1\n".repeat(STACK_LIMIT)).is_ok());
    }

    #[test]
    fn unreachable_code_flagged_not_rejected() {
        let r = verify_asm("PUSH @end\nJUMP\nPUSH 1\nPOP\nend:\nSTOP\n").unwrap();
        assert_eq!(r.cfg.block_count(), 3);
        assert_eq!(r.reachable.len(), 2);
        assert_eq!(r.unreachable, vec![10], "dead block after the JUMP");
    }

    #[test]
    fn gas_bound_covers_worst_branch() {
        // Branch A: SSTORE (fresh-slot rate). Branch B: cheap. Bound must
        // price the expensive branch.
        let r = verify_asm(
            "PUSH 1\nPUSH 1\nPUSH @cheap\nJUMPI\nPUSH 5\nPUSH 0\nSSTORE\nSTOP\ncheap:\nSTOP\n",
        )
        .unwrap();
        let bound = r.gas.bound().unwrap();
        assert!(
            bound >= gas::SSTORE_NEW_GAS,
            "bound {bound} must include SSTORE"
        );
    }

    #[test]
    fn memory_op_adds_expansion_ceiling() {
        let without = verify_asm("PUSH 0\nPOP\nSTOP\n")
            .unwrap()
            .gas
            .bound()
            .unwrap();
        let with = verify_asm("PUSH 0\nMLOAD\nPOP\nSTOP\n")
            .unwrap()
            .gas
            .bound()
            .unwrap();
        assert!(with >= without + 3 * (MEMORY_LIMIT as u64 / 32));
    }

    #[test]
    fn push32_jump_target_uses_low_bits() {
        // A PUSH32 whose low 64 bits point at the JUMPDEST verifies even
        // with garbage in the high bits — exactly what the runtime does.
        let mut code = vec![Op::Push32 as u8];
        let mut imm = [0u8; 32];
        imm[0] = 0xff; // high bits set: value >> 64 is nonzero
        imm[31] = 34; // low 64 bits: the JUMPDEST offset
        code.extend_from_slice(&imm);
        code.push(Op::Jump as u8);
        code.push(Op::JumpDest as u8); // offset 34
        code.push(Op::Stop as u8);
        assert!(verify(&code).is_ok());
    }

    #[test]
    fn fallthrough_into_jumpdest_merges_depths() {
        // Reach `merge:` both by fall-through (depth 1) and by jump
        // (depth 1); the union must stay precise enough to verify POP.
        let r = verify_asm("PUSH 7\nPUSH 1\nPUSH @merge\nJUMPI\nmerge:\nPOP\nSTOP\n").unwrap();
        assert!(r.max_stack_depth >= 3);
    }

    #[test]
    fn verify_error_display_and_pc_are_informative() {
        let errors: Vec<VerifyError> = vec![
            VerifyError::StackUnderflow {
                pc: 1,
                depth: 0,
                needs: 2,
            },
            VerifyError::StackOverflow { pc: 2, depth: 1025 },
            VerifyError::BadStaticJump { pc: 3, dest: 9 },
            VerifyError::JumpWithoutTargets { pc: 4 },
            VerifyError::SwapZero { pc: 5 },
            VerifyError::EscrowLeak {
                pc: 6,
                drain_pc: 3,
                witness: vec![0, 6],
            },
        ];
        for (i, e) in errors.iter().enumerate() {
            assert!(e.to_string().contains("pc"), "{e}");
            assert_eq!(e.pc(), i + 1);
        }
    }

    #[test]
    fn payout_drift_mutant_is_rejected_with_witness_path() {
        let src = include_str!("../tests/lint_fixtures/sra_escrow_payout_drift.scvm");
        let err = verify_asm(src).unwrap_err();
        let VmError::Verify(VerifyError::EscrowLeak {
            pc,
            drain_pc,
            witness,
        }) = err
        else {
            panic!("mutant must be rejected as an escrow leak, got {err}");
        };
        assert!(pc > drain_pc, "the leak follows the drain");
        assert!(!witness.is_empty(), "rejection must carry a witness path");
        assert_eq!(witness.first(), Some(&0), "witness starts at the entry");
    }

    #[test]
    fn pristine_escrow_contract_verifies_with_proved_safety() {
        let src = include_str!("../../core/contracts/sra_escrow.scvm");
        let r = verify_asm(src).unwrap();
        assert!(r.safety.conserves_escrow.is_proved());
        assert!(r.safety.bounded_payout.is_proved());
        assert!(r.safety.no_unauthorized_flow.is_proved());
        assert!(r.safety.leak.is_none());
    }

    #[test]
    fn deploy_rejects_payout_drift_mutant() {
        use crate::exec::{CallContext, Vm};
        use crate::state::WorldState;
        use smartcrowd_chain::Ether;
        use smartcrowd_crypto::Address;

        let mut state = WorldState::new();
        let owner = Address::from_label("owner");
        state.credit(owner, Ether::from_ether(10));
        let vm = Vm::default();
        let src = include_str!("../tests/lint_fixtures/sra_escrow_payout_drift.scvm");
        let err = vm
            .deploy(
                &mut state,
                &CallContext::new(owner, Address::ZERO),
                assemble(src).unwrap(),
            )
            .unwrap_err();
        assert!(
            matches!(err, VmError::Verify(VerifyError::EscrowLeak { .. })),
            "{err}"
        );
    }
}
