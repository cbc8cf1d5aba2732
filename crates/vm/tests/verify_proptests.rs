//! Property-based tests for the deploy-time bytecode verifier.
//!
//! Three families of properties:
//!
//! 1. **Completeness on good code** — programs generated to be stack-safe
//!    and acyclic must pass the verifier, and their runtime gas must stay
//!    within the verifier's static bound.
//! 2. **Soundness under mutation** — flipping bytes in a verified program
//!    yields code that is either rejected (a typed error, never a panic)
//!    or, if it still verifies, executes without stack faults.
//! 3. **Static-jump safety** — verified programs whose jumps are all
//!    static never raise `BadJump`, `StackUnderflow` or `StackOverflow`
//!    at runtime.

use proptest::prelude::*;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::Address;
use smartcrowd_vm::asm::assemble;
use smartcrowd_vm::exec::{CallContext, Vm};
use smartcrowd_vm::gas;
use smartcrowd_vm::state::WorldState;
use smartcrowd_vm::verify::verify;
use smartcrowd_vm::{Receipt, VmError};

/// Builds a stack-safe, acyclic source program from a list of generator
/// choices. Tracks the simulated stack depth so every emitted instruction
/// has its operands available on every path.
fn build_safe_program(ops: &[(u8, u32)]) -> String {
    let mut depth = 0usize;
    let mut src = String::new();
    for (kind, v) in ops {
        match kind % 8 {
            0 => {
                src.push_str(&format!("PUSH {v}\n"));
                depth += 1;
            }
            1 if depth >= 1 => {
                src.push_str("POP\n");
                depth -= 1;
            }
            2 if depth >= 2 => {
                src.push_str("ADD\n");
                depth -= 1;
            }
            3 if depth >= 2 => {
                src.push_str("SSTORE\n");
                depth -= 2;
            }
            4 if depth >= 1 => {
                src.push_str("ISZERO\n");
            }
            5 => {
                src.push_str("CALLER\n");
                depth += 1;
            }
            6 if depth >= 1 => {
                let n = *v as usize % depth;
                src.push_str(&format!("DUP {n}\n"));
                depth += 1;
            }
            7 if depth >= 2 => {
                let n = 1 + *v as usize % (depth - 1);
                src.push_str(&format!("SWAP {n}\n"));
            }
            _ => {} // choice not legal at this depth: skip
        }
    }
    src.push_str("STOP\n");
    src
}

/// Wraps segments of a safe program in statically-resolved forward
/// branches: `PUSH cond / PUSH @label / JUMPI ... label:`.
fn build_branchy_program(segments: &[(u8, Vec<(u8, u32)>)]) -> String {
    let mut src = String::new();
    for (i, (cond, ops)) in segments.iter().enumerate() {
        src.push_str(&format!("PUSH {}\nPUSH @seg{i}\nJUMPI\n", cond % 2));
        for line in build_safe_program(ops).lines() {
            if line != "STOP" {
                src.push_str(line);
                src.push('\n');
            }
        }
        src.push_str(&format!("seg{i}:\n"));
    }
    src.push_str("STOP\n");
    src
}

/// Plants `code` at a deterministic contract address without going through
/// the deploy-time verifier, then calls it with empty calldata.
fn run_planted(code: Vec<u8>) -> Result<Receipt, VmError> {
    let mut state = WorldState::new();
    let caller = Address::from_label("caller");
    state.credit(caller, Ether::from_ether(1000));
    let contract = WorldState::contract_address(&caller, 0);
    state.account_mut(contract).code = code;
    state.credit(contract, Ether::from_ether(10));
    let vm = Vm::default().with_step_limit(20_000);
    vm.call(
        &mut state,
        CallContext::new(caller, contract).with_gas_limit(500_000),
        &[],
    )
}

fn is_stack_fault(receipt: &Receipt) -> bool {
    matches!(
        receipt.fault,
        Some(VmError::StackUnderflow { .. }) | Some(VmError::StackOverflow { .. })
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Generated stack-safe straight-line programs always verify, and the
    /// static gas bound is finite (the program is acyclic) and covers the
    /// gas actually consumed at runtime.
    #[test]
    fn safe_programs_verify(ops in proptest::collection::vec((any::<u8>(), any::<u32>()), 0..48)) {
        let src = build_safe_program(&ops);
        let code = assemble(&src).unwrap();
        let report = verify(&code).unwrap();
        let bound = report.gas.bound().expect("acyclic program has a finite bound");

        let receipt = run_planted(code).unwrap();
        prop_assert!(receipt.success, "fault: {:?}\n{src}", receipt.fault);
        prop_assert!(
            receipt.gas_used <= bound + gas::CALL_BASE_GAS,
            "runtime gas {} exceeds static bound {} + intrinsic {}\n{src}",
            receipt.gas_used, bound, gas::CALL_BASE_GAS
        );
    }

    /// Verified programs with only static jumps never hit a stack fault or
    /// a bad jump at runtime — the verifier proved all of them absent.
    #[test]
    fn static_jump_programs_run_clean(
        segments in proptest::collection::vec(
            (any::<u8>(), proptest::collection::vec((any::<u8>(), any::<u32>()), 0..12)),
            0..4,
        )
    ) {
        let src = build_branchy_program(&segments);
        let code = assemble(&src).unwrap();
        verify(&code).unwrap();

        let receipt = run_planted(code).unwrap();
        prop_assert!(!is_stack_fault(&receipt), "stack fault: {:?}\n{src}", receipt.fault);
        prop_assert!(
            !matches!(receipt.fault, Some(VmError::BadJump { .. })),
            "bad jump: {:?}\n{src}",
            receipt.fault
        );
    }

    /// Byte-level mutations of a verified program are either rejected with
    /// a typed error (no panic) or still verify — and then the verifier's
    /// stack-safety guarantee must hold at runtime.
    #[test]
    fn mutations_rejected_or_safe(
        ops in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..32),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let mut code = assemble(&build_safe_program(&ops)).unwrap();
        for (pos, byte) in &flips {
            let at = *pos as usize % code.len();
            code[at] = *byte;
        }
        match verify(&code) {
            Err(_) => {} // rejected with a typed error; nothing to run
            Ok(_) => {
                // Still verified: execution may fault (e.g. a dynamic jump
                // to a bad target, out of gas) but never on the stack.
                let receipt = run_planted(code).unwrap();
                prop_assert!(!is_stack_fault(&receipt), "stack fault: {:?}", receipt.fault);
            }
        }
    }

    /// Pure garbage never panics the verifier: every outcome is a typed
    /// `Ok`/`Err` value.
    #[test]
    fn verifier_total_on_garbage(code in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = verify(&code);
    }
}
