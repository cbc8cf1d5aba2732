//! Shrunk counterexamples committed from `scvm-fuzz` runs (see
//! `crates/fuzz` and DESIGN.md §14).
//!
//! Each case replays a minimized fuzz input and asserts the
//! analyzer/interpreter agreement the fuzzer's oracles check: a program
//! the analysis pipeline accepts must not trap with a proof-excluded
//! fault, and must never run out of gas under its own `Bounded(g)`
//! verdict. The replay helper is a deliberately minimal inline copy of
//! the fuzzer's harness using only `smartcrowd-vm` APIs — this crate
//! cannot depend on `smartcrowd-fuzz` (it would be a cycle), and a
//! regression test should not need the whole engine to reproduce.

use smartcrowd_chain::Ether;
use smartcrowd_crypto::{hex, Address};
use smartcrowd_vm::analysis::analyze;
use smartcrowd_vm::exec::{CallContext, Vm};
use smartcrowd_vm::{gas, GasVerdict, VmError, WorldState};

/// Replays one shrunk fuzz case and asserts the differential oracles.
fn replay(code_hex: &str, calldata_hex: &str) {
    let code = hex::decode(code_hex).expect("valid code hex");
    let calldata = hex::decode(calldata_hex).expect("valid calldata hex");

    let analysis = analyze(&code);
    let intrinsic = gas::call_intrinsic_gas(calldata.len());
    let (claimed, budget) = match &analysis {
        Ok(a) => match a.gas {
            GasVerdict::Bounded(g) => (Some(g), intrinsic.saturating_add(g)),
            GasVerdict::Unbounded { .. } => (None, gas::DEFAULT_GAS_LIMIT),
        },
        Err(_) => (None, gas::DEFAULT_GAS_LIMIT),
    };

    // Same fixed world as the fuzzer: code planted directly (bypassing
    // the deploy gate) so even rejected programs execute, gas priced at
    // zero so fees cannot interfere.
    let mut state = WorldState::new();
    let owner = Address::from_label("fuzz-owner");
    state.credit(owner, Ether::from_ether(1_000_000));
    let contract = WorldState::contract_address(&owner, 0);
    state.account_mut(contract).code = code;
    state.credit(contract, Ether::from_ether(1000));

    let mut ctx = CallContext::new(owner, contract).with_gas_limit(budget);
    ctx.gas_price_wei = 0;
    let receipt = match Vm::default().call(&mut state, ctx, &calldata) {
        Ok(r) => r,
        Err(e) => {
            // Pre-execution rejection (undecodable stream): fine only if
            // the analyzer rejected the program too.
            assert!(
                analysis.is_err(),
                "accepted program failed pre-execution: {e}"
            );
            return;
        }
    };

    if analysis.is_ok() {
        // Clean-trap oracle: traps the acceptance proof rules out.
        assert!(
            !matches!(
                receipt.fault,
                Some(
                    VmError::StackUnderflow { .. }
                        | VmError::StackOverflow { .. }
                        | VmError::InvalidOpcode { .. }
                        | VmError::TruncatedImmediate { .. }
                )
            ),
            "accepted program trapped: {:?}",
            receipt.fault
        );
        // Gas-bound oracle: Bounded(g) must survive a budget of exactly
        // intrinsic + g.
        if claimed.is_some() {
            assert!(
                !matches!(receipt.fault, Some(VmError::OutOfGas { .. })),
                "starved under claimed bound {claimed:?}: {:?}",
                receipt.fault
            );
        }
    }
}

/// Minimal gas-verdict witness: a single `PUSH 0`. Shrunk from the
/// planted `gas-bound-halved` self-test runs (seeds 3, 11, 29, 47) —
/// the smallest program whose bound any undercounting breaks.
#[test]
fn fuzz_regression_gas_bound_minimal_push() {
    replay("010000000000000000", "");
}

/// `PUSH 0; PUSH 0x020000000000001f; KECCAK`: a real analyzer/VM
/// disagreement found by the gas-verdict oracle (seed 1). The
/// interpreter charged the per-word hashing gas for the out-of-bounds
/// length *before* the bounds check, so this program charged ~2.7e16
/// gas against a `Bounded(294954)` verdict. Fixed by bounds-checking
/// before the length-derived charge.
#[test]
fn fuzz_regression_gas_bound_keccak_oob_length() {
    replay("01000000000000000001020000000000001f20", "");
}

/// `PUSH 0xffffffffffffffff; CALLDATALOAD; RETURNVAL` with nonempty
/// calldata: the near-max offset used to overflow `offset + i` in the
/// calldata read loop (panic in debug builds, wrap-around read in
/// release). Must read as zero-padding.
#[test]
fn fuzz_regression_calldataload_offset_overflow() {
    replay("01ffffffffffffffff3470", "ab".repeat(64).as_str());
}
