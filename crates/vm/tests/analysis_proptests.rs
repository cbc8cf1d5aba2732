//! Differential property tests: the abstract interpreter versus the
//! concrete interpreter in `exec.rs`.
//!
//! Soundness is the contract: whatever the static analysis promises, the
//! runtime must not contradict.
//!
//! 1. **Gas-bound soundness on bounded loops** — generated countdown and
//!    count-up counter loops get a finite [`GasVerdict::Bounded`], and the
//!    gas the interpreter actually charges never exceeds that bound.
//! 2. **Clean paths stay clean** — programs the analysis finds no
//!    `error`-severity issue in execute without a concrete fault.
//! 3. **Totality** — `analyze` never panics, on garbage or on mutants.
//! 4. **Balance-flow soundness** — generated escrow-shaped programs get
//!    all-`Proved` conservation verdicts, their resolved transfer
//!    amounts evaluate to exactly what the interpreter moves, and
//!    mutants of the shipped escrow keep the safety report internally
//!    consistent.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::{Address, U256};
use smartcrowd_vm::analysis::{analyze, LoopBound, Severity};
use smartcrowd_vm::asm::assemble;
use smartcrowd_vm::exec::{address_to_word, CallContext, Vm};
use smartcrowd_vm::gas;
use smartcrowd_vm::state::WorldState;
use smartcrowd_vm::Receipt;

/// The shipped escrow listing (the mutation-totality target).
const ESCROW_SRC: &str = include_str!("../../core/contracts/sra_escrow.scvm");

/// Depth-neutral loop bodies: they leave the counter (the top of stack at
/// the header) untouched, so the trip-count pattern stays recognizable.
const BODIES: &[&str] = &[
    "",
    "CALLER\nPOP\n",
    "PUSH 5\nPUSH 6\nADD\nPOP\n",
    "PUSH 3\nISZERO\nPOP\n",
    "TIMESTAMP\nNUMBER\nMUL\nPOP\n",
    "PUSH 7\nPUSH 1\nSSTORE\n",
    "DUP 0\nPOP\n",
];

/// `PUSH n ; loop: body ; SUB 1 ; DUP ; JUMPI @loop` — counts down to 0.
fn countdown_program(n: u64, body: &str) -> String {
    format!("PUSH {n}\nloop:\nJUMPDEST\n{body}PUSH 1\nSUB\nDUP 0\nPUSH @loop\nJUMPI\nSTOP\n")
}

/// `PUSH 0 ; loop: body ; ADD 1 ; DUP ; LT limit ; JUMPI @loop` — counts
/// up while `i < limit`.
fn count_up_program(limit: u64, body: &str) -> String {
    format!(
        "PUSH 0\nloop:\nJUMPDEST\n{body}PUSH 1\nADD\nDUP 0\nPUSH {limit}\nLT\nPUSH @loop\nJUMPI\nSTOP\n"
    )
}

/// Plants `code` without the deploy gate and runs it with `calldata`,
/// returning the receipt plus the contract's wei balance before/after.
fn run_planted_with(code: Vec<u8>, calldata: &[u8]) -> (Receipt, u128, u128) {
    let mut state = WorldState::new();
    let caller = Address::from_label("caller");
    state.credit(caller, Ether::from_ether(1000));
    let contract = WorldState::contract_address(&caller, 0);
    state.account_mut(contract).code = code;
    state.credit(contract, Ether::from_ether(10));
    let before = state.balance(&contract).wei();
    let receipt = Vm::default()
        .call(
            &mut state,
            CallContext::new(caller, contract).with_gas_limit(2_000_000),
            calldata,
        )
        .expect("call dispatches");
    let after = state.balance(&contract).wei();
    (receipt, before, after)
}

/// Plants `code` without the deploy gate and runs it with empty calldata.
fn run_planted(code: Vec<u8>) -> Receipt {
    run_planted_with(code, &[]).0
}

/// Escrow-shaped straight-line program: pay `mu * calldata[0]` to the
/// caller, then optionally refund the full remaining balance (the legal
/// terminal drain).
fn escrow_shaped(mu: u64, drain: bool) -> String {
    let pay = format!("CALLER\nPUSH 0\nCALLDATALOAD\nPUSH {mu}\nMUL\nTRANSFER\n");
    if drain {
        format!("{pay}CALLER\nSELFBALANCE\nTRANSFER\nSTOP\n")
    } else {
        format!("{pay}STOP\n")
    }
}

/// Asserts the static verdict is finite and covers the concrete run.
fn assert_gas_sound(src: &str) -> Result<(), TestCaseError> {
    let code = assemble(src).expect("assembles");
    let a = analyze(&code).expect("verifies");
    let bound = a
        .gas
        .bound()
        .unwrap_or_else(|| panic!("loop must be bounded, got {}\n{src}", a.gas));
    for l in &a.loops {
        prop_assert!(
            matches!(l.bound, LoopBound::Bounded { .. }),
            "loop not bounded: {:?}\n{src}",
            l.bound
        );
    }
    let receipt = run_planted(code);
    prop_assert!(receipt.success, "fault: {:?}\n{src}", receipt.fault);
    prop_assert!(
        receipt.gas_used <= bound + gas::CALL_BASE_GAS,
        "runtime gas {} exceeds static bound {} + intrinsic {}\n{src}",
        receipt.gas_used,
        bound,
        gas::CALL_BASE_GAS
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Countdown loops: any start value, any depth-neutral body — the
    /// static bound is finite and covers the interpreter's actual gas.
    #[test]
    fn countdown_loop_bound_is_sound(n in 1u64..60, body in 0..BODIES.len()) {
        assert_gas_sound(&countdown_program(n, BODIES[body]))?;
    }

    /// Count-up loops with an `LT` guard, ditto.
    #[test]
    fn count_up_loop_bound_is_sound(limit in 1u64..60, body in 0..BODIES.len()) {
        assert_gas_sound(&count_up_program(limit, BODIES[body]))?;
    }

    /// Programs the analysis calls clean (no error-severity diagnostics)
    /// execute without a concrete fault on the actual path taken.
    #[test]
    fn clean_analysis_means_clean_execution(n in 1u64..40, body in 0..BODIES.len(), up in any::<bool>()) {
        let src = if up {
            count_up_program(n, BODIES[body])
        } else {
            countdown_program(n, BODIES[body])
        };
        let code = assemble(&src).expect("assembles");
        let a = analyze(&code).expect("verifies");
        prop_assert!(
            a.diagnostics.iter().all(|d| d.severity != Severity::Error),
            "unexpected error diagnostics: {:?}",
            a.diagnostics
        );
        let receipt = run_planted(code);
        prop_assert!(receipt.fault.is_none(), "fault: {:?}\n{src}", receipt.fault);
    }

    /// The whole pipeline is total on arbitrary byte soup: a typed
    /// `Ok`/`Err`, never a panic, and ranked diagnostics on success.
    #[test]
    fn analyze_total_on_garbage(code in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(a) = analyze(&code) {
            let sevs: Vec<Severity> = a.diagnostics.iter().map(|d| d.severity).collect();
            let mut sorted = sevs.clone();
            sorted.sort();
            prop_assert_eq!(sevs, sorted, "diagnostics must come ranked");
        }
    }

    /// Mutating a verified loop program never panics the analysis, and
    /// when the mutant still passes, its gas verdict stays internally
    /// consistent (a bounded verdict always yields a bound).
    #[test]
    fn analysis_total_under_mutation(
        n in 1u64..20,
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let mut code = assemble(&countdown_program(n, "")).expect("assembles");
        for (pos, byte) in &flips {
            let at = *pos as usize % code.len();
            code[at] = *byte;
        }
        if let Ok(a) = analyze(&code) {
            prop_assert_eq!(a.gas.bound().is_some(), a.gas.is_bounded());
        }
    }

    /// Escrow-shaped programs: conservation verdicts are all proved, the
    /// resolved payout expression evaluates to exactly `mu * n`, and the
    /// interpreter moves exactly the flows the analysis derived (plus
    /// the full remaining balance when the terminal drain is present).
    #[test]
    fn proved_conservation_matches_runtime_flows(
        mu in 0u64..1000,
        n in 0u64..1000,
        drain in any::<bool>(),
    ) {
        let src = escrow_shaped(mu, drain);
        let code = assemble(&src).expect("assembles");
        let a = analyze(&code).expect("verifies");
        let s = &a.safety;
        prop_assert!(s.leak.is_none(), "no leak in {src}");
        prop_assert!(s.conserves_escrow.is_proved(), "{src}");
        prop_assert!(s.bounded_payout.is_proved(), "{src}");
        prop_assert_eq!(s.transfers.len(), if drain { 2 } else { 1 });

        let calldata = U256::from_u64(n).to_be_bytes();
        let caller = Address::from_label("caller");
        let predicted = s.transfers[0]
            .amount
            .eval(&calldata, &address_to_word(&caller), &U256::ZERO, &|_| U256::ZERO)
            .expect("payout amount must be resolved");
        prop_assert_eq!(
            predicted,
            U256::from_u64(mu).wrapping_mul(&U256::from_u64(n)),
            "derived bound must be mu*n for {}", src
        );
        if drain {
            prop_assert!(s.transfers[1].drains, "{src}");
        }

        let (receipt, before, after) = run_planted_with(code, &calldata);
        prop_assert!(receipt.success, "fault: {:?}\n{src}", receipt.fault);
        let expected_out = if drain {
            before // payout plus the drain empties the account
        } else {
            (mu as u128) * (n as u128)
        };
        prop_assert_eq!(before - after, expected_out, "{}", src);
    }

    /// Byte-flipping the shipped escrow never panics the analyzer, and
    /// whenever a mutant still analyzes, the safety report stays
    /// internally consistent: a provable leak always refuses
    /// `ConservesEscrow` and always surfaces an error diagnostic.
    #[test]
    fn safety_analysis_total_on_escrow_mutants(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..6),
    ) {
        let mut code = assemble(ESCROW_SRC).expect("assembles");
        for (pos, byte) in &flips {
            let at = *pos as usize % code.len();
            code[at] = *byte;
        }
        if let Ok(a) = analyze(&code) {
            let s = &a.safety;
            if s.leak.is_some() {
                prop_assert!(!s.conserves_escrow.is_proved());
                prop_assert!(
                    a.diagnostics.iter().any(|d| d.severity == Severity::Error),
                    "a leak must surface as an error diagnostic"
                );
            }
        }
    }
}
