//! Property-based tests for the SCVM.
//!
//! The central safety property: the interpreter never panics, never loops
//! forever, and never mints or destroys currency, for *arbitrary* bytecode
//! — malformed contracts must fail closed.

use proptest::prelude::*;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::Address;
use smartcrowd_vm::asm::assemble;
use smartcrowd_vm::exec::{CallContext, Vm};
use smartcrowd_vm::isa::Op;
use smartcrowd_vm::state::WorldState;

/// Arbitrary (usually invalid) bytecode.
fn arb_code() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..256)
}

/// Bytecode built from valid opcodes with well-formed immediates (may
/// still fault at runtime: stack underflow, bad jumps, out of gas).
fn arb_valid_structure() -> impl Strategy<Value = Vec<u8>> {
    let op = prop_oneof![
        Just(Op::Stop),
        Just(Op::Pop),
        Just(Op::Add),
        Just(Op::Sub),
        Just(Op::Mul),
        Just(Op::Div),
        Just(Op::Mod),
        Just(Op::Lt),
        Just(Op::Gt),
        Just(Op::Eq),
        Just(Op::IsZero),
        Just(Op::Not),
        Just(Op::Caller),
        Just(Op::CallValue),
        Just(Op::Timestamp),
        Just(Op::SelfBalance),
        Just(Op::SLoad),
        Just(Op::SStore),
        Just(Op::MLoad),
        Just(Op::MStore),
        Just(Op::Jump),
        Just(Op::JumpI),
        Just(Op::JumpDest),
        Just(Op::ReturnVal),
        Just(Op::Revert),
    ];
    proptest::collection::vec(
        prop_oneof![
            op.prop_map(|o| vec![o as u8]),
            any::<u64>().prop_map(|v| {
                let mut b = vec![Op::Push8 as u8];
                b.extend_from_slice(&v.to_be_bytes());
                b
            }),
        ],
        0..64,
    )
    .prop_map(|chunks| chunks.concat())
}

/// Plants `code` without going through the deploy-time verifier, which
/// would reject most generated programs. These properties are about the
/// *interpreter's* fail-closed behaviour on arbitrary bytecode.
fn plant(state: &mut WorldState, owner: Address, code: Vec<u8>) -> Address {
    let contract = WorldState::contract_address(&owner, 0);
    state.account_mut(contract).code = code;
    contract
}

fn run(code: Vec<u8>) -> Result<smartcrowd_vm::Receipt, smartcrowd_vm::VmError> {
    let mut state = WorldState::new();
    let caller = Address::from_label("caller");
    state.credit(caller, Ether::from_ether(1000));
    let contract = plant(&mut state, caller, code);
    state.credit(contract, Ether::from_ether(10));
    let vm = Vm::default().with_step_limit(20_000);
    vm.call(
        &mut state,
        CallContext::new(caller, contract).with_gas_limit(200_000),
        &[1, 2, 3, 4],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interpreter_never_panics_on_garbage(code in arb_code()) {
        // Any outcome is fine — Err or a faulted receipt — but no panic,
        // no hang.
        let _ = run(code);
    }

    #[test]
    fn interpreter_never_panics_on_structured_code(code in arb_valid_structure()) {
        let _ = run(code);
    }

    #[test]
    fn gas_never_exceeds_limit(code in arb_valid_structure()) {
        if let Ok(receipt) = run(code) {
            prop_assert!(receipt.gas_used <= 200_000);
        }
    }

    #[test]
    fn currency_is_conserved(code in arb_valid_structure()) {
        let mut state = WorldState::new();
        let caller = Address::from_label("caller");
        state.credit(caller, Ether::from_ether(1000));
        let contract = plant(&mut state, caller, code);
        state.credit(contract, Ether::from_ether(10));
        let supply_before = state.total_supply();
        let vm = Vm::default().with_step_limit(20_000);
        let _ = vm.call(
            &mut state,
            CallContext::new(caller, contract).with_gas_limit(200_000),
            &[],
        );
        // Fees move to the collector; nothing is minted or burned.
        prop_assert_eq!(state.total_supply(), supply_before);
    }

    #[test]
    fn assembler_emits_decodable_code(
        values in proptest::collection::vec(any::<u32>(), 1..20)
    ) {
        // A generated straight-line program assembles and runs to success.
        let mut src = String::new();
        for v in &values {
            src.push_str(&format!("PUSH {v}\n"));
        }
        for _ in &values {
            src.push_str("POP\n");
        }
        src.push_str("STOP\n");
        let code = assemble(&src).unwrap();
        let receipt = run(code).unwrap();
        prop_assert!(receipt.success, "fault: {:?}", receipt.fault);
    }

    #[test]
    fn arithmetic_program_matches_rust(a in any::<u32>(), b in 1u32..u32::MAX) {
        let src = format!("PUSH {a}\nPUSH {b}\nDIV\nRETURNVAL\n");
        let receipt = run(assemble(&src).unwrap()).unwrap();
        prop_assert_eq!(
            receipt.return_value.unwrap().low_u64(),
            (a / b) as u64
        );
        let src = format!("PUSH {a}\nPUSH {b}\nMOD\nRETURNVAL\n");
        let receipt = run(assemble(&src).unwrap()).unwrap();
        prop_assert_eq!(
            receipt.return_value.unwrap().low_u64(),
            (a % b) as u64
        );
    }

    #[test]
    fn storage_reads_back_what_was_written(key in any::<u32>(), value in any::<u32>()) {
        let src = format!(
            "PUSH {value}\nPUSH {key}\nSSTORE\nPUSH {key}\nSLOAD\nRETURNVAL\n"
        );
        let receipt = run(assemble(&src).unwrap()).unwrap();
        prop_assert_eq!(receipt.return_value.unwrap().low_u64(), value as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The journal-based rollback must be observationally identical to the
    /// clone-based snapshot/restore it replaced, for arbitrary operation
    /// sequences.
    #[test]
    fn journal_rollback_equals_clone_restore(
        ops in proptest::collection::vec((0u8..4, 0u8..4, any::<u32>()), 0..40)
    ) {
        use smartcrowd_crypto::U256;
        let mut state = WorldState::new();
        let accounts: Vec<Address> =
            (0..4).map(|i| Address::from_label(&format!("acct-{i}"))).collect();
        for a in &accounts {
            state.credit(*a, Ether::from_ether(100));
        }
        let reference = state.clone();

        state.begin_transaction();
        for (op, who, value) in &ops {
            let a = accounts[*who as usize % accounts.len()];
            let b = accounts[(*who as usize + 1) % accounts.len()];
            match op % 4 {
                0 => state.credit(a, Ether::from_wei(*value as u128)),
                1 => {
                    let _ = state.debit(a, Ether::from_wei(*value as u128));
                }
                2 => {
                    let _ = state.transfer(a, b, Ether::from_wei(*value as u128));
                }
                _ => {
                    state.storage_set(
                        a,
                        U256::from_u64(*value as u64 % 8),
                        U256::from_u64(*value as u64),
                    );
                }
            }
        }
        state.rollback();

        for a in &accounts {
            prop_assert_eq!(state.balance(a), reference.balance(a));
            for k in 0..8u64 {
                prop_assert_eq!(
                    state.storage_get(a, &U256::from_u64(k)),
                    reference.storage_get(a, &U256::from_u64(k))
                );
            }
        }
        prop_assert_eq!(state.total_supply(), reference.total_supply());
    }
}
