//! A contract is statically verified once per deployment.
//!
//! `vm.verify.calls` is process-global, so this is the only test of its
//! binary: nothing else can run a verification while it counts.

use smartcrowd_chain::Ether;
use smartcrowd_crypto::Address;
use smartcrowd_telemetry::counter;
use smartcrowd_vm::asm::assemble;
use smartcrowd_vm::{CallContext, Vm, VmError, WorldState};

#[test]
fn one_deployment_is_one_verification() {
    let verifications = counter!("vm.verify.calls");
    let vm = Vm::default();
    let mut state = WorldState::new();
    let owner = Address::from_label("owner");
    state.credit(owner, Ether::from_ether(10));
    let code = assemble("PUSH 1\nPOP\nSTOP\n").unwrap();

    let before = verifications.get();
    vm.deploy(
        &mut state,
        &CallContext::new(owner, Address::ZERO),
        code.clone(),
    )
    .unwrap();
    assert_eq!(verifications.get() - before, 1, "Vm::deploy");

    // Rejected code is refused by that one verification, before the
    // deployment is priced: a caller who could not pay still gets the
    // verifier's error, and nothing is charged or consumed.
    let pauper = Address::from_label("pauper");
    let before = verifications.get();
    let err = vm
        .deploy(
            &mut state,
            &CallContext::new(pauper, Address::ZERO),
            vec![0xfe],
        )
        .unwrap_err();
    assert!(matches!(err, VmError::InvalidOpcode { .. }), "{err:?}");
    assert_eq!(verifications.get() - before, 1, "rejected Vm::deploy");
    assert!(state.account(&pauper).is_none());

    // The state-level hard gate verifies for itself.
    let before = verifications.get();
    state.deploy_contract(owner, code).unwrap();
    assert!(state.deploy_contract(owner, vec![0xfe]).is_err());
    assert_eq!(
        verifications.get() - before,
        2,
        "WorldState::deploy_contract"
    );
}
