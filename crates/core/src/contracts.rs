//! The SmartCrowd smart contracts.
//!
//! The paper "implements SmartCrowd contracts with 350 lines of Solidity
//! … for simulating the process of both IoT system releases and automated
//! incentive allocations" (§VII). This module is that contract layer,
//! written in SCVM assembly:
//!
//! - [`SRA_ESCROW_ASM`] — the insuranced-release contract. The provider
//!   deploys it, funds it with the insurance `I_i` at initialization, and
//!   presets `μ`. Payouts are triggered by the consensus account (the
//!   outcome of record confirmation, §V-D), *not* by the provider, so a
//!   provider cannot repudiate incentives: the deposit "can be allocated to
//!   detectors as incentives, automatically".
//! - [`REPORT_REGISTRY_ASM`] — the on-chain report registry each detection
//!   report is metered through; its call gas is the detector cost `c` the
//!   paper measures at ≈0.011 ether (Fig. 6(b)).
//!
//! The measured deployment cost of the escrow (≈0.09–0.10 ether at the
//! default gas price) reproduces the paper's 0.095-ether SRA release cost.

use crate::error::CoreError;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::{Address, U256};
use smartcrowd_vm::asm::assemble;
use smartcrowd_vm::exec::{address_to_word, CallContext, Vm};
use smartcrowd_vm::{Receipt, WorldState};
use std::sync::OnceLock;

/// SCVM assembly of the SRA escrow contract, from
/// `contracts/sra_escrow.scvm` (kept as a standalone listing so
/// `scvm-lint` can analyze it in CI).
///
/// Storage: slot 0 = provider, slot 1 = μ (wei), slot 2 = vulnerabilities
/// paid, slot 4 = consensus trigger address. Selectors (calldata word 0):
/// 0 = init(μ, trigger), 1 = payout(wallet, n), 2 = refund().
pub const SRA_ESCROW_ASM: &str = include_str!("../contracts/sra_escrow.scvm");

/// SCVM assembly of the report registry, from
/// `contracts/report_registry.scvm`. Each submission stores the report
/// id, the submitting detector and the timestamp under a fresh sequence
/// number — three storage writes whose gas is the metered reporting cost.
/// Calldata: word 0 = report id.
pub const REPORT_REGISTRY_ASM: &str = include_str!("../contracts/report_registry.scvm");

/// Words of calldata, concatenated big-endian.
pub fn calldata(words: &[U256]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 32);
    for w in words {
        out.extend_from_slice(&w.to_be_bytes());
    }
    out
}

/// A deployed SRA escrow with its measured release cost.
#[derive(Debug, Clone)]
pub struct SraEscrow {
    /// The contract address.
    pub address: Address,
    /// Total gas fees the provider paid to release (deploy + init) — the
    /// paper's ≈0.095-ether `cp`.
    pub release_cost: Ether,
}

impl SraEscrow {
    /// Deploys and initializes the escrow: the provider pays the gas,
    /// funds the insurance as the init call value, presets `μ`, and names
    /// the consensus trigger account.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Vm`] when the provider cannot fund the deposit
    /// or gas.
    pub fn deploy(
        vm: &Vm,
        state: &mut WorldState,
        provider: Address,
        insurance: Ether,
        mu: Ether,
        trigger: Address,
        block: (u64, u64),
    ) -> Result<SraEscrow, CoreError> {
        // The listing is a constant, so it is assembled once per process.
        static CODE: OnceLock<Vec<u8>> = OnceLock::new();
        let code = CODE
            .get_or_init(|| assemble(SRA_ESCROW_ASM).expect("escrow contract assembles"))
            .clone();
        let ctx = CallContext::new(provider, Address::ZERO).with_block(block.0, block.1);
        let (address, deploy_receipt) = vm.deploy(state, &ctx, code)?;
        let init_data = calldata(&[
            U256::ZERO,
            U256::from_u128(mu.wei()),
            address_to_word(&trigger),
        ]);
        let init_ctx = CallContext::new(provider, address)
            .with_value(insurance)
            .with_block(block.0, block.1);
        let receipt = vm.call(state, init_ctx, &init_data)?;
        if !receipt.success {
            return Err(CoreError::PayoutFailed {
                reason: format!("escrow init failed: {:?}", receipt.fault),
            });
        }
        Ok(SraEscrow {
            address,
            release_cost: deploy_receipt.fee + receipt.fee,
        })
    }

    /// Triggers the automatic payout of `μ·n` to `wallet` (Eq. 7). Must be
    /// called from the consensus trigger account.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PayoutFailed`] when the contract reverts (wrong
    /// caller, empty escrow) and [`CoreError::Vm`] for pre-execution
    /// failures.
    pub fn payout(
        &self,
        vm: &Vm,
        state: &mut WorldState,
        trigger: Address,
        wallet: Address,
        n: u64,
        block: (u64, u64),
    ) -> Result<Receipt, CoreError> {
        let data = calldata(&[U256::ONE, address_to_word(&wallet), U256::from_u64(n)]);
        let ctx = CallContext::new(trigger, self.address).with_block(block.0, block.1);
        let receipt = vm.call(state, ctx, &data)?;
        if !receipt.success {
            return Err(CoreError::PayoutFailed {
                reason: format!(
                    "payout reverted (code {:?}, fault {:?})",
                    receipt.revert_code, receipt.fault
                ),
            });
        }
        Ok(receipt)
    }

    /// Refunds the remaining escrow to the provider (consensus-approved,
    /// e.g. after a clean detection window).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PayoutFailed`] when the contract reverts.
    pub fn refund(
        &self,
        vm: &Vm,
        state: &mut WorldState,
        trigger: Address,
        block: (u64, u64),
    ) -> Result<Receipt, CoreError> {
        let data = calldata(&[U256::from_u64(2)]);
        let ctx = CallContext::new(trigger, self.address).with_block(block.0, block.1);
        let receipt = vm.call(state, ctx, &data)?;
        if !receipt.success {
            return Err(CoreError::PayoutFailed {
                reason: format!("refund reverted: {:?}", receipt.fault),
            });
        }
        Ok(receipt)
    }

    /// The escrow's current balance (remaining insurance).
    pub fn balance(&self, state: &WorldState) -> Ether {
        state.balance(&self.address)
    }
}

/// The deployed report registry.
#[derive(Debug, Clone)]
pub struct ReportRegistry {
    /// The contract address.
    pub address: Address,
}

impl ReportRegistry {
    /// Deploys the registry (typically once, by the platform bootstrap).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Vm`] on deployment failure.
    pub fn deploy(vm: &Vm, state: &mut WorldState, deployer: Address) -> Result<Self, CoreError> {
        // The listing is a constant, so it is assembled once per process.
        static CODE: OnceLock<Vec<u8>> = OnceLock::new();
        let code = CODE
            .get_or_init(|| assemble(REPORT_REGISTRY_ASM).expect("registry contract assembles"))
            .clone();
        let ctx = CallContext::new(deployer, Address::ZERO);
        let (address, _) = vm.deploy(state, &ctx, code)?;
        Ok(ReportRegistry { address })
    }

    /// Submits a report id, returning the receipt whose fee is the
    /// detector's metered reporting cost `c` (Fig. 6(b)).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PayoutFailed`] when the call fails and
    /// [`CoreError::Vm`] for pre-execution failures.
    pub fn submit(
        &self,
        vm: &Vm,
        state: &mut WorldState,
        detector: Address,
        report_id: &[u8; 32],
        block: (u64, u64),
    ) -> Result<Receipt, CoreError> {
        let data = calldata(&[U256::from_be_bytes(report_id)]);
        let ctx = CallContext::new(detector, self.address).with_block(block.0, block.1);
        let receipt = vm.call(state, ctx, &data)?;
        if !receipt.success {
            return Err(CoreError::PayoutFailed {
                reason: format!("registry submit failed: {:?}", receipt.fault),
            });
        }
        Ok(receipt)
    }

    /// Number of reports registered so far.
    pub fn count(&self, state: &WorldState) -> u64 {
        state
            .storage_get(&self.address, &U256::from_u64(10))
            .low_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vm, WorldState, Address, Address, Address) {
        let vm = Vm::default();
        let mut state = WorldState::new();
        let provider = Address::from_label("provider");
        let trigger = Address::from_label("consensus");
        let detector = Address::from_label("detector-wallet");
        state.credit(provider, Ether::from_ether(2000));
        state.credit(trigger, Ether::from_ether(10));
        state.credit(detector, Ether::from_ether(10));
        (vm, state, provider, trigger, detector)
    }

    fn escrow(vm: &Vm, state: &mut WorldState, provider: Address, trigger: Address) -> SraEscrow {
        SraEscrow::deploy(
            vm,
            state,
            provider,
            Ether::from_ether(1000),
            Ether::from_ether(25),
            trigger,
            (1000, 1),
        )
        .unwrap()
    }

    /// Total vulnerabilities the escrow paid out so far (storage slot 2).
    fn paid_count(e: &SraEscrow, state: &WorldState) -> u64 {
        state.storage_get(&e.address, &U256::from_u64(2)).low_u64()
    }

    #[test]
    fn deploy_escrows_insurance() {
        let (vm, mut state, provider, trigger, _) = setup();
        let e = escrow(&vm, &mut state, provider, trigger);
        assert_eq!(e.balance(&state), Ether::from_ether(1000));
        assert_eq!(paid_count(&e, &state), 0);
        // Provider paid insurance + gas.
        assert!(state.balance(&provider) < Ether::from_ether(1000));
    }

    #[test]
    fn release_cost_matches_paper_magnitude() {
        // Paper §VII-A: "each IoT provider will consume around 0.095 ether
        // as the cost (or gas) for releasing an IoT system".
        let (vm, mut state, provider, trigger, _) = setup();
        let e = escrow(&vm, &mut state, provider, trigger);
        let cost = e.release_cost.as_f64();
        assert!(
            (0.07..=0.13).contains(&cost),
            "release cost {cost} ether should be ≈0.095"
        );
    }

    #[test]
    fn payout_is_automatic_and_exact() {
        let (vm, mut state, provider, trigger, detector) = setup();
        let e = escrow(&vm, &mut state, provider, trigger);
        let before = state.balance(&detector);
        // n = 3 vulnerabilities at μ = 25 → 75 ether.
        e.payout(&vm, &mut state, trigger, detector, 3, (1010, 2))
            .unwrap();
        assert_eq!(state.balance(&detector) - before, Ether::from_ether(75));
        assert_eq!(e.balance(&state), Ether::from_ether(925));
        assert_eq!(paid_count(&e, &state), 3);
    }

    #[test]
    fn provider_cannot_trigger_its_own_payout_path() {
        // Repudiation resistance works both ways: the provider can neither
        // block payouts nor fabricate them.
        let (vm, mut state, provider, trigger, detector) = setup();
        let e = escrow(&vm, &mut state, provider, trigger);
        let err = e
            .payout(&vm, &mut state, provider, detector, 1, (1010, 2))
            .unwrap_err();
        assert!(matches!(err, CoreError::PayoutFailed { .. }));
        assert_eq!(
            e.balance(&state),
            Ether::from_ether(1000),
            "escrow untouched"
        );
    }

    #[test]
    fn provider_cannot_self_refund() {
        let (vm, mut state, provider, trigger, _) = setup();
        let e = escrow(&vm, &mut state, provider, trigger);
        let err = e.refund(&vm, &mut state, provider, (1010, 2)).unwrap_err();
        assert!(matches!(err, CoreError::PayoutFailed { .. }));
        // Consensus-approved refund works and returns the escrow.
        let before = state.balance(&provider);
        e.refund(&vm, &mut state, trigger, (1020, 3)).unwrap();
        assert_eq!(state.balance(&provider) - before, Ether::from_ether(1000));
        assert_eq!(e.balance(&state), Ether::ZERO);
    }

    #[test]
    fn double_init_rejected() {
        let (vm, mut state, provider, trigger, _) = setup();
        let e = escrow(&vm, &mut state, provider, trigger);
        // A second init attempt (hijacking the provider slot) must revert.
        let attacker = Address::from_label("attacker");
        state.credit(attacker, Ether::from_ether(100));
        let data = calldata(&[
            U256::ZERO,
            U256::from_u128(Ether::from_ether(1).wei()),
            address_to_word(&attacker),
        ]);
        let ctx = CallContext::new(attacker, e.address);
        let receipt = vm.call(&mut state, ctx, &data).unwrap();
        assert!(!receipt.success);
        // Trigger unchanged: attacker still cannot pay out.
        let err = e
            .payout(&vm, &mut state, attacker, attacker, 40, (0, 0))
            .unwrap_err();
        assert!(matches!(err, CoreError::PayoutFailed { .. }));
    }

    #[test]
    fn payout_exhausting_escrow_reverts() {
        let (vm, mut state, provider, trigger, detector) = setup();
        let e = escrow(&vm, &mut state, provider, trigger);
        // 41 × 25 = 1025 > 1000: the transfer faults, nothing moves.
        let err = e
            .payout(&vm, &mut state, trigger, detector, 41, (0, 0))
            .unwrap_err();
        assert!(matches!(err, CoreError::PayoutFailed { .. }));
        assert_eq!(e.balance(&state), Ether::from_ether(1000));
        assert_eq!(
            paid_count(&e, &state),
            0,
            "count rolled back with the revert"
        );
        // Exactly-exhausting payout succeeds.
        e.payout(&vm, &mut state, trigger, detector, 40, (0, 0))
            .unwrap();
        assert_eq!(e.balance(&state), Ether::ZERO);
    }

    #[test]
    fn registry_meters_report_cost() {
        let (vm, mut state, provider, _, detector) = setup();
        let reg = ReportRegistry::deploy(&vm, &mut state, provider).unwrap();
        let receipt = reg
            .submit(&vm, &mut state, detector, &[7u8; 32], (1234, 5))
            .unwrap();
        // Paper Fig. 6(b): "each detection report can consume around 0.011
        // ether".
        let cost = receipt.fee.as_f64();
        assert!(
            (0.006..=0.016).contains(&cost),
            "report cost {cost} should be ≈0.011"
        );
        assert_eq!(reg.count(&state), 1);
    }

    #[test]
    fn registry_sequences_submissions() {
        let (vm, mut state, provider, _, detector) = setup();
        let reg = ReportRegistry::deploy(&vm, &mut state, provider).unwrap();
        for i in 0..5u8 {
            reg.submit(&vm, &mut state, detector, &[i; 32], (0, 0))
                .unwrap();
        }
        assert_eq!(reg.count(&state), 5);
        // Stored report ids land in distinct slots.
        let first = state.storage_get(&reg.address, &U256::from_u64(1000));
        let second = state.storage_get(&reg.address, &U256::from_u64(1001));
        assert_ne!(first, second);
    }

    #[test]
    fn contracts_assemble() {
        assert!(assemble(SRA_ESCROW_ASM).is_ok());
        assert!(assemble(REPORT_REGISTRY_ASM).is_ok());
    }

    #[test]
    fn contracts_have_finite_loop_aware_gas_bounds() {
        use smartcrowd_vm::analysis::{analyze, Severity};
        for (name, asm) in [
            ("sra_escrow", SRA_ESCROW_ASM),
            ("report_registry", REPORT_REGISTRY_ASM),
        ] {
            let code = assemble(asm).unwrap();
            let a = analyze(&code).unwrap();
            assert!(
                a.gas.bound().is_some(),
                "{name} must deploy with a finite worst-case gas bound, got {}",
                a.gas
            );
            // The shipped contracts are lint-clean: no dead code, no
            // provable div-by-zero / OOB memory, no unbounded loops.
            let worst = a.diagnostics.iter().map(|d| d.severity).min();
            assert!(
                worst.is_none() || worst > Some(Severity::Warning),
                "{name} has lint findings: {:?}",
                a.diagnostics
            );
        }
    }

    #[test]
    fn escrow_storage_summary_names_its_slots() {
        use smartcrowd_vm::analysis::analyze;
        let code = assemble(SRA_ESCROW_ASM).unwrap();
        let a = analyze(&code).unwrap();
        // Slots 0 (provider), 1 (mu), 2 (paid count), 4 (trigger).
        for slot in [0u64, 1, 2, 4] {
            let k = U256::from_u64(slot);
            assert!(
                a.storage.reads.contains(&k) || a.storage.writes.contains(&k),
                "slot {slot} missing from summary {:?}",
                a.storage
            );
        }
    }

    #[test]
    fn shipped_contracts_prove_every_economic_safety_verdict() {
        use smartcrowd_vm::analysis::analyze;
        for (name, asm) in [
            ("sra_escrow", SRA_ESCROW_ASM),
            ("report_registry", REPORT_REGISTRY_ASM),
        ] {
            let code = assemble(asm).unwrap();
            let a = analyze(&code).unwrap();
            let s = &a.safety;
            assert!(s.leak.is_none(), "{name}: {:?}", s.leak);
            assert!(s.conserves_escrow.is_proved(), "{name}: conserves-escrow");
            assert!(s.bounded_payout.is_proved(), "{name}: bounded-payout");
            assert!(
                s.no_unauthorized_flow.is_proved(),
                "{name}: no-unauthorized-flow"
            );
        }
        // The escrow's payout bound is the paper's per-report reward
        // expression: mu (slot 1) times the report count (calldata word
        // 2, byte offset 64).
        let code = assemble(SRA_ESCROW_ASM).unwrap();
        let a = analyze(&code).unwrap();
        let amounts: Vec<String> = a
            .safety
            .transfers
            .iter()
            .map(|t| t.amount.to_string())
            .collect();
        assert!(
            amounts.iter().any(|s| s == "(storage[1] * calldata[64])"),
            "payout bound must be mu*n, got {amounts:?}"
        );
    }
}
