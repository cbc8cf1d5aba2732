//! Native-vs-bytecode differential for the in-repo contracts.
//!
//! The SRA escrow and report registry ship as SCVM assembly
//! (`smartcrowd-core`). This module keeps straight-line Rust models of
//! both and drives a seeded random operation sequence against the
//! bytecode (through the real interpreter) and the model in lockstep,
//! comparing success flags, logs, storage and balances after every
//! operation. Any mismatch is a [`Violation::NativeDivergence`] — either
//! the interpreter, the assembler or the contract listing is wrong.
//!
//! Gas is priced at zero wei (the meter still runs) so fee flows cannot
//! leak into balance comparisons.
//!
//! The run also carries the sequence-level leg of the safety-verdict
//! oracle: both contracts must statically analyze to all-`Proved`
//! economic-safety verdicts before any operation executes, and a
//! deposit/outflow ledger over the escrow account asserts at every step
//! that cumulative outflows never exceed cumulative deposits — the
//! dynamic counterpart of the `ConservesEscrow` proof.

use crate::oracle::{PlantedBug, Violation};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::Ether;
use smartcrowd_core::contracts::{calldata, REPORT_REGISTRY_ASM, SRA_ESCROW_ASM};
use smartcrowd_crypto::{Address, U256};
use smartcrowd_vm::asm::assemble;
use smartcrowd_vm::exec::{address_to_word, word_to_address, CallContext, Vm};
use smartcrowd_vm::{analyze, WorldState};

/// The escrow model: plain-Rust mirror of `sra_escrow.scvm`.
///
/// Slots are kept as full 256-bit words because the bytecode compares
/// `CALLER` words against the stored trigger word with `EQ` — a trigger
/// word with dirty high bits can never match any caller.
#[derive(Debug, Clone, Default)]
struct NativeEscrow {
    provider: U256,
    mu: U256,
    paid: U256,
    trigger: U256,
}

/// One differential operation.
#[derive(Debug, Clone)]
enum DiffOp {
    Init {
        caller: Address,
        mu: U256,
        trigger: U256,
        value: Ether,
    },
    Payout {
        caller: Address,
        wallet: U256,
        n: U256,
    },
    Refund {
        caller: Address,
    },
    Submit {
        caller: Address,
        id: U256,
    },
}

impl DiffOp {
    fn name(&self) -> &'static str {
        match self {
            DiffOp::Init { .. } => "escrow.init",
            DiffOp::Payout { .. } => "escrow.payout",
            DiffOp::Refund { .. } => "escrow.refund",
            DiffOp::Submit { .. } => "registry.submit",
        }
    }
}

/// What the model predicts for one operation.
struct Predicted {
    success: bool,
    logs: Vec<U256>,
}

struct ModelWorld {
    escrow: NativeEscrow,
    registry_count: u64,
    /// Wei balances of every tracked account, mirrored exactly.
    balances: std::collections::BTreeMap<Address, u128>,
}

impl ModelWorld {
    fn balance(&self, a: &Address) -> u128 {
        *self.balances.get(a).unwrap_or(&0)
    }

    fn credit(&mut self, a: Address, wei: u128) {
        *self.balances.entry(a).or_insert(0) += wei;
    }

    fn transfer(&mut self, from: Address, to: Address, wei: u128) -> bool {
        if self.balance(&from) < wei {
            return false;
        }
        *self.balances.entry(from).or_insert(0) -= wei;
        *self.balances.entry(to).or_insert(0) += wei;
        true
    }

    /// Applies `op`, mutating the model only when the operation
    /// succeeds (mirroring revert/fault rollback).
    fn apply(
        &mut self,
        op: &DiffOp,
        escrow_addr: Address,
        planted: Option<PlantedBug>,
    ) -> Predicted {
        match op {
            DiffOp::Init {
                caller,
                mu,
                trigger,
                value,
            } => {
                // Call value transfers before execution and survives
                // only on success.
                if !self.escrow.provider.is_zero() {
                    return Predicted {
                        success: false,
                        logs: vec![],
                    };
                }
                self.credit(escrow_addr, value.wei());
                self.balances
                    .entry(*caller)
                    .and_modify(|b| *b -= value.wei());
                self.escrow.provider = address_to_word(caller);
                self.escrow.mu = *mu;
                self.escrow.trigger = *trigger;
                Predicted {
                    success: true,
                    logs: vec![U256::from_u64(100)],
                }
            }
            DiffOp::Payout { caller, wallet, n } => {
                if address_to_word(caller) != self.escrow.trigger {
                    return Predicted {
                        success: false,
                        logs: vec![],
                    };
                }
                // Bytecode: amount = mu * n (wrapping 256-bit), paid += n
                // (wrapping), then TRANSFER of amount's low 128 bits.
                let amount = self.escrow.mu.wrapping_mul(n);
                let mut wei = amount.low_u128();
                if planted == Some(PlantedBug::EscrowPayoutDrift) {
                    wei = wei.wrapping_add(1);
                }
                let to = word_to_address(wallet);
                if !self.transfer(escrow_addr, to, wei) {
                    // InsufficientBalance fault: full rollback.
                    return Predicted {
                        success: false,
                        logs: vec![],
                    };
                }
                self.escrow.paid = self.escrow.paid.wrapping_add(n);
                Predicted {
                    success: true,
                    logs: vec![U256::from_u64(200)],
                }
            }
            DiffOp::Refund { caller } => {
                if address_to_word(caller) != self.escrow.trigger {
                    return Predicted {
                        success: false,
                        logs: vec![],
                    };
                }
                let provider = word_to_address(&self.escrow.provider);
                let all = self.balance(&escrow_addr);
                // SELFBALANCE covers the whole balance: never overdraws.
                self.transfer(escrow_addr, provider, all);
                Predicted {
                    success: true,
                    logs: vec![U256::from_u64(300)],
                }
            }
            DiffOp::Submit { .. } => {
                self.registry_count += 1;
                Predicted {
                    success: true,
                    logs: vec![],
                }
            }
        }
    }
}

fn zero_fee_ctx(caller: Address, contract: Address) -> CallContext {
    let mut ctx = CallContext::new(caller, contract);
    ctx.gas_price_wei = 0;
    ctx
}

fn mismatch(op: &DiffOp, detail: String) -> Violation {
    Violation::NativeDivergence {
        op: op.name().to_string(),
        detail,
    }
}

/// Static leg of the safety-verdict oracle: a shipped contract whose
/// balance-flow analysis is not all-`Proved` (or carries a provable
/// leak) is itself a violation — the dynamic ledger below assumes the
/// proofs hold.
fn assert_all_proved(name: &str, code: &[u8]) -> Result<(), Violation> {
    let analysis = analyze(code).map_err(|e| Violation::SafetyVerdict {
        claim: "all-proved".into(),
        detail: format!("{name} failed to analyze: {e}"),
    })?;
    let s = &analysis.safety;
    let refused = [
        ("conserves-escrow", &s.conserves_escrow),
        ("bounded-payout", &s.bounded_payout),
        ("no-unauthorized-flow", &s.no_unauthorized_flow),
    ]
    .into_iter()
    .find(|(_, v)| !v.is_proved());
    if let Some((label, verdict)) = refused {
        return Err(Violation::SafetyVerdict {
            claim: "all-proved".into(),
            detail: format!("{name}: {label} was not proved ({verdict})"),
        });
    }
    if let Some(leak) = &s.leak {
        return Err(Violation::SafetyVerdict {
            claim: "all-proved".into(),
            detail: format!("{name}: provable escrow leak at pc {}", leak.pc),
        });
    }
    Ok(())
}

/// Stats from a clean differential run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffStats {
    /// Operations executed and compared.
    pub ops: u64,
    /// How many succeeded on both sides.
    pub succeeded: u64,
}

/// Runs `ops` random operations against the escrow + registry bytecode
/// and the native models in lockstep.
///
/// # Errors
///
/// Returns the first [`Violation::NativeDivergence`] encountered.
pub fn differential(
    seed: u64,
    ops: u64,
    planted: Option<PlantedBug>,
) -> Result<DiffStats, Violation> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed_d1ff);
    let vm = Vm::default();
    let mut state = WorldState::new();

    let actors: Vec<Address> = ["alice", "bob", "carol", "trudy"]
        .iter()
        .map(|l| Address::from_label(l))
        .collect();
    let mut model = ModelWorld {
        escrow: NativeEscrow::default(),
        registry_count: 0,
        balances: std::collections::BTreeMap::new(),
    };
    for a in &actors {
        state.credit(*a, Ether::from_ether(1000));
        model.credit(*a, Ether::from_ether(1000).wei());
    }

    let deployer = actors[0];
    let escrow_code = assemble(SRA_ESCROW_ASM).map_err(|e| Violation::NativeDivergence {
        op: "escrow.deploy".into(),
        detail: format!("assembly failed: {e}"),
    })?;
    let registry_code = assemble(REPORT_REGISTRY_ASM).map_err(|e| Violation::NativeDivergence {
        op: "registry.deploy".into(),
        detail: format!("assembly failed: {e}"),
    })?;
    assert_all_proved("escrow", &escrow_code)?;
    assert_all_proved("registry", &registry_code)?;
    let (escrow_addr, _) = vm
        .deploy(
            &mut state,
            &zero_fee_ctx(deployer, Address::ZERO),
            escrow_code,
        )
        .map_err(|e| Violation::NativeDivergence {
            op: "escrow.deploy".into(),
            detail: format!("deploy failed: {e}"),
        })?;
    let (registry_addr, _) = vm
        .deploy(
            &mut state,
            &zero_fee_ctx(deployer, Address::ZERO),
            registry_code,
        )
        .map_err(|e| Violation::NativeDivergence {
            op: "registry.deploy".into(),
            detail: format!("deploy failed: {e}"),
        })?;

    let mut stats = DiffStats::default();
    // Escrow conservation ledger: the `ConservesEscrow` proof promises
    // the contract never pays out more than was deposited into it.
    let mut deposited: u128 = 0;
    let mut outflow: u128 = 0;
    for _ in 0..ops {
        let caller = actors[rng.next_below(actors.len() as u64) as usize];
        let op = match rng.next_below(8) {
            0 | 1 => DiffOp::Init {
                caller,
                mu: U256::from_u128(rng.next_below(Ether::from_ether(2).wei() as u64) as u128),
                trigger: if rng.next_bool(0.8) {
                    address_to_word(&actors[rng.next_below(actors.len() as u64) as usize])
                } else {
                    // Dirty high bits: can never equal a caller word.
                    U256::from_limbs([rng.next_u64(), rng.next_u64(), 1, 0])
                },
                value: Ether::from_wei(rng.next_below(Ether::from_ether(10).wei() as u64) as u128),
            },
            2..=4 => DiffOp::Payout {
                caller,
                wallet: address_to_word(&actors[rng.next_below(actors.len() as u64) as usize]),
                n: if rng.next_bool(0.9) {
                    U256::from_u64(rng.next_below(20))
                } else {
                    // Overflow probe for the wrapping mu*n path.
                    U256::MAX
                },
            },
            5 => DiffOp::Refund { caller },
            _ => DiffOp::Submit {
                caller,
                id: U256::from_u64(rng.next_u64()),
            },
        };

        let (contract, data) = match &op {
            DiffOp::Init { mu, trigger, .. } => {
                (escrow_addr, calldata(&[U256::ZERO, *mu, *trigger]))
            }
            DiffOp::Payout { wallet, n, .. } => (escrow_addr, calldata(&[U256::ONE, *wallet, *n])),
            DiffOp::Refund { .. } => (escrow_addr, calldata(&[U256::from_u64(2)])),
            DiffOp::Submit { id, .. } => (registry_addr, calldata(&[*id])),
        };
        let mut ctx = zero_fee_ctx(caller, contract);
        if let DiffOp::Init { value, .. } = &op {
            ctx = ctx.with_value(*value);
        }
        let escrow_before = state.balance(&escrow_addr).wei();
        let receipt = vm
            .call(&mut state, ctx, &data)
            .map_err(|e| mismatch(&op, format!("pre-execution error: {e}")))?;
        let escrow_after = state.balance(&escrow_addr).wei();
        if escrow_after >= escrow_before {
            deposited += escrow_after - escrow_before;
        } else {
            outflow += escrow_before - escrow_after;
        }
        if outflow > deposited {
            return Err(Violation::SafetyVerdict {
                claim: "conserves-escrow".into(),
                detail: format!(
                    "escrow outflow {outflow} wei exceeds cumulative deposits \
                     {deposited} wei after {}",
                    op.name()
                ),
            });
        }
        let predicted = model.apply(&op, escrow_addr, planted);

        stats.ops += 1;
        if receipt.success {
            stats.succeeded += 1;
        }
        if receipt.success != predicted.success {
            return Err(mismatch(
                &op,
                format!(
                    "success: vm={} model={} (fault {:?})",
                    receipt.success, predicted.success, receipt.fault
                ),
            ));
        }
        if receipt.logs != predicted.logs {
            return Err(mismatch(
                &op,
                format!("logs: vm={:?} model={:?}", receipt.logs, predicted.logs),
            ));
        }
        // Storage comparison (escrow slots 0/1/2/4, registry count).
        for (slot, want) in [
            (0u64, model.escrow.provider),
            (1, model.escrow.mu),
            (2, model.escrow.paid),
            (4, model.escrow.trigger),
        ] {
            let got = state.storage_get(&escrow_addr, &U256::from_u64(slot));
            if got != want {
                return Err(mismatch(
                    &op,
                    format!("escrow slot {slot}: vm={got:?} model={want:?}"),
                ));
            }
        }
        let got_count = state
            .storage_get(&registry_addr, &U256::from_u64(10))
            .low_u64();
        if got_count != model.registry_count {
            return Err(mismatch(
                &op,
                format!(
                    "registry count: vm={got_count} model={}",
                    model.registry_count
                ),
            ));
        }
        if let DiffOp::Submit { caller, id } = &op {
            let seq = model.registry_count - 1;
            let got_id = state.storage_get(&registry_addr, &U256::from_u64(1000 + seq));
            if got_id != *id {
                return Err(mismatch(
                    &op,
                    format!("report id at seq {seq}: vm={got_id:?} model={id:?}"),
                ));
            }
            let got_caller = state.storage_get(&registry_addr, &U256::from_u64(2000 + seq));
            if got_caller != address_to_word(caller) {
                return Err(mismatch(
                    &op,
                    format!("report submitter at seq {seq}: vm={got_caller:?}"),
                ));
            }
        }
        // Balance comparison across every tracked account.
        for a in actors.iter().chain([&escrow_addr, &registry_addr]) {
            let got = state.balance(a).wei();
            let want = model.balance(a);
            if got != want {
                return Err(mismatch(
                    &op,
                    format!("balance of {a}: vm={got} model={want}"),
                ));
            }
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_models_agree_with_bytecode() {
        for seed in 0..4 {
            let stats = differential(seed, 60, None).expect("no divergence");
            assert_eq!(stats.ops, 60);
            assert!(stats.succeeded > 0, "some ops should succeed");
        }
    }

    #[test]
    fn planted_model_drift_is_caught() {
        // With the one-wei payout drift planted, some seed must diverge
        // on an escrow.payout balance comparison.
        let caught = (0..8).any(|seed| {
            matches!(
                differential(seed, 60, Some(PlantedBug::EscrowPayoutDrift)),
                Err(Violation::NativeDivergence { .. })
            )
        });
        assert!(caught, "payout drift must diverge on some seed");
    }

    #[test]
    fn differential_is_deterministic() {
        let a = differential(42, 40, None).expect("clean");
        let b = differential(42, 40, None).expect("clean");
        assert_eq!(a.succeeded, b.succeeded);
    }
}
