//! Gas schedule and pricing.
//!
//! Gas makes contract interaction costly, which is load-bearing for the
//! incentive analysis: the detector's reporting cost `c` (Eq. 10) and the
//! provider's deployment cost `cp_i` (Eq. 9) are gas fees. The schedule is
//! EVM-inspired; `DEFAULT_GAS_PRICE_WEI` is calibrated so the measured
//! costs land where the paper reports them — ≈0.095 ether to deploy an SRA
//! contract and ≈0.011 ether to submit a detection report (§VII).

use crate::isa::Op;
use smartcrowd_chain::Ether;

/// Gas price in wei per gas unit (1 µether/gas). At this price the
/// SmartCrowd SRA contract deployment (~95 k gas) costs ≈0.095 ether and a
/// report submission (~11 k gas) ≈0.011 ether, matching §VII.
pub(crate) const DEFAULT_GAS_PRICE_WEI: u128 = 1_000_000_000_000;

/// Base (intrinsic) gas of any call transaction.
pub const CALL_BASE_GAS: u64 = 2_100;

/// Base gas of a contract deployment (calibrated so the SmartCrowd SRA
/// escrow's deploy+init lands at the paper's ≈0.095-ether release cost).
pub(crate) const DEPLOY_BASE_GAS: u64 = 22_000;

/// Gas per byte of deployed code.
pub(crate) const DEPLOY_BYTE_GAS: u64 = 200;

/// Gas per byte of calldata.
pub(crate) const CALLDATA_BYTE_GAS: u64 = 16;

/// Default gas limit per call.
pub const DEFAULT_GAS_LIMIT: u64 = 2_000_000;

/// Cost of a storage write to a fresh slot.
pub(crate) const SSTORE_NEW_GAS: u64 = 2_000;

/// Cost of overwriting an existing slot.
pub(crate) const SSTORE_UPDATE_GAS: u64 = 500;

/// Cost of a `TRANSFER` payout.
pub(crate) const TRANSFER_GAS: u64 = 900;

/// Converts a gas amount to wei at a given price.
pub(crate) fn gas_to_ether(gas: u64, gas_price_wei: u128) -> Ether {
    Ether::from_wei(gas as u128 * gas_price_wei)
}

/// Static gas cost of one opcode (dynamic components — storage, transfer,
/// keccak length — are charged separately by the interpreter).
pub(crate) fn static_cost(op: Op) -> u64 {
    match op {
        Op::Stop | Op::Return | Op::JumpDest => 1,
        Op::Push8 | Op::Push32 | Op::Pop | Op::Dup | Op::Swap => 3,
        Op::Add
        | Op::Sub
        | Op::Lt
        | Op::Gt
        | Op::Eq
        | Op::IsZero
        | Op::And
        | Op::Or
        | Op::Xor
        | Op::Not
        | Op::Min => 3,
        Op::Mul | Op::Div | Op::Mod => 5,
        Op::Keccak => 30,
        Op::EcRecover => 3_000, // mirrors the EVM ecrecover precompile
        Op::SelfAddr
        | Op::Caller
        | Op::CallValue
        | Op::CallDataSize
        | Op::Timestamp
        | Op::Number
        | Op::SelfBalance => 2,
        Op::CallDataLoad | Op::MLoad | Op::MStore => 3,
        Op::Balance => 100,
        Op::SLoad => 100,
        Op::SStore => 0, // fully dynamic
        Op::Jump => 8,
        Op::JumpI => 10,
        Op::Transfer => 0, // fully dynamic
        Op::Log => 375,
        Op::ReturnVal => 3,
        Op::Revert => 3,
    }
}

/// Intrinsic gas of a call with `calldata_len` bytes of input.
pub fn call_intrinsic_gas(calldata_len: usize) -> u64 {
    CALL_BASE_GAS + CALLDATA_BYTE_GAS * calldata_len as u64
}

/// Intrinsic gas of deploying `code_len` bytes.
pub(crate) fn deploy_intrinsic_gas(code_len: usize) -> u64 {
    DEPLOY_BASE_GAS + DEPLOY_BYTE_GAS * code_len as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gas_price_calibration() {
        // ~95k gas at the default price ≈ 0.095 ether (paper §VII-A).
        let cost = gas_to_ether(95_000, DEFAULT_GAS_PRICE_WEI);
        assert_eq!(cost, Ether::from_milliether(95));
        // ~11k gas ≈ 0.011 ether (paper §VII-B, Fig. 6(b)).
        let cost = gas_to_ether(11_000, DEFAULT_GAS_PRICE_WEI);
        assert_eq!(cost, Ether::from_milliether(11));
    }

    #[test]
    fn intrinsic_gas_scales() {
        assert_eq!(call_intrinsic_gas(0), CALL_BASE_GAS);
        assert_eq!(call_intrinsic_gas(100), CALL_BASE_GAS + 1600);
        assert!(deploy_intrinsic_gas(350) > deploy_intrinsic_gas(10));
    }

    #[test]
    fn every_op_has_a_cost() {
        // No opcode may be free unless its cost is charged dynamically.
        for b in 0u8..=0xff {
            if let Ok(op) = Op::from_byte(b) {
                let c = static_cost(op);
                assert!(
                    c > 0 || matches!(op, Op::SStore | Op::Transfer),
                    "{op:?} is free and not dynamically charged"
                );
            }
        }
    }
}
