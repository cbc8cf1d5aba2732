//! Execution receipts.

use crate::error::VmError;
use smartcrowd_chain::Ether;
use smartcrowd_crypto::U256;

/// The outcome of one contract call or deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// `true` when execution halted via `STOP`/`RETURN`/`RETURNVAL`.
    pub success: bool,
    /// Gas consumed (including intrinsic gas).
    pub gas_used: u64,
    /// The gas fee charged to the caller.
    pub fee: Ether,
    /// The word returned by `RETURNVAL`, if any.
    pub return_value: Option<U256>,
    /// The revert code popped by `REVERT`, if execution reverted.
    pub revert_code: Option<U256>,
    /// Topics emitted by `LOG`, in order.
    pub logs: Vec<U256>,
    /// Execution fault, if the VM trapped (out of gas, bad jump, …).
    pub fault: Option<VmError>,
}

impl Receipt {
    /// A successful receipt with the given gas use and fee.
    pub fn success(gas_used: u64, fee: Ether) -> Self {
        Receipt {
            success: true,
            gas_used,
            fee,
            return_value: None,
            revert_code: None,
            logs: Vec::new(),
            fault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_constructor() {
        let r = Receipt::success(100, Ether::from_wei(100));
        assert!(r.success);
        assert!(r.revert_code.is_none());
        assert!(r.fault.is_none());
    }
}
