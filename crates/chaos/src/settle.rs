//! The conservation oracle: an audit of a node's actual contract state.
//!
//! Every node settles its own confirmed chain
//! ([`smartcrowd_core::settlement::Settlement`]): escrows are deployed,
//! funded and drained by the SCVM, not by a model. [`audit`] reads that
//! state back and checks that every wei of insurance is accounted for:
//!
//! ```text
//! Σ insurance of opened escrows == Σ payouts + Σ escrow contract balances
//! ```
//!
//! and that each paid wallet holds exactly what the payout list says it
//! was paid (workload wallets hold nothing else: nodes meter no fees). An
//! exhausted escrow is not a violation — the payout reverts and the
//! balance stays put.

use smartcrowd_chain::Ether;
use smartcrowd_core::settlement::{Payout, Settlement};
use smartcrowd_core::sra::SraId;
use smartcrowd_crypto::Address;
use std::collections::BTreeMap;

/// What a node's settlement holds; equal on every replica of one
/// confirmed chain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Audit {
    /// Total insurance deposited into opened escrows.
    pub deposits: Ether,
    /// Total paid to detectors.
    pub payouts: Ether,
    /// Balance of each escrow contract in the node's world state.
    pub escrow_balances: BTreeMap<SraId, Ether>,
    /// The node's payout list, in the order the payouts fired.
    pub payout_list: Vec<Payout>,
    /// Confirmed detailed reports whose escrow is not open; their payouts
    /// are pending, not lost, so they do not enter the identity.
    pub pending_reports: usize,
}

/// Why an audit failed — each variant is a conservation violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SettleError {
    /// `deposits != payouts + escrow balances`.
    Imbalance {
        /// Total insurance deposited.
        deposits: Ether,
        /// Total paid out.
        payouts: Ether,
        /// Sum of the escrow contract balances.
        remaining: Ether,
    },
    /// A wallet's balance is not the sum of the payouts made to it.
    CreditMismatch {
        /// The wallet's balance in the world state.
        credited: Ether,
        /// What the payout list says it was paid.
        payouts: Ether,
    },
}

impl std::fmt::Display for SettleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SettleError::Imbalance {
                deposits,
                payouts,
                remaining,
            } => write!(
                f,
                "conservation imbalance: deposits {deposits} != payouts {payouts} + remaining {remaining}"
            ),
            SettleError::CreditMismatch { credited, payouts } => write!(
                f,
                "wallet holds {credited} but was paid {payouts}"
            ),
        }
    }
}

impl std::error::Error for SettleError {}

/// Reads `settlement` back and checks the conservation identity and the
/// per-wallet cross-foot against its world state.
///
/// # Errors
///
/// [`SettleError::Imbalance`] or [`SettleError::CreditMismatch`].
pub fn audit(settlement: &Settlement) -> Result<Audit, SettleError> {
    let mut audit = Audit {
        payout_list: settlement.payouts().to_vec(),
        pending_reports: settlement.pending_reports(),
        ..Audit::default()
    };
    for (sra_id, entry) in settlement.escrows() {
        audit.deposits += entry.insurance;
        let balance = entry.escrow.balance(settlement.state());
        audit.escrow_balances.insert(*sra_id, balance);
    }
    let mut paid_to: BTreeMap<Address, Ether> = BTreeMap::new();
    for payout in &audit.payout_list {
        audit.payouts += payout.amount;
        *paid_to.entry(payout.wallet).or_insert(Ether::ZERO) += payout.amount;
    }
    let remaining: Ether = audit.escrow_balances.values().copied().sum();
    if audit.deposits != audit.payouts + remaining {
        return Err(SettleError::Imbalance {
            deposits: audit.deposits,
            payouts: audit.payouts,
            remaining,
        });
    }
    for (wallet, payouts) in paid_to {
        let credited = settlement.state().balance(&wallet);
        if credited != payouts {
            return Err(SettleError::CreditMismatch { credited, payouts });
        }
    }
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_chain::record::{Record, RecordKind};
    use smartcrowd_chain::{Block, ChainQuery, ChainStore, Difficulty};
    use smartcrowd_core::report::{create_report_pair, Findings};
    use smartcrowd_core::sra::Sra;
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_detect::vulnerability::VulnId;

    /// A settlement that opened one 1000-ETH escrow and paid one 25-ETH
    /// finding out of it, with the escrow's and the paid wallet's addresses.
    fn settled() -> (Settlement, Address, Address) {
        let provider = KeyPair::from_seed(b"provider");
        let detector = KeyPair::from_seed(b"detector");
        let (insurance, mu) = (Ether::from_ether(1000), Ether::from_ether(25));
        let sra = Sra::create(&provider, "fw", "1", [7; 32], "sim://fw", insurance, mu);
        let (_, detailed) =
            create_report_pair(&detector, *sra.id(), Findings::new(vec![VulnId(3)], "x"));
        let fee = Ether::from_milliether(11);
        let mut records = Some(vec![
            Record::signed(RecordKind::Sra, sra.encode(), fee, 0, &provider),
            Record::signed(
                RecordKind::DetailedReport,
                detailed.encode(),
                fee,
                1,
                &detector,
            ),
        ]);
        let mut store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        for _ in 0..8 {
            let parent = store.best_block().clone();
            let block = Block::assemble(
                &parent,
                records.take().unwrap_or_default(),
                parent.header().timestamp + 15,
                Difficulty::from_u64(1),
                provider.address(),
            );
            store.insert(block).unwrap();
        }
        let funding = [(provider.address(), Ether::from_ether(5000))];
        let mut settlement = Settlement::new(store.genesis_id(), &funding);
        settlement.advance(&store);
        let escrow = settlement.escrows()[sra.id()].escrow.address;
        (settlement, escrow, detailed.wallet())
    }

    #[test]
    fn actual_contract_state_balances() {
        let (settlement, escrow, _) = settled();
        let audit = audit(&settlement).unwrap();
        assert_eq!(audit.deposits, Ether::from_ether(1000));
        assert_eq!(audit.payouts, Ether::from_ether(25));
        assert_eq!(settlement.state().balance(&escrow), Ether::from_ether(975));
    }

    #[test]
    fn imbalance_is_detected() {
        let (mut settlement, escrow, _) = settled();
        settlement.allocate(escrow, Ether::from_ether(1));
        assert!(matches!(
            audit(&settlement),
            Err(SettleError::Imbalance { .. })
        ));
    }

    #[test]
    fn credit_mismatch_is_detected() {
        let (mut settlement, _, wallet) = settled();
        settlement.allocate(wallet, Ether::from_ether(1));
        assert!(matches!(
            audit(&settlement),
            Err(SettleError::CreditMismatch { .. })
        ));
    }
}
