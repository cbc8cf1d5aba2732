//! The conservation oracle: an audit of a node's actual contract state.
//!
//! Every node settles its own confirmed chain
//! ([`smartcrowd_core::settlement::Settlement`]): escrows are deployed,
//! funded, paid out and — at the end of the detection window — refunded
//! by the SCVM, not by a model. [`audit`] reads that state back and checks
//! that every wei of insurance is accounted for:
//!
//! ```text
//! Σ insurance of opened escrows == Σ payouts + Σ refunds + Σ escrow contract balances
//! total supply == genesis allocation + one block reward per applied block
//! ```
//!
//! and that each paid wallet holds exactly what the payout list says it
//! was paid, less the record fees ψ and the registry gas the fold charged
//! it (workload wallets are allocated nothing and mine nothing). An
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
    /// Total returned to providers when detection windows closed.
    pub refunds: Ether,
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
    /// `deposits != payouts + refunds + escrow balances`.
    Imbalance {
        /// Total insurance deposited.
        deposits: Ether,
        /// Total paid out.
        payouts: Ether,
        /// Total refunded.
        refunds: Ether,
        /// Sum of the escrow contract balances.
        remaining: Ether,
    },
    /// A wallet's balance is not the sum of the payouts made to it less
    /// what the fold charged it.
    CreditMismatch {
        /// The wallet's balance in the world state.
        credited: Ether,
        /// What the payout list says it was paid.
        payouts: Ether,
        /// Fees and registry gas the fold charged it.
        charged: Ether,
    },
    /// The world state holds more or less currency than the allocation
    /// and the block rewards of the applied blocks.
    Supply {
        /// Total balance of the world state.
        supply: Ether,
        /// Genesis allocation + rewards.
        accounted: Ether,
    },
}

impl std::fmt::Display for SettleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SettleError::Imbalance {
                deposits,
                payouts,
                refunds,
                remaining,
            } => write!(
                f,
                "conservation imbalance: deposits {deposits} != payouts {payouts} + refunds {refunds} + remaining {remaining}"
            ),
            SettleError::CreditMismatch {
                credited,
                payouts,
                charged,
            } => write!(
                f,
                "wallet holds {credited} but was paid {payouts} and charged {charged}"
            ),
            SettleError::Supply { supply, accounted } => write!(
                f,
                "supply {supply} != allocation + block rewards {accounted}"
            ),
        }
    }
}

impl std::error::Error for SettleError {}

/// Checks a [`Settlement::audit_supply`] pair.
fn check_supply((supply, accounted): (Ether, Ether)) -> Result<(), SettleError> {
    if supply == accounted {
        Ok(())
    } else {
        Err(SettleError::Supply { supply, accounted })
    }
}

/// Checks the conservation identity of an [`Audit`].
fn check_conservation(audit: &Audit) -> Result<(), SettleError> {
    let remaining: Ether = audit.escrow_balances.values().copied().sum();
    if audit.deposits == audit.payouts + audit.refunds + remaining {
        Ok(())
    } else {
        Err(SettleError::Imbalance {
            deposits: audit.deposits,
            payouts: audit.payouts,
            refunds: audit.refunds,
            remaining,
        })
    }
}

/// Reads `settlement` back and checks the conservation identity, the
/// supply identity and the per-wallet cross-foot against its world state.
///
/// # Errors
///
/// [`SettleError::Imbalance`], [`SettleError::Supply`] or
/// [`SettleError::CreditMismatch`].
pub fn audit(settlement: &Settlement) -> Result<Audit, SettleError> {
    let mut audit = Audit {
        payout_list: settlement.payouts().to_vec(),
        pending_reports: settlement.pending_reports(),
        ..Audit::default()
    };
    for (sra_id, entry) in settlement.escrows() {
        audit.deposits += entry.insurance;
        audit.refunds += entry.refunded.unwrap_or_default();
        let balance = entry.escrow.balance(settlement.state());
        audit.escrow_balances.insert(*sra_id, balance);
    }
    let mut paid_to: BTreeMap<Address, Ether> = BTreeMap::new();
    for payout in &audit.payout_list {
        audit.payouts += payout.amount;
        *paid_to.entry(payout.wallet).or_insert(Ether::ZERO) += payout.amount;
    }
    check_conservation(&audit)?;
    check_supply(settlement.audit_supply())?;
    for (wallet, payouts) in paid_to {
        let credited = settlement.state().balance(&wallet);
        let tally = settlement.tally(&wallet);
        let charged = tally.fees + tally.reporting_gas;
        if credited + charged != payouts {
            return Err(SettleError::CreditMismatch {
                credited,
                payouts,
                charged,
            });
        }
    }
    Ok(audit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_chain::record::{Record, RecordKind};
    use smartcrowd_chain::{Block, ChainQuery, ChainStore, Difficulty, CONFIRMATION_DEPTH};
    use smartcrowd_core::economics::DETECTION_WINDOW;
    use smartcrowd_core::report::{create_report_pair, Findings};
    use smartcrowd_core::sra::Sra;
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_detect::vulnerability::VulnId;

    /// The settlement of a chain whose blocks carry `blocks` (then enough
    /// empty ones to confirm them), mined by the funded provider.
    fn settle(provider: &KeyPair, blocks: Vec<Vec<Record>>) -> Settlement {
        let mut store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let empty = vec![Vec::new(); CONFIRMATION_DEPTH as usize];
        for records in blocks.into_iter().chain(empty) {
            let parent = store.best_block().clone();
            let block = Block::assemble(
                &parent,
                records,
                parent.header().timestamp + 15,
                Difficulty::from_u64(1),
                provider.address(),
            );
            store.insert(block).unwrap();
        }
        let funding = [(provider.address(), Ether::from_ether(5000))];
        let mut settlement = Settlement::new(store.genesis_id(), &funding);
        settlement.advance(&store);
        settlement
    }

    const FEE: Ether = Ether::from_milliether(11);

    /// A signed `R*` of `detector` claiming `vuln` on `sra`.
    fn detailed(detector: &KeyPair, sra: &Sra, vuln: u64, nonce: u64) -> (Record, Address) {
        let findings = Findings::new(vec![VulnId(vuln)], "x");
        let (_, detailed) = create_report_pair(detector, *sra.id(), findings);
        let kind = RecordKind::DetailedReport;
        let record = Record::signed(kind, detailed.encode(), FEE, nonce, detector);
        (record, detailed.wallet())
    }

    fn sra(provider: &KeyPair) -> Sra {
        let (insurance, mu) = (Ether::from_ether(1000), Ether::from_ether(25));
        Sra::create(provider, "fw", "1", [7; 32], "sim://fw", insurance, mu)
    }

    /// A settlement that opened one 1000-ETH escrow and paid one 25-ETH
    /// finding out of it, with the escrow's and the paid wallet's addresses.
    fn settled() -> (Settlement, Address, Address) {
        settled_over(0)
    }

    /// Empty blocks after the SRA's block that close its window.
    const WINDOW_IDLE: usize = (DETECTION_WINDOW - CONFIRMATION_DEPTH - 1) as usize;

    /// [`settled`] with `idle` empty blocks after the SRA's block.
    fn settled_over(idle: usize) -> (Settlement, Address, Address) {
        let provider = KeyPair::from_seed(b"provider");
        let sra = sra(&provider);
        let (report, wallet) = detailed(&KeyPair::from_seed(b"detector"), &sra, 3, 1);
        let announce = Record::signed(RecordKind::Sra, sra.encode(), FEE, 0, &provider);
        let mut blocks = vec![vec![announce, report]];
        blocks.resize(1 + idle, Vec::new());
        let settlement = settle(&provider, blocks);
        let escrow = settlement.escrows()[sra.id()].escrow.address;
        (settlement, escrow, wallet)
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
    fn a_settlement_past_its_window_audits_clean() {
        let eth = Ether::from_ether;
        let (open, escrow, _) = settled_over(WINDOW_IDLE - 1);
        let audit_open = audit(&open).unwrap();
        assert_eq!(audit_open.refunds, Ether::ZERO);
        assert_eq!(open.state().balance(&escrow), eth(975));
        let (closed, escrow, _) = settled_over(WINDOW_IDLE);
        let audit = audit(&closed).unwrap();
        assert_eq!(
            (audit.deposits, audit.payouts, audit.refunds),
            (eth(1000), eth(25), eth(975))
        );
        assert_eq!(closed.state().balance(&escrow), Ether::ZERO);
    }

    #[test]
    fn a_doctored_refund_is_an_imbalance() {
        let (settlement, _, _) = settled_over(WINDOW_IDLE);
        let mut doctored = audit(&settlement).unwrap();
        assert_eq!(check_conservation(&doctored), Ok(()));
        doctored.refunds += Ether::from_wei(1);
        let refunds = Ether::from_ether(975) + Ether::from_wei(1);
        assert_eq!(
            check_conservation(&doctored),
            Err(SettleError::Imbalance {
                deposits: Ether::from_ether(1000),
                payouts: Ether::from_ether(25),
                refunds,
                remaining: Ether::ZERO,
            })
        );
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
    fn supply_violation_is_detected() {
        let (settlement, _, _) = settled();
        let (supply, accounted) = settlement.audit_supply();
        assert_eq!(check_supply((supply, accounted)), Ok(()));
        let minted_outside_the_fold = supply + Ether::from_wei(1);
        assert!(matches!(
            check_supply((minted_outside_the_fold, accounted)),
            Err(SettleError::Supply { .. })
        ));
    }

    #[test]
    fn cross_foot_subtracts_what_the_fold_charged_the_wallet() {
        let provider = KeyPair::from_seed(b"provider");
        let detector = KeyPair::from_seed(b"detector");
        let sra = sra(&provider);
        let announce = Record::signed(RecordKind::Sra, sra.encode(), FEE, 0, &provider);
        let (first, wallet) = detailed(&detector, &sra, 3, 1);
        // Paid for the first finding, the wallet can pay for the second.
        let (second, _) = detailed(&detector, &sra, 4, 2);
        let settlement = settle(&provider, vec![vec![announce, first], vec![second]]);
        let tally = settlement.tally(&wallet);
        assert_eq!(tally.fees, FEE);
        assert!(!tally.reporting_gas.is_zero());
        let audit = audit(&settlement).unwrap();
        assert_eq!(audit.payouts, Ether::from_ether(50));
        assert_eq!(
            settlement.state().balance(&wallet),
            Ether::from_ether(50) - FEE - tally.reporting_gas
        );
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
