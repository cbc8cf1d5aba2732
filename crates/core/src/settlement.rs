//! Settlement: the paper's Phase #4 (§V-D) as one fold over the
//! confirmed chain — the one place money moves.
//!
//! "When `R†` and `R*` are all confirmed and recorded in the blockchain,
//! SmartCrowd contracts will be triggered." A [`Settlement`] is that rule,
//! written once (PROTOCOL.md §8.5). It owns the SCVM, the world state, the
//! consensus trigger account and the report registry, and changes them
//! only by applying — in canonical record order, each exactly once — the
//! blocks that crossed [`CONFIRMATION_DEPTH`]: every record pays its fee ψ
//! to the block's miner, every `R†` / `R*` is metered through the registry
//! at its sender's expense, a confirmed SRA opens and funds its escrow
//! from the provider's account, a confirmed `R*` is paid out of it, and
//! the miner is credited [`BLOCK_REWARD`]; once an SRA's block has
//! [`DETECTION_WINDOW`] confirmations, what its escrow still holds returns
//! to the provider. The world state is therefore a
//! function of the genesis allocation and the confirmed chain alone, so
//! replicas of one confirmed history hold the same balances, and the
//! total supply is the allocation plus one reward per applied block
//! ([`Settlement::audit_supply`]). A cursor marks the last block applied;
//! if that block is reorged out, the state is refolded from genesis by the
//! same loop. Execution owns no storage, ordering or signature check:
//! records reach the fold validated by
//! [`crate::protocol::Protocol::check_block`].

use crate::contracts::{ReportRegistry, SraEscrow};
use crate::economics::{BLOCK_REWARD, DETECTION_WINDOW};
use crate::report::DetailedReport;
use crate::sra::{Sra, SraId};
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::{BlockId, ChainQuery, Ether, CONFIRMATION_DEPTH};
use smartcrowd_crypto::{Address, DigestMap};
use smartcrowd_detect::vulnerability::VulnId;
use smartcrowd_vm::{Vm, WorldState};
use std::collections::{HashSet, VecDeque};

/// Gas float the consensus trigger account holds at genesis.
const TRIGGER_FLOAT: Ether = Ether::from_ether(1000);

/// The block this far above an SRA's refunds its escrow: applied at
/// [`CONFIRMATION_DEPTH`], it leaves the SRA's [`DETECTION_WINDOW`] deep.
const REFUND_LAG: u64 = DETECTION_WINDOW - CONFIRMATION_DEPTH - 1;

/// A completed incentive payout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payout {
    /// The SRA whose escrow paid.
    pub sra_id: SraId,
    /// The detector wallet credited.
    pub wallet: Address,
    /// Number of novel vulnerabilities rewarded.
    pub vulnerabilities: u64,
    /// Amount transferred.
    pub amount: Ether,
}

/// One opened escrow: a row of the settlement table.
#[derive(Debug)]
pub struct OpenEscrow {
    /// The deployed contract (address, measured release cost).
    pub escrow: SraEscrow,
    /// The insurance the escrow was funded with.
    pub insurance: Ether,
    /// The per-vulnerability incentive `μ` the escrow was preset with.
    pub mu: Ether,
    /// Vulnerabilities already claimed (first-confirmer-wins dedup).
    pub paid_vulns: HashSet<VulnId>,
    /// What the escrow returned to the provider when the detection window
    /// closed; `None` while it is open.
    pub refunded: Option<Ether>,
}

/// What the fold credited to and charged one account.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Block rewards and record fees credited as a block's miner (Eq. 8
    /// accumulated; the Fig. 4(a) series).
    pub income: Ether,
    /// Record fees ψ debited as a record's sender.
    pub fees: Ether,
    /// Report-registry gas charged as a report's sender (the detector
    /// cost `c` of Fig. 6(b)).
    pub reporting_gas: Ether,
}

/// Whole milliether in an [`Ether`] amount (telemetry unit for escrow flows).
fn milli(e: Ether) -> u64 {
    (e.wei() / 1_000_000_000_000_000) as u64
}

/// One replica's contract state, derived from its confirmed chain.
#[derive(Debug)]
pub struct Settlement {
    vm: Vm,
    state: WorldState,
    trigger: Address,
    /// Deployed by the trigger at genesis, so at one address on every
    /// replica and after every refold.
    registry: ReportRegistry,
    /// Genesis balances, the trigger's float first; a refold re-applies them.
    allocations: Vec<(Address, Ether)>,
    escrows: DigestMap<SraId, OpenEscrow>,
    /// Open escrows in the order they opened, each with the height of the
    /// block whose application refunds it.
    refunds: VecDeque<(u64, SraId)>,
    /// Confirmed `R*` whose escrow is not open, in confirmation order.
    pending: DigestMap<SraId, Vec<DetailedReport>>,
    payouts: Vec<Payout>,
    tallies: DigestMap<Address, Tally>,
    genesis: BlockId,
    /// Height and id of the last confirmed canonical block applied.
    cursor: (u64, BlockId),
    folded: u64,
}

impl Settlement {
    /// The genesis state of a chain rooted at `genesis`: the trigger
    /// account's gas float, the `allocation` balances and the report
    /// registry. Every replica of one chain must be given the same
    /// allocation, at boot and after a restore.
    pub fn new(genesis: BlockId, allocation: &[(Address, Ether)]) -> Settlement {
        let trigger = Address::from_label("smartcrowd-consensus");
        let mut allocations = vec![(trigger, TRIGGER_FLOAT)];
        allocations.extend_from_slice(allocation);
        let vm = Vm::default();
        let (state, registry) = Self::genesis_state(&vm, &allocations, trigger);
        Settlement {
            vm,
            state,
            trigger,
            registry,
            allocations,
            escrows: DigestMap::default(),
            refunds: VecDeque::new(),
            pending: DigestMap::default(),
            payouts: Vec::new(),
            tallies: DigestMap::default(),
            genesis,
            cursor: (0, genesis),
            folded: 0,
        }
    }

    /// The allocations credited, then the registry deployed by the trigger
    /// out of its float.
    fn genesis_state(
        vm: &Vm,
        allocations: &[(Address, Ether)],
        trigger: Address,
    ) -> (WorldState, ReportRegistry) {
        let mut state = WorldState::new();
        for &(account, amount) in allocations {
            state.credit(account, amount);
        }
        let registry =
            ReportRegistry::deploy(vm, &mut state, trigger).expect("registry deploys at genesis");
        (state, registry)
    }

    /// Back to genesis: the allocations and the registry, no escrow, no
    /// refund due, no payout, no tally, cursor on the genesis block.
    fn reset(&mut self) {
        (self.state, self.registry) =
            Self::genesis_state(&self.vm, &self.allocations, self.trigger);
        self.escrows.clear();
        self.refunds.clear();
        self.pending.clear();
        self.payouts.clear();
        self.tallies.clear();
        self.cursor = (0, self.genesis);
    }

    /// Applies every canonical block of `chain` that crossed
    /// [`CONFIRMATION_DEPTH`] since the cursor, refolding from genesis
    /// first when the block at the cursor is no longer canonical.
    pub fn advance<Q: ChainQuery + ?Sized>(&mut self, chain: &Q) {
        if chain.canonical_id_at(self.cursor.0) != Some(self.cursor.1) {
            self.reset();
        }
        let horizon = chain.best_height().saturating_sub(CONFIRMATION_DEPTH);
        while self.cursor.0 < horizon {
            let Some(block) = chain.canonical_block_at(self.cursor.0 + 1) else {
                return; // unreadable body: stay put, the backend is poisoned
            };
            let header = block.header();
            let (miner, ctx) = (header.miner, (header.timestamp, header.height));
            for record in block.records() {
                self.collect_fee(record, miner);
                // A payload that does not decode settles nothing more.
                match record.kind() {
                    RecordKind::Sra => {
                        if let Ok(sra) = Sra::decode(record.payload()) {
                            self.open(&sra, ctx);
                        }
                    }
                    RecordKind::InitialReport => self.register(record, ctx),
                    RecordKind::DetailedReport => {
                        self.register(record, ctx);
                        if let Ok(report) = DetailedReport::decode(record.payload()) {
                            if !self.pay(&report, ctx) {
                                let waiting = self.pending.entry(*report.sra_id());
                                waiting.or_default().push(report);
                            }
                        }
                    }
                    RecordKind::Transfer => {}
                }
            }
            self.state.credit(miner, BLOCK_REWARD);
            self.tallies.entry(miner).or_default().income += BLOCK_REWARD;
            while let Some((_, sra_id)) = self.refunds.pop_front_if(|r| r.0 <= header.height) {
                self.refund(&sra_id, ctx);
            }
            self.cursor = (header.height, block.id());
            self.folded += 1;
        }
    }

    /// Moves a record's fee ψ from its sender to the block's miner. A
    /// sender that cannot pay pays nothing and the miner is credited
    /// nothing, on every replica alike.
    fn collect_fee(&mut self, record: &Record, miner: Address) {
        let (sender, fee) = (record.sender(), record.fee());
        if self.state.debit(sender, fee).is_err() {
            smartcrowd_telemetry::counter!("core.settlement.unpaid", "charge" => "fee").inc();
            return;
        }
        self.state.credit(miner, fee);
        self.tallies.entry(sender).or_default().fees += fee;
        self.tallies.entry(miner).or_default().income += fee;
    }

    /// Meters a report record through the registry at its sender's
    /// expense. The registry is loop-free and far below the gas limit, so
    /// the call fails only before execution, when the sender cannot
    /// reserve the gas: then nothing is charged.
    fn register(&mut self, record: &Record, block: (u64, u64)) {
        let (sender, id) = (record.sender(), record.id());
        match self
            .registry
            .submit(&self.vm, &mut self.state, sender, &id, block)
        {
            Ok(receipt) => self.tallies.entry(sender).or_default().reporting_gas += receipt.fee,
            Err(_) => {
                smartcrowd_telemetry::counter!("core.settlement.unpaid", "charge" => "registry")
                    .inc();
            }
        }
    }

    /// Opens the escrow of a confirmed SRA (a provider that cannot fund it
    /// opens none; the attempt's gas is spent, as for any failed
    /// transaction), then pays the reports that confirmed ahead of it, in
    /// the order they confirmed.
    fn open(&mut self, sra: &Sra, block: (u64, u64)) {
        if self.escrows.contains_key(sra.id()) {
            return;
        }
        let Ok(escrow) = SraEscrow::deploy(
            &self.vm,
            &mut self.state,
            sra.provider(),
            sra.insurance(),
            sra.incentive_per_vuln(),
            self.trigger,
            block,
        ) else {
            return;
        };
        smartcrowd_telemetry::counter!("core.escrow.deposited_milli").add(milli(sra.insurance()));
        self.escrows.insert(
            *sra.id(),
            OpenEscrow {
                escrow,
                insurance: sra.insurance(),
                mu: sra.incentive_per_vuln(),
                paid_vulns: HashSet::new(),
                refunded: None,
            },
        );
        self.refunds.push_back((block.1 + REFUND_LAG, *sra.id()));
        for report in self.pending.remove(sra.id()).unwrap_or_default() {
            self.pay(&report, block);
        }
    }

    /// Pays a confirmed `R*` `μ` for each distinct vulnerability nobody
    /// claimed before it (§VI-B: "only the detection result that has not
    /// been submitted before can be recorded"); a vulnerability claimed
    /// twice in one report is one `n_i` of Eq. 7. `false`: its escrow is
    /// not open.
    fn pay(&mut self, report: &DetailedReport, block: (u64, u64)) -> bool {
        let Some(entry) = self.escrows.get_mut(report.sra_id()) else {
            return false;
        };
        let claimed = report.findings().vulnerabilities.iter();
        let n = claimed.filter(|v| entry.paid_vulns.insert(**v)).count() as u64;
        if n == 0 {
            return true;
        }
        let wallet = report.wallet();
        let paid = entry
            .escrow
            .payout(&self.vm, &mut self.state, self.trigger, wallet, n, block);
        // A failed payout means the escrow is exhausted: the punishment is
        // capped at the insurance (the paper's forfeit-the-deposit model).
        if paid.is_ok() {
            let amount = entry.mu.scaled(n);
            smartcrowd_telemetry::counter!("core.incentive.payouts").inc();
            smartcrowd_telemetry::counter!("core.escrow.paid_milli").add(milli(amount));
            self.payouts.push(Payout {
                sra_id: *report.sra_id(),
                wallet,
                vulnerabilities: n,
                amount,
            });
        }
        true
    }

    /// Closes an SRA's detection window: what payouts left of the insurance
    /// returns to the provider. A refused refund is not retried.
    fn refund(&mut self, sra_id: &SraId, block: (u64, u64)) {
        let entry = self.escrows.get_mut(sra_id).expect("queued when opened");
        let remaining = entry.escrow.balance(&self.state);
        if !remaining.is_zero()
            && entry
                .escrow
                .refund(&self.vm, &mut self.state, self.trigger, block)
                .is_err()
        {
            return;
        }
        entry.refunded = Some(remaining);
        smartcrowd_telemetry::counter!("core.escrow.refunded_milli").add(milli(remaining));
        smartcrowd_telemetry::counter!("core.sra.settled").inc();
    }

    /// Height and id of the last confirmed canonical block applied.
    pub fn cursor(&self) -> (u64, BlockId) {
        self.cursor
    }

    /// Blocks applied over this replica's lifetime, refolds included: equal
    /// to the cursor height exactly when every block was applied once.
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// The world state.
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// What the fold credited to and charged `account` so far.
    pub fn tally(&self, account: &Address) -> Tally {
        self.tallies.get(account).copied().unwrap_or_default()
    }

    /// Supply audit: `(total supply of the world state, genesis
    /// allocations + one block reward per applied block)`. The two are
    /// equal on every honest replica: fees, gas, deposits, payouts and
    /// refunds move currency, only the fold's block reward creates it.
    pub fn audit_supply(&self) -> (Ether, Ether) {
        let accounted = self.genesis_supply() + BLOCK_REWARD * self.cursor.0;
        (self.state.total_supply(), accounted)
    }

    /// Adds `amount` for `account` to the genesis allocation and credits
    /// it now; a refold applies it again with the rest of the allocation.
    pub fn allocate(&mut self, account: Address, amount: Ether) {
        self.allocations.push((account, amount));
        self.state.credit(account, amount);
    }

    /// Currency the genesis state holds.
    pub fn genesis_supply(&self) -> Ether {
        self.allocations.iter().map(|a| a.1).sum()
    }

    /// The open escrows.
    pub fn escrows(&self) -> &DigestMap<SraId, OpenEscrow> {
        &self.escrows
    }

    /// Completed payouts, in order.
    pub fn payouts(&self) -> &[Payout] {
        &self.payouts
    }

    /// Confirmed `R*` still waiting for their SRA's escrow to open.
    pub fn pending_reports(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{create_report_pair, Findings};
    use smartcrowd_chain::record::Record;
    use smartcrowd_chain::{Block, ChainStore, Difficulty};
    use smartcrowd_crypto::keys::KeyPair;

    const FEE: Ether = Ether::from_milliether(11);

    fn sra_record(provider: &KeyPair, insurance: u64) -> (SraId, Record) {
        let sra = Sra::create(
            provider,
            "fw",
            "1",
            [7; 32],
            "sim://fw",
            Ether::from_ether(insurance),
            Ether::from_ether(25),
        );
        let record = Record::signed(RecordKind::Sra, sra.encode(), FEE, 0, provider);
        (*sra.id(), record)
    }

    fn detailed_record(detector: &KeyPair, sra_id: SraId, vulns: Vec<u64>) -> Record {
        let vulns = vulns.into_iter().map(VulnId).collect();
        let (_, detailed) = create_report_pair(detector, sra_id, Findings::new(vulns, "x"));
        Record::signed(
            RecordKind::DetailedReport,
            detailed.encode(),
            FEE,
            1,
            detector,
        )
    }

    /// Extends `store` with one block carrying `records`.
    fn extend(store: &mut ChainStore, records: Vec<Record>) {
        let parent = store.best_block().clone();
        let timestamp = parent.header().timestamp + 15;
        let miner = Address::from_label("miner");
        let block = Block::assemble(&parent, records, timestamp, Difficulty::from_u64(1), miner);
        store.insert(block).unwrap();
    }

    /// Extends `store` with one block per entry of `blocks`, then with
    /// enough empty blocks to confirm them all.
    fn confirm(store: &mut ChainStore, blocks: Vec<Vec<Record>>) {
        let empty = vec![Vec::new(); CONFIRMATION_DEPTH as usize];
        for records in blocks.into_iter().chain(empty) {
            extend(store, records);
        }
    }

    fn balance(settlement: &Settlement, sra_id: &SraId) -> Ether {
        settlement.escrows()[sra_id]
            .escrow
            .balance(settlement.state())
    }

    fn funded(store: &ChainStore, provider: &KeyPair) -> Settlement {
        let funding = [(provider.address(), Ether::from_ether(5000))];
        Settlement::new(store.genesis_id(), &funding)
    }

    #[test]
    fn report_confirmed_ahead_of_its_sra_pays_when_the_escrow_opens() {
        let provider = KeyPair::from_seed(b"provider");
        let detector = KeyPair::from_seed(b"detector");
        let (sra_id, sra) = sra_record(&provider, 1000);
        let report = detailed_record(&detector, sra_id, vec![3]);
        let mut store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let mut settlement = funded(&store, &provider);
        confirm(&mut store, vec![vec![report]]);
        settlement.advance(&store);
        assert_eq!(settlement.pending_reports(), 1);
        assert!(settlement.payouts().is_empty());
        confirm(&mut store, vec![vec![sra]]);
        settlement.advance(&store);
        assert_eq!(settlement.pending_reports(), 0);
        assert_eq!(settlement.payouts().len(), 1);
        assert_eq!(balance(&settlement, &sra_id), Ether::from_ether(975));
        assert_eq!(settlement.folded(), settlement.cursor().0);
    }

    #[test]
    fn report_claiming_one_vulnerability_twice_is_paid_once() {
        let provider = KeyPair::from_seed(b"provider");
        let detector = KeyPair::from_seed(b"detector");
        let (sra_id, sra) = sra_record(&provider, 1000);
        let report = detailed_record(&detector, sra_id, vec![3, 3]);
        let mut store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let mut settlement = funded(&store, &provider);
        confirm(&mut store, vec![vec![sra, report]]);
        settlement.advance(&store);
        let payouts = settlement.payouts();
        assert_eq!(payouts.len(), 1);
        assert_eq!(payouts[0].vulnerabilities, 1);
        assert_eq!(payouts[0].amount, Ether::from_ether(25));
        assert_eq!(balance(&settlement, &sra_id), Ether::from_ether(975));
    }

    #[test]
    fn unfunded_provider_opens_no_escrow_and_its_reports_stay_pending() {
        let provider = KeyPair::from_seed(b"provider");
        let detector = KeyPair::from_seed(b"detector");
        let (sra_id, sra) = sra_record(&provider, 6000); // allocation is 5000
        let report = detailed_record(&detector, sra_id, vec![3]);
        let mut store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let mut settlement = funded(&store, &provider);
        confirm(&mut store, vec![vec![sra, report]]);
        settlement.advance(&store);
        assert!(settlement.escrows().is_empty());
        assert_eq!(settlement.pending_reports(), 1);
        assert!(settlement.payouts().is_empty());
    }

    #[test]
    fn the_window_refunds_the_remainder_to_the_provider_once() {
        let provider = KeyPair::from_seed(b"provider");
        let detector = KeyPair::from_seed(b"detector");
        let (sra_id, sra) = sra_record(&provider, 1000);
        let report = detailed_record(&detector, sra_id, vec![3]);
        let mut store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let mut settlement = funded(&store, &provider);
        confirm(&mut store, vec![vec![sra, report]]);
        let sra_height = 1;
        let remainder = Ether::from_ether(1000 - 25);
        // The window closes once the SRA's block has DETECTION_WINDOW
        // confirmations: when the fold applies the block REFUND_LAG above it.
        while settlement.cursor().0 < sra_height + REFUND_LAG + 2 {
            settlement.advance(&store);
            let refunded = settlement.escrows()[&sra_id].refunded;
            let closed = settlement.cursor().0 >= sra_height + REFUND_LAG;
            assert_eq!(refunded, closed.then_some(remainder));
            if settlement.cursor().0 == sra_height + REFUND_LAG {
                assert_eq!(store.best_height() - sra_height + 1, DETECTION_WINDOW);
            }
            extend(&mut store, Vec::new());
        }
        assert_eq!(balance(&settlement, &sra_id), Ether::ZERO);
        let release_cost = settlement.escrows()[&sra_id].escrow.release_cost;
        let provider_funds = Ether::from_ether(5000) - FEE - release_cost;
        assert_eq!(
            settlement.state().balance(&provider.address()),
            provider_funds - Ether::from_ether(1000) + remainder
        );
        let (supply, accounted) = settlement.audit_supply();
        assert_eq!(
            supply, accounted,
            "fees, gas, deposits and refunds only move currency"
        );
    }

    #[test]
    fn fees_and_the_reward_go_to_the_miner_and_an_unpaid_fee_moves_nothing() {
        let provider = KeyPair::from_seed(b"provider");
        let detector = KeyPair::from_seed(b"detector"); // holds nothing
        let (sra_id, sra) = sra_record(&provider, 1000);
        let report = detailed_record(&detector, sra_id, vec![3]);
        let mut store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let mut settlement = funded(&store, &provider);
        confirm(&mut store, vec![vec![sra, report]]);
        settlement.advance(&store);
        let miner = Address::from_label("miner");
        let tally = settlement.tally(&miner);
        assert_eq!(
            tally.income,
            BLOCK_REWARD + FEE,
            "the detector's fee unpaid"
        );
        assert_eq!(settlement.state().balance(&miner), tally.income);
        assert_eq!(settlement.tally(&provider.address()).fees, FEE);
        let detector = settlement.tally(&detector.address());
        assert_eq!(
            (detector.fees, detector.reporting_gas),
            (Ether::ZERO, Ether::ZERO)
        );
        assert_eq!(
            settlement.payouts().len(),
            1,
            "the payout does not wait on the fee"
        );
        let (supply, accounted) = settlement.audit_supply();
        assert_eq!(supply, accounted);
        assert_eq!(accounted, settlement.genesis_supply() + BLOCK_REWARD);
    }
}
