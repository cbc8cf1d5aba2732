//! The SmartCrowd platform: the end-to-end orchestration of Fig. 1.
//!
//! [`Platform`] is one [`Protocol`] core — the state machine every
//! [`crate::node::ProviderNode`] runs, settlement included — plus what
//! only a single-view platform has: provider keys, the mining race and
//! the client-side preconditions. The four phases of §IV-B:
//!
//! 1. **Decentralized verification for system release** —
//!    [`Platform::release_system`] checks the provider can afford the
//!    insurance and admits the announcement (the core verifies the SRA).
//! 2. **Lightweight distributed detection** —
//!    [`Platform::submit_initial`] / [`Platform::submit_detailed`] check
//!    the client-side preconditions (known SRA, one `R†` per detector,
//!    `R†` confirmed before `R*`); the core then runs Algorithm 1 (and
//!    `AutoVerif` for `R*`) once, on admission.
//! 3. **Fault-tolerant verification and storage** —
//!    [`Platform::mine_block`] runs the hash-power-weighted race and seals
//!    pending records.
//! 4. **Decentralized and automated incentives** — sealing a block lets
//!    the core's [`Settlement`] fold what it confirmed: at 6-block finality
//!    the miner is paid its reward and fees, the reports are metered, an
//!    SRA opens its escrow, a detailed report pays `μ·n` to the
//!    detector's wallet, and at the end of the detection window the
//!    remainder returns to the provider, with no provider involvement. The
//!    platform moves no money; it reads the result.

use crate::economics::{
    BLOCK_CAPACITY, DETECTOR_FUNDING, MIN_INSURANCE, PROVIDER_FUNDING, REPORT_FEE,
};
use crate::error::CoreError;
use crate::protocol::Protocol;
use crate::report::{DetailedReport, InitialReport};
use crate::settlement::{Payout, Settlement};
use crate::sra::{Sra, SraId};
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::simminer::{SimMiner, SimParticipant, PAPER_HASH_POWERS};
use smartcrowd_chain::{Block, ChainQuery, ChainStore, Difficulty, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::{Address, Digest, DigestMap, DigestSet};
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_detect::vulnerability::VulnId;
use smartcrowd_net::Scoreboard;
use smartcrowd_telemetry::Counter;
use smartcrowd_vm::VmError;

/// Platform configuration: what a caller varies. Everything else is the
/// paper's §VII parameter set, read from [`crate::economics`].
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Genesis funding per provider account.
    pub provider_funding: Ether,
    /// Master seed.
    pub seed: u64,
}

impl PlatformConfig {
    /// The paper's §VII configuration: 5 providers at the top-5 Ethereum
    /// hash-power shares, funded with [`PROVIDER_FUNDING`] each.
    pub fn paper() -> Self {
        PlatformConfig {
            provider_funding: PROVIDER_FUNDING,
            seed: 2019,
        }
    }
}

/// Vulnerabilities in the platform's synthetic library.
const LIBRARY_SIZE: usize = 500;

/// One registered provider.
#[derive(Debug, Clone)]
pub struct ProviderHandle {
    /// Signing keys.
    pub keypair: KeyPair,
    /// Account address.
    pub address: Address,
    /// Hash-power share.
    pub hash_power: f64,
}

/// The assembled SmartCrowd platform.
#[derive(Debug)]
pub struct Platform {
    providers: Vec<ProviderHandle>,
    core: Protocol<ChainStore>,
    sim: SimMiner,
    /// Release order (released_sras() preserves it).
    release_order: Vec<SraId>,
    /// The record carrying each detector's `R†` (its confirmation gates `R*`).
    initial_records: DigestMap<(SraId, Address), Digest>,
    /// Sim-clock second at which each record was submitted (lifecycle
    /// latency: submit → 6-block confirmation).
    submit_times: DigestMap<Digest, f64>,
    funded: DigestSet<Address>,
}

impl Platform {
    /// Boots the platform: genesis block, funded providers, seeded mining
    /// race.
    pub fn new(config: PlatformConfig) -> Platform {
        let providers: Vec<ProviderHandle> = PAPER_HASH_POWERS
            .iter()
            .enumerate()
            .map(|(i, &hp)| {
                let keypair = KeyPair::from_seed(format!("provider-{i}").as_bytes());
                ProviderHandle {
                    address: keypair.address(),
                    keypair,
                    hash_power: hp,
                }
            })
            .collect();
        let participants = providers
            .iter()
            .map(|p| SimParticipant {
                address: p.address,
                hash_power: p.hash_power,
            })
            .collect();
        let sim = SimMiner::new(participants, config.seed);
        let store = ChainStore::new(Block::genesis(Difficulty::from_u64(1)));
        let library = VulnLibrary::synthetic(LIBRARY_SIZE, config.seed ^ 0xdead);
        let funding: Vec<_> = providers
            .iter()
            .map(|p| (p.address, config.provider_funding))
            .collect();
        Platform {
            providers,
            core: Protocol::new(Box::new(store), library, &funding),
            sim,
            release_order: Vec::new(),
            initial_records: DigestMap::default(),
            submit_times: DigestMap::default(),
            funded: DigestSet::default(),
        }
    }

    /// The registered providers.
    pub fn providers(&self) -> &[ProviderHandle] {
        &self.providers
    }

    /// The synthetic vulnerability library backing `AutoVerif`.
    pub fn library(&self) -> &VulnLibrary {
        self.core.library()
    }

    /// Publishes a newly disclosed vulnerability into the platform library
    /// (the event retrospective detection reacts to; see
    /// [`crate::retro`]). Returns the assigned id.
    pub fn publish_vulnerability(
        &mut self,
        entry: smartcrowd_detect::vulnerability::Vulnerability,
    ) -> VulnId {
        let id = entry.id;
        self.core.library_mut().publish(entry);
        id
    }

    /// Ids of every SRA released on this platform, in release order.
    pub(crate) fn released_sras(&self) -> Vec<SraId> {
        self.release_order.clone()
    }

    /// Whether an SRA's detection window has closed and its escrow refunded.
    pub(crate) fn is_settled(&self, sra_id: &SraId) -> bool {
        self.settlement()
            .escrows()
            .get(sra_id)
            .is_some_and(|e| e.refunded.is_some())
    }

    /// The contract state the confirmed chain implies (escrows, payouts,
    /// world state), as every replica of this chain derives it.
    pub fn settlement(&self) -> &Settlement {
        self.core.settlement()
    }

    /// The chain store (consumers query this).
    pub fn store(&self) -> &ChainStore {
        self.core.store()
    }

    /// Current account balance.
    pub fn balance(&self, addr: &Address) -> Ether {
        self.settlement().state().balance(addr)
    }

    /// Completed payouts, in order.
    pub fn payouts(&self) -> &[Payout] {
        self.settlement().payouts()
    }

    /// Registry gas a detector paid for its confirmed reports.
    pub fn detector_cost(&self, addr: &Address) -> Ether {
        self.settlement().tally(addr).reporting_gas
    }

    /// Mining income (block rewards + record fees) of a provider from its
    /// confirmed blocks — the Fig. 4(a) incentive series.
    pub fn mining_income(&self, addr: &Address) -> Ether {
        self.settlement().tally(addr).income
    }

    /// The platform scoreboard (detector isolation state).
    pub fn scoreboard(&self) -> &Scoreboard {
        self.core.scoreboard()
    }

    /// Simulated clock in seconds.
    pub fn clock(&self) -> f64 {
        self.sim.clock()
    }

    /// Funds a detector/consumer account through the genesis allocation
    /// (a stand-in for pre-existing on-chain funds; detectors need gas
    /// money, Eq. 10). An account is funded once: a detector funded here
    /// gets no [`DETECTOR_FUNDING`] on its first report.
    pub fn fund(&mut self, addr: Address, amount: Ether) {
        self.funded.insert(addr);
        self.core.settlement_mut().allocate(addr, amount);
    }

    /// Supply audit ([`Settlement::audit_supply`]): the two must always
    /// be equal.
    pub fn audit_supply(&self) -> (Ether, Ether) {
        self.settlement().audit_supply()
    }

    /// Signs `payload` into a record and admits it through the core, the
    /// one place its content is verified. Record ids already include
    /// payload hashes; the coarse nonce keeps repeats distinct.
    fn admit_signed(
        &mut self,
        kind: RecordKind,
        payload: Vec<u8>,
        signer: &KeyPair,
    ) -> Result<Digest, CoreError> {
        let nonce = self.store().best_height() * 1000 + self.core.mempool_len() as u64;
        let record = Record::signed(kind, payload, REPORT_FEE, nonce, signer);
        let record_id = record.id();
        self.core.admit(record)?;
        self.submit_times.insert(record_id, self.sim.clock());
        Ok(record_id)
    }

    /// Phase #1 — releases a system: admits the announcement record (the
    /// core verifies the insuranced SRA, §V-A). The escrow is deployed and
    /// funded from the provider's account when the SRA confirms; the
    /// balance check here only spares a provider announcing what it cannot
    /// fund. Returns the `Δ_id`.
    ///
    /// # Errors
    ///
    /// - [`CoreError::InsuranceTooLow`] below the platform minimum;
    /// - [`CoreError::DuplicateReport`] when the identical SRA is already
    ///   announced;
    /// - [`CoreError::Vm`] when the provider's balance is below the
    ///   insurance;
    /// - SRA verification failures (§V-A).
    pub fn release_system(
        &mut self,
        provider_index: usize,
        system: IoTSystem,
        insurance: Ether,
        incentive_per_vuln: Ether,
    ) -> Result<SraId, CoreError> {
        let provider = self
            .providers
            .get(provider_index)
            .ok_or(CoreError::NotFound)?
            .clone();
        if insurance < MIN_INSURANCE {
            return Err(CoreError::InsuranceTooLow);
        }
        // Built from the system's own image hash, the SRA matches its image.
        let sra = Sra::announce(&provider.keypair, &system, insurance, incentive_per_vuln);
        let id = *sra.id();
        if self.balance(&provider.address) < insurance {
            return Err(VmError::InsufficientCallerFunds.into());
        }
        self.admit_signed(RecordKind::Sra, sra.encode(), &provider.keypair)?;
        self.core.hold_artifact(id, system);
        smartcrowd_telemetry::counter!("core.sra.released").inc();
        self.release_order.push(id);
        Ok(id)
    }

    /// The released system image for an SRA (the `U_l` download).
    pub fn download_image(&self, sra_id: &SraId) -> Option<&IoTSystem> {
        self.core.artifact(sra_id)
    }

    /// The SRA announcement for an id.
    pub fn sra(&self, sra_id: &SraId) -> Option<&Sra> {
        self.core.sra(sra_id)
    }

    /// Remaining escrow balance for an SRA (`None` until it confirms and
    /// its escrow opens).
    pub fn escrow_balance(&self, sra_id: &SraId) -> Option<Ether> {
        let entry = self.settlement().escrows().get(sra_id)?;
        Some(entry.escrow.balance(self.settlement().state()))
    }

    /// Gas the provider paid to release an SRA (deploy + init; the paper's
    /// ≈0.095-ether `cp`), once its escrow is open.
    pub fn release_cost(&self, sra_id: &SraId) -> Option<Ether> {
        let entry = self.settlement().escrows().get(sra_id)?;
        Some(entry.escrow.release_cost)
    }

    /// Total insurance forfeited (paid out to detectors) for an SRA.
    pub fn forfeited(&self, sra_id: &SraId) -> Ether {
        self.payouts()
            .iter()
            .filter(|p| p.sra_id == *sra_id)
            .map(|p| p.amount)
            .sum()
    }

    /// The shared tail of both report phases: admit the signed record and
    /// fund a detector nobody funded on first contact. The registry meters the
    /// submission (Fig. 6(b)) when the record confirms.
    fn submit_report(
        &mut self,
        signer: &KeyPair,
        detector: Address,
        kind: RecordKind,
        payload: Vec<u8>,
        submitted: &Counter,
    ) -> Result<Digest, CoreError> {
        let record_id = self.admit_signed(kind, payload, signer)?;
        if !self.funded.contains(&detector) {
            self.fund(detector, DETECTOR_FUNDING);
        }
        submitted.inc();
        Ok(record_id)
    }

    /// Phase #2a — a detector submits its initial report `R†`.
    ///
    /// # Errors
    ///
    /// - [`CoreError::UnknownSra`] for an unknown `Δ_id`;
    /// - [`CoreError::DuplicateReport`] when this detector already has an
    ///   `R†` for the SRA;
    /// - [`CoreError::DetectorIsolated`] when the scoreboard filters the
    ///   detector;
    /// - Algorithm-1 verification failures.
    pub fn submit_initial(
        &mut self,
        detector: &KeyPair,
        report: InitialReport,
    ) -> Result<Digest, CoreError> {
        let key = (*report.sra_id(), report.detector());
        if self.core.sra(&key.0).is_none() {
            return Err(CoreError::UnknownSra);
        }
        let record_id = self.submit_report(
            detector,
            key.1,
            RecordKind::InitialReport,
            report.encode(),
            smartcrowd_telemetry::counter!("core.reports.submitted", "kind" => "initial"),
        )?;
        self.initial_records.insert(key, record_id);
        Ok(record_id)
    }

    /// Phase #2b — a detector reveals its detailed report `R*` after its
    /// `R†` confirmed (§V-B Phase II).
    ///
    /// # Errors
    ///
    /// - [`CoreError::UnknownSra`] for an unknown `Δ_id`;
    /// - [`CoreError::InitialNotConfirmed`] before the 6-block finality of
    ///   `R†`;
    /// - commitment/identity mismatches (Algorithm 1);
    /// - [`CoreError::AutoVerifFailed`] when claims do not reproduce — the
    ///   detector is struck on the scoreboard.
    pub fn submit_detailed(
        &mut self,
        detector: &KeyPair,
        report: DetailedReport,
    ) -> Result<Digest, CoreError> {
        let key = (*report.sra_id(), report.detector());
        if self.core.sra(&key.0).is_none() {
            return Err(CoreError::UnknownSra);
        }
        let confirmed = self
            .initial_records
            .get(&key)
            .is_some_and(|id| self.store().record_confirmed(id));
        if !confirmed {
            return Err(CoreError::InitialNotConfirmed);
        }
        self.submit_report(
            detector,
            key.1,
            RecordKind::DetailedReport,
            report.encode(),
            smartcrowd_telemetry::counter!("core.reports.submitted", "kind" => "detailed"),
        )
    }

    /// Phase #3/#4 — mines the next block via the hash-power-weighted race:
    /// sealing records the pending reports and lets the settlement apply
    /// the block that reached finality (its miner's reward and fees, its
    /// reports' registry gas, its escrows and payouts).
    ///
    /// Returns the winning provider's address and the payouts fired.
    pub fn mine_block(&mut self) -> (Address, Vec<Payout>) {
        let parent_timestamp = self.store().best_block().header().timestamp;
        let (miner, timestamp) = self.sim.next_slot(parent_timestamp);
        let paid = self.payouts().len();
        self.core.seal(miner, timestamp, BLOCK_CAPACITY);
        self.observe_confirmations();
        (miner, self.payouts()[paid..].to_vec())
    }

    /// Mines `n` blocks back to back.
    pub fn mine_blocks(&mut self, n: usize) -> Vec<Payout> {
        let mut all = Vec::new();
        for _ in 0..n {
            all.extend(self.mine_block().1);
        }
        all
    }

    /// Lifecycle latency of the records in the block the last seal
    /// confirmed: the one under the settlement cursor, which every seal
    /// moves one block (it rests on the empty genesis block until then).
    fn observe_confirmations(&mut self) {
        let confirmed = self.core.settlement().cursor().0;
        let Some(block) = self.core.store().canonical_block_at(confirmed) else {
            return;
        };
        for record in block.records() {
            let Some(submitted) = self.submit_times.remove(&record.id()) else {
                continue;
            };
            let elapsed_us = ((self.sim.clock() - submitted) * 1e6) as u64;
            smartcrowd_telemetry::histogram!(
                "core.lifecycle.submit_to_confirm_us",
                smartcrowd_telemetry::buckets::TIME_US
            )
            .observe(elapsed_us);
            smartcrowd_telemetry::counter!("core.lifecycle.confirmed").inc();
        }
    }

    /// Consumer query: confirmed vulnerabilities recorded for an SRA.
    pub fn confirmed_vulnerabilities(&self, sra_id: &SraId) -> Vec<VulnId> {
        let Some(entry) = self.settlement().escrows().get(sra_id) else {
            return Vec::new();
        };
        let mut v: Vec<VulnId> = entry.paid_vulns.iter().copied().collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::economics::{DETECTION_WINDOW, INCENTIVE_PER_VULN};
    use crate::report::{create_report_pair, Findings};
    use smartcrowd_chain::rng::SimRng;
    use smartcrowd_chain::CONFIRMATION_DEPTH;

    fn platform() -> Platform {
        Platform::new(PlatformConfig::paper())
    }

    fn release(p: &mut Platform, vulns: Vec<VulnId>) -> SraId {
        let mut rng = SimRng::seed_from_u64(77);
        let system = IoTSystem::build("cam-fw", "1.0", p.library(), vulns, &mut rng).unwrap();
        p.release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
            .unwrap()
    }

    #[test]
    fn boots_with_paper_configuration() {
        let p = platform();
        assert_eq!(p.providers().len(), 5);
        for prov in p.providers() {
            assert_eq!(p.balance(&prov.address), Ether::from_ether(5000));
        }
    }

    #[test]
    fn release_escrows_insurance_once_the_sra_is_final() {
        let mut p = platform();
        let id = release(&mut p, vec![VulnId(1)]);
        assert_eq!(p.escrow_balance(&id), None, "announced, not yet confirmed");
        p.mine_blocks(7);
        assert_eq!(p.escrow_balance(&id), Some(Ether::from_ether(1000)));
        // Provider paid insurance + gas out of its 5000.
        let prov = p.providers()[0].address;
        assert!(p.balance(&prov) < Ether::from_ether(4000) + p.mining_income(&prov));
        assert!(p.sra(&id).is_some());
        assert!(p.download_image(&id).is_some());
    }

    #[test]
    fn insurance_below_minimum_rejected() {
        let mut p = platform();
        let mut rng = SimRng::seed_from_u64(1);
        let system = IoTSystem::build("fw", "1", p.library(), vec![], &mut rng).unwrap();
        let err = p
            .release_system(0, system, Ether::from_ether(1), Ether::from_ether(1))
            .unwrap_err();
        assert_eq!(err, CoreError::InsuranceTooLow);
    }

    #[test]
    fn full_two_phase_flow_pays_detector() {
        let mut p = platform();
        let sra_id = release(&mut p, vec![VulnId(1), VulnId(2)]);
        let detector = KeyPair::from_seed(b"detector-X");
        p.fund(detector.address(), Ether::from_ether(10));
        let (initial, detailed) = create_report_pair(
            &detector,
            sra_id,
            Findings::new(vec![VulnId(1), VulnId(2)], "two flaws"),
        );
        p.submit_initial(&detector, initial).unwrap();
        // R† needs to confirm before R* is accepted.
        let err = p.submit_detailed(&detector, detailed.clone()).unwrap_err();
        assert_eq!(err, CoreError::InitialNotConfirmed);
        p.mine_blocks(8);
        p.submit_detailed(&detector, detailed).unwrap();
        let wallet_before = p.balance(&detector.address());
        let gas_before = p.detector_cost(&detector.address());
        let payouts = p.mine_blocks(8);
        assert_eq!(payouts.len(), 1);
        assert_eq!(payouts[0].vulnerabilities, 2);
        assert_eq!(payouts[0].amount, INCENTIVE_PER_VULN.scaled(2));
        // The detector nets the payout minus the record fee and the
        // registry gas, both charged when its R* confirmed.
        let gas = p.detector_cost(&detector.address()) - gas_before;
        assert!(!gas.is_zero());
        assert_eq!(
            p.balance(&detector.address()),
            wallet_before + INCENTIVE_PER_VULN.scaled(2) - REPORT_FEE - gas
        );
        // The SRA, sealed in block 1, has DETECTION_WINDOW confirmations
        // now: the escrow refunded what the payout left.
        assert_eq!(p.store().best_height(), DETECTION_WINDOW);
        assert_eq!(p.escrow_balance(&sra_id), Some(Ether::ZERO));
        let remainder = Ether::from_ether(1000) - INCENTIVE_PER_VULN.scaled(2);
        assert_eq!(p.settlement().escrows()[&sra_id].refunded, Some(remainder));
        assert_eq!(
            p.confirmed_vulnerabilities(&sra_id),
            vec![VulnId(1), VulnId(2)]
        );
    }

    #[test]
    fn a_funded_detector_is_not_funded_again_on_first_contact() {
        let mut p = platform();
        let sra_id = release(&mut p, vec![VulnId(1)]);
        let funded = KeyPair::from_seed(b"funded detector");
        let unfunded = KeyPair::from_seed(b"unfunded detector");
        p.fund(funded.address(), Ether::from_ether(10));
        for detector in [&funded, &unfunded] {
            let (initial, _) =
                create_report_pair(detector, sra_id, Findings::new(vec![VulnId(1)], "one"));
            p.submit_initial(detector, initial).unwrap();
        }
        assert_eq!(p.balance(&funded.address()), Ether::from_ether(10));
        assert_eq!(p.balance(&unfunded.address()), DETECTOR_FUNDING);
    }

    #[test]
    fn duplicate_findings_pay_only_first_confirmer() {
        let mut p = platform();
        let sra_id = release(&mut p, vec![VulnId(3)]);
        let fast = KeyPair::from_seed(b"fast");
        let slow = KeyPair::from_seed(b"slow");
        for kp in [&fast, &slow] {
            p.fund(kp.address(), Ether::from_ether(10));
            let (initial, _) =
                create_report_pair(kp, sra_id, Findings::new(vec![VulnId(3)], "same finding"));
            p.submit_initial(kp, initial).unwrap();
        }
        p.mine_blocks(8);
        for kp in [&fast, &slow] {
            let (_, detailed) =
                create_report_pair(kp, sra_id, Findings::new(vec![VulnId(3)], "same finding"));
            p.submit_detailed(kp, detailed).unwrap();
        }
        let payouts = p.mine_blocks(10);
        // Exactly one payout for the single vulnerability.
        assert_eq!(payouts.len(), 1);
        assert_eq!(payouts[0].vulnerabilities, 1);
    }

    #[test]
    fn forged_detailed_report_strikes_and_pays_nothing() {
        let mut p = platform();
        let sra_id = release(&mut p, vec![VulnId(1)]);
        let cheat = KeyPair::from_seed(b"cheat");
        p.fund(cheat.address(), Ether::from_ether(10));
        let (initial, detailed) = create_report_pair(
            &cheat,
            sra_id,
            Findings::new(vec![VulnId(200)], "fabricated"),
        );
        p.submit_initial(&cheat, initial).unwrap();
        p.mine_blocks(8);
        let err = p.submit_detailed(&cheat, detailed).unwrap_err();
        assert!(matches!(err, CoreError::AutoVerifFailed { .. }));
        assert_eq!(p.scoreboard().score(&cheat.address()).strikes, 1);
        assert!(p.mine_blocks(10).is_empty());
        // Past the window (DETECTION_WINDOW confirmations of block 1), the
        // whole insurance went back.
        assert!(p.store().best_height() >= DETECTION_WINDOW);
        assert_eq!(p.escrow_balance(&sra_id), Some(Ether::ZERO));
        let refunded = p.settlement().escrows()[&sra_id].refunded;
        assert_eq!(refunded, Some(Ether::from_ether(1000)));
    }

    #[test]
    fn unknown_sra_rejected() {
        let mut p = platform();
        let detector = KeyPair::from_seed(b"d");
        let (initial, _) =
            create_report_pair(&detector, [9u8; 32], Findings::new(vec![VulnId(1)], ""));
        assert_eq!(
            p.submit_initial(&detector, initial),
            Err(CoreError::UnknownSra)
        );
    }

    #[test]
    fn duplicate_initial_rejected() {
        let mut p = platform();
        let sra_id = release(&mut p, vec![VulnId(1)]);
        let detector = KeyPair::from_seed(b"d");
        p.fund(detector.address(), Ether::from_ether(10));
        let (initial, _) =
            create_report_pair(&detector, sra_id, Findings::new(vec![VulnId(1)], ""));
        p.submit_initial(&detector, initial.clone()).unwrap();
        assert_eq!(
            p.submit_initial(&detector, initial),
            Err(CoreError::DuplicateReport)
        );
    }

    #[test]
    fn mining_rewards_follow_hash_power() {
        let mut p = platform();
        let blocks = 2000;
        for _ in 0..blocks {
            p.mine_block();
        }
        // Fig. 3(a): reward share ≈ hash-power share.
        let total_hp: f64 = PAPER_HASH_POWERS.iter().sum();
        for (i, prov) in p.providers().iter().enumerate() {
            let mined = p.store().blocks_by_miner(&prov.address).len() as f64;
            let share = mined / blocks as f64;
            let expected = PAPER_HASH_POWERS[i] / total_hp;
            assert!(
                (share - expected).abs() < 0.04,
                "provider {i}: share {share:.3} vs hash power {expected:.3}"
            );
        }
    }

    #[test]
    fn detector_costs_are_metered() {
        let mut p = platform();
        let sra_id = release(&mut p, vec![VulnId(1)]);
        let detector = KeyPair::from_seed(b"d");
        p.fund(detector.address(), Ether::from_ether(10));
        let (initial, _) =
            create_report_pair(&detector, sra_id, Findings::new(vec![VulnId(1)], ""));
        p.submit_initial(&detector, initial).unwrap();
        assert_eq!(p.detector_cost(&detector.address()), Ether::ZERO);
        // The registry meters the report when its block confirms.
        p.mine_blocks(1 + CONFIRMATION_DEPTH as usize);
        let cost = p.detector_cost(&detector.address());
        // ≈0.011 ether per report (Fig. 6(b)).
        assert!(cost > Ether::from_milliether(4) && cost < Ether::from_milliether(20));
    }
}

#[cfg(test)]
mod wallet_payout_tests {
    use super::*;
    use crate::report::{create_report_pair_with_wallet, Findings};
    use smartcrowd_chain::rng::SimRng;

    #[test]
    fn payout_lands_in_the_designated_wallet() {
        let mut p = Platform::new(PlatformConfig::paper());
        let mut rng = SimRng::seed_from_u64(61);
        let system = IoTSystem::build("fw", "1", p.library(), vec![VulnId(1)], &mut rng).unwrap();
        let sra_id = p
            .release_system(0, system, Ether::from_ether(1000), Ether::from_ether(25))
            .unwrap();
        let detector = KeyPair::from_seed(b"corp-detector");
        let treasury = Address::from_label("corp-treasury");
        p.fund(detector.address(), Ether::from_ether(10));
        let (initial, detailed) = create_report_pair_with_wallet(
            &detector,
            sra_id,
            Findings::new(vec![VulnId(1)], "corp finding"),
            treasury,
        );
        p.submit_initial(&detector, initial).unwrap();
        p.mine_blocks(8);
        p.submit_detailed(&detector, detailed).unwrap();
        let payouts = p.mine_blocks(8);
        assert_eq!(payouts.len(), 1);
        assert_eq!(payouts[0].wallet, treasury);
        assert_eq!(p.balance(&treasury), Ether::from_ether(25));
    }
}
