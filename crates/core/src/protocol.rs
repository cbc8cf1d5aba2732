//! The protocol core: the one verification state machine every provider
//! replica runs.
//!
//! The paper's Phase #3 (§IV-B, §V-C) is a single procedure — SRA check,
//! Algorithm 1, `AutoVerif` — that every provider must execute identically
//! for the trust argument to hold. [`Protocol`] is that procedure, written
//! once. It owns the chain backend, the pending pool and the *verified
//! knowledge* (library, scoreboard, announced SRAs, held artifacts, the
//! first `R†` per detector and SRA) and changes them only through
//! [`Protocol::admit`], [`Protocol::check_block`], [`Protocol::seal`] and
//! [`Protocol::replay`], which share one per-kind switch: the pool holds
//! only records the switch passed, and a block's records that are still
//! pooled are not put through it again. It also owns the replica's
//! [`Settlement`] — Phase #4, every balance its confirmed chain implies:
//! fees, block rewards, report metering, escrows and payouts — advanced by
//! [`Protocol::seal`] and [`Protocol::connected`].
//!
//! The drivers add only what they alone have:
//! [`crate::node::ProviderNode`] the gossip glue,
//! [`crate::platform::Platform`] the provider keys, the mining race and
//! the client-side preconditions. Neither moves money.

use crate::error::CoreError;
use crate::report::{DetailedReport, InitialReport};
use crate::settlement::Settlement;
use crate::sra::{Sra, SraId};
use smartcrowd_chain::mempool::Mempool;
use smartcrowd_chain::record::{Claim, Record, RecordKind};
use smartcrowd_chain::{sigcache, Block, ChainBackend, Difficulty, Ether};
use smartcrowd_crypto::{Address, Digest, DigestMap};
use smartcrowd_detect::autoverif::AutoVerifier;
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_net::Scoreboard;
use smartcrowd_telemetry::counter;
use std::collections::hash_map::Entry;

/// What [`Protocol::admit`] queued.
#[derive(Debug)]
#[allow(missing_docs)] // variant fields are described on their variant
pub enum Admitted {
    /// A record verified against everything this replica holds.
    Verified,
    /// A verified SRA this replica had not seen before; its artifact
    /// (`U_l`, hashing to the announced `image_hash`) may need fetching.
    NewSra { image_hash: Digest },
}

/// One replica's protocol state over chain backend `B`.
#[derive(Debug)]
pub struct Protocol<B: ChainBackend + ?Sized = dyn ChainBackend> {
    mempool: Mempool,
    library: VulnLibrary,
    scoreboard: Scoreboard,
    /// Verified SRAs seen so far.
    sras: DigestMap<SraId, Sra>,
    /// Integrity-checked artifacts (`Δ_id` → image).
    artifacts: DigestMap<SraId, IoTSystem>,
    /// First verified initial report per (SRA, detector).
    initials: DigestMap<(SraId, Address), InitialReport>,
    settlement: Settlement,
    backend: Box<B>,
}

impl<B: ChainBackend + ?Sized> Protocol<B> {
    /// A replica with no knowledge beyond `library`, over `backend`,
    /// settling from the genesis `allocation` (see [`Settlement::new`]).
    pub fn new(backend: Box<B>, library: VulnLibrary, allocation: &[(Address, Ether)]) -> Self {
        Protocol {
            mempool: Mempool::default(),
            library,
            scoreboard: Scoreboard::default(),
            sras: DigestMap::default(),
            artifacts: DigestMap::default(),
            initials: DigestMap::default(),
            settlement: Settlement::new(backend.genesis_id(), allocation),
            backend,
        }
    }

    /// A replica rebooted over a recovered chain, the only state that
    /// survives a crash: the SRAs and initial reports on its canonical
    /// branch are re-derived through the same switch as live traffic so
    /// Algorithm 1 can keep running, and the settlement is folded over its
    /// confirmed prefix, once. Pool, scoreboard and artifacts start empty.
    /// `seen` is shown every canonical record on the way.
    pub fn replay(
        backend: Box<B>,
        library: VulnLibrary,
        allocation: &[(Address, Ether)],
        mut seen: impl FnMut(&Record),
    ) -> Self {
        let mut core = Self::new(backend, library, allocation);
        for block in core.backend.canonical_blocks() {
            for record in block.records() {
                seen(record);
                // Recovery already validated the chain; a record that no
                // longer verifies just contributes no knowledge.
                let _ = Payload::decode(record).and_then(|p| core.index(p, false, false));
            }
        }
        core.settle();
        core
    }

    /// Admits one record from a client or from gossip: signature (through
    /// the process-wide cache), the switch with detector isolation
    /// applied, then the pending pool, which so holds only judged records.
    /// The payload is decoded first, so that a payload signature by the
    /// record's own sender is checked in that sender's pass
    /// ([`sigcache::verify_claimed`]; PROTOCOL.md §4.3; why one pass may
    /// stand for both recoveries is on
    /// [`smartcrowd_crypto::ecdsa::recover_groups`]): the switch then
    /// skips only that recovery, and every check keeps its order. A record
    /// the pool would refuse is refused first
    /// ([`Mempool::check_admission`]), so it leaves no knowledge behind:
    /// one the pool already holds is byte for byte the record judged when
    /// it was pooled (its id is Keccak over the whole signed encoding), and
    /// one a full pool turns away is neither indexed nor scored. Once the
    /// switch passes, the pool takes the record: [`Mempool::insert`] checks
    /// no signature, so this is the one signature check a pooled record
    /// gets on its way in.
    ///
    /// # Errors
    ///
    /// - [`CoreError::Chain`] for a record already pending
    ///   ([`smartcrowd_chain::ChainError::DuplicatePending`]), a full pool
    ///   of better-paying records, or a bad record signature;
    /// - [`CoreError::NotFound`] for an `R*` whose artifact is not held:
    ///   submit it again after `Protocol::hold_artifact`;
    /// - [`CoreError::Payload`] and the SRA / Algorithm-1 failures for a
    ///   payload that does not verify, [`CoreError::DetectorIsolated`] for
    ///   an `R†` from an isolated detector;
    /// - [`CoreError::DuplicateReport`] for an SRA, or a detector's `R†`,
    ///   that is already indexed; [`CoreError::InitialNotConfirmed`] for
    ///   an `R*` with no indexed `R†`.
    pub fn admit(&mut self, record: Record) -> Result<Admitted, CoreError> {
        self.mempool.check_admission(&record)?;
        let payload = Payload::decode(&record);
        let claim = payload.as_ref().ok().and_then(|p| p.claim(record.sender()));
        let vouched = sigcache::verify_claimed(&record, claim)?;
        let admitted = self.index(payload?, vouched, true)?;
        self.mempool.insert(record)?;
        Ok(admitted)
    }

    /// Per-record verification of a block sealed elsewhere (§V-C): every
    /// signature — through the process-wide cache, the misses checked in
    /// parallel on the global pool, each payload signature by its record's
    /// sender in that sender's group as in [`Protocol::admit`] — then the
    /// switch, indexing what verifies as it goes. Record `i`'s signature
    /// verdict is consulted before its semantic verdict and the first
    /// failure wins, whatever the recoveries' schedule. A record this
    /// replica still pools skips the switch: its id is Keccak over the
    /// whole signed encoding, so it is byte for byte what
    /// [`Protocol::admit`] judged. Knowledge this replica already holds,
    /// or an `R*` it cannot judge here (no `R†` or no artifact yet), does
    /// not reject a block; nor does detector isolation — blocks are judged
    /// on content. Linkage and structure are the store's to check when the
    /// block is committed.
    pub fn check_block(&mut self, block: &Block) -> Result<(), CoreError> {
        use CoreError::{DuplicateReport, InitialNotConfirmed, NotFound};
        let records = block.records();
        let payloads: Vec<Result<Payload, CoreError>> =
            records.iter().map(Payload::decode).collect();
        let items: Vec<(&Record, Option<Claim<'_>>)> = records
            .iter()
            .zip(&payloads)
            .map(|(record, payload)| {
                let claim = payload.as_ref().ok().and_then(|p| p.claim(record.sender()));
                (record, claim)
            })
            .collect();
        let signatures = sigcache::verify_batch_claimed(&items, smartcrowd_pool::global());
        for ((record, payload), signature) in records.iter().zip(payloads).zip(signatures) {
            let vouched = signature?;
            if self.mempool.contains(&record.id()) {
                continue;
            }
            match payload.and_then(|payload| self.index(payload, vouched, false)) {
                Ok(_) | Err(DuplicateReport | InitialNotConfirmed | NotFound) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Seals the `capacity` best pending records into the next block on
    /// this replica's tip, commits it (panics on a storage fault: the
    /// backend refusing a block built on its own tip) and settles what the
    /// new block confirmed.
    pub fn seal(&mut self, miner: Address, timestamp: u64, capacity: usize) -> Block {
        let records = self.mempool.take_best(capacity);
        let parent = self.backend.best_block();
        let block = Block::assemble(
            &parent,
            records,
            timestamp.max(parent.header().timestamp),
            Difficulty::from_u64(1),
            miner,
        );
        self.backend
            .commit(block.clone())
            .expect("own block extends own tip");
        self.settle();
        block
    }

    /// Folds the blocks confirmed since the last call into the settlement.
    fn settle(&mut self) {
        self.settlement.advance(&*self.backend);
    }

    /// The switch: verify → index, per payload kind. Assumes the record
    /// signature was checked; `vouched` says the payload's own signature
    /// was checked with it. `isolation` applies the scoreboard filter to
    /// initial reports (live submissions only).
    fn index(
        &mut self,
        payload: Payload,
        vouched: bool,
        isolation: bool,
    ) -> Result<Admitted, CoreError> {
        match payload {
            Payload::Sra(sra) => {
                sra.verify_vouched(vouched)?;
                match self.sras.entry(*sra.id()) {
                    Entry::Occupied(_) => Err(CoreError::DuplicateReport),
                    Entry::Vacant(slot) => {
                        let image_hash = *sra.image_hash();
                        slot.insert(*sra);
                        Ok(Admitted::NewSra { image_hash })
                    }
                }
            }
            Payload::Initial(report) => {
                if isolation && !self.scoreboard.admits(&report.detector()) {
                    counter!("core.verify.isolated_rejections").inc();
                    return Err(CoreError::DetectorIsolated);
                }
                report.verify_vouched(vouched)?;
                match self.initials.entry((*report.sra_id(), report.detector())) {
                    Entry::Occupied(_) => Err(CoreError::DuplicateReport),
                    Entry::Vacant(slot) => {
                        slot.insert(*report);
                        Ok(Admitted::Verified)
                    }
                }
            }
            Payload::Detailed(report) => {
                self.check_detailed(&report, vouched)?;
                Ok(Admitted::Verified)
            }
            Payload::Transfer => Ok(Admitted::Verified),
        }
    }

    /// Algorithm 1 lines 10–24 against held knowledge: the indexed `R†`
    /// (none: [`CoreError::InitialNotConfirmed`]) and the held artifact
    /// (none: [`CoreError::NotFound`]), then `ID*` and `D*_Sign`, the
    /// binding to the `R†`, and `AutoVerif`, which credits the detector on
    /// the scoreboard or strikes it — the §V-C isolation mechanism.
    fn check_detailed(&mut self, report: &DetailedReport, vouched: bool) -> Result<(), CoreError> {
        let initial = self
            .initials
            .get(&(*report.sra_id(), report.detector()))
            .ok_or(CoreError::InitialNotConfirmed)?;
        let system = self
            .artifacts
            .get(report.sra_id())
            .ok_or(CoreError::NotFound)?;
        report.verify_vouched(vouched)?;
        report.binds_to(initial)?;
        let verifier = AutoVerifier::new(&self.library);
        let claims = &report.findings().vulnerabilities;
        counter!("core.verify.autoverif_runs").inc();
        if verifier.auto_verif(system, claims) {
            counter!("core.verify.autoverif_pass").inc();
            self.scoreboard.record_confirmed(report.detector());
            Ok(())
        } else {
            counter!("core.verify.autoverif_fail").inc();
            let (_, rejected) = verifier.triage(system, claims);
            self.scoreboard.record_strike(report.detector());
            Err(CoreError::AutoVerifFailed {
                rejected: rejected.iter().map(|v| v.0).collect(),
            })
        }
    }

    /// Holds an integrity-checked artifact for `AutoVerif`.
    pub(crate) fn hold_artifact(&mut self, sra_id: SraId, system: IoTSystem) {
        self.artifacts.insert(sra_id, system);
    }

    /// Follows up a block from elsewhere connecting to the chain: drops the
    /// pending records it already carries, settles what it confirmed.
    pub fn connected(&mut self, block: &Block) {
        self.mempool.remove_included(block);
        self.settle();
    }

    /// This replica's chain.
    pub fn store(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the chain backend (block reassembly and
    /// fault-injection harnesses).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The contract state this replica's confirmed chain implies.
    pub fn settlement(&self) -> &Settlement {
        &self.settlement
    }

    /// Mutable settlement access (genesis allocation entries).
    pub(crate) fn settlement_mut(&mut self) -> &mut Settlement {
        &mut self.settlement
    }

    /// Pending records.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// The vulnerability library backing `AutoVerif`.
    pub fn library(&self) -> &VulnLibrary {
        &self.library
    }

    /// Mutable library access (newly disclosed vulnerabilities).
    pub(crate) fn library_mut(&mut self) -> &mut VulnLibrary {
        &mut self.library
    }

    /// The detector scoreboard.
    pub fn scoreboard(&self) -> &Scoreboard {
        &self.scoreboard
    }

    /// A verified SRA by id.
    pub fn sra(&self, sra_id: &SraId) -> Option<&Sra> {
        self.sras.get(sra_id)
    }

    /// Every verified SRA, in no particular order.
    pub fn sras(&self) -> impl Iterator<Item = &Sra> {
        self.sras.values()
    }

    /// The held artifact of an SRA.
    pub fn artifact(&self, sra_id: &SraId) -> Option<&IoTSystem> {
        self.artifacts.get(sra_id)
    }

    /// The indexed first initial report of `detector` on an SRA.
    pub fn initial(&self, sra_id: &SraId, detector: &Address) -> Option<&InitialReport> {
        self.initials.get(&(*sra_id, *detector))
    }
}

/// A record's payload, decoded once for both the signature pass and the
/// switch. Boxed, so that a block's worth of mostly transfers stays small
/// as it is decoded up front and moved through the switch.
enum Payload {
    Transfer,
    Sra(Box<Sra>),
    Initial(Box<InitialReport>),
    Detailed(Box<DetailedReport>),
}

impl Payload {
    fn decode(record: &Record) -> Result<Payload, CoreError> {
        let bytes = record.payload();
        Ok(match record.kind() {
            RecordKind::Transfer => Payload::Transfer,
            RecordKind::Sra => Payload::Sra(Box::new(Sra::decode(bytes)?)),
            RecordKind::InitialReport => Payload::Initial(Box::new(InitialReport::decode(bytes)?)),
            RecordKind::DetailedReport => {
                Payload::Detailed(Box::new(DetailedReport::decode(bytes)?))
            }
        })
    }

    /// The payload's own signature (`P_Sign`, `D†_Sign`, `D*_Sign`) when
    /// its declared signer is the record's `sender`: the one rule that
    /// puts it in the sender's signature pass (PROTOCOL.md §4.3).
    fn claim(&self, sender: Address) -> Option<Claim<'_>> {
        let (signer, claim) = match self {
            Payload::Transfer => return None,
            Payload::Sra(sra) => sra.claim(),
            Payload::Initial(report) => report.claim(),
            Payload::Detailed(report) => report.claim(),
        };
        (signer == sender).then_some(claim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{create_report_pair, Findings};
    use smartcrowd_chain::rng::SimRng;
    use smartcrowd_chain::ChainStore;
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_detect::vulnerability::VulnId;
    use smartcrowd_net::scoreboard::STRIKE_LIMIT;

    /// A replica holding the artifact of SRA `[7; 32]`, which carries
    /// vulnerabilities 1–3, and a detector.
    fn setup() -> (Protocol, KeyPair) {
        let library = VulnLibrary::synthetic(30, 1);
        let mut rng = SimRng::seed_from_u64(2);
        let vulns = vec![VulnId(1), VulnId(2), VulnId(3)];
        let system = IoTSystem::build("fw", "1", &library, vulns, &mut rng).unwrap();
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut core: Protocol = Protocol::new(Box::new(ChainStore::new(genesis)), library, &[]);
        core.hold_artifact([7; 32], system);
        (core, KeyPair::from_seed(b"detector"))
    }

    /// Indexes `R†` with isolation applied, then judges `R*`.
    fn judge(
        core: &mut Protocol,
        kp: &KeyPair,
        sra_id: SraId,
        claims: Vec<VulnId>,
    ) -> Result<(), CoreError> {
        let (initial, detailed) = create_report_pair(kp, sra_id, Findings::new(claims, "x"));
        core.index(Payload::Initial(Box::new(initial)), false, true)?;
        core.index(Payload::Detailed(Box::new(detailed)), false, false)
            .map(|_| ())
    }

    #[test]
    fn honest_report_passes_and_earns_credit() {
        let (mut core, kp) = setup();
        assert_eq!(
            judge(&mut core, &kp, [7; 32], vec![VulnId(1), VulnId(3)]),
            Ok(())
        );
        assert_eq!(core.scoreboard().score(&kp.address()).confirmed, 1);
        assert_eq!(core.scoreboard().score(&kp.address()).strikes, 0);
    }

    #[test]
    fn forged_report_strikes_detector() {
        // Claims a vulnerability that is not in the artifact.
        let (mut core, kp) = setup();
        assert_eq!(
            judge(&mut core, &kp, [7; 32], vec![VulnId(20)]),
            Err(CoreError::AutoVerifFailed { rejected: vec![20] })
        );
        assert_eq!(core.scoreboard().score(&kp.address()).strikes, 1);
    }

    #[test]
    fn isolated_detector_rejected_at_phase_one() {
        let (mut core, kp) = setup();
        for _ in 0..STRIKE_LIMIT {
            core.scoreboard.record_strike(kp.address());
        }
        let (initial, _) = create_report_pair(&kp, [7; 32], Findings::new(vec![VulnId(1)], ""));
        let payload = || Payload::Initial(Box::new(initial.clone()));
        assert!(matches!(
            core.index(payload(), false, true),
            Err(CoreError::DetectorIsolated)
        ));
        // Without isolation (a block's record) the same report is indexed.
        assert!(core.index(payload(), false, false).is_ok());
    }

    #[test]
    fn repeated_forgeries_lead_to_isolation() {
        let (mut core, kp) = setup();
        for round in 0..STRIKE_LIMIT {
            // A fresh SRA each round, its artifact the same image.
            let sra_id = [round as u8; 32];
            let system = core.artifact(&[7; 32]).unwrap().clone();
            core.hold_artifact(sra_id, system);
            let verdict = judge(&mut core, &kp, sra_id, vec![VulnId(25)]);
            assert!(
                matches!(verdict, Err(CoreError::AutoVerifFailed { .. })),
                "round {round}"
            );
        }
        // The next submission is filtered before any work happens.
        assert_eq!(
            judge(&mut core, &kp, [9; 32], vec![VulnId(1)]),
            Err(CoreError::DetectorIsolated)
        );
    }

    #[test]
    fn partially_forged_report_lists_only_bad_claims() {
        let (mut core, kp) = setup();
        let claims = vec![VulnId(1), VulnId(21), VulnId(22)];
        assert_eq!(
            judge(&mut core, &kp, [7; 32], claims),
            Err(CoreError::AutoVerifFailed {
                rejected: vec![21, 22]
            })
        );
    }
}
