//! A full SmartCrowd provider node.
//!
//! [`crate::platform::Platform`] runs the protocol inside one consensus
//! view — convenient for economics experiments, but the paper's Phase #3
//! claim is *distributed*: "leveraging blockchain consensus, SmartCrowd is
//! fault-tolerant for verifying and storing detection results that is
//! determined by the majority of IoT providers" (§IV-B). [`ProviderNode`]
//! is the unit that claim is about: an independent process communicating
//! only through [`smartcrowd_net::Message`]s.
//!
//! A node is a [`Protocol`] core — chain, pending pool, verified
//! knowledge and the [`Settlement`] of its confirmed chain, driven through
//! `admit` / `check_block` / `seal` / `connected` / `replay` exactly as
//! [`crate::platform::Platform`] drives its own — plus the gossip glue
//! only a networked replica needs: the sync buffer that reassembles
//! out-of-order blocks, serving released images and downloading others',
//! the `R*` records waiting for an artifact, the refused blocks, and the
//! outbox. A node boots one way, [`ProviderNode::open`]: a first boot
//! replays a chain of genesis alone. A node moves no money itself: its
//! settlement pays each confirmed block's miner its reward and fees, as on
//! every replica. Convergence of honest nodes — tips, and with them every
//! balance, escrow and payout — is a *theorem of the message handlers*,
//! tested in `sim::fleet` and under faults in `smartcrowd-chaos`.

use crate::economics::REPORT_FEE;
use crate::error::CoreError;
use crate::protocol::{Admitted, Protocol};
use crate::settlement::Settlement;
use crate::sra::{Sra, SraId};
use smartcrowd_chain::header::BlockId;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::{Block, ChainBackend, ChainError, ChainQuery, ChainStore, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::{Address, Digest, DigestSet};
use smartcrowd_detect::library::VulnLibrary;
use smartcrowd_detect::system::IoTSystem;
use smartcrowd_net::sync::{SyncBuffer, SyncOutcome};
use smartcrowd_net::{Message, Scoreboard};
use std::collections::VecDeque;

/// How many `R*` records a node keeps waiting for an artifact, and how many
/// refused blocks it remembers; the oldest goes first.
const MAX_PARKED: usize = 1024;
const MAX_REFUSED: usize = 1024;

/// What a node wants sent to its peers after handling a message.
#[derive(Debug, Default)]
pub struct Outbox {
    /// Messages to broadcast to every peer.
    pub broadcast: Vec<Message>,
}

impl Outbox {
    fn push(&mut self, m: Message) {
        self.broadcast.push(m);
    }
}

/// An independent IoT-provider node.
#[derive(Debug)]
pub struct ProviderNode {
    keypair: KeyPair,
    address: Address,
    core: Protocol,
    sync: SyncBuffer,
    /// Outstanding image downloads.
    pending_images: DigestSet<Digest>,
    /// `R*` records that arrived before their artifact, oldest first;
    /// submitted again when an image arrives.
    parked: VecDeque<Record>,
    /// Well-formed blocks [`Protocol::check_block`] refused, oldest first.
    refused: VecDeque<BlockId>,
    /// Block ids already requested from peers (ask once).
    requested_blocks: DigestSet<BlockId>,
    /// Per-sender record sequence for this node's own submissions.
    nonce: u64,
}

impl ProviderNode {
    /// Boots a node from the shared genesis and vulnerability library,
    /// on the in-memory backend.
    pub fn new(keypair: KeyPair, genesis: Block, library: VulnLibrary) -> Self {
        Self::open(keypair, Box::new(ChainStore::new(genesis)), library, &[])
    }

    /// Opens a node over a chain backend — a fresh store holding only
    /// genesis, a store `storage::import_chain` rebuilt from an export, or
    /// a reopened [`smartcrowd_chain::storage::DurableStore`] — with the
    /// genesis `allocation` every node of its fleet settles from.
    ///
    /// The chain is the only state that survives a crash; all soft state —
    /// mempool, sync buffer, artifacts, scoreboard — starts empty.
    /// Verified SRAs and initial reports are re-derived from the canonical
    /// chain ([`Protocol::replay`]) so Algorithm 1 can keep running, the
    /// settlement is folded from `allocation`, and the record nonce
    /// resumes past the highest on-chain nonce this key already used (a
    /// replayed nonce would produce duplicate record ids) — in one walk of
    /// the chain, which on a fresh store visits genesis alone.
    pub fn open(
        keypair: KeyPair,
        backend: Box<dyn ChainBackend>,
        library: VulnLibrary,
        allocation: &[(Address, Ether)],
    ) -> Self {
        let address = keypair.address();
        let mut nonce = 0;
        let core = Protocol::replay(backend, library, allocation, |record| {
            if record.sender() == address {
                nonce = nonce.max(record.nonce());
            }
        });
        ProviderNode {
            address,
            keypair,
            core,
            sync: SyncBuffer::new(),
            pending_images: DigestSet::default(),
            parked: VecDeque::new(),
            refused: VecDeque::new(),
            requested_blocks: DigestSet::default(),
            nonce,
        }
    }

    /// The node's account address.
    pub fn address(&self) -> Address {
        self.address
    }

    /// The node's chain view (read-only queries over whatever backend —
    /// in-memory or paged durable — this node runs on).
    pub fn store(&self) -> &dyn ChainQuery {
        self.core.store()
    }

    /// Mutable access to the chain backend (fault-injection harnesses
    /// downcast this to the concrete store).
    pub fn backend_mut(&mut self) -> &mut dyn ChainBackend {
        self.core.backend_mut()
    }

    /// The node's local scoreboard.
    pub fn scoreboard(&self) -> &Scoreboard {
        self.core.scoreboard()
    }

    /// Pending records in this node's mempool.
    pub fn mempool_len(&self) -> usize {
        self.core.mempool_len()
    }

    /// The contract state this node's confirmed chain implies.
    pub fn settlement(&self) -> &Settlement {
        self.core.settlement()
    }

    /// Releases a system from this node: holds the image as the SRA's
    /// artifact, signs the SRA, and returns the record broadcast.
    pub fn release(
        &mut self,
        system: IoTSystem,
        insurance: Ether,
        incentive_per_vuln: Ether,
    ) -> (SraId, Outbox) {
        let sra = Sra::announce(&self.keypair, &system, insurance, incentive_per_vuln);
        let sra_id = *sra.id();
        self.core.hold_artifact(sra_id, system);
        self.nonce += 1;
        let record = Record::signed(
            RecordKind::Sra,
            sra.encode(),
            REPORT_FEE,
            self.nonce,
            &self.keypair,
        );
        let mut out = Outbox::default();
        self.admit(record.clone(), &mut out);
        out.push(Message::Record(record));
        (sra_id, out)
    }

    /// Runs a record through the core and does the gossip-side follow-up:
    /// start the artifact download for a new SRA, park an `R*` the core
    /// cannot judge yet (`handle_image` submits it again), and count the
    /// rejections operators care about. A [`ChainError::DuplicatePending`]
    /// means a peer redelivered something already queued — expected under
    /// gossip, not worth counting; any other pool rejection (fee too low
    /// for a full pool) or a parked record pushed out by newer ones is a
    /// genuine drop, counted under `core.node.record_dropped`. Records that
    /// fail verification are dropped silently: the sender is unauthenticated.
    fn admit(&mut self, record: Record, out: &mut Outbox) {
        use smartcrowd_telemetry::counter;
        match self.core.admit(record.clone()) {
            Ok(Admitted::Verified) => {}
            Ok(Admitted::NewSra { image_hash }) => {
                // Start the U_l download unless we released it.
                if self.released_image(&image_hash).is_none()
                    && self.pending_images.insert(image_hash)
                {
                    out.push(Message::ImageRequest { image_hash });
                }
            }
            Err(CoreError::NotFound) if self.parked.contains(&record) => {}
            Err(CoreError::NotFound) => {
                if self.parked.len() == MAX_PARKED {
                    self.parked.pop_front();
                    counter!("core.node.record_dropped").inc();
                }
                self.parked.push_back(record);
            }
            Err(CoreError::Chain(ChainError::RecordRejected { .. })) => {
                counter!("core.node.records_bad_sig").inc();
            }
            Err(CoreError::Chain(ChainError::DuplicatePending { .. })) => {}
            Err(CoreError::Chain(_)) => counter!("core.node.record_dropped").inc(),
            Err(_) => {}
        }
    }

    /// Handles one incoming message, returning what to gossip onward.
    pub fn handle(&mut self, message: Message) -> Outbox {
        let mut out = Outbox::default();
        match message {
            Message::Record(record) => {
                smartcrowd_telemetry::counter!("core.node.records_received").inc();
                self.admit(record, &mut out);
            }
            Message::Block(block) => self.handle_block(*block, &mut out),
            Message::ImageRequest { image_hash } => {
                if let Some(system) = self.released_image(&image_hash) {
                    out.push(Message::ImageResponse {
                        image_hash,
                        image: system.image().to_vec(),
                    });
                }
            }
            Message::ImageResponse { image_hash, image } => {
                self.handle_image(image_hash, image, &mut out);
            }
            Message::BlockRequest { id } => {
                if let Some(block) = self.core.store().get_block(&id) {
                    out.push(Message::Block(Box::new(block)));
                }
            }
        }
        out
    }

    /// Handles one gossip round's deliveries in delivery order: exactly
    /// the per-message [`ProviderNode::handle`] calls, their broadcasts
    /// concatenated. Each record's signature is checked once, in
    /// `Protocol::admit`, with its payload claim.
    pub fn handle_batch(&mut self, messages: Vec<Message>) -> Outbox {
        let mut out = Outbox::default();
        for message in messages {
            out.broadcast.extend(self.handle(message).broadcast);
        }
        out
    }

    /// The artifact this node holds for an SRA it announced of `image_hash`.
    fn released_image(&self, image_hash: &Digest) -> Option<&IoTSystem> {
        let mut own = self
            .core
            .sras()
            .filter(|sra| sra.provider() == self.address);
        let sra = own.find(|sra| sra.image_hash() == image_hash)?;
        self.core.artifact(sra.id())
    }

    fn handle_image(&mut self, image_hash: Digest, image: Vec<u8>, out: &mut Outbox) {
        if !self.pending_images.remove(&image_hash) {
            return; // unsolicited
        }
        // Find the SRA announcing this hash and integrity-check (U_h).
        let Some(sra) = self.core.sras().find(|s| *s.image_hash() == image_hash) else {
            return;
        };
        if !sra.image_matches(&image) {
            return; // corrupted or spoofed download
        }
        // Reconstruct an artifact view for AutoVerif: ground truth is not
        // known to the node; containment checks run over the raw bytes.
        let system = IoTSystem::from_parts(sra.name(), sra.version(), image);
        let sra_id = *sra.id();
        self.core.hold_artifact(sra_id, system);
        // What waits for a different artifact parks again, in order.
        for record in std::mem::take(&mut self.parked) {
            self.admit(record, out);
        }
    }

    /// The block gate, each check in one place and once per block: a block
    /// the store already holds was checked when it was stored, one waiting
    /// in the sync buffer when it was buffered, and a refused one stays
    /// refused; any other block gets every record's signature and §V-C
    /// semantic check from [`Protocol::check_block`], then duplicate /
    /// linkage / structure from the store's commit, reached through the
    /// sync buffer (which holds a block whose parent is still missing and
    /// commits it, under the same checks, once the parent connects).
    fn handle_block(&mut self, block: Block, out: &mut Outbox) {
        use smartcrowd_telemetry::counter;
        counter!("core.node.blocks_received").inc();
        // Every peer re-gossips every block it connects, so most
        // deliveries are of a block already stored; a duplicating link or
        // several peers answering one `BlockRequest` re-deliver the rest.
        let id = block.id();
        if self.core.store().contains_block(&id)
            || self.sync.holds(&block)
            || self.refused.contains(&id)
        {
            return;
        }
        if self.core.check_block(&block).is_err() {
            counter!("core.node.blocks_rejected").inc();
            // The id hashes the header alone: it stands for the records,
            // and so for this verdict, only if the header's Merkle root is
            // theirs. Else a tampered copy would shut out the honest block.
            if block.validate_structure().is_ok() {
                if self.refused.len() == MAX_REFUSED {
                    self.refused.pop_front();
                }
                self.refused.push_back(id);
            }
            return;
        }
        match self.sync.offer(self.core.backend_mut(), block) {
            SyncOutcome::Connected { blocks } => {
                for connected in &blocks {
                    self.core.connected(connected);
                }
                // Re-gossip the offered block so partitioned late-joiners
                // converge.
                if let Some(offered) = blocks.into_iter().next() {
                    out.push(Message::Block(Box::new(offered)));
                }
            }
            SyncOutcome::Buffered => {
                // Ask peers for the missing ancestors, once per id.
                for id in self.sync.missing_parents() {
                    if self.requested_blocks.insert(id) {
                        out.push(Message::BlockRequest { id });
                    }
                }
            }
            _ => {}
        }
    }

    /// Mines the next block from this node's mempool (called when this
    /// node wins the race), returning the block to broadcast.
    pub fn mine(&mut self, timestamp: u64, capacity: usize) -> (Block, Outbox) {
        let block = self.core.seal(self.address, timestamp, capacity);
        smartcrowd_telemetry::counter!("core.node.blocks_mined").inc();
        let mut out = Outbox::default();
        out.push(Message::Block(Box::new(block.clone())));
        (block, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{create_report_pair, Findings};
    use smartcrowd_chain::rng::SimRng;
    use smartcrowd_chain::Difficulty;
    use smartcrowd_detect::vulnerability::VulnId;

    fn setup_two_nodes() -> (ProviderNode, ProviderNode, VulnLibrary) {
        let library = VulnLibrary::synthetic(50, 1);
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let a = ProviderNode::new(
            KeyPair::from_seed(b"node-a"),
            genesis.clone(),
            library.clone(),
        );
        let b = ProviderNode::new(KeyPair::from_seed(b"node-b"), genesis, library.clone());
        (a, b, library)
    }

    fn block_time(height: u64) -> u64 {
        Block::genesis(Difficulty::from_u64(1)).header().timestamp + 15 * height
    }

    fn release_and_sync(
        a: &mut ProviderNode,
        b: &mut ProviderNode,
        library: &VulnLibrary,
        vulns: Vec<VulnId>,
    ) -> SraId {
        let mut rng = SimRng::seed_from_u64(5);
        let system = IoTSystem::build("fw", "1", library, vulns, &mut rng).unwrap();
        let (sra_id, out) = a.release(system, Ether::from_ether(1000), Ether::from_ether(25));
        // Deliver the SRA to b; b requests the image; a serves; b verifies.
        for m in out.broadcast {
            for reply in b.handle(m).broadcast {
                for reply2 in a.handle(reply).broadcast {
                    b.handle(reply2);
                }
            }
        }
        sra_id
    }

    #[test]
    fn sra_and_image_propagate_with_integrity_check() {
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        assert!(b.core.sra(&sra_id).is_some());
        assert!(
            b.core.artifact(&sra_id).is_some(),
            "b downloaded and verified the image"
        );
        assert_eq!(b.mempool_len(), 1, "the SRA record is queued");
    }

    #[test]
    fn detailed_report_autoverified_remotely() {
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1), VulnId(2)]);
        let detector = KeyPair::from_seed(b"detector");
        let (initial, detailed) = create_report_pair(
            &detector,
            sra_id,
            Findings::new(vec![VulnId(1)], "found one"),
        );
        let initial_record = Record::signed(
            RecordKind::InitialReport,
            initial.encode(),
            Ether::from_milliether(11),
            0,
            &detector,
        );
        let detailed_record = Record::signed(
            RecordKind::DetailedReport,
            detailed.encode(),
            Ether::from_milliether(11),
            1,
            &detector,
        );
        b.handle(Message::Record(initial_record));
        assert_eq!(b.mempool_len(), 2);
        b.handle(Message::Record(detailed_record));
        assert_eq!(
            b.mempool_len(),
            3,
            "AutoVerif passed against the downloaded image"
        );
        assert_eq!(b.scoreboard().score(&detector.address()).confirmed, 1);
    }

    #[test]
    fn forged_detailed_report_striked_remotely() {
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        let cheat = KeyPair::from_seed(b"cheat");
        let (initial, forged) = create_report_pair(
            &cheat,
            sra_id,
            Findings::new(vec![VulnId(40)], "fabricated"),
        );
        b.handle(Message::Record(Record::signed(
            RecordKind::InitialReport,
            initial.encode(),
            Ether::from_milliether(11),
            0,
            &cheat,
        )));
        let before = b.mempool_len();
        b.handle(Message::Record(Record::signed(
            RecordKind::DetailedReport,
            forged.encode(),
            Ether::from_milliether(11),
            1,
            &cheat,
        )));
        assert_eq!(b.mempool_len(), before, "forged report not queued");
        assert_eq!(b.scoreboard().score(&cheat.address()).strikes, 1);
    }

    #[test]
    fn blocks_propagate_and_clear_mempools() {
        let (mut a, mut b, library) = setup_two_nodes();
        release_and_sync(&mut a, &mut b, &library, vec![]);
        let (block, out) = a.mine(
            Block::genesis(Difficulty::from_u64(1)).header().timestamp + 15,
            16,
        );
        assert_eq!(a.store().best_height(), 1);
        for m in out.broadcast {
            b.handle(m);
        }
        assert_eq!(b.store().best_height(), 1);
        assert_eq!(b.store().best_tip(), block.id());
        assert_eq!(b.mempool_len(), 0, "included records cleared");
    }

    fn transfer(seed: &[u8], fee_milli: u64) -> Record {
        Record::signed(
            RecordKind::Transfer,
            vec![1],
            Ether::from_milliether(fee_milli),
            0,
            &KeyPair::from_seed(seed),
        )
    }

    /// The process-global counters the block gate can move.
    fn gate_counters() -> [u64; 4] {
        use smartcrowd_telemetry::counter;
        [
            counter!("chain.sigcache.hit").get(),
            counter!("chain.sigcache.miss").get(),
            counter!("chain.validate_block.calls").get(),
            counter!("chain.store.blocks_rejected").get(),
        ]
    }

    #[test]
    fn redelivered_known_block_is_not_checked_again() {
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        let detector = KeyPair::from_seed(b"detector");
        let (initial, detailed) = create_report_pair(
            &detector,
            sra_id,
            Findings::new(vec![VulnId(1)], "found one"),
        );
        let reports = [
            (RecordKind::InitialReport, initial.encode()),
            (RecordKind::DetailedReport, detailed.encode()),
        ];
        for (nonce, (kind, payload)) in reports.into_iter().enumerate() {
            let record = Record::signed(
                kind,
                payload,
                Ether::from_milliether(11),
                nonce as u64,
                &detector,
            );
            a.handle(Message::Record(record.clone()));
            b.handle(Message::Record(record));
        }
        let (block, _) = a.mine(block_time(1), 16);
        assert_eq!(block.records().len(), 3);
        let relayed = b.handle(Message::Block(Box::new(block.clone())));
        assert_eq!(relayed.broadcast.len(), 1, "a new block is re-gossiped");
        assert_eq!(b.store().best_tip(), block.id());
        let credited = b.scoreboard().score(&detector.address()).confirmed;

        // Every peer re-gossips the block, so it keeps arriving. The
        // counters are process-global and other tests of this binary bump
        // them, so look for one quiet re-delivery; a gate that re-checked
        // the block would move `chain.sigcache.hit` itself every time.
        let quiet = (0..64).any(|_| {
            let before = gate_counters();
            let out = b.handle(Message::Block(Box::new(block.clone())));
            assert!(out.broadcast.is_empty(), "nothing to relay");
            gate_counters() == before
        });
        assert!(quiet, "a stored block moved the gate's counters");
        assert_eq!(
            b.scoreboard().score(&detector.address()).confirmed,
            credited,
            "its R* was not judged again"
        );
    }

    /// A gossip round's records are each looked up in the signature cache
    /// once, in `Protocol::admit`: a cold transfer and a cold `R†` (its
    /// `D_Sign` checked in its sender's pass) are one miss each and no hit.
    /// The counters are process-global and other tests of this binary bump
    /// them, so look for one quiet round, each with records never seen.
    #[test]
    fn gossip_round_looks_up_each_cold_record_once() {
        use smartcrowd_telemetry::counter;
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        let lookups = || {
            [
                counter!("chain.sigcache.miss").get(),
                counter!("chain.sigcache.hit").get(),
            ]
        };
        let quiet = (0..64).any(|attempt| {
            let detector = KeyPair::from_seed(format!("round detector {attempt}").as_bytes());
            let (initial, _) =
                create_report_pair(&detector, sra_id, Findings::new(vec![VulnId(1)], "one"));
            let round = vec![
                Message::Record(transfer(format!("round payer {attempt}").as_bytes(), 11)),
                Message::Record(Record::signed(
                    RecordKind::InitialReport,
                    initial.encode(),
                    Ether::from_milliether(11),
                    0,
                    &detector,
                )),
            ];
            let pooled = b.mempool_len();
            let before = lookups();
            b.handle_batch(round);
            let after = lookups();
            assert_eq!(b.mempool_len(), pooled + 2, "both records pooled");
            [after[0] - before[0], after[1] - before[1]] == [2, 0]
        });
        assert!(quiet, "no round of two cold records read 2 misses, 0 hits");
    }

    #[test]
    fn forged_blocks_are_refused_and_never_stored() {
        let (mut a, mut b, _) = setup_two_nodes();
        a.handle(Message::Record(transfer(b"payer", 11)));
        let (honest, _) = a.mine(block_time(1), 16);
        a.handle(Message::Record(transfer(b"second payer", 11)));
        let (next, _) = a.mine(block_time(2), 16);
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let refused_by_store =
            |forged: &Block| ChainStore::new(genesis.clone()).insert(forged.clone());

        // Known parent, valid records, Merkle root not theirs. `a` sealed
        // and committed `honest`, so the record list the clone shares has
        // its root memoized — which must not stand in for the comparison.
        let mut forged_root = honest.clone();
        forged_root.header_mut().merkle_root[0] ^= 1;
        // The same, claiming the root of another list `a` has validated.
        let mut swapped_root = honest.clone();
        swapped_root.header_mut().merkle_root = next.header().merkle_root;
        for forged in [&forged_root, &swapped_root] {
            assert!(matches!(
                forged.validate_structure(),
                Err(ChainError::MerkleMismatch { .. })
            ));
            assert!(matches!(
                refused_by_store(forged),
                Err(ChainError::MerkleMismatch { .. })
            ));
        }
        // A record whose payload changed after signing, under a root
        // recomputed to match.
        let mut bytes = honest.records()[0].encode();
        bytes[1 + 20 + 8] ^= 0xff;
        let bad_signature = Block::assemble(
            &genesis,
            vec![Record::decode(&bytes).unwrap()],
            block_time(1),
            Difficulty::from_u64(1),
            a.address(),
        );
        assert!(bad_signature.validate_structure().is_ok());
        // The honest block with one payload byte flipped on the wire: the
        // decoded copy shares nothing with `honest` and hashes to its own
        // root, which is not the header's.
        let mut wire = honest.encode();
        let payload_at = wire.len() - (16 + 8 + 65) - 1;
        wire[payload_at] ^= 0xff;
        let tampered_wire = Block::decode(&wire).unwrap();
        assert_eq!(tampered_wire.id(), honest.id());
        assert!(matches!(
            refused_by_store(&tampered_wire),
            Err(ChainError::MerkleMismatch { .. })
        ));

        for forged in [
            forged_root,
            swapped_root.clone(),
            bad_signature,
            tampered_wire,
        ] {
            let out = b.handle(Message::Block(Box::new(forged.clone())));
            assert!(out.broadcast.is_empty(), "a refused block is not relayed");
            assert!(!b.store().contains_block(&forged.id()));
            assert_eq!(b.store().best_height(), 0);
            assert_eq!(b.sync.buffered(), 0);
        }
        // Nor does the node that validated both lists take the swap.
        let out = a.handle(Message::Block(Box::new(swapped_root.clone())));
        assert!(out.broadcast.is_empty());
        assert!(!a.store().contains_block(&swapped_root.id()));
        // The same node still takes the honest block.
        b.handle(Message::Block(Box::new(honest.clone())));
        assert_eq!(b.store().best_tip(), honest.id());
    }

    #[test]
    fn redelivered_buffered_orphan_is_not_judged_again() {
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        let detector = KeyPair::from_seed(b"detector");
        let (initial, detailed) = create_report_pair(
            &detector,
            sra_id,
            Findings::new(vec![VulnId(1)], "found one"),
        );
        let fee = Ether::from_milliether(11);
        let initial = Record::signed(
            RecordKind::InitialReport,
            initial.encode(),
            fee,
            0,
            &detector,
        );
        let detailed = Record::signed(
            RecordKind::DetailedReport,
            detailed.encode(),
            fee,
            1,
            &detector,
        );
        // Both nodes index the R†; only `a` hears the R* before it is mined.
        a.handle(Message::Record(initial.clone()));
        b.handle(Message::Record(initial));
        let (parent, _) = a.mine(block_time(1), 16);
        a.handle(Message::Record(detailed));
        let (child, _) = a.mine(block_time(2), 16);
        assert_eq!(child.records().len(), 1);

        // The child arrives first: `b` can judge its R* (R† indexed,
        // artifact held), credits the detector, buffers the block and asks
        // for the parent.
        let out = b.handle(Message::Block(Box::new(child.clone())));
        assert!(matches!(out.broadcast[..], [Message::BlockRequest { .. }]));
        assert_eq!(b.sync.buffered(), 1);
        assert_eq!(b.scoreboard().score(&detector.address()).confirmed, 1);
        // A duplicating link, or a second peer answering the request,
        // delivers it again.
        let out = b.handle(Message::Block(Box::new(child.clone())));
        assert!(out.broadcast.is_empty(), "nothing new to ask or relay");
        assert_eq!(b.sync.buffered(), 1);
        assert_eq!(
            b.scoreboard().score(&detector.address()).confirmed,
            1,
            "its R* was not judged again"
        );
        b.handle(Message::Block(Box::new(parent)));
        assert_eq!(b.store().best_tip(), child.id());
        assert_eq!(b.scoreboard().score(&detector.address()).confirmed, 1);
    }

    /// A detector's signed `R†` / `R*` record pair claiming `vulns`.
    fn report_records(detector: &KeyPair, sra_id: SraId, vulns: Vec<VulnId>) -> (Record, Record) {
        let (initial, detailed) = create_report_pair(detector, sra_id, Findings::new(vulns, "x"));
        let fee = Ether::from_milliether(11);
        (
            Record::signed(
                RecordKind::InitialReport,
                initial.encode(),
                fee,
                0,
                detector,
            ),
            Record::signed(
                RecordKind::DetailedReport,
                detailed.encode(),
                fee,
                1,
                detector,
            ),
        )
    }

    #[test]
    fn pooled_report_arriving_in_a_block_is_not_judged_again() {
        use smartcrowd_telemetry::counter;
        // `core.verify.autoverif_runs` is process-global and other tests of
        // this binary bump it, so look for one quiet run of the scenario.
        let quiet = (0..16u8).any(|round| {
            let (mut a, mut b, library) = setup_two_nodes();
            let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
            let detector = KeyPair::from_seed(&[b'd', round]);
            let (initial, detailed) = report_records(&detector, sra_id, vec![VulnId(1)]);
            for record in [initial, detailed] {
                a.handle(Message::Record(record.clone()));
                b.handle(Message::Record(record));
            }
            let (block, _) = a.mine(block_time(1), 16);
            assert_eq!(block.records().len(), 3);
            let before = counter!("core.verify.autoverif_runs").get();
            b.handle(Message::Block(Box::new(block.clone())));
            let runs = counter!("core.verify.autoverif_runs").get() - before;
            assert_eq!(b.store().best_tip(), block.id());
            // Miner and receiver judged the R* once each, at admission.
            for node in [&a, &b] {
                assert_eq!(node.scoreboard().score(&detector.address()).confirmed, 1);
            }
            runs == 0
        });
        assert!(quiet, "a block of pooled records ran AutoVerif");
    }

    #[test]
    fn redelivered_pooled_report_is_not_judged_again() {
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        let detector = KeyPair::from_seed(b"detector");
        let (initial, detailed) = report_records(&detector, sra_id, vec![VulnId(1)]);
        b.handle(Message::Record(initial));
        b.handle(Message::Record(detailed.clone()));
        let pooled = b.mempool_len();
        assert_eq!(b.scoreboard().score(&detector.address()).confirmed, 1);
        // A duplicating link delivers the pooled R* again.
        b.handle(Message::Record(detailed));
        assert_eq!(b.mempool_len(), pooled);
        assert_eq!(
            b.scoreboard().score(&detector.address()).confirmed,
            1,
            "its R* was not judged again"
        );
    }

    #[test]
    fn redelivered_refused_block_is_not_judged_again() {
        use smartcrowd_telemetry::counter;
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        let cheat = KeyPair::from_seed(b"cheat");
        let (initial, forged) = report_records(&cheat, sra_id, vec![VulnId(40)]);
        b.handle(Message::Record(initial));
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let difficulty = Difficulty::from_u64(1);
        let block = Block::assemble(
            &genesis,
            vec![forged],
            block_time(1),
            difficulty,
            a.address(),
        );

        let out = b.handle(Message::Block(Box::new(block.clone())));
        assert!(out.broadcast.is_empty(), "a refused block is not relayed");
        assert_eq!(b.scoreboard().score(&cheat.address()).strikes, 1);
        // Peers that took it keep gossiping it. The counter is
        // process-global, so look for one quiet re-delivery.
        let quiet = (0..5).fold(false, |quiet, _| {
            let before = counter!("core.node.blocks_rejected").get();
            b.handle(Message::Block(Box::new(block.clone())));
            quiet || counter!("core.node.blocks_rejected").get() == before
        });
        assert!(quiet, "a remembered refusal was counted again");
        assert_eq!(
            b.scoreboard().score(&cheat.address()).strikes,
            1,
            "one forged report is one strike, however often it is delivered"
        );
        assert_eq!(b.store().best_height(), 0);
    }

    #[test]
    fn report_ahead_of_its_artifact_is_pooled_only_once_judged() {
        let (mut a, mut b, library) = setup_two_nodes();
        let mut rng = SimRng::seed_from_u64(5);
        let system = IoTSystem::build("fw", "1", &library, vec![VulnId(1)], &mut rng).unwrap();
        let (sra_id, out) = a.release(system, Ether::from_ether(1000), Ether::from_ether(25));
        // b learns the SRA and asks for the image, which is slow to come.
        let mut requests = Vec::new();
        for m in out.broadcast {
            requests.extend(b.handle(m).broadcast);
        }
        assert!(matches!(requests[..], [Message::ImageRequest { .. }]));
        let honest = KeyPair::from_seed(b"detector");
        let cheat = KeyPair::from_seed(b"cheat");
        let (initial, detailed) = report_records(&honest, sra_id, vec![VulnId(1)]);
        let (cheat_initial, forged) = report_records(&cheat, sra_id, vec![VulnId(40)]);
        for record in [initial, cheat_initial, detailed.clone(), forged.clone()] {
            b.handle(Message::Record(record));
        }
        assert_eq!(
            b.mempool_len(),
            3,
            "the SRA and both R†; no R* b cannot judge"
        );
        // A duplicating link does not park a record twice.
        b.handle(Message::Record(forged.clone()));
        assert_eq!(b.parked.len(), 2);

        // b wins a round before the image arrives: nothing unjudged is sealed.
        let (block, _) = b.mine(block_time(1), 16);
        assert_eq!(block.records().len(), 3);
        assert!(!block.records().contains(&detailed) && !block.records().contains(&forged));

        for request in requests {
            for response in a.handle(request).broadcast {
                b.handle(response);
            }
        }
        assert!(b.parked.is_empty());
        assert_eq!(
            b.mempool_len(),
            1,
            "the honest R* is pooled, the forged never"
        );
        assert_eq!(b.scoreboard().score(&honest.address()).confirmed, 1);
        assert_eq!(b.scoreboard().score(&cheat.address()).strikes, 1);
        let (block, _) = b.mine(block_time(2), 16);
        assert_eq!(block.records(), [detailed]);
    }

    #[test]
    fn parked_reports_are_bounded_and_the_oldest_go_first() {
        use smartcrowd_telemetry::counter;
        let (_, mut b, _) = setup_two_nodes();
        // No SRA and no artifact: every R* behind an indexed R† parks.
        let detector = KeyPair::from_seed(b"detector");
        let (initial, detailed) =
            create_report_pair(&detector, [7; 32], Findings::new(vec![VulnId(1)], "x"));
        let fee = Ether::from_milliether(11);
        let reveal = |nonce: usize| {
            let payload = detailed.encode();
            Record::signed(
                RecordKind::DetailedReport,
                payload,
                fee,
                nonce as u64,
                &detector,
            )
        };
        b.handle(Message::Record(Record::signed(
            RecordKind::InitialReport,
            initial.encode(),
            fee,
            0,
            &detector,
        )));
        let dropped = counter!("core.node.record_dropped").get();
        for nonce in 0..MAX_PARKED + 3 {
            b.handle(Message::Record(reveal(nonce)));
        }
        assert_eq!(b.parked.len(), MAX_PARKED);
        assert_eq!(b.parked.front(), Some(&reveal(3)));
        assert!(counter!("core.node.record_dropped").get() >= dropped + 3);
        assert_eq!(b.mempool_len(), 1, "only the R†");
    }

    #[test]
    fn blocks_connected_from_the_buffer_clear_the_pool_too() {
        let (mut a, mut b, _) = setup_two_nodes();
        for record in [transfer(b"first", 12), transfer(b"second", 11)] {
            a.handle(Message::Record(record.clone()));
            b.handle(Message::Record(record));
        }
        assert_eq!(b.mempool_len(), 2);
        let (parent, _) = a.mine(block_time(1), 1);
        let (child, _) = a.mine(block_time(2), 1);
        // Child first: buffered until its parent arrives, then both connect.
        let out = b.handle(Message::Block(Box::new(child.clone())));
        assert!(matches!(out.broadcast[..], [Message::BlockRequest { .. }]));
        b.handle(Message::Block(Box::new(parent)));
        assert_eq!(b.store().best_tip(), child.id());
        assert_eq!(
            b.mempool_len(),
            0,
            "the child's record is on b's chain and must not be sealed again"
        );
    }

    #[test]
    fn restart_from_persisted_chain_rebuilds_verification_state() {
        use smartcrowd_chain::storage::{export_chain, import_chain};
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        // Put the SRA on chain so it survives the crash.
        let (block, out) = a.mine(
            Block::genesis(Difficulty::from_u64(1)).header().timestamp + 15,
            16,
        );
        for m in out.broadcast {
            b.handle(m);
        }
        // Crash b: only the exported chain survives.
        let disk = export_chain(b.store());
        let restored_store = import_chain(&disk).unwrap();
        let mut b2 = ProviderNode::open(
            KeyPair::from_seed(b"node-b"),
            Box::new(restored_store),
            library,
            &[],
        );
        assert_eq!(b2.store().best_tip(), block.id());
        assert!(
            b2.core.sra(&sra_id).is_some(),
            "SRA re-derived from the canonical chain"
        );
        assert_eq!(b2.mempool_len(), 0, "mempool is soft state");
        assert!(
            b2.core.artifact(&sra_id).is_none(),
            "artifacts are soft state"
        );
        // The restarted node keeps participating: it accepts the next block.
        let (block2, out) = a.mine(block.header().timestamp + 15, 16);
        for m in out.broadcast {
            b2.handle(m);
        }
        assert_eq!(b2.store().best_tip(), block2.id());
    }

    #[test]
    fn restart_folds_its_confirmed_prefix_once() {
        let (mut a, mut b, library) = setup_two_nodes();
        release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        for height in 1..=9 {
            a.mine(block_time(height), 16);
        }
        let disk = smartcrowd_chain::storage::export_chain(a.store());
        let restored = smartcrowd_chain::storage::import_chain(&disk).unwrap();
        let funding = [(a.address(), Ether::from_ether(5000))];
        let a2 = ProviderNode::open(
            KeyPair::from_seed(b"node-a"),
            Box::new(restored),
            library,
            &funding,
        );
        assert_eq!(a2.settlement().cursor().0, 3);
        assert_eq!(a2.settlement().folded(), 3, "each confirmed block once");
        assert_eq!(a2.settlement().escrows().len(), 1, "funded from genesis");
    }

    #[test]
    fn restart_resumes_nonce_past_on_chain_records() {
        let (mut a, mut b, library) = setup_two_nodes();
        let sra_id = release_and_sync(&mut a, &mut b, &library, vec![VulnId(1)]);
        let (_, out) = a.mine(
            Block::genesis(Difficulty::from_u64(1)).header().timestamp + 15,
            16,
        );
        for m in out.broadcast {
            b.handle(m);
        }
        // Restart the *provider* a from its own chain: its SRA record
        // (nonce 1) is on chain, so the next release must use nonce 2.
        let restored = smartcrowd_chain::storage::import_chain(
            &smartcrowd_chain::storage::export_chain(a.store()),
        )
        .unwrap();
        let mut a2 = ProviderNode::open(
            KeyPair::from_seed(b"node-a"),
            Box::new(restored),
            library.clone(),
            &[],
        );
        assert!(a2.core.sra(&sra_id).is_some());
        let mut rng = SimRng::seed_from_u64(8);
        let system = IoTSystem::build("fw", "2", &library, vec![VulnId(2)], &mut rng).unwrap();
        let (_, out) = a2.release(system, Ether::from_ether(1000), Ether::from_ether(25));
        match &out.broadcast[0] {
            Message::Record(r) => assert_eq!(r.nonce(), 2, "nonce resumed past chain state"),
            other => panic!("expected record broadcast, got {other:?}"),
        }
    }

    #[test]
    fn corrupted_image_download_rejected() {
        let (mut a, mut b, library) = setup_two_nodes();
        let mut rng = SimRng::seed_from_u64(6);
        let system = IoTSystem::build("fw", "1", &library, vec![VulnId(1)], &mut rng).unwrap();
        let hash = *system.image_hash();
        let (sra_id, out) = a.release(system, Ether::from_ether(1000), Ether::from_ether(25));
        for m in out.broadcast {
            b.handle(m); // b now awaits the image
        }
        // A malicious peer answers with garbage.
        b.handle(Message::ImageResponse {
            image_hash: hash,
            image: vec![0u8; 64],
        });
        assert!(
            b.core.artifact(&sra_id).is_none(),
            "U_h mismatch rejected the download"
        );
    }
}
