//! The chain index: the one implementation of parent linkage, total-work
//! fork choice and the canonical / record indices.
//!
//! IoT providers "construct and maintain the blockchain" (§IV-A) under one
//! fork-choice rule: accumulated work (difficulty sum) decides, the PoW rule
//! under which "the blockchain is determined by the majority of
//! participants" — a >50 % hash-power coalition always produces the heaviest
//! chain. Every block declares the genesis difficulty (the pin in
//! [`ChainIndex::check_linkage`]), so the heaviest chain is the longest.
//! Every backend answers from this index and differs only in where
//! block *bodies* live: [`crate::store::ChainStore`] keeps them in a map,
//! [`crate::storage::DurableStore`] pages them in from `blocks.log`. The
//! index itself holds O(header) per block and never needs a body after the
//! block is attached.

use crate::block::Block;
use crate::error::ChainError;
use crate::header::{BlockHeader, BlockId};
use crate::record::Record;
use crate::store::RecordLocation;
use smartcrowd_crypto::{Digest, DigestMap};
use smartcrowd_telemetry::{counter, gauge, histogram};
use std::collections::HashMap;

/// What the index keeps resident for every block, on any fork.
#[derive(Debug, Clone)]
struct Entry {
    header: BlockHeader,
    /// Accumulated work from genesis (fork choice).
    work: u128,
    /// Ids of the block's records, in block order.
    record_ids: Vec<Digest>,
}

/// Headers, accumulated work, best tip and the canonical indices of one
/// chain view. Crate-internal: reachable from outside only through
/// [`crate::storage::ChainQuery`]'s answers.
#[derive(Debug, Clone)]
pub struct ChainIndex {
    entries: DigestMap<BlockId, Entry>,
    genesis_id: BlockId,
    best_tip: BlockId,
    /// Canonical height → block id.
    canonical: HashMap<u64, BlockId>,
    /// Record id → location on the canonical chain. An id carried by two
    /// canonical blocks resolves to the lower one, whichever way the
    /// index was built.
    records: DigestMap<Digest, RecordLocation>,
}

fn ids_of(block: &Block) -> Vec<Digest> {
    block.records().iter().map(Record::id).collect()
}

impl ChainIndex {
    /// An index rooted at `genesis`.
    pub(crate) fn new(genesis: BlockHeader, record_ids: Vec<Digest>) -> Self {
        let genesis_id = genesis.id();
        let entry = Entry {
            work: genesis.difficulty.value(),
            header: genesis,
            record_ids,
        };
        let mut index = ChainIndex {
            entries: DigestMap::from_iter([(genesis_id, entry)]),
            genesis_id,
            best_tip: genesis_id,
            canonical: HashMap::new(),
            records: DigestMap::default(),
        };
        index.extend_canonical(genesis_id);
        index
    }

    /// An index rooted at a genesis block in hand.
    pub(crate) fn rooted_at(genesis: &Block) -> Self {
        Self::new(genesis.header().clone(), ids_of(genesis))
    }

    /// An index rooted at the first block of an untrusted sequence; one
    /// not at height 0 is a [`ChainError::Codec`].
    pub(crate) fn rooted_at_untrusted(genesis: &Block) -> Result<Self, ChainError> {
        if genesis.header().height != 0 {
            return Err(ChainError::Codec {
                detail: "first block is not genesis".to_string(),
            });
        }
        Ok(Self::rooted_at(genesis))
    }

    /// Every block declares the genesis difficulty.
    ///
    /// Proof-of-work targets are self-certified by each header. Without
    /// the pin, a peer could mine one block at a higher difficulty and
    /// outweigh a longer honest chain at a fraction of its cost
    /// (difficulty raising), and a tampered log or export could lower a
    /// block's difficulty to a trivially met target. With it, maximum
    /// accumulated work is maximum length.
    fn check_pin(&self, header: &BlockHeader) -> Result<(), ChainError> {
        let pin = self.entries[&self.genesis_id].header.difficulty;
        if header.difficulty != pin {
            return Err(ChainError::Codec {
                detail: format!(
                    "difficulty drift: block {} declares {}, genesis set {}",
                    header.height,
                    header.difficulty.value(),
                    pin.value()
                ),
            });
        }
        Ok(())
    }

    /// Parent linkage: known parent, height = parent + 1, monotone
    /// timestamp, then the difficulty pin. Needs only headers, so a paged
    /// backend answers without touching disk. Every path that accepts a
    /// block runs it: a live insert or commit, `validate_block`, log and
    /// export replay, and snapshot adoption.
    pub(crate) fn check_linkage(&self, header: &BlockHeader) -> Result<(), ChainError> {
        let parent = self.header(&header.prev).ok_or(ChainError::UnknownParent {
            parent: header.prev,
        })?;
        if header.height != parent.height + 1 {
            return Err(ChainError::Codec {
                detail: format!(
                    "height {} does not follow parent height {}",
                    header.height, parent.height
                ),
            });
        }
        if header.timestamp < parent.timestamp {
            return Err(ChainError::TimestampRegression { id: header.id() });
        }
        self.check_pin(header)
    }

    fn check_new(&self, id: BlockId, header: &BlockHeader) -> Result<(), ChainError> {
        if self.entries.contains_key(&id) {
            return Err(ChainError::DuplicateBlock { id });
        }
        self.check_linkage(header)
    }

    /// Everything that must hold before `block` may be attached, in this
    /// order: not a duplicate, linked to a known parent at the genesis
    /// difficulty ([`ChainIndex::check_linkage`]), structurally valid
    /// ([`Block::validate_structure`]).
    pub(crate) fn check_block(&self, block: &Block) -> Result<(), ChainError> {
        self.check_new(block.id(), block.header())
            .and_then(|()| block.validate_structure())
            .inspect_err(|_| counter!("chain.store.blocks_rejected").inc())
    }

    /// Attaches a block that passed [`ChainIndex::check_block`] against
    /// this index and runs fork choice.
    pub(crate) fn attach(&mut self, block: &Block) -> BlockId {
        let id = block.id();
        self.link(id, block.header().clone(), ids_of(block), false);
        counter!("chain.store.blocks_inserted").inc();
        gauge!("chain.store.height").set(self.best_height() as i64);
        id
    }

    /// [`ChainIndex::check_block`] then [`ChainIndex::attach`].
    pub(crate) fn insert_block(&mut self, block: &Block) -> Result<BlockId, ChainError> {
        self.check_block(block)?;
        Ok(self.attach(block))
    }

    /// Header-only insert for snapshot adoption. The body is not in hand,
    /// so the structural checks are replaced by what a header alone
    /// certifies on top of linkage (the pin included): its own PoW
    /// target. Silent — replayed history is neither an insert nor a reorg.
    pub(crate) fn insert_header(
        &mut self,
        header: BlockHeader,
        record_ids: Vec<Digest>,
    ) -> Result<BlockId, ChainError> {
        let id = header.id();
        self.check_new(id, &header)?;
        if !header.difficulty.target_met(id.as_digest()) {
            return Err(ChainError::InsufficientWork { id });
        }
        self.link(id, header, record_ids, true);
        Ok(id)
    }

    /// Stores the entry and applies fork choice: strictly more work wins;
    /// ties keep the incumbent (first-seen rule, as in Bitcoin).
    fn link(&mut self, id: BlockId, header: BlockHeader, record_ids: Vec<Digest>, quiet: bool) {
        let work = self.entries[&header.prev].work + header.difficulty.value();
        let extends_tip = header.prev == self.best_tip;
        self.entries.insert(
            id,
            Entry {
                header,
                work,
                record_ids,
            },
        );
        if work <= self.entries[&self.best_tip].work {
            return;
        }
        let old_tip = std::mem::replace(&mut self.best_tip, id);
        if extends_tip {
            // The common case, and the only one on replay: O(block), so
            // a chain of n blocks indexes in O(n).
            self.extend_canonical(id);
            return;
        }
        self.rebuild_canonical();
        if quiet {
            return;
        }
        // The old tip was abandoned: the reorg depth is the number of
        // blocks between it and the fork point (its deepest ancestor
        // still canonical).
        let mut depth = 0u64;
        let mut cursor = old_tip;
        while !self.is_canonical(&cursor) {
            depth += 1;
            cursor = self.entries[&cursor].header.prev;
        }
        if depth > 0 {
            counter!("chain.store.reorgs").inc();
            histogram!(
                "chain.store.reorg_depth",
                smartcrowd_telemetry::buckets::REORG_DEPTH
            )
            .observe(depth);
        }
    }

    /// Indexes one block as canonical.
    fn extend_canonical(&mut self, id: BlockId) {
        let entry = &self.entries[&id];
        let height = entry.header.height;
        self.canonical.insert(height, id);
        for (index, record_id) in entry.record_ids.iter().enumerate() {
            self.records.entry(*record_id).or_insert(RecordLocation {
                block_id: id,
                height,
                index,
            });
        }
    }

    /// Re-derives both canonical maps from the best tip (real reorgs only).
    fn rebuild_canonical(&mut self) {
        self.canonical.clear();
        self.records.clear();
        let mut chain = vec![self.best_tip];
        while let Some(&id) = chain.last().filter(|id| **id != self.genesis_id) {
            chain.push(self.entries[&id].header.prev);
        }
        for id in chain.into_iter().rev() {
            self.extend_canonical(id);
        }
    }

    /// Forgets a block (fork pruning). Callers remove only non-canonical
    /// blocks whose subtree goes with them.
    pub(crate) fn remove(&mut self, id: &BlockId) {
        self.entries.remove(id);
    }

    pub(crate) fn genesis_id(&self) -> BlockId {
        self.genesis_id
    }

    pub(crate) fn best_tip(&self) -> BlockId {
        self.best_tip
    }

    pub(crate) fn best_height(&self) -> u64 {
        self.entries[&self.best_tip].header.height
    }

    /// Blocks held, all forks.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn header(&self, id: &BlockId) -> Option<&BlockHeader> {
        self.entries.get(id).map(|e| &e.header)
    }

    pub(crate) fn record_ids(&self, id: &BlockId) -> Option<&[Digest]> {
        self.entries.get(id).map(|e| e.record_ids.as_slice())
    }

    pub(crate) fn work_of(&self, id: &BlockId) -> Option<u128> {
        self.entries.get(id).map(|e| e.work)
    }

    pub(crate) fn canonical_id_at(&self, height: u64) -> Option<BlockId> {
        self.canonical.get(&height).copied()
    }

    pub(crate) fn is_canonical(&self, id: &BlockId) -> bool {
        self.confirmations(id) > 0
    }

    /// Confirmations of a block: 1 at the tip, 0 off-chain/unknown.
    pub(crate) fn confirmations(&self, id: &BlockId) -> u64 {
        match self.header(id) {
            Some(h) if self.canonical.get(&h.height) == Some(id) => {
                self.best_height() - h.height + 1
            }
            _ => 0,
        }
    }

    pub(crate) fn find_record(&self, record_id: &Digest) -> Option<&RecordLocation> {
        self.records.get(record_id)
    }
}
