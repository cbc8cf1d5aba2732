//! The in-memory chain store.
//!
//! IoT providers "construct and maintain the blockchain" (§IV-A); the store
//! is each provider's local view: the crate's one chain index (linkage,
//! total-work fork choice, canonical and record indices) plus every block
//! body in a map. [`crate::storage::DurableStore`] is the same index over
//! bodies paged in from disk.

use crate::block::Block;
use crate::chain_index::ChainIndex;
use crate::error::ChainError;
use crate::header::BlockId;
use crate::record::{Record, RecordKind};
use smartcrowd_crypto::DigestMap;

/// Where a record landed on the canonical chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordLocation {
    /// Block holding the record.
    pub block_id: BlockId,
    /// Height of that block.
    pub height: u64,
    /// Index of the record within the block.
    pub index: usize,
}

/// An in-memory block store with fork choice and confirmation queries.
///
/// # Example
///
/// ```
/// use smartcrowd_chain::{Block, ChainStore, Difficulty};
/// use smartcrowd_chain::pow::Miner;
/// use smartcrowd_crypto::Address;
///
/// let genesis = Block::genesis(Difficulty::from_u64(1));
/// let mut store = ChainStore::new(genesis.clone());
/// let miner = Miner::new(Address::from_label("p"));
/// let b1 = miner.mine_next(&genesis, vec![], genesis.header().timestamp + 15).unwrap();
/// store.insert(b1).unwrap();
/// assert_eq!(store.best_height(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ChainStore {
    pub(crate) index: ChainIndex,
    blocks: DigestMap<BlockId, Block>,
}

impl ChainStore {
    /// Creates a store rooted at `genesis`.
    pub fn new(genesis: Block) -> Self {
        let index = ChainIndex::rooted_at(&genesis);
        ChainStore {
            blocks: DigestMap::from_iter([(index.genesis_id(), genesis)]),
            index,
        }
    }

    /// Height of the best tip.
    pub fn best_height(&self) -> u64 {
        self.index.best_height()
    }

    /// The block at the best tip.
    pub fn best_block(&self) -> &Block {
        &self.blocks[&self.index.best_tip()]
    }

    /// Fetches a block by id.
    pub fn block(&self, id: &BlockId) -> Option<&Block> {
        self.blocks.get(id)
    }

    /// Accumulated work at a block.
    pub fn work_of(&self, id: &BlockId) -> Option<u128> {
        self.index.work_of(id)
    }

    /// Inserts a block after linkage and structural validation.
    ///
    /// # Errors
    ///
    /// - [`ChainError::DuplicateBlock`] if already stored.
    /// - [`ChainError::UnknownParent`] if the parent is missing.
    /// - [`ChainError::TimestampRegression`] if the timestamp precedes the
    ///   parent's.
    /// - [`ChainError::Codec`] if the height does not follow the parent's
    ///   or the difficulty is not the genesis difficulty.
    /// - Structural errors from [`Block::validate_structure`].
    pub fn insert(&mut self, block: Block) -> Result<BlockId, ChainError> {
        let id = self.index.insert_block(&block)?;
        self.blocks.insert(id, block);
        Ok(id)
    }

    /// Iterates the canonical chain from genesis to tip.
    pub fn canonical_blocks(&self) -> impl Iterator<Item = &Block> + '_ {
        (0..=self.best_height()).filter_map(move |h| {
            self.index
                .canonical_id_at(h)
                .and_then(|id| self.blocks.get(&id))
        })
    }

    /// All canonical records of a given kind (the consumer query of
    /// Phase #3: "consumers can quickly learn the system security analysis
    /// by querying the related detection results in the blockchain").
    pub fn records_of_kind(&self, kind: RecordKind) -> Vec<(&Record, u64)> {
        self.canonical_blocks()
            .flat_map(|b| {
                let confs = self.index.confirmations(&b.id());
                b.records().iter().map(move |r| (r, confs))
            })
            .filter(|(r, _)| r.kind() == kind)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::Ether;
    use crate::difficulty::Difficulty;
    use crate::pow::Miner;
    use crate::storage::ChainQuery;
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_crypto::Address;

    fn miner(label: &str) -> Miner {
        Miner::new(Address::from_label(label))
    }

    fn record(seed: u64) -> Record {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        Record::signed(
            RecordKind::Transfer,
            vec![1],
            Ether::from_wei(seed as u128),
            seed,
            &kp,
        )
    }

    fn store_with_chain(n: u64) -> (ChainStore, Vec<Block>) {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let m = miner("p");
        let mut blocks = vec![genesis];
        for i in 0..n {
            let parent = blocks.last().unwrap();
            let b = m
                .mine_next(parent, vec![record(i)], parent.header().timestamp + 15)
                .unwrap();
            store.insert(b.clone()).unwrap();
            blocks.push(b);
        }
        (store, blocks)
    }

    #[test]
    fn linear_chain_grows() {
        let (store, blocks) = store_with_chain(5);
        assert_eq!(store.best_height(), 5);
        assert_eq!(store.best_tip(), blocks[5].id());
        assert_eq!(store.canonical_blocks().count(), 6);
    }

    #[test]
    fn duplicate_rejected() {
        let (mut store, blocks) = store_with_chain(2);
        let err = store.insert(blocks[1].clone()).unwrap_err();
        assert!(matches!(err, ChainError::DuplicateBlock { .. }));
    }

    #[test]
    fn unknown_parent_rejected() {
        let (mut store, _) = store_with_chain(1);
        let other_genesis = Block::genesis(Difficulty::from_u64(7));
        let orphan = miner("p")
            .mine_next(
                &other_genesis,
                vec![],
                other_genesis.header().timestamp + 15,
            )
            .unwrap();
        assert!(matches!(
            store.insert(orphan),
            Err(ChainError::UnknownParent { .. })
        ));
    }

    #[test]
    fn timestamp_regression_rejected() {
        let (mut store, blocks) = store_with_chain(1);
        let parent = &blocks[1];
        let bad = miner("p")
            .mine_next(parent, vec![], parent.header().timestamp - 1)
            .unwrap();
        assert!(matches!(
            store.insert(bad),
            Err(ChainError::TimestampRegression { .. })
        ));
    }

    #[test]
    fn heavier_fork_wins() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        // Light chain: one block.
        let light = miner("light")
            .mine_next(&genesis, vec![], genesis.header().timestamp + 15)
            .unwrap();
        store.insert(light.clone()).unwrap();
        assert_eq!(store.best_tip(), light.id());
        // Heavy fork: two blocks (more work at the pinned difficulty).
        let heavy = miner("heavy");
        let fork = heavy
            .mine_next(&genesis, vec![], genesis.header().timestamp + 16)
            .unwrap();
        store.insert(fork.clone()).unwrap();
        let tip = heavy
            .mine_next(&fork, vec![], fork.header().timestamp + 15)
            .unwrap();
        store.insert(tip.clone()).unwrap();
        assert_eq!(store.best_tip(), tip.id());
        assert!(store.is_canonical(&fork.id()));
        assert!(!store.is_canonical(&light.id()));
    }

    #[test]
    fn equal_work_keeps_incumbent() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let a = miner("a")
            .mine_next(&genesis, vec![], genesis.header().timestamp + 15)
            .unwrap();
        let b = miner("b")
            .mine_next(&genesis, vec![], genesis.header().timestamp + 15)
            .unwrap();
        store.insert(a.clone()).unwrap();
        store.insert(b.clone()).unwrap();
        assert_eq!(store.best_tip(), a.id(), "first-seen tip retained on tie");
    }

    #[test]
    fn confirmations_count_up() {
        let (store, blocks) = store_with_chain(8);
        // Block 1 has 8 descendants + itself = 9 confirmations.
        assert_eq!(store.confirmations(&blocks[1].id()), 8);
        assert!(store.is_confirmed(&blocks[1].id()));
        // Tip has exactly 1.
        assert_eq!(store.confirmations(&blocks[8].id()), 1);
        assert!(!store.is_confirmed(&blocks[8].id()));
    }

    #[test]
    fn six_confirmation_rule_matches_paper() {
        // A block is final only once 6 blocks are linked after it.
        let (store, blocks) = store_with_chain(6);
        assert_eq!(store.confirmations(&blocks[1].id()), 6);
        assert!(
            !store.is_confirmed(&blocks[1].id()),
            "needs 6 descendants, has 5"
        );
        let (store, blocks) = store_with_chain(7);
        assert_eq!(store.confirmations(&blocks[1].id()), 7);
        assert!(store.is_confirmed(&blocks[1].id()));
    }

    #[test]
    fn record_lookup_and_confirmation() {
        let (store, blocks) = store_with_chain(7);
        let r = &blocks[1].records()[0];
        let loc = store.find_record(&r.id()).unwrap();
        assert_eq!(loc.height, 1);
        assert_eq!(loc.index, 0);
        assert!(store.record_confirmed(&r.id()));
        let tip_record = &blocks[7].records()[0];
        assert!(!store.record_confirmed(&tip_record.id()));
        assert!(store.find_record(&[9u8; 32]).is_none());
    }

    #[test]
    fn reorg_reindexes_records() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let r_light = record(100);
        let light = miner("light")
            .mine_next(
                &genesis,
                vec![r_light.clone()],
                genesis.header().timestamp + 15,
            )
            .unwrap();
        store.insert(light).unwrap();
        assert!(store.find_record(&r_light.id()).is_some());
        // Heavier (longer) fork without the record.
        let mut parent = genesis;
        for _ in 0..2 {
            let heavy = miner("heavy")
                .mine_next(&parent, vec![], parent.header().timestamp + 16)
                .unwrap();
            store.insert(heavy.clone()).unwrap();
            parent = heavy;
        }
        assert!(
            store.find_record(&r_light.id()).is_none(),
            "reorged-out record unindexed"
        );
    }

    #[test]
    fn records_of_kind_filters() {
        let (store, _) = store_with_chain(3);
        assert_eq!(store.records_of_kind(RecordKind::Transfer).len(), 3);
        assert!(store.records_of_kind(RecordKind::Sra).is_empty());
    }

    #[test]
    fn blocks_by_miner() {
        let (store, _) = store_with_chain(4);
        assert_eq!(store.blocks_by_miner(&Address::from_label("p")).len(), 4);
        assert!(store
            .blocks_by_miner(&Address::from_label("other"))
            .is_empty());
    }

    /// A child of `parent` sealed at `difficulty`, whatever the parent's.
    fn mine_at(parent: &Block, difficulty: u64, label: &str) -> Block {
        let block = Block::assemble(
            parent,
            vec![],
            parent.header().timestamp + 15,
            Difficulty::from_u64(difficulty),
            Address::from_label(label),
        );
        miner(label).seal(block, 0).unwrap()
    }

    #[test]
    fn off_genesis_difficulty_rejected_and_store_still_usable() {
        // Genesis at 16: a sibling of block 1 at 64× the work would
        // outweigh the whole honest chain if its declared difficulty
        // counted, and one at 1 would be free to mine.
        let genesis = Block::genesis(Difficulty::from_u64(16));
        let mut store = ChainStore::new(genesis.clone());
        let mut parent = genesis.clone();
        for _ in 0..8 {
            let block = mine_at(&parent, 16, "honest");
            store.insert(block.clone()).unwrap();
            parent = block;
        }
        let tip = store.best_tip();
        for difficulty in [16 * 64, 1] {
            let rival = mine_at(&genesis, difficulty, "raiser");
            assert!(matches!(
                store.insert(rival.clone()),
                Err(ChainError::Codec { detail }) if detail.contains("difficulty drift")
            ));
            assert!(!store.contains_block(&rival.id()));
            assert_eq!(store.best_tip(), tip);
        }
        // The refusal left nothing behind: the honest chain still grows.
        let next = mine_at(&parent, 16, "honest");
        store.insert(next.clone()).unwrap();
        assert_eq!(store.best_tip(), next.id());
        assert_eq!(store.block_count(), 10);
    }

    #[test]
    fn wrong_height_rejected() {
        let (mut store, blocks) = store_with_chain(2);
        // Manually assemble a block with a skipped height.
        let parent = &blocks[2];
        let mut bad = Block::assemble(
            parent,
            vec![],
            parent.header().timestamp + 15,
            Difficulty::from_u64(1),
            Address::from_label("p"),
        );
        bad.header_mut().height += 1; // now parent.height + 2
        assert!(store.insert(bad).is_err());
    }
}
