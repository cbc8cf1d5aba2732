//! The bounded block-body cache fronting cold log reads.
//!
//! [`super::DurableStore`] keeps every *header* resident but pages block
//! *bodies* through this cache. Two regions:
//!
//! - **Pinned** — bodies above the confirmation floor
//!   (`best − CONFIRMATION_DEPTH`). The tip region is hot (fork choice,
//!   mining parents, reorg walks) and, mid-commit, a body may not be in
//!   the log yet; pinned bodies never count against the capacity budget.
//! - **Evictable** — confirmed bodies, bounded by
//!   [`super::StoreConfig::cache_capacity`] under strict FIFO eviction.
//!
//! Eviction is deterministic by construction: the only ordering input is
//! the sequence of `insert`/`set_floor` calls, which under a seeded run
//! is itself deterministic (commit order plus cold-read order). No clock,
//! no recency reshuffling, no hash-map iteration order is consulted — so
//! seeded runs stay byte-identical whatever the capacity. Open replays
//! the log through the same two calls a commit makes — `insert`, then
//! `set_floor` — so a reopened cache holds what committing its log holds.

use crate::block::Block;
use crate::header::BlockId;
use smartcrowd_crypto::DigestMap;
use smartcrowd_telemetry::{counter, gauge};
use std::collections::VecDeque;

/// Bounded FIFO cache of block bodies, with a pinned unconfirmed region.
#[derive(Debug)]
pub(super) struct BlockCache {
    capacity: usize,
    /// Heights strictly above this are pinned.
    floor: u64,
    entries: DigestMap<BlockId, Block>,
    /// Pinned ids with their heights, in insertion order.
    pinned: VecDeque<(BlockId, u64)>,
    /// Evictable ids in insertion (= eviction) order.
    evictable: VecDeque<BlockId>,
}

impl BlockCache {
    /// An empty cache holding at most `capacity` evictable bodies.
    pub fn new(capacity: usize) -> Self {
        BlockCache {
            capacity,
            floor: 0,
            entries: DigestMap::default(),
            pinned: VecDeque::new(),
            evictable: VecDeque::new(),
        }
    }

    /// Looks a body up, counting the hit or miss.
    pub fn get(&self, id: &BlockId) -> Option<Block> {
        match self.entries.get(id) {
            Some(block) => {
                counter!("chain.storage.cache.hits").inc();
                Some(block.clone())
            }
            None => {
                counter!("chain.storage.cache.misses").inc();
                None
            }
        }
    }

    /// Inserts a body. Heights above the current floor are pinned;
    /// everything else joins the FIFO queue and may evict older bodies.
    pub fn insert(&mut self, block: Block) {
        let id = block.id();
        if self.entries.contains_key(&id) {
            return;
        }
        let height = block.header().height;
        self.entries.insert(id, block);
        if height > self.floor {
            self.pinned.push_back((id, height));
        } else {
            self.evictable.push_back(id);
            self.evict_excess();
        }
        self.publish_resident();
    }

    /// Advances the pin floor: bodies that have fallen below it move to
    /// the evictable queue *in insertion order*, then excess is evicted.
    pub(crate) fn set_floor(&mut self, floor: u64) {
        self.floor = floor;
        if self.pinned.iter().all(|&(_, h)| h > floor) {
            return;
        }
        let mut still_pinned = VecDeque::with_capacity(self.pinned.len());
        for (id, height) in self.pinned.drain(..) {
            if height > floor {
                still_pinned.push_back((id, height));
            } else {
                self.evictable.push_back(id);
            }
        }
        self.pinned = still_pinned;
        self.evict_excess();
        self.publish_resident();
    }

    /// Drops a body outright (pruned forks).
    pub fn remove(&mut self, id: &BlockId) {
        if self.entries.remove(id).is_none() {
            return;
        }
        self.pinned.retain(|(p, _)| p != id);
        self.evictable.retain(|p| p != id);
        self.publish_resident();
    }

    /// Bodies currently resident (pinned + evictable).
    pub fn resident(&self) -> usize {
        self.entries.len()
    }

    fn evict_excess(&mut self) {
        while self.evictable.len() > self.capacity {
            if let Some(victim) = self.evictable.pop_front() {
                self.entries.remove(&victim);
                counter!("chain.storage.cache.evictions").inc();
            }
        }
    }

    fn publish_resident(&self) {
        gauge!("chain.storage.cache.resident").set(self.entries.len() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::Difficulty;
    use crate::pow::Miner;
    use smartcrowd_crypto::Address;

    impl BlockCache {
        /// Pinned and evictable ids, in queue order.
        pub(in crate::storage) fn queues(&self) -> (Vec<BlockId>, Vec<BlockId>) {
            (
                self.pinned.iter().map(|&(id, _)| id).collect(),
                self.evictable.iter().copied().collect(),
            )
        }
    }

    fn chain(n: usize) -> Vec<Block> {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let miner = Miner::new(Address::from_label("c"));
        let mut blocks = vec![genesis];
        for _ in 0..n {
            let parent = blocks.last().unwrap();
            let b = miner
                .mine_next(parent, vec![], parent.header().timestamp + 15)
                .unwrap();
            blocks.push(b);
        }
        blocks
    }

    #[test]
    fn fifo_eviction_bounds_residency() {
        let blocks = chain(6);
        let mut cache = BlockCache::new(2);
        // Floor high enough that nothing is pinned.
        cache.set_floor(100);
        for b in &blocks {
            cache.insert(b.clone());
        }
        assert_eq!(cache.resident(), 2);
        // The two newest survive; the oldest were evicted first.
        assert!(cache.get(&blocks[5].id()).is_some());
        assert!(cache.get(&blocks[6].id()).is_some());
        assert!(cache.get(&blocks[0].id()).is_none());
    }

    #[test]
    fn pinned_blocks_ignore_capacity_until_floor_advances() {
        let blocks = chain(6);
        let mut cache = BlockCache::new(1);
        // Floor 0: every non-genesis block is pinned.
        for b in &blocks {
            cache.insert(b.clone());
        }
        // Genesis (height 0) is evictable, the other six are pinned.
        assert_eq!(cache.resident(), 7, "pinned region exceeds capacity");
        // Confirm heights 1..=4: they demote in insertion order and the
        // FIFO keeps only the newest demoted body.
        cache.set_floor(4);
        assert_eq!(cache.resident(), 3, "2 pinned + capacity 1");
        assert!(cache.get(&blocks[4].id()).is_some(), "newest demoted kept");
        assert!(
            cache.get(&blocks[1].id()).is_none(),
            "oldest demoted evicted"
        );
        assert!(cache.get(&blocks[5].id()).is_some(), "still pinned");
    }

    #[test]
    fn remove_and_duplicate_insert() {
        let blocks = chain(2);
        let mut cache = BlockCache::new(8);
        cache.insert(blocks[1].clone());
        cache.insert(blocks[1].clone());
        assert_eq!(cache.resident(), 1);
        assert!(cache.get(&blocks[1].id()).is_some());
        cache.remove(&blocks[1].id());
        assert_eq!(cache.resident(), 0);
        assert!(cache.get(&blocks[1].id()).is_none());
    }
}
