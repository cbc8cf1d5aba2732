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
//! seeded runs stay byte-identical whatever the capacity.
//!
//! Open fills the cache through [`Residents`], which keeps, while the log
//! streams past, exactly the bodies the cache would hold had every
//! replayed body been inserted before the floor was set.

use crate::block::Block;
use crate::header::BlockId;
use smartcrowd_telemetry::{counter, gauge};
use std::collections::{HashMap, VecDeque};

/// Bounded FIFO cache of block bodies, with a pinned unconfirmed region.
#[derive(Debug)]
pub(super) struct BlockCache {
    capacity: usize,
    /// Heights strictly above this are pinned.
    floor: u64,
    entries: HashMap<BlockId, Block>,
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
            entries: HashMap::new(),
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

    /// Fills a fresh cache with what a recovery kept, and counts each
    /// body it dropped as the eviction inserting it would have been.
    /// Each group is inserted in log order; once the floor is set they
    /// sit in different queues, so their order relative to each other
    /// does not matter.
    pub fn fill(&mut self, residents: Residents) {
        let Residents {
            pinned,
            confirmed,
            dropped,
            ..
        } = residents;
        for (_, block) in confirmed.into_iter().chain(pinned) {
            self.insert(block);
        }
        if dropped > 0 {
            counter!("chain.storage.cache.evictions").add(dropped);
            self.publish_resident();
        }
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

/// The bodies a [`BlockCache`] holds after every body of a replay has
/// been inserted in log order and the pin floor then set once — gathered
/// as the bodies arrive, so that one the cache would evict is dropped as
/// soon as that is certain rather than after the whole log is in memory.
///
/// The floor only rises during a replay (every block declares the
/// genesis difficulty, so the heaviest chain is the longest). A body at
/// or below the running floor therefore ends up confirmed, and one with
/// `capacity` newer confirmed bodies after it in log order ends up
/// evicted by the FIFO.
#[derive(Debug)]
pub(super) struct Residents {
    capacity: usize,
    floor: u64,
    /// Log position of the next body offered.
    next: u64,
    /// Bodies above the floor, with their log positions, in log order.
    pinned: VecDeque<(u64, Block)>,
    /// The newest `capacity` bodies at or below the floor, in log order.
    confirmed: VecDeque<(u64, Block)>,
    /// Bodies dropped from `confirmed`.
    dropped: u64,
}

impl Residents {
    /// Nothing kept yet, for a cache of `capacity` evictable bodies.
    pub fn new(capacity: usize) -> Self {
        Residents {
            capacity,
            floor: 0,
            next: 0,
            pinned: VecDeque::new(),
            confirmed: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Takes the next body in log order; `floor` is the pin floor of the
    /// index the body has just joined.
    pub fn offer(&mut self, block: Block, floor: u64) {
        if floor > self.floor {
            self.floor = floor;
            while let Some(demoted) = self
                .pinned
                .iter()
                .position(|(_, b)| b.header().height <= floor)
                .and_then(|at| self.pinned.remove(at))
            {
                let to = self
                    .confirmed
                    .partition_point(|&(position, _)| position < demoted.0);
                self.confirmed.insert(to, demoted);
            }
        }
        let height = block.header().height;
        let entry = (self.next, block);
        self.next += 1;
        if height > self.floor {
            self.pinned.push_back(entry);
        } else {
            self.confirmed.push_back(entry);
        }
        while self.confirmed.len() > self.capacity {
            self.confirmed.pop_front();
            self.dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::Difficulty;
    use crate::pow::Miner;
    use crate::CONFIRMATION_DEPTH;
    use smartcrowd_crypto::Address;

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

    /// A log with forks, in log order (parents first), with the pin
    /// floor after each block: heaviest is longest, so the best height
    /// is the highest seen.
    fn forked_log(seed: u64, len: usize) -> Vec<(Block, u64)> {
        let mut rng = crate::rng::SimRng::seed_from_u64(seed);
        let miner = Miner::new(Address::from_label("f"));
        let mut blocks = vec![Block::genesis(Difficulty::from_u64(1))];
        let mut log = vec![(blocks[0].clone(), 0)];
        let mut best = 0;
        while blocks.len() < len {
            // Mostly extend one of the newest blocks; now and then fork
            // deep below the tip.
            let back = if rng.next_bool(0.2) { 12 } else { 3 };
            let from = blocks.len().saturating_sub(back) as u64;
            let at = rng.next_range(from, blocks.len() as u64) as usize;
            let parent = &blocks[at];
            let ts = parent.header().timestamp + 1 + rng.next_below(30);
            let block = miner.mine_next(parent, vec![], ts).unwrap();
            if blocks.iter().any(|b| b.id() == block.id()) {
                // The index refuses a duplicate before the cache sees it.
                continue;
            }
            best = block.header().height.max(best);
            log.push((block.clone(), best.saturating_sub(CONFIRMATION_DEPTH)));
            blocks.push(block);
        }
        log
    }

    /// Pinned and evictable ids, in queue order.
    fn queues(cache: &BlockCache) -> (Vec<BlockId>, Vec<BlockId>) {
        (
            cache.pinned.iter().map(|&(id, _)| id).collect(),
            cache.evictable.iter().copied().collect(),
        )
    }

    #[test]
    fn residents_keep_what_inserting_every_body_then_flooring_keeps() {
        for seed in 0..24 {
            let log = forked_log(seed, 60);
            let floor = log.last().map_or(0, |&(_, floor)| floor);
            for capacity in [0, 1, 2, 5, 17, usize::MAX] {
                // The open before streaming: every body, then the floor.
                let mut reference = BlockCache::new(capacity);
                for (block, _) in &log {
                    reference.insert(block.clone());
                }
                reference.set_floor(floor);

                let mut residents = Residents::new(capacity);
                for (block, floor) in &log {
                    residents.offer(block.clone(), *floor);
                }
                let dropped = residents.dropped;
                let held = residents.pinned.len() + residents.confirmed.len();
                let mut filled = BlockCache::new(capacity);
                filled.fill(residents);
                filled.set_floor(floor);

                assert_eq!(
                    queues(&filled),
                    queues(&reference),
                    "seed {seed} cap {capacity}"
                );
                assert_eq!(held, reference.resident(), "held only what stays");
                assert_eq!(
                    dropped as usize,
                    log.len() - reference.resident(),
                    "every dropped body is one the reference evicted"
                );
            }
        }
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
