//! Chain synchronization for lagging nodes.
//!
//! "Once a new block is generated, it will be broadcast and synchronized
//! among IoT providers" (§V-C). Gossip jitter and partitions mean blocks
//! arrive out of order or not at all; [`SyncBuffer`] is the per-node
//! reassembly stage: it buffers blocks whose parents are missing, connects
//! whatever becomes connectable, and reports what is still unresolved so
//! the node can request it from peers.

use smartcrowd_chain::header::BlockId;
use smartcrowd_chain::storage::StorageError;
use smartcrowd_chain::{Block, ChainBackend, ChainError};
use smartcrowd_crypto::DigestMap;

/// Outcome of offering one block to the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncOutcome {
    /// Connected to the store (possibly unlocking buffered descendants).
    Connected {
        /// Every block this offer connected: the offered block first, then
        /// the buffered descendants it unlocked, in commit order.
        blocks: Vec<Block>,
    },
    /// Parent unknown: buffered for later.
    Buffered,
    /// Already known (store or buffer) — dropped.
    Duplicate,
    /// Structurally invalid — dropped.
    Rejected(ChainError),
}

/// A reassembly buffer in front of a [`ChainBackend`].
///
/// # Example
///
/// ```
/// use smartcrowd_net::sync::{SyncBuffer, SyncOutcome};
/// use smartcrowd_chain::pow::Miner;
/// use smartcrowd_chain::{Block, ChainStore, Difficulty};
/// use smartcrowd_crypto::Address;
///
/// let genesis = Block::genesis(Difficulty::from_u64(1));
/// let mut store = ChainStore::new(genesis.clone());
/// let miner = Miner::new(Address::from_label("m"));
/// let b1 = miner.mine_next(&genesis, vec![], genesis.header().timestamp + 15).unwrap();
/// let b2 = miner.mine_next(&b1, vec![], b1.header().timestamp + 15).unwrap();
///
/// let mut sync = SyncBuffer::new();
/// // Out of order: the child arrives first and is buffered…
/// assert_eq!(sync.offer(&mut store, b2.clone()), SyncOutcome::Buffered);
/// // …then the parent connects both.
/// assert_eq!(
///     sync.offer(&mut store, b1.clone()),
///     SyncOutcome::Connected { blocks: vec![b1, b2] }
/// );
/// assert_eq!(store.best_height(), 2);
/// ```
#[derive(Debug, Default)]
pub struct SyncBuffer {
    /// parent id → orphan blocks waiting for it.
    orphans: DigestMap<BlockId, Vec<Block>>,
    buffered: usize,
}

/// Cap on buffered orphans (an attacker cannot OOM a node with orphans).
pub const MAX_ORPHANS: usize = 1024;

impl SyncBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Orphans currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Whether `block` is already waiting here for its parent. A node asks
    /// this before judging a delivered block: one it holds was judged when
    /// it was buffered.
    pub fn holds(&self, block: &Block) -> bool {
        self.orphans
            .get(&block.header().prev)
            .is_some_and(|waiting| {
                let id = block.id();
                waiting.iter().any(|b| b.id() == id)
            })
    }

    /// Offers a block; connects it (and any unlocked descendants) when its
    /// parent is known, otherwise buffers it.
    ///
    /// Generic over [`ChainBackend`], so the same reassembly path drives
    /// the in-memory [`smartcrowd_chain::ChainStore`] and the durable
    /// disk-backed store; a
    /// storage-layer failure beneath a valid block surfaces as
    /// [`SyncOutcome::Rejected`] with [`ChainError::Storage`].
    pub fn offer<B: ChainBackend + ?Sized>(&mut self, store: &mut B, block: Block) -> SyncOutcome {
        let outcome = self.offer_inner(store, block);
        use smartcrowd_telemetry::{counter, gauge};
        match &outcome {
            SyncOutcome::Connected { .. } => {
                counter!("net.sync.offers", "outcome" => "connected").inc()
            }
            SyncOutcome::Buffered => counter!("net.sync.offers", "outcome" => "buffered").inc(),
            SyncOutcome::Duplicate => counter!("net.sync.offers", "outcome" => "duplicate").inc(),
            SyncOutcome::Rejected(_) => counter!("net.sync.offers", "outcome" => "rejected").inc(),
        }
        gauge!("net.sync.orphans").set(self.buffered as i64);
        outcome
    }

    fn offer_inner<B: ChainBackend + ?Sized>(
        &mut self,
        store: &mut B,
        block: Block,
    ) -> SyncOutcome {
        let id = block.id();
        if store.contains_block(&id) {
            return SyncOutcome::Duplicate;
        }
        let parent = block.header().prev;
        if !store.contains_block(&parent) {
            // Buffer, bounded.
            if self.buffered >= MAX_ORPHANS {
                return SyncOutcome::Rejected(ChainError::MempoolFull);
            }
            if self.holds(&block) {
                return SyncOutcome::Duplicate;
            }
            self.orphans.entry(parent).or_default().push(block);
            self.buffered += 1;
            return SyncOutcome::Buffered;
        }
        match store.commit(block.clone()) {
            Ok(inserted_id) => {
                let mut blocks = vec![block];
                self.connect_descendants(store, inserted_id, &mut blocks);
                SyncOutcome::Connected { blocks }
            }
            Err(StorageError::Chain(ChainError::DuplicateBlock { .. })) => SyncOutcome::Duplicate,
            Err(e) => SyncOutcome::Rejected(e.into_chain_error()),
        }
    }

    /// Commits the buffered descendants of `parent`, appending each one the
    /// store accepts to `connected`.
    fn connect_descendants<B: ChainBackend + ?Sized>(
        &mut self,
        store: &mut B,
        parent: BlockId,
        connected: &mut Vec<Block>,
    ) {
        let mut frontier = vec![parent];
        while let Some(p) = frontier.pop() {
            let Some(children) = self.orphans.remove(&p) else {
                continue;
            };
            for child in children {
                self.buffered -= 1;
                if let Ok(id) = store.commit(child.clone()) {
                    frontier.push(id);
                    connected.push(child);
                }
            }
        }
    }

    /// Parent ids the buffer is waiting for — what to request from peers.
    pub fn missing_parents(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self.orphans.keys().copied().collect();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartcrowd_chain::pow::Miner;
    use smartcrowd_chain::{ChainQuery, ChainStore, Difficulty};
    use smartcrowd_crypto::Address;

    fn chain(n: usize) -> (ChainStore, Vec<Block>) {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let store = ChainStore::new(genesis.clone());
        let miner = Miner::new(Address::from_label("m"));
        let mut blocks = Vec::new();
        let mut parent = genesis;
        for _ in 0..n {
            let b = miner
                .mine_next(&parent, vec![], parent.header().timestamp + 15)
                .unwrap();
            blocks.push(b.clone());
            parent = b;
        }
        (store, blocks)
    }

    #[test]
    fn in_order_blocks_connect_directly() {
        let (mut store, blocks) = chain(3);
        let mut sync = SyncBuffer::new();
        for b in blocks {
            assert_eq!(
                sync.offer(&mut store, b.clone()),
                SyncOutcome::Connected { blocks: vec![b] }
            );
        }
        assert_eq!(store.best_height(), 3);
        assert_eq!(sync.buffered(), 0);
    }

    #[test]
    fn fully_reversed_order_reassembles() {
        let (mut store, blocks) = chain(5);
        let mut sync = SyncBuffer::new();
        for b in blocks.iter().skip(1).rev() {
            assert_eq!(sync.offer(&mut store, b.clone()), SyncOutcome::Buffered);
        }
        assert_eq!(sync.buffered(), 4);
        assert_eq!(sync.missing_parents().len(), 4);
        // The first block unlocks the whole chain, reported parent-first.
        assert_eq!(
            sync.offer(&mut store, blocks[0].clone()),
            SyncOutcome::Connected {
                blocks: blocks.clone()
            }
        );
        assert_eq!(store.best_height(), 5);
        assert_eq!(sync.buffered(), 0);
        assert!(sync.missing_parents().is_empty());
    }

    #[test]
    fn duplicates_are_dropped() {
        let (mut store, blocks) = chain(2);
        let mut sync = SyncBuffer::new();
        sync.offer(&mut store, blocks[0].clone());
        assert_eq!(
            sync.offer(&mut store, blocks[0].clone()),
            SyncOutcome::Duplicate
        );
        // Duplicate orphan too.
        assert_eq!(
            sync.offer(&mut store, blocks[1].clone()),
            SyncOutcome::Connected {
                blocks: vec![blocks[1].clone()]
            }
        );
        let (mut store2, blocks2) = chain(3);
        let mut sync2 = SyncBuffer::new();
        assert!(!sync2.holds(&blocks2[2]));
        assert_eq!(
            sync2.offer(&mut store2, blocks2[2].clone()),
            SyncOutcome::Buffered
        );
        assert!(sync2.holds(&blocks2[2]) && !sync2.holds(&blocks2[1]));
        assert_eq!(
            sync2.offer(&mut store2, blocks2[2].clone()),
            SyncOutcome::Duplicate
        );
    }

    #[test]
    fn invalid_blocks_are_rejected_on_connect() {
        let (mut store, blocks) = chain(1);
        let mut sync = SyncBuffer::new();
        let mut bad = blocks[0].clone();
        bad.header_mut().merkle_root[0] ^= 1;
        match sync.offer(&mut store, bad) {
            SyncOutcome::Rejected(_) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(store.best_height(), 0);
    }

    #[test]
    fn orphan_cap_bounds_memory() {
        let (mut store, _) = chain(0);
        let mut sync = SyncBuffer::new();
        // Many unrelated orphan chains from foreign genesis blocks.
        let miner = Miner::new(Address::from_label("x"));
        let mut rejected = 0;
        for i in 0..(MAX_ORPHANS + 10) as u64 {
            let foreign = Block::genesis(Difficulty::from_u64(2 + i as u128 as u64));
            let orphan = miner
                .mine_next(&foreign, vec![], foreign.header().timestamp + 15)
                .unwrap();
            match sync.offer(&mut store, orphan) {
                SyncOutcome::Rejected(_) => rejected += 1,
                SyncOutcome::Buffered => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(sync.buffered(), MAX_ORPHANS);
        assert_eq!(rejected, 10);
    }

    #[test]
    fn interleaved_forks_both_connect() {
        // Two competing forks delivered interleaved and out of order.
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let m1 = Miner::new(Address::from_label("a"));
        let m2 = Miner::new(Address::from_label("b"));
        let a1 = m1
            .mine_next(&genesis, vec![], genesis.header().timestamp + 15)
            .unwrap();
        let a2 = m1
            .mine_next(&a1, vec![], a1.header().timestamp + 15)
            .unwrap();
        let b1 = m2
            .mine_next(&genesis, vec![], genesis.header().timestamp + 16)
            .unwrap();
        let mut sync = SyncBuffer::new();
        assert_eq!(sync.offer(&mut store, a2.clone()), SyncOutcome::Buffered);
        assert_eq!(
            sync.offer(&mut store, b1.clone()),
            SyncOutcome::Connected { blocks: vec![b1] }
        );
        assert_eq!(
            sync.offer(&mut store, a1.clone()),
            SyncOutcome::Connected {
                blocks: vec![a1, a2.clone()]
            }
        );
        // Longest fork wins.
        assert_eq!(store.best_tip(), a2.id());
        assert_eq!(store.block_count(), 4);
    }
}
