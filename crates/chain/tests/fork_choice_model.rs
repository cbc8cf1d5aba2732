//! An independent oracle for the chain index. `ChainStore` and
//! `DurableStore` answer from one shared implementation of linkage, fork
//! choice and the canonical / record indices, so comparing them with each
//! other (storage_proptests.rs) no longer cross-checks that logic. This
//! suite compares it with a brute-force model that shares no code with it:
//!
//! - best tip = the first-seen block of maximal summed difficulty, found
//!   by walking every block's ancestry;
//! - canonical set = that block's ancestors;
//! - record index = exactly the records on them, an id carried by two
//!   canonical blocks resolving to the lower one;
//!
//! checked after every insert over random fork trees (equal-work ties,
//! side branches that overtake, deep reorgs, duplicate and orphan
//! inserts). Every block declares the genesis difficulty, as the index
//! requires, so a branch outweighs another by being longer. A telemetry-count check pins the cost of a tip extension as
//! independent of chain height.

use proptest::prelude::*;
use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::store::RecordLocation;
use smartcrowd_chain::{Block, ChainError, ChainQuery, ChainStore, Difficulty, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use smartcrowd_telemetry::counter;
use std::sync::{Mutex, MutexGuard};

/// `chain.idcache.hit` is process-global; the tests of this binary take
/// turns so the cost check reads only its own inserts.
static TELEMETRY: Mutex<()> = Mutex::new(());

fn telemetry_turn() -> MutexGuard<'static, ()> {
    TELEMETRY.lock().unwrap_or_else(|e| e.into_inner())
}

fn record(seed: u64) -> Record {
    let kp = KeyPair::from_seed(&seed.to_be_bytes());
    Record::signed(
        RecordKind::Transfer,
        vec![seed as u8],
        Ether::ZERO,
        seed,
        &kp,
    )
}

/// The store under test beside the model: every block ever accepted, in
/// insertion order (`blocks[0]` is genesis), with its parent's position.
struct Harness {
    store: ChainStore,
    blocks: Vec<Block>,
    parent: Vec<usize>,
    /// Every record any block may carry; small, so ids repeat across
    /// branches and along one chain.
    pool: Vec<Record>,
    mined: u64,
}

impl Harness {
    fn new() -> Self {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        Harness {
            store: ChainStore::new(genesis.clone()),
            blocks: vec![genesis],
            parent: vec![0],
            pool: (0..8).map(record).collect(),
            mined: 0,
        }
    }

    /// Mines a child of `blocks[parent]` carrying `pool[i]` for each `i`
    /// (a distinct miner per call keeps siblings distinct).
    fn mine(&mut self, parent: &Block, records: &[usize]) -> Block {
        self.mined += 1;
        let mut picked: Vec<usize> = records.to_vec();
        picked.sort_unstable();
        picked.dedup();
        Miner::new(Address::from_label(&format!("m{}", self.mined)))
            .mine_next(
                parent,
                picked.iter().map(|i| self.pool[*i].clone()).collect(),
                parent.header().timestamp + 15,
            )
            .unwrap()
    }

    /// Inserts a fresh child of `blocks[parent]`; returns its position.
    fn extend(&mut self, parent: usize, records: &[usize]) -> usize {
        let block = self.mine(&self.blocks[parent].clone(), records);
        assert_eq!(self.store.insert(block.clone()), Ok(block.id()));
        self.blocks.push(block);
        self.parent.push(parent);
        self.check();
        self.blocks.len() - 1
    }

    /// Re-inserts a stored block: refused, nothing moves.
    fn duplicate(&mut self, which: usize) {
        let block = self.blocks[which].clone();
        assert_eq!(
            self.store.insert(block.clone()),
            Err(ChainError::DuplicateBlock { id: block.id() })
        );
        self.check();
    }

    /// Inserts a block whose parent was never stored: refused, nothing
    /// moves.
    fn orphan(&mut self) {
        let unsent = self.mine(&self.blocks[0].clone(), &[]);
        let child = self.mine(&unsent, &[0]);
        assert_eq!(
            self.store.insert(child),
            Err(ChainError::UnknownParent {
                parent: unsent.id()
            })
        );
        self.check();
    }

    /// Positions from genesis to `blocks[i]`.
    fn ancestry(&self, mut i: usize) -> Vec<usize> {
        let mut chain = vec![i];
        while i != 0 {
            i = self.parent[i];
            chain.push(i);
        }
        chain.reverse();
        chain
    }

    fn work(&self, i: usize) -> u128 {
        self.ancestry(i)
            .iter()
            .map(|j| self.blocks[*j].header().difficulty.value())
            .sum()
    }

    /// The whole model, by brute force, against every answer the index
    /// gives.
    fn check(&self) {
        let best = (0..self.blocks.len()).fold(0, |best, i| {
            if self.work(i) > self.work(best) {
                i
            } else {
                best
            }
        });
        let chain = self.ancestry(best);
        let tip_height = chain.len() as u64 - 1;
        assert_eq!(self.store.best_tip(), self.blocks[best].id());
        assert_eq!(self.store.best_height(), tip_height);
        assert_eq!(self.store.block_count(), self.blocks.len());
        for (i, block) in self.blocks.iter().enumerate() {
            let id = block.id();
            let confirmations = if chain.contains(&i) {
                tip_height - block.header().height + 1
            } else {
                0
            };
            assert_eq!(self.store.is_canonical(&id), confirmations > 0);
            assert_eq!(self.store.confirmations(&id), confirmations);
            assert_eq!(self.store.work_of(&id), Some(self.work(i)));
        }
        for (height, i) in chain.iter().enumerate() {
            assert_eq!(
                self.store.canonical_block_at(height as u64),
                Some(self.blocks[*i].clone())
            );
        }
        assert!(self.store.canonical_block_at(tip_height + 1).is_none());
        for record in &self.pool {
            let expected = chain.iter().find_map(|i| {
                let block = &self.blocks[*i];
                let index = block.records().iter().position(|r| r.id() == record.id())?;
                Some(RecordLocation {
                    block_id: block.id(),
                    height: block.header().height,
                    index,
                })
            });
            assert_eq!(self.store.find_record(&record.id()), expected);
        }
    }
}

#[test]
fn ties_overtakes_and_deep_reorgs_match_the_model() {
    let _turn = telemetry_turn();
    let mut h = Harness::new();
    // Main branch a1-a2-a3; record 1 rides twice on it.
    let a1 = h.extend(0, &[0, 1]);
    let a2 = h.extend(a1, &[1, 2]);
    let a3 = h.extend(a2, &[3]);
    // A side branch catches up block by block: equal work never displaces
    // the first-seen tip...
    let b1 = h.extend(0, &[2]);
    let b2 = h.extend(b1, &[0]);
    let b3 = h.extend(b2, &[4]);
    assert_eq!(h.store.best_tip(), h.blocks[a3].id());
    // ...one more block overtakes: a reorg of depth 3.
    let b4 = h.extend(b3, &[5]);
    assert_eq!(h.store.best_tip(), h.blocks[b4].id());
    h.duplicate(a2);
    h.orphan();
    // Two blocks on the abandoned branch win it back (depth 4): the first
    // only ties the tip.
    let a4 = h.extend(a3, &[1, 6]);
    assert_eq!(h.store.best_tip(), h.blocks[b4].id());
    let a5 = h.extend(a4, &[]);
    assert_eq!(h.store.best_tip(), h.blocks[a5].id());
    // An equal-work rival of the tip, then a plain tip extension.
    h.extend(b4, &[7]);
    assert_eq!(h.store.best_tip(), h.blocks[a5].id());
    h.extend(a5, &[]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One opaque `u64` per step (the in-repo proptest shim has no
    /// flat_map): step kind, parent choice, a run of 1–3 blocks and up to
    /// two pool records are all bit fields of it.
    #[test]
    fn random_fork_trees_match_the_model(
        ops in proptest::collection::vec(any::<u64>(), 8..40),
    ) {
        let _turn = telemetry_turn();
        let mut h = Harness::new();
        for op in ops {
            let n = h.blocks.len() as u64;
            match op % 16 {
                14 => h.duplicate(((op >> 8) % n) as usize),
                15 => h.orphan(),
                _ => {
                    // Two in three steps grow one of the three newest
                    // blocks (racing branches, deep reorgs); the rest fork
                    // anywhere.
                    let parent = if (op >> 4) % 3 == 0 {
                        (op >> 8) % n
                    } else {
                        n - 1 - (op >> 8) % n.min(3)
                    };
                    let records = [(op >> 36) % 8, (op >> 40) % 8].map(|i| i as usize);
                    let count = ((op >> 32) % 3) as usize;
                    let mut tip = parent as usize;
                    for _ in 0..1 + (op >> 24) % 3 {
                        tip = h.extend(tip, &records[..count]);
                    }
                }
            }
        }
    }
}

#[test]
fn extending_the_tip_costs_the_same_at_any_height() {
    // `chain.idcache.hit` counts every memoised id the insert reads; an
    // insert that re-walked the canonical chain would read more of them
    // the longer the chain is.
    let _turn = telemetry_turn();
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let mut store = ChainStore::new(genesis.clone());
    let miner = Miner::new(Address::from_label("m"));
    let hits = counter!("chain.idcache.hit");
    let mut cost_at = Vec::new();
    let mut parent = genesis;
    for height in 1..=500u64 {
        let block = miner
            .mine_next(
                &parent,
                vec![record(height)],
                parent.header().timestamp + 15,
            )
            .unwrap();
        let before = hits.get();
        store.insert(block.clone()).unwrap();
        cost_at.push(hits.get() - before);
        parent = block;
    }
    assert_eq!(store.best_height(), 500);
    assert_eq!(cost_at[4], cost_at[499], "height 5 vs height 500");
}
