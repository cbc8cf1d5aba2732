//! The durable commit's I/O budget, counted in `chain.storage.fsyncs`.
//!
//! This file holds one test, so it runs alone in its own process and the
//! process-global counter moves only with the store below: every delta
//! is exact.

use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::storage::{ChainQuery, StoreConfig};
use smartcrowd_chain::{Block, Difficulty, DurableStore, CONFIRMATION_DEPTH};
use smartcrowd_crypto::Address;
use smartcrowd_telemetry::counter;
use std::path::PathBuf;

fn fsyncs() -> u64 {
    counter!("chain.storage.fsyncs").get()
}

/// Fsyncs one commit of `block` costs.
fn commit_cost(store: &mut DurableStore, block: &Block) -> u64 {
    let before = fsyncs();
    store.commit(block.clone()).unwrap();
    fsyncs() - before
}

const SNAPSHOT_INTERVAL: u64 = 4;

/// The two swaps on the snapshot cadence, `state.snap` then
/// `checkpoint`: each a temp-file fsync and a directory fsync.
const SNAPSHOT_SWAPS: u64 = 2 + 2;

/// The budget of a best-extending commit at `height`: the log append;
/// every `SNAPSHOT_INTERVAL`-th confirmed height also the snapshot and
/// checkpoint swaps.
fn extending_budget(height: u64) -> u64 {
    match height.saturating_sub(CONFIRMATION_DEPTH) {
        confirmed if confirmed > 0 && confirmed % SNAPSHOT_INTERVAL == 0 => 1 + SNAPSHOT_SWAPS,
        _ => 1,
    }
}

#[test]
fn every_commit_pays_its_fsync_budget_and_no_more() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fsync-budget");
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        cache_capacity: usize::MAX,
        snapshot_interval: SNAPSHOT_INTERVAL,
    };
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let before = fsyncs();
    let mut store = DurableStore::open_with(&dir, &genesis, config).unwrap();
    // The directory's name in its parent, the genesis append, and the
    // log's name in the directory.
    assert_eq!(fsyncs() - before, 3, "a fresh store");

    let miner = Miner::new(Address::from_label("budget"));
    let next = |parent: &Block| {
        miner
            .mine_next(parent, vec![], parent.header().timestamp + 15)
            .unwrap()
    };
    let mut tip = genesis.clone();
    for height in 1..=CONFIRMATION_DEPTH + 2 * SNAPSHOT_INTERVAL {
        let block = next(&tip);
        let budget = extending_budget(height);
        assert_eq!(commit_cost(&mut store, &block), budget, "height {height}");
        tip = block;
    }

    // A fork block does not move the tip: the append alone.
    let parent = store.canonical_block_at(store.best_height() - 1).unwrap();
    let fork = miner
        .mine_next(&parent, vec![], parent.header().timestamp + 16)
        .unwrap();
    assert_eq!(commit_cost(&mut store, &fork), 1, "fork block");

    // Extend until the fork falls below the horizon. The commit that
    // prunes it adds the compaction's temp-file and directory fsyncs,
    // plus the snapshot refresh (and its checkpoint) the moved frame
    // offsets call for.
    let fork_height = fork.header().height;
    while store.best_height() + 1 < fork_height + CONFIRMATION_DEPTH {
        let block = next(&tip);
        let budget = extending_budget(block.header().height);
        assert_eq!(commit_cost(&mut store, &block), budget);
        tip = block;
    }
    let block = next(&tip);
    assert_eq!(
        commit_cost(&mut store, &block),
        1 + 2 + SNAPSHOT_SWAPS,
        "pruning commit"
    );
    assert!(!store.contains_block(&fork.id()), "the fork was not pruned");
    assert_eq!(store.block_count() as u64, store.best_height() + 1);

    // A clean reopen repairs nothing and rewrites nothing.
    drop(store);
    let before = fsyncs();
    let store = DurableStore::open_with(&dir, &genesis, config).unwrap();
    assert!(store.last_recovery().clean());
    assert_eq!(fsyncs() - before, 0, "clean reopen");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
