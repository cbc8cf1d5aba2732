//! Property tests for the durable store: random insert/fork/crash/reopen
//! sequences, with the store closed and reopened from disk after *every*
//! operation and compared against an in-memory [`ChainStore`] mirror
//! replaying the same inserts.
//!
//! Every sequence runs three times — cache capacity 1, 2, and unbounded —
//! because the paged store must be *observationally identical* whatever
//! the cache does: eviction may cost a cold read, never an answer. The
//! small-capacity runs also pin the residency bound (cache capacity plus
//! the unconfirmed tip region) and exercise the snapshot fast path by
//! snapshotting every other checkpoint.
//!
//! "Observationally identical" deliberately excludes raw block count —
//! the durable store prunes dead fork branches the mirror keeps — and
//! compares what consumers can ask for: best tip, best height, the
//! canonical block at every height (body included, forcing cold page-ins),
//! the record index, and the confirmed set.

use proptest::prelude::*;
use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::storage::frame::{block_frame, FRAME_HEADER_LEN};
use smartcrowd_chain::storage::{ChainQuery, StoreConfig};
use smartcrowd_chain::{
    Block, ChainError, ChainStore, Difficulty, DurableStore, Ether, StorageError,
    CONFIRMATION_DEPTH,
};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The difficulty of every store's genesis, so a block can be offered
/// below it as well as above it.
const GENESIS_DIFFICULTY: u64 = 4;

/// Unique scratch directories across parallel proptest cases.
static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    let tag = CASE.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("storage-props-{}-{tag}", std::process::id()))
}

/// The three cache regimes every sequence must agree across: thrashing
/// (every other cold read evicts), tiny, and effectively unbounded. The
/// bounded regimes snapshot aggressively so reopen takes the fast path
/// mid-sequence; the unbounded one keeps the default cadence.
fn regimes() -> [StoreConfig; 3] {
    [
        StoreConfig {
            cache_capacity: 1,
            snapshot_interval: 2,
        },
        StoreConfig {
            cache_capacity: 2,
            snapshot_interval: 2,
        },
        StoreConfig::default(),
    ]
}

/// Everything a consumer can observe must agree between the reopened
/// durable store and the in-memory mirror.
fn assert_observationally_identical(durable: &DurableStore, mirror: &ChainStore, step: usize) {
    assert_eq!(durable.best_tip(), mirror.best_tip(), "step {step}: tip");
    assert_eq!(
        durable.best_height(),
        mirror.best_height(),
        "step {step}: height"
    );
    for h in 0..=mirror.best_height() {
        let theirs = mirror.canonical_block_at(h).expect("no holes");
        let ours = durable
            .canonical_block_at(h)
            .unwrap_or_else(|| panic!("step {step}: no canonical body at height {h}"));
        // Full body equality: the paged read must reproduce the exact
        // block, not just its id.
        assert_eq!(ours, theirs, "step {step}: body at height {h}");
        let id = theirs.id();
        assert_eq!(
            durable.is_confirmed(&id),
            mirror.is_confirmed(&id),
            "step {step}: confirmation of height {h}"
        );
    }
    for block in mirror.canonical_blocks() {
        for record in block.records() {
            assert_eq!(
                durable.find_record(&record.id()),
                mirror.find_record(&record.id()),
                "step {step}: record location"
            );
        }
    }
}

/// The residency bound from the issue: bodies resident in memory never
/// exceed the cache capacity plus the pinned unconfirmed tip region.
/// `all_blocks` is every block ever inserted (the mirror never prunes),
/// used to over-approximate the pinned set.
fn assert_residency_bounded(
    durable: &DurableStore,
    all_blocks: &[Block],
    capacity: usize,
    step: usize,
) {
    let floor = durable.best_height().saturating_sub(CONFIRMATION_DEPTH);
    let pinned_bound = all_blocks
        .iter()
        .filter(|b| b.header().height > floor && durable.contains_block(&b.id()))
        .count();
    assert!(
        durable.resident_blocks() <= capacity.saturating_add(pinned_bound),
        "step {step}: {} bodies resident, bound is {capacity} + {pinned_bound} pinned",
        durable.resident_blocks()
    );
}

/// Decodes one opaque `u64` per operation (the in-repo proptest shim has
/// no flat_map, so strategies stay scalar and structure lives here):
///
/// - `op % 8 == 6` — close and reopen; recovery must be clean.
/// - `op % 8 == 7` — crash mid-append: close the store, append a strict
///   prefix of the next block's frame to `blocks.log`, and reopen, which
///   must truncate it. The commit never returned, so the block is lost
///   and the mirror does not get it; the tear ends inside the frame
///   header or inside the payload.
/// - `op % 8 == 2` — mine a fork block off a recent canonical parent
///   (recent ⇒ never pruned, so both stores see it).
/// - `op % 8 == 3` — offer a block at a difficulty above or below the
///   genesis difficulty off a recent canonical parent; both stores must
///   refuse it, so nothing changes.
/// - otherwise — extend the tip with a record-bearing block.
///
/// After every operation the durable store is dropped and reopened from
/// disk before the observational comparison, so every prefix of every
/// sequence proves the round-trip.
fn run_sequence_with(ops: &[u64], config: StoreConfig) {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let genesis = Block::genesis(Difficulty::from_u64(GENESIS_DIFFICULTY));
    let mut mirror = ChainStore::new(genesis.clone());
    let mut durable = DurableStore::open_with(&dir, &genesis, config).unwrap();
    let miner = Miner::new(Address::from_label("prop"));
    let mut nonce = 0u64;
    let mut all_blocks = vec![genesis.clone()];

    for (step, &op) in ops.iter().enumerate() {
        match op % 8 {
            6 => {
                drop(durable);
                durable = DurableStore::open_with(&dir, &genesis, config).unwrap();
                assert!(
                    durable.last_recovery().clean(),
                    "step {step}: reopen of a cleanly-closed store needed repairs: {:?}",
                    durable.last_recovery()
                );
            }
            7 => {
                let parent = mirror.best_block().clone();
                let timestamp = parent.header().timestamp + 1 + (op >> 32) % 50;
                let block = miner.mine_next(&parent, vec![], timestamp).unwrap();
                let bytes = if (op >> 4) % 2 == 0 {
                    3 + (op >> 8) % 40
                } else {
                    FRAME_HEADER_LEN as u64 + (op >> 8) % 200
                };
                drop(durable);
                let frame = block_frame(&block);
                let keep = (bytes as usize).clamp(1, frame.len() - 1);
                let mut log = std::fs::OpenOptions::new()
                    .append(true)
                    .open(dir.join("blocks.log"))
                    .unwrap();
                std::io::Write::write_all(&mut log, &frame[..keep]).unwrap();
                durable = DurableStore::open_with(&dir, &genesis, config).unwrap();
                assert!(
                    durable.last_recovery().torn_truncated,
                    "step {step}: the torn append was not truncated"
                );
            }
            3 => {
                let best = mirror.best_height();
                let parent = mirror
                    .canonical_block_at(best.saturating_sub((op >> 8) % CONFIRMATION_DEPTH))
                    .unwrap();
                let difficulty = if (op >> 4) % 2 == 0 {
                    GENESIS_DIFFICULTY * 64
                } else {
                    1
                };
                let block = Block::assemble(
                    &parent,
                    vec![],
                    parent.header().timestamp + 3,
                    Difficulty::from_u64(difficulty),
                    miner.address(),
                );
                let block = miner.seal(block, 0).unwrap();
                let ours = durable.commit(block.clone());
                let theirs = mirror.insert(block);
                assert!(
                    matches!(ours, Err(StorageError::Chain(ChainError::Codec { .. })))
                        && matches!(theirs, Err(ChainError::Codec { .. })),
                    "step {step}: difficulty {difficulty} offered: {ours:?} vs {theirs:?}"
                );
            }
            2 => {
                let best = mirror.best_height();
                let low = best.saturating_sub(CONFIRMATION_DEPTH - 1);
                let h = low + (op >> 8) % (best - low + 1);
                let parent = mirror.canonical_block_at(h).unwrap();
                let timestamp = parent.header().timestamp + 2 + (op >> 32) % 50;
                let block = miner.mine_next(&parent, vec![], timestamp).unwrap();
                let ours = durable.commit(block.clone());
                let theirs = mirror.insert(block.clone());
                assert_eq!(
                    ours.is_ok(),
                    theirs.is_ok(),
                    "step {step}: stores disagreed on a fork block: {ours:?} vs {theirs:?}"
                );
                if theirs.is_ok() {
                    all_blocks.push(block);
                }
            }
            _ => {
                let parent = mirror.best_block().clone();
                nonce += 1;
                let kp = KeyPair::from_seed(&op.to_be_bytes());
                let record = Record::signed(
                    RecordKind::InitialReport,
                    op.to_be_bytes().to_vec(),
                    Ether::from_milliether(11),
                    nonce,
                    &kp,
                );
                let block = miner
                    .mine_next(&parent, vec![record], parent.header().timestamp + 1)
                    .unwrap();
                durable.commit(block.clone()).unwrap();
                mirror.insert(block.clone()).unwrap();
                all_blocks.push(block);
            }
        }
        // Close + reopen after every prefix of the sequence.
        drop(durable);
        durable = DurableStore::open_with(&dir, &genesis, config).unwrap();
        assert_observationally_identical(&durable, &mirror, step);
        assert_residency_bounded(&durable, &all_blocks, config.cache_capacity, step);
    }
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one sequence under all three cache regimes.
fn run_sequence(ops: &[u64]) {
    for config in regimes() {
        run_sequence_with(ops, config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn reopened_store_matches_in_memory_replay(
        ops in proptest::collection::vec(any::<u64>(), 1..24),
    ) {
        run_sequence(&ops);
    }
}

#[test]
fn long_chain_prunes_forks_and_still_matches() {
    // A directed long run: enough height that checkpoints are written
    // and early forks cross the pruning horizon.
    let ops: Vec<u64> = (0..40u64)
        .map(|i| if i % 7 == 3 { (i << 8) | 2 } else { i << 3 })
        .collect();
    run_sequence(&ops);
}

#[test]
fn every_crash_point_round_trips_under_the_mirror() {
    // One sequence per tear shape: grow, crash, keep growing.
    for point in [0u64, 1] {
        let crash_op = 7 | (point << 4) | (77 << 8);
        let ops: Vec<u64> = vec![8, 16, crash_op, 24, 32, 6, 40, crash_op, 48];
        run_sequence(&ops);
    }
}

/// Prune equivalence over seeded fork trees: forks of forks, forks deep
/// below the pruning horizon, and reorgs that turn a canonical branch
/// into a fork. `DurableStore::prune` folds subtree heights over the
/// fork blocks alone; the reference here folds over the whole log. After
/// every commit the stored block set must equal what the reference
/// keeps, so every fork block leaves at exactly the commit the full-log
/// fold removes it.
mod fork_tree {
    use super::*;
    use smartcrowd_chain::BlockId;
    use std::collections::{BTreeSet, HashMap, HashSet};

    /// The full-log subtree fold: keeps every canonical block and every
    /// fork block whose subtree reaches above `best − CONFIRMATION_DEPTH`.
    /// `log` is in commit order, so children follow their parents.
    fn reference_prune(log: &mut Vec<Block>, mirror: &ChainStore) {
        let best = mirror.best_height();
        if best <= CONFIRMATION_DEPTH {
            return;
        }
        let horizon = best - CONFIRMATION_DEPTH;
        let mut deepest: HashMap<BlockId, u64> = HashMap::new();
        for block in log.iter().rev() {
            let height = block.header().height;
            let own = deepest.get(&block.id()).copied().unwrap_or(0).max(height);
            deepest.insert(block.id(), own);
            let parent = deepest.entry(block.header().prev).or_insert(0);
            *parent = (*parent).max(own);
        }
        log.retain(|b| mirror.is_canonical(&b.id()) || deepest[&b.id()] > horizon);
    }

    /// What a run exercised, so the test can insist it covered each shape.
    #[derive(Default)]
    struct Coverage {
        forks_of_forks: u64,
        deep_forks: u64,
        reorgs: u64,
        pruned: u64,
        pruned_once_canonical: u64,
    }

    /// xorshift64*: a seeded, dependency-free choice stream.
    struct Choices(u64);

    impl Choices {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1)
        }
    }

    fn run(seed: u64, config: StoreConfig, coverage: &mut Coverage) {
        let dir = scratch_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut durable = DurableStore::open_with(&dir, &genesis, config).unwrap();
        let mut mirror = ChainStore::new(genesis.clone());
        let miner = Miner::new(Address::from_label("fork-tree"));
        let mut choices = Choices(seed);
        // The reference log, and every block ever committed.
        let mut log = vec![genesis.clone()];
        let mut all = vec![genesis.id()];
        let mut ever_canonical: HashSet<BlockId> = HashSet::from([genesis.id()]);
        let mut checkpoint = 0u64;
        // Tip of a side branch being grown until it overtakes the best.
        let mut chasing: Option<Block> = None;

        for step in 0..160u64 {
            let best = mirror.best_height();
            let forks: Vec<&Block> = log
                .iter()
                .filter(|b| !mirror.is_canonical(&b.id()))
                .collect();
            let mut chase = chasing.is_some();
            let parent = match (chasing.take(), choices.below(10)) {
                (Some(branch_tip), _) => branch_tip,
                (None, 0) => {
                    let depth = 1 + choices.below(CONFIRMATION_DEPTH);
                    mirror
                        .canonical_block_at(best.saturating_sub(depth))
                        .unwrap()
                }
                (None, 1) if !forks.is_empty() => {
                    coverage.forks_of_forks += 1;
                    forks[choices.below(forks.len() as u64) as usize].clone()
                }
                (None, 2) if best > CONFIRMATION_DEPTH + 1 => {
                    coverage.deep_forks += 1;
                    let height = choices.below(best - CONFIRMATION_DEPTH);
                    mirror.canonical_block_at(height).unwrap()
                }
                (None, 3) if best >= 2 => {
                    chase = true;
                    mirror.canonical_block_at(best - 2).unwrap()
                }
                _ => mirror.best_block().clone(),
            };
            let block = miner
                .mine_next(&parent, vec![], parent.header().timestamp + 1 + step)
                .unwrap();
            durable.commit(block.clone()).unwrap();
            mirror.insert(block.clone()).unwrap();
            log.push(block.clone());
            all.push(block.id());
            if chase {
                if mirror.is_canonical(&block.id()) {
                    coverage.reorgs += 1;
                } else {
                    chasing = Some(block);
                }
            }
            ever_canonical.extend(
                log.iter()
                    .map(Block::id)
                    .filter(|id| mirror.is_canonical(id)),
            );

            let best = mirror.best_height();
            if best > CONFIRMATION_DEPTH && best - CONFIRMATION_DEPTH > checkpoint {
                checkpoint = best - CONFIRMATION_DEPTH;
                let before: Vec<BlockId> = log.iter().map(Block::id).collect();
                reference_prune(&mut log, &mirror);
                let kept: HashSet<BlockId> = log.iter().map(Block::id).collect();
                for id in before.iter().filter(|id| !kept.contains(id)) {
                    coverage.pruned += 1;
                    coverage.pruned_once_canonical += u64::from(ever_canonical.contains(id));
                }
            }
            // A reopened store must prune exactly as the live one did.
            if step % 40 == 39 {
                drop(durable);
                durable = DurableStore::open_with(&dir, &genesis, config).unwrap();
                assert!(durable.last_recovery().clean(), "seed {seed} step {step}");
            }

            let expected: BTreeSet<BlockId> = log.iter().map(Block::id).collect();
            let stored: BTreeSet<BlockId> = all
                .iter()
                .copied()
                .filter(|id| durable.contains_block(id))
                .collect();
            assert_eq!(stored, expected, "seed {seed} step {step}: stored set");
            assert_eq!(durable.block_count(), log.len(), "seed {seed} step {step}");
            assert_eq!(
                durable.best_tip(),
                mirror.best_tip(),
                "seed {seed} step {step}"
            );
        }
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fork_set_prune_removes_what_the_full_log_fold_removes() {
        let mut coverage = Coverage::default();
        for seed in 1..=4u64 {
            for config in [regimes()[1], StoreConfig::default()] {
                run(0x9e37_79b9_7f4a_7c15 ^ seed, config, &mut coverage);
            }
        }
        assert!(coverage.forks_of_forks > 0, "no fork of a fork");
        assert!(coverage.deep_forks > 0, "no fork below the horizon");
        assert!(coverage.reorgs > 0, "no reorg");
        assert!(coverage.pruned > 0, "nothing pruned");
        assert!(
            coverage.pruned_once_canonical > 0,
            "no reorged-out canonical branch was pruned"
        );
    }
}
