//! Pins what reopening and compacting a store cost in memory: the chain
//! index, the block cache and one read chunk, never the log. Stores of
//! two lengths are reopened by full scan (snapshots off, cache of 4) and
//! then pruned of a fork. Between the two lengths, the peak live heap of
//! each step may grow by less than a quarter of the extra log bytes,
//! which leaves room for the index's growth only; a step that held the
//! log image, or every decoded body, would grow by at least the extra
//! log.
//!
//! One test in its own binary: the allocator is process-global.

#![allow(unsafe_code)]

use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::storage::{export_chain, StoreConfig};
use smartcrowd_chain::{
    Block, ChainQuery, ChainStore, Difficulty, DurableStore, Ether, CONFIRMATION_DEPTH,
};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Counts live heap bytes and their high-water mark.
struct Counting;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the atomic counters never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as a copy: both blocks live at once.
        grow(new_size);
        // SAFETY: the caller's obligations are `System::realloc`'s.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `f` returns, and how far the live heap rose above its level at
/// the call while `f` ran.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// Genesis and `len` blocks of four 2 KiB records each.
fn chain(len: usize) -> Vec<Block> {
    let kp = KeyPair::from_seed(b"recovery-memory");
    let miner = Miner::new(kp.address());
    let mut blocks = vec![Block::genesis(Difficulty::from_u64(1))];
    for height in 1..=len as u64 {
        let records = (0..4u64)
            .map(|i| {
                let nonce = height * 4 + i;
                let payload = vec![nonce as u8; 2048];
                Record::signed(RecordKind::DetailedReport, payload, Ether::ZERO, nonce, &kp)
            })
            .collect();
        let parent = blocks.last().unwrap();
        let ts = parent.header().timestamp + 15;
        blocks.push(miner.mine_next(parent, records, ts).unwrap());
    }
    blocks
}

/// Peak heap growth of a full-scan open and of pruning one fork, for a
/// store of `blocks`, with the store's log length.
fn measure(dir: &Path, blocks: &[Block]) -> (usize, usize, u64) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let mut mirror = ChainStore::new(blocks[0].clone());
    for block in &blocks[1..] {
        mirror.insert(block.clone()).unwrap();
    }
    let log = export_chain(&mirror);
    std::fs::write(dir.join("blocks.log"), &log).unwrap();
    drop(mirror);

    let config = StoreConfig {
        cache_capacity: 4,
        snapshot_interval: 0,
    };
    let (store, open) = peak_growth(|| DurableStore::open_with(dir, &blocks[0], config).unwrap());
    let mut store = store;
    assert_eq!(store.best_height() as usize, blocks.len() - 1);
    assert!(store.resident_blocks() <= 4 + CONFIRMATION_DEPTH as usize);

    // A dead two-block fork low in the chain: prune compacts it away.
    let forker = Miner::new(Address::from_label("fork"));
    let mut parent = blocks[2].clone();
    for _ in 0..2 {
        let ts = parent.header().timestamp + 1;
        let fork = forker.mine_next(&parent, vec![], ts).unwrap();
        store.commit(fork.clone()).unwrap();
        parent = fork;
    }
    let (pruned, prune) = peak_growth(|| store.prune().unwrap());
    assert_eq!(pruned, 2);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    (open, prune, log.len() as u64)
}

#[test]
fn reopen_and_compaction_peaks_do_not_grow_with_the_log() {
    let blocks = chain(640);
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("recovery-memory-{}", std::process::id()));
    let (open_short, prune_short, log_short) = measure(&root.join("short"), &blocks[..=160]);
    let (open_long, prune_long, log_long) = measure(&root.join("long"), &blocks);
    let budget = (log_long - log_short) as usize / 4;
    println!(
        "log {log_short} -> {log_long} B; open peak {open_short} -> {open_long} B; \
         prune peak {prune_short} -> {prune_long} B; growth budget {budget} B"
    );
    assert!(
        open_long.saturating_sub(open_short) < budget,
        "open's peak grew by {} B for {} more log bytes",
        open_long.saturating_sub(open_short),
        log_long - log_short
    );
    assert!(
        prune_long.saturating_sub(prune_short) < budget,
        "prune's peak grew by {} B for {} more log bytes",
        prune_long.saturating_sub(prune_short),
        log_long - log_short
    );
}
