//! Pins the sharing: a `Record` or `Block` clone is a reference-count
//! bump, so cloning and dropping one touches the allocator not at all, and
//! a gossip message carrying a block costs its `Box` and nothing per
//! record.
//!
//! One test in its own binary: the allocator is process-global.

#![allow(unsafe_code)]

use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::{Block, Difficulty, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_net::Message;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread while it measures, so the harness's own
    /// threads are not counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters and the const-initialised
// thread-local flag (no lazy initialiser, no destructor) never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.with(Cell::get) {
            FREES.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `alloc` above, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, frees)` made by `f` on this thread.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        FREES.load(Ordering::Relaxed),
    );
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        FREES.load(Ordering::Relaxed) - before.1,
    )
}

#[test]
fn clones_of_records_and_blocks_do_not_allocate() {
    let kp = KeyPair::from_seed(b"sharing");
    let records: Vec<Record> = (0..64u64)
        .map(|i| {
            Record::signed(
                RecordKind::Transfer,
                vec![i as u8; 200],
                Ether::ZERO,
                i,
                &kp,
            )
        })
        .collect();
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let block = Block::assemble(
        &genesis,
        records.clone(),
        genesis.header().timestamp + 15,
        Difficulty::from_u64(1),
        kp.address(),
    );
    assert_eq!(block.records().len(), 64);

    assert_eq!(counted(|| drop(records[0].clone())), (0, 0), "record");
    assert_eq!(counted(|| drop(block.clone())), (0, 0), "64-record block");

    let message = Message::Block(Box::new(block));
    assert_eq!(counted(|| drop(message.clone())), (1, 1), "its Box only");
    let message = Message::Record(records[0].clone());
    assert_eq!(counted(|| drop(message.clone())), (0, 0));

    // The meter does see a deep copy.
    let (allocs, frees) = counted(|| drop(records[0].encode()));
    assert_eq!((allocs, frees), (1, 1));
}
