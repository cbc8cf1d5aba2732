//! Property-based tests for [`SyncBuffer`]: delivery-order independence,
//! exact outcome accounting, and bounded orphan memory under spam.

use proptest::prelude::*;
use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{Block, ChainQuery, ChainStore, Difficulty};
use smartcrowd_crypto::Address;
use smartcrowd_net::sync::{SyncBuffer, SyncOutcome, MAX_ORPHANS};

/// A linear chain of `n` mined blocks on a fresh genesis.
fn chain(n: usize) -> (ChainStore, Vec<Block>) {
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let store = ChainStore::new(genesis.clone());
    let miner = Miner::new(Address::from_label("prop"));
    let mut blocks = Vec::with_capacity(n);
    let mut parent = genesis;
    for _ in 0..n {
        let b = miner
            .mine_next(&parent, vec![], parent.header().timestamp + 15)
            .expect("mining succeeds at difficulty 1");
        blocks.push(b.clone());
        parent = b;
    }
    (store, blocks)
}

/// Deterministic Fisher–Yates shuffle driven by the seeded sim RNG.
fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any permutation of any chain, with arbitrary duplicated deliveries
    /// injected, reassembles to exactly the in-order tip and height, with
    /// an empty buffer afterwards.
    #[test]
    fn permuted_and_duplicated_delivery_converges_to_the_in_order_tip(
        len in 1usize..24,
        dup_count in 0usize..12,
        seed in any::<u64>(),
    ) {
        let (_, blocks) = chain(len);

        // Baseline: in-order delivery.
        let (mut store_a, _) = chain(0);
        let mut sync_a = SyncBuffer::new();
        for b in &blocks {
            sync_a.offer(&mut store_a, b.clone());
        }

        // Permuted + duplicated delivery of the same blocks.
        let mut rng = SimRng::seed_from_u64(seed);
        let mut order: Vec<Block> = blocks.clone();
        for _ in 0..dup_count {
            let pick = rng.next_below(blocks.len() as u64) as usize;
            order.push(blocks[pick].clone());
        }
        shuffle(&mut order, &mut rng);
        let (mut store_b, _) = chain(0);
        let mut sync_b = SyncBuffer::new();
        for b in order {
            sync_b.offer(&mut store_b, b);
        }

        prop_assert_eq!(store_b.best_tip(), store_a.best_tip());
        prop_assert_eq!(store_b.best_height(), len as u64);
        prop_assert_eq!(sync_b.buffered(), 0);
        prop_assert!(sync_b.missing_parents().is_empty());
    }

    /// Outcome accounting is exact: over a permuted delivery with `d`
    /// duplicated offers, the `connected` counts sum to the chain length,
    /// `Duplicate` fires exactly `d` times (every block is eventually
    /// known, so each extra copy is recognized), and `Buffered` equals
    /// the offers that neither connected nor duplicated.
    #[test]
    fn outcome_accounting_is_exact(
        len in 1usize..20,
        dup_count in 0usize..10,
        seed in any::<u64>(),
    ) {
        let (mut store, blocks) = chain(len);
        let mut rng = SimRng::seed_from_u64(seed ^ 0xacc0);

        let mut order: Vec<Block> = blocks.clone();
        for _ in 0..dup_count {
            let pick = rng.next_below(blocks.len() as u64) as usize;
            order.push(blocks[pick].clone());
        }
        shuffle(&mut order, &mut rng);

        let mut sync = SyncBuffer::new();
        let (mut connected_sum, mut duplicates, mut buffered) = (0usize, 0usize, 0usize);
        let total_offers = order.len();
        for b in order {
            match sync.offer(&mut store, b) {
                SyncOutcome::Connected { blocks } => connected_sum += blocks.len(),
                SyncOutcome::Duplicate => duplicates += 1,
                SyncOutcome::Buffered => buffered += 1,
                SyncOutcome::Rejected(e) => prop_assert!(false, "unexpected rejection: {e}"),
            }
        }

        prop_assert_eq!(connected_sum, len, "every block connects exactly once");
        prop_assert_eq!(duplicates, dup_count, "every duplicated offer is flagged");
        // Each buffered offer is later connected by a Connected cascade,
        // so the three counts partition the offer sequence. The number of
        // *offer events* that returned Connected is the remainder.
        let connected_events = total_offers - duplicates - buffered;
        prop_assert!(connected_events >= 1);
        prop_assert!(connected_events + buffered == len);
        prop_assert_eq!(sync.buffered(), 0);
    }

    /// Orphan spam from arbitrary foreign chains never grows the buffer
    /// past `MAX_ORPHANS`, never touches the store, and overflow is
    /// reported as `Rejected`, not silently dropped.
    #[test]
    fn orphan_spam_is_bounded_and_rejected_past_the_cap(
        spam in 1usize..64,
        seed in any::<u64>(),
    ) {
        let (mut store, _) = chain(0);
        let mut sync = SyncBuffer::new();
        let miner = Miner::new(Address::from_label("spammer"));
        let mut rng = SimRng::seed_from_u64(seed ^ 0x59a7);
        let mut rejected = 0usize;
        let mut salt = 2 + rng.next_below(64);
        for _ in 0..spam {
            // Each orphan hangs off a distinct foreign genesis (distinct
            // difficulty → distinct genesis id); difficulties stay tiny so
            // the proof-of-work search is trivial.
            salt += 1;
            let foreign = Block::genesis(Difficulty::from_u64(salt));
            let orphan = miner
                .mine_next(&foreign, vec![], foreign.header().timestamp + 15)
                .expect("mining succeeds");
            match sync.offer(&mut store, orphan) {
                SyncOutcome::Buffered => {}
                SyncOutcome::Rejected(_) => rejected += 1,
                SyncOutcome::Duplicate => {}
                SyncOutcome::Connected { .. } => {
                    prop_assert!(false, "foreign orphan cannot connect");
                }
            }
        }
        prop_assert!(sync.buffered() <= MAX_ORPHANS);
        prop_assert_eq!(store.best_height(), 0, "spam never reaches the store");
        if spam <= MAX_ORPHANS {
            prop_assert_eq!(rejected, 0);
        }
    }
}
