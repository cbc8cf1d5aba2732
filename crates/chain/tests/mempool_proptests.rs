//! Property tests for the sharded, fee-indexed mempool (DESIGN.md §18):
//! shard-count invariance, insertion-order permutation invariance,
//! batch-vs-serial admission equivalence, deterministic equal-fee
//! eviction churn, and thread-count-invariant batch admission.

use proptest::prelude::*;
use smartcrowd_chain::mempool::{selection_order, Mempool};
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{sigcache, ChainError, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Digest;
use smartcrowd_pool::Pool;
use std::collections::HashMap;

/// The seed single-`HashMap` pool, kept verbatim as the differential
/// reference for [`Mempool`]: `insert` pays an O(n) min-fee eviction scan
/// and `take_best` re-sorts the whole pool.
///
/// The one behavioural difference is deliberate: among equal-fee eviction
/// candidates this reference picks a `HashMap`-iteration-order victim,
/// which was never deterministic; [`Mempool`] pins the tie to the highest
/// id (the reverse of [`selection_order`]).
#[derive(Debug, Clone)]
struct FlatMempool {
    records: HashMap<Digest, Record>,
    capacity: usize,
}

impl FlatMempool {
    /// Creates a flat pool bounded at `capacity` records.
    fn new(capacity: usize) -> Self {
        FlatMempool {
            records: HashMap::new(),
            capacity: capacity.max(1),
        }
    }

    /// Whether the pool is empty.
    fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Seed admission: signature check, duplicate check, O(n) min-fee
    /// eviction scan at capacity. Errors as [`Mempool::insert`], except
    /// duplicates surface as [`ChainError::DuplicatePending`] here too
    /// (the seed used a generic rejection).
    fn insert(&mut self, record: Record) -> Result<(), ChainError> {
        sigcache::verify_cached(&record)?;
        let id = record.id();
        if self.records.contains_key(&id) {
            return Err(ChainError::DuplicatePending { id });
        }
        if self.records.len() >= self.capacity {
            let Some((victim_id, victim_fee)) = self
                .records
                .iter()
                .map(|(id, r)| (*id, r.fee()))
                .min_by_key(|(_, fee)| *fee)
            else {
                return Err(ChainError::MempoolFull);
            };
            if record.fee() <= victim_fee {
                return Err(ChainError::MempoolFull);
            }
            self.records.remove(&victim_id);
        }
        self.records.insert(id, record);
        Ok(())
    }

    /// Seed selection: sort the whole pool by [`selection_order`], take
    /// the prefix, remove it.
    fn take_best(&mut self, n: usize) -> Vec<Record> {
        let mut all: Vec<(Ether, Digest)> =
            self.records.iter().map(|(id, r)| (r.fee(), *id)).collect();
        all.sort_by(selection_order);
        all.truncate(n);
        all.into_iter()
            .filter_map(|(_, id)| self.records.remove(&id))
            .collect()
    }
}

fn record(seed: u64, fee_wei: u128) -> Record {
    let kp = KeyPair::from_seed(&seed.to_be_bytes());
    Record::signed(
        RecordKind::InitialReport,
        vec![seed as u8, (seed >> 8) as u8],
        Ether::from_wei(fee_wei),
        seed,
        &kp,
    )
}

/// A validly-encoded record whose signature check fails (payload byte
/// flipped after signing, id recomputed by `decode`).
fn tampered(seed: u64, fee_wei: u128) -> Record {
    let good = record(seed, fee_wei);
    let mut bytes = good.encode();
    let payload_start = 1 + 20 + 8;
    bytes[payload_start] ^= 0xff;
    Record::decode(&bytes).expect("tampered bytes still decode")
}

/// Deterministic Fisher–Yates driven by the sim RNG.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let j = (rng.next_f64() * (i + 1) as f64) as usize;
        items.swap(i, j.min(i));
    }
}

fn final_ids(pool: &mut Mempool) -> Vec<Digest> {
    pool.take_best(usize::MAX).iter().map(Record::id).collect()
}

#[test]
fn flat_pool_agrees_with_sharded_on_distinct_fees() {
    let records: Vec<Record> = (0..30).map(|i| record(i, 100 + u128::from(i))).collect();
    let mut flat = FlatMempool::new(12);
    let mut sharded = Mempool::new(12);
    for r in &records {
        let a = flat.insert(r.clone());
        let b = sharded.insert(r.clone());
        assert_eq!(a.is_ok(), b.is_ok());
    }
    let flat_ids: Vec<Digest> = flat.take_best(12).iter().map(Record::id).collect();
    let sharded_ids: Vec<Digest> = sharded.take_best(12).iter().map(Record::id).collect();
    assert_eq!(flat_ids, sharded_ids);
    assert!(flat.is_empty() && sharded.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With distinct fees, the final pool contents are the top-`capacity`
    /// records by fee — independent of insertion order and shard count.
    /// (Equal fees genuinely depend on order at capacity — whichever
    /// arrives first holds the slot — so distinctness is the precondition,
    /// not a test simplification.)
    #[test]
    fn permutation_invariance_with_distinct_fees(
        count in 4usize..20,
        capacity in 2usize..10,
        shuffle_seed in any::<u64>(),
        shards in prop_oneof![Just(1usize), Just(4), Just(16)],
    ) {
        let records: Vec<Record> = (0..count as u64)
            .map(|i| record(i, 1_000 + i as u128 * 7))
            .collect();
        let mut ordered = Mempool::with_shards(capacity, shards);
        for r in &records {
            let _ = ordered.insert(r.clone());
        }
        let mut permuted_records = records;
        shuffle(&mut permuted_records, shuffle_seed);
        let mut permuted = Mempool::with_shards(capacity, shards);
        for r in &permuted_records {
            let _ = permuted.insert(r.clone());
        }
        prop_assert_eq!(final_ids(&mut ordered), final_ids(&mut permuted));
    }

    /// `insert_batch_with` returns exactly the verdicts of sequential
    /// `insert` calls and leaves exactly the same pool behind — under
    /// duplicates, tampered signatures and eviction pressure.
    #[test]
    fn batch_admission_matches_serial(
        fees in proptest::collection::vec(1u64..50, 4..24),
        capacity in 2usize..8,
        dup_at in any::<usize>(),
        tamper_at in any::<usize>(),
    ) {
        let mut records: Vec<Record> = fees
            .iter()
            .enumerate()
            .map(|(i, fee)| record(i as u64, u128::from(*fee)))
            .collect();
        // Adversarial burst: one redelivered duplicate, one bad signature.
        let dup = records[dup_at % records.len()].clone();
        records.push(dup);
        let t = tamper_at % records.len();
        let fee = records[t].fee().wei();
        records[t] = tampered(1_000 + t as u64, fee);

        let mut serial = Mempool::with_shards(capacity, 4);
        let serial_results: Vec<_> = records
            .iter()
            .map(|r| serial.insert(r.clone()))
            .collect();
        let mut batched = Mempool::with_shards(capacity, 4);
        let batch_results = batched.insert_batch_with(records, &Pool::new(4));
        prop_assert_eq!(batch_results, serial_results);
        prop_assert_eq!(final_ids(&mut batched), final_ids(&mut serial));
    }

    /// Eviction churn at capacity with adversarial equal-fee records is
    /// deterministic: every shard count agrees on admissions, contents
    /// and selection order, because the eviction victim is pinned to the
    /// reverse of the selection order instead of map iteration order.
    #[test]
    fn equal_fee_churn_identical_across_shard_counts(
        rounds in 8usize..40,
        capacity in 2usize..6,
        fee_classes in 1u64..4,
    ) {
        let records: Vec<Record> = (0..rounds as u64)
            .map(|i| record(i, 10 + u128::from(i % fee_classes)))
            .collect();
        let reference: (Vec<bool>, Vec<Digest>) = {
            let mut pool = Mempool::with_shards(capacity, 1);
            let admitted = records.iter().map(|r| pool.insert(r.clone()).is_ok()).collect();
            (admitted, final_ids(&mut pool))
        };
        for shards in [2usize, 8, 256] {
            let mut pool = Mempool::with_shards(capacity, shards);
            let admitted: Vec<bool> =
                records.iter().map(|r| pool.insert(r.clone()).is_ok()).collect();
            prop_assert_eq!(&admitted, &reference.0, "admissions drifted at {} shards", shards);
            prop_assert_eq!(final_ids(&mut pool), reference.1.clone());
        }
    }

    /// Batch admission is thread-count-invariant: 1 worker and 8 workers
    /// produce byte-identical verdicts and byte-identical `take_best`
    /// output (the parallel fan-out only computes pure signature
    /// verdicts; all ordering decisions happen on the caller's thread).
    #[test]
    fn batch_admission_thread_count_invariant(
        fees in proptest::collection::vec(1u64..100, 4..20),
        capacity in 2usize..8,
    ) {
        let records: Vec<Record> = fees
            .iter()
            .enumerate()
            .map(|(i, fee)| record(i as u64, u128::from(*fee)))
            .collect();
        let mut single = Mempool::with_shards(capacity, 8);
        let single_results = single.insert_batch_with(records.clone(), &Pool::new(1));
        let mut multi = Mempool::with_shards(capacity, 8);
        let multi_results = multi.insert_batch_with(records, &Pool::new(8));
        prop_assert_eq!(single_results, multi_results);
        let single_bytes: Vec<Vec<u8>> = single
            .take_best(usize::MAX)
            .iter()
            .map(Record::encode)
            .collect();
        let multi_bytes: Vec<Vec<u8>> = multi
            .take_best(usize::MAX)
            .iter()
            .map(Record::encode)
            .collect();
        prop_assert_eq!(single_bytes, multi_bytes);
    }

    /// The sharded pool agrees with the seed flat pool wherever the seed
    /// was deterministic (distinct fees): same admissions, same final
    /// selection.
    #[test]
    fn sharded_agrees_with_flat_reference(
        count in 4usize..24,
        capacity in 2usize..10,
        shards in prop_oneof![Just(1usize), Just(8), Just(64)],
    ) {
        let records: Vec<Record> = (0..count as u64)
            .map(|i| record(i, 500 + i as u128 * 3))
            .collect();
        let mut flat = FlatMempool::new(capacity);
        let mut sharded = Mempool::with_shards(capacity, shards);
        for r in &records {
            let f = flat.insert(r.clone());
            let s = sharded.insert(r.clone());
            prop_assert_eq!(f.is_ok(), s.is_ok());
        }
        let flat_ids: Vec<Digest> =
            flat.take_best(capacity).iter().map(Record::id).collect();
        prop_assert_eq!(final_ids(&mut sharded), flat_ids);
    }
}
