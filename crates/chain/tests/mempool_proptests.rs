//! Property tests for the fee-indexed mempool (DESIGN.md, *Ingress*):
//! [`selection_order`] against the order written out on its own,
//! agreement with a scan-and-sort reference pool (equal-fee eviction churn
//! included), insertion-order permutation invariance, batch-vs-serial
//! admission equivalence, and thread-count-invariant batch admission.

use proptest::prelude::*;
use smartcrowd_chain::mempool::{selection_order, Mempool};
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::rng::SimRng;
use smartcrowd_chain::{sigcache, ChainError, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Digest;
use smartcrowd_pool::Pool;
use std::cmp::Reverse;
use std::collections::HashMap;

/// The seed single-`HashMap` pool, kept as the differential reference for
/// [`Mempool`]: `insert` pays an O(n) eviction scan and `take_best`
/// re-sorts the whole pool, so it shares no index logic with the pool it
/// checks — only the [`selection_order`] comparator.
///
/// The seed picked a `HashMap`-iteration-order victim among equal-fee
/// eviction candidates, which was never deterministic; here the scan pins
/// the tie as [`Mempool`] does — the record last in [`selection_order`]
/// (lowest fee, highest id) — so equal-fee churn is comparable too.
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

    /// Seed admission: signature check (through the cache, as the pool's
    /// callers make it), duplicate check, O(n) eviction scan at capacity.
    /// Errors as a signature check and then [`Mempool::insert`].
    fn insert(&mut self, record: Record) -> Result<(), ChainError> {
        sigcache::verify_claimed(&record, None)?;
        let id = record.id();
        if self.records.contains_key(&id) {
            return Err(ChainError::DuplicatePending { id });
        }
        if self.records.len() >= self.capacity {
            let Some((victim_fee, victim_id)) = self
                .records
                .iter()
                .map(|(id, r)| (r.fee(), *id))
                .max_by(selection_order)
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
fn flat_pool_agrees_on_distinct_fees() {
    let records: Vec<Record> = (0..30).map(|i| record(i, 100 + u128::from(i))).collect();
    let mut flat = FlatMempool::new(12);
    let mut pool = Mempool::new(12);
    for r in &records {
        assert_eq!(pool.insert(r.clone()), flat.insert(r.clone()));
    }
    let flat_ids: Vec<Digest> = flat.take_best(12).iter().map(Record::id).collect();
    assert_eq!(final_ids(&mut pool), flat_ids);
    assert!(flat.is_empty() && pool.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// [`selection_order`] is "fee descending, then id ascending", checked
    /// against that order spelled out as the key `(Reverse(fee), id)`.
    /// [`FlatMempool`] sorts with the comparator it checks, so only this
    /// test catches a comparator edit that moves the order. Three fees and
    /// ids that differ only in their first or last byte make fee ties,
    /// id ties and full duplicates common.
    #[test]
    fn selection_order_is_fee_descending_then_id_ascending(
        keys in proptest::collection::vec((0u64..3, 0u8..3, 0u8..3), 2..40),
    ) {
        let keys: Vec<(Ether, Digest)> = keys
            .into_iter()
            .map(|(fee, head, tail)| {
                let mut id = [0u8; 32];
                id[0] = head;
                id[31] = tail;
                (Ether::from_wei(u128::from(fee)), id)
            })
            .collect();
        let written_out = |k: &(Ether, Digest)| (Reverse(k.0), k.1);
        for a in &keys {
            for b in &keys {
                prop_assert_eq!(selection_order(a, b), written_out(a).cmp(&written_out(b)));
            }
        }
        let mut by_comparator = keys.clone();
        by_comparator.sort_by(selection_order);
        let mut by_key = keys;
        by_key.sort_by_key(written_out);
        prop_assert_eq!(by_comparator, by_key);
    }

    /// With distinct fees, the final pool contents are the top-`capacity`
    /// records by fee — independent of insertion order.
    /// (Equal fees genuinely depend on order at capacity — whichever
    /// arrives first holds the slot — so distinctness is the precondition,
    /// not a test simplification.)
    #[test]
    fn permutation_invariance_with_distinct_fees(
        count in 4usize..20,
        capacity in 2usize..10,
        shuffle_seed in any::<u64>(),
    ) {
        let records: Vec<Record> = (0..count as u64)
            .map(|i| record(i, 1_000 + i as u128 * 7))
            .collect();
        let mut ordered = Mempool::new(capacity);
        for r in &records {
            let _ = ordered.insert(r.clone());
        }
        let mut permuted_records = records;
        shuffle(&mut permuted_records, shuffle_seed);
        let mut permuted = Mempool::new(capacity);
        for r in &permuted_records {
            let _ = permuted.insert(r.clone());
        }
        prop_assert_eq!(final_ids(&mut ordered), final_ids(&mut permuted));
    }

    /// `insert_batch_with` returns exactly the verdicts of a sequential
    /// signature check through the cache and `insert` per record, and
    /// leaves exactly the same pool behind — under duplicates, tampered
    /// signatures and eviction pressure.
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

        let mut serial = Mempool::new(capacity);
        let serial_results: Vec<_> = records
            .iter()
            .map(|r| {
                sigcache::verify_claimed(r, None)?;
                serial.insert(r.clone())
            })
            .collect();
        let mut batched = Mempool::new(capacity);
        let batch_results = batched.insert_batch_with(records, &Pool::new(4));
        prop_assert_eq!(batch_results, serial_results);
        prop_assert_eq!(final_ids(&mut batched), final_ids(&mut serial));
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
        let mut single = Mempool::new(capacity);
        let single_results = single.insert_batch_with(records.clone(), &Pool::new(1));
        let mut multi = Mempool::new(capacity);
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

    /// The pool agrees with the flat reference verdict for verdict and on
    /// the final selection. `fee_classes == 0` gives every record its own
    /// fee; `k > 0` is the equal-fee churn schedule — `k` fee classes
    /// cycling through a pool at capacity — where every eviction is decided
    /// by the id tie-break.
    #[test]
    fn agrees_with_flat_reference(
        count in 4usize..40,
        capacity in 2usize..10,
        fee_classes in 0u64..4,
    ) {
        let records: Vec<Record> = (0..count as u64)
            .map(|i| match fee_classes {
                0 => record(i, 500 + u128::from(i) * 3),
                k => record(i, 10 + u128::from(i % k)),
            })
            .collect();
        let mut flat = FlatMempool::new(capacity);
        let mut pool = Mempool::new(capacity);
        for r in &records {
            prop_assert_eq!(pool.insert(r.clone()), flat.insert(r.clone()));
        }
        let flat_ids: Vec<Digest> =
            flat.take_best(capacity).iter().map(Record::id).collect();
        prop_assert_eq!(final_ids(&mut pool), flat_ids);
        prop_assert!(flat.is_empty());
    }
}
