//! The pending-record pool each IoT provider maintains.
//!
//! Records (SRAs and both report phases) propagate to "all IoT providers"
//! (§V-B) and wait here until a provider aggregates them into a block.
//! Admission verifies the submitter signature; ordering is by fee, so the
//! transaction fee `ψ` of Eq. 8 doubles as a spam deterrent — exactly the
//! "cost for each detector to submit its detection report" of Eq. 10.
//!
//! ## Throughput pipeline (DESIGN.md §18)
//!
//! The pool is **sharded and fee-indexed**: records stripe across
//! [`Mempool::shard_count`] shards by the first byte of their id, and each
//! shard keeps a `BTreeMap` fee index alongside its id map. Eviction pops
//! the globally worst index key in O(S + log n) instead of scanning every
//! record, and [`Mempool::take_best`]/[`Mempool::peek_best`] run a
//! deterministic k-way merge over per-shard index cursors instead of
//! sorting the whole pool per block. Selection is **byte-identical at any
//! shard count** because the merge realizes one total order —
//! [`selection_order`]: fee descending, id ascending — that no shard
//! layout can perturb.
//!
//! [`Mempool::insert_batch`] admits a gossip burst: signature recoveries
//! for cache-missing records fan out on a [`smartcrowd_pool::Pool`], then
//! admissions apply serially in input order, so the outcomes (per-record
//! verdicts, evictions, final contents) are exactly those of N sequential
//! [`Mempool::insert`] calls — proven by the differential proptests in
//! `crates/chain/tests/mempool_proptests.rs`.
//!
//! The seed single-map implementation lives on as the differential
//! reference (`FlatMempool`) in that test file.

use crate::amount::Ether;
use crate::block::Block;
use crate::error::ChainError;
use crate::record::Record;
use smartcrowd_crypto::Digest;
use smartcrowd_pool::Pool;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};

/// Default capacity (records).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Default shard count. Any power works — selection and eviction are
/// shard-count-invariant — but a handful of shards keeps the per-shard
/// `BTreeMap`s shallow at million-record occupancy.
pub const DEFAULT_SHARDS: usize = 16;

/// The miner's total selection order over pending records: fee
/// descending (miners maximize the `ψ·ω` term of Eq. 8) with id
/// ascending as the deterministic tiebreak.
///
/// Every selection and eviction decision in this module — and any future
/// block-building path — derives from this one comparator, so the
/// `take_best`/`peek_best` orders can never drift apart.
pub fn selection_order(a: &(Ether, Digest), b: &(Ether, Digest)) -> Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// A fee-index key ordered worst-to-best: ascending iteration yields
/// eviction candidates (lowest fee, highest id first) and descending
/// iteration yields [`selection_order`] — the two are exact reverses of
/// one total order, so "evict the worst" and "select the best" can never
/// disagree about the middle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FeeKey {
    fee: Ether,
    id: Digest,
}

impl Ord for FeeKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Ascending = reverse of selection order.
        selection_order(&(other.fee, other.id), &(self.fee, self.id))
    }
}

impl PartialOrd for FeeKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One stripe of the pool: the id map holding record bodies plus the fee
/// index ordering their keys.
#[derive(Debug, Clone, Default)]
struct Shard {
    records: HashMap<Digest, Record>,
    index: BTreeMap<FeeKey, ()>,
}

impl Shard {
    fn insert(&mut self, record: Record) {
        let key = FeeKey {
            fee: record.fee(),
            id: record.id(),
        };
        self.records.insert(key.id, record);
        self.index.insert(key, ());
    }

    fn remove(&mut self, id: &Digest) -> Option<Record> {
        let record = self.records.remove(id)?;
        self.index.remove(&FeeKey {
            fee: record.fee(),
            id: *id,
        });
        Some(record)
    }

    /// The shard's worst record (first eviction candidate), if any.
    fn worst(&self) -> Option<FeeKey> {
        self.index.keys().next().copied()
    }
}

/// A sharded, fee-indexed pool of pending records.
///
/// # Example
///
/// ```
/// use smartcrowd_chain::mempool::Mempool;
/// use smartcrowd_chain::record::{Record, RecordKind};
/// use smartcrowd_chain::Ether;
/// use smartcrowd_crypto::keys::KeyPair;
///
/// let mut pool = Mempool::new(16);
/// let kp = KeyPair::from_seed(b"d1");
/// let r = Record::signed(RecordKind::InitialReport, vec![1], Ether::from_milliether(11), 0, &kp);
/// pool.insert(r).unwrap();
/// assert_eq!(pool.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Mempool {
    shards: Vec<Shard>,
    capacity: usize,
    len: usize,
}

impl Mempool {
    /// Creates a pool bounded at `capacity` records over
    /// [`DEFAULT_SHARDS`] shards.
    pub fn new(capacity: usize) -> Self {
        Mempool::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// Creates a pool with an explicit shard count (clamped to at least
    /// 1). Selection, eviction and admission outcomes are identical at
    /// every shard count; the count only changes index depth.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        Mempool {
            shards: vec![Shard::default(); shards.max(1)],
            capacity: capacity.max(1),
            len: 0,
        }
    }

    /// Number of shards the pool stripes over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of pending records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether a record id is pending.
    pub fn contains(&self, id: &Digest) -> bool {
        self.shard_of(id).records.contains_key(id)
    }

    fn shard_of(&self, id: &Digest) -> &Shard {
        &self.shards[id[0] as usize % self.shards.len()]
    }

    fn shard_of_mut(&mut self, id: &Digest) -> &mut Shard {
        let i = id[0] as usize % self.shards.len();
        &mut self.shards[i]
    }

    /// Admits a record after signature verification.
    ///
    /// When full, the globally lowest-fee record (highest id among ties)
    /// is evicted if the newcomer pays strictly more; otherwise admission
    /// fails. Both the victim lookup and the removal are index
    /// operations — no scan over the pool.
    ///
    /// # Errors
    ///
    /// - [`ChainError::RecordRejected`] for a bad signature.
    /// - [`ChainError::DuplicatePending`] when the id is already pooled.
    /// - [`ChainError::MempoolFull`] when full of higher-fee records.
    pub fn insert(&mut self, record: Record) -> Result<(), ChainError> {
        // Admission goes through the verified-signature cache: a record
        // re-gossiped after a restart (or already admitted by a peer path)
        // skips the ECDSA recovery, and the ids admitted here feed the
        // block-validation fast path in `validate`.
        let sig = crate::sigcache::verify_cached(&record);
        let result = self.apply_admission(record, sig);
        self.update_occupancy();
        result
    }

    /// Admits a gossip burst through the global worker pool
    /// (equivalent to [`Mempool::insert_batch_with`] on
    /// [`smartcrowd_pool::global`]).
    pub fn insert_batch(&mut self, records: Vec<Record>) -> Vec<Result<(), ChainError>> {
        self.insert_batch_with(records, smartcrowd_pool::global())
    }

    /// Admits a burst of records: signature recoveries for cache-missing
    /// records fan out on `pool` (amortizing the per-record ECDSA cost
    /// across the burst), then admissions apply **serially in input
    /// order**, so the returned verdicts, the evictions and the final
    /// pool contents are exactly those of sequential [`Mempool::insert`]
    /// calls at any thread count.
    pub fn insert_batch_with(
        &mut self,
        records: Vec<Record>,
        pool: &Pool,
    ) -> Vec<Result<(), ChainError>> {
        smartcrowd_telemetry::histogram!(
            "chain.mempool.batch.size",
            smartcrowd_telemetry::buckets::SMALL_COUNT
        )
        .observe(records.len() as u64);
        let verdicts = {
            let _span = smartcrowd_telemetry::span!("chain.mempool.batch.sig_par");
            let refs: Vec<&Record> = records.iter().collect();
            crate::sigcache::verify_batch(&refs, pool)
        };
        let results: Vec<Result<(), ChainError>> = records
            .into_iter()
            .zip(verdicts)
            .map(|(record, sig)| self.apply_admission(record, sig))
            .collect();
        self.update_occupancy();
        results
    }

    /// One serial admission step, shared by the single and batch paths:
    /// `sig` is the record's (possibly pre-computed) signature verdict.
    fn apply_admission(
        &mut self,
        record: Record,
        sig: Result<(), ChainError>,
    ) -> Result<(), ChainError> {
        let result = self.admit_inner(record, sig);
        match &result {
            Ok(()) => smartcrowd_telemetry::counter!("chain.mempool.admitted").inc(),
            Err(_) => smartcrowd_telemetry::counter!("chain.mempool.rejected").inc(),
        }
        result
    }

    fn admit_inner(
        &mut self,
        record: Record,
        sig: Result<(), ChainError>,
    ) -> Result<(), ChainError> {
        sig?;
        let id = record.id();
        if self.contains(&id) {
            return Err(ChainError::DuplicatePending { id });
        }
        if self.len >= self.capacity {
            // Globally worst = minimum FeeKey across the shards' index
            // heads (lowest fee; highest id among equal fees — the exact
            // reverse of the selection order, so the victim is always the
            // record `take_best` would surface last).
            let Some(victim) = self.shards.iter().filter_map(Shard::worst).min() else {
                return Err(ChainError::MempoolFull);
            };
            if record.fee() <= victim.fee {
                return Err(ChainError::MempoolFull);
            }
            self.shard_of_mut(&victim.id).remove(&victim.id);
            self.len -= 1;
            smartcrowd_telemetry::counter!("chain.mempool.evicted").inc();
        }
        self.shard_of_mut(&id).insert(record);
        self.len += 1;
        Ok(())
    }

    fn update_occupancy(&self) {
        smartcrowd_telemetry::gauge!("chain.mempool.occupancy").set(self.len as i64);
        let (min, max) = self.shards.iter().fold((usize::MAX, 0), |(lo, hi), s| {
            (lo.min(s.records.len()), hi.max(s.records.len()))
        });
        smartcrowd_telemetry::gauge!("chain.mempool.shard.occupancy_max").set(max as i64);
        smartcrowd_telemetry::gauge!("chain.mempool.shard.occupancy_min").set(if self.len == 0 {
            0
        } else {
            min as i64
        });
    }

    /// The first `n` index keys in selection order, realized by a k-way
    /// merge over descending per-shard index cursors. Each shard's index
    /// is already sorted, so the merge is O(min(n, len) · S) with no
    /// allocation beyond the result — never a full-pool sort.
    fn select_best(&self, n: usize) -> Vec<FeeKey> {
        let mut cursors: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.index.keys().rev().copied())
            .collect();
        let mut heads: Vec<Option<FeeKey>> = cursors.iter_mut().map(Iterator::next).collect();
        let mut out = Vec::with_capacity(n.min(self.len));
        while out.len() < n {
            // Best head = maximum FeeKey (descending order is selection
            // order). Shard ids partition record ids, so ties are
            // impossible and the winner is unique.
            let Some(winner) = (0..heads.len())
                .filter(|&i| heads[i].is_some())
                .max_by_key(|&i| heads[i])
            else {
                break;
            };
            let Some(key) = heads[winner].take() else {
                break;
            };
            out.push(key);
            heads[winner] = cursors[winner].next();
        }
        out
    }

    /// Takes up to `n` records in selection order (fee descending, id
    /// ascending), removing them from the pool.
    pub fn take_best(&mut self, n: usize) -> Vec<Record> {
        let taken: Vec<Record> = self
            .select_best(n)
            .into_iter()
            .filter_map(|key| {
                let record = self.shard_of_mut(&key.id).remove(&key.id)?;
                self.len -= 1;
                Some(record)
            })
            .collect();
        self.update_occupancy();
        taken
    }

    /// Peeks the same selection without removing.
    pub fn peek_best(&self, n: usize) -> Vec<&Record> {
        self.select_best(n)
            .into_iter()
            .filter_map(|key| self.shard_of(&key.id).records.get(&key.id))
            .collect()
    }

    /// Removes one pending record by id (a record that turned out to be
    /// invalid after admission), returning it if it was pending.
    pub fn remove(&mut self, id: &Digest) -> Option<Record> {
        let record = self.shard_of_mut(id).remove(id)?;
        self.len -= 1;
        self.update_occupancy();
        Some(record)
    }

    /// Drops records that appear in a newly-connected block.
    pub fn remove_included(&mut self, block: &Block) {
        for r in block.records() {
            if self.shard_of_mut(&r.id()).remove(&r.id()).is_some() {
                self.len -= 1;
            }
        }
        self.update_occupancy();
    }
}

impl Default for Mempool {
    fn default() -> Self {
        Mempool::new(DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::Ether;
    use crate::difficulty::Difficulty;
    use crate::record::RecordKind;
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_crypto::Address;

    fn record(seed: u64, fee_milli: u64) -> Record {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        Record::signed(
            RecordKind::InitialReport,
            vec![seed as u8],
            Ether::from_milliether(fee_milli),
            seed,
            &kp,
        )
    }

    #[test]
    fn insert_and_len() {
        let mut pool = Mempool::new(10);
        pool.insert(record(1, 5)).unwrap();
        pool.insert(record(2, 5)).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
    }

    #[test]
    fn duplicate_rejected() {
        let mut pool = Mempool::new(10);
        let r = record(1, 5);
        pool.insert(r.clone()).unwrap();
        assert!(matches!(
            pool.insert(r),
            Err(ChainError::DuplicatePending { .. })
        ));
    }

    #[test]
    fn take_best_orders_by_fee() {
        let mut pool = Mempool::new(10);
        pool.insert(record(1, 1)).unwrap();
        pool.insert(record(2, 9)).unwrap();
        pool.insert(record(3, 5)).unwrap();
        let taken = pool.take_best(2);
        assert_eq!(taken.len(), 2);
        assert_eq!(taken[0].fee(), Ether::from_milliether(9));
        assert_eq!(taken[1].fee(), Ether::from_milliether(5));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn eviction_prefers_higher_fee() {
        let mut pool = Mempool::new(2);
        pool.insert(record(1, 1)).unwrap();
        pool.insert(record(2, 2)).unwrap();
        // Fee 3 evicts the fee-1 record.
        pool.insert(record(3, 3)).unwrap();
        assert_eq!(pool.len(), 2);
        let fees: Vec<_> = pool.peek_best(2).iter().map(|r| r.fee()).collect();
        assert_eq!(
            fees,
            vec![Ether::from_milliether(3), Ether::from_milliether(2)]
        );
        // Fee 1 cannot displace anything.
        assert!(matches!(
            pool.insert(record(4, 1)),
            Err(ChainError::MempoolFull)
        ));
    }

    #[test]
    fn equal_fee_eviction_is_reverse_selection_order() {
        // Among equal-fee victims the evicted record is the one with the
        // highest id — the record `take_best` would have surfaced last.
        let mut pool = Mempool::new(3);
        let victims = [record(1, 5), record(2, 5), record(3, 5)];
        let expected_victim = victims
            .iter()
            .map(Record::id)
            .max()
            .expect("three candidates");
        for r in &victims {
            pool.insert(r.clone()).unwrap();
        }
        pool.insert(record(4, 9)).unwrap();
        assert!(!pool.contains(&expected_victim), "highest id evicted");
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn remove_included_clears() {
        let mut pool = Mempool::new(10);
        let r1 = record(1, 5);
        let r2 = record(2, 5);
        pool.insert(r1.clone()).unwrap();
        pool.insert(r2.clone()).unwrap();
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let block = Block::assemble(
            &genesis,
            vec![r1],
            genesis.header().timestamp + 15,
            Difficulty::from_u64(1),
            Address::from_label("m"),
        );
        pool.remove_included(&block);
        assert_eq!(pool.len(), 1);
        assert!(pool.contains(&r2.id()));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut pool = Mempool::new(10);
        pool.insert(record(1, 5)).unwrap();
        assert_eq!(pool.peek_best(5).len(), 1);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn selection_identical_across_shard_counts() {
        let records: Vec<Record> = (0..40).map(|i| record(i, (i * 7) % 13)).collect();
        let reference: Vec<Digest> = {
            let mut pool = Mempool::with_shards(64, 1);
            for r in &records {
                pool.insert(r.clone()).unwrap();
            }
            pool.take_best(40).iter().map(Record::id).collect()
        };
        for shards in [2, 8, 16, 256] {
            let mut pool = Mempool::with_shards(64, shards);
            for r in &records {
                pool.insert(r.clone()).unwrap();
            }
            let ids: Vec<Digest> = pool.take_best(40).iter().map(Record::id).collect();
            assert_eq!(ids, reference, "selection drifted at {shards} shards");
            assert!(pool.is_empty());
        }
    }

    #[test]
    fn batch_matches_serial_inserts() {
        let records: Vec<Record> = (0..24).map(|i| record(i, i)).collect();
        let mut serial = Mempool::with_shards(8, 4);
        let serial_results: Vec<_> = records.iter().map(|r| serial.insert(r.clone())).collect();
        let mut batched = Mempool::with_shards(8, 4);
        let batch_results = batched.insert_batch_with(records, &Pool::new(4));
        assert_eq!(batch_results, serial_results);
        assert_eq!(
            batched
                .take_best(8)
                .iter()
                .map(Record::id)
                .collect::<Vec<_>>(),
            serial
                .take_best(8)
                .iter()
                .map(Record::id)
                .collect::<Vec<_>>(),
        );
    }
}
