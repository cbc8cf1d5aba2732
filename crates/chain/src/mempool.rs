//! The pending-record pool each IoT provider maintains.
//!
//! Records (SRAs and both report phases) propagate to "all IoT providers"
//! (§V-B) and wait here until a provider aggregates them into a block.
//! The pool takes records whose submitter signature was checked before
//! they reach it ([`Mempool::insert`]); ordering is by fee, so the
//! transaction fee `ψ` of Eq. 8 doubles as a spam deterrent — exactly the
//! "cost for each detector to submit its detection report" of Eq. 10.
//!
//! The pool is two structures over the same set of records: an id map
//! holding the bodies and one ordered fee index over their `(fee, id)`
//! keys. The index realizes a single total order — [`selection_order`]:
//! fee descending, id ascending — read from both ends: its first key is
//! the eviction victim, its reverse iteration is what [`Mempool::take_best`]
//! seals into a block. Every operation is an index operation; nothing
//! scans or sorts the pool.
//!
//! [`Mempool::insert_batch`] admits a burst on the chain-only path: it
//! checks every signature in one [`crate::sigcache::verify_batch`] pass
//! (cache misses fan out on a [`smartcrowd_pool::Pool`]), then inserts the
//! records that passed serially in input order, so the outcomes
//! (per-record verdicts, evictions, final contents) are those of a
//! signature check and an [`Mempool::insert`] per record, at any thread
//! count.
//!
//! `crates/chain/tests/mempool_proptests.rs` pins all of it: agreement
//! with a scan-and-sort reference pool (`FlatMempool`, equal-fee churn
//! included), permutation invariance, batch ≡ serial and thread-count
//! invariance.

use crate::amount::Ether;
use crate::block::Block;
use crate::error::ChainError;
use crate::record::Record;
use smartcrowd_crypto::{Digest, DigestMap};
use smartcrowd_pool::Pool;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// Default capacity (records).
pub const DEFAULT_CAPACITY: usize = 4096;

/// The miner's total selection order over pending records: fee
/// descending (miners maximize the `ψ·ω` term of Eq. 8) with id
/// ascending as the deterministic tiebreak.
///
/// Every selection and eviction decision in this module — and any future
/// block-building path — derives from this one comparator. The ids are
/// compared only on a fee tie: the fee index compares keys on every
/// insert and removal, and most pairs differ in fee.
pub fn selection_order(a: &(Ether, Digest), b: &(Ether, Digest)) -> Ordering {
    b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1))
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

/// A bounded, fee-indexed pool of pending records.
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
    /// Pending record bodies by id.
    records: DigestMap<Digest, Record>,
    /// The key of every pending record, worst first.
    index: BTreeSet<FeeKey>,
    capacity: usize,
}

impl Mempool {
    /// Creates a pool bounded at `capacity` records (at least 1).
    pub fn new(capacity: usize) -> Self {
        Mempool {
            records: DigestMap::default(),
            index: BTreeSet::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of pending records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether a record id is pending.
    pub fn contains(&self, id: &Digest) -> bool {
        self.records.contains_key(id)
    }

    /// Whether [`Mempool::insert`] would take `record`: a caller that must
    /// not act on a record the pool refuses asks this first. Returns the
    /// record's id.
    ///
    /// # Errors
    ///
    /// - [`ChainError::DuplicatePending`] when the id is already pooled.
    /// - [`ChainError::MempoolFull`] when the pool is full and the record
    ///   pays no more than the worst pooled one.
    pub fn check_admission(&self, record: &Record) -> Result<Digest, ChainError> {
        let id = record.id();
        if self.contains(&id) {
            return Err(ChainError::DuplicatePending { id });
        }
        // The index's first key is the record `take_best` would surface
        // last: lowest fee, highest id among equal fees.
        if self.len() >= self.capacity
            && self
                .index
                .first()
                .is_none_or(|worst| record.fee() <= worst.fee)
        {
            return Err(ChainError::MempoolFull);
        }
        Ok(id)
    }

    /// Admits a record whose signature its caller has checked: the pool
    /// checks none. Its library callers are `Protocol::admit` and
    /// [`Mempool::insert_batch_with`], each through [`crate::sigcache`].
    ///
    /// When full, the lowest-fee record (highest id among ties) is evicted
    /// if the newcomer pays strictly more; otherwise admission fails.
    ///
    /// # Errors
    ///
    /// - [`ChainError::DuplicatePending`] when the id is already pooled.
    /// - [`ChainError::MempoolFull`] when full of higher-fee records.
    pub fn insert(&mut self, record: Record) -> Result<(), ChainError> {
        let admitted = self.check_admission(&record).map(|id| {
            if self.len() >= self.capacity {
                if let Some(victim) = self.index.pop_first() {
                    self.records.remove(&victim.id);
                    smartcrowd_telemetry::counter!("chain.mempool.evicted").inc();
                }
            }
            self.index.insert(FeeKey {
                fee: record.fee(),
                id,
            });
            self.records.insert(id, record);
        });
        match &admitted {
            Ok(()) => smartcrowd_telemetry::counter!("chain.mempool.admitted").inc(),
            Err(_) => smartcrowd_telemetry::counter!("chain.mempool.rejected").inc(),
        }
        self.update_occupancy();
        admitted
    }

    /// Admits a gossip burst through the global worker pool
    /// (equivalent to [`Mempool::insert_batch_with`] on
    /// [`smartcrowd_pool::global`]).
    pub fn insert_batch(&mut self, records: Vec<Record>) -> Vec<Result<(), ChainError>> {
        self.insert_batch_with(records, smartcrowd_pool::global())
    }

    /// Admits a burst of records: one [`crate::sigcache::verify_batch`]
    /// pass, whose cache misses fan out on `pool`, then [`Mempool::insert`]
    /// of each record whose signature holds, **serially in input order**;
    /// a record whose signature fails is refused and counted under
    /// `chain.mempool.rejected`, as a refused insert is.
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
        records
            .into_iter()
            .zip(verdicts)
            .map(|(record, signature)| match signature {
                Ok(()) => self.insert(record),
                Err(refused) => {
                    smartcrowd_telemetry::counter!("chain.mempool.rejected").inc();
                    Err(refused)
                }
            })
            .collect()
    }

    fn update_occupancy(&self) {
        smartcrowd_telemetry::gauge!("chain.mempool.occupancy").set(self.len() as i64);
    }

    /// Takes up to `n` records in selection order (fee descending, id
    /// ascending), removing them from the pool.
    pub fn take_best(&mut self, n: usize) -> Vec<Record> {
        let mut taken = Vec::with_capacity(n.min(self.len()));
        while taken.len() < n {
            let Some(key) = self.index.pop_last() else {
                break;
            };
            taken.extend(self.records.remove(&key.id));
        }
        self.update_occupancy();
        taken
    }

    /// Drops records that appear in a newly-connected block.
    pub fn remove_included(&mut self, block: &Block) {
        for r in block.records() {
            self.unindex(&r.id());
        }
        self.update_occupancy();
    }

    fn unindex(&mut self, id: &Digest) -> Option<Record> {
        let record = self.records.remove(id)?;
        self.index.remove(&FeeKey {
            fee: record.fee(),
            id: *id,
        });
        Some(record)
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
        // Fee 1 cannot displace anything.
        assert!(matches!(
            pool.insert(record(4, 1)),
            Err(ChainError::MempoolFull)
        ));
        let fees: Vec<_> = pool.take_best(2).iter().map(Record::fee).collect();
        assert_eq!(
            fees,
            vec![Ether::from_milliether(3), Ether::from_milliether(2)]
        );
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
    fn batch_matches_serial_inserts() {
        let records: Vec<Record> = (0..24).map(|i| record(i, i)).collect();
        let mut serial = Mempool::new(8);
        let serial_results: Vec<_> = records.iter().map(|r| serial.insert(r.clone())).collect();
        let mut batched = Mempool::new(8);
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
