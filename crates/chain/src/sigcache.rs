//! Process-wide verified-signature cache.
//!
//! A record's signature is checked where it enters a pool — once per
//! admission, in `Protocol::admit` or, on the chain-only path,
//! [`crate::mempool::Mempool::insert_batch`] — and again in the check of
//! every block that carries it. Recovery is by far the most expensive
//! operation in the pipeline, and every such check recomputes the *same*
//! fact about the *same* bytes — the record id is the Keccak-256 of the
//! full canonical encoding (signature included), so "id `d` carries a
//! valid signature" is an immutable property of `d`.
//!
//! This module memoizes that fact in a bounded FIFO set. A hit proves the
//! exact same bytes were verified before (any tampering changes the id),
//! which preserves the §VI-A requirement that every block "must be
//! correctly verified": the check still happens for every record — it is
//! only the *redundant recomputation* that is skipped.
//!
//! `chain.sigcache.hit` / `chain.sigcache.miss` count the split; the
//! end-to-end examples assert a nonzero hit rate, proving the dedup.
//!
//! Capacity is bounded (`CAPACITY`) with FIFO eviction, so an adversary
//! flooding unique records cannot grow the set without bound; eviction
//! only ever costs a re-verification, never correctness.

use crate::error::ChainError;
use crate::record::{Claim, Record};
use smartcrowd_crypto::{Address, Digest, DigestMap, DigestSet};
use smartcrowd_pool::Pool;
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Maximum number of verified record ids retained (FIFO eviction).
pub(crate) const CAPACITY: usize = 16_384;

#[derive(Debug, Default)]
struct Inner {
    set: DigestSet<Digest>,
    order: VecDeque<Digest>,
}

fn inner() -> MutexGuard<'static, Inner> {
    static CACHE: OnceLock<Mutex<Inner>> = OnceLock::new();
    let lock = CACHE.get_or_init(|| Mutex::new(Inner::default()));
    // The cache holds no invariants across panics (it is a set of ids),
    // so a poisoned lock is safe to enter.
    match lock.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Whether `id` is a known-verified record id. Does not touch counters.
pub fn contains(id: &Digest) -> bool {
    inner().set.contains(id)
}

/// Marks `id` as carrying a verified signature.
pub fn insert(id: Digest) {
    let mut cache = inner();
    if cache.set.insert(id) {
        cache.order.push_back(id);
        if cache.order.len() > CAPACITY {
            if let Some(evicted) = cache.order.pop_front() {
                cache.set.remove(&evicted);
            }
        }
    }
}

/// Verifies a record's signature through the cache: one item of
/// [`verify_batch_claimed`], on the calling thread. `claim`, if any, is a
/// signature by the record's own sender that its payload carries; on a
/// miss it joins the record's recovery as one group
/// (`Record::verify_signatures`), and `Ok(true)` says it holds. A hit
/// checks no signature, so it answers `Ok(false)`, as does a claim that did
/// not hold: an unvouched claim is left to its owner's own check. The
/// cache holds record ids only, never a claim's verdict.
///
/// # Errors
///
/// Returns [`ChainError::RecordRejected`] exactly as
/// [`Record::verify_signature`] would, whatever the claim — failures are
/// never cached.
pub fn verify_claimed(record: &Record, claim: Option<Claim<'_>>) -> Result<bool, ChainError> {
    verify_batch_claimed(&[(record, claim)], &Pool::new(1)).remove(0)
}

/// Index-aligned signature verdicts for a burst of records, checked
/// through the cache with the misses fanned out on `pool`: the verdicts
/// of [`verify_batch_claimed`] with no claims.
pub fn verify_batch(records: &[&Record], pool: &Pool) -> Vec<Result<(), ChainError>> {
    let items: Vec<(&Record, Option<Claim<'_>>)> = records.iter().map(|r| (*r, None)).collect();
    verify_batch_claimed(&items, pool)
        .into_iter()
        .map(|verdict| verdict.map(|_| ()))
        .collect()
}

/// Index-aligned verdicts for every `(record, claim)`, each as
/// [`verify_claimed`] describes, with the misses fanned out on `pool`.
///
/// This is the one cache path: behind block validation,
/// [`crate::mempool::Mempool::insert_batch_with`], a replica's block check
/// and, one record at a time, its admission. The misses are stably sorted
/// by the position of their sender's first miss, so that each contiguous
/// chunk a worker takes holds the records of a few senders. Each chunk is
/// one `Record::verify_signatures`: one signature group per sender, its
/// records and claims together, so a repeat sender or a claim costs a
/// fraction of a recovery. The results are merged back by index.
/// `chain.sigcache.repeat_sender` counts the misses whose sender already
/// appeared among the burst's misses.
///
/// Determinism: cache lookups, hit/miss/repeat accounting and cache
/// insertions all happen on the caller's thread in input order; only the
/// pure signature checks run on workers. A record's verdict depends on
/// its own record alone, not on the chunk it was checked in, so the
/// returned verdicts, the cache's evolution and every telemetry counter
/// are thread-count-invariant although the chunk boundaries are not.
/// Whether a claim is vouched for may depend on its chunk; what the claim
/// decides does not, since an unvouched claim is checked by its owner.
pub fn verify_batch_claimed(
    items: &[(&Record, Option<Claim<'_>>)],
    pool: &Pool,
) -> Vec<Result<bool, ChainError>> {
    let mut results: Vec<Result<bool, ChainError>> = Vec::with_capacity(items.len());
    let mut misses: Vec<usize> = Vec::new();
    for (index, (record, _)) in items.iter().enumerate() {
        if contains(&record.id()) {
            smartcrowd_telemetry::counter!("chain.sigcache.hit").inc();
        } else {
            smartcrowd_telemetry::counter!("chain.sigcache.miss").inc();
            misses.push(index);
        }
        results.push(Ok(false)); // a miss's placeholder, overwritten below
    }
    if misses.is_empty() {
        return results;
    }
    let mut rank: DigestMap<Address, usize> = DigestMap::default();
    let mut ranked: Vec<(usize, usize)> = misses
        .iter()
        .map(|&index| {
            let next = rank.len();
            (*rank.entry(items[index].0.sender()).or_insert(next), index)
        })
        .collect();
    smartcrowd_telemetry::counter!("chain.sigcache.repeat_sender")
        .add((misses.len() - rank.len()) as u64);
    ranked.sort_by_key(|&(rank, _)| rank);
    let missed: Vec<(&Record, Option<Claim<'_>>)> =
        ranked.iter().map(|&(_, index)| items[index]).collect();
    let verdicts = pool.par_chunks(&missed, Record::verify_signatures);
    for (&(_, index), verdict) in ranked.iter().zip(verdicts) {
        results[index] = verdict;
    }
    for &index in &misses {
        if results[index].is_ok() {
            insert(items[index].0.id());
        }
    }
    results
}

/// Current number of cached ids.
pub fn len() -> usize {
    inner().set.len()
}

/// Empties the cache. Benchmarks and determinism tests call this between
/// runs so cache state (and the hit/miss counters' future behaviour) is a
/// pure function of the run itself.
pub fn reset() {
    let mut cache = inner();
    cache.set.clear();
    cache.order.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::Ether;
    use crate::record::RecordKind;
    use smartcrowd_crypto::keys::KeyPair;

    fn record(seed: u64) -> Record {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        Record::signed(RecordKind::Transfer, vec![1], Ether::ZERO, seed, &kp)
    }

    #[test]
    fn verified_record_is_cached() {
        let r = record(9001);
        assert!(!contains(&r.id()));
        verify_claimed(&r, None).unwrap();
        assert!(contains(&r.id()));
        // Second pass is served from the cache (still Ok).
        verify_claimed(&r, None).unwrap();
    }

    #[test]
    fn tampered_record_never_cached() {
        let r = record(9002);
        let mut bytes = r.encode();
        let payload_start = 1 + 20 + 8;
        bytes[payload_start] ^= 0xff;
        let tampered = Record::decode(&bytes).unwrap();
        assert!(verify_claimed(&tampered, None).is_err());
        assert!(!contains(&tampered.id()));
        // The tampered id differs from the original, so a prior
        // verification of the original can never mask the tampering.
        assert_ne!(tampered.id(), r.id());
    }

    #[test]
    fn capacity_is_bounded() {
        // Insert synthetic ids well past capacity; the set stays bounded.
        for i in 0..(CAPACITY + 512) {
            let mut id = [0u8; 32];
            id[..8].copy_from_slice(&(i as u64).to_be_bytes());
            id[8] = 0xfe; // avoid colliding with other tests' record ids
            insert(id);
        }
        assert!(len() <= CAPACITY);
    }
}
