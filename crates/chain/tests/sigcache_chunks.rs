//! `sigcache::verify_batch` hands each pool worker a contiguous chunk of
//! the cache misses to recover as one batch, and the chunk boundaries move
//! with the thread count. The verdicts, the cache's contents and the
//! hit/miss counters must not: this runs one burst at 1, 2 and 8 threads
//! and compares all three.
//!
//! The signature cache and the telemetry registry are process-wide, so
//! this file holds a single test and nothing runs beside it.

use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::{sigcache, ChainError, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use smartcrowd_pool::Pool;

fn record(seed: u64) -> Record {
    let kp = KeyPair::from_seed(&seed.to_be_bytes());
    Record::signed(
        RecordKind::Transfer,
        vec![seed as u8; 3],
        Ether::from_wei(u128::from(seed)),
        seed,
        &kp,
    )
}

/// `record` with `bytes` written over its canonical encoding at `at`.
fn overwrite(record: &Record, at: usize, bytes: &[u8]) -> Record {
    let mut encoded = record.encode();
    encoded[at..at + bytes.len()].copy_from_slice(bytes);
    Record::decode(&encoded).unwrap()
}

fn counter(name: &str) -> u64 {
    smartcrowd_telemetry::global().counter(name, &[]).get()
}

/// What one run of the burst leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    verdicts: Vec<Result<(), ChainError>>,
    cached: Vec<bool>,
    cache_len: usize,
    hits: u64,
    misses: u64,
}

#[test]
fn verify_batch_is_invariant_to_chunking() {
    let mut burst: Vec<Record> = (0..100).map(record).collect();
    // Mid-burst: a payload byte flipped, and a sender re-labelled; both
    // recover to a key that is not the declared sender's.
    burst[45] = overwrite(&burst[45], 1 + 20 + 8, b"X");
    burst[58] = overwrite(&burst[58], 1, Address::from_label("victim").as_bytes());
    let refs: Vec<&Record> = burst.iter().collect();
    let warm: Vec<&Record> = refs.iter().step_by(9).copied().collect();

    let observe = |threads: usize| {
        sigcache::reset();
        // Every ninth record is verified first and so is a hit, except the
        // tampered one among them: a bad signature is never cached.
        for record in &warm {
            let _ = sigcache::verify_cached(record);
        }
        let (hits, misses) = (
            counter("chain.sigcache.hit"),
            counter("chain.sigcache.miss"),
        );
        let verdicts = sigcache::verify_batch(&refs, &Pool::new(threads));
        Observed {
            verdicts,
            cached: refs.iter().map(|r| sigcache::contains(&r.id())).collect(),
            cache_len: sigcache::len(),
            hits: counter("chain.sigcache.hit") - hits,
            misses: counter("chain.sigcache.miss") - misses,
        }
    };

    let one = observe(1);
    for threads in [2, 8] {
        assert_eq!(observe(threads), one, "{threads} threads");
    }
    // And what the one-thread run saw is the per-record answer.
    let expected: Vec<_> = refs.iter().map(|r| r.verify_signature()).collect();
    assert_eq!(one.verdicts, expected);
    let bad = [45, 58];
    for (index, verdict) in one.verdicts.iter().enumerate() {
        assert_eq!(verdict.is_err(), bad.contains(&index), "record {index}");
        assert_eq!(one.cached[index], !bad.contains(&index), "record {index}");
    }
    assert_eq!(one.cache_len, 98);
    let warmed_good = warm.len() as u64 - 1;
    assert_eq!((one.hits, one.misses), (warmed_good, 100 - warmed_good));
}
