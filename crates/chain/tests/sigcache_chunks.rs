//! `sigcache::verify_batch` sorts the cache misses by sender and hands
//! each pool worker a contiguous chunk of them to check as one batch, and
//! the chunk boundaries move with the thread count. The verdicts, the
//! cache's contents and the hit/miss/repeat-sender counters must not: each
//! test runs a burst at 1, 2 and 8 threads and compares all three.
//!
//! The signature cache and the telemetry registry are process-wide, so
//! the tests in this file take one lock and never run side by side.

use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::{sigcache, ChainError, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use smartcrowd_pool::Pool;
use std::sync::{Mutex, MutexGuard};

/// Held for the whole of each test.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

/// What one run of a burst leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    verdicts: Vec<Result<(), ChainError>>,
    cached: Vec<bool>,
    cache_len: usize,
    hits: u64,
    misses: u64,
    repeat_senders: u64,
}

/// Runs `refs` through `verify_batch` on `threads` workers from an empty
/// cache, after verifying every ninth record on its own so that it hits.
fn observe(refs: &[&Record], threads: usize) -> Observed {
    sigcache::reset();
    for record in refs.iter().step_by(9) {
        let _ = sigcache::verify_claimed(record, None);
    }
    let (hits, misses, repeats) = (
        counter("chain.sigcache.hit"),
        counter("chain.sigcache.miss"),
        counter("chain.sigcache.repeat_sender"),
    );
    let verdicts = sigcache::verify_batch(refs, &Pool::new(threads));
    Observed {
        verdicts,
        cached: refs.iter().map(|r| sigcache::contains(&r.id())).collect(),
        cache_len: sigcache::len(),
        hits: counter("chain.sigcache.hit") - hits,
        misses: counter("chain.sigcache.miss") - misses,
        repeat_senders: counter("chain.sigcache.repeat_sender") - repeats,
    }
}

/// [`observe`] at 1, 2 and 8 threads: the three must agree, and the
/// verdicts must be the per-record ones, failing exactly at `bad`.
fn observe_invariant(refs: &[&Record], bad: &[usize]) -> Observed {
    let one = observe(refs, 1);
    for threads in [2, 8] {
        assert_eq!(observe(refs, threads), one, "{threads} threads");
    }
    let expected: Vec<_> = refs.iter().map(|r| r.verify_signature()).collect();
    assert_eq!(one.verdicts, expected);
    for (index, verdict) in one.verdicts.iter().enumerate() {
        assert_eq!(verdict.is_err(), bad.contains(&index), "record {index}");
        assert_eq!(one.cached[index], !bad.contains(&index), "record {index}");
    }
    one
}

#[test]
fn verify_batch_is_invariant_to_chunking() {
    let _serial = serial();
    let mut burst: Vec<Record> = (0..100).map(record).collect();
    // Mid-burst: a payload byte flipped, and a sender re-labelled; both
    // recover to a key that is not the declared sender's.
    burst[45] = overwrite(&burst[45], 1 + 20 + 8, b"X");
    burst[58] = overwrite(&burst[58], 1, Address::from_label("victim").as_bytes());
    let refs: Vec<&Record> = burst.iter().collect();
    // Every ninth record is verified first and so is a hit, except the
    // tampered one among them: a bad signature is never cached.
    let warmed_good = refs.iter().step_by(9).count() as u64 - 1;
    let one = observe_invariant(&refs, &[45, 58]);
    assert_eq!(one.cache_len, 98);
    assert_eq!((one.hits, one.misses), (warmed_good, 100 - warmed_good));
    // One key per record, except the re-labelled one, whose "sender" is
    // the victim's: no sender repeats.
    assert_eq!(one.repeat_senders, 0);
}

/// A record by the `sender`-th of the repeat senders.
fn by_sender(sender: u64, nonce: u64) -> Record {
    let kp = KeyPair::from_seed(format!("repeat-{sender}").as_bytes());
    Record::signed(
        RecordKind::Transfer,
        vec![nonce as u8; 3],
        Ether::from_wei(u128::from(nonce)),
        nonce,
        &kp,
    )
}

#[test]
fn repeat_senders_are_invariant_to_chunking() {
    let _serial = serial();
    // 100 records over 7 senders, interleaved, so that the sort by sender
    // reorders them; one follower (not its sender's first miss) has a
    // flipped payload byte and fails alone.
    let mut burst: Vec<Record> = (0..100).map(|i| by_sender(i % 7, i)).collect();
    burst[61] = overwrite(&burst[61], 1 + 20 + 8, b"X");
    let refs: Vec<&Record> = burst.iter().collect();
    let warmed = refs.iter().step_by(9).count() as u64;
    let one = observe_invariant(&refs, &[61]);
    assert_eq!(one.cache_len, 99);
    assert_eq!((one.hits, one.misses), (warmed, 100 - warmed));
    // Every miss but each sender's first is a repeat.
    assert_eq!(one.repeat_senders, 100 - warmed - 7);
}

#[test]
fn repeat_sender_counts_the_burst_not_the_chunks() {
    let _serial = serial();
    // The shape of the benchmark's cold ingest: 512 records from 32
    // senders, all misses, so 480 of them repeat a sender.
    let burst: Vec<Record> = (0..512).map(|i| by_sender(i * 7 % 32, i)).collect();
    let refs: Vec<&Record> = burst.iter().collect();
    for threads in [1, 8] {
        sigcache::reset();
        let before = counter("chain.sigcache.repeat_sender");
        let verdicts = sigcache::verify_batch(&refs, &Pool::new(threads));
        assert!(verdicts.iter().all(Result::is_ok), "{threads} threads");
        assert_eq!(counter("chain.sigcache.repeat_sender") - before, 480);
    }
}
