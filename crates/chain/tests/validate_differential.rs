//! Differential validation tests: the parallel cached pipeline
//! ([`validate_block_with`]) must be observably identical to the seed
//! single-threaded pipeline ([`validate_block_sequential`], kept here as
//! the reference, linkage check included) — the same
//! verdict AND the same *first* error, for valid blocks, tampered
//! signatures, and semantic rejections, at every thread count.

use proptest::prelude::*;
use smartcrowd_chain::block::Block;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::validate::{validate_block_with, AcceptAll, RecordValidator};
use smartcrowd_chain::{ChainError, ChainQuery, ChainStore, Difficulty, Ether};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use smartcrowd_pool::Pool;

fn record(seed: u64, nonce: u64) -> Record {
    let kp = KeyPair::from_seed(&seed.to_be_bytes());
    Record::signed(
        RecordKind::Transfer,
        vec![seed as u8, nonce as u8],
        Ether::from_wei(seed as u128),
        nonce,
        &kp,
    )
}

/// The seed single-threaded pipeline, kept verbatim as the differential
/// reference: no signature cache, no fan-out, strict record-order early
/// exit, and its own copy of the linkage check (known parent, consecutive
/// height, monotone timestamp) so the chain index is compared against
/// something it did not write.
fn validate_block_sequential(
    store: &ChainStore,
    block: &Block,
    validator: &dyn RecordValidator,
) -> Result<(), ChainError> {
    block.validate_structure()?;
    let parent = store
        .header_of(&block.header().prev)
        .ok_or(ChainError::UnknownParent {
            parent: block.header().prev,
        })?;
    if block.header().height != parent.height + 1 {
        return Err(ChainError::Codec {
            detail: format!(
                "height {} does not follow parent height {}",
                block.header().height,
                parent.height
            ),
        });
    }
    if block.header().timestamp < parent.timestamp {
        return Err(ChainError::TimestampRegression { id: block.id() });
    }
    for record in block.records() {
        record.verify_signature()?;
        validator.validate(record)?;
    }
    Ok(())
}

/// A semantic validator rejecting the record with this nonce, if any.
struct RejectNonce(Option<u64>);

impl RecordValidator for RejectNonce {
    fn validate(&self, record: &Record) -> Result<(), ChainError> {
        if Some(record.nonce()) == self.0 {
            Err(ChainError::RecordRejected {
                reason: format!("semantic failure: nonce {} banned", record.nonce()),
            })
        } else {
            Ok(())
        }
    }
}

/// Flips one payload byte and re-decodes: a structurally valid record
/// whose signature no longer matches its content.
fn tamper(r: &Record) -> Record {
    let mut bytes = r.encode();
    let payload_start = 1 + 20 + 8;
    bytes[payload_start] ^= 0xff;
    Record::decode(&bytes).unwrap()
}

/// Mines a block holding `records` on a fresh genesis at difficulty 1,
/// so only signature/semantic checks can fail downstream.
fn block_with(records: Vec<Record>) -> (ChainStore, Block) {
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let store = ChainStore::new(genesis.clone());
    let block = smartcrowd_chain::pow::Miner::new(Address::from_label("p"))
        .mine_next(&genesis, records, genesis.header().timestamp + 15)
        .unwrap();
    (store, block)
}

/// Asserts both pipelines agree exactly (verdict and first error) for the
/// given block/validator at 1, 2 and 8 threads.
fn assert_differential(store: &ChainStore, block: &Block, validator: &dyn RecordValidator) {
    let reference = validate_block_sequential(store, block, validator);
    for threads in [1, 2, 8] {
        let parallel = validate_block_with(store, block, validator, &Pool::new(threads));
        assert_eq!(
            parallel, reference,
            "parallel ({threads} threads) diverged from sequential"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random mixes of good/tampered records and a nonce-keyed semantic
    /// rejector: verdicts and first errors always match the sequential
    /// reference.
    #[test]
    fn parallel_matches_sequential(
        count in 1usize..6,
        tamper_sel in 0usize..7, // 6 = no tampering
        reject_sel in 0u64..7,   // 6 = no semantic rejection
    ) {
        let mut records: Vec<Record> =
            (0..count as u64).map(|i| record(i + 1, i)).collect();
        if tamper_sel < 6 {
            let i = tamper_sel % records.len();
            records[i] = tamper(&records[i]);
        }
        let (store, block) = block_with(records);
        let validator = RejectNonce((reject_sel < 6).then_some(reject_sel));
        assert_differential(&store, &block, &validator);
    }
}

#[test]
fn wide_valid_block_matches_sequential() {
    // 20 records exceeds the pool's inline threshold (16), so the misses
    // genuinely fan out on multi-thread pools.
    smartcrowd_chain::sigcache::reset();
    let records: Vec<Record> = (0..20).map(|i| record(i + 100, i)).collect();
    let (store, block) = block_with(records);
    assert_differential(&store, &block, &AcceptAll);
}

#[test]
fn linkage_errors_match_sequential() {
    // Difficulty 1 accepts any hash, so header edits keep the PoW valid
    // and only the linkage check can object.
    let (store, block) = block_with(vec![record(60, 0)]);
    let mut orphan = block.clone();
    orphan.header_mut().prev = block.id();
    let mut skipped = block.clone();
    skipped.header_mut().height += 1;
    let mut early = block.clone();
    early.header_mut().timestamp -= 16;
    for bad in [orphan, skipped, early] {
        assert!(validate_block_sequential(&store, &bad, &AcceptAll).is_err());
        assert_differential(&store, &bad, &AcceptAll);
    }
}

#[test]
fn first_error_is_positional_not_phase_ordered() {
    // Record 0 fails *semantically*, record 1 fails its *signature*. A
    // naive "all signatures first" pipeline would report record 1's
    // signature error; the sequential order demands record 0's semantic
    // error. Both pipelines must return the semantic error.
    smartcrowd_chain::sigcache::reset();
    let r0 = record(50, 0);
    let r1 = tamper(&record(51, 1));
    let (store, block) = block_with(vec![r0, r1]);
    let validator = RejectNonce(Some(0));
    let reference = validate_block_sequential(&store, &block, &validator).unwrap_err();
    assert!(
        matches!(
            &reference,
            ChainError::RecordRejected { reason } if reason.contains("semantic")
        ),
        "sequential reference must fail on record 0's semantics, got {reference:?}"
    );
    assert_differential(&store, &block, &validator);
}

#[test]
fn warm_cache_does_not_change_verdicts() {
    // Validate the same block twice: the second pass is served from the
    // signature cache, and the verdict must not change. A tampered block
    // sharing a prefix with the cached one must still fail.
    smartcrowd_chain::sigcache::reset();
    let records: Vec<Record> = (0..4).map(|i| record(i + 200, i)).collect();
    let (store, block) = block_with(records.clone());
    let pool = Pool::new(4);
    assert_eq!(
        validate_block_with(&store, &block, &AcceptAll, &pool),
        Ok(()),
    );
    assert_eq!(
        validate_block_with(&store, &block, &AcceptAll, &pool),
        Ok(()),
        "warm-cache revalidation still passes"
    );
    // The block's record list now carries its memoized Merkle root, shared
    // with every clone — a digest, not a verdict: a clone whose header
    // claims another root, and a decode of the wire bytes with one payload
    // byte flipped (a fresh list with no memo), are both refused.
    let mut forged_root = block.clone();
    forged_root.header_mut().merkle_root[31] ^= 1;
    let mut wire = block.encode();
    let last_payload_byte = wire.len() - (16 + 8 + 65) - 1;
    wire[last_payload_byte] ^= 0xff;
    for forged in [forged_root, Block::decode(&wire).unwrap()] {
        let err = validate_block_with(&store, &forged, &AcceptAll, &pool).unwrap_err();
        assert!(matches!(err, ChainError::MerkleMismatch { .. }), "{err:?}");
        assert_differential(&store, &forged, &AcceptAll);
    }
    assert_eq!(
        validate_block_with(&store, &block, &AcceptAll, &pool),
        Ok(()),
        "the honest handle is unaffected"
    );
    let mut tampered = records;
    tampered[2] = tamper(&tampered[2]);
    let (store2, bad) = block_with(tampered);
    let err = validate_block_with(&store2, &bad, &AcceptAll, &pool).unwrap_err();
    assert_eq!(
        err,
        validate_block_sequential(&store2, &bad, &AcceptAll).unwrap_err()
    );
}
