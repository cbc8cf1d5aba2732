//! Full block-validation pipeline.
//!
//! "Each newly generated block must be correctly verified by IoT
//! providers" (§VI-A). The pipeline layers, in order: structural
//! self-consistency (Merkle root, PoW target, record uniqueness), linkage
//! against the local store's chain index (known parent, height, timestamp,
//! genesis difficulty — the same check every insert runs), per-record
//! signature recovery, and finally an injectable semantic validator — the
//! hook through which an embedder plugs in protocol-level checks.
//!
//! This is the gate in its stand-alone, chain-layer form, for an embedder
//! that has a store but no protocol core. A provider node does not call it:
//! it checks a block's records in `Protocol::check_block` (the same
//! signature fan-out, then its own semantic switch) and leaves linkage and
//! structure to the store's commit — DESIGN.md §16.
//!
//! ## Fast path: cache + fan-out
//!
//! Signature recovery dominates validation cost, so [`validate_block`]
//! fronts it with the [`crate::sigcache`] (records whose signature was
//! checked when they were pooled skip re-recovery entirely) and fans the
//! remaining recoveries out on a [`smartcrowd_pool::Pool`]. The parallel
//! path is **observably identical** to the sequential one: cache lookups
//! and insertions happen on the caller's thread in record order, results
//! are merged index-ordered, and the *first* failing record's error is
//! returned exactly as the sequential loop would have. The semantic
//! validator always runs sequentially, in record order, with early exit —
//! it may carry state. The original cache-free single-threaded pipeline
//! lives on as the differential reference in
//! `tests/validate_differential.rs`.

use crate::block::Block;
use crate::error::ChainError;
use crate::record::Record;
use crate::sigcache;
use crate::storage::ChainQuery;
use smartcrowd_pool::Pool;

/// Semantic record validation, implemented by higher layers (a SmartCrowd
/// provider runs Algorithm 1 + `AutoVerif()` in `Protocol::check_block`
/// instead).
pub trait RecordValidator {
    /// Accepts or rejects a record on protocol-level grounds.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::RecordRejected`] describing the violation.
    fn validate(&self, record: &Record) -> Result<(), ChainError>;
}

/// A validator that accepts everything (chain-layer tests and benches).
#[derive(Debug, Clone, Copy, Default)]
pub struct AcceptAll;

impl RecordValidator for AcceptAll {
    fn validate(&self, _record: &Record) -> Result<(), ChainError> {
        Ok(())
    }
}

/// Runs the full pipeline against a candidate block.
///
/// # Errors
///
/// Returns the first failure: structural errors, linkage errors
/// ([`ChainError::UnknownParent`], [`ChainError::TimestampRegression`], a
/// difficulty other than the genesis difficulty),
/// record signature failures, or semantic rejections from `validator`.
pub fn validate_block<Q: ChainQuery + ?Sized>(
    store: &Q,
    block: &Block,
    validator: &dyn RecordValidator,
) -> Result<(), ChainError> {
    validate_block_with(store, block, validator, smartcrowd_pool::global())
}

/// [`validate_block`] with an explicit pool (tests and benchmarks pin the
/// thread count; production callers use the global pool).
///
/// # Errors
///
/// Identical to [`validate_block`].
pub fn validate_block_with<Q: ChainQuery + ?Sized>(
    store: &Q,
    block: &Block,
    validator: &dyn RecordValidator,
    pool: &Pool,
) -> Result<(), ChainError> {
    let _span = smartcrowd_telemetry::span!("chain.validate_block");
    let result = validate_block_inner(store, block, validator, pool);
    if result.is_err() {
        smartcrowd_telemetry::counter!("chain.validate.rejected").inc();
    }
    result
}

fn validate_block_inner<Q: ChainQuery + ?Sized>(
    store: &Q,
    block: &Block,
    validator: &dyn RecordValidator,
    pool: &Pool,
) -> Result<(), ChainError> {
    block.validate_structure()?;
    store.index().check_linkage(block.header())?;
    let records = block.records();
    let mut sig_results = cached_signature_results(records, pool);
    // Interleave exactly like the sequential pipeline: for record `i`,
    // its signature verdict is consulted before its semantic verdict, and
    // the scan stops at the first failure — so the *same first error* is
    // returned no matter how the recoveries above were scheduled.
    for (record, sig) in records.iter().zip(sig_results.drain(..)) {
        sig?;
        validator.validate(record)?;
    }
    Ok(())
}

/// Index-aligned signature verdicts for every record, delegated to the
/// shared [`sigcache::verify_batch`] fast path (cache bookkeeping on the
/// caller's thread in record order, misses fanned out on `pool`, results
/// merged by index — thread-count-invariant by construction).
fn cached_signature_results(records: &[Record], pool: &Pool) -> Vec<Result<(), ChainError>> {
    let refs: Vec<&Record> = records.iter().collect();
    sigcache::verify_batch(&refs, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::Ether;
    use crate::difficulty::Difficulty;
    use crate::pow::Miner;
    use crate::record::RecordKind;
    use crate::store::ChainStore;
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_crypto::Address;

    /// Rejects every record one sender signed, as providers filter an
    /// isolated detector's reports (§V-C).
    struct Isolating(Address);

    impl RecordValidator for Isolating {
        fn validate(&self, record: &Record) -> Result<(), ChainError> {
            if record.sender() == self.0 {
                Err(ChainError::RecordRejected {
                    reason: "isolated detector".into(),
                })
            } else {
                Ok(())
            }
        }
    }

    fn setup() -> (ChainStore, Block, Miner) {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let store = ChainStore::new(genesis.clone());
        (store, genesis, Miner::new(Address::from_label("p")))
    }

    fn record(fee: u64) -> Record {
        let kp = KeyPair::from_seed(b"d");
        Record::signed(
            RecordKind::Transfer,
            vec![1],
            Ether::from_wei(fee as u128),
            fee,
            &kp,
        )
    }

    #[test]
    fn valid_block_passes() {
        let (store, genesis, miner) = setup();
        let b = miner
            .mine_next(&genesis, vec![record(1)], genesis.header().timestamp + 15)
            .unwrap();
        assert!(validate_block(&store, &b, &AcceptAll).is_ok());
    }

    #[test]
    fn semantic_rejection_propagates() {
        let (store, genesis, miner) = setup();
        let b = miner
            .mine_next(&genesis, vec![record(1)], genesis.header().timestamp + 15)
            .unwrap();
        let rejecting = Isolating(KeyPair::from_seed(b"d").address());
        let err = validate_block(&store, &b, &rejecting).unwrap_err();
        assert!(matches!(err, ChainError::RecordRejected { .. }));
    }

    #[test]
    fn unknown_parent_detected() {
        let (store, _, miner) = setup();
        let other = Block::genesis(Difficulty::from_u64(9));
        let b = miner
            .mine_next(&other, vec![], other.header().timestamp + 15)
            .unwrap();
        assert!(matches!(
            validate_block(&store, &b, &AcceptAll),
            Err(ChainError::UnknownParent { .. })
        ));
    }

    #[test]
    fn off_genesis_difficulty_detected() {
        let genesis = Block::genesis(Difficulty::from_u64(16));
        let store = ChainStore::new(genesis.clone());
        let miner = Miner::new(Address::from_label("p"));
        let at = |difficulty| {
            let block = Block::assemble(
                &genesis,
                vec![record(1)],
                genesis.header().timestamp + 15,
                Difficulty::from_u64(difficulty),
                miner.address(),
            );
            miner.seal(block, 0).unwrap()
        };
        for difficulty in [16 * 64, 1] {
            assert!(matches!(
                validate_block(&store, &at(difficulty), &AcceptAll),
                Err(ChainError::Codec { detail }) if detail.contains("difficulty drift")
            ));
        }
        assert!(validate_block(&store, &at(16), &AcceptAll).is_ok());
    }

    #[test]
    fn tampered_record_signature_detected() {
        let (store, genesis, miner) = setup();
        let b = miner
            .mine_next(&genesis, vec![record(1)], genesis.header().timestamp + 15)
            .unwrap();
        // Re-encode with a tampered payload byte but a recomputed Merkle
        // root, so only signature validation can catch it.
        let mut records: Vec<Record> = b.records().to_vec();
        let mut bytes = records[0].encode();
        let payload_start = 1 + 20 + 8;
        bytes[payload_start] ^= 0xff;
        records[0] = Record::decode(&bytes).unwrap();
        let tampered = miner
            .mine_next(&genesis, records, genesis.header().timestamp + 15)
            .unwrap();
        let err = validate_block(&store, &tampered, &AcceptAll).unwrap_err();
        assert!(matches!(err, ChainError::RecordRejected { .. }));
    }

    #[test]
    fn selective_validator() {
        // Providers "filter this detector's next reports" after a failed
        // AutoVerif (§V-C): model as a validator rejecting one sender.
        let validator = Isolating(KeyPair::from_seed(b"banned").address());
        let (store, genesis, miner) = setup();
        let bad = Record::signed(
            RecordKind::InitialReport,
            vec![],
            Ether::ZERO,
            0,
            &KeyPair::from_seed(b"banned"),
        );
        let ok = Record::signed(
            RecordKind::InitialReport,
            vec![],
            Ether::ZERO,
            0,
            &KeyPair::from_seed(b"good"),
        );
        let b_bad = miner
            .mine_next(&genesis, vec![bad], genesis.header().timestamp + 15)
            .unwrap();
        let b_ok = miner
            .mine_next(&genesis, vec![ok], genesis.header().timestamp + 15)
            .unwrap();
        assert!(validate_block(&store, &b_bad, &validator).is_err());
        assert!(validate_block(&store, &b_ok, &validator).is_ok());
    }
}
