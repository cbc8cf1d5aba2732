//! Blocks: a header plus ω records (Fig. 2).

use crate::codec::{Decoder, Encoder};
use crate::difficulty::Difficulty;
use crate::error::ChainError;
use crate::header::{BlockHeader, BlockId};
use crate::record::Record;
use smartcrowd_crypto::merkle::MerkleTree;
use smartcrowd_crypto::{Address, Digest, DigestSet};
use std::sync::{Arc, OnceLock};

/// What every handle to one block shares: the record list, frozen at
/// construction ([`Block::genesis`], [`Block::assemble`] and
/// [`Block::decode`] are the only constructors), and the memo of its own
/// Merkle root — a pure function of bytes nothing can mutate. The memo is a
/// digest, never a verdict: [`Block::validate_structure`] compares it with
/// the header's claim on every call, and a body built by `decode` starts
/// with it empty.
#[derive(Debug)]
struct RecordList {
    records: Vec<Record>,
    merkle_root: OnceLock<Digest>,
}

impl RecordList {
    fn merkle_root(&self) -> Digest {
        *self
            .merkle_root
            .get_or_init(|| Block::merkle_root_of(&self.records))
    }
}

/// A full block: a header, inline and mutable per handle, over a shared
/// immutable record list. A clone copies the header and bumps a reference
/// count.
///
/// # Example
///
/// ```
/// use smartcrowd_chain::{Block, Difficulty};
///
/// let genesis = Block::genesis(Difficulty::paper());
/// assert_eq!(genesis.header().height, 0);
/// assert!(genesis.records().is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Block {
    header: BlockHeader,
    body: Arc<RecordList>,
    /// Memoized block id, per handle. The header is only reachable mutably
    /// through [`Block::header_mut`], which resets this cell, so the cache
    /// can never go stale and a write through one handle never shows in
    /// the id another reports. Equality ignores it.
    id_cache: OnceLock<BlockId>,
}

impl PartialEq for Block {
    fn eq(&self, other: &Self) -> bool {
        self.header == other.header
            && (Arc::ptr_eq(&self.body, &other.body) || self.body.records == other.body.records)
    }
}

impl Eq for Block {}

/// Timestamp of the genesis block (2019-01-01T00:00:00Z, the paper's year).
pub(crate) const GENESIS_TIMESTAMP: u64 = 1_546_300_800;

impl Block {
    /// A block over `records` whose header carries the root just computed
    /// from them, which seeds the list's memo.
    fn with_own_root(header: BlockHeader, records: Vec<Record>) -> Block {
        Block {
            body: Arc::new(RecordList {
                records,
                merkle_root: OnceLock::from(header.merkle_root),
            }),
            header,
            id_cache: OnceLock::new(),
        }
    }

    /// Constructs the deterministic genesis block for a given difficulty.
    pub fn genesis(difficulty: Difficulty) -> Block {
        let header = BlockHeader {
            height: 0,
            prev: BlockId::GENESIS_PARENT,
            merkle_root: Self::merkle_root_of(&[]),
            timestamp: GENESIS_TIMESTAMP,
            nonce: 0,
            difficulty,
            miner: Address::ZERO,
        };
        Self::with_own_root(header, Vec::new())
    }

    /// Assembles an (unmined) block: header fields are filled in, the
    /// Merkle root is computed, and the nonce starts at zero.
    pub fn assemble(
        parent: &Block,
        records: Vec<Record>,
        timestamp: u64,
        difficulty: Difficulty,
        miner: Address,
    ) -> Block {
        let header = BlockHeader {
            height: parent.header.height + 1,
            prev: parent.id(),
            merkle_root: Self::merkle_root_of(&records),
            timestamp,
            nonce: 0,
            difficulty,
            miner,
        };
        Self::with_own_root(header, records)
    }

    /// Computes the Merkle root over a record list, folding the tree on the
    /// calling thread from each record's leaf memo ([`Record`] hashes its
    /// leaf once per shared body). A leaf is one double SHA-256 of a
    /// record's few hundred bytes, well below what a thread spawn costs, so
    /// no block the protocol seals is wide enough for a fan-out to pay
    /// (DESIGN.md §13).
    pub(crate) fn merkle_root_of(records: &[Record]) -> Digest {
        MerkleTree::from_leaf_hashes(records.iter().map(Record::merkle_leaf).collect()).root()
    }

    /// The header.
    pub fn header(&self) -> &BlockHeader {
        &self.header
    }

    /// Mutable header access (used by miners to set the winning nonce).
    ///
    /// Invalidates this handle's memoized block id: any field write
    /// changes the hashed preimage, so the next [`Block::id`] call
    /// recomputes. Clones keep their own header and id.
    pub fn header_mut(&mut self) -> &mut BlockHeader {
        self.id_cache = OnceLock::new();
        &mut self.header
    }

    /// The records (ω of them, in Merkle order).
    pub fn records(&self) -> &[Record] {
        &self.body.records
    }

    /// The block id (`CurBlockID`).
    ///
    /// Memoized behind a `OnceLock` (reset by [`Block::header_mut`]) so
    /// repeated lookups — fork choice, canonical reindexing, confirmation
    /// queries — stop re-encoding and re-hashing the header.
    pub fn id(&self) -> BlockId {
        if let Some(id) = self.id_cache.get() {
            smartcrowd_telemetry::counter!("chain.idcache.hit").inc();
            return *id;
        }
        *self.id_cache.get_or_init(|| self.header.id())
    }

    /// Structural self-validation: Merkle root matches records, record ids
    /// are unique, and the PoW target is met.
    ///
    /// Every call makes all three comparisons. The record list's own root
    /// is hashed by the first call on any handle sharing it (or was by
    /// [`Block::assemble`]) and read from the memo afterwards.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainError`] found.
    pub fn validate_structure(&self) -> Result<(), ChainError> {
        let id = self.id();
        if self.body.merkle_root() != self.header.merkle_root {
            return Err(ChainError::MerkleMismatch { id });
        }
        let mut seen =
            DigestSet::with_capacity_and_hasher(self.body.records.len(), Default::default());
        for r in &self.body.records {
            if !seen.insert(r.id()) {
                return Err(ChainError::DuplicateRecord { id });
            }
        }
        if !self.header.meets_target() {
            return Err(ChainError::InsufficientWork { id });
        }
        Ok(())
    }

    /// Canonical encoding of the full block.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_onto(Vec::with_capacity(self.encoded_len()))
    }

    /// Appends the block's encoding to `buf` (a storage frame encodes
    /// straight into its own buffer).
    pub(crate) fn encode_onto(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut enc = Encoder::onto(buf);
        enc.put_bytes(&self.header.encode());
        enc.put_u64(self.body.records.len() as u64);
        for r in &self.body.records {
            enc.put_bytes(r.encoded());
        }
        enc.finish()
    }

    /// `self.encode().len()`, without encoding.
    pub fn encoded_len(&self) -> usize {
        let records: usize = self
            .body
            .records
            .iter()
            .map(|r| 8 + r.encoded().len())
            .sum();
        8 + BlockHeader::ENCODED_LEN + 8 + records
    }

    /// Decodes a canonical block encoding into a fresh record list with
    /// empty memos.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Block, ChainError> {
        let mut dec = Decoder::new(bytes);
        let header = BlockHeader::decode(dec.take_bytes()?)?;
        let count = dec.take_u64()? as usize;
        // Cap pre-allocation: a forged count cannot OOM us.
        let mut records = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            records.push(Record::decode(dec.take_bytes()?)?);
        }
        dec.expect_end()?;
        Ok(Block {
            header,
            body: Arc::new(RecordList {
                records,
                merkle_root: OnceLock::new(),
            }),
            id_cache: OnceLock::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amount::Ether;
    use crate::record::RecordKind;
    use smartcrowd_crypto::keys::KeyPair;
    use smartcrowd_crypto::sha256::sha256d;

    fn record(i: u64) -> Record {
        let kp = KeyPair::from_seed(format!("d{i}").as_bytes());
        Record::signed(
            RecordKind::Transfer,
            vec![i as u8],
            Ether::from_wei(i as u128),
            i,
            &kp,
        )
    }

    fn child_with_records(n: u64) -> Block {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        Block::assemble(
            &genesis,
            (0..n).map(record).collect(),
            GENESIS_TIMESTAMP + 15,
            Difficulty::from_u64(1),
            Address::from_label("miner"),
        )
    }

    #[test]
    fn genesis_is_deterministic() {
        assert_eq!(
            Block::genesis(Difficulty::paper()).id(),
            Block::genesis(Difficulty::paper()).id()
        );
        assert_ne!(
            Block::genesis(Difficulty::paper()).id(),
            Block::genesis(Difficulty::from_u64(1)).id()
        );
    }

    #[test]
    fn assemble_links_to_parent() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let b = child_with_records(3);
        assert_eq!(b.header().prev, genesis.id());
        assert_eq!(b.header().height, 1);
        assert_eq!(b.records().len(), 3);
    }

    #[test]
    fn structure_validates_at_difficulty_one() {
        let b = child_with_records(5);
        assert!(b.validate_structure().is_ok());
    }

    #[test]
    fn merkle_mismatch_detected() {
        // Validated first, so the shared list's root memo is warm: the
        // memo is the list's own root, never a verdict on a header.
        let honest = child_with_records(2);
        assert!(honest.validate_structure().is_ok());
        let mut b = honest.clone();
        b.header_mut().merkle_root[0] ^= 1;
        assert!(matches!(
            b.validate_structure(),
            Err(ChainError::MerkleMismatch { .. })
        ));
        assert!(honest.validate_structure().is_ok());
    }

    #[test]
    fn duplicate_records_detected() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let r = record(1);
        let b = Block::assemble(
            &genesis,
            vec![r.clone(), r],
            GENESIS_TIMESTAMP + 15,
            Difficulty::from_u64(1),
            Address::from_label("m"),
        );
        assert!(matches!(
            b.validate_structure(),
            Err(ChainError::DuplicateRecord { .. })
        ));
    }

    #[test]
    fn insufficient_work_detected() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        // Enormous difficulty: a fresh unmined header will not meet it.
        let b = Block::assemble(
            &genesis,
            vec![],
            GENESIS_TIMESTAMP + 15,
            Difficulty::from_u128(u128::MAX),
            Address::from_label("m"),
        );
        assert!(matches!(
            b.validate_structure(),
            Err(ChainError::InsufficientWork { .. })
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let b = child_with_records(4);
        let decoded = Block::decode(&b.encode()).unwrap();
        assert_eq!(decoded, b);
        assert_eq!(decoded.id(), b.id());
    }

    #[test]
    fn decode_rejects_corruption() {
        let b = child_with_records(2);
        let bytes = b.encode();
        assert!(Block::decode(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn id_cache_invalidated_by_header_mut() {
        let mut b = child_with_records(2);
        let before = b.id();
        assert_eq!(b.id(), before, "repeated id() is stable");
        let untouched = b.clone();
        b.header_mut().nonce += 1;
        assert_ne!(b.id(), before, "mutation recomputes the id");
        assert_eq!(untouched.id(), before, "another handle keeps its header");
        assert_eq!(untouched.header().nonce, 0);
        let clone = b.clone();
        assert_eq!(clone.id(), b.id(), "clones carry the cache");
    }

    /// Fresh bodies (no memo filled) of the same records.
    fn cold(records: &[Record]) -> Vec<Record> {
        records
            .iter()
            .map(|r| Record::decode(r.encoded()).unwrap())
            .collect()
    }

    #[test]
    fn merkle_roots_match_the_reference_tree_at_every_width() {
        // Every record count from 0 to 600, each with its leaf memos cold,
        // warm and half-warm: the root `assemble` commits to, and the root
        // `decode` + `validate_structure` recompute, are the reference tree
        // over the encodings, whichever leaves were memoized.
        let kp = KeyPair::from_seed(b"widths");
        let records: Vec<Record> = (0..600u64)
            .map(|i| Record::signed(RecordKind::Transfer, vec![i as u8], Ether::ZERO, i, &kp))
            .collect();
        records.iter().for_each(|r| {
            r.merkle_leaf();
        });
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let warm_every = |records: &[Record], step: usize| {
            records.iter().step_by(step).for_each(|r| {
                r.merkle_leaf();
            })
        };
        for n in 0..=records.len() {
            let reference =
                MerkleTree::from_leaves(records[..n].iter().map(|r| r.encoded())).root();
            let half = cold(&records[..n]);
            warm_every(&half, 2);
            let lists = [
                ("cold", cold(&records[..n])),
                ("warm", records[..n].to_vec()),
                ("half-warm", half),
            ];
            for (memos, list) in lists {
                let block = Block::assemble(
                    &genesis,
                    list,
                    GENESIS_TIMESTAMP + 15,
                    Difficulty::from_u64(1),
                    Address::from_label("miner"),
                );
                assert_eq!(block.header().merkle_root, reference, "{n} {memos}");
                let decoded = Block::decode(&block.encode()).unwrap();
                match memos {
                    "warm" => warm_every(decoded.records(), 1),
                    "half-warm" => warm_every(decoded.records(), 2),
                    _ => {}
                }
                assert!(decoded.validate_structure().is_ok(), "{n} {memos}");
                assert_eq!(decoded.body.merkle_root(), reference, "{n} {memos}");
            }
        }
    }

    #[test]
    fn encoded_len_matches_encode() {
        // Payloads from 0 to 4 KiB, record counts 0–80.
        let kp = KeyPair::from_seed(b"sizes");
        let records: Vec<Record> = (0..80u64)
            .map(|i| {
                let payload = vec![i as u8; (i as usize * 4096) / 79];
                Record::signed(RecordKind::Transfer, payload, Ether::ZERO, i, &kp)
            })
            .collect();
        assert_eq!(records[0].payload().len(), 0);
        assert_eq!(records[79].payload().len(), 4096);
        let genesis = Block::genesis(Difficulty::from_u64(1));
        assert_eq!(genesis.encoded_len(), genesis.encode().len());
        for n in 0..=records.len() {
            let b = Block::assemble(
                &genesis,
                records[..n].to_vec(),
                GENESIS_TIMESTAMP + 15,
                Difficulty::from_u64(1),
                Address::from_label("miner"),
            );
            assert_eq!(b.encoded_len(), b.encode().len(), "{n} records");
        }
    }

    #[test]
    fn decode_builds_a_fresh_body() {
        // Tampered wire bytes inherit nothing from the block they were
        // copied from: flip one payload byte of a validated block's
        // encoding and the decoded list hashes to its own, different root.
        let honest = child_with_records(3);
        assert!(honest.validate_structure().is_ok());
        let mut bytes = honest.encode();
        let payload_byte = 8 + BlockHeader::ENCODED_LEN + 8 + 8 + 1 + 20 + 8;
        bytes[payload_byte] ^= 0xff;
        let tampered = Block::decode(&bytes).unwrap();
        assert!(tampered.body.merkle_root.get().is_none());
        assert!(tampered
            .records()
            .iter()
            .all(|r| r.merkle_leaf_memo().get().is_none()));
        assert_ne!(tampered.records()[0], honest.records()[0]);
        assert!(matches!(
            tampered.validate_structure(),
            Err(ChainError::MerkleMismatch { .. })
        ));
        assert_ne!(tampered.body.merkle_root(), honest.header().merkle_root);
        // An untampered copy is a fresh body too, and agrees.
        let copy = Block::decode(&honest.encode()).unwrap();
        assert!(copy.body.merkle_root.get().is_none());
        assert!(copy.validate_structure().is_ok());
        assert_eq!(copy.body.merkle_root(), honest.header().merkle_root);
    }

    #[test]
    fn header_root_is_the_hand_folded_tree() {
        // Leaf = sha256d(0x00 ‖ record encoding), node = sha256d(0x01 ‖ left
        // ‖ right), a level of odd width pairs its last node with itself,
        // and an empty list commits to a fixed sentinel.
        let widest = child_with_records(8);
        let encodings: Vec<&[u8]> = widest.records().iter().map(Record::encoded).collect();
        let l = |i: usize| sha256d(&[&[0u8][..], encodings[i]].concat());
        let n = |a: Digest, b: Digest| sha256d(&[&[1u8][..], &a, &b].concat());
        let odd_pair = n(l(4), l(4));
        let cases = [
            (0, sha256d(b"smartcrowd-empty-merkle")),
            (1, l(0)),
            (2, n(l(0), l(1))),
            (3, n(n(l(0), l(1)), n(l(2), l(2)))),
            (5, n(n(n(l(0), l(1)), n(l(2), l(3))), n(odd_pair, odd_pair))),
            (
                8,
                n(
                    n(n(l(0), l(1)), n(l(2), l(3))),
                    n(n(l(4), l(5)), n(l(6), l(7))),
                ),
            ),
        ];
        for (width, root) in cases {
            assert_eq!(
                child_with_records(width).header().merkle_root,
                root,
                "{width} records"
            );
        }
    }
}
