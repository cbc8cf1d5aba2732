//! Block identifiers and headers (Fig. 2 of the paper).

use crate::codec::{Decoder, Encoder};
use crate::difficulty::Difficulty;
use crate::error::ChainError;
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::{hex, Address, Digest};
use std::fmt;

/// A block identifier — the Keccak-256 of the canonical header encoding.
/// This is the `CurBlockID` of the paper's Fig. 2 (and the `PreBlockID`
/// of the following block).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BlockId(Digest);

impl BlockId {
    /// The id used as `PreBlockID` of the genesis block.
    pub(crate) const GENESIS_PARENT: BlockId = BlockId([0u8; 32]);

    /// Wraps a raw digest.
    pub const fn from_digest(d: Digest) -> Self {
        BlockId(d)
    }

    /// The raw digest.
    pub(crate) const fn as_digest(&self) -> &Digest {
        &self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // First 8 bytes are enough to disambiguate in logs.
        write!(f, "0x{}…", hex::encode(&self.0[..8]))
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockId(0x{})", hex::encode(&self.0))
    }
}

/// A block header: the hashed portion of a SmartCrowd block.
///
/// Matches the paper's Fig. 2 layout — `PreBlockID` ([`BlockHeader::prev`]),
/// `Timestamp`, `Nonce`, the Merkle root over the ω records, plus the
/// height, difficulty and miner address needed for fork choice and reward
/// attribution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockHeader {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Identifier of the previous block (`PreBlockID`).
    pub prev: BlockId,
    /// Merkle root over the block's records.
    pub merkle_root: Digest,
    /// Block generation time, seconds since the epoch.
    pub timestamp: u64,
    /// The PoW nonce the miner seeks (§II).
    pub nonce: u64,
    /// Difficulty this block was mined at.
    pub difficulty: Difficulty,
    /// Address of the IoT provider that mined the block (reward payee).
    pub miner: Address,
}

impl BlockHeader {
    /// Length of [`BlockHeader::encode`]'s output: every field is fixed-width.
    pub(crate) const ENCODED_LEN: usize = 8 + 32 + 32 + 8 + 8 + 16 + 20;

    /// Canonical encoding (the hashed preimage of the block id).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(self.height)
            .put_array(self.prev.as_digest())
            .put_array(&self.merkle_root)
            .put_u64(self.timestamp)
            .put_u64(self.nonce)
            .put_u128(self.difficulty.value())
            .put_array(self.miner.as_bytes());
        enc.finish()
    }

    /// Decodes a canonical header encoding.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Codec`] for truncated or trailing bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, ChainError> {
        let mut dec = Decoder::new(bytes);
        let height = dec.take_u64()?;
        let prev = BlockId::from_digest(dec.take_array::<32>()?);
        let merkle_root = dec.take_array::<32>()?;
        let timestamp = dec.take_u64()?;
        let nonce = dec.take_u64()?;
        let difficulty = Difficulty::from_u128(dec.take_u128()?);
        let miner = Address::from_bytes(dec.take_array::<20>()?);
        dec.expect_end()?;
        Ok(BlockHeader {
            height,
            prev,
            merkle_root,
            timestamp,
            nonce,
            difficulty,
            miner,
        })
    }

    /// Computes the block id (`CurBlockID`): Keccak-256 of the encoding.
    pub fn id(&self) -> BlockId {
        BlockId(keccak256(&self.encode()))
    }

    /// Whether this header's hash satisfies its own difficulty target.
    pub(crate) fn meets_target(&self) -> bool {
        self.difficulty.target_met(self.id().as_digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> BlockHeader {
        BlockHeader {
            height: 3,
            prev: BlockId::from_digest([1u8; 32]),
            merkle_root: [2u8; 32],
            timestamp: 1_700_000_000,
            nonce: 42,
            difficulty: Difficulty::from_u64(0xf00000),
            miner: Address::from_label("p1"),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let h = header();
        assert_eq!(h.encode().len(), BlockHeader::ENCODED_LEN);
        let decoded = BlockHeader::decode(&h.encode()).unwrap();
        assert_eq!(decoded, h);
    }

    #[test]
    fn id_changes_with_nonce() {
        let h1 = header();
        let mut h2 = header();
        h2.nonce += 1;
        assert_ne!(h1.id(), h2.id());
    }

    #[test]
    fn id_changes_with_any_field() {
        let base = header().id();
        let mut h = header();
        h.timestamp += 1;
        assert_ne!(h.id(), base);
        let mut h = header();
        h.merkle_root[0] ^= 1;
        assert_ne!(h.id(), base);
        let mut h = header();
        h.miner = Address::from_label("p2");
        assert_ne!(h.id(), base);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let bytes = header().encode();
        assert!(BlockHeader::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(BlockHeader::decode(&extended).is_err());
    }

    #[test]
    fn display_is_short() {
        let id = header().id();
        let s = id.to_string();
        assert!(s.starts_with("0x"));
        assert!(s.len() < 25);
    }

    #[test]
    fn trivial_difficulty_always_met() {
        let mut h = header();
        h.difficulty = Difficulty::from_u64(1);
        assert!(h.meets_target());
    }
}
