//! Hash maps and sets keyed by ids: digests, block ids, SRA ids and
//! addresses, or tuples of them.
//!
//! Every such key is already the output of a hash (or a slice of one),
//! so SipHash's rounds, most of the cost of a lookup, buy it nothing.
//! [`DigestState`] instead folds each 8-byte word of the key through one
//! 64×64→128-bit multiply with a per-map key drawn from [`RandomState`].
//! It stays keyed because a peer picks the ids it sends (it can grind a
//! record's nonce): with a fixed or identity hash, it could choose ids
//! that share a bucket and make every lookup scan a chain. It folds every
//! word because an id's bytes need not be uniform in any one place (an
//! address is a digest's tail, and a crafted id can fix any prefix).

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` keyed by an id, hashed with [`DigestState`].
pub type DigestMap<K, V> = HashMap<K, V, DigestState>;

/// A `HashSet` of ids, hashed with [`DigestState`].
pub type DigestSet<K> = HashSet<K, DigestState>;

/// Seeds the accumulator apart from the multiplier, so a word equal to
/// the key does not zero the first product, and is the multiplier of the
/// final fold (first 64 bits of π's fraction).
const SEED: u64 = 0x243f_6a88_85a3_08d3;

/// The [`BuildHasher`] of [`DigestMap`] and [`DigestSet`]: one 64-bit
/// key per map, drawn from the standard library's [`RandomState`].
#[derive(Clone)]
pub struct DigestState {
    key: u64,
}

impl Default for DigestState {
    fn default() -> Self {
        DigestState {
            key: RandomState::new().hash_one(SEED),
        }
    }
}

impl fmt::Debug for DigestState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DigestState").finish_non_exhaustive()
    }
}

impl BuildHasher for DigestState {
    type Hasher = DigestHasher;

    #[inline]
    fn build_hasher(&self) -> DigestHasher {
        DigestHasher {
            key: self.key,
            acc: self.key ^ SEED,
        }
    }
}

/// The hasher [`DigestState`] builds: every 8-byte word of the key is
/// xored into the accumulator, which is then multiplied by the map's key
/// and folded (low half xor high half of the 128-bit product). `finish`
/// folds once more, by a constant, so that the last word's high bits
/// reach the low bits a table indexes by.
#[derive(Debug)]
pub struct DigestHasher {
    key: u64,
    acc: u64,
}

#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    let (low, high) = (product as u64, (product >> 64) as u64);
    low ^ high
}

impl Hasher for DigestHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(buf));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.acc = folded_multiply(self.acc ^ word, self.key);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        folded_multiply(self.acc, SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Digest;

    /// Distinct values among the low 12 bits of each digest's hash.
    fn low_bits_spread(digests: &[Digest]) -> usize {
        let set: DigestSet<Digest> = DigestSet::default();
        let buckets: HashSet<u64> = digests
            .iter()
            .map(|d| set.hasher().hash_one(d) & 0xfff)
            .collect();
        buckets.len()
    }

    #[test]
    fn ids_that_differ_in_one_word_spread_over_the_low_bits() {
        // 4 096 values in 12 low bits: a uniform hash fills ≈ 2 590
        // buckets; a hash that reads only a prefix, or the identity,
        // fills 1 for one of the two groups.
        let vary = |at: usize| -> Vec<Digest> {
            (0..4096u64)
                .map(|i| {
                    let mut d = [0x5a; 32];
                    d[at..at + 8].copy_from_slice(&i.to_be_bytes());
                    d
                })
                .collect()
        };
        for (group, at) in [("last 8 bytes", 24), ("first 8 bytes", 0)] {
            let spread = low_bits_spread(&vary(at));
            assert!(
                spread >= 2000,
                "{group}: {spread} distinct low-12-bit values"
            );
        }
    }

    #[test]
    fn each_map_has_its_own_key() {
        let digest: Digest = [7; 32];
        let (a, b) = (DigestState::default(), DigestState::default());
        assert_ne!(a.hash_one(digest), b.hash_one(digest));
        // A clone keeps its key: a cloned map must find its entries.
        assert_eq!(a.hash_one(digest), a.clone().hash_one(digest));
    }
}
