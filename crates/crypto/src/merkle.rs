//! Merkle trees over block records.
//!
//! SmartCrowd blocks organize their ω detection results "based on the Merkle
//! tree structure like the transaction organization in Bitcoin" (Fig. 2).
//! [`MerkleTree`] computes the root committed in each block header.

use crate::sha256::{sha256, sha256d, Sha256};
use crate::Digest;

/// Domain-separation prefixes guard against leaf/interior second-preimage
/// splices (CVE-2012-2459-style mutations).
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// The Merkle root committed over an ordered list of record hashes.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::merkle::MerkleTree;
///
/// let leaves = vec![b"r1".to_vec(), b"r2".to_vec(), b"r3".to_vec()];
/// let tree = MerkleTree::from_leaves(leaves.iter().map(|l| l.as_slice()));
/// let swapped = MerkleTree::from_leaves([b"r2", b"r1", b"r3"].map(|l| l.as_slice()));
/// assert_ne!(tree.root(), swapped.root());
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    root: Digest,
}

/// The root committed for an empty record list.
pub(crate) fn empty_root() -> Digest {
    sha256d(b"smartcrowd-empty-merkle")
}

fn hash_leaf(data: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(&[LEAF_PREFIX]);
    hasher.update(data);
    sha256(&hasher.finalize())
}

/// The domain-separated leaf digest of one serialized record.
///
/// Exposed so callers can precompute (and memoize) leaves and assemble
/// the tree via [`MerkleTree::from_leaf_hashes`]; the result is
/// identical to what [`MerkleTree::from_leaves`] computes internally.
pub fn leaf_hash(data: &[u8]) -> Digest {
    hash_leaf(data)
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut buf = [0u8; 65];
    buf[0] = NODE_PREFIX;
    buf[1..33].copy_from_slice(left);
    buf[33..65].copy_from_slice(right);
    sha256d(&buf)
}

impl MerkleTree {
    /// Builds a tree over the serialized records, in order.
    pub fn from_leaves<'a>(leaves: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let leaf_hashes: Vec<Digest> = leaves.into_iter().map(hash_leaf).collect();
        Self::from_leaf_hashes(leaf_hashes)
    }

    /// Builds a tree from precomputed leaf digests, folding each level in
    /// place into the next.
    pub fn from_leaf_hashes(mut level: Vec<Digest>) -> Self {
        if level.is_empty() {
            return MerkleTree { root: empty_root() };
        }
        while level.len() > 1 {
            let width = level.len().div_ceil(2);
            for i in 0..width {
                // Odd node pairs with itself, Bitcoin-style.
                let left = level[2 * i];
                let right = level.get(2 * i + 1).copied().unwrap_or(left);
                level[i] = hash_node(&left, &right);
            }
            level.truncate(width);
        }
        MerkleTree { root: level[0] }
    }

    /// The Merkle root (a fixed sentinel for the empty tree).
    pub fn root(&self) -> Digest {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("record-{i}").into_bytes()).collect()
    }

    fn tree(n: usize) -> (Vec<Vec<u8>>, MerkleTree) {
        let ls = leaves(n);
        let t = MerkleTree::from_leaves(ls.iter().map(|l| l.as_slice()));
        (ls, t)
    }

    #[test]
    fn empty_tree_has_sentinel_root() {
        let t = MerkleTree::from_leaves(std::iter::empty());
        assert_eq!(t.root(), empty_root());
    }

    #[test]
    fn single_leaf() {
        // A one-leaf tree's root is the leaf digest itself.
        let (ls, t) = tree(1);
        assert_eq!(t.root(), hash_leaf(&ls[0]));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let (mut ls, t) = tree(6);
        let original = t.root();
        ls[2] = b"tampered".to_vec();
        let t2 = MerkleTree::from_leaves(ls.iter().map(|l| l.as_slice()));
        assert_ne!(t2.root(), original);
    }

    #[test]
    fn root_depends_on_order() {
        let ls = leaves(4);
        let t1 = MerkleTree::from_leaves(ls.iter().map(|l| l.as_slice()));
        let mut rev = ls.clone();
        rev.reverse();
        let t2 = MerkleTree::from_leaves(rev.iter().map(|l| l.as_slice()));
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A leaf whose bytes equal an interior-node encoding must not
        // produce the same hash as that interior node.
        let (ls, t) = tree(2);
        let l0 = hash_leaf(&ls[0]);
        let l1 = hash_leaf(&ls[1]);
        let mut interior_bytes = Vec::new();
        interior_bytes.extend_from_slice(&l0);
        interior_bytes.extend_from_slice(&l1);
        let as_leaf = MerkleTree::from_leaves([interior_bytes.as_slice()]);
        assert_ne!(as_leaf.root(), t.root());
    }

    #[test]
    fn odd_duplication_does_not_equal_real_duplicate() {
        // Tree of [a, b, c] duplicates c internally; a tree of [a, b, c, c]
        // must still produce the same root (Bitcoin semantics) — we document
        // the behaviour either way so the chain layer rejects duplicate
        // record ids before tree construction.
        let ls3 = leaves(3);
        let mut ls4 = ls3.clone();
        ls4.push(ls3[2].clone());
        let t3 = MerkleTree::from_leaves(ls3.iter().map(|l| l.as_slice()));
        let t4 = MerkleTree::from_leaves(ls4.iter().map(|l| l.as_slice()));
        assert_eq!(t3.root(), t4.root());
    }
}
