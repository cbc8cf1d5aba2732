//! Merkle trees over block records.
//!
//! SmartCrowd blocks organize their ω detection results "based on the Merkle
//! tree structure like the transaction organization in Bitcoin" (Fig. 2).
//! [`MerkleTree`] computes the root committed in each block header and
//! produces logarithmic inclusion proofs so lightweight detectors (§V-B) can
//! check that their report landed in a confirmed block without storing the
//! chain.

use crate::sha256::{sha256, sha256d, Sha256};
use crate::Digest;

/// Domain-separation prefixes guard against leaf/interior second-preimage
/// splices (CVE-2012-2459-style mutations).
const LEAF_PREFIX: u8 = 0x00;
const NODE_PREFIX: u8 = 0x01;

/// A Merkle tree committed over an ordered list of record hashes.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::merkle::MerkleTree;
///
/// let leaves = vec![b"r1".to_vec(), b"r2".to_vec(), b"r3".to_vec()];
/// let tree = MerkleTree::from_leaves(leaves.iter().map(|l| l.as_slice()));
/// let proof = tree.proof(1).unwrap();
/// assert!(proof.verify(b"r2", &tree.root()));
/// assert!(!proof.verify(b"r1", &tree.root()));
/// ```
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// levels[0] = leaf hashes, last level = [root].
    levels: Vec<Vec<Digest>>,
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

    /// Builds a tree from precomputed leaf digests.
    pub fn from_leaf_hashes(leaf_hashes: Vec<Digest>) -> Self {
        let mut levels = Vec::new();
        let mut prev = leaf_hashes;
        while prev.len() > 1 {
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                // Odd node pairs with itself, Bitcoin-style.
                let right = pair.get(1).unwrap_or(&pair[0]);
                next.push(hash_node(&pair[0], right));
            }
            levels.push(std::mem::replace(&mut prev, next));
        }
        levels.push(prev);
        MerkleTree { levels }
    }

    /// The number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map(Vec::len).unwrap_or(0)
    }

    /// Returns `true` for a tree with no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The Merkle root (a fixed sentinel for the empty tree).
    pub fn root(&self) -> Digest {
        match self.levels.last().and_then(|l| l.first()) {
            Some(root) => *root,
            None => empty_root(),
        }
    }

    /// Builds an inclusion proof for the leaf at `index`.
    ///
    /// Returns `None` when `index` is out of range.
    pub fn proof(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut path = Vec::new();
        let mut i = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling_index = i ^ 1;
            let sibling = *level.get(sibling_index).unwrap_or(&level[i]);
            let side = if i.is_multiple_of(2) {
                Side::Right
            } else {
                Side::Left
            };
            path.push((side, sibling));
            i /= 2;
        }
        Some(MerkleProof { path })
    }
}

/// Which side a proof sibling attaches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// Sibling is hashed on the left.
    Left,
    /// Sibling is hashed on the right.
    Right,
}

/// A Merkle inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    path: Vec<(Side, Digest)>,
}

impl MerkleProof {
    /// The proof depth (log₂ of the tree width, rounded up).
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Recomputes the root from `leaf_data` and compares with `expected`.
    pub fn verify(&self, leaf_data: &[u8], expected: &Digest) -> bool {
        self.compute_root(leaf_data) == *expected
    }

    /// Recomputes the root implied by this proof for `leaf_data`.
    pub(crate) fn compute_root(&self, leaf_data: &[u8]) -> Digest {
        let mut acc = hash_leaf(leaf_data);
        for (side, sibling) in &self.path {
            acc = match side {
                Side::Left => hash_node(sibling, &acc),
                Side::Right => hash_node(&acc, sibling),
            };
        }
        acc
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
        assert!(t.is_empty());
        assert_eq!(t.root(), empty_root());
        assert!(t.proof(0).is_none());
    }

    #[test]
    fn single_leaf() {
        let (ls, t) = tree(1);
        assert_eq!(t.len(), 1);
        let p = t.proof(0).unwrap();
        assert_eq!(p.depth(), 0);
        assert!(p.verify(&ls[0], &t.root()));
    }

    #[test]
    fn all_proofs_verify_for_sizes_1_through_17() {
        for n in 1..=17 {
            let (ls, t) = tree(n);
            for (i, leaf) in ls.iter().enumerate() {
                let p = t.proof(i).unwrap_or_else(|| panic!("proof {i}/{n}"));
                assert!(p.verify(leaf, &t.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf() {
        let (ls, t) = tree(8);
        let p = t.proof(3).unwrap();
        assert!(p.verify(&ls[3], &t.root()));
        assert!(!p.verify(&ls[4], &t.root()));
        assert!(!p.verify(b"forged", &t.root()));
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
    fn out_of_range_proof_is_none() {
        let (_, t) = tree(5);
        assert!(t.proof(5).is_none());
        assert!(t.proof(usize::MAX).is_none());
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
