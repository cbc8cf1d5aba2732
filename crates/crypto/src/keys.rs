//! Long-lived key material for SmartCrowd entities.
//!
//! Every IoT entity — provider, detector, consumer — holds a long-lived
//! `(pk, sk)` pair (§V-A). [`KeyPair`] bundles both halves; derivation from
//! a seed keeps tests and simulations deterministic.

use crate::address::Address;
use crate::ecdsa::{self, Signature};
use crate::error::CryptoError;
use crate::field::FieldElement;
use crate::keccak::keccak256;
use crate::point::{self, Point};
use crate::scalar::Scalar;
use std::fmt;

/// A secp256k1 private key (a validated non-zero scalar).
///
/// The `Debug` impl never prints the scalar.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PrivateKey(Scalar);

impl PrivateKey {
    /// Creates a private key from 32 bytes of key material.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::ScalarOutOfRange`] when the bytes encode zero
    /// or a value `≥ n`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Result<Self, CryptoError> {
        Scalar::from_be_bytes_nonzero(bytes).map(PrivateKey)
    }

    /// Derives a private key deterministically from an arbitrary seed by
    /// iterated Keccak-256 until a valid scalar appears (the first digest
    /// is valid except with probability ≈ 2⁻¹²⁸).
    pub fn from_seed(seed: &[u8]) -> Self {
        let mut digest = keccak256(seed);
        loop {
            if let Ok(s) = Scalar::from_be_bytes_nonzero(&digest) {
                return PrivateKey(s);
            }
            digest = keccak256(&digest);
        }
    }

    /// Computes the corresponding public key.
    pub(crate) fn public_key(&self) -> PublicKey {
        match Point::mul_generator(&self.0) {
            Point::Affine { x, y } => PublicKey { x, y },
            // k·G is infinity only for k ≡ 0 (mod n), which a private key
            // never holds.
            Point::Infinity => PublicKey {
                x: FieldElement::ZERO,
                y: FieldElement::ZERO,
            },
        }
    }

    /// Signs a 32-byte digest (RFC 6979 deterministic ECDSA).
    pub fn sign(&self, digest: &[u8; 32]) -> Signature {
        ecdsa::sign(&self.0, digest)
    }
}

impl fmt::Debug for PrivateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PrivateKey(<redacted>)")
    }
}

/// A secp256k1 public key: the affine coordinates of a validated finite
/// curve point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey {
    x: FieldElement,
    y: FieldElement,
}

impl PublicKey {
    /// Wraps a curve point as a public key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPublicKey`] for infinity and
    /// [`CryptoError::PointNotOnCurve`] for an off-curve point.
    pub fn from_point(p: Point) -> Result<Self, CryptoError> {
        let Point::Affine { x, y } = p else {
            return Err(CryptoError::InvalidPublicKey);
        };
        if !p.is_on_curve() {
            return Err(CryptoError::PointNotOnCurve);
        }
        Ok(PublicKey { x, y })
    }

    /// The underlying curve point.
    pub fn point(&self) -> Point {
        Point::Affine {
            x: self.x,
            y: self.y,
        }
    }

    /// SEC1 uncompressed encoding (65 bytes).
    pub fn to_uncompressed(&self) -> [u8; 65] {
        point::sec1_uncompressed(&self.x, &self.y)
    }

    /// SEC1 compressed encoding (33 bytes).
    pub fn to_compressed(&self) -> [u8; 33] {
        point::sec1_compressed(&self.x, &self.y)
    }

    /// Verifies a signature over a 32-byte digest.
    pub fn verify(&self, digest: &[u8; 32], sig: &Signature) -> bool {
        ecdsa::verify(&self.point(), digest, sig).is_ok()
    }

    /// Derives the Ethereum-style 20-byte address: the low 20 bytes of
    /// `keccak256(x || y)` — the wallet address `W` of Eq. 3.
    pub fn address(&self) -> Address {
        let enc = self.to_uncompressed();
        let digest = keccak256(&enc[1..]); // skip the 0x04 tag
        let mut out = [0u8; 20];
        out.copy_from_slice(&digest[12..]);
        Address::from_bytes(out)
    }
}

/// A private/public key bundle for one SmartCrowd entity.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::keys::KeyPair;
/// use smartcrowd_crypto::keccak::keccak256;
///
/// let provider = KeyPair::from_seed(b"provider-0");
/// let digest = keccak256(b"SRA announcement");
/// let sig = provider.sign(&digest);
/// assert!(provider.public().verify(&digest, &sig));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct KeyPair {
    private: PrivateKey,
    public: PublicKey,
}

impl KeyPair {
    /// Builds a keypair from an existing private key.
    pub fn from_private(private: PrivateKey) -> Self {
        KeyPair {
            private,
            public: private.public_key(),
        }
    }

    /// Deterministic keypair from an arbitrary seed (see
    /// [`PrivateKey::from_seed`]).
    pub fn from_seed(seed: &[u8]) -> Self {
        Self::from_private(PrivateKey::from_seed(seed))
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The wallet address of the public half.
    pub fn address(&self) -> Address {
        self.public.address()
    }

    /// Signs a 32-byte digest.
    pub fn sign(&self, digest: &[u8; 32]) -> Signature {
        self.private.sign(digest)
    }
}

/// Recovers the signer's public key from a signature (Ethereum `ecrecover`).
///
/// # Errors
///
/// Propagates [`crate::ecdsa::recover`] failures.
pub fn recover_public_key(digest: &[u8; 32], sig: &Signature) -> Result<PublicKey, CryptoError> {
    PublicKey::from_point(ecdsa::recover(digest, sig)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak::keccak256;

    #[test]
    fn seed_derivation_is_deterministic() {
        let a = KeyPair::from_seed(b"detector-3");
        let b = KeyPair::from_seed(b"detector-3");
        assert_eq!(a.address(), b.address());
        let c = KeyPair::from_seed(b"detector-4");
        assert_ne!(a.address(), c.address());
    }

    #[test]
    fn private_key_rejects_zero_and_order() {
        assert!(PrivateKey::from_be_bytes(&[0u8; 32]).is_err());
        let n_bytes = Scalar::order().to_be_bytes();
        assert!(PrivateKey::from_be_bytes(&n_bytes).is_err());
        let mut one = [0u8; 32];
        one[31] = 1;
        assert!(PrivateKey::from_be_bytes(&one).is_ok());
    }

    #[test]
    fn well_known_address_of_key_one() {
        // Private key 0x...01 → address 7e5f4552091a69125d5dfcb7b8c2659029395bdf
        let mut one = [0u8; 32];
        one[31] = 1;
        let kp = KeyPair::from_private(PrivateKey::from_be_bytes(&one).unwrap());
        assert_eq!(
            kp.address().to_string(),
            "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"
        );
    }

    #[test]
    fn well_known_address_of_key_two() {
        // Private key 0x...02 → address 2b5ad5c4795c026514f8317c7a215e218dccd6cf
        let mut two = [0u8; 32];
        two[31] = 2;
        let kp = KeyPair::from_private(PrivateKey::from_be_bytes(&two).unwrap());
        assert_eq!(
            kp.address().to_string(),
            "0x2b5ad5c4795c026514f8317c7a215e218dccd6cf"
        );
    }

    #[test]
    fn sign_verify_through_keypair() {
        let kp = KeyPair::from_seed(b"entity");
        let digest = keccak256(b"detection report");
        let sig = kp.sign(&digest);
        assert!(kp.public().verify(&digest, &sig));
        assert!(!kp.public().verify(&keccak256(b"other"), &sig));
    }

    #[test]
    fn recover_matches_public_key() {
        let kp = KeyPair::from_seed(b"recover-me");
        let digest = keccak256(b"message");
        let sig = kp.sign(&digest);
        let recovered = recover_public_key(&digest, &sig).unwrap();
        assert_eq!(recovered, *kp.public());
        assert_eq!(recovered.address(), kp.address());
    }

    #[test]
    fn public_key_rejects_infinity() {
        assert!(PublicKey::from_point(Point::Infinity).is_err());
    }

    #[test]
    fn debug_never_leaks_private_scalar() {
        let s = format!("{:?}", PrivateKey::from_seed(b"secret"));
        assert!(s.contains("redacted"));
        assert!(!s.contains("0x"));
    }
}
