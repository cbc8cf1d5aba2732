//! Arithmetic in the secp256k1 scalar field **F_n** (the group order).
//!
//! Scalars are private keys, ECDSA nonces, and the `r`/`s` components of
//! every SmartCrowd signature (`P_Sign`, `D†_Sign`, `D*_Sign`; Eq. 2, 4, 5).

use crate::error::CryptoError;
use crate::u256::{sub_mod, U256};
use std::fmt;

/// The secp256k1 group order
/// `n = 0xFFFFFFFF FFFFFFFF FFFFFFFF FFFFFFFE BAAEDCE6 AF48A03B BFD25E8C D0364141`.
pub const N_HEX: &str = "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141";

/// `n` as little-endian limbs.
const N: U256 = U256([
    0xBFD2_5E8C_D036_4141,
    0xBAAE_DCE6_AF48_A03B,
    0xFFFF_FFFF_FFFF_FFFE,
    0xFFFF_FFFF_FFFF_FFFF,
]);

/// `⌊n/2⌋`: scalars above it are "high".
const HALF_N: U256 = U256([
    0xDFE9_2F46_681B_20A0,
    0x5D57_6E73_57A4_501D,
    0xFFFF_FFFF_FFFF_FFFF,
    0x7FFF_FFFF_FFFF_FFFF,
]);

/// The fold constant `2^256 mod n = 2^256 − n` (129 bits).
const FOLD: U256 = U256([0x402D_A173_2FC9_BEBF, 0x4551_2319_50B7_5FC4, 1, 0]);

/// `v mod n` for any 256-bit `v` (one subtraction suffices: `2^256 < 2n`).
fn reduce(v: U256) -> U256 {
    if v >= N {
        v.wrapping_sub(&N)
    } else {
        v
    }
}

/// Reduces a 512-bit value (eight little-endian limbs) modulo `n`. A
/// signature costs about five scalar operations, so this is the plain fold
/// loop rather than anything specialised.
fn reduce_wide(wide: [u64; 8]) -> U256 {
    let mut lo = U256::from_limbs([wide[0], wide[1], wide[2], wide[3]]);
    let mut hi = U256::from_limbs([wide[4], wide[5], wide[6], wide[7]]);
    // x = hi*2^256 + lo ≡ hi*FOLD + lo (mod n); iterate until hi vanishes.
    while !hi.is_zero() {
        let prod = hi.mul_wide(&FOLD);
        let prod_lo = U256::from_limbs([prod[0], prod[1], prod[2], prod[3]]);
        let prod_hi = U256::from_limbs([prod[4], prod[5], prod[6], prod[7]]);
        let (sum, carry) = prod_lo.overflowing_add(&lo);
        lo = sum;
        hi = prod_hi.wrapping_add(&U256::from_u64(carry as u64));
    }
    reduce(lo)
}

/// A scalar modulo the secp256k1 group order, always normalized to `[0, n)`.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::scalar::Scalar;
///
/// let a = Scalar::from_u64(10);
/// let inv = a.invert();
/// assert_eq!(a.mul(&inv), Scalar::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(U256);

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar(U256::ZERO);
    /// The scalar one.
    pub const ONE: Scalar = Scalar(U256::ONE);

    /// The group order `n`.
    pub fn order() -> U256 {
        N
    }

    /// Creates a scalar from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Scalar(U256::from_u64(v))
    }

    /// Creates a scalar from a `U256`, reducing modulo `n`.
    pub fn from_u256_reduced(v: U256) -> Self {
        Scalar(reduce(v))
    }

    /// Parses a canonical (already `< n`) big-endian encoding. Zero is
    /// permitted; use [`Scalar::from_be_bytes_nonzero`] for key material.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::ScalarOutOfRange`] when the value is `≥ n`.
    pub fn from_be_bytes(b: &[u8; 32]) -> Result<Self, CryptoError> {
        let v = U256::from_be_bytes(b);
        if v >= N {
            return Err(CryptoError::ScalarOutOfRange);
        }
        Ok(Scalar(v))
    }

    /// Parses a canonical non-zero scalar (valid private key or nonce).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::ScalarOutOfRange`] when the value is zero
    /// or `≥ n`.
    pub fn from_be_bytes_nonzero(b: &[u8; 32]) -> Result<Self, CryptoError> {
        let s = Self::from_be_bytes(b)?;
        if s.is_zero() {
            return Err(CryptoError::ScalarOutOfRange);
        }
        Ok(s)
    }

    /// Interprets a 32-byte message digest as a scalar, reducing modulo `n`
    /// (the ECDSA `e = H(m) mod n` step).
    pub fn from_digest(digest: &[u8; 32]) -> Self {
        Scalar(reduce(U256::from_be_bytes(digest)))
    }

    /// Big-endian canonical encoding.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// The underlying integer.
    pub fn to_u256(&self) -> U256 {
        self.0
    }

    /// Returns `true` for the zero scalar.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Returns `true` when the scalar exceeds `n/2` (a "high-s" signature
    /// component that [`crate::ecdsa`] normalizes away, as Ethereum does).
    pub fn is_high(&self) -> bool {
        self.0 > HALF_N
    }

    /// Scalar addition mod `n`.
    pub fn add(&self, rhs: &Self) -> Self {
        let (sum, carry) = self.0.overflowing_add(&rhs.0);
        // A carried 2^256 re-enters as FOLD; FOLD < 2^129 and the wrapped
        // sum is below n, so that addition cannot carry again.
        Scalar(reduce(if carry { sum.wrapping_add(&FOLD) } else { sum }))
    }

    /// Scalar subtraction mod `n`.
    pub fn sub(&self, rhs: &Self) -> Self {
        Scalar(U256(sub_mod(&self.0 .0, &rhs.0 .0, &N.0)))
    }

    /// Scalar multiplication mod `n`.
    pub fn mul(&self, rhs: &Self) -> Self {
        Scalar(reduce_wide(self.0.mul_wide(&rhs.0)))
    }

    /// Scalar negation mod `n`.
    pub fn neg(&self) -> Self {
        if self.is_zero() {
            *self
        } else {
            Scalar(N.wrapping_sub(&self.0))
        }
    }

    /// Multiplicative inverse mod `n` (zero maps to zero).
    pub fn invert(&self) -> Self {
        Scalar(self.0.inv_mod(&N))
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({})", self.0.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_published_hex() {
        assert_eq!(N, U256::from_hex(N_HEX).unwrap());
        assert_eq!(FOLD, U256::MAX.wrapping_sub(&N).wrapping_add(&U256::ONE));
        assert_eq!(HALF_N, N.shr(1));
    }

    #[test]
    fn order_matches_published_constant() {
        assert_eq!(
            Scalar::order().to_hex(),
            "0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"
        );
    }

    #[test]
    fn add_wraps_at_n() {
        let n_minus_1 = Scalar::from_u256_reduced(Scalar::order().wrapping_sub(&U256::ONE));
        assert_eq!(n_minus_1.add(&Scalar::ONE), Scalar::ZERO);
    }

    #[test]
    fn inverse_roundtrip() {
        for v in [1u64, 2, 3, 0xdeadbeef, u64::MAX] {
            let s = Scalar::from_u64(v);
            assert_eq!(s.mul(&s.invert()), Scalar::ONE, "v = {v}");
        }
    }

    #[test]
    fn invert_n_minus_1_is_self() {
        // n-1 ≡ -1 and (-1)·(-1) = 1, so (n-1)⁻¹ = n-1.
        let n_minus_1 = Scalar::from_u256_reduced(Scalar::order().wrapping_sub(&U256::ONE));
        assert_eq!(n_minus_1.invert(), n_minus_1);
    }

    #[test]
    fn canonical_parse_rejects_out_of_range() {
        let n_bytes = Scalar::order().to_be_bytes();
        assert_eq!(
            Scalar::from_be_bytes(&n_bytes),
            Err(CryptoError::ScalarOutOfRange)
        );
        assert_eq!(
            Scalar::from_be_bytes_nonzero(&[0u8; 32]),
            Err(CryptoError::ScalarOutOfRange)
        );
        let ok = Scalar::order().wrapping_sub(&U256::ONE).to_be_bytes();
        assert!(Scalar::from_be_bytes_nonzero(&ok).is_ok());
    }

    #[test]
    fn digest_reduction() {
        // A digest numerically >= n must be reduced, not rejected.
        let digest = U256::MAX.to_be_bytes();
        let s = Scalar::from_digest(&digest);
        assert!(s.to_u256() < Scalar::order());
        // MAX mod n = MAX - n (since n > MAX/2).
        assert_eq!(s.to_u256(), U256::MAX.wrapping_sub(&Scalar::order()));
    }

    #[test]
    fn high_low_split() {
        assert!(!Scalar::ONE.is_high());
        let n_minus_1 = Scalar::from_u256_reduced(Scalar::order().wrapping_sub(&U256::ONE));
        assert!(n_minus_1.is_high());
        let half = Scalar::from_u256_reduced(Scalar::order().shr(1));
        assert!(!half.is_high());
        assert!(half.add(&Scalar::ONE).is_high());
    }

    #[test]
    fn neg_roundtrip() {
        let s = Scalar::from_u64(42);
        assert_eq!(s.add(&s.neg()), Scalar::ZERO);
        assert_eq!(s.neg().neg(), s);
    }
}
