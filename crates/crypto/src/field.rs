//! Arithmetic in the secp256k1 base field **F_p**.
//!
//! `p = 2^256 − 2^32 − 977`, so `2^256 ≡ 2^32 + 977 (mod p)`: a 512-bit
//! product reduces by folding its high half into the low half twice with
//! that 33-bit constant, followed by one conditional subtraction. All of it
//! is specialised to `p`; the scalar field has its own engine in
//! [`crate::scalar`].

use crate::error::CryptoError;
use crate::u256::{adc, add4, mac, select4, sub4, sub_mod, Modulus62, U256};
use std::fmt;

/// The secp256k1 field prime `p = 2^256 − 2^32 − 977`.
pub const P_HEX: &str = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";

/// `p` as little-endian limbs.
const P: U256 = U256([
    0xFFFF_FFFE_FFFF_FC2F,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
    0xFFFF_FFFF_FFFF_FFFF,
]);

/// The fold constant `2^256 mod p = 2^32 + 977`.
const FOLD: u64 = 0x1_0000_03D1;

/// `p` for the inversion: `−FOLD + 2⁸·2²⁴⁸` in signed 62-bit limbs, and
/// `p⁻¹ mod 2⁶²` (`u256::tests::modulus62_constants` derives both).
pub(crate) const P_62: Modulus62 = Modulus62 {
    limbs: [-(FOLD as i64), 0, 0, 0, 256],
    inv62: 0x27C7_F6E2_2DDA_CACF,
};

/// `v mod p` for any 256-bit `v` (one subtraction suffices: `2^256 < 2p`).
#[inline(always)]
fn reduce(v: [u64; 4]) -> U256 {
    let (t, borrow) = sub4(&v, &P.0);
    U256(if borrow == 0 { t } else { v })
}

/// Reduces a 512-bit value (eight little-endian limbs) modulo `p`.
#[inline(always)]
fn reduce_wide(w: &[u64; 8]) -> U256 {
    // First fold: lo + hi·FOLD fits five limbs, the top one below 2^34.
    let (r0, c) = mac(w[0], w[4], FOLD, 0);
    let (r1, c) = mac(w[1], w[5], FOLD, c);
    let (r2, c) = mac(w[2], w[6], FOLD, c);
    let (r3, c) = mac(w[3], w[7], FOLD, c);
    // Second fold: the fifth limb times FOLD is below 2^67.
    let (r0, c) = mac(r0, c, FOLD, 0);
    let (r1, c) = adc(r1, 0, c);
    let (r2, c) = adc(r2, 0, c);
    let (r3, c) = adc(r3, 0, c);
    if c != 0 {
        // Carried out of 256 bits, so the wrapped sum is below 2^67 and
        // folding that last 2^256 in (`+ FOLD`) cannot carry again.
        let (r0, c) = adc(r0, FOLD, 0);
        let (r1, _) = adc(r1, 0, c);
        return U256([r0, r1, r2, r3]);
    }
    reduce([r0, r1, r2, r3])
}

/// The 512-bit square of `a`: ten limb products instead of sixteen (each
/// off-diagonal product is computed once and doubled).
#[inline(always)]
fn sqr_wide(a: &[u64; 4]) -> [u64; 8] {
    // Off-diagonal products a[i]·a[j], i < j.
    let (o1, c) = mac(0, a[0], a[1], 0);
    let (o2, c) = mac(0, a[0], a[2], c);
    let (o3, o4) = mac(0, a[0], a[3], c);
    let (o3, c) = mac(o3, a[1], a[2], 0);
    let (o4, o5) = mac(o4, a[1], a[3], c);
    let (o5, o6) = mac(o5, a[2], a[3], 0);
    // Double them …
    let o7 = o6 >> 63;
    let o6 = (o6 << 1) | (o5 >> 63);
    let o5 = (o5 << 1) | (o4 >> 63);
    let o4 = (o4 << 1) | (o3 >> 63);
    let o3 = (o3 << 1) | (o2 >> 63);
    let o2 = (o2 << 1) | (o1 >> 63);
    let o1 = o1 << 1;
    // … and add the diagonal squares.
    let (o0, c) = mac(0, a[0], a[0], 0);
    let (o1, c) = adc(o1, 0, c);
    let (o2, c) = mac(o2, a[1], a[1], c);
    let (o3, c) = adc(o3, 0, c);
    let (o4, c) = mac(o4, a[2], a[2], c);
    let (o5, c) = adc(o5, 0, c);
    let (o6, c) = mac(o6, a[3], a[3], c);
    let (o7, _) = adc(o7, 0, c);
    [o0, o1, o2, o3, o4, o5, o6, o7]
}

/// An element of the secp256k1 base field, always normalized to `[0, p)`.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::field::FieldElement;
///
/// let a = FieldElement::from_u64(3);
/// let b = FieldElement::from_u64(4);
/// assert_eq!(a.mul(&b), FieldElement::from_u64(12));
/// assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldElement(U256);

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement(U256::ZERO);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement(U256::ONE);

    /// The field prime `p`.
    pub fn prime() -> U256 {
        P
    }

    /// An element from limbs already known to be below `p` (curve
    /// constants).
    pub(crate) const fn from_limbs_unchecked(limbs: [u64; 4]) -> Self {
        FieldElement(U256(limbs))
    }

    /// Creates an element from a small integer.
    pub fn from_u64(v: u64) -> Self {
        FieldElement(U256::from_u64(v))
    }

    /// Creates an element from a `U256`, reducing modulo `p`.
    pub fn from_u256_reduced(v: U256) -> Self {
        FieldElement(reduce(v.0))
    }

    /// Parses a canonical (already `< p`) big-endian encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::FieldOutOfRange`] when the value is `≥ p`.
    pub fn from_be_bytes(b: &[u8; 32]) -> Result<Self, CryptoError> {
        let v = U256::from_be_bytes(b);
        if v >= P {
            return Err(CryptoError::FieldOutOfRange);
        }
        Ok(FieldElement(v))
    }

    /// Big-endian canonical encoding.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        self.0.to_be_bytes()
    }

    /// The underlying integer.
    pub fn to_u256(&self) -> U256 {
        self.0
    }

    /// Returns `true` for the zero element.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Returns `true` when the integer value is odd (used for compressed
    /// point parity).
    pub fn is_odd(&self) -> bool {
        self.0.bit(0)
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, rhs: &Self) -> Self {
        let (sum, carry) = add4(&self.0 .0, &rhs.0 .0);
        // a + b < 2p, so a + b − p is the answer whenever the sum reached
        // p; with a carry out, the wrapped difference is that same value.
        let (diff, borrow) = sub4(&sum, &P.0);
        FieldElement(U256(select4(carry | (borrow ^ 1), &diff, &sum)))
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, rhs: &Self) -> Self {
        FieldElement(U256(sub_mod(&self.0 .0, &rhs.0 .0, &P.0)))
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, rhs: &Self) -> Self {
        FieldElement(reduce_wide(&self.0.mul_wide(&rhs.0)))
    }

    /// Field squaring.
    #[inline]
    pub fn square(&self) -> Self {
        FieldElement(reduce_wide(&sqr_wide(&self.0 .0)))
    }

    /// `self^(2^n)`: `n` successive squarings.
    fn square_n(&self, n: usize) -> Self {
        let mut acc = *self;
        for _ in 0..n {
            acc = acc.square();
        }
        acc
    }

    /// Field negation.
    #[inline]
    pub fn neg(&self) -> Self {
        if self.is_zero() {
            *self
        } else {
            FieldElement(P.wrapping_sub(&self.0))
        }
    }

    /// Multiplicative inverse (zero maps to zero).
    pub fn invert(&self) -> Self {
        FieldElement(self.0.inv_mod(&P_62))
    }

    /// Exponentiation by square-and-multiply.
    pub fn pow(&self, e: U256) -> Self {
        let mut acc = FieldElement::ONE;
        for i in (0..e.bits()).rev() {
            acc = acc.square();
            if e.bit(i) {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Square root, if one exists. Because `p ≡ 3 (mod 4)`, the candidate is
    /// `a^{(p+1)/4}`; `None` when `a` is a non-residue.
    ///
    /// `(p+1)/4` in binary is 223 ones, a zero, 22 ones, four zeros, two
    /// ones and two zeros, so the power is an addition chain over
    /// `x_k = a^(2^k − 1)`: 253 squarings and 13 multiplications.
    pub fn sqrt(&self) -> Option<Self> {
        let x2 = self.square().mul(self);
        let x3 = x2.square().mul(self);
        let x6 = x3.square_n(3).mul(&x3);
        let x9 = x6.square_n(3).mul(&x3);
        let x11 = x9.square_n(2).mul(&x2);
        let x22 = x11.square_n(11).mul(&x11);
        let x44 = x22.square_n(22).mul(&x22);
        let x88 = x44.square_n(44).mul(&x44);
        let x176 = x88.square_n(88).mul(&x88);
        let x220 = x176.square_n(44).mul(&x44);
        let x223 = x220.square_n(3).mul(&x3);
        let candidate = x223.square_n(23).mul(&x22).square_n(6).mul(&x2).square_n(2);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }
}

impl fmt::Debug for FieldElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fe({})", self.0.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(hex: &str) -> FieldElement {
        FieldElement::from_u256_reduced(U256::from_hex(hex).unwrap())
    }

    #[test]
    fn prime_has_expected_value() {
        // p = 2^256 - 2^32 - 977
        let p = FieldElement::prime();
        let reconstructed = U256::MAX
            .wrapping_sub(&U256::from_u64((1u64 << 32) + 977))
            .wrapping_add(&U256::ONE);
        assert_eq!(p, reconstructed);
    }

    #[test]
    fn add_wraps_at_p() {
        let p_minus_1 =
            FieldElement::from_u256_reduced(FieldElement::prime().wrapping_sub(&U256::ONE));
        assert_eq!(p_minus_1.add(&FieldElement::ONE), FieldElement::ZERO);
        assert_eq!(p_minus_1.add(&FieldElement::from_u64(2)), FieldElement::ONE);
    }

    #[test]
    fn sub_wraps_below_zero() {
        let a = FieldElement::from_u64(1);
        let b = FieldElement::from_u64(2);
        let p_minus_1 = FieldElement::prime().wrapping_sub(&U256::ONE);
        assert_eq!(a.sub(&b).to_u256(), p_minus_1);
    }

    #[test]
    fn mul_matches_known_square() {
        // (2^255) mod p squared, cross-checked through pow.
        let a = fe("8000000000000000000000000000000000000000000000000000000000000000");
        assert_eq!(a.mul(&a), a.pow(U256::from_u64(2)));
    }

    #[test]
    fn inverse_roundtrip() {
        let samples = [
            fe("2"),
            fe("deadbeef"),
            fe("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2e"),
            fe("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"),
        ];
        for a in samples {
            assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
        }
    }

    #[test]
    fn invert_zero_is_zero() {
        assert_eq!(FieldElement::ZERO.invert(), FieldElement::ZERO);
    }

    #[test]
    fn neg_properties() {
        let a = fe("123456789abcdef");
        assert_eq!(a.add(&a.neg()), FieldElement::ZERO);
        assert_eq!(FieldElement::ZERO.neg(), FieldElement::ZERO);
    }

    #[test]
    fn sqrt_of_square_roundtrips() {
        let a = fe("abcdef0123456789");
        let sq = a.square();
        let root = sq.sqrt().expect("square must have a root");
        assert!(root == a || root == a.neg());
    }

    #[test]
    fn sqrt_of_nonresidue_is_none() {
        // Curve equation: generator y² = x³+7; pick x with no valid y.
        // x = 5: 5³+7 = 132; check behaviour either way but assert
        // consistency of the sqrt contract.
        let v = FieldElement::from_u64(132);
        match v.sqrt() {
            Some(r) => assert_eq!(r.square(), v),
            None => {
                // Verify it truly is a non-residue via Euler's criterion.
                let e = FieldElement::prime().wrapping_sub(&U256::ONE).shr(1);
                assert_ne!(v.pow(e), FieldElement::ONE);
            }
        }
    }

    #[test]
    fn canonical_encoding_rejects_ge_p() {
        let bytes = U256::MAX.to_be_bytes();
        assert_eq!(
            FieldElement::from_be_bytes(&bytes),
            Err(CryptoError::FieldOutOfRange)
        );
        let p_bytes = FieldElement::prime().to_be_bytes();
        assert_eq!(
            FieldElement::from_be_bytes(&p_bytes),
            Err(CryptoError::FieldOutOfRange)
        );
        let ok = FieldElement::prime().wrapping_sub(&U256::ONE).to_be_bytes();
        assert!(FieldElement::from_be_bytes(&ok).is_ok());
    }

    #[test]
    fn constants_match_published_hex() {
        assert_eq!(P, U256::from_hex(P_HEX).unwrap());
        // FOLD = 2^256 mod p = 2^256 − p.
        assert_eq!(
            U256::from_u64(FOLD),
            U256::MAX.wrapping_sub(&P).wrapping_add(&U256::ONE)
        );
    }

    #[test]
    fn reduce_wide_edges() {
        // (p−1)² ≡ 1 since p−1 ≡ −1.
        let p_minus_1 = P.wrapping_sub(&U256::ONE);
        assert_eq!(reduce_wide(&p_minus_1.mul_wide(&p_minus_1)), U256::ONE);
        assert_eq!(reduce_wide(&sqr_wide(&p_minus_1.0)), U256::ONE);
        // 2^512 − 1, the largest input: the first fold leaves a fifth limb
        // of FOLD and the second fold carries out of 256 bits.
        // 2^512 ≡ FOLD², so the result is FOLD² − 1.
        let fold = FieldElement::from_u64(FOLD);
        assert_eq!(
            reduce_wide(&[u64::MAX; 8]),
            fold.mul(&fold).sub(&FieldElement::ONE).to_u256()
        );
    }

    #[test]
    fn sqr_wide_matches_mul_wide() {
        for a in [
            U256::ZERO,
            U256::ONE,
            U256::MAX,
            P.wrapping_sub(&U256::ONE),
            U256([u64::MAX, 0, u64::MAX, 0]),
            U256([0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210, 7, 1 << 63]),
        ] {
            assert_eq!(sqr_wide(&a.0), a.mul_wide(&a), "a = {a}");
        }
    }

    #[test]
    fn sqrt_chain_matches_generic_power() {
        let exp = P.wrapping_add(&U256::ONE).shr(2);
        for v in [2u64, 3, 4, 5, 7, 132, 0xdead_beef] {
            let a = FieldElement::from_u64(v);
            let reference = Some(a.pow(exp)).filter(|c| c.square() == a);
            assert_eq!(a.sqrt(), reference, "v = {v}");
        }
        assert_eq!(FieldElement::ZERO.sqrt(), Some(FieldElement::ZERO));
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(p-1) = 1 for a != 0.
        let a = fe("1234567");
        let e = FieldElement::prime().wrapping_sub(&U256::ONE);
        assert_eq!(a.pow(e), FieldElement::ONE);
    }
}

#[cfg(test)]
mod inv_tests {
    use super::*;

    #[test]
    fn inverse_matches_fermat() {
        let samples = [
            U256::ONE,
            U256::from_u64(2),
            U256::from_u64(3),
            U256::from_u64(0xdeadbeef),
            U256::ONE.shl(128),
            U256::ONE.shl(255),
            P.wrapping_sub(&U256::ONE),
            P.wrapping_sub(&U256::from_u64(12345)),
            U256::from_hex("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798")
                .unwrap(),
        ];
        let p_minus_2 = P.wrapping_sub(&U256::from_u64(2));
        for a in samples.map(FieldElement::from_u256_reduced) {
            assert_eq!(a.invert(), a.pow(p_minus_2), "a = {a:?}");
            assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
        }
    }
}
