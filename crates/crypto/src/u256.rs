//! A fixed-width 256-bit unsigned integer.
//!
//! [`U256`] backs the secp256k1 field and scalar arithmetic ([`crate::field`],
//! [`crate::scalar`]) and the proof-of-work difficulty targets of the
//! SmartCrowd blockchain (a block is valid when the hash of the whole block,
//! interpreted as a big-endian 256-bit integer, is below the target — §V-C).
//!
//! The representation is four little-endian `u64` limbs. All arithmetic is
//! explicit about overflow: callers choose [`U256::overflowing_add`],
//! [`U256::wrapping_sub`], [`U256::checked_add`], etc.

use crate::error::CryptoError;
use crate::hex;
use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::U256;
///
/// let a = U256::from_u64(7);
/// let b = U256::from_u64(5);
/// assert_eq!(a.wrapping_sub(&b), U256::from_u64(2));
/// assert!(a > b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub(crate) [u64; 4]);

impl U256 {
    /// The value `0`.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// The value `1`.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Creates a `U256` from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Creates a `U256` from a `u128`.
    pub const fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// Creates a `U256` from raw little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256(limbs)
    }

    /// Returns the raw little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.0
    }

    /// Parses a big-endian 32-byte array.
    pub fn from_be_bytes(b: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let start = 32 - 8 * (i + 1);
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&b[start..start + 8]);
            *limb = u64::from_be_bytes(chunk);
        }
        U256(limbs)
    }

    /// Serializes to a big-endian 32-byte array.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            let start = 32 - 8 * (i + 1);
            out[start..start + 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses a hex string (optional `0x` prefix, at most 64 hex digits,
    /// shorter strings are left-padded with zeros).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidHex`] for malformed input and
    /// [`CryptoError::InvalidLength`] for more than 64 hex digits.
    pub fn from_hex(s: &str) -> Result<Self, CryptoError> {
        let s = s.strip_prefix("0x").unwrap_or(s);
        if s.len() > 64 {
            return Err(CryptoError::InvalidLength {
                expected: 64,
                actual: s.len(),
            });
        }
        let padded = format!("{s:0>64}");
        let bytes = hex::decode_array::<32>(&padded)?;
        Ok(U256::from_be_bytes(&bytes))
    }

    /// Formats as a minimal-length lowercase hex string with `0x` prefix.
    pub fn to_hex(&self) -> String {
        let full = hex::encode(&self.to_be_bytes());
        let trimmed = full.trim_start_matches('0');
        if trimmed.is_empty() {
            "0x0".to_string()
        } else {
            format!("0x{trimmed}")
        }
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < 256, "bit index out of range");
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Returns the number of significant bits (0 for zero).
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return 64 * i + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Returns the low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.0[0]
    }

    /// Returns the low 128 bits.
    pub fn low_u128(&self) -> u128 {
        (self.0[0] as u128) | ((self.0[1] as u128) << 64)
    }

    /// Addition returning `(sum mod 2^256, carried)`.
    #[inline]
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let (sum, carry) = add4(&self.0, &rhs.0);
        (U256(sum), carry != 0)
    }

    /// Wrapping addition modulo `2^256`.
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(&self, rhs: &U256) -> Option<U256> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Subtraction returning `(diff mod 2^256, borrowed)`.
    #[inline]
    pub(crate) fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let (diff, borrow) = sub4(&self.0, &rhs.0);
        (U256(diff), borrow != 0)
    }

    /// Wrapping subtraction modulo `2^256`.
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Full 256×256 → 512-bit multiplication, returned as eight
    /// little-endian limbs.
    #[inline]
    pub fn mul_wide(&self, rhs: &U256) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0;
            for j in 0..4 {
                (out[i + j], carry) = mac(out[i + j], self.0[i], rhs.0[j], carry);
            }
            out[i + 4] = carry;
        }
        out
    }

    /// Wrapping multiplication modulo `2^256`.
    pub fn wrapping_mul(&self, rhs: &U256) -> U256 {
        let wide = self.mul_wide(rhs);
        U256([wide[0], wide[1], wide[2], wide[3]])
    }

    /// Checked multiplication; `None` if the product exceeds 256 bits.
    pub fn checked_mul(&self, rhs: &U256) -> Option<U256> {
        let wide = self.mul_wide(rhs);
        if wide[4..].iter().any(|&l| l != 0) {
            None
        } else {
            Some(U256([wide[0], wide[1], wide[2], wide[3]]))
        }
    }

    /// Logical left shift by `n` bits (zero when `n >= 256`).
    pub fn shl(&self, n: usize) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let mut v = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        U256(out)
    }

    /// Logical right shift by `n` bits (zero when `n >= 256`).
    pub fn shr(&self, n: usize) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for (i, slot) in out.iter_mut().enumerate().take(4 - limb_shift) {
            let mut v = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                v |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
            *slot = v;
        }
        U256(out)
    }

    /// Long division: returns `(self / divisor, self % divisor)`.
    ///
    /// Used by the chain crate to derive PoW targets (`target = 2^256 / D`).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &U256) -> (U256, U256) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (U256::ZERO, *self);
        }
        let mut quotient = U256::ZERO;
        let mut remainder = U256::ZERO;
        for i in (0..self.bits()).rev() {
            remainder = remainder.shl(1);
            if self.bit(i) {
                remainder.0[0] |= 1;
            }
            if remainder >= *divisor {
                remainder = remainder.wrapping_sub(divisor);
                quotient.0[i / 64] |= 1 << (i % 64);
            }
        }
        (quotient, remainder)
    }

    /// Inverse of `self` modulo an odd prime `m`, for `self < m`, by the
    /// binary extended-GCD algorithm. Serves both secp256k1 moduli.
    ///
    /// Returns zero for a zero input.
    pub(crate) fn inv_mod(&self, m: &U256) -> U256 {
        if self.is_zero() {
            return U256::ZERO;
        }
        let m = &m.0;
        // Invariant: x1·self ≡ u and x2·self ≡ v (mod m). The halvings and
        // modular subtractions are branch-free; what the operands decide
        // is only how many of them run.
        let (mut u, mut v) = (self.0, *m);
        let (mut x1, mut x2) = (U256::ONE.0, U256::ZERO.0);
        while u != U256::ONE.0 && v != U256::ONE.0 {
            while u[0] & 1 == 0 {
                u = shr1(&u, 0);
                x1 = halve_mod(&x1, m);
            }
            while v[0] & 1 == 0 {
                v = shr1(&v, 0);
                x2 = halve_mod(&x2, m);
            }
            let (diff, borrow) = sub4(&u, &v);
            if borrow == 0 {
                u = diff;
                x1 = sub_mod(&x1, &x2, m);
            } else {
                v = sub4(&v, &u).0;
                x2 = sub_mod(&x2, &x1, m);
            }
        }
        U256(if u == U256::ONE.0 { x1 } else { x2 })
    }
}

/// `a + b + carry` as `(low limb, carry out)`.
#[inline(always)]
pub(crate) fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let (s, c1) = a.overflowing_add(b);
    let (s, c2) = s.overflowing_add(carry);
    (s, u64::from(c1 | c2))
}

/// `a − b − borrow` as `(low limb, borrow out)`.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let (d, b1) = a.overflowing_sub(b);
    let (d, b2) = d.overflowing_sub(borrow);
    (d, u64::from(b1 | b2))
}

/// `acc + a·b + carry` as `(low limb, carry out)`; cannot overflow.
#[inline(always)]
pub(crate) fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = u128::from(acc) + u128::from(a) * u128::from(b) + u128::from(carry);
    (t as u64, (t >> 64) as u64)
}

/// `a + b` over four limbs as `(sum mod 2^256, carry out)`.
#[inline(always)]
pub(crate) fn add4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let (r0, c) = adc(a[0], b[0], 0);
    let (r1, c) = adc(a[1], b[1], c);
    let (r2, c) = adc(a[2], b[2], c);
    let (r3, c) = adc(a[3], b[3], c);
    ([r0, r1, r2, r3], c)
}

/// `a − b` over four limbs as `(difference mod 2^256, borrow out)`.
#[inline(always)]
pub(crate) fn sub4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let (r0, c) = sbb(a[0], b[0], 0);
    let (r1, c) = sbb(a[1], b[1], c);
    let (r2, c) = sbb(a[2], b[2], c);
    let (r3, c) = sbb(a[3], b[3], c);
    ([r0, r1, r2, r3], c)
}

/// `a` when `pick_a` is 1, `b` when it is 0, without a branch (the choice
/// is a coin flip on random operands, which a predictor cannot learn).
#[inline(always)]
pub(crate) fn select4(pick_a: u64, a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mask = pick_a.wrapping_neg();
    [
        (a[0] & mask) | (b[0] & !mask),
        (a[1] & mask) | (b[1] & !mask),
        (a[2] & mask) | (b[2] & !mask),
        (a[3] & mask) | (b[3] & !mask),
    ]
}

/// `x >> 1` with `top` shifted in as bit 255.
#[inline(always)]
fn shr1(x: &[u64; 4], top: u64) -> [u64; 4] {
    [
        (x[0] >> 1) | (x[1] << 63),
        (x[1] >> 1) | (x[2] << 63),
        (x[2] >> 1) | (x[3] << 63),
        (x[3] >> 1) | (top << 63),
    ]
}

/// `x/2 mod m` for odd `m` and `x < m`: `x/2` when even, else `(x+m)/2`,
/// where the sum's carry out of 256 bits re-enters as the top bit.
#[inline(always)]
fn halve_mod(x: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
    let (sum, carry) = add4(x, &select4(x[0] & 1, m, &[0; 4]));
    shr1(&sum, carry)
}

/// `(a − b) mod m` for `a, b < m`, without a branch.
#[inline(always)]
pub(crate) fn sub_mod(a: &[u64; 4], b: &[u64; 4], m: &[u64; 4]) -> [u64; 4] {
    let (diff, borrow) = sub4(a, b);
    add4(&diff, &select4(borrow, m, &[0; 4])).0
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                non_eq => return non_eq,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256({})", self.to_hex())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", hex::encode(&self.to_be_bytes()))
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn be_bytes_roundtrip() {
        let v =
            U256::from_hex("0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
                .unwrap();
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        assert_eq!(v.to_be_bytes()[0], 0x01);
        assert_eq!(v.to_be_bytes()[31], 0x20);
    }

    #[test]
    fn hex_roundtrip_and_short_forms() {
        assert_eq!(U256::from_hex("0x0").unwrap(), U256::ZERO);
        assert_eq!(U256::from_hex("ff").unwrap(), U256::from_u64(255));
        assert_eq!(U256::from_u64(255).to_hex(), "0xff");
        assert_eq!(U256::ZERO.to_hex(), "0x0");
    }

    #[test]
    fn hex_too_long_rejected() {
        let s = "1".repeat(65);
        assert!(matches!(
            U256::from_hex(&s),
            Err(CryptoError::InvalidLength { .. })
        ));
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = U256([u64::MAX, u64::MAX, 0, 0]);
        let (sum, carry) = a.overflowing_add(&U256::ONE);
        assert!(!carry);
        assert_eq!(sum, U256([0, 0, 1, 0]));
    }

    #[test]
    fn add_overflow_detected() {
        let (v, carry) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(carry);
        assert_eq!(v, U256::ZERO);
        assert_eq!(U256::MAX.checked_add(&U256::ONE), None);
    }

    #[test]
    fn sub_with_borrow() {
        let a = U256([0, 0, 1, 0]);
        let b = U256::ONE;
        assert_eq!(a.wrapping_sub(&b), U256([u64::MAX, u64::MAX, 0, 0]));
        let (v, borrow) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(borrow);
        assert_eq!(v, U256::MAX);
    }

    #[test]
    fn mul_wide_against_u128() {
        let a = U256::from_u128(0x1234_5678_9abc_def0_1111_2222_3333_4444);
        let b = U256::from_u64(0xffff_ffff_ffff_fff7);
        let wide = a.mul_wide(&b);
        // Cross-check the low 128 bits against native u128 arithmetic.
        let expected_low = a.low_u128().wrapping_mul(b.low_u128());
        assert_eq!(wide[0], expected_low as u64);
        assert_eq!(wide[1], (expected_low >> 64) as u64);
    }

    #[test]
    fn mul_max_squared() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1
        let wide = U256::MAX.mul_wide(&U256::MAX);
        assert_eq!(wide[0], 1);
        assert_eq!(wide[1], 0);
        assert_eq!(wide[2], 0);
        assert_eq!(wide[3], 0);
        assert_eq!(wide[4], u64::MAX - 1);
        assert_eq!(wide[5], u64::MAX);
        assert_eq!(wide[6], u64::MAX);
        assert_eq!(wide[7], u64::MAX);
    }

    #[test]
    fn checked_mul_overflow() {
        let big = U256::ONE.shl(200);
        assert!(big.checked_mul(&big).is_none());
        assert_eq!(
            U256::from_u64(1 << 20).checked_mul(&U256::from_u64(1 << 20)),
            Some(U256::from_u64(1 << 40))
        );
    }

    #[test]
    fn shifts() {
        let one = U256::ONE;
        assert_eq!(one.shl(255).shr(255), one);
        assert_eq!(one.shl(256), U256::ZERO);
        assert_eq!(one.shl(64), U256([0, 1, 0, 0]));
        assert_eq!(U256([0, 1, 0, 0]).shr(1), U256([1 << 63, 0, 0, 0]));
        assert_eq!(one.shl(0), one);
        assert_eq!(one.shr(0), one);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::ONE.shl(200).bits(), 201);
        assert!(U256::ONE.shl(200).bit(200));
        assert!(!U256::ONE.shl(200).bit(199));
        assert_eq!(U256::MAX.bits(), 256);
    }

    #[test]
    fn ordering() {
        let a = U256::from_hex("0x100000000000000000000000000000000").unwrap();
        let b = U256::MAX;
        assert!(a < b);
        assert!(U256::ZERO < U256::ONE);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn div_rem_basic() {
        let (q, r) = U256::from_u64(100).div_rem(&U256::from_u64(7));
        assert_eq!(q, U256::from_u64(14));
        assert_eq!(r, U256::from_u64(2));
    }

    #[test]
    fn div_rem_large() {
        // 2^255 / 3 — verify by reconstruction q*3 + r == 2^255.
        let n = U256::ONE.shl(255);
        let three = U256::from_u64(3);
        let (q, r) = n.div_rem(&three);
        assert!(r < three);
        assert_eq!(q.wrapping_mul(&three).wrapping_add(&r), n);
    }

    #[test]
    fn div_rem_divisor_larger() {
        let (q, r) = U256::from_u64(5).div_rem(&U256::from_u64(100));
        assert_eq!(q, U256::ZERO);
        assert_eq!(r, U256::from_u64(5));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = U256::ONE.div_rem(&U256::ZERO);
    }

    #[test]
    fn display_and_debug() {
        let v = U256::from_u64(0xabcd);
        assert_eq!(v.to_string(), "0xabcd");
        assert!(format!("{v:?}").contains("0xabcd"));
        assert_eq!(format!("{v:x}").len(), 64);
    }
}
