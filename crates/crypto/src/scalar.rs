//! Arithmetic in the secp256k1 scalar field **F_n** (the group order).
//!
//! Scalars are private keys, ECDSA nonces, and the `r`/`s` components of
//! every SmartCrowd signature (`P_Sign`, `D†_Sign`, `D*_Sign`; Eq. 2, 4, 5).

use crate::error::CryptoError;
use crate::u256::{sub_mod, Modulus62, U256};
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

/// `n` for the inversion, in signed 62-bit limbs (limb 3 is zero), and
/// `n⁻¹ mod 2⁶²` (`u256::tests::modulus62_constants` derives both).
pub(crate) const N_62: Modulus62 = Modulus62 {
    limbs: [0x3FD2_5E8C_D036_4141, 0x2ABB_739A_BD22_80EE, -0x15, 0, 256],
    inv62: 0x34F2_0099_AA77_4EC1,
};

/// `λ`, a primitive cube root of unity mod `n`: on the curve
/// `λ·(x, y) = (β·x, y)` for the cube root of unity `β` mod `p` that
/// [`crate::point`] holds, so a multiple of `λ·P` costs one field
/// multiplication on top of the same multiple of `P`.
pub(crate) const LAMBDA: Scalar = Scalar(U256([
    0xDF02_967C_1B23_BD72,
    0x122E_22EA_2081_6678,
    0xA526_1C02_8812_645A,
    0x5363_AD4C_C05C_30E0,
]));

/// The short lattice basis `(a₁, b₁)`, `(a₂, b₂)` of the vectors `(x, y)`
/// with `x + y·λ ≡ 0 (mod n)`; its determinant `a₁b₂ − a₂b₁` is `n`. `b₁`
/// is negative and held as `−b₁`; `b₂` equals `a₁`.
const A1: u128 = 0x3086_D221_A7D4_6BCD_E86C_90E4_9284_EB15;
const MINUS_B1: u128 = 0xE443_7ED6_010E_8828_6F54_7FA9_0ABF_E4C3;
/// `a₂` is 129 bits: the split never multiplies by it, only its proof and
/// the tests do.
#[cfg(test)]
const A2: U256 = U256([0x57C1_108D_9D44_CFD8, 0x14CA_50F7_A8E2_F3F6, 1, 0]);

/// `g₁ = ⌊2³⁸⁴·b₂/n⌉` and `g₂ = ⌊2³⁸⁴·(−b₁)/n⌉`: they turn the two
/// divisions by `n` in the split into a multiplication and a shift.
const G1: U256 = U256([
    0xE893_209A_45DB_B031,
    0x3DAA_8A14_71E8_CA7F,
    0xE86C_90E4_9284_EB15,
    0x3086_D221_A7D4_6BCD,
]);
const G2: U256 = U256([
    0x1571_B4AE_8AC4_7F71,
    0x2212_08AC_9DF5_06C6,
    0x6F54_7FA9_0ABF_E4C4,
    0xE443_7ED6_010E_8828,
]);

/// One half of a split scalar: a sign and a magnitude below 2¹²⁸. The
/// type is the bound — a `u128` cannot hold more — so the 129-digit
/// buffer the ladder expands it into (128 bits plus the signed-digit
/// carry) is always long enough.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct HalfScalar {
    pub(crate) magnitude: u128,
    pub(crate) negative: bool,
}

/// `v mod n` for any 256-bit `v` (one subtraction suffices: `2^256 < 2n`).
fn reduce(v: U256) -> U256 {
    if v >= N {
        v.wrapping_sub(&N)
    } else {
        v
    }
}

/// Reduces a 512-bit value (eight little-endian limbs) modulo `n`. A
/// recovery costs 11 scalar multiplications (2 for `e/r` and `s/r`, 3 in
/// each [`Scalar::split`], 3 for its share of the burst's batched `r⁻¹`),
/// ≈ 0.35–0.7 µs at ≈ 32–63 ns each on a 2-core Xeon and ≈ 1 % of the
/// recovery, so this is the plain fold loop rather than anything
/// specialised.
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

/// `⌊k·g/2³⁸⁴⌉`, the rounded quotient of [`Scalar::split`]. The product is
/// below 2⁵¹², so the result is at most 2¹²⁸ and needs no reduction.
fn mul_shift_384(k: &U256, g: &U256) -> Scalar {
    let wide = k.mul_wide(g);
    let floor = U256::from_limbs([wide[6], wide[7], 0, 0]);
    Scalar(floor.wrapping_add(&U256::from_u64(wide[5] >> 63)))
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
    /// permitted; use `Scalar::from_be_bytes_nonzero` for key material.
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
    pub(crate) fn from_be_bytes_nonzero(b: &[u8; 32]) -> Result<Self, CryptoError> {
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
        Scalar(self.0.inv_mod(&N_62))
    }

    /// Splits `k` into signed halves with `k ≡ k₁ + k₂·λ (mod n)` and
    /// `|k₁|, |k₂| < 2¹²⁸` (the GLV decomposition; Guide to Elliptic Curve
    /// Cryptography, alg. 3.74, with the rounded divisions replaced by
    /// `c₁ = ⌊k·g₁/2³⁸⁴⌉`, `c₂ = ⌊k·g₂/2³⁸⁴⌉` as libsecp256k1's
    /// `scalar_split_lambda` does):
    /// `k₂ = −c₁b₁ − c₂b₂`, `k₁ = k − k₂·λ`.
    ///
    /// The congruence holds for *any* `c₁`, `c₂`, because
    /// `(k − k₁, −k₂) = c₁(a₁, b₁) + c₂(a₂, b₂)` is a lattice vector. The
    /// bound holds for *every* `k ∈ [0, n)`, not only for typical ones:
    /// `gᵢ` is a rounding, so `|g₁/2³⁸⁴ − b₂/n| ≤ 2⁻³⁸⁵` and likewise for
    /// `g₂`; with `k < 2²⁵⁶` and the rounding of `cᵢ` itself,
    /// `|c₁ − k·b₂/n| < ½ + 2⁻¹²⁹` and `|c₂ − k·(−b₁)/n| < ½ + 2⁻¹²⁹`.
    /// Writing `k = k·(a₁b₂ − a₂b₁)/n`,
    /// `|k₁| = |a₁(k·b₂/n − c₁) + a₂(k·(−b₁)/n − c₂)| < (a₁ + a₂)(½ + 2⁻¹²⁹)`
    /// and
    /// `|k₂| = |b₁(k·b₂/n − c₁) + b₂(k·(−b₁)/n − c₂)| < (−b₁ + b₂)(½ + 2⁻¹²⁹)`,
    /// both below `0.64·2¹²⁸` for these constants (`tests::split_constants`
    /// derives every constant and both sums; `tests::split_forced_grid` and
    /// the proptests exercise the bound). A peer picks `r`, `s` and the
    /// digest, hence every scalar that reaches here, so the conversion to
    /// [`HalfScalar`] checks the bound instead of masking to it.
    pub(crate) fn split(&self) -> (HalfScalar, HalfScalar) {
        let c1 = mul_shift_384(&self.0, &G1);
        let c2 = mul_shift_384(&self.0, &G2);
        let minus_b1 = Scalar(U256::from_u128(MINUS_B1));
        let b2 = Scalar(U256::from_u128(A1));
        let k2 = c1.mul(&minus_b1).sub(&c2.mul(&b2));
        let k1 = self.sub(&k2.mul(&LAMBDA));
        (k1.to_half(), k2.to_half())
    }

    /// Sign and magnitude of a scalar known to lie within 2¹²⁸ of zero.
    ///
    /// # Panics
    ///
    /// Panics when neither `self` nor `−self` is below 2¹²⁸, which
    /// [`Scalar::split`]'s bound rules out for its results.
    fn to_half(self) -> HalfScalar {
        let negative = self.is_high();
        let magnitude = if negative { self.neg() } else { self }.0;
        assert!(magnitude.bits() <= 128, "split half exceeds 128 bits");
        HalfScalar {
            magnitude: magnitude.low_u128(),
            negative,
        }
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
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn half_value(h: HalfScalar) -> Scalar {
        let magnitude = Scalar(U256::from_u128(h.magnitude));
        if h.negative {
            magnitude.neg()
        } else {
            magnitude
        }
    }

    /// `k₁ + k₂·λ ≡ k`. The halves being below 2¹²⁸ is `HalfScalar`'s type;
    /// `split` panics rather than return anything else.
    fn check_split(k: Scalar) -> Result<(), TestCaseError> {
        let (k1, k2) = k.split();
        let sum = half_value(k1).add(&half_value(k2).mul(&LAMBDA));
        prop_assert_eq!(sum, k, "k1 = {:?}, k2 = {:?}", k1, k2);
        Ok(())
    }

    fn arb_scalar() -> impl Strategy<Value = Scalar> {
        any::<[u64; 4]>().prop_map(|limbs| Scalar::from_u256_reduced(U256::from_limbs(limbs)))
    }

    proptest! {
        #[test]
        fn split_recombines(k in arb_scalar()) {
            check_split(k)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16_384))]

        /// The nightly sweep (`-- --ignored`).
        #[test]
        #[ignore]
        fn split_recombines_sweep(k in arb_scalar()) {
            check_split(k)?;
        }
    }

    #[test]
    fn split_forced_grid() {
        let u = |v: U256| Scalar::from_u256_reduced(v);
        let two_128 = U256::ONE.shl(128);
        let mut grid = vec![
            Scalar::ZERO,
            Scalar::ONE,
            Scalar::from_u64(2),
            Scalar::ONE.neg(),
            Scalar::from_u64(2).neg(),
            u(HALF_N),                          // (n − 1)/2
            u(HALF_N.wrapping_add(&U256::ONE)), // (n + 1)/2
            LAMBDA,
            LAMBDA.add(&Scalar::ONE),
            LAMBDA.sub(&Scalar::ONE),
            LAMBDA.neg(),
            u(U256::ONE.shl(127)),
            u(two_128.wrapping_sub(&U256::ONE)),
            u(two_128),
            u(two_128.wrapping_add(&U256::ONE)),
        ];
        // Around the lattice points i·(a₁, b₁) + j·(a₂, b₂), where the
        // roundings of c₁ and c₂ tip over.
        let (a1, a2) = (u(U256::from_u128(A1)), u(A2));
        for i in 0..=3u64 {
            for j in 0..=3u64 {
                let at = Scalar::from_u64(i)
                    .mul(&a1)
                    .add(&Scalar::from_u64(j).mul(&a2));
                for k in [at, at.neg()] {
                    grid.extend([k, k.add(&Scalar::ONE), k.sub(&Scalar::ONE)]);
                }
            }
        }
        for k in grid {
            check_split(k).unwrap();
        }
        // What the split gives on the easy ones.
        let half = |magnitude, negative| HalfScalar {
            magnitude,
            negative,
        };
        assert_eq!(Scalar::ZERO.split(), (half(0, false), half(0, false)));
        assert_eq!(Scalar::ONE.split(), (half(1, false), half(0, false)));
        assert_eq!(Scalar::ONE.neg().split(), (half(1, true), half(0, false)));
        assert_eq!(LAMBDA.split(), (half(0, false), half(1, false)));
    }

    #[test]
    #[should_panic(expected = "split half exceeds 128 bits")]
    fn to_half_refuses_what_does_not_fit() {
        Scalar(U256::ONE.shl(128)).to_half();
    }

    /// `|a − b|` over 512 bits, little-endian limbs.
    fn abs_diff_512(a: [u64; 8], b: [u64; 8]) -> [u64; 8] {
        let (hi, lo) = if a.iter().rev().ge(b.iter().rev()) {
            (a, b)
        } else {
            (b, a)
        };
        let mut out = [0u64; 8];
        let mut borrow = false;
        for i in 0..8 {
            let (d, b1) = hi[i].overflowing_sub(lo[i]);
            let (d, b2) = d.overflowing_sub(u64::from(borrow));
            (out[i], borrow) = (d, b1 | b2);
        }
        out
    }

    #[test]
    fn split_constants() {
        let u = U256::from_u128;
        let (a1, minus_b1, b2) = (Scalar(u(A1)), Scalar(u(MINUS_B1)), Scalar(u(A1)));
        // λ is a primitive cube root of unity mod n.
        assert_ne!(LAMBDA, Scalar::ONE);
        assert_eq!(LAMBDA.mul(&LAMBDA).mul(&LAMBDA), Scalar::ONE);
        // Both basis vectors are in the lattice: a + b·λ ≡ 0.
        assert_eq!(a1.sub(&minus_b1.mul(&LAMBDA)), Scalar::ZERO);
        assert_eq!(Scalar(A2).add(&b2.mul(&LAMBDA)), Scalar::ZERO);
        // … and span it: the determinant a₁b₂ − a₂b₁ is n, as integers.
        let det = u(A1)
            .checked_mul(&u(A1))
            .zip(A2.checked_mul(&u(MINUS_B1)))
            .and_then(|(x, y)| x.checked_add(&y));
        assert_eq!(det, Some(N));
        // gᵢ·n is within n/2 of 2³⁸⁴·b, i.e. gᵢ is that quotient rounded.
        for (g, b) in [(G1, A1), (G2, MINUS_B1)] {
            let target = [0, 0, 0, 0, 0, 0, b as u64, (b >> 64) as u64];
            let diff = abs_diff_512(g.mul_wide(&N), target);
            assert_eq!(diff[4..], [0; 4]);
            assert!(U256::from_limbs([diff[0], diff[1], diff[2], diff[3]]) <= HALF_N);
        }
        // The bound of `split`: (a₁ + a₂)(½ + 2⁻¹²⁹) and
        // (−b₁ + b₂)(½ + 2⁻¹²⁹) are below 2¹²⁸. Each sum is below 2¹³⁰,
        // so its 2⁻¹²⁹ part is below 2.
        for sum in [u(A1).wrapping_add(&A2), u(MINUS_B1).wrapping_add(&u(A1))] {
            assert!(sum.bits() <= 130);
            assert!(sum.shr(1).wrapping_add(&U256::from_u64(3)) <= U256::ONE.shl(128));
        }
    }

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
