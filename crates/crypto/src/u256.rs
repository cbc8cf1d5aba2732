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
    /// Bernstein–Yang safegcd (TCHES 2019) in libsecp256k1's variable-time
    /// form (`modinv64_var`). Starting from `(f, g) = (m, self)` and
    /// `(d, e) = (0, 1)`, which keeps `d·self ≡ f` and `e·self ≡ g`
    /// (mod m), each batch runs 62 divsteps on the low limbs of `f` and `g`
    /// alone, then applies their 2×2 transition matrix to the full `(f, g)`
    /// and to `(d, e)` in `i128`, until `g = 0`; then `f = ±1` and `±d` is
    /// the inverse. Serves both secp256k1 moduli.
    ///
    /// Returns zero for a zero input.
    pub(crate) fn inv_mod(&self, m: &Modulus62) -> U256 {
        let (mut d, mut e) = ([0i64; 5], [1, 0, 0, 0, 0]);
        let (mut f, mut g) = (m.limbs, to_signed62(self));
        // Only the low `len` limbs of f and g are live: a top limb of 0 or
        // −1 in both is folded into the one below it.
        let mut len = 5;
        // η = −δ of the divstep; δ starts at 1.
        let mut eta = -1;
        loop {
            let t;
            (eta, t) = divsteps_62(eta, f[0] as u64, g[0] as u64);
            update_de(&mut d, &mut e, &t, m);
            update_fg(len, &mut f, &mut g, &t);
            if g[..len].iter().all(|&limb| limb == 0) {
                break;
            }
            let (f_top, g_top) = (f[len - 1], g[len - 1]);
            if len > 1 && (f_top ^ (f_top >> 63)) | (g_top ^ (g_top >> 63)) == 0 {
                f[len - 2] |= ((f_top as u64) << 62) as i64;
                g[len - 2] |= ((g_top as u64) << 62) as i64;
                len -= 1;
            }
        }
        from_signed62(&normalize(d, f[len - 1], m))
    }
}

/// A modulus in the form the inversion consumes: five signed 62-bit limbs
/// with `Σ limbs[i]·2⁶²ⁱ = m` (a limb may be negative, which keeps the
/// form sparse) and `m⁻¹ mod 2⁶²`.
pub(crate) struct Modulus62 {
    pub(crate) limbs: [i64; 5],
    pub(crate) inv62: u64,
}

/// The low 62 bits of a limb.
const M62: u64 = u64::MAX >> 2;

/// The matrix of 62 divsteps, scaled by 2⁶²: they take `(f, g)` to
/// `((u·f + v·g)/2⁶², (q·f + r·g)/2⁶²)`, and `|u| + |v|`, `|q| + |r|` are
/// at most 2⁶².
struct Transition {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// 62 divsteps on the low bits of odd `f` and of `g`, from `eta = −δ`;
/// returns the new `eta` and the transition matrix. A run of zero bits of
/// `g` is shifted out at once, and an odd `g` has up to six bits (after a
/// swap) or four bits cancelled by one multiple of `f`.
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, Transition) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut left = 62u32;
    loop {
        // A sentinel bit at `left` stops the count at the steps left.
        let zeros = (g | (u64::MAX << left)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        left -= zeros;
        if left == 0 {
            break;
        }
        // `g` is odd: add the multiple `w·f` that clears its low bits, six
        // after a swap and four otherwise, but no more than `left`, nor
        // more than `eta + 1`, after which the swap condition flips again.
        let (w, width) = if eta < 0 {
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            // f·(f² − 2) ≡ −f⁻¹ (mod 2⁶).
            let w = f
                .wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2));
            (w, 6)
        } else {
            // f + 2·((f + 1) & 4) ≡ f⁻¹ (mod 2⁴).
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            (f_inv.wrapping_neg().wrapping_mul(g), 4)
        };
        let limit = (eta + 1).min(i64::from(left)).min(width) as u32;
        let w = w & (u64::MAX >> (64 - limit));
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    let t = Transition {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (eta, t)
}

/// `(d, e) ← t·(d, e)/2⁶² mod m`, exactly divisible by adding the
/// multiples of `m` that clear the low 62 bits; keeps both in `(−2m, m)`.
fn update_de(d: &mut [i64; 5], e: &mut [i64; 5], t: &Transition, m: &Modulus62) {
    // Start from m·(u, q) when d < 0 and m·(v, r) when e < 0, which keeps
    // the results above −2m.
    let (sd, se) = (d[4] >> 63, e[4] >> 63);
    let mut md = (t.u & sd) + (t.v & se);
    let mut me = (t.q & sd) + (t.r & se);
    let (u, v, q, r) = (
        i128::from(t.u),
        i128::from(t.v),
        i128::from(t.q),
        i128::from(t.r),
    );
    let mut cd = u * i128::from(d[0]) + v * i128::from(e[0]);
    let mut ce = q * i128::from(d[0]) + r * i128::from(e[0]);
    md -= (m.inv62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (m.inv62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += i128::from(m.limbs[0]) * i128::from(md);
    ce += i128::from(m.limbs[0]) * i128::from(me);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        let limb = i128::from(m.limbs[i]);
        cd += u * i128::from(d[i]) + v * i128::from(e[i]) + limb * i128::from(md);
        ce += q * i128::from(d[i]) + r * i128::from(e[i]) + limb * i128::from(me);
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// `(f, g) ← t·(f, g)/2⁶²` over the low `len` limbs; the divsteps made the
/// division exact.
fn update_fg(len: usize, f: &mut [i64; 5], g: &mut [i64; 5], t: &Transition) {
    let (u, v, q, r) = (
        i128::from(t.u),
        i128::from(t.v),
        i128::from(t.q),
        i128::from(t.r),
    );
    let mut cf = (u * i128::from(f[0]) + v * i128::from(g[0])) >> 62;
    let mut cg = (q * i128::from(f[0]) + r * i128::from(g[0])) >> 62;
    for i in 1..len {
        cf += u * i128::from(f[i]) + v * i128::from(g[i]);
        cg += q * i128::from(f[i]) + r * i128::from(g[i]);
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// `d` in `(−2m, m)`, negated when `sign < 0`, brought into `[0, m)` with
/// every limb in `[0, 2⁶²)`.
fn normalize(mut d: [i64; 5], sign: i64, m: &Modulus62) -> [i64; 5] {
    if d[4] < 0 {
        add_limbs(&mut d, &m.limbs);
    }
    if sign < 0 {
        for limb in &mut d {
            *limb = -*limb;
        }
    }
    carry_signed62(&mut d);
    if d[4] < 0 {
        add_limbs(&mut d, &m.limbs);
        carry_signed62(&mut d);
    }
    d
}

fn add_limbs(d: &mut [i64; 5], m: &[i64; 5]) {
    for (limb, m) in d.iter_mut().zip(m) {
        *limb += m;
    }
}

/// Moves each limb's bits above 62 into the next one, so that every limb
/// but the top lies in `[0, 2⁶²)`; the value is unchanged.
fn carry_signed62(d: &mut [i64; 5]) {
    for i in 0..4 {
        d[i + 1] += d[i] >> 62;
        d[i] &= M62 as i64;
    }
}

/// `x` as five non-negative 62-bit limbs (the top one holds 8 bits).
fn to_signed62(x: &U256) -> [i64; 5] {
    let a = x.0;
    [
        a[0] & M62,
        ((a[0] >> 62) | (a[1] << 2)) & M62,
        ((a[1] >> 60) | (a[2] << 4)) & M62,
        ((a[2] >> 58) | (a[3] << 6)) & M62,
        a[3] >> 56,
    ]
    .map(|limb| limb as i64)
}

/// The inverse of [`to_signed62`] for limbs in `[0, 2⁶²)`, the top one
/// below 2⁸.
fn from_signed62(d: &[i64; 5]) -> U256 {
    let d = d.map(|limb| limb as u64);
    U256([
        d[0] | (d[1] << 62),
        (d[1] >> 2) | (d[2] << 60),
        (d[2] >> 4) | (d[3] << 58),
        (d[3] >> 6) | (d[4] << 56),
    ])
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
    fn modulus62_constants() {
        use crate::field::{FieldElement, P_62};
        use crate::scalar::{Scalar, N_62};
        for (form, m) in [(&P_62, FieldElement::prime()), (&N_62, Scalar::order())] {
            // The limbs are signed 62-bit digits of m: carried into
            // [0, 2⁶²) they are m's plain 62-bit split.
            assert!(form.limbs.iter().all(|limb| limb.unsigned_abs() < 1 << 62));
            let mut carried = form.limbs;
            carry_signed62(&mut carried);
            assert_eq!(carried, to_signed62(&m));
            // m⁻¹ mod 2⁶² by Newton's iteration x ← x·(2 − m·x), which
            // doubles the correct low bits of x = 1 (m is odd) each round.
            let m0 = m.0[0];
            let mut x = 1u64;
            for _ in 0..6 {
                x = x.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(x)));
            }
            assert_eq!(form.inv62, x & M62);
            assert_eq!(m0.wrapping_mul(form.inv62) & M62, 1);
        }
    }

    #[test]
    fn display_and_debug() {
        let v = U256::from_u64(0xabcd);
        assert_eq!(v.to_string(), "0xabcd");
        assert!(format!("{v:?}").contains("0xabcd"));
        assert_eq!(format!("{v:x}").len(), 64);
    }
}
