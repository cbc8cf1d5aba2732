//! The secp256k1 arithmetic this crate shipped before its specialised
//! kernel, kept as the oracle of the differential tests: a generic
//! fold-loop modular engine over [`U256`], Fermat inversion, a `pow`-based
//! square root, binary and 4-bit-window scalar multiplication over plain
//! Jacobian formulas, and the three-multiplication `recover`. It shares
//! nothing with `src/` but `U256`'s integer operations and the published
//! hex constants, so agreement is evidence and not tautology.

use smartcrowd_crypto::ecdsa::Signature;
use smartcrowd_crypto::field::{FieldElement, P_HEX};
use smartcrowd_crypto::point::{Point, GX_HEX, GY_HEX};
use smartcrowd_crypto::scalar::N_HEX;
use smartcrowd_crypto::u256::U256;
use smartcrowd_crypto::CryptoError;

/// Modular arithmetic for a prime modulus `m > 2^255` with fold constant
/// `c = 2^256 mod m`.
#[derive(Clone, Copy)]
pub struct ModArith {
    pub modulus: U256,
    fold: U256,
}

impl ModArith {
    pub fn new(modulus: U256) -> Self {
        assert!(modulus.bits() == 256, "modulus must be a 256-bit prime");
        let fold = U256::MAX.wrapping_sub(&modulus).wrapping_add(&U256::ONE);
        ModArith { modulus, fold }
    }

    pub fn reduce(&self, v: U256) -> U256 {
        let mut v = v;
        while v >= self.modulus {
            v = v.wrapping_sub(&self.modulus);
        }
        v
    }

    pub fn reduce_wide(&self, wide: [u64; 8]) -> U256 {
        let mut lo = U256::from_limbs([wide[0], wide[1], wide[2], wide[3]]);
        let mut hi = U256::from_limbs([wide[4], wide[5], wide[6], wide[7]]);
        // x = hi*2^256 + lo ≡ hi*c + lo (mod m); iterate until hi vanishes.
        while !hi.is_zero() {
            let prod = hi.mul_wide(&self.fold);
            let prod_lo = U256::from_limbs([prod[0], prod[1], prod[2], prod[3]]);
            let prod_hi = U256::from_limbs([prod[4], prod[5], prod[6], prod[7]]);
            let (sum, carry) = prod_lo.overflowing_add(&lo);
            lo = sum;
            hi = prod_hi.wrapping_add(&U256::from_u64(carry as u64));
        }
        self.reduce(lo)
    }

    pub fn add(&self, a: U256, b: U256) -> U256 {
        let (sum, carry) = a.overflowing_add(&b);
        if carry {
            self.reduce(sum.wrapping_add(&self.fold))
        } else {
            self.reduce(sum)
        }
    }

    pub fn sub(&self, a: U256, b: U256) -> U256 {
        if a >= b {
            a.wrapping_sub(&b)
        } else {
            a.wrapping_add(&self.modulus).wrapping_sub(&b)
        }
    }

    pub fn mul(&self, a: U256, b: U256) -> U256 {
        self.reduce_wide(a.mul_wide(&b))
    }

    pub fn pow(&self, a: U256, e: U256) -> U256 {
        let mut acc = U256::ONE;
        for i in (0..e.bits()).rev() {
            acc = self.mul(acc, acc);
            if e.bit(i) {
                acc = self.mul(acc, a);
            }
        }
        acc
    }

    /// Inverse by Fermat's little theorem (`a^{m−2}`); zero maps to zero.
    pub fn inv_fermat(&self, a: U256) -> U256 {
        self.pow(a, self.modulus.wrapping_sub(&U256::from_u64(2)))
    }

    pub fn neg(&self, a: U256) -> U256 {
        self.sub(U256::ZERO, a)
    }

    /// Square root for `m ≡ 3 (mod 4)` as `a^{(m+1)/4}`, by generic `pow`.
    pub fn sqrt_pow(&self, a: U256) -> Option<U256> {
        let candidate = self.pow(a, self.modulus.wrapping_add(&U256::ONE).shr(2));
        (self.mul(candidate, candidate) == a).then_some(candidate)
    }
}

/// The base-field engine, from `P_HEX`.
pub fn fp() -> ModArith {
    ModArith::new(U256::from_hex(P_HEX).unwrap())
}

/// The scalar-field engine, from `N_HEX`.
pub fn fn_() -> ModArith {
    ModArith::new(U256::from_hex(N_HEX).unwrap())
}

/// A point as the reference sees it: `None` is infinity.
pub type RefPoint = Option<(U256, U256)>;

pub fn generator() -> RefPoint {
    Some((
        U256::from_hex(GX_HEX).unwrap(),
        U256::from_hex(GY_HEX).unwrap(),
    ))
}

pub fn from_point(p: &Point) -> RefPoint {
    match p {
        Point::Infinity => None,
        Point::Affine { x, y } => Some((x.to_u256(), y.to_u256())),
    }
}

pub fn to_point(p: RefPoint) -> Point {
    match p {
        None => Point::Infinity,
        Some((x, y)) => Point::Affine {
            x: FieldElement::from_u256_reduced(x),
            y: FieldElement::from_u256_reduced(y),
        },
    }
}

pub fn neg(p: RefPoint) -> RefPoint {
    p.map(|(x, y)| (x, fp().neg(y)))
}

pub fn is_on_curve(p: RefPoint) -> bool {
    let f = fp();
    p.is_none_or(|(x, y)| f.mul(y, y) == f.add(f.mul(f.mul(x, x), x), U256::from_u64(7)))
}

/// Jacobian `(X, Y, Z)`; `Z = 0` is infinity.
#[derive(Clone, Copy)]
struct Jac(U256, U256, U256);

const JAC_INFINITY: Jac = Jac(U256::ONE, U256::ONE, U256::ZERO);

fn to_jac(p: RefPoint) -> Jac {
    p.map_or(JAC_INFINITY, |(x, y)| Jac(x, y, U256::ONE))
}

fn from_jac(j: Jac) -> RefPoint {
    if j.2.is_zero() {
        return None;
    }
    let f = fp();
    let zinv = f.inv_fermat(j.2);
    let zinv2 = f.mul(zinv, zinv);
    Some((f.mul(j.0, zinv2), f.mul(j.1, f.mul(zinv2, zinv))))
}

/// dbl-2009-l, `a = 0`.
fn jac_double(p: Jac) -> Jac {
    let f = fp();
    if p.2.is_zero() || p.1.is_zero() {
        return JAC_INFINITY;
    }
    let a = f.mul(p.0, p.0);
    let b = f.mul(p.1, p.1);
    let c = f.mul(b, b);
    let xb = f.add(p.0, b);
    let d = f.sub(f.sub(f.mul(xb, xb), a), c);
    let d = f.add(d, d);
    let e = f.add(f.add(a, a), a);
    let x3 = f.sub(f.sub(f.mul(e, e), d), d);
    let c8 = f.mul(c, U256::from_u64(8));
    let y3 = f.sub(f.mul(e, f.sub(d, x3)), c8);
    let z3 = f.mul(p.1, p.2);
    Jac(x3, y3, f.add(z3, z3))
}

/// add-1998-cmo-2 with the equal / opposite cases checked.
fn jac_add(p: Jac, q: Jac) -> Jac {
    let f = fp();
    if p.2.is_zero() {
        return q;
    }
    if q.2.is_zero() {
        return p;
    }
    let z1z1 = f.mul(p.2, p.2);
    let z2z2 = f.mul(q.2, q.2);
    let u1 = f.mul(p.0, z2z2);
    let u2 = f.mul(q.0, z1z1);
    let s1 = f.mul(f.mul(p.1, q.2), z2z2);
    let s2 = f.mul(f.mul(q.1, p.2), z1z1);
    let h = f.sub(u2, u1);
    let r = f.sub(s2, s1);
    if h.is_zero() {
        return if r.is_zero() {
            jac_double(p)
        } else {
            JAC_INFINITY
        };
    }
    let hh = f.mul(h, h);
    let hhh = f.mul(h, hh);
    let v = f.mul(u1, hh);
    let x3 = f.sub(f.sub(f.sub(f.mul(r, r), hhh), v), v);
    let y3 = f.sub(f.mul(r, f.sub(v, x3)), f.mul(s1, hhh));
    Jac(x3, y3, f.mul(f.mul(p.2, q.2), h))
}

pub fn add(p: RefPoint, q: RefPoint) -> RefPoint {
    from_jac(jac_add(to_jac(p), to_jac(q)))
}

/// Binary double-and-add, `k` taken as a plain integer.
pub fn mul_binary(p: RefPoint, k: U256) -> RefPoint {
    let base = to_jac(p);
    let mut acc = JAC_INFINITY;
    for i in (0..k.bits()).rev() {
        acc = jac_double(acc);
        if k.bit(i) {
            acc = jac_add(acc, base);
        }
    }
    from_jac(acc)
}

/// The fixed 4-bit-window multiplication that used to be `Point::mul`.
pub fn mul_window4(p: RefPoint, k: U256) -> RefPoint {
    if k.is_zero() || p.is_none() {
        return None;
    }
    let base = to_jac(p);
    let mut table = [JAC_INFINITY; 15];
    table[0] = base;
    for i in 1..15 {
        table[i] = jac_add(table[i - 1], base);
    }
    let mut acc = JAC_INFINITY;
    for nibble_index in (0..k.bits().div_ceil(4)).rev() {
        for _ in 0..4 {
            acc = jac_double(acc);
        }
        let nibble = (0..4)
            .filter(|b| k.bit(nibble_index * 4 + b))
            .fold(0usize, |acc, b| acc | 1 << b);
        if nibble != 0 {
            acc = jac_add(acc, table[nibble - 1]);
        }
    }
    from_jac(acc)
}

/// `a·G + b·P` as two independent multiplications and an affine addition.
pub fn lincomb(a: U256, b: U256, p: RefPoint) -> RefPoint {
    add(mul_binary(generator(), a), mul_window4(p, b))
}

/// SEC1 compressed decoding with the `pow` square root.
pub fn decode_compressed(bytes: &[u8; 33]) -> Result<RefPoint, CryptoError> {
    let f = fp();
    if bytes[0] != 0x02 && bytes[0] != 0x03 {
        return Err(CryptoError::InvalidPublicKey);
    }
    let x = U256::from_be_bytes(bytes[1..].try_into().unwrap());
    if x >= f.modulus {
        return Err(CryptoError::InvalidPublicKey);
    }
    let rhs = f.add(f.mul(f.mul(x, x), x), U256::from_u64(7));
    let y = f.sqrt_pow(rhs).ok_or(CryptoError::PointNotOnCurve)?;
    let y = if y.bit(0) == (bytes[0] == 0x03) {
        y
    } else {
        f.neg(y)
    };
    Ok(Some((x, y)))
}

fn digest_scalar(digest: &[u8; 32]) -> U256 {
    fn_().reduce(U256::from_be_bytes(digest))
}

pub fn verify(q: RefPoint, digest: &[u8; 32], sig: &Signature) -> Result<(), CryptoError> {
    if q.is_none() || !is_on_curve(q) {
        return Err(CryptoError::InvalidPublicKey);
    }
    let n = fn_();
    let (r, s) = (sig.r().to_u256(), sig.s().to_u256());
    let s_inv = n.inv_fermat(s);
    let u1 = n.mul(digest_scalar(digest), s_inv);
    let u2 = n.mul(r, s_inv);
    match lincomb(u1, u2, q) {
        Some((x, _)) if n.reduce(x) == r => Ok(()),
        _ => Err(CryptoError::VerificationFailed),
    }
}

/// `Q = r⁻¹(s·R − e·G)` by three independent multiplications.
pub fn recover(digest: &[u8; 32], sig: &Signature) -> Result<RefPoint, CryptoError> {
    let n = fn_();
    let (r, s, v) = (sig.r().to_u256(), sig.s().to_u256(), sig.recovery_id());
    let mut x = r;
    if v & 2 != 0 {
        x = x
            .checked_add(&n.modulus)
            .ok_or(CryptoError::InvalidSignature)?;
    }
    if x >= fp().modulus {
        return Err(CryptoError::InvalidSignature);
    }
    let mut compressed = [0u8; 33];
    compressed[0] = if v & 1 != 0 { 0x03 } else { 0x02 };
    compressed[1..].copy_from_slice(&x.to_be_bytes());
    let r_point = decode_compressed(&compressed).map_err(|_| CryptoError::InvalidSignature)?;
    let sr = mul_window4(r_point, s);
    let eg = mul_binary(generator(), digest_scalar(digest));
    let q = mul_window4(add(sr, neg(eg)), n.inv_fermat(r));
    verify(q, digest, sig)?;
    Ok(q)
}
