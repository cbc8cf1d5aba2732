//! ECDSA over secp256k1 with RFC 6979 deterministic nonces.
//!
//! This is the signature scheme of the SmartCrowd prototype (§VII:
//! "SmartCrowd supports ECDSA signature and hashing function SHA-3 …
//! using secp256k1 curve"). Signatures are low-s normalized (as Ethereum
//! requires) and carry a recovery id so that chain records can recover the
//! signer address without shipping the full public key.
//!
//! [`verify`] is one [`Point::lincomb_with_generator`] pass plus one
//! scalar inversion. [`recover_groups`] takes groups of signatures that
//! claim one signer each (a record's signature and the payload signature
//! its sender made, or a burst's records of one sender): per group the
//! square root that lifts each `r` to `R` and one Strauss pass, in which
//! the first member names the key and every later one adds an eight-entry
//! table and the additions of one 128-bit weight, plus one scalar and one
//! field inversion for all the groups. [`recover`] is the group of one. It
//! does not re-verify the key it finds, for the reason its doc comment
//! proves; why a larger group may skip one recovery per member is on
//! `recover_groups`.

use crate::address::Address;
use crate::error::CryptoError;
use crate::hmac::HmacSha256;
use crate::point::Point;
use crate::scalar::{HalfScalar, Scalar};
use crate::sha256::sha256;
use crate::u256::U256;
use std::fmt;

/// An ECDSA signature `(r, s)` plus the recovery id `v ∈ {0, 1, 2, 3}`.
///
/// `s` is always in the low half of the scalar range.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    r: Scalar,
    s: Scalar,
    v: u8,
}

impl Signature {
    /// The `r` component.
    pub fn r(&self) -> Scalar {
        self.r
    }

    /// The `s` component (always low-s).
    pub fn s(&self) -> Scalar {
        self.s
    }

    /// The recovery id.
    pub fn recovery_id(&self) -> u8 {
        self.v
    }

    /// Serializes as 65 bytes `r || s || v`.
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..32].copy_from_slice(&self.r.to_be_bytes());
        out[32..64].copy_from_slice(&self.s.to_be_bytes());
        out[64] = self.v;
        out
    }

    /// Parses the 65-byte `r || s || v` form.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] for zero or out-of-range
    /// components, a high `s`, or a recovery id above 3.
    pub fn from_bytes(bytes: &[u8; 65]) -> Result<Self, CryptoError> {
        let mut rb = [0u8; 32];
        let mut sb = [0u8; 32];
        rb.copy_from_slice(&bytes[..32]);
        sb.copy_from_slice(&bytes[32..64]);
        let r = Scalar::from_be_bytes_nonzero(&rb).map_err(|_| CryptoError::InvalidSignature)?;
        let s = Scalar::from_be_bytes_nonzero(&sb).map_err(|_| CryptoError::InvalidSignature)?;
        if s.is_high() || bytes[64] > 3 {
            return Err(CryptoError::InvalidSignature);
        }
        Ok(Signature { r, s, v: bytes[64] })
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(r={}, s={}, v={})",
            self.r.to_u256().to_hex(),
            self.s.to_u256().to_hex(),
            self.v
        )
    }
}

/// Derives the RFC 6979 deterministic nonce for private key `d` and message
/// digest `h1`, returning a scalar in `[1, n)`.
pub(crate) fn rfc6979_nonce(d: &Scalar, h1: &[u8; 32]) -> Scalar {
    let x = d.to_be_bytes();
    // bits2octets(h1) = int2octets(bits2int(h1) mod n)
    let h_reduced = Scalar::from_digest(h1).to_be_bytes();
    // V ‖ separator ‖ int2octets(x) ‖ bits2octets(h1).
    let seed = |v: &[u8; 32], separator: u8| {
        let mut m = [0u8; 32 + 1 + 32 + 32];
        m[..32].copy_from_slice(v);
        m[32] = separator;
        m[33..65].copy_from_slice(&x);
        m[65..].copy_from_slice(&h_reduced);
        m
    };

    // Each K keys two or more MACs, so its pads are absorbed once; the
    // first K is all zeros, whose midstates are constants.
    let v = [0x01u8; 32];
    let k = HmacSha256::new(&HmacSha256::zero().mac(&seed(&v, 0x00)));
    let v = k.mac(&v);
    let mut k = HmacSha256::new(&k.mac(&seed(&v, 0x01)));
    let mut v = k.mac(&v);

    loop {
        v = k.mac(&v);
        if let Ok(candidate) = Scalar::from_be_bytes_nonzero(&v) {
            return candidate;
        }
        let mut retry = [0u8; 33];
        retry[..32].copy_from_slice(&v);
        k = HmacSha256::new(&k.mac(&retry));
        v = k.mac(&v);
    }
}

/// Signs a 32-byte message digest with private scalar `d`.
///
/// The nonce is derived per RFC 6979, so signing is deterministic; `s` is
/// low-s normalized and the recovery id reflects the normalization.
///
/// # Panics
///
/// Panics if `d` is zero (callers hold validated [`crate::keys::PrivateKey`]
/// values, which cannot be zero).
pub fn sign(d: &Scalar, digest: &[u8; 32]) -> Signature {
    assert!(!d.is_zero(), "private scalar must be non-zero");
    let e = Scalar::from_digest(digest);
    let mut nonce = rfc6979_nonce(d, digest);
    loop {
        let r_point = Point::mul_generator(&nonce);
        let (rx, ry_odd) = match r_point {
            Point::Infinity => unreachable!("nonce is in [1, n) so k·G is finite"),
            Point::Affine { x, y } => (x, y.is_odd()),
        };
        let rx_int = rx.to_u256();
        let r = Scalar::from_u256_reduced(rx_int);
        if r.is_zero() {
            nonce = next_nonce(&nonce);
            continue;
        }
        let k_inv = nonce.invert();
        let s = k_inv.mul(&e.add(&r.mul(d)));
        if s.is_zero() {
            nonce = next_nonce(&nonce);
            continue;
        }
        // Recovery id bit 0: parity of R.y; bit 1: R.x overflowed n.
        let mut v = u8::from(ry_odd);
        if rx_int >= Scalar::order() {
            v |= 2;
        }
        let (s, v) = if s.is_high() {
            (s.neg(), v ^ 1) // negating s flips which y-parity verifies
        } else {
            (s, v)
        };
        return Signature { r, s, v };
    }
}

fn next_nonce(k: &Scalar) -> Scalar {
    // Astronomically unlikely path (r or s was zero); step deterministically.
    let bumped = k.add(&Scalar::ONE);
    if bumped.is_zero() {
        Scalar::ONE
    } else {
        bumped
    }
}

/// Verifies `sig` over `digest` against public key point `q`.
///
/// # Errors
///
/// Returns [`CryptoError::VerificationFailed`] when the signature does not
/// match, and [`CryptoError::InvalidPublicKey`] for an off-curve or
/// infinity public key.
pub fn verify(q: &Point, digest: &[u8; 32], sig: &Signature) -> Result<(), CryptoError> {
    if q.is_infinity() || !q.is_on_curve() {
        return Err(CryptoError::InvalidPublicKey);
    }
    let e = Scalar::from_digest(digest);
    let s_inv = sig.s.invert();
    let u1 = e.mul(&s_inv);
    let u2 = sig.r.mul(&s_inv);
    let r_point = Point::lincomb_with_generator(&u1, &u2, q);
    match r_point {
        Point::Infinity => Err(CryptoError::VerificationFailed),
        Point::Affine { x, .. } => {
            if Scalar::from_u256_reduced(x.to_u256()) == sig.r {
                Ok(())
            } else {
                Err(CryptoError::VerificationFailed)
            }
        }
    }
}

/// Recovers the signer's public key point from a signature and digest
/// (Ethereum-style `ecrecover`): `Q = r⁻¹(s·R − e·G)` for the point `R`
/// the recovery id names, one double multiplication.
///
/// The result is not run through [`verify`], because for a finite `Q` that
/// check is an identity. `R` is on the curve with `x(R) ∈ {r, r + n}`, and
/// `r, s ≠ 0` is [`Signature`]'s invariant, so `verify` would compute
/// `(e/s)·G + (r/s)·Q = (e/s)·G + s⁻¹(s·R − e·G) = R`
/// and compare `x(R) mod n` with the `r` that `R` was built from. The only
/// `Q` it could refuse is `Q = ∞`, which is refused here with the error it
/// gave; `Q` is on the curve because `R` and `G` are, and
/// [`crate::keys::recover_public_key`] checks that once on the way out.
/// `kernel_differential.rs` holds this function to the reference `recover`,
/// which keeps its re-verification, on `Ok` value and error variant alike.
/// It is the group of one of [`recover_groups`].
///
/// # Errors
///
/// Returns [`CryptoError::InvalidSignature`] when no point corresponds to
/// the signature's recovery id, or [`CryptoError::InvalidPublicKey`] when
/// the recovered key is the point at infinity (`s·R = e·G`).
pub fn recover(digest: &[u8; 32], sig: &Signature) -> Result<Point, CryptoError> {
    recover_groups(&[(Address::ZERO, &[(*digest, *sig)])]).remove(0)
}

/// Signatures that claim one signer: the address they declare, and the
/// `(digest, signature)` members, the first of which names the key.
pub type Group<'a> = (Address, &'a [([u8; 32], Signature)]);

/// One point `X` per group, index-aligned, from one Strauss pass per group
/// and two modular inversions for all of them: `X` has the group's
/// declared address exactly when every member would [`recover`] to a key
/// with that address, except with probability about 2⁻¹²⁷ (below). A group
/// of one member is [`recover`] of it, `Ok` point and error variant alike,
/// and its declared address is not read.
///
/// **The pass.** The first member names `Q = r₁⁻¹(s₁·R₁ − e₁·G)`. Member
/// `j > 1` recovers to `Q` exactly when `Dⱼ = u₁ⱼ·G + u₂ⱼ·Q − Rⱼ = ∞`
/// for `u₁ = e/s` and `u₂ = r/s` (multiplied by `s`, that is
/// `s·R = e·G + r·Q`; a wrong-parity recovery id names `−R` and fails).
/// The pass computes
///
/// `X = Q − Σⱼ wⱼ·Dⱼ = (c·a₁ − Σⱼ wⱼu₁ⱼ)·G + c·b₁·R₁ + Σⱼ wⱼ·Rⱼ`,
///
/// with `Q = a₁·G + b₁·R₁` substituted (`a₁ = −e₁/r₁`, `b₁ = s₁/r₁`) and
/// `c = 1 − Σⱼ wⱼu₂ⱼ`: `G` and `R₁` are split by the endomorphism, each
/// `Rⱼ` keeps its 128-bit weight `wⱼ` whole, and the 129 doublings are
/// shared by every term ([`Point`]'s multi-term ladder). The `r₁` and the
/// followers' `s` of every group are inverted together (one
/// [`Scalar::invert`]), and every `X` is converted to affine with one
/// field inversion. A member whose `R` does not exist makes its group
/// [`CryptoError::InvalidSignature`]; `X = ∞` is
/// [`CryptoError::InvalidPublicKey`], as for `recover` (an empty group is
/// `InvalidSignature`: no member names a key).
///
/// **Soundness.** If every member recovers to a key `P`, every `Dⱼ` is ∞
/// and `X = Q = P`, with no error term. Otherwise, either every `Dⱼ` is ∞
/// and every member recovers to the same `Q` (so `Q`'s address is not the
/// declared one, or `Q = ∞` and so is `X`), or some `Dᵢ ≠ ∞`. `Dᵢ` then
/// has prime order `n > 2¹²⁸`, so for any fixed other terms the 2¹²⁷ odd
/// weights `wᵢ` give 2¹²⁷ distinct `X`, and at most one of them is any
/// given key. The weights are hashed from the declared address and every
/// member's digest and signature, so the key a forger wants `X` to be (the
/// one behind the declared address) is fixed before they are drawn: a hash
/// that behaves as a random oracle lands on it with probability at most
/// 2⁻¹²⁷ per evaluation, and on another key with the same address only
/// through a 160-bit address collision. Terms that cancel each other when
/// every weight is one (digests shifted by `+δ·sₐ` and `−δ·s_b`) are what
/// the weights are for. The weights are a pure function of the input, so
/// a seeded run stays byte-identical.
pub fn recover_groups(groups: &[Group<'_>]) -> Vec<Result<Point, CryptoError>> {
    if groups.is_empty() {
        return Vec::new(); // and no inversion of an empty product
    }
    // Every member's `R`, or the error of the first that does not exist.
    let lifted: Vec<Result<Vec<Point>, CryptoError>> = groups
        .iter()
        .map(|(_, members)| match members {
            [] => Err(CryptoError::InvalidSignature),
            _ => members.iter().map(|(_, sig)| lift_r(sig)).collect(),
        })
        .collect();
    let liftable = || {
        groups
            .iter()
            .zip(&lifted)
            .filter_map(|((signer, members), r_points)| {
                Some((signer, *members, r_points.as_ref().ok()?))
            })
    };
    // Per group its first member's `r`, then each follower's `s`.
    let mut inverses: Vec<Scalar> = liftable()
        .flat_map(|(_, members, _)| {
            let first = members.iter().take(1).map(|(_, sig)| sig.r);
            first.chain(members.iter().skip(1).map(|(_, sig)| sig.s))
        })
        .collect();
    invert_all(&mut inverses);
    let mut offset = 0;
    let sums: Vec<_> = liftable()
        .map(|(signer, members, r_points)| {
            let inverses = &inverses[offset..offset + members.len()];
            offset += members.len();
            let (e1, first) = &members[0];
            let a1 = Scalar::from_digest(e1).mul(&inverses[0]).neg();
            let b1 = first.s.mul(&inverses[0]);
            // Σ wⱼu₁ⱼ and Σ wⱼu₂ⱼ over the followers.
            let (mut g_sum, mut q_sum) = (Scalar::ZERO, Scalar::ZERO);
            let mut r_terms = Vec::with_capacity(members.len() - 1);
            let followers = members.iter().zip(r_points).zip(inverses).skip(1);
            for ((((digest, sig), r_point), s_inv), w) in
                followers.zip(group_weights(signer, members))
            {
                let w_over_s = Scalar::from_u256_reduced(U256::from_u128(w)).mul(s_inv);
                g_sum = g_sum.add(&Scalar::from_digest(digest).mul(&w_over_s));
                q_sum = q_sum.add(&sig.r.mul(&w_over_s));
                let weight = HalfScalar {
                    magnitude: w,
                    negative: false,
                };
                r_terms.push((weight, *r_point));
            }
            let c = Scalar::ONE.sub(&q_sum);
            (c.mul(&a1).sub(&g_sum), c.mul(&b1), r_points[0], r_terms)
        })
        .collect();
    let mut keys = Point::lincomb_sums(&sums).into_iter();
    lifted
        .into_iter()
        .map(|r_points| {
            r_points?;
            keys.next()
                .filter(|x| !x.is_infinity())
                .ok_or(CryptoError::InvalidPublicKey)
        })
        .collect()
}

/// The odd 128-bit weight of every follower of a [`recover_groups`] group:
/// a seed is hashed from the declared address and every member, and each
/// SHA-256 of the seed and a counter gives two weights. A group of one
/// hashes nothing.
fn group_weights(signer: &Address, members: &[([u8; 32], Signature)]) -> Vec<u128> {
    let followers = members.len() - 1;
    if followers == 0 {
        return Vec::new();
    }
    let mut transcript = Vec::with_capacity(20 + (32 + 65) * members.len());
    transcript.extend_from_slice(signer.as_bytes());
    for (digest, sig) in members {
        transcript.extend_from_slice(digest);
        transcript.extend_from_slice(&sig.to_bytes());
    }
    let mut block = [0u8; 40];
    block[..32].copy_from_slice(&sha256(&transcript));
    (0..followers.div_ceil(2) as u64)
        .flat_map(|counter| {
            block[32..].copy_from_slice(&counter.to_be_bytes());
            let h = sha256(&block);
            let half = |at: usize| {
                let mut bytes = [0u8; 16];
                bytes.copy_from_slice(&h[at..at + 16]);
                u128::from_be_bytes(bytes) | 1
            };
            [half(0), half(16)]
        })
        .take(followers)
        .collect()
}

/// The point `R` a signature's `r` and recovery id name: `x = r` (or
/// `r + n` when bit 1 is set) and the `y` of bit 0's parity.
fn lift_r(sig: &Signature) -> Result<Point, CryptoError> {
    let mut x = sig.r.to_u256();
    if sig.v & 2 != 0 {
        x = x
            .checked_add(&Scalar::order())
            .ok_or(CryptoError::InvalidSignature)?;
    }
    if x >= crate::field::FieldElement::prime() {
        return Err(CryptoError::InvalidSignature);
    }
    let xb = x.to_be_bytes();
    let mut compressed = [0u8; 33];
    compressed[0] = if sig.v & 1 != 0 { 0x03 } else { 0x02 };
    compressed[1..].copy_from_slice(&xb);
    Point::decode(&compressed).map_err(|_| CryptoError::InvalidSignature)
}

/// Replaces non-zero scalars by their inverses with one [`Scalar::invert`]
/// (Montgomery's trick: invert the product, then peel one factor off per
/// item, walking back).
fn invert_all(scalars: &mut [Scalar]) {
    let mut prefix = Vec::with_capacity(scalars.len());
    let mut acc = Scalar::ONE;
    for k in scalars.iter() {
        debug_assert!(!k.is_zero(), "a zero would zero every inverse");
        prefix.push(acc);
        acc = acc.mul(k);
    }
    let mut inv = acc.invert();
    for (k, before) in scalars.iter_mut().zip(prefix).rev() {
        let k_inv = inv.mul(&before);
        inv = inv.mul(k);
        *k = k_inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use crate::sha256::sha256;
    use crate::u256::U256;

    fn scalar_from_hex(s: &str) -> Scalar {
        Scalar::from_u256_reduced(U256::from_hex(s).unwrap())
    }

    // RFC 6979 deterministic-k vectors for secp256k1 (the widely used
    // Trezor/Bitcoin-Core set; low-s normalized signatures).
    #[test]
    fn rfc6979_nonce_key1_satoshi() {
        let d = Scalar::from_u64(1);
        let h = sha256(b"Satoshi Nakamoto");
        let k = rfc6979_nonce(&d, &h);
        assert_eq!(
            hex::encode(&k.to_be_bytes()),
            "8f8a276c19f4149656b280621e358cce24f5f52542772691ee69063b74f15d15"
        );
    }

    #[test]
    fn sign_key1_satoshi_known_signature() {
        let d = Scalar::from_u64(1);
        let h = sha256(b"Satoshi Nakamoto");
        let sig = sign(&d, &h);
        assert_eq!(
            hex::encode(&sig.r().to_be_bytes()),
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        );
        assert_eq!(
            hex::encode(&sig.s().to_be_bytes()),
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"
        );
    }

    #[test]
    fn sign_key1_blade_runner_known_signature() {
        let d = Scalar::from_u64(1);
        let h =
            sha256(b"All those moments will be lost in time, like tears in rain. Time to die...");
        let sig = sign(&d, &h);
        assert_eq!(
            hex::encode(&sig.r().to_be_bytes()),
            "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b"
        );
        assert_eq!(
            hex::encode(&sig.s().to_be_bytes()),
            "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21"
        );
    }

    #[test]
    fn sign_key_nminus1_roundtrips_and_is_low_s() {
        // Edge-case private key d = n − 1 (the largest valid scalar).
        let d = scalar_from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140");
        let q = Point::generator().mul(&d);
        let h = sha256(b"Satoshi Nakamoto");
        let sig = sign(&d, &h);
        assert!(!sig.s().is_high());
        assert!(verify(&q, &h, &sig).is_ok());
        assert_eq!(recover(&h, &sig).unwrap(), q);
        // Deterministic: same key + digest → same signature.
        assert_eq!(sign(&d, &h), sig);
    }

    #[test]
    fn sign_verify_roundtrip_many_keys() {
        for seed in 1u64..=10 {
            let d = Scalar::from_u64(seed * 7919);
            let q = Point::generator().mul(&d);
            let h = sha256(&seed.to_be_bytes());
            let sig = sign(&d, &h);
            assert!(verify(&q, &h, &sig).is_ok(), "seed {seed}");
        }
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let d = Scalar::from_u64(42);
        let q = Point::generator().mul(&d);
        let sig = sign(&d, &sha256(b"original"));
        assert_eq!(
            verify(&q, &sha256(b"tampered"), &sig),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let d = Scalar::from_u64(42);
        let other = Point::generator().mul(&Scalar::from_u64(43));
        let h = sha256(b"msg");
        let sig = sign(&d, &h);
        assert_eq!(
            verify(&other, &h, &sig),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn verify_rejects_infinity_key() {
        let d = Scalar::from_u64(5);
        let h = sha256(b"msg");
        let sig = sign(&d, &h);
        assert_eq!(
            verify(&Point::Infinity, &h, &sig),
            Err(CryptoError::InvalidPublicKey)
        );
    }

    #[test]
    fn signatures_are_low_s() {
        for seed in 1u64..=25 {
            let d = Scalar::from_u64(seed);
            let sig = sign(&d, &sha256(&seed.to_le_bytes()));
            assert!(!sig.s().is_high(), "seed {seed}");
        }
    }

    #[test]
    fn signing_is_deterministic() {
        let d = Scalar::from_u64(1234);
        let h = sha256(b"same message");
        assert_eq!(sign(&d, &h), sign(&d, &h));
    }

    #[test]
    fn recover_finds_signer() {
        for seed in [1u64, 7, 99, 123456789] {
            let d = Scalar::from_u64(seed);
            let q = Point::generator().mul(&d);
            let h = sha256(&seed.to_be_bytes());
            let sig = sign(&d, &h);
            assert_eq!(recover(&h, &sig).unwrap(), q, "seed {seed}");
        }
    }

    #[test]
    fn recover_with_wrong_digest_gives_different_key() {
        let d = Scalar::from_u64(77);
        let q = Point::generator().mul(&d);
        let sig = sign(&d, &sha256(b"a"));
        // An Err is also acceptable: recovery may fail outright.
        if let Ok(other) = recover(&sha256(b"b"), &sig) {
            assert_ne!(other, q);
        }
    }

    #[test]
    fn recover_refuses_the_key_at_infinity() {
        // R = k·G and s = e/k make s·R = e·G, so Q = r⁻¹(s·R − e·G) = ∞:
        // the one outcome `recover` has to refuse itself now that it does
        // not hand its result to `verify`.
        let h = sha256(b"infinity");
        let e = Scalar::from_digest(&h);
        let k = Scalar::from_u64(2019);
        let Point::Affine { x, y } = Point::mul_generator(&k) else {
            unreachable!("k is in [1, n)")
        };
        let sig = Signature {
            r: Scalar::from_u256_reduced(x.to_u256()),
            s: e.mul(&k.invert()),
            v: u8::from(y.is_odd()),
        };
        assert_eq!(recover(&h, &sig), Err(CryptoError::InvalidPublicKey));
        assert_eq!(
            crate::keys::recover_public_key(&h, &sig),
            Err(CryptoError::InvalidPublicKey)
        );
        // −R instead of R: Q = r⁻¹(−2e·G), finite, and it verifies.
        let other = Signature {
            v: sig.v ^ 1,
            ..sig
        };
        let q = recover(&h, &other).unwrap();
        assert_eq!(
            q,
            Point::mul_generator(&e.add(&e).mul(&sig.r.invert()).neg())
        );
        assert_eq!(verify(&q, &h, &other), Ok(()));
    }

    #[test]
    fn high_s_twin_verifies_and_recovers_like_low_s() {
        // `from_bytes` refuses high s, so only code inside the crate can
        // build one; (r, n − s) with the parity bit flipped is the same
        // signature as far as the curve equation goes.
        let d = Scalar::from_u64(2019);
        let q = Point::mul_generator(&d);
        let h = sha256(b"high s");
        let low = sign(&d, &h);
        let high = Signature {
            r: low.r,
            s: low.s.neg(),
            v: low.v ^ 1,
        };
        assert!(high.s.is_high());
        assert_eq!(verify(&q, &h, &high), Ok(()));
        assert_eq!(recover(&h, &high), Ok(q));
        // Without the parity flip the recovered point is another key.
        let unflipped = Signature { v: low.v, ..high };
        assert_ne!(recover(&h, &unflipped), Ok(q));
    }

    #[test]
    fn signature_byte_roundtrip() {
        let d = Scalar::from_u64(31415);
        let sig = sign(&d, &sha256(b"serialize me"));
        let bytes = sig.to_bytes();
        assert_eq!(Signature::from_bytes(&bytes).unwrap(), sig);
    }

    #[test]
    fn signature_parse_rejects_invalid() {
        let mut zero = [0u8; 65];
        assert!(Signature::from_bytes(&zero).is_err());
        // r = 1, s = 1, v = 4 (bad v)
        zero[31] = 1;
        zero[63] = 1;
        zero[64] = 4;
        assert!(Signature::from_bytes(&zero).is_err());
        zero[64] = 0;
        assert!(Signature::from_bytes(&zero).is_ok());
        // high s rejected
        let mut high = zero;
        high[32..64].copy_from_slice(
            &scalar_from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140")
                .to_be_bytes(),
        );
        assert!(Signature::from_bytes(&high).is_err());
    }
}
