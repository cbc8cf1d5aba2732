//! ECDSA over secp256k1 with RFC 6979 deterministic nonces.
//!
//! This is the signature scheme of the SmartCrowd prototype (§VII:
//! "SmartCrowd supports ECDSA signature and hashing function SHA-3 …
//! using secp256k1 curve"). Signatures are low-s normalized (as Ethereum
//! requires) and carry a recovery id so that chain records can recover the
//! signer address without shipping the full public key.
//!
//! [`verify`] is one [`Point::lincomb_with_generator`] pass plus one
//! scalar inversion. [`recover_batch`] is, per signature, the square root
//! that lifts `r` to `R` and one such pass, plus one scalar and one field
//! inversion for the whole burst; [`recover`] is the burst of one. It does
//! not re-verify the key it finds, for the reason its doc comment proves.
//! [`verify_batch_known`] checks a burst of signatures against keys that
//! are already known (a sender's key, established by recovering its first
//! record) with one weighted multi-term pass: per signature the square
//! root, an eight-entry table and the additions of one 128-bit weight,
//! with the 129 doublings shared by the whole burst.

use crate::error::CryptoError;
use crate::hmac::hmac_sha256;
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

    let mut v = [0x01u8; 32];
    let mut k = [0x00u8; 32];

    let mut buf = Vec::with_capacity(32 + 1 + 32 + 32);
    buf.extend_from_slice(&v);
    buf.push(0x00);
    buf.extend_from_slice(&x);
    buf.extend_from_slice(&h_reduced);
    k = hmac_sha256(&k, &buf);
    v = hmac_sha256(&k, &v);

    buf.clear();
    buf.extend_from_slice(&v);
    buf.push(0x01);
    buf.extend_from_slice(&x);
    buf.extend_from_slice(&h_reduced);
    k = hmac_sha256(&k, &buf);
    v = hmac_sha256(&k, &v);

    loop {
        v = hmac_sha256(&k, &v);
        if let Ok(candidate) = Scalar::from_be_bytes_nonzero(&v) {
            return candidate;
        }
        let mut retry = Vec::with_capacity(33);
        retry.extend_from_slice(&v);
        retry.push(0x00);
        k = hmac_sha256(&k, &retry);
        v = hmac_sha256(&k, &v);
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
///
/// # Errors
///
/// Returns [`CryptoError::InvalidSignature`] when no point corresponds to
/// the signature's recovery id, or [`CryptoError::InvalidPublicKey`] when
/// the recovered key is the point at infinity (`s·R = e·G`).
pub fn recover(digest: &[u8; 32], sig: &Signature) -> Result<Point, CryptoError> {
    recover_batch(&[(*digest, *sig)]).remove(0)
}

/// [`recover`] of every `(digest, signature)` pair, index-aligned: the
/// same `Ok` point or error variant per item as one `recover` call each,
/// for two modular inversions per burst instead of two per signature.
///
/// Each `R` is lifted on its own, and a signature whose `R` does not
/// exist fails alone. All `r` are inverted together with Montgomery's
/// trick (one [`Scalar::invert`], three multiplications per item; `r ≠ 0`
/// is [`Signature`]'s invariant), and every double multiplication ends in
/// Jacobian coordinates, converted with one field inversion across the
/// burst. A `Q = ∞` has `Z = 0`, stays out of that product and maps to
/// [`CryptoError::InvalidPublicKey`].
pub fn recover_batch(items: &[([u8; 32], Signature)]) -> Vec<Result<Point, CryptoError>> {
    let mut r_inv: Vec<Scalar> = items.iter().map(|(_, sig)| sig.r).collect();
    invert_all(&mut r_inv);
    // Each item's R, replaced below by its key.
    let mut keys: Vec<Result<Point, CryptoError>> =
        items.iter().map(|(_, sig)| lift_r(sig)).collect();
    let inputs = items.iter().zip(&r_inv).zip(&keys);
    let terms = inputs.filter_map(|(((digest, sig), r_inv), r_point)| {
        let r_point = *r_point.as_ref().ok()?;
        let e = Scalar::from_digest(digest);
        // Q = r⁻¹ (s·R − e·G) = (−e·r⁻¹)·G + (s·r⁻¹)·R
        Some((e.mul(r_inv).neg(), sig.s.mul(r_inv), r_point))
    });
    let mut recovered = Point::lincomb_batch(terms).into_iter();
    for key in keys.iter_mut().filter(|key| key.is_ok()) {
        *key = recovered
            .next()
            .filter(|q| !q.is_infinity())
            .ok_or(CryptoError::InvalidPublicKey);
    }
    keys
}

/// Whether every `(digest, signature, k)` item was signed by `keys[k]`:
/// `true` exactly when, per item, [`recover`] would return `keys[k]`,
/// except with probability at most 2⁻¹²⁷ per batch (below). This is how
/// a burst checks the records of a sender whose key an earlier record
/// already established, without one recovery each (Karati et al., "Batch
/// Verification of ECDSA Signatures", AFRICACRYPT 2012).
///
/// Item `i` holds when `u₁ᵢ·G + u₂ᵢ·Q − Rᵢ = ∞`, for `u₁ = e/s`,
/// `u₂ = r/s`, `Q = keys[k]` and the `R` that `r` and the recovery id
/// name: multiplied by `s`, that is `s·R = e·G + r·Q`, so `recover` would
/// find `Q`, and a wrong-parity `v` names `−R` and fails. One Strauss pass
/// ([`Point`]'s multi-term ladder, 129 shared doublings) tests the
/// weighted sum of all of them,
///
/// `(Σ zᵢu₁ᵢ)·G + Σₖ(Σ_{i∈k} zᵢu₂ᵢ)·Qₖ − Σ zᵢ·Rᵢ = ∞`,
///
/// where each `Qₖ` is split by the endomorphism and each `Rᵢ` keeps its
/// 128-bit weight whole. The `s` are inverted together (one
/// [`Scalar::invert`]) and nothing is converted to affine.
///
/// **Soundness.** The weights `zᵢ` are odd 128-bit numbers hashed from
/// the whole batch: every key, digest, signature and key index. If item
/// `i` fails, its term `Dᵢ = u₁ᵢ·G + u₂ᵢ·Qₖ − Rᵢ` is a non-zero point of
/// prime order `n > 2¹²⁸`, so for any fixed other terms at most one of
/// the 2¹²⁷ odd `zᵢ` cancels the sum, and a hash that behaves as a random
/// oracle picks it with probability at most 2⁻¹²⁷. Terms that cancel
/// each other when every weight is one (digests shifted by `+δ·sₐ` and
/// `−δ·s_b`) are what the weights are for. Since the weights depend on
/// every input, a forger who wants a batch accepted must find a batch
/// whose own hash cancels it, one 2⁻¹²⁷ chance per hash evaluated. The
/// weights are a pure function of the input, so a seeded run stays
/// byte-identical.
///
/// `false` covers everything else: an item whose `R` does not exist, a
/// key at infinity or off the curve, and a batch of which any item is
/// bad (which one is for [`recover_batch`] to say). An empty batch holds.
///
/// # Panics
///
/// Panics if an item's `k` is not an index into `keys`.
pub fn verify_batch_known(keys: &[Point], items: &[([u8; 32], Signature, usize)]) -> bool {
    if keys.iter().any(|q| q.is_infinity() || !q.is_on_curve()) {
        return false;
    }
    let mut s_inv: Vec<Scalar> = items.iter().map(|(_, sig, _)| sig.s).collect();
    invert_all(&mut s_inv);
    let weights = batch_weights(keys, items);
    let mut g_coefficient = Scalar::ZERO;
    let mut key_terms: Vec<(Scalar, Point)> = keys.iter().map(|q| (Scalar::ZERO, *q)).collect();
    let mut r_terms = Vec::with_capacity(items.len());
    for (((digest, sig, k), s_inv), z) in items.iter().zip(&s_inv).zip(weights) {
        let Ok(r_point) = lift_r(sig) else {
            return false;
        };
        let z_over_s = Scalar::from_u256_reduced(U256::from_u128(z)).mul(s_inv);
        g_coefficient = g_coefficient.add(&Scalar::from_digest(digest).mul(&z_over_s));
        key_terms[*k].0 = key_terms[*k].0.add(&sig.r.mul(&z_over_s));
        let minus_z = HalfScalar {
            magnitude: z,
            negative: true,
        };
        r_terms.push((minus_z, r_point));
    }
    Point::sums_to_infinity(&g_coefficient, &key_terms, &r_terms)
}

/// The odd 128-bit weight of every item of [`verify_batch_known`]: a seed
/// is hashed from the whole batch, and each SHA-256 of the seed and a
/// counter gives two weights.
fn batch_weights(keys: &[Point], items: &[([u8; 32], Signature, usize)]) -> Vec<u128> {
    let mut transcript = Vec::with_capacity(65 * keys.len() + (32 + 65 + 8) * items.len());
    for q in keys.iter().filter_map(Point::encode_uncompressed) {
        transcript.extend_from_slice(&q);
    }
    for (digest, sig, k) in items {
        transcript.extend_from_slice(digest);
        transcript.extend_from_slice(&sig.to_bytes());
        transcript.extend_from_slice(&(*k as u64).to_be_bytes());
    }
    let mut block = [0u8; 40];
    block[..32].copy_from_slice(&sha256(&transcript));
    (0..items.len().div_ceil(2) as u64)
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
        .take(items.len())
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
