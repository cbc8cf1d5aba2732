//! Differential tests of the secp256k1 kernel against the arithmetic it
//! replaced (`reference/`): the p-specialised field, the constant-modulus
//! scalar field, the four-string Strauss–Shamir `lincomb_with_generator`
//! (scalars split by the endomorphism), and `verify` / `recover` — same
//! value, same `Ok`/`Err`, same error variant, on random inputs and on the
//! operands a peer would pick to break a ladder or a split. The reference
//! `recover` re-verifies the key it found; the kernel's does not, and
//! `assert_ecdsa_agrees` is what shows the two cannot be told apart.

mod reference;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use smartcrowd_crypto::ecdsa::{self, Signature};
use smartcrowd_crypto::field::FieldElement;
use smartcrowd_crypto::keys::recover_public_key;
use smartcrowd_crypto::point::Point;
use smartcrowd_crypto::scalar::Scalar;
use smartcrowd_crypto::sha256::sha256;
use smartcrowd_crypto::u256::U256;
use smartcrowd_crypto::{Address, CryptoError, PublicKey};

fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256::from_limbs)
}

/// Random field elements, one in five replaced by a boundary value.
fn arb_fe() -> impl Strategy<Value = FieldElement> {
    (arb_u256(), 0..5 * FORCED_FE).prop_map(|(v, pick)| match forced_fe().get(pick) {
        Some(forced) => *forced,
        None => FieldElement::from_u256_reduced(v),
    })
}

const FORCED_FE: usize = 6;

/// 0, 1, 2, p−2, p−1 and 2²⁵⁶−1 reduced.
fn forced_fe() -> [FieldElement; FORCED_FE] {
    let p = FieldElement::prime();
    [
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        p.wrapping_sub(&U256::from_u64(2)),
        p.wrapping_sub(&U256::ONE),
        U256::MAX,
    ]
    .map(FieldElement::from_u256_reduced)
}

/// Random scalars, one in five replaced by 0, 1, n−1, ⌊n/2⌋ or 2²⁵⁶−1
/// reduced.
fn arb_scalar() -> impl Strategy<Value = Scalar> {
    (arb_u256(), 0usize..25).prop_map(|(v, pick)| {
        let forced = [
            U256::ZERO,
            U256::ONE,
            Scalar::order().wrapping_sub(&U256::ONE),
            Scalar::order().shr(1),
            U256::MAX,
        ];
        Scalar::from_u256_reduced(*forced.get(pick).unwrap_or(&v))
    })
}

/// `FOLD⁻¹ mod 2²⁵⁶` for `FOLD = 2³² + 977` (Newton's iteration doubles
/// the correct low bits each round).
fn fold_inverse() -> U256 {
    let fold = U256::from_u64(FOLD);
    let mut x = U256::ONE;
    for _ in 0..8 {
        let two_minus = U256::from_u64(2).wrapping_sub(&fold.wrapping_mul(&x));
        x = x.wrapping_mul(&two_minus);
    }
    assert_eq!(fold.wrapping_mul(&x), U256::ONE);
    x
}

const FOLD: u64 = (1 << 32) + 977;

/// Whether reducing `a·b` takes the rare path where the *second* fold of
/// the high limbs carries out of 256 bits.
fn second_fold_carries(a: &FieldElement, b: &FieldElement) -> bool {
    let wide = a.to_u256().mul_wide(&b.to_u256());
    let lo = U256::from_limbs([wide[0], wide[1], wide[2], wide[3]]);
    let hi = U256::from_limbs([wide[4], wide[5], wide[6], wide[7]]);
    let folded = hi.mul_wide(&U256::from_u64(FOLD));
    let (low, carry) =
        U256::from_limbs([folded[0], folded[1], folded[2], folded[3]]).overflowing_add(&lo);
    let fifth = u128::from(folded[4]) + u128::from(carry);
    low.overflowing_add(&U256::from_u128(fifth * u128::from(FOLD)))
        .1
}

/// A pair whose product makes the second fold carry: `a = 2²⁵⁵` turns
/// `a·b` into `hi = b/2, lo = 0`, and `hi` is solved from
/// `hi·FOLD ≡ −delta (mod 2²⁵⁶)` so the first fold lands `delta` short of
/// 2²⁵⁶. `None` for the half of the deltas whose solution exceeds 2²⁵⁵.
fn carrying_pair(delta: u64) -> Option<(FieldElement, FieldElement)> {
    let hi = U256::ZERO
        .wrapping_sub(&U256::from_u64(delta))
        .wrapping_mul(&fold_inverse());
    if hi.bit(255) {
        return None;
    }
    let a = FieldElement::from_u256_reduced(U256::ONE.shl(255));
    let b = FieldElement::from_u256_reduced(hi.shl(1));
    second_fold_carries(&a, &b).then_some((a, b))
}

/// A signature from raw parts, through the only door a peer has.
fn sig_from_parts(r: U256, s: U256, v: u8) -> Result<Signature, CryptoError> {
    let mut bytes = [0u8; 65];
    bytes[..32].copy_from_slice(&r.to_be_bytes());
    bytes[32..64].copy_from_slice(&s.to_be_bytes());
    bytes[64] = v;
    Signature::from_bytes(&bytes)
}

/// `recover` and `verify` against the reference on one input.
fn assert_ecdsa_agrees(digest: &[u8; 32], sig: &Signature) -> Result<(), TestCaseError> {
    let got = ecdsa::recover(digest, sig);
    let want = reference::recover(digest, sig).map(reference::to_point);
    prop_assert_eq!(got, want, "recover, sig = {:?}", sig);
    if let Ok(q) = got {
        prop_assert_eq!(ecdsa::verify(&q, digest, sig), Ok(()));
    }
    Ok(())
}

/// One group member: a digest and a signature over it (or not).
type Signed = ([u8; 32], Signature);

/// A burst of groups of one against one `recover` per item: the same
/// length, and per index the same `Ok` point or the same error variant.
/// A group of one does not read its declared address.
fn assert_singletons_agree(burst: &[Signed]) -> Result<(), TestCaseError> {
    let groups: Vec<ecdsa::Group<'_>> = burst
        .iter()
        .enumerate()
        .map(|(i, item)| {
            (
                Address::from_label(&i.to_string()),
                std::slice::from_ref(item),
            )
        })
        .collect();
    let got = ecdsa::recover_groups(&groups);
    prop_assert_eq!(got.len(), burst.len());
    for (index, ((digest, sig), got)) in burst.iter().zip(got).enumerate() {
        prop_assert_eq!(got, ecdsa::recover(digest, sig), "index {}", index);
    }
    Ok(())
}

/// A valid signature, re-labelled with each of the four recovery ids;
/// returns the four for a batch check.
fn check_every_recovery_id(d: &Scalar, msg: &[u8; 32]) -> Result<Vec<Signed>, TestCaseError> {
    let sig = ecdsa::sign(d, msg);
    let mut burst = Vec::new();
    for v in 0..4 {
        let other = sig_from_parts(sig.r().to_u256(), sig.s().to_u256(), v).unwrap();
        assert_ecdsa_agrees(msg, &other)?;
        burst.push((*msg, other));
    }
    Ok(burst)
}

/// Components no signer produced. `small_r` is below p − n ≈ 2¹²⁸·1.27, so
/// with v ≥ 2 the x candidate r + n stays inside the field — the only way
/// to reach that branch; a full-width r exercises r + n ≥ p. Returns the
/// signatures that parsed, for a batch check.
fn check_arbitrary_components(
    r: U256,
    small_r: u128,
    s: Scalar,
    v: u8,
    msg: &[u8; 32],
) -> Result<Vec<Signed>, TestCaseError> {
    let mut burst = Vec::new();
    for r in [r, U256::from_u128(small_r)] {
        let s = if s.is_high() { s.neg() } else { s };
        match sig_from_parts(r, s.to_u256(), v) {
            Ok(sig) => {
                assert_ecdsa_agrees(msg, &sig)?;
                burst.push((*msg, sig));
            }
            Err(e) => prop_assert_eq!(e, CryptoError::InvalidSignature),
        }
    }
    Ok(burst)
}

/// The signature whose recovered key is the point at infinity: with
/// `R = k·G`, `r = x(R) mod n` and `s = e/k`, `s·R = e·G` and
/// `Q = r⁻¹(s·R − e·G) = ∞`. `k` is stepped until `s` is low, as
/// `Signature::from_bytes` demands.
fn signature_recovering_infinity(digest: &[u8; 32]) -> Signature {
    let e = Scalar::from_digest(digest);
    let mut k = Scalar::from_digest(&sha256(digest));
    loop {
        let s = e.mul(&k.invert());
        if let (false, Point::Affine { x, y }) = (s.is_high(), Point::mul_generator(&k)) {
            let over = x.to_u256() >= Scalar::order();
            let v = u8::from(y.is_odd()) | u8::from(over) << 1;
            let r = Scalar::from_u256_reduced(x.to_u256());
            if let Ok(sig) = sig_from_parts(r.to_u256(), s.to_u256(), v) {
                return sig;
            }
        }
        k = k.add(&Scalar::ONE);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // ---- F_p ----------------------------------------------------------------

    #[test]
    fn field_ops_match_reference(a in arb_fe(), b in arb_fe()) {
        let f = reference::fp();
        let (x, y) = (a.to_u256(), b.to_u256());
        prop_assert_eq!(a.mul(&b).to_u256(), f.mul(x, y));
        prop_assert_eq!(a.square().to_u256(), f.mul(x, x));
        prop_assert_eq!(a.add(&b).to_u256(), f.add(x, y));
        prop_assert_eq!(a.sub(&b).to_u256(), f.sub(x, y));
        prop_assert_eq!(a.neg().to_u256(), f.neg(x));
        prop_assert_eq!(FieldElement::from_u256_reduced(x).to_u256(), f.reduce(x));
    }

    #[test]
    fn field_sqrt_matches_pow_reference(a in arb_fe()) {
        let f = reference::fp();
        // A square (always has a root) and a raw element (half do not).
        for v in [a.square(), a] {
            prop_assert_eq!(v.sqrt().map(|r| r.to_u256()), f.sqrt_pow(v.to_u256()));
        }
    }

    #[test]
    fn field_mul_second_fold_carry(delta in 1u64..u64::MAX) {
        let f = reference::fp();
        if let Some((a, b)) = carrying_pair(delta) {
            prop_assert_eq!(a.mul(&b).to_u256(), f.mul(a.to_u256(), b.to_u256()));
            prop_assert_eq!(b.mul(&a).to_u256(), f.mul(a.to_u256(), b.to_u256()));
        }
    }

    // ---- F_n ----------------------------------------------------------------

    #[test]
    fn scalar_ops_match_reference(a in arb_scalar(), b in arb_scalar(), raw in arb_u256()) {
        let n = reference::fn_();
        let (x, y) = (a.to_u256(), b.to_u256());
        prop_assert_eq!(a.mul(&b).to_u256(), n.mul(x, y));
        prop_assert_eq!(a.add(&b).to_u256(), n.add(x, y));
        prop_assert_eq!(a.sub(&b).to_u256(), n.sub(x, y));
        prop_assert_eq!(a.neg().to_u256(), n.neg(x));
        prop_assert_eq!(Scalar::from_u256_reduced(raw).to_u256(), n.reduce(raw));
        prop_assert_eq!(Scalar::from_digest(&raw.to_be_bytes()).to_u256(), n.reduce(raw));
        prop_assert_eq!(a.is_high(), x > n.modulus.shr(1));
    }
}

proptest! {
    // Every case runs the reference's inversions and multiplications
    // (milliseconds each), so these take fewer cases.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn inversions_match_fermat(a in arb_fe(), k in arb_scalar()) {
        prop_assert_eq!(a.invert().to_u256(), reference::fp().inv_fermat(a.to_u256()));
        prop_assert_eq!(k.invert().to_u256(), reference::fn_().inv_fermat(k.to_u256()));
    }

    // ---- the group ----------------------------------------------------------

    #[test]
    fn multiplications_match_reference(k in arb_scalar(), seed in arb_scalar()) {
        let g = reference::generator();
        let p = reference::mul_binary(g, seed.to_u256());
        let got_p = reference::to_point(p);
        prop_assert_eq!(Point::mul_generator(&seed), got_p);
        let want = reference::to_point(reference::mul_binary(p, k.to_u256()));
        prop_assert_eq!(got_p.mul(&k), want);
        prop_assert_eq!(reference::to_point(reference::mul_window4(p, k.to_u256())), want);
    }

    #[test]
    fn lincomb_matches_two_multiplications(
        a in arb_scalar(),
        b in arb_scalar(),
        seed in arb_scalar(),
    ) {
        let p = Point::mul_generator(&seed);
        let want = reference::lincomb(a.to_u256(), b.to_u256(), reference::from_point(&p));
        prop_assert_eq!(Point::lincomb_with_generator(&a, &b, &p), reference::to_point(want));
    }

    #[test]
    fn lincomb_cancellation_gives_infinity(b in arb_scalar(), seed in arb_scalar()) {
        // a·G = −b·P with P = seed·G, i.e. a = −b·seed.
        let p = Point::mul_generator(&seed);
        let a = b.mul(&seed).neg();
        prop_assert_eq!(Point::lincomb_with_generator(&a, &b, &p), Point::Infinity);
        // … and one step away from cancelling it is ±G.
        let near = Point::lincomb_with_generator(&a.add(&Scalar::ONE), &b, &p);
        prop_assert_eq!(near, Point::generator());
    }

    #[test]
    fn decode_matches_reference(x in arb_u256(), odd in any::<bool>()) {
        let mut bytes = [0u8; 33];
        bytes[0] = if odd { 0x03 } else { 0x02 };
        bytes[1..].copy_from_slice(&x.to_be_bytes());
        let want = reference::decode_compressed(&bytes).map(reference::to_point);
        prop_assert_eq!(Point::decode(&bytes), want);
    }

    // ---- ECDSA --------------------------------------------------------------

    #[test]
    fn ecdsa_valid_signatures(d in arb_scalar(), msg in any::<[u8; 32]>()) {
        prop_assume!(!d.is_zero());
        let sig = ecdsa::sign(&d, &msg);
        let q = Point::mul_generator(&d);
        prop_assert_eq!(ecdsa::recover(&msg, &sig), Ok(q));
        prop_assert_eq!(ecdsa::verify(&q, &msg, &sig), Ok(()));
        prop_assert_eq!(reference::verify(reference::from_point(&q), &msg, &sig), Ok(()));
        assert_ecdsa_agrees(&msg, &sig)?;
    }

    #[test]
    fn ecdsa_bit_flipped_digest(d in arb_scalar(), msg in any::<[u8; 32]>(), flip in 0usize..256) {
        prop_assume!(!d.is_zero());
        let sig = ecdsa::sign(&d, &msg);
        let q = Point::mul_generator(&d);
        let mut other = msg;
        other[flip / 8] ^= 1 << (flip % 8);
        prop_assert_eq!(
            ecdsa::verify(&q, &other, &sig),
            reference::verify(reference::from_point(&q), &other, &sig)
        );
        prop_assert_eq!(ecdsa::verify(&q, &other, &sig), Err(CryptoError::VerificationFailed));
        assert_ecdsa_agrees(&other, &sig)?;
    }

    #[test]
    fn ecdsa_every_recovery_id(d in arb_scalar(), msg in any::<[u8; 32]>()) {
        prop_assume!(!d.is_zero());
        check_every_recovery_id(&d, &msg)?;
    }

    #[test]
    fn ecdsa_arbitrary_components(
        r in arb_u256(),
        small_r in any::<u128>(),
        s in arb_scalar(),
        v in 0u8..4,
        msg in any::<[u8; 32]>(),
    ) {
        check_arbitrary_components(r, small_r, s, v, &msg)?;
    }

    #[test]
    fn ecdsa_recovering_infinity(msg in any::<[u8; 32]>()) {
        prop_assume!(!Scalar::from_digest(&msg).is_zero());
        let sig = signature_recovering_infinity(&msg);
        prop_assert_eq!(ecdsa::recover(&msg, &sig), Err(CryptoError::InvalidPublicKey));
        assert_ecdsa_agrees(&msg, &sig)?;
    }

    #[test]
    fn ecdsa_batch_matches_recover(
        d in arb_scalar(),
        r in arb_u256(),
        small_r in any::<u128>(),
        s in arb_scalar(),
        v in 0u8..4,
        msg in any::<[u8; 32]>(),
        rotate in 0usize..16,
    ) {
        prop_assume!(!d.is_zero() && !Scalar::from_digest(&msg).is_zero());
        // Each item is held to the reference by the checks that build the
        // burst; the batch is held to those items.
        let mut burst = check_every_recovery_id(&d, &msg)?;
        burst.extend(check_arbitrary_components(r, small_r, s, v, &msg)?);
        let infinity = signature_recovering_infinity(&msg);
        assert_ecdsa_agrees(&msg, &infinity)?;
        burst.push((msg, infinity));
        // Duplicates: the first item again, and the Q = ∞ one twice.
        burst.extend([burst[0], (msg, infinity)]);
        let len = burst.len();
        burst.rotate_left(rotate % len);
        assert_singletons_agree(&burst)?;
    }

    #[test]
    fn ecdsa_verify_under_wrong_or_invalid_key(
        d in arb_scalar(),
        other in arb_scalar(),
        msg in any::<[u8; 32]>(),
    ) {
        prop_assume!(!d.is_zero());
        let sig = ecdsa::sign(&d, &msg);
        let wrong = Point::mul_generator(&other);
        let off_curve = Point::Affine {
            x: FieldElement::from_u256_reduced(other.to_u256()),
            y: FieldElement::from_u256_reduced(d.to_u256()),
        };
        for q in [wrong, off_curve, Point::Infinity] {
            prop_assert_eq!(
                ecdsa::verify(&q, &msg, &sig),
                reference::verify(reference::from_point(&q), &msg, &sig)
            );
        }
    }
}

#[test]
fn field_forced_operand_grid() {
    let f = reference::fp();
    for a in forced_fe() {
        assert_eq!(a.sqrt().map(|r| r.to_u256()), f.sqrt_pow(a.to_u256()));
        assert_eq!(a.invert().to_u256(), f.inv_fermat(a.to_u256()));
        for b in forced_fe() {
            assert_eq!(a.mul(&b).to_u256(), f.mul(a.to_u256(), b.to_u256()));
            assert_eq!(a.add(&b).to_u256(), f.add(a.to_u256(), b.to_u256()));
            assert_eq!(a.sub(&b).to_u256(), f.sub(a.to_u256(), b.to_u256()));
        }
    }
}

/// Inversion inputs below `m` that stress the divstep batches: 1, 2, 3,
/// m − 1 and m − 2; 2ᵏ, m − 2ᵏ and 2ᵏ − 1 for every k below 256; values
/// with k ≥ 62 trailing zero bits, whose first batch only halves; and the
/// fold constant 2²⁵⁶ − m.
fn inversion_edges(m: U256) -> Vec<U256> {
    let small = U256::from_u64;
    let mut edges = vec![
        small(1),
        small(2),
        small(3),
        m.wrapping_sub(&small(1)),
        m.wrapping_sub(&small(2)),
        U256::ZERO.wrapping_sub(&m),
    ];
    for k in 0..256 {
        let pow = U256::ONE.shl(k);
        edges.extend([pow, m.wrapping_sub(&pow), pow.wrapping_sub(&U256::ONE)]);
    }
    for k in 62..256 {
        let high_bits = |v: U256| v.shr(k).shl(k);
        edges.extend([high_bits(m.wrapping_sub(&small(1))), high_bits(m.shr(1))]);
    }
    edges
}

#[test]
fn inversion_edge_grid() {
    assert_eq!(FieldElement::ZERO.invert(), FieldElement::ZERO);
    assert_eq!(Scalar::ZERO.invert(), Scalar::ZERO);
    let f = reference::fp();
    for x in inversion_edges(f.modulus) {
        let a = FieldElement::from_u256_reduced(x);
        assert_eq!(a.to_u256(), x, "{x:?} is below p");
        assert_eq!(a.invert().to_u256(), f.inv_fermat(x), "{x:?}⁻¹ mod p");
    }
    let n = reference::fn_();
    for x in inversion_edges(n.modulus) {
        let k = Scalar::from_u256_reduced(x);
        assert_eq!(k.to_u256(), x, "{x:?} is below n");
        assert_eq!(k.invert().to_u256(), n.inv_fermat(x), "{x:?}⁻¹ mod n");
    }
}

/// The nightly sweep (`-- --ignored`) of 2²⁰ random inversions per
/// modulus. An inverse is unique, so `a·a⁻¹ = 1` pins each one; one in
/// 1 024 is also held to Fermat.
#[test]
#[ignore]
fn inversion_sweep() {
    let (f, n) = (reference::fp(), reference::fn_());
    // splitmix64, seeded with the first 64 bits of π's fraction.
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in 0..1 << 20 {
        let x = U256::from_limbs([next(), next(), next(), next()]);
        let a = FieldElement::from_u256_reduced(x);
        let k = Scalar::from_u256_reduced(x);
        assert_eq!(a.mul(&a.invert()), FieldElement::ONE, "{x:?}⁻¹ mod p");
        assert_eq!(k.mul(&k.invert()), Scalar::ONE, "{x:?}⁻¹ mod n");
        if i % 1024 == 0 {
            assert_eq!(a.invert().to_u256(), f.inv_fermat(a.to_u256()));
            assert_eq!(k.invert().to_u256(), n.inv_fermat(k.to_u256()));
        }
    }
}

#[test]
fn second_fold_carry_pairs_exist() {
    // The generator above is not vacuous: about half of all deltas yield a
    // pair, and each one really takes the carry path.
    let found = (1..200u64).filter_map(carrying_pair).count();
    assert!(found > 50, "only {found} carrying pairs in 1..200");
    assert!(!second_fold_carries(
        &FieldElement::ONE,
        &FieldElement::from_u64(7)
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16_384))]

    /// The nightly sweep (`-- --ignored`) of `recover` against the
    /// reference that still re-verifies, and of groups of one of the same
    /// inputs against `recover`.
    #[test]
    #[ignore]
    fn ecdsa_agrees_sweep(
        d in arb_scalar(),
        r in arb_u256(),
        small_r in any::<u128>(),
        s in arb_scalar(),
        v in 0u8..4,
        msg in any::<[u8; 32]>(),
    ) {
        prop_assume!(!d.is_zero());
        let mut burst = check_every_recovery_id(&d, &msg)?;
        burst.extend(check_arbitrary_components(r, small_r, s, v, &msg)?);
        assert_singletons_agree(&burst)?;
    }
}

/// `λ` of the endomorphism, from its published hex.
fn lambda() -> Scalar {
    let hex = "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72";
    Scalar::from_u256_reduced(U256::from_hex(hex).unwrap())
}

fn assert_lincomb_agrees(a: &Scalar, b: &Scalar, q: &Point) {
    let want = reference::lincomb(a.to_u256(), b.to_u256(), reference::from_point(q));
    assert_eq!(
        Point::lincomb_with_generator(a, b, q),
        reference::to_point(want),
        "a = {a:?}, b = {b:?}, q = {q:?}"
    );
}

#[test]
fn lincomb_edge_operands() {
    let g = Point::generator();
    let k = Scalar::from_digest(&sha256(b"edge scalar"));
    let seed = Scalar::from_digest(&sha256(b"edge point"));
    let lambda2 = lambda().mul(&lambda());
    // P = m·G for the m that make the ladder's four tables collide — ±G,
    // ±λG, ±λ²G: P's odd multiples or their β-scaled copies are G's — and
    // for an unrelated one.
    let multipliers = [Scalar::ONE, lambda(), lambda2, seed];
    let scalars = [Scalar::ZERO, Scalar::ONE, k, Scalar::ONE.neg()];
    for m in &multipliers {
        let p = reference::to_point(reference::mul_binary(reference::generator(), m.to_u256()));
        for q in [p, p.neg()] {
            for a in &scalars {
                for b in &scalars {
                    assert_lincomb_agrees(a, b, &q);
                }
            }
        }
        // a·G = −b·P, and one step off it.
        let a = k.mul(m).neg();
        assert_eq!(Point::lincomb_with_generator(&a, &k, &p), Point::Infinity);
        assert_lincomb_agrees(&a, &k, &p);
        assert_lincomb_agrees(&a.add(&Scalar::ONE), &k, &p);
        assert_lincomb_agrees(&a.neg(), &k, &p.neg());
    }
    for a in &scalars {
        for b in &scalars {
            assert_lincomb_agrees(a, b, &Point::Infinity);
        }
    }
    assert_eq!(g.mul(&lambda()).mul(&lambda()).mul(&lambda()), g);
}

#[test]
fn lincomb_split_boundary_scalars() {
    // Scalars at the edges of the split: the ends and the middle of
    // [0, n), λ and its neighbours, the 128-bit boundary a half must stay
    // under, and the lattice points i·a₁ + j·a₂ (±1) where the split's
    // two roundings tip over.
    let u = |v: U256| Scalar::from_u256_reduced(v);
    let half_n = Scalar::order().shr(1);
    let two_128 = U256::ONE.shl(128);
    let mut grid = vec![
        Scalar::ZERO,
        Scalar::ONE,
        Scalar::from_u64(2),
        Scalar::ONE.neg(),
        Scalar::from_u64(2).neg(),
        u(half_n),
        u(half_n.wrapping_add(&U256::ONE)),
        lambda(),
        lambda().add(&Scalar::ONE),
        lambda().sub(&Scalar::ONE),
        lambda().neg(),
        u(U256::ONE.shl(127)),
        u(two_128.wrapping_sub(&U256::ONE)),
        u(two_128),
        u(two_128.wrapping_add(&U256::ONE)),
    ];
    let a1 = u(U256::from_hex("3086d221a7d46bcde86c90e49284eb15").unwrap());
    let a2 = u(U256::from_hex("114ca50f7a8e2f3f657c1108d9d44cfd8").unwrap());
    for (i, j) in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 3)] {
        let at = Scalar::from_u64(i)
            .mul(&a1)
            .add(&Scalar::from_u64(j).mul(&a2));
        grid.extend([at, at.add(&Scalar::ONE), at.sub(&Scalar::ONE), at.neg()]);
    }
    let p = Point::mul_generator(&Scalar::from_digest(&sha256(b"edge point")));
    for (k, other) in grid.iter().zip(grid.iter().rev()) {
        assert_lincomb_agrees(k, other, &p);
        let want = reference::mul_binary(reference::from_point(&p), k.to_u256());
        assert_eq!(p.mul(k), reference::to_point(want), "k = {k:?}");
    }
}

#[test]
fn recovering_infinity_is_an_invalid_public_key() {
    // The one input class on which a re-verification of the recovered key
    // decides anything: the reference refuses Q = ∞ there, the kernel
    // refuses it by name, and the typed wrapper says the same.
    for text in [&b"infinity"[..], b"s R = e G", b""] {
        let digest = sha256(text);
        let sig = signature_recovering_infinity(&digest);
        let want = Err(CryptoError::InvalidPublicKey);
        assert_eq!(ecdsa::recover(&digest, &sig), want);
        assert_eq!(
            reference::recover(&digest, &sig).map(reference::to_point),
            want
        );
        assert_eq!(recover_public_key(&digest, &sig).map(|q| q.point()), want);
        // Any other recovery id names another R, hence a finite key.
        let flipped = sig_from_parts(sig.r().to_u256(), sig.s().to_u256(), sig.recovery_id() ^ 1);
        assert!(ecdsa::recover(&digest, &flipped.unwrap()).is_ok());
    }
}

/// A valid signature by the `i`-th key over the `i`-th message.
fn signed(i: u64) -> Signed {
    let d = Scalar::from_digest(&sha256(&i.to_be_bytes()));
    let msg = sha256(&(i ^ 0x5eed).to_le_bytes());
    (msg, ecdsa::sign(&d, &msg))
}

/// A burst item whose `R` does not exist: an `r` with `r³ + 7` a
/// non-residue, found by stepping from a digest.
fn unliftable(msg: &[u8; 32]) -> Signed {
    let mut r = Scalar::from_digest(&sha256(msg));
    loop {
        let mut compressed = [0x02; 33];
        compressed[1..].copy_from_slice(&r.to_be_bytes());
        if Point::decode(&compressed).is_err() {
            let sig = sig_from_parts(r.to_u256(), U256::from_u64(7), 0).unwrap();
            assert_eq!(
                ecdsa::recover(msg, &sig),
                Err(CryptoError::InvalidSignature)
            );
            return (*msg, sig);
        }
        r = r.add(&Scalar::ONE);
    }
}

#[test]
fn singleton_groups_burst_sizes() {
    // Valid signatures, every fourth one re-labelled to name the other R
    // (a different, finite key), every seventh one a Q = ∞ signature and
    // every eleventh an unliftable R, so the larger bursts hold both
    // failure kinds at several offsets.
    let item = |i: u64| {
        let (msg, sig) = signed(i);
        match i {
            _ if i % 11 == 10 => unliftable(&msg),
            _ if i % 7 == 6 => (msg, signature_recovering_infinity(&msg)),
            _ if i % 4 == 3 => {
                let v = sig.recovery_id() ^ 1;
                (
                    msg,
                    sig_from_parts(sig.r().to_u256(), sig.s().to_u256(), v).unwrap(),
                )
            }
            _ => (msg, sig),
        }
    };
    let distinct: Vec<Signed> = (0..22).map(item).collect();
    // The distinct items against the reference, once each …
    for (msg, sig) in &distinct {
        assert_ecdsa_agrees(msg, sig).unwrap();
    }
    // … and every burst against one `recover` per item.
    for size in [0usize, 1, 2, 17, 64, 257] {
        let burst: Vec<Signed> = (0..size).map(|i| distinct[i % distinct.len()]).collect();
        assert_singletons_agree(&burst).unwrap();
    }
    assert!(ecdsa::recover_groups(&[]).is_empty());
}

#[test]
fn singleton_groups_one_poisoned_entry_at_every_index() {
    // Seven valid signatures and one that fails, at each of the eight
    // places, each its own group: the failure stays its own, and its
    // neighbours recover the keys they recover alone.
    let valid: Vec<Signed> = (100..107).map(signed).collect();
    let msg = sha256(b"poison");
    for poison in [(msg, signature_recovering_infinity(&msg)), unliftable(&msg)] {
        let want_err = ecdsa::recover(&poison.0, &poison.1).unwrap_err();
        for at in 0..=valid.len() {
            let mut burst = valid.clone();
            burst.insert(at, poison);
            assert_singletons_agree(&burst).unwrap();
            let groups: Vec<ecdsa::Group<'_>> = burst
                .iter()
                .map(|item| (Address::ZERO, std::slice::from_ref(item)))
                .collect();
            let got = ecdsa::recover_groups(&groups);
            for (index, key) in got.iter().enumerate() {
                assert_eq!(key.is_err(), index == at, "poison at {at}, index {index}");
            }
            assert_eq!(got[at], Err(want_err.clone()));
        }
    }
}

#[test]
fn high_s_is_refused_at_the_door() {
    let d = Scalar::from_u64(7);
    let msg = sha256(b"high s");
    let sig = ecdsa::sign(&d, &msg);
    let high = sig.s().neg();
    assert!(high.is_high());
    for v in 0..4 {
        assert_eq!(
            sig_from_parts(sig.r().to_u256(), high.to_u256(), v),
            Err(CryptoError::InvalidSignature)
        );
    }
}

/// The address a member recovers to under the reference `recover`, which
/// re-verifies the key it finds.
fn reference_signer(member: &Signed) -> Option<Address> {
    let q = reference::recover(&member.0, &member.1).ok()?;
    PublicKey::from_point(reference::to_point(q))
        .ok()
        .map(|pk| pk.address())
}

/// Whether `recover_groups` vouches for a group: its point has the
/// declared address.
fn vouches(key: &Result<Point, CryptoError>, signer: Address) -> bool {
    let address = key
        .clone()
        .and_then(PublicKey::from_point)
        .map(|pk| pk.address());
    address == Ok(signer)
}

/// `recover_groups` of `(signer, members)` groups in one call against the
/// reference: a group is vouched for exactly when every member's
/// reference recovery has the declared address. `expect` is that answer,
/// per member, worked out once by the caller.
fn assert_groups_agree(
    groups: &[(Address, Vec<Signed>)],
    expect: impl Fn(&Signed) -> Option<Address>,
) -> Result<(), TestCaseError> {
    let claimed: Vec<ecdsa::Group<'_>> = groups
        .iter()
        .map(|(signer, members)| (*signer, members.as_slice()))
        .collect();
    let got = ecdsa::recover_groups(&claimed);
    prop_assert_eq!(got.len(), groups.len());
    for (index, ((signer, members), key)) in groups.iter().zip(&got).enumerate() {
        let want = members.iter().all(|m| expect(m) == Some(*signer));
        prop_assert_eq!(
            vouches(key, *signer),
            want,
            "group {} of {}",
            index,
            members.len()
        );
    }
    Ok(())
}

/// The private scalar of the `k`-th test key.
fn known_key(k: u64) -> Scalar {
    Scalar::from_digest(&sha256(&k.to_le_bytes()))
}

/// The address of the `k`-th test key.
fn known_address(k: u64) -> Address {
    PublicKey::from_point(Point::mul_generator(&known_key(k)))
        .unwrap()
        .address()
}

/// `len` valid members signed by key `k`, from `seed`.
fn known_group(seed: u64, k: u64, len: usize) -> (Address, Vec<Signed>) {
    let members = (0..len)
        .map(|i| {
            let msg = sha256(&seed.wrapping_add(i as u64 * 7919).to_be_bytes());
            (msg, ecdsa::sign(&known_key(k), &msg))
        })
        .collect();
    (known_address(k), members)
}

/// The four ways a peer can spoil one member of a group: a flipped
/// digest bit, the other `R` (wrong-parity `v`), another key's signature
/// over the same digest, and the `r + n` bit set where no such `x` exists.
fn poisoned(member: &Signed, how: usize) -> Signed {
    let (mut msg, sig) = *member;
    match how % 4 {
        0 => {
            msg[31] ^= 1;
            (msg, sig)
        }
        1 => {
            let v = sig.recovery_id() ^ 1;
            (
                msg,
                sig_from_parts(sig.r().to_u256(), sig.s().to_u256(), v).unwrap(),
            )
        }
        2 => (msg, ecdsa::sign(&known_key(u64::MAX), &msg)),
        _ => {
            // r + n ≥ p for every r above p − n ≈ 2¹²⁸·1.27.
            let v = sig.recovery_id() | 2;
            let past_p = sig_from_parts(sig.r().to_u256(), sig.s().to_u256(), v).unwrap();
            assert!(sig.r().to_u256() > FieldElement::prime().wrapping_sub(&Scalar::order()));
            (msg, past_p)
        }
    }
}

/// The reference answer for the members [`known_group`] and [`poisoned`]
/// build, each worked out once: the honest ones sign for their key, and a
/// spoiled one for whatever the reference recovers.
fn expectations(
    members: impl IntoIterator<Item = (Signed, Option<Address>)>,
) -> impl Fn(&Signed) -> Option<Address> {
    let table: Vec<(Signed, Option<Address>)> = members.into_iter().collect();
    move |member: &Signed| {
        table
            .iter()
            .find(|(m, _)| m == member)
            .map(|(_, want)| *want)
            .unwrap_or_else(|| reference_signer(member))
    }
}

#[test]
fn groups_of_every_size_up_to_65_vouch_for_their_signer() {
    // One call over 65 groups of 1 to 65 honest members, each group its
    // own key, each group vouched for, and the group of one equal to
    // `recover` of its member.
    let groups: Vec<(Address, Vec<Signed>)> = (1..=65)
        .map(|len| known_group(len as u64, len as u64, len))
        .collect();
    let keys: Vec<ecdsa::Group<'_>> = groups
        .iter()
        .map(|(signer, members)| (*signer, members.as_slice()))
        .collect();
    let got = ecdsa::recover_groups(&keys);
    for ((k, (signer, members)), key) in (1u64..).zip(&groups).zip(&got) {
        assert!(vouches(key, *signer), "group of {}", members.len());
        assert_eq!(*key, Ok(Point::mul_generator(&known_key(k))));
    }
    assert_eq!(got[0], ecdsa::recover(&groups[0].1[0].0, &groups[0].1[0].1));
    // The honest members against the reference, a sample of them.
    for (signer, members) in groups.iter().step_by(16) {
        assert_eq!(reference_signer(&members[0]), Some(*signer));
    }
}

#[test]
fn known_batch_poisoned_at_every_index() {
    // Groups of 1, 2, 3, 16 and 65 members, each spoiled at every index
    // in each of the four ways, beside an honest group of another key in
    // the same call: the spoiled group alone loses its vouching.
    let (other_signer, other) = known_group(7, 7, 5);
    for len in [1usize, 2, 3, 16, 65] {
        let (signer, honest) = known_group(31, 31, len);
        let expect = expectations(honest.iter().map(|m| (*m, Some(signer))));
        assert_groups_agree(&[(signer, honest.clone())], &expect).unwrap();
        for at in 0..len {
            for how in 0..4 {
                let bad = poisoned(&honest[at], how);
                // Each spoiled member alone is not the signer's, by the
                // reference (checked on the shortest groups, where it is
                // every index in every way).
                if len <= 3 {
                    assert_ne!(reference_signer(&bad), Some(signer), "{at}/{how}");
                }
                let mut members = honest.clone();
                members[at] = bad;
                let got = ecdsa::recover_groups(&[(signer, &members), (other_signer, &other)]);
                assert!(!vouches(&got[0], signer), "len {len}, {at}/{how}");
                assert!(vouches(&got[1], other_signer), "len {len}, {at}/{how}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn known_batch_matches_recover_and_compare(
        seed in any::<u64>(),
        keys in 1usize..4,
        len in 1usize..17,
        // Below 64: spoil member `poison % 16` of group 0 in way
        // `poison / 16`.
        poison in 0usize..80,
    ) {
        let mut groups: Vec<(Address, Vec<Signed>)> = (0..keys as u64)
            .map(|k| known_group(seed.wrapping_add(k), seed.wrapping_add(k), len))
            .collect();
        let mut table: Vec<(Signed, Option<Address>)> = groups
            .iter()
            .flat_map(|(signer, members)| members.iter().map(|m| (*m, Some(*signer))))
            .collect();
        let (at, how) = (poison % 16 % len, poison / 16);
        if how < 4 {
            let bad = poisoned(&groups[0].1[at], how);
            table.push((bad, reference_signer(&bad)));
            groups[0].1[at] = bad;
        }
        assert_groups_agree(&groups, expectations(table))?;
    }
}

#[test]
fn known_batch_of_one_duplicates_and_empty() {
    let (signer, members) = known_group(77, 77, 4);
    let wrong_signer = known_address(78);
    // A group with no members names no key; no groups, no answers.
    assert_eq!(
        ecdsa::recover_groups(&[(signer, &[])]),
        [Err(CryptoError::InvalidSignature)]
    );
    assert!(ecdsa::recover_groups(&[]).is_empty());
    for member in &members {
        let wrong_parity = poisoned(member, 1);
        let expect = expectations([(*member, Some(signer)), (wrong_parity, None)]);
        // Alone: the group of one is `recover`, whichever address it
        // declares.
        for declared in [signer, wrong_signer] {
            let got = ecdsa::recover_groups(&[(declared, std::slice::from_ref(member))]);
            assert_eq!(got[0], ecdsa::recover(&member.0, &member.1));
        }
        // Twice the same member, good or bad: a repeat gets its own
        // weight, so a bad member cannot cancel its copy.
        let twice = |m: Signed| vec![m, m];
        assert_groups_agree(&[(signer, twice(*member))], &expect).unwrap();
        assert_groups_agree(&[(signer, twice(wrong_parity))], &expect).unwrap();
        assert_groups_agree(&[(wrong_signer, twice(*member))], &expect).unwrap();
        assert_groups_agree(&[(signer, vec![wrong_parity, *member])], &expect).unwrap();
    }
    let mut doubled = members.clone();
    doubled.extend_from_slice(&members);
    let got = ecdsa::recover_groups(&[(signer, &doubled)]);
    assert!(vouches(&got[0], signer));
}

#[test]
fn a_first_member_recovering_infinity_spoils_its_group() {
    // The first member names Q = ∞: no key, whether the followers are
    // the same signature, honest members of a real key, or nothing.
    let msg = sha256(b"first at infinity");
    let infinity = (msg, signature_recovering_infinity(&msg));
    let (signer, honest) = known_group(5, 5, 3);
    assert_eq!(
        ecdsa::recover_groups(&[(signer, &[infinity])]),
        [Err(CryptoError::InvalidPublicKey)]
    );
    assert_eq!(
        ecdsa::recover_groups(&[(signer, &[infinity, infinity])]),
        [Err(CryptoError::InvalidPublicKey)]
    );
    let mut members = vec![infinity];
    members.extend_from_slice(&honest);
    let got = ecdsa::recover_groups(&[(signer, &members), (signer, &honest)]);
    assert!(!vouches(&got[0], signer));
    assert!(vouches(&got[1], signer));
    // Last instead of first: the same answer.
    members.rotate_left(1);
    assert!(!vouches(
        &ecdsa::recover_groups(&[(signer, &members)])[0],
        signer
    ));
    assert_eq!(reference_signer(&infinity), None);
}

/// A signature whose `R` has `x = r + n`: `r` is stepped up from `start`
/// until `r + n` is the `x` of a curve point, and the key is whatever
/// `recover` finds, so the item is valid by construction.
fn lifted_past_n(start: u64, msg: &[u8; 32]) -> (Point, Signature) {
    let s = Scalar::from_digest(&sha256(msg));
    let s = if s.is_high() { s.neg() } else { s };
    let mut r = start;
    loop {
        let sig = sig_from_parts(U256::from_u64(r), s.to_u256(), 2).unwrap();
        if let Ok(q) = ecdsa::recover(msg, &sig) {
            assert_ecdsa_agrees(msg, &sig).unwrap();
            return (q, sig);
        }
        r += 1;
    }
}

#[test]
fn known_batch_r_plus_n_lift() {
    // Valid: x(R) = r + n < p, after and before two ordinary members of
    // the same key (its key is whatever `recover` finds, so the two
    // others are signed by nothing we hold: the group is that key's).
    let msg = sha256(b"r + n");
    let (q, sig) = lifted_past_n(1, &msg);
    let signer = PublicKey::from_point(q).unwrap().address();
    let (_, others) = known_group(5, 5, 2);
    let lifted = (msg, sig);
    let expect = expectations([(lifted, Some(signer))]);
    assert_groups_agree(&[(signer, vec![lifted, lifted])], &expect).unwrap();
    assert!(vouches(
        &ecdsa::recover_groups(&[(signer, &[lifted, lifted])])[0],
        signer
    ));
    // Beside members of another key it vouches for neither.
    let (other_signer, _) = known_group(5, 5, 0);
    let mixed = vec![others[0], lifted, others[1]];
    let expect = expectations([
        (lifted, Some(signer)),
        (others[0], Some(other_signer)),
        (others[1], Some(other_signer)),
    ]);
    assert_groups_agree(&[(signer, mixed.clone()), (other_signer, mixed)], &expect).unwrap();
    // The same r with bit 1 clear names x = r, a different R.
    let low = (
        msg,
        sig_from_parts(sig.r().to_u256(), sig.s().to_u256(), 0).unwrap(),
    );
    let expect = expectations([(lifted, Some(signer)), (low, reference_signer(&low))]);
    assert_groups_agree(
        &[(signer, vec![lifted, low]), (signer, vec![low, lifted])],
        &expect,
    )
    .unwrap();
    // r + n ≥ p: no R, so no group holds, whatever it declares.
    let high_r = Scalar::order().wrapping_sub(&U256::from_u64(1));
    let past_p = (msg, sig_from_parts(high_r, sig.s().to_u256(), 2).unwrap());
    assert_eq!(
        ecdsa::recover(&past_p.0, &past_p.1),
        Err(CryptoError::InvalidSignature)
    );
    for members in [vec![lifted, past_p], vec![past_p, lifted]] {
        assert_eq!(
            ecdsa::recover_groups(&[(signer, &members)]),
            [Err(CryptoError::InvalidSignature)]
        );
    }
}

#[test]
fn known_batch_rejects_a_cancelling_pair() {
    // An honest first member and two followers by the same key, with
    // digests moved so that follower a's term Dₐ = u₁·G + u₂·Q − R becomes
    // +δ·G and follower b's −δ·G: e′ₐ = eₐ + δ·sₐ makes u₁ = e′ₐ/sₐ exceed
    // the true one by δ, and e′_b = e_b − δ·s_b makes it fall short by δ.
    // Each follower alone is bad, and with unit weights X = Q − Dₐ − D_b
    // would be Q; only the weights keep the group from passing.
    let (signer, members) = known_group(2019, 2019, 3);
    let q = Point::mul_generator(&known_key(2019));
    let delta = Scalar::from_digest(&sha256(b"delta"));
    let shift = |(msg, sig): Signed, by: Scalar| {
        let e = Scalar::from_digest(&msg).add(&by.mul(&sig.s()));
        (e.to_be_bytes(), sig)
    };
    let pair = [shift(members[1], delta), shift(members[2], delta.neg())];
    // Each member's check term u₁·G + u₂·Q − R, with R lifted from (r, v).
    let term = |(msg, sig): &Signed| {
        assert!(sig.recovery_id() < 2, "x(R) = r");
        let mut compressed = [0x02 | sig.recovery_id(); 33];
        compressed[1..].copy_from_slice(&sig.r().to_be_bytes());
        let r_point = Point::decode(&compressed).unwrap();
        let s_inv = sig.s().invert();
        let u1 = Scalar::from_digest(msg).mul(&s_inv);
        let u2 = sig.r().mul(&s_inv);
        Point::lincomb_with_generator(&u1, &u2, &q).add(&r_point.neg())
    };
    assert_eq!(term(&members[1]), Point::Infinity);
    assert_eq!(term(&pair[0]), Point::mul_generator(&delta));
    assert_eq!(term(&pair[1]), Point::mul_generator(&delta.neg()));
    assert_eq!(term(&pair[0]).add(&term(&pair[1])), Point::Infinity);
    for bad in &pair {
        assert_ne!(reference_signer(bad), Some(signer));
    }
    let group = [members[0], pair[0], pair[1]];
    let got = ecdsa::recover_groups(&[(signer, &group)]);
    assert!(!vouches(&got[0], signer));
}
