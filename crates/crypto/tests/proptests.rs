//! Property-based tests for the cryptographic substrate.
//!
//! These pin the algebraic invariants the SmartCrowd protocol relies on:
//! ring axioms of `U256`, field/group laws of secp256k1 and signature
//! soundness.

use proptest::prelude::*;
use smartcrowd_crypto::ecdsa;
use smartcrowd_crypto::field::FieldElement;
use smartcrowd_crypto::hex;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::point::Point;
use smartcrowd_crypto::scalar::Scalar;
use smartcrowd_crypto::sha256::sha256;
use smartcrowd_crypto::u256::U256;

fn arb_u256() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(U256::from_limbs)
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    arb_u256().prop_map(Scalar::from_u256_reduced)
}

fn arb_fe() -> impl Strategy<Value = FieldElement> {
    arb_u256().prop_map(FieldElement::from_u256_reduced)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- U256 ring properties -------------------------------------------

    #[test]
    fn u256_add_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }

    #[test]
    fn u256_add_associates(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
        prop_assert_eq!(
            a.wrapping_add(&b).wrapping_add(&c),
            a.wrapping_add(&b.wrapping_add(&c))
        );
    }

    #[test]
    fn u256_sub_inverts_add(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn u256_mul_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.mul_wide(&b), b.mul_wide(&a));
    }

    #[test]
    fn u256_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn u256_hex_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn u256_div_rem_reconstructs(a in arb_u256(), b in arb_u256()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        // q*b + r == a (q*b cannot overflow since q <= a/b)
        let qb = q.mul_wide(&b);
        prop_assert_eq!(&qb[4..], &[0u64; 4][..]);
        let back = U256::from_limbs([qb[0], qb[1], qb[2], qb[3]]).wrapping_add(&r);
        prop_assert_eq!(back, a);
    }

    #[test]
    fn u256_shifts_invert(a in arb_u256(), n in 0usize..255) {
        // (a >> n) << n clears the low n bits only.
        let masked = a.shr(n).shl(n);
        let low_mask = if n == 0 { U256::ZERO } else {
            U256::MAX.shr(256 - n)
        };
        prop_assert_eq!(masked.wrapping_add(&low_mask.wrapping_add(&U256::ONE).wrapping_mul(&U256::ZERO)), masked);
        // masked + (a & low_mask) == a
        let low_bits = a.wrapping_sub(&masked);
        prop_assert!(low_bits <= low_mask || n == 0);
    }

    // ---- Field laws ------------------------------------------------------

    #[test]
    fn field_mul_distributes(a in arb_fe(), b in arb_fe(), c in arb_fe()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn field_inverse_law(a in arb_fe()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
    }

    #[test]
    fn field_sqrt_of_square(a in arb_fe()) {
        let sq = a.square();
        let root = sq.sqrt().expect("squares always have roots");
        prop_assert!(root == a || root == a.neg());
    }

    // ---- Scalar laws -----------------------------------------------------

    #[test]
    fn scalar_inverse_law(a in arb_scalar()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a.mul(&a.invert()), Scalar::ONE);
    }

    #[test]
    fn scalar_add_neg_cancels(a in arb_scalar()) {
        prop_assert_eq!(a.add(&a.neg()), Scalar::ZERO);
    }

    // ---- Group laws (small scalars keep runtime bounded) ------------------

    #[test]
    fn point_scalar_homomorphism(a in 1u64..5000, b in 1u64..5000) {
        let g = Point::generator();
        let lhs = g.mul(&Scalar::from_u64(a + b));
        let rhs = g.mul(&Scalar::from_u64(a)).add(&g.mul(&Scalar::from_u64(b)));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn point_compressed_roundtrip(k in 1u64..10_000) {
        let p = Point::generator().mul(&Scalar::from_u64(k));
        let enc = p.encode_compressed().unwrap();
        prop_assert_eq!(Point::decode(&enc).unwrap(), p);
    }

    // ---- ECDSA soundness ---------------------------------------------------

    #[test]
    fn ecdsa_sign_verify_recover(seed in any::<u64>(), msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        let digest = sha256(&msg);
        let sig = kp.sign(&digest);
        prop_assert!(kp.public().verify(&digest, &sig));
        let rec = smartcrowd_crypto::keys::recover_public_key(&digest, &sig).unwrap();
        prop_assert_eq!(rec.address(), kp.address());
    }

    #[test]
    fn ecdsa_rejects_bit_flipped_digest(seed in any::<u64>(), flip in 0usize..256) {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        let digest = sha256(&seed.to_le_bytes());
        let sig = kp.sign(&digest);
        let mut tampered = digest;
        tampered[flip / 8] ^= 1 << (flip % 8);
        prop_assert!(!kp.public().verify(&tampered, &sig));
    }

    #[test]
    fn ecdsa_signature_bytes_roundtrip(seed in any::<u64>()) {
        let kp = KeyPair::from_seed(&seed.to_be_bytes());
        let digest = sha256(b"roundtrip");
        let sig = kp.sign(&digest);
        let parsed = ecdsa::Signature::from_bytes(&sig.to_bytes()).unwrap();
        prop_assert_eq!(parsed, sig);
    }

    // ---- Hash / hex -------------------------------------------------------

    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    #[test]
    fn sha256_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..600), split in 0usize..600) {
        let split = split.min(data.len());
        let mut h = smartcrowd_crypto::sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

}
