//! Extended published-vector suite for the hash functions and ECDSA.
//!
//! Complements the per-module unit vectors with a second, independent set
//! so a regression in any primitive cannot hide behind a single test.

use smartcrowd_crypto::hex;
use smartcrowd_crypto::hmac::HmacSha256;
use smartcrowd_crypto::keccak::keccak256;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::sha256::sha256;

const FOX: &[u8] = b"The quick brown fox jumps over the lazy dog";

#[test]
fn sha256_fox() {
    assert_eq!(
        hex::encode(&sha256(FOX)),
        "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
    );
}

#[test]
fn sha256_fox_period() {
    assert_eq!(
        hex::encode(&sha256(b"The quick brown fox jumps over the lazy dog.")),
        "ef537f25c895bfa782526529a9b63d97aa631564d5d789c2b765448c8635fb6c"
    );
}

/// The digests of `m_n[i] = (7i + 3) mod 256` for every length `n` from 0
/// to 300 (every padding edge, 1–5 compressed blocks), hashed once more
/// as one concatenation; the value is Python's `hashlib`.
#[test]
fn sha256_every_length_to_300() {
    let mut digests = Vec::with_capacity(301 * 32);
    for n in 0..=300u32 {
        let message: Vec<u8> = (0..n).map(|i| (7 * i + 3) as u8).collect();
        digests.extend_from_slice(&sha256(&message));
    }
    assert_eq!(
        hex::encode(&sha256(&digests)),
        "7d917fbd2cf49ddff9ad0a8706bba32d204e92e71d2e369c5a03d6af29278c9f"
    );
}

#[test]
fn keccak256_fox() {
    assert_eq!(
        hex::encode(&keccak256(FOX)),
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"
    );
}

#[test]
fn hmac_sha256_rfc4231_case4() {
    let key: Vec<u8> = (0x01..=0x19).collect();
    let data = [0xcd; 50];
    assert_eq!(
        hex::encode(&HmacSha256::new(&key).mac(&data)),
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    );
}

#[test]
fn well_known_ethereum_test_addresses() {
    // Hardhat/Anvil's famous first test key.
    let sk =
        hex::decode_array::<32>("ac0974bec39a17e36ba4a6b4d238ff944bacb478cbed5efcae784d7bf4f2ff80")
            .unwrap();
    let kp =
        KeyPair::from_private(smartcrowd_crypto::keys::PrivateKey::from_be_bytes(&sk).unwrap());
    assert_eq!(
        kp.address().to_string(),
        "0xf39fd6e51aad88f6f4ce6ab8827279cfffb92266"
    );
}

#[test]
fn signature_is_verifiable_across_fresh_parse() {
    // Sign → serialize → parse in a "different process" → verify.
    let kp = KeyPair::from_seed(b"cross-parse");
    let digest = keccak256(b"interop message");
    let wire = kp.sign(&digest).to_bytes();
    let parsed = smartcrowd_crypto::ecdsa::Signature::from_bytes(&wire).unwrap();
    assert!(kp.public().verify(&digest, &parsed));
    let recovered = smartcrowd_crypto::keys::recover_public_key(&digest, &parsed).unwrap();
    assert_eq!(recovered, *kp.public());
}

#[test]
fn empty_input_digests_are_all_distinct() {
    // A classic copy-paste regression: two hash functions accidentally
    // sharing an implementation would collide on the empty string.
    let digests = [hex::encode(&sha256(b"")), hex::encode(&keccak256(b""))];
    for i in 0..digests.len() {
        for j in i + 1..digests.len() {
            assert_ne!(digests[i], digests[j], "{i} vs {j}");
        }
    }
}

#[test]
fn published_generator_multiples() {
    use smartcrowd_crypto::point::Point;
    use smartcrowd_crypto::scalar::Scalar;
    use smartcrowd_crypto::U256;
    // (k, x, y) from the widely circulated secp256k1 k·G list: the three
    // smallest, n − 1 (= −G), 2^128, and a full-width 256-bit scalar.
    let vectors = [
        (
            "1",
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8",
        ),
        (
            "2",
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5",
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a",
        ),
        (
            "3",
            "f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9",
            "388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672",
        ),
        (
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798",
            "b7c52588d95c3b9aa25b0403f1eef75702e84bb7597aabe663b82f6f04ef2777",
        ),
        (
            "100000000000000000000000000000000",
            "8f68b9d2f63b5f339239c1ad981f162ee88c5678723ea3351b7b444c9ec4c0da",
            "662a9f2dba063986de1d90c2b6be215dbbea2cfe95510bfdf23cbf79501fff82",
        ),
        (
            // 86844066927987146567678238756515930889628173209306178286953872356138621120752
            "bfffffffffffffffffffffffffffffff0c0325ad0376782ccfddc6e99c28b0f0",
            "e24ce4beee294aa6350faa67512b99d388693ae4e7f53d19882a6ea169fc1ce1",
            "8b71e83545fc2b5872589f99d948c03108d36797c4de363ebd3ff6a9e1a95b10",
        ),
    ];
    let g = Point::generator();
    for (k, x, y) in vectors {
        let k = Scalar::from_be_bytes(&U256::from_hex(k).unwrap().to_be_bytes()).unwrap();
        let want = (U256::from_hex(x).unwrap(), U256::from_hex(y).unwrap());
        // The comb, the windowed ladder and the double-scalar pass each
        // have to land on the published point.
        for got in [
            Point::mul_generator(&k),
            g.mul(&k),
            Point::lincomb_with_generator(&k, &Scalar::ZERO, &g),
            Point::lincomb_with_generator(&Scalar::ZERO, &k, &g),
        ] {
            let got = (got.x().unwrap().to_u256(), got.y().unwrap().to_u256());
            assert_eq!(got, want, "k = {k:?}");
        }
    }
}

#[test]
fn ethereum_ecrecover_vectors() {
    use smartcrowd_crypto::ecdsa::Signature;
    use smartcrowd_crypto::keys::recover_public_key;
    // go-ethereum's crypto/signature_test.go: (testmsg, testsig) → testpubkey.
    let digest =
        hex::decode_array::<32>("ce0677bb30baa8cf067c88db9811f4333d131bf8bcf12fe7065d211dce971008")
            .unwrap();
    let sig = hex::decode_array::<65>(
        "90f27b8b488db00b00606796d2987f6a5f59ae62ea05effe84fef5b8b0e54998\
         4a691139ad57a3f0b906637673aa2f63d1f55cb1a69199d4009eea23ceaddc9301",
    )
    .unwrap();
    let key = recover_public_key(&digest, &Signature::from_bytes(&sig).unwrap()).unwrap();
    assert_eq!(
        hex::encode(&key.to_uncompressed()),
        "04e32df42865e97135acfb65f3bae71bdc86f4d49150ad6a440b6f15878109880a\
         0a2b2667f7e725ceea70c673093bf67663e0312623c8e091b13cf2c0f11ef652"
    );

    // EIP-155's worked example: the signing hash and the (r, s) of the
    // transaction signed by private key 0x4646…46, whose sender address the
    // EIP states; v = 37 on chain id 1 is recovery id 0.
    let digest =
        hex::decode_array::<32>("daf5a779ae972f972197303d7b574746c7ef83eadac0f2791ad23db92e4c8e53")
            .unwrap();
    let sig = hex::decode_array::<65>(
        "28ef61340bd939bc2195fe537567866003e1a15d3c71ff63e1590620aa636276\
         67cbe9d8997f761aecb703304b3800ccf555c9f3dc64214b297fb1966a3b6d8300",
    )
    .unwrap();
    let sig = Signature::from_bytes(&sig).unwrap();
    let key = recover_public_key(&digest, &sig).unwrap();
    assert_eq!(
        key.address().to_string(),
        "0x9d8a62f656a8d1615c1294fd71e9cfb3e4855a4f"
    );
    let signer = KeyPair::from_private(
        smartcrowd_crypto::keys::PrivateKey::from_be_bytes(&[0x46; 32]).unwrap(),
    );
    assert_eq!(key, *signer.public());
    // That example was signed with RFC 6979 nonces, so signing reproduces it.
    assert_eq!(signer.sign(&digest), sig);
}
