//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).
//!
//! Required by the RFC 6979 deterministic nonce generation in
//! [`crate::ecdsa`], which keeps SmartCrowd signatures reproducible in
//! tests and immune to bad-randomness nonce reuse.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// SHA-256 midstate after `0x36 × 64`: the all-zero key's inner pad
/// (any zero key up to 64 bytes, RFC 6979's first `K` among them).
const ZERO_KEY_INNER: [u32; 8] = [
    0xf454dead, 0x9725214f, 0x90daf2a0, 0xdf1228ea, 0x64e5750f, 0xa3924181, 0x824a932b, 0xf8e04e32,
];

/// SHA-256 midstate after `0x5c × 64`: the all-zero key's outer pad.
const ZERO_KEY_OUTER: [u32; 8] = [
    0xd385480f, 0x7abb6477, 0x37c9c538, 0x5dd82467, 0x8e043a72, 0x753434b0, 0xdeb82818, 0x361d45a6,
];

/// HMAC-SHA256 under one key: the SHA-256 midstates after the key's
/// inner and outer pad blocks, cloned for each MAC, so a key used
/// twice absorbs its pads once.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::{hex, hmac::HmacSha256};
///
/// // RFC 4231 test case 2.
/// let tag = HmacSha256::new(b"Jefe").mac(b"what do ya want for nothing?");
/// assert_eq!(
///     hex::encode(&tag),
///     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
/// );
/// ```
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Absorbs `key`'s two pad blocks (a key longer than a block is
    /// hashed first).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// The all-zero key, from its precomputed midstates.
    pub(crate) fn zero() -> Self {
        HmacSha256 {
            inner: Sha256::resumed(ZERO_KEY_INNER),
            outer: Sha256::resumed(ZERO_KEY_OUTER),
        }
    }

    /// `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        inner.update(message);
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // All vectors from RFC 4231.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = HmacSha256::new(&key).mac(b"Hi There");
        assert_eq!(
            hex::encode(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2_short_key() {
        let tag = HmacSha256::new(b"Jefe").mac(b"what do ya want for nothing?");
        assert_eq!(
            hex::encode(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_repeated_bytes() {
        let key = [0xaa; 20];
        let msg = [0xdd; 50];
        let tag = HmacSha256::new(&key).mac(&msg);
        assert_eq!(
            hex::encode(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag =
            HmacSha256::new(&key).mac(b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex::encode(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaa; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = HmacSha256::new(&key).mac(msg);
        assert_eq!(
            hex::encode(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))`, written out one-shot.
    fn written_out(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut k = if key.len() > BLOCK {
            sha256(key).to_vec()
        } else {
            key.to_vec()
        };
        k.resize(BLOCK, 0);
        let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(message);
        let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&sha256(&inner));
        sha256(&outer)
    }

    #[test]
    fn keyed_form_matches_the_written_out_definition() {
        let bytes: Vec<u8> = (0..331u32).map(|i| (i * 167 + 13) as u8).collect();
        for key_len in [0, 1, 32, 63, 64, 65, 131] {
            let key = &bytes[..key_len];
            let keyed = HmacSha256::new(key);
            for msg_len in 0..=200 {
                let message = &bytes[key_len..key_len + msg_len];
                let expected = written_out(key, message);
                assert_eq!(keyed.mac(message), expected, "key {key_len} msg {msg_len}");
            }
        }
    }

    /// The zero key's midstates are one compression of each pad from the
    /// SHA-256 initial state, for every zero key a block holds.
    #[test]
    fn zero_key_midstates() {
        let mut inner = Sha256::new();
        inner.update(&[0x36; BLOCK]);
        let mut outer = Sha256::new();
        outer.update(&[0x5c; BLOCK]);
        assert_eq!(ZERO_KEY_INNER, inner.midstate());
        assert_eq!(ZERO_KEY_OUTER, outer.midstate());
        for len in [0, 1, 32, 64] {
            for message in [&b""[..], &[7u8; 97]] {
                assert_eq!(
                    HmacSha256::zero().mac(message),
                    HmacSha256::new(&vec![0u8; len]).mac(message)
                );
            }
        }
    }

    #[test]
    fn empty_key_and_message_stable() {
        let a = HmacSha256::new(b"").mac(b"");
        let b = HmacSha256::new(b"").mac(b"");
        assert_eq!(a, b);
        assert_ne!(a, [0u8; 32]);
    }
}
