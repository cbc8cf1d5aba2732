//! Keccak-256 (the Keccak-f\[1600\] sponge).
//!
//! The SmartCrowd prototype computes every protocol identifier with "SHA-3"
//! through the Ethereum stack (§VII), i.e. the original Keccak-256 padding,
//! which differs from FIPS-202 SHA3-256 only in the domain-separation byte.
//! The platform uses [`keccak256`] everywhere an Ethereum-compatible hash is
//! required (addresses, `Δ_id`, `ID†`, `ID*`).

const RC: [u64; 24] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// The Keccak-f[1600] permutation applied in place to a 25-lane state.
fn keccak_f(state: &mut [u64; 25]) {
    for &rc in &RC {
        // θ
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ and π
        let mut last = state[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = state[j];
            state[j] = last.rotate_left(RHO[i]);
            last = tmp;
        }
        // χ
        for y in 0..5 {
            let row = [
                state[5 * y],
                state[5 * y + 1],
                state[5 * y + 2],
                state[5 * y + 3],
                state[5 * y + 4],
            ];
            for x in 0..5 {
                state[5 * y + x] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        // ι
        state[0] ^= rc;
    }
}

fn keccak_sponge_256(data: &[u8]) -> [u8; 32] {
    const RATE: usize = 136; // 1088-bit rate for 256-bit output
    let mut state = [0u64; 25];
    let mut offset = 0;
    // Absorb full blocks.
    while data.len() - offset >= RATE {
        absorb_block(&mut state, &data[offset..offset + RATE]);
        keccak_f(&mut state);
        offset += RATE;
    }
    // Final padded block.
    let mut block = [0u8; RATE];
    let tail = &data[offset..];
    block[..tail.len()].copy_from_slice(tail);
    block[tail.len()] ^= 0x01; // Keccak padding, not FIPS-202's 0x06
    block[RATE - 1] ^= 0x80;
    absorb_block(&mut state, &block);
    keccak_f(&mut state);
    // Squeeze 32 bytes.
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[8 * i..8 * i + 8].copy_from_slice(&state[i].to_le_bytes());
    }
    out
}

fn absorb_block(state: &mut [u64; 25], block: &[u8]) {
    for (i, chunk) in block.chunks_exact(8).enumerate() {
        let mut lane = [0u8; 8];
        lane.copy_from_slice(chunk);
        state[i] ^= u64::from_le_bytes(lane);
    }
}

/// Keccak-256 with the original (pre-FIPS) `0x01` padding — the hash used
/// by Ethereum and therefore by the SmartCrowd prototype.
///
/// # Example
///
/// ```
/// use smartcrowd_crypto::{hex, keccak::keccak256};
///
/// assert_eq!(
///     hex::encode(&keccak256(b"")),
///     "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
/// );
/// ```
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    keccak_sponge_256(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn keccak256_empty() {
        assert_eq!(
            hex::encode(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn keccak256_abc() {
        assert_eq!(
            hex::encode(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn keccak_differs_from_sha3() {
        // FIPS-202 SHA3-256 of the empty string: same sponge, 0x06 padding.
        assert_ne!(
            hex::encode(&keccak256(b"")),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"
        );
    }

    #[test]
    fn rate_boundary_lengths() {
        // 135, 136, 137 bytes cross the 136-byte rate boundary; verify the
        // sponge behaves consistently (distinct inputs → distinct digests,
        // stable across runs).
        let a = keccak256(&[7u8; 135]);
        let b = keccak256(&[7u8; 136]);
        let c = keccak256(&[7u8; 137]);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(keccak256(&[7u8; 136]), b);
    }

    #[test]
    fn keccak256_long_input_known_vector() {
        // Multi-block inputs (the rate is 136 bytes). Both values come from
        // an independent Python Keccak which, given SHA-3's 0x06 padding in
        // place of 0x01, matches `hashlib.sha3_256` at ten lengths.
        assert_eq!(
            hex::encode(&keccak256(&[0u8; 200])),
            "e1bb54e1bc3af48d01e5dbfc81015c98152a574f6428c6948aa4837c9c0baad9"
        );
        let ramp: Vec<u8> = (0..500u32).map(|i| (7 * i + 3) as u8).collect();
        assert_eq!(
            hex::encode(&keccak256(&ramp)),
            "e37163b2a792d9984ce6b739d44dd9b615a802b13ac67f3ac0629aa2dddbc0a1"
        );
    }
}
