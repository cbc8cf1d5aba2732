//! CRC-64/XZ, the checksum of every at-rest file (frames, `checkpoint`,
//! `state.snap`).
//!
//! The reflected ECMA-182 polynomial with all-ones init and final xor —
//! the CRC64 an `.xz` container carries. It detects damage only: anyone
//! who can rewrite a file can recompute it, so authenticity comes from
//! the block-id check on page-in and the Merkle-root and id checks on
//! replay (STORAGE.md, "Trust boundary"). A random corruption of a
//! checked range passes with probability 2⁻⁶⁴.
//!
//! Slicing-by-8: eight 256-entry tables (16 KiB, built at compile time)
//! fold eight input bytes per step.

/// The reflected form of the ECMA-182 polynomial `0x42F0E1EBA9EA3693`.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// state of byte `b` followed by `k` zero bytes.
static TABLES: [[u64; 256]; 8] = tables();

const fn tables() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-64/XZ of `bytes`.
pub(super) fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        let x = crc ^ u64::from_le_bytes(w);
        crc = TABLES[7][(x & 0xff) as usize]
            ^ TABLES[6][((x >> 8) & 0xff) as usize]
            ^ TABLES[5][((x >> 16) & 0xff) as usize]
            ^ TABLES[4][((x >> 24) & 0xff) as usize]
            ^ TABLES[3][((x >> 32) & 0xff) as usize]
            ^ TABLES[2][((x >> 40) & 0xff) as usize]
            ^ TABLES[1][((x >> 48) & 0xff) as usize]
            ^ TABLES[0][(x >> 56) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u64) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One bit at a time, straight from the definition.
    fn bitwise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &byte in bytes {
            crc ^= byte as u64;
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Each value is the CRC64 field an `.xz` container (Python's `lzma`,
    /// `check=CHECK_CRC64`) records for the same input.
    #[test]
    fn known_answers() {
        let counting: Vec<u8> = (0..=0x1f).collect();
        for (input, expected) in [
            (&b"123456789"[..], 0x995D_C9BB_DF19_39FA),
            (b"", 0),
            (&[0x00; 32], 0xC95A_F861_7CD5_330C),
            (&[0xff; 32], 0xE95D_CE9E_FAA0_9ACF),
            (&counting, 0x7FE5_71A5_8708_4D10),
        ] {
            assert_eq!(crc64(input), expected, "{input:02x?}");
            assert_eq!(bitwise(input), expected, "{input:02x?}");
        }
    }

    #[test]
    fn sliced_matches_bitwise_at_every_length_and_alignment() {
        let data: Vec<u8> = (0..1_032u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for len in 0..=1_024 {
                let slice = &data[start..start + len];
                assert_eq!(crc64(slice), bitwise(slice), "start {start} len {len}");
            }
        }
    }
}
