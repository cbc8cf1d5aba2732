//! Fixed-header record framing for the on-disk block log.
//!
//! Every entry in `blocks.log` (and in a chain export) is one *frame*:
//!
//! ```text
//! +---------+-----------------+----------------------+-----------------+
//! | "SCF2"  | payload length  | CRC-64/XZ(payload)   | payload bytes   |
//! | 4 bytes | u64 big-endian  | u64 big-endian       | length bytes    |
//! +---------+-----------------+----------------------+-----------------+
//! ```
//!
//! The header is fixed-size ([`FRAME_HEADER_LEN`] bytes), so a scanner can
//! classify any prefix of a log without trusting its content:
//!
//! - **Torn tail** — the remaining bytes are shorter than the header, or
//!   shorter than the header's declared payload. Appends are sequential,
//!   so an interrupted write can only leave a *prefix* of the final frame;
//!   the log recovers by truncating to the last complete frame.
//! - **Corrupt** — the frame is *complete* (header and payload both
//!   present) but the magic or checksum does not match. A torn append
//!   cannot produce this shape, so it is damage and the scanner fails
//!   closed instead of guessing.
//!
//! The checksum covers only the payload; flips inside the header are
//! caught by the magic check, the length-consistency check, or (for the
//! checksum field itself) the checksum comparison. It detects damage,
//! not forgery: anyone who can rewrite the log can recompute it. What
//! binds a frame to the chain is the block-id check on page-in and the
//! Merkle-root and id checks on replay (STORAGE.md, "Trust boundary").

use super::crc64::crc64;
use crate::block::Block;

/// Magic bytes opening every frame (format version 2).
pub(crate) const FRAME_MAGIC: [u8; 4] = *b"SCF2";

/// Size of the fixed frame header: magic + length + checksum.
pub const FRAME_HEADER_LEN: usize = 4 + 8 + 8;

/// Sanity cap on a single frame's payload (a block far beyond any this
/// workspace produces). Longer declared lengths are treated as corrupt
/// headers rather than honoured as allocations.
pub(crate) const MAX_FRAME_PAYLOAD: u64 = 1 << 28;

/// A block's frame: the bytes the log and an export hold. The block is
/// encoded straight into the frame's buffer, after its reserved header.
pub fn block_frame(block: &Block) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + block.encoded_len());
    frame.resize(FRAME_HEADER_LEN, 0);
    seal_frame(block.encode_onto(frame))
}

/// Writes the header of a frame whose payload follows its reserved
/// [`FRAME_HEADER_LEN`] bytes: the one frame writer.
fn seal_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let payload = &frame[FRAME_HEADER_LEN..];
    let len = payload.len() as u64;
    let crc = crc64(payload);
    frame[..4].copy_from_slice(&FRAME_MAGIC);
    frame[4..12].copy_from_slice(&len.to_be_bytes());
    frame[12..20].copy_from_slice(&crc.to_be_bytes());
    frame
}

/// Frames an arbitrary payload, through the writer a block frame takes.
#[cfg(test)]
pub(crate) fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![0; FRAME_HEADER_LEN];
    frame.extend_from_slice(payload);
    seal_frame(frame)
}

/// Classification of the bytes at one scan offset.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FrameScan<'a> {
    /// A complete, checksum-valid frame; `next` is the offset just past it.
    Complete {
        /// The verified payload slice.
        payload: &'a [u8],
        /// Offset of the byte after this frame.
        next: usize,
    },
    /// The remaining bytes are a proper prefix of a frame — the shape an
    /// interrupted append leaves. Recovery truncates here.
    TornTail,
    /// The frame is complete but invalid (bad magic, absurd length, or
    /// checksum mismatch). Recovery must fail closed.
    Corrupt {
        /// Human-readable cause.
        detail: String,
    },
}

/// Scans the frame starting at `offset`. Callers must ensure
/// `offset < buf.len()`.
pub(crate) fn scan_frame(buf: &[u8], offset: usize) -> FrameScan<'_> {
    let remaining = &buf[offset..];
    if remaining.len() < FRAME_HEADER_LEN {
        return FrameScan::TornTail;
    }
    if remaining[..4] != FRAME_MAGIC {
        return FrameScan::Corrupt {
            detail: "bad frame magic".to_string(),
        };
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&remaining[4..12]);
    let len = u64::from_be_bytes(len_bytes);
    if len > MAX_FRAME_PAYLOAD {
        return FrameScan::Corrupt {
            detail: format!("frame declares {len} payload bytes (cap {MAX_FRAME_PAYLOAD})"),
        };
    }
    let len = len as usize;
    if remaining.len() - FRAME_HEADER_LEN < len {
        // Header present but the payload was cut short: a torn append.
        return FrameScan::TornTail;
    }
    let payload = &remaining[FRAME_HEADER_LEN..FRAME_HEADER_LEN + len];
    let mut declared = [0u8; 8];
    declared.copy_from_slice(&remaining[12..20]);
    if crc64(payload) != u64::from_be_bytes(declared) {
        return FrameScan::Corrupt {
            detail: "frame checksum mismatch".to_string(),
        };
    }
    FrameScan::Complete {
        payload,
        next: offset + FRAME_HEADER_LEN + len,
    }
}

/// How many bytes from a frame's start [`scan_frame`] looks at, given
/// the frame's first [`FRAME_HEADER_LEN`] bytes (fewer only at the end
/// of the image): the whole frame once the magic and the declared length
/// pass, else just those bytes. A scan over that many bytes, or over all
/// that is left if fewer, gets the verdict a scan of the whole image
/// would.
pub(crate) fn frame_extent(head: &[u8]) -> usize {
    if head.len() < FRAME_HEADER_LEN || head[..4] != FRAME_MAGIC {
        return head.len();
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&head[4..12]);
    match u64::from_be_bytes(len_bytes) {
        len if len > MAX_FRAME_PAYLOAD => FRAME_HEADER_LEN,
        len => FRAME_HEADER_LEN + len as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let frame = encode_frame(b"hello");
        match scan_frame(&frame, 0) {
            FrameScan::Complete { payload, next } => {
                assert_eq!(payload, b"hello");
                assert_eq!(next, frame.len());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_payload_frames() {
        let frame = encode_frame(b"");
        assert!(matches!(
            scan_frame(&frame, 0),
            FrameScan::Complete { payload: b"", .. }
        ));
    }

    #[test]
    fn every_proper_prefix_is_torn() {
        let frame = encode_frame(b"payload bytes");
        for cut in 0..frame.len() {
            if cut == 0 {
                continue; // nothing to scan
            }
            assert_eq!(
                scan_frame(&frame[..cut], 0),
                FrameScan::TornTail,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn complete_frame_bit_flips_are_corrupt_not_torn() {
        let frame = encode_frame(b"payload bytes");
        for pos in 0..frame.len() {
            let mut bent = frame.clone();
            bent[pos] ^= 0x01;
            match scan_frame(&bent, 0) {
                FrameScan::Corrupt { .. } => {}
                // A flip in the length field can shrink the declared
                // payload; the frame then has trailing bytes, which the
                // caller's loop scans as a second (corrupt) frame — or it
                // grows the length past the buffer, reading as torn. Both
                // are handled by the log scanner; what must never happen
                // is `Complete` with the original payload.
                FrameScan::TornTail if (4..12).contains(&pos) => {}
                FrameScan::Complete { payload, .. } => {
                    assert_ne!(payload, b"payload bytes", "flip at {pos} accepted");
                    // Only a length-field shrink can re-frame: checksum
                    // over the shorter slice must then mismatch.
                    panic!("flip at {pos} produced a checksum-valid frame");
                }
                FrameScan::TornTail => panic!("flip at {pos} misread as torn"),
            }
        }
    }

    #[test]
    fn absurd_length_is_corrupt() {
        let mut frame = encode_frame(b"x");
        frame[4..12].copy_from_slice(&u64::MAX.to_be_bytes());
        assert!(matches!(scan_frame(&frame, 0), FrameScan::Corrupt { .. }));
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let mut frame = encode_frame(b"x");
        frame[0] = b'X';
        assert!(matches!(scan_frame(&frame, 0), FrameScan::Corrupt { .. }));
    }
}
