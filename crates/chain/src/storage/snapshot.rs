//! Checkpoint state snapshots (`state.snap`).
//!
//! A snapshot captures everything [`super::DurableStore`] needs to
//! rebuild its header-level view without scanning `blocks.log`: for each
//! frame, its offset/length plus the decoded block *header* and the ids
//! of the records it carries. Heads, the canonical index, per-block work
//! and the record index are all recomputed from those headers on load,
//! so reopen cost is O(snapshot + log tail) instead of O(chain).
//!
//! The snapshot is an *accelerator, never an authority*: the log remains
//! the source of truth. Any mismatch — bad magic, bad checksum, an entry
//! that does not bind to the log, a header chain that fails validation —
//! classifies the snapshot as rejected, and open falls back to the full
//! log scan. A damaged snapshot can therefore cost time but never
//! correctness. Byte layout:
//!
//! ```text
//! +----------+---------+--------+---------+-----------------+----------+
//! | magic    | log_len | tip id | count   | count × entry   | checksum |
//! | SCSNAP02 | u64     | 32     | u64     | (see below)     | CRC-64   |
//! +----------+---------+--------+---------+-----------------+----------+
//! entry: offset u64 · frame_len u64 · header_len u32 · header bytes ·
//!        record_count u32 · record ids (32 bytes each)
//! ```
//!
//! All integers big-endian; the checksum is the CRC-64/XZ of every
//! preceding byte, as a u64. It detects damage only: the header replay
//! and the tail's full replay are what the open trusts.
//! The full spec, including forward-compatibility rules, lives in
//! STORAGE.md.

use super::crc64::crc64;
use crate::header::{BlockHeader, BlockId};
use smartcrowd_crypto::Digest;
use std::path::Path;

/// File name of the snapshot inside a store directory.
pub(super) const SNAPSHOT_FILE: &str = "state.snap";

const SNAP_MAGIC: &[u8; 8] = b"SCSNAP02";
const CHECKSUM_LEN: usize = 8;
/// magic + log_len + tip + count.
const PREAMBLE_LEN: usize = 8 + 8 + 32 + 8;

/// One frame's metadata inside a snapshot, in log order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct SnapshotEntry {
    /// Byte offset of the frame in `blocks.log`.
    pub offset: u64,
    /// Total frame length (header + payload).
    pub len: u64,
    /// The decoded block header.
    pub header: BlockHeader,
    /// Ids of the records the block carries, in block order.
    pub record_ids: Vec<Digest>,
}

/// A decoded snapshot image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(super) struct Snapshot {
    /// Length of the log prefix the snapshot covers.
    pub log_len: u64,
    /// Best tip at snapshot time (cross-checked after header replay).
    pub tip: BlockId,
    /// Per-frame metadata, in log order.
    pub entries: Vec<SnapshotEntry>,
}

/// Classification of an on-disk snapshot file.
#[derive(Debug)]
pub(super) enum SnapshotRead {
    /// No snapshot file.
    Absent,
    /// A file exists but is not a checksum-valid snapshot image; open
    /// must count a rejection and fall back to the full log scan.
    Invalid {
        /// Why the image was rejected.
        detail: String,
    },
    /// A structurally valid image (still subject to log binding and
    /// header replay checks by the caller).
    Valid(Snapshot),
}

/// Encodes a snapshot image, checksum included.
pub(super) fn encode_snapshot(snap: &Snapshot) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(PREAMBLE_LEN + snap.entries.len() * 200 + CHECKSUM_LEN);
    bytes.extend_from_slice(SNAP_MAGIC);
    bytes.extend_from_slice(&snap.log_len.to_be_bytes());
    bytes.extend_from_slice(snap.tip.as_digest());
    bytes.extend_from_slice(&(snap.entries.len() as u64).to_be_bytes());
    for entry in &snap.entries {
        bytes.extend_from_slice(&entry.offset.to_be_bytes());
        bytes.extend_from_slice(&entry.len.to_be_bytes());
        let header = entry.header.encode();
        bytes.extend_from_slice(&(header.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&header);
        bytes.extend_from_slice(&(entry.record_ids.len() as u32).to_be_bytes());
        for id in &entry.record_ids {
            bytes.extend_from_slice(id);
        }
    }
    let checksum = crc64(&bytes);
    bytes.extend_from_slice(&checksum.to_be_bytes());
    bytes
}

/// Decodes and checksum-verifies a snapshot image.
pub(super) fn decode_snapshot(bytes: &[u8]) -> SnapshotRead {
    let invalid = |detail: &str| SnapshotRead::Invalid {
        detail: detail.to_string(),
    };
    if bytes.len() < PREAMBLE_LEN + CHECKSUM_LEN {
        return invalid("image shorter than preamble");
    }
    if &bytes[..8] != SNAP_MAGIC {
        return invalid("bad magic");
    }
    let content_len = bytes.len() - CHECKSUM_LEN;
    let mut checksum = [0u8; CHECKSUM_LEN];
    checksum.copy_from_slice(&bytes[content_len..]);
    if crc64(&bytes[..content_len]) != u64::from_be_bytes(checksum) {
        return invalid("checksum mismatch");
    }
    let mut u64buf = [0u8; 8];
    u64buf.copy_from_slice(&bytes[8..16]);
    let log_len = u64::from_be_bytes(u64buf);
    let mut tip = [0u8; 32];
    tip.copy_from_slice(&bytes[16..48]);
    u64buf.copy_from_slice(&bytes[48..56]);
    let count = u64::from_be_bytes(u64buf);
    let mut at = PREAMBLE_LEN;
    let mut entries = Vec::new();
    for _ in 0..count {
        if content_len - at < 8 + 8 + 4 {
            return invalid("truncated entry");
        }
        u64buf.copy_from_slice(&bytes[at..at + 8]);
        let offset = u64::from_be_bytes(u64buf);
        u64buf.copy_from_slice(&bytes[at + 8..at + 16]);
        let len = u64::from_be_bytes(u64buf);
        let mut u32buf = [0u8; 4];
        u32buf.copy_from_slice(&bytes[at + 16..at + 20]);
        let header_len = u32::from_be_bytes(u32buf) as usize;
        at += 20;
        if content_len - at < header_len {
            return invalid("truncated header");
        }
        let header = match BlockHeader::decode(&bytes[at..at + header_len]) {
            Ok(h) => h,
            Err(e) => return invalid(&format!("undecodable header: {e}")),
        };
        at += header_len;
        if content_len - at < 4 {
            return invalid("truncated record count");
        }
        u32buf.copy_from_slice(&bytes[at..at + 4]);
        let record_count = u32::from_be_bytes(u32buf) as usize;
        at += 4;
        let Some(ids_len) = record_count.checked_mul(32) else {
            return invalid("record count overflow");
        };
        if content_len - at < ids_len {
            return invalid("truncated record ids");
        }
        let mut record_ids = Vec::with_capacity(record_count);
        for i in 0..record_count {
            let mut id = [0u8; 32];
            id.copy_from_slice(&bytes[at + i * 32..at + i * 32 + 32]);
            record_ids.push(id);
        }
        at += ids_len;
        entries.push(SnapshotEntry {
            offset,
            len,
            header,
            record_ids,
        });
    }
    if at != content_len {
        return invalid("trailing bytes after last entry");
    }
    SnapshotRead::Valid(Snapshot {
        log_len,
        tip: BlockId::from_digest(tip),
        entries,
    })
}

/// Reads and classifies the snapshot file at `path`.
pub(super) fn read_snapshot(path: &Path) -> SnapshotRead {
    match super::disk::read(path) {
        Ok(Some(bytes)) => decode_snapshot(&bytes),
        _ => SnapshotRead::Absent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use crate::difficulty::Difficulty;

    fn sample() -> Snapshot {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        Snapshot {
            log_len: 168,
            tip: genesis.id(),
            entries: vec![SnapshotEntry {
                offset: 0,
                len: 168,
                header: genesis.header().clone(),
                record_ids: vec![[7u8; 32], [9u8; 32]],
            }],
        }
    }

    #[test]
    fn roundtrip() {
        let snap = sample();
        let bytes = encode_snapshot(&snap);
        match decode_snapshot(&bytes) {
            SnapshotRead::Valid(decoded) => assert_eq!(decoded, snap),
            other => panic!("expected valid, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_invalid() {
        let bytes = encode_snapshot(&sample());
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_snapshot(&bytes[..cut]), SnapshotRead::Invalid { .. }),
                "truncation at {cut} must be rejected"
            );
        }
    }

    /// A checksum-valid snapshot whose entries `j`, `j + 1` carry a 2^62
    /// length and its wrapping complement tiles the log under wrapping
    /// addition. It must be rejected like any other anomaly, not adopted
    /// (a page-in of block `j` would then allocate 2^62 bytes).
    #[test]
    fn forged_wrapping_geometry_is_rejected() {
        use crate::pow::Miner;
        use crate::storage::{ChainQuery, DurableStore, StoreConfig};

        let dir = std::env::temp_dir().join(format!("sc-snap-geometry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = StoreConfig {
            cache_capacity: 1,
            snapshot_interval: 1,
        };
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = DurableStore::open_with(&dir, &genesis, config).unwrap();
        let miner = Miner::new(smartcrowd_crypto::Address::from_label("geometry"));
        let mut chain = vec![genesis.clone()];
        for _ in 0..10 {
            let parent = chain.last().unwrap();
            let block = miner
                .mine_next(parent, vec![], parent.header().timestamp + 15)
                .unwrap();
            store.commit(block.clone()).unwrap();
            chain.push(block);
        }
        drop(store);

        let path = dir.join(SNAPSHOT_FILE);
        let SnapshotRead::Valid(mut snap) = read_snapshot(&path) else {
            panic!("no valid snapshot to forge from");
        };
        let j = 2;
        let after = snap.entries[j + 2].offset;
        snap.entries[j].len = 1 << 62;
        snap.entries[j + 1].offset = snap.entries[j].offset + (1 << 62);
        snap.entries[j + 1].len = after.wrapping_sub(snap.entries[j + 1].offset);
        std::fs::write(&path, encode_snapshot(&snap)).unwrap();

        let store = DurableStore::open_with(&dir, &genesis, config).unwrap();
        let recovery = store.last_recovery();
        assert!(recovery.snapshot_rejected && !recovery.snapshot_loaded);
        assert_eq!(store.best_tip(), chain[10].id());
        for block in &chain {
            assert_eq!(store.get_block(&block.id()).as_ref(), Some(block));
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_bit_flip_is_invalid() {
        let bytes = encode_snapshot(&sample());
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x01;
            assert!(
                matches!(decode_snapshot(&flipped), SnapshotRead::Invalid { .. }),
                "bit flip at {at} must be rejected"
            );
        }
    }
}
