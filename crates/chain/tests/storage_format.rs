//! The on-disk format, version 2 (STORAGE.md): each file's magic, its
//! length, and a CRC-64/XZ checked here against a bitwise reference; and
//! the refusal of version-1 files (`SCF1` frames, `SCCKPT01`,
//! `SCSNAP01`, all under SHA-256d checksums), which a version-2 store
//! reads as an unknown magic.

use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::storage::frame::FRAME_HEADER_LEN;
use smartcrowd_chain::storage::{import_chain, ChainQuery, StoreConfig};
use smartcrowd_chain::{Block, ChainError, Difficulty, DurableStore, Ether, StorageError};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::sha256::sha256d;
use smartcrowd_crypto::Address;
use std::path::{Path, PathBuf};

const CONFIG: StoreConfig = StoreConfig {
    cache_capacity: 4,
    snapshot_interval: 2,
};

/// CRC-64/XZ one bit at a time.
fn crc64_bitwise(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &byte in bytes {
        crc ^= byte as u64;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_be_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("storage-format-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A version-2 store of 12 blocks with records, snapshotted every two
/// confirmed heights; returns the committed chain.
fn v2_store(dir: &Path) -> Vec<Block> {
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let mut store = DurableStore::open_with(dir, &genesis, CONFIG).unwrap();
    let miner = Miner::new(Address::from_label("format"));
    let mut chain = vec![genesis];
    for i in 0..12u64 {
        let kp = KeyPair::from_seed(&i.to_be_bytes());
        let record = Record::signed(
            RecordKind::InitialReport,
            vec![i as u8; 40],
            Ether::from_milliether(11),
            i,
            &kp,
        );
        let parent = chain.last().unwrap();
        let block = miner
            .mine_next(parent, vec![record], parent.header().timestamp + 15)
            .unwrap();
        store.commit(block.clone()).unwrap();
        chain.push(block);
    }
    assert!(store.has_snapshot());
    chain
}

/// The frame starts of a version-2 log image.
fn v2_frames(log: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut at = 0;
    while at < log.len() {
        starts.push(at);
        at += FRAME_HEADER_LEN + u64_at(log, at + 4) as usize;
    }
    assert_eq!(at, log.len());
    starts
}

#[test]
fn version_2_files_carry_their_magic_length_and_crc64() {
    let dir = scratch("v2");
    let chain = v2_store(&dir);
    assert_eq!(FRAME_HEADER_LEN, 20);

    let log = std::fs::read(dir.join("blocks.log")).unwrap();
    let starts = v2_frames(&log);
    assert_eq!(starts.len(), chain.len());
    for (&at, block) in starts.iter().zip(&chain) {
        let payload = block.encode();
        assert_eq!(&log[at..at + 4], b"SCF2");
        assert_eq!(u64_at(&log, at + 4), payload.len() as u64);
        assert_eq!(u64_at(&log, at + 12), crc64_bitwise(&payload));
        assert_eq!(&log[at + 20..at + 20 + payload.len()], &payload[..]);
    }

    let checkpoint = std::fs::read(dir.join("checkpoint")).unwrap();
    assert_eq!(checkpoint.len(), 56);
    assert_eq!(&checkpoint[..8], b"SCCKPT02");
    assert_eq!(u64_at(&checkpoint, 48), crc64_bitwise(&checkpoint[..48]));

    let snapshot = std::fs::read(dir.join("state.snap")).unwrap();
    let content = snapshot.len() - 8;
    assert_eq!(&snapshot[..8], b"SCSNAP02");
    assert_eq!(
        u64_at(&snapshot, content),
        crc64_bitwise(&snapshot[..content])
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Version-1 frames: `SCF1`, the length, SHA-256d of the payload.
fn v1_log(v2: &[u8]) -> Vec<u8> {
    let mut log = Vec::new();
    for at in v2_frames(v2) {
        let payload = &v2[at + 20..at + 20 + u64_at(v2, at + 4) as usize];
        log.extend_from_slice(b"SCF1");
        log.extend_from_slice(&(payload.len() as u64).to_be_bytes());
        log.extend_from_slice(&sha256d(payload));
        log.extend_from_slice(payload);
    }
    log
}

/// A version-1 checkpoint: `SCCKPT01`, height, id, SHA-256d.
fn v1_checkpoint(v2: &[u8]) -> Vec<u8> {
    let mut checkpoint = b"SCCKPT01".to_vec();
    checkpoint.extend_from_slice(&v2[8..48]);
    let checksum = sha256d(&checkpoint);
    checkpoint.extend_from_slice(&checksum);
    checkpoint
}

/// A version-1 snapshot of the version-1 log: `SCSNAP01`, every offset
/// and frame length moved by the 24 bytes a version-1 header adds, and a
/// SHA-256d trailer.
fn v1_snapshot(v2: &[u8]) -> Vec<u8> {
    const GROWTH: u64 = 44 - 20;
    let mut snap = v2[..v2.len() - 8].to_vec();
    snap[..8].copy_from_slice(b"SCSNAP01");
    let count = u64_at(&snap, 48);
    let log_len = u64_at(&snap, 8) + count * GROWTH;
    snap[8..16].copy_from_slice(&log_len.to_be_bytes());
    let mut at = 56;
    for i in 0..count {
        let offset = u64_at(&snap, at) + i * GROWTH;
        let len = u64_at(&snap, at + 8) + GROWTH;
        snap[at..at + 8].copy_from_slice(&offset.to_be_bytes());
        snap[at + 8..at + 16].copy_from_slice(&len.to_be_bytes());
        let records_at = at + 20 + u32_at(&snap, at + 16);
        at = records_at + 4 + 32 * u32_at(&snap, records_at);
    }
    assert_eq!(at, snap.len());
    let checksum = sha256d(&snap);
    snap.extend_from_slice(&checksum);
    snap
}

struct Files {
    log: Vec<u8>,
    checkpoint: Vec<u8>,
    snapshot: Vec<u8>,
}

fn read_files(dir: &Path) -> Files {
    let read = |name| std::fs::read(dir.join(name)).unwrap();
    Files {
        log: read("blocks.log"),
        checkpoint: read("checkpoint"),
        snapshot: read("state.snap"),
    }
}

fn write_files(dir: &Path, files: &Files) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("blocks.log"), &files.log).unwrap();
    std::fs::write(dir.join("checkpoint"), &files.checkpoint).unwrap();
    std::fs::write(dir.join("state.snap"), &files.snapshot).unwrap();
}

fn refusal(result: Result<DurableStore, StorageError>) -> (&'static str, u64, String) {
    match result {
        Err(StorageError::Corrupt {
            file,
            offset,
            detail,
        }) => (file, offset, detail),
        other => panic!("expected a refusal, got {other:?}"),
    }
}

#[test]
fn a_version_1_directory_is_refused_naming_its_log() {
    let dir = scratch("v1-dir");
    let chain = v2_store(&dir);
    let v2 = read_files(&dir);
    let v1 = Files {
        log: v1_log(&v2.log),
        checkpoint: v1_checkpoint(&v2.checkpoint),
        snapshot: v1_snapshot(&v2.snapshot),
    };
    write_files(&dir, &v1);
    let expected = ("blocks.log", 0, "bad frame magic".to_string());
    assert_eq!(
        refusal(DurableStore::open_with(&dir, &chain[0], CONFIG)),
        expected
    );
    assert_eq!(
        refusal(DurableStore::open_existing_with(&dir, CONFIG)),
        expected
    );
    // The refusal repaired nothing: every file is as it was.
    assert_eq!(read_files(&dir).log, v1.log);
    assert_eq!(read_files(&dir).checkpoint, v1.checkpoint);
    assert_eq!(read_files(&dir).snapshot, v1.snapshot);
    // A version-1 export is refused the same way.
    assert!(matches!(
        import_chain(&v1.log),
        Err(ChainError::Storage { detail }) if detail.contains("bad frame magic")
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_version_1_checkpoint_is_refused() {
    let dir = scratch("v1-checkpoint");
    let chain = v2_store(&dir);
    let mut files = read_files(&dir);
    files.checkpoint = v1_checkpoint(&files.checkpoint);
    write_files(&dir, &files);
    let (file, offset, _) = refusal(DurableStore::open_with(&dir, &chain[0], CONFIG));
    assert_eq!((file, offset), ("checkpoint", 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_version_1_snapshot_beside_a_version_2_log_is_rejected_and_the_log_rescanned() {
    let dir = scratch("v1-snapshot");
    let chain = v2_store(&dir);
    let mut files = read_files(&dir);
    files.snapshot = v1_snapshot(&files.snapshot);
    write_files(&dir, &files);
    let store = DurableStore::open_with(&dir, &chain[0], CONFIG).unwrap();
    let recovery = store.last_recovery();
    assert!(recovery.snapshot_rejected && !recovery.snapshot_loaded);
    assert_eq!(store.snapshot_rejection(), Some("bad magic"));
    assert_eq!(store.canonical_blocks(), chain);
    // The open's own maintenance wrote a version-2 snapshot over it.
    drop(store);
    assert_eq!(&read_files(&dir).snapshot[..8], b"SCSNAP02");
    let store = DurableStore::open_with(&dir, &chain[0], CONFIG).unwrap();
    assert!(store.last_recovery().snapshot_loaded);
    let _ = std::fs::remove_dir_all(&dir);
}
