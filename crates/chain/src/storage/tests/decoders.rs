//! The storage decoders never panic on what a disk can hold.
//!
//! Valid version-2 images of a small store — its `blocks.log`,
//! `state.snap` and `checkpoint` — are cut, bit-flipped, overwritten
//! with declared lengths up to `u64::MAX`, or replaced by arbitrary
//! bytes, and each result goes to the frame scanner, the [`FrameReader`]
//! (over the image and over a file), the snapshot decoder and the
//! checkpoint decoder. Half the damaged images are re-sealed first (their
//! CRCs recomputed, as anyone who can rewrite a file can do), so the
//! parsers behind each checksum see the damage too. Every answer must be
//! a value or a typed error.

use super::crc64::crc64;
use super::durable::decode_checkpoint;
use super::frame::{
    frame_extent, scan_frame, FrameScan, FRAME_HEADER_LEN, FRAME_MAGIC, MAX_FRAME_PAYLOAD,
};
use super::log::{BlockLog, FrameReader};
use super::snapshot::{decode_snapshot, SnapshotRead, SNAPSHOT_FILE};
use super::{DurableStore, StorageError, StoreConfig};
use crate::amount::Ether;
use crate::block::Block;
use crate::difficulty::Difficulty;
use crate::pow::Miner;
use crate::record::{Record, RecordKind};
use proptest::prelude::*;
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// One file's valid image and the offsets of the length-like fields in
/// it, where a forged value does the most harm.
struct Image {
    bytes: Vec<u8>,
    fields: Vec<usize>,
}

struct Images {
    log: Image,
    /// Start of every frame in the log image.
    frames: Vec<usize>,
    snapshot: Image,
    checkpoint: Image,
}

/// A store of ten blocks carrying up to three records each, snapshotted
/// at every confirmed height, read back from disk.
fn images() -> &'static Images {
    static IMAGES: OnceLock<Images> = OnceLock::new();
    IMAGES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("sc-decoders-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let config = StoreConfig {
            cache_capacity: 2,
            snapshot_interval: 1,
        };
        let mut store = DurableStore::open_with(&dir, &genesis, config).unwrap();
        let miner = Miner::new(Address::from_label("decoders"));
        let key = KeyPair::from_seed(b"decoders");
        let mut parent = genesis;
        for height in 1..=10u64 {
            let records = (0..height % 4)
                .map(|i| {
                    let payload = vec![height as u8; (i * 37) as usize];
                    Record::signed(
                        RecordKind::Transfer,
                        payload,
                        Ether::ZERO,
                        height * 8 + i,
                        &key,
                    )
                })
                .collect();
            let block = miner
                .mine_next(&parent, records, parent.header().timestamp + 15)
                .unwrap();
            store.commit(block.clone()).unwrap();
            parent = block;
        }
        drop(store);
        let read = |name: &str| std::fs::read(dir.join(name)).unwrap();
        let (log, snapshot, checkpoint) =
            (read("blocks.log"), read(SNAPSHOT_FILE), read("checkpoint"));
        let _ = std::fs::remove_dir_all(&dir);

        let mut frames = Vec::new();
        let mut log_fields = Vec::new();
        let mut at = 0;
        while at < log.len() {
            let FrameScan::Complete { payload, next } = scan_frame(&log, at) else {
                panic!("the store wrote a damaged frame at {at}");
            };
            frames.push(at);
            // The frame's length, the block's header length and its
            // record count, and the first record's length.
            let body = at + FRAME_HEADER_LEN;
            let header_len = u64_at(payload, 0) as usize;
            log_fields.extend([at + 4, body, body + 8 + header_len, body + 16 + header_len]);
            at = next;
        }

        // The snapshot's log length and entry count, then per entry its
        // offset, frame length, header length and record count.
        let mut snap_fields = vec![8, 48];
        let mut at = 56;
        while at + 8 < snapshot.len() {
            let header_len = u32_at(&snapshot, at + 16) as usize;
            let count_at = at + 20 + header_len;
            snap_fields.extend([at, at + 8, at + 16, count_at]);
            at = count_at + 4 + 32 * u32_at(&snapshot, count_at) as usize;
        }
        assert!(matches!(decode_snapshot(&snapshot), SnapshotRead::Valid(_)));
        assert!(decode_checkpoint(&checkpoint).is_ok());
        Images {
            log: Image {
                bytes: log,
                fields: log_fields,
            },
            frames,
            snapshot: Image {
                bytes: snapshot,
                fields: snap_fields,
            },
            checkpoint: Image {
                bytes: checkpoint,
                fields: vec![8],
            },
        }
    })
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_be_bytes(word)
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[at..at + 4]);
    u32::from_be_bytes(word)
}

/// What is done to a valid image.
#[derive(Debug, Clone)]
enum Damage {
    /// Cut to `n mod (len + 1)` bytes.
    Truncate(usize),
    /// Xor each `(position mod len, mask)`.
    Flip(Vec<(usize, u8)>),
    /// Overwrite the big-endian `u64` at a length field (or, past the
    /// field list, at `pick mod len`) with `value`.
    Declare {
        pick: usize,
        value: u64,
        short: bool,
    },
    /// Replace the whole image.
    Arbitrary(Vec<u8>),
}

fn declared() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(u64::MAX),
        Just(u64::MAX - 7),
        Just(1 << 63),
        Just(u32::MAX as u64),
        Just(MAX_FRAME_PAYLOAD),
        Just(MAX_FRAME_PAYLOAD + 1),
        0..4_096u64,
        any::<u64>(),
    ]
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        any::<usize>().prop_map(Damage::Truncate),
        proptest::collection::vec((any::<usize>(), 1..=255u8), 1..4).prop_map(Damage::Flip),
        (any::<usize>(), declared(), any::<bool>())
            .prop_map(|(pick, value, short)| Damage::Declare { pick, value, short }),
        proptest::collection::vec(any::<u8>(), 0..400).prop_map(Damage::Arbitrary),
    ]
}

fn apply(image: &Image, damage: &Damage) -> Vec<u8> {
    let mut bytes = image.bytes.clone();
    let len = bytes.len();
    match damage {
        Damage::Truncate(n) => bytes.truncate(n % (len + 1)),
        Damage::Flip(flips) => {
            for &(at, mask) in flips {
                bytes[at % len] ^= mask;
            }
        }
        &Damage::Declare { pick, value, short } => {
            let fields = &image.fields;
            let at = fields.get(pick % (2 * fields.len())).copied();
            let at = at.unwrap_or(pick % len);
            // A u32 field takes the low half; either form may run off
            // the end, where it is cut.
            let word = if short {
                (value as u32).to_be_bytes().to_vec()
            } else {
                value.to_be_bytes().to_vec()
            };
            let end = (at + word.len()).min(len);
            bytes[at..end].copy_from_slice(&word[..end - at]);
        }
        Damage::Arbitrary(arbitrary) => bytes = arbitrary.clone(),
    }
    bytes
}

/// Recomputes every frame header's length and CRC at the valid image's
/// frame starts, as far as the bytes reach: a forger's rewrite.
fn reseal_log(log: &mut [u8], frames: &[usize]) {
    for (i, &start) in frames.iter().enumerate() {
        let end = frames
            .get(i + 1)
            .copied()
            .unwrap_or(log.len())
            .min(log.len());
        if start + FRAME_HEADER_LEN > end {
            break;
        }
        let crc = crc64(&log[start + FRAME_HEADER_LEN..end]);
        let len = (end - start - FRAME_HEADER_LEN) as u64;
        log[start..start + 4].copy_from_slice(&FRAME_MAGIC);
        log[start + 4..start + 12].copy_from_slice(&len.to_be_bytes());
        log[start + 12..start + 20].copy_from_slice(&crc.to_be_bytes());
    }
}

/// Recomputes a trailing CRC-64 over everything before it.
fn reseal_trailer(bytes: &mut [u8]) {
    if let Some(content) = bytes.len().checked_sub(8) {
        let crc = crc64(&bytes[..content]);
        bytes[content..].copy_from_slice(&crc.to_be_bytes());
    }
}

/// Every frame the reader yields, then its verdict.
fn drain(mut reader: FrameReader<'_>) -> Result<usize, StorageError> {
    let mut blocks = 0;
    while reader.next_block()?.is_some() {
        blocks += 1;
    }
    Ok(blocks)
}

static CASE: AtomicU64 = AtomicU64::new(0);

fn check_log(log: &[u8]) {
    for at in 0..log.len().min(4 * FRAME_HEADER_LEN) {
        let head = &log[at..(at + FRAME_HEADER_LEN).min(log.len())];
        assert!(frame_extent(head) >= head.len().min(FRAME_HEADER_LEN));
        let _ = scan_frame(log, at);
    }
    let in_memory = drain(FrameReader::image(log));
    let dir = std::env::temp_dir().join(format!(
        "sc-decoders-log-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("blocks.log");
    std::fs::write(&path, log).unwrap();
    let from_file = drain(BlockLog::open(&path).unwrap().frames_from(0));
    let _ = std::fs::remove_dir_all(&dir);
    // The file reader gets the verdict the image gets.
    assert_eq!(
        in_memory.map_err(|e| e.to_string()),
        from_file.map_err(|e| e.to_string())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn frame_scanner_and_reader_never_panic(damage in damage(), reseal in any::<bool>()) {
        let images = images();
        let mut log = apply(&images.log, &damage);
        if reseal {
            reseal_log(&mut log, &images.frames);
        }
        check_log(&log);
    }

    #[test]
    fn snapshot_decoder_never_panics(damage in damage(), reseal in any::<bool>()) {
        let mut snapshot = apply(&images().snapshot, &damage);
        if reseal {
            reseal_trailer(&mut snapshot);
        }
        let _ = decode_snapshot(&snapshot);
    }

    #[test]
    fn checkpoint_decoder_never_panics(damage in damage(), reseal in any::<bool>()) {
        let mut checkpoint = apply(&images().checkpoint, &damage);
        if reseal {
            reseal_trailer(&mut checkpoint);
        }
        match decode_checkpoint(&checkpoint) {
            Ok(_) => prop_assert!(reseal || checkpoint == images().checkpoint.bytes),
            Err(e) => {
                let typed = matches!(e, StorageError::Corrupt { file: "checkpoint", .. });
                prop_assert!(typed, "{e}");
            }
        }
    }
}
