//! Persistence hardening: a chain at rest has one byte format, the frame
//! log. Forked-store round-trips and exhaustive corruption sweeps over
//! chain exports, then the same sweeps over a store directory's files.
//!
//! A provider restarting from disk must never panic on a damaged image
//! and must never accept one that smuggles non-canonical or tampered
//! history — every corruption is surfaced as a typed error.

use smartcrowd_chain::pow::Miner;
use smartcrowd_chain::record::{Record, RecordKind};
use smartcrowd_chain::storage::frame::{block_frame, FRAME_HEADER_LEN};
use smartcrowd_chain::storage::{export_chain, import_chain, ChainQuery, StoreConfig};
use smartcrowd_chain::{Block, ChainStore, Difficulty, DurableStore, Ether};
use smartcrowd_chain::{ChainError, StorageError, CONFIRMATION_DEPTH};
use smartcrowd_crypto::keys::KeyPair;
use smartcrowd_crypto::Address;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// A store holding a 8-block canonical chain plus a 3-block side branch
/// forked from height 4 — the restart-from-disk shape the chaos harness
/// produces after an equivocation or partition.
fn forked_store(difficulty: u64) -> (ChainStore, Vec<Block>) {
    let genesis = Block::genesis(Difficulty::from_u64(difficulty));
    let mut store = ChainStore::new(genesis.clone());
    let miner = Miner::new(Address::from_label("canonical"));
    let rival = Miner::new(Address::from_label("rival"));

    let mut parent = genesis;
    let mut canonical = Vec::new();
    for i in 0..8u64 {
        let kp = KeyPair::from_seed(&i.to_be_bytes());
        let r = Record::signed(
            RecordKind::InitialReport,
            vec![i as u8; 4],
            Ether::from_milliether(11),
            i,
            &kp,
        );
        let b = miner
            .mine_next(&parent, vec![r], parent.header().timestamp + 15)
            .unwrap();
        store.insert(b.clone()).unwrap();
        canonical.push(b.clone());
        parent = b;
    }

    // Shorter rival branch off height 4: stored, never canonical.
    let mut fork_parent = canonical[3].clone();
    let mut fork = Vec::new();
    for _ in 0..3 {
        let b = rival
            .mine_next(&fork_parent, vec![], fork_parent.header().timestamp + 30)
            .unwrap();
        store.insert(b.clone()).unwrap();
        fork.push(b.clone());
        fork_parent = b;
    }
    assert_eq!(store.best_tip(), canonical[7].id(), "main branch wins");
    assert_eq!(store.block_count(), 12, "genesis + 8 canonical + 3 fork");
    (store, fork)
}

#[test]
fn forked_store_round_trips_canonical_chain_only() {
    let (store, fork) = forked_store(1);
    let dump = export_chain(&store);
    let restored = import_chain(&dump).unwrap();

    assert_eq!(restored.best_tip(), store.best_tip());
    assert_eq!(restored.best_height(), store.best_height());
    assert_eq!(restored.genesis_id(), store.genesis_id());
    // The dump holds exactly the canonical chain: every canonical block
    // is present at its height, and no fork block made it across.
    for h in 0..=store.best_height() {
        assert_eq!(
            restored.canonical_id_at(h),
            store.canonical_id_at(h),
            "height {h} mismatch"
        );
    }
    assert_eq!(restored.block_count() as u64, store.best_height() + 1);
    for b in &fork {
        assert!(
            restored.block(&b.id()).is_none(),
            "fork block leaked into the dump"
        );
    }
    // Canonical records survive; a second round-trip is bit-identical.
    for block in store.canonical_blocks() {
        for record in block.records() {
            assert!(restored.find_record(&record.id()).is_some());
        }
    }
    assert_eq!(export_chain(&restored), dump);
}

#[test]
fn export_is_the_log_a_fresh_store_writes() {
    let (store, _) = forked_store(1);
    let export = export_chain(&store);
    let canonical: Vec<Block> = store.canonical_blocks().cloned().collect();

    // Committing the canonical chain into a fresh store writes the export.
    let tmp = TempDir::new("one-format-export");
    let written = tmp.path().join("written");
    let mut durable = DurableStore::open(&written, &canonical[0]).unwrap();
    for block in &canonical[1..] {
        durable.commit(block.clone()).unwrap();
    }
    drop(durable);
    assert_eq!(std::fs::read(written.join("blocks.log")).unwrap(), export);

    // And the export, planted as the only file of a directory, is a store.
    let planted = tmp.path().join("planted");
    store_with_log(&planted, &export);
    let reopened = DurableStore::open(&planted, &canonical[0]).unwrap();
    assert!(reopened.last_recovery().clean());
    assert_eq!(reopened.best_tip(), store.best_tip());
}

#[test]
fn a_forked_log_imports_as_the_store_it_came_from() {
    let (store, fork) = forked_store(1);
    let inserted: Vec<Block> = store.canonical_blocks().cloned().chain(fork).collect();
    let tmp = TempDir::new("one-format-import");
    let mut durable = DurableStore::open(tmp.path(), &inserted[0]).unwrap();
    for block in &inserted[1..] {
        durable.commit(block.clone()).unwrap();
    }
    let log = std::fs::read(tmp.path().join("blocks.log")).unwrap();
    let imported = import_chain(&log).unwrap();
    assert_eq!(imported.best_tip(), durable.best_tip());
    assert_eq!(imported.best_height(), durable.best_height());
    assert_eq!(imported.block_count(), durable.block_count());
    assert_eq!(
        imported.block_count(),
        store.block_count(),
        "fork blocks included"
    );
}

#[test]
fn every_prefix_of_an_export_is_an_ancestor_or_a_typed_error() {
    let (store, _) = forked_store(1);
    let export = export_chain(&store);
    let canonical: Vec<Block> = store.canonical_blocks().cloned().collect();
    let boundaries = frame_boundaries(&canonical);
    assert_eq!(*boundaries.last().unwrap(), export.len(), "boundary math");
    for cut in 0..export.len() {
        match (import_chain(&export[..cut]), boundaries.binary_search(&cut)) {
            // The empty image and every mid-frame cut: a typed error.
            (Err(_), Ok(0) | Err(_)) => {}
            // A frame-aligned cut: exactly the first `frames` blocks.
            (Ok(prefix), Ok(frames)) => {
                assert_eq!(prefix.block_count(), frames, "cut {cut}");
                assert_eq!(prefix.best_tip(), canonical[frames - 1].id(), "cut {cut}");
            }
            (Ok(_), Err(_)) => panic!("mid-frame cut {cut} imported"),
            (Err(e), Ok(_)) => panic!("frame-aligned cut {cut} refused: {e}"),
        }
    }
    assert_eq!(import_chain(&export).unwrap().best_tip(), store.best_tip());
}

#[test]
fn every_bit_flip_in_an_export_is_a_typed_error() {
    // Difficulty 1: nothing here leans on proof-of-work — every byte of
    // an export, the tip header included, is under a frame checksum.
    let (store, _) = forked_store(1);
    let export = export_chain(&store);
    let survivors: Vec<usize> = (0..export.len())
        .filter(|&pos| {
            let mut bent = export.clone();
            bent[pos] ^= 0x01;
            import_chain(&bent).is_ok()
        })
        .collect();
    assert!(
        survivors.is_empty(),
        "bit flips at {survivors:?} of {} bytes were accepted",
        export.len()
    );
}

// ---------------------------------------------------------------------------
// Store-directory sweeps: the same corruption classes driven against a
// DurableStore's files (blocks.log / checkpoint / state.snap), where recovery
// may also repair. Every case must either recover to a valid prefix of
// the original chain or fail closed with a typed StorageError — a
// corrupt state must never be silently accepted.
// ---------------------------------------------------------------------------

/// Self-cleaning scratch directory under the cargo target tmpdir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("persist-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds a linear `blocks`-long chain in a store at `dir` and closes it.
/// Returns the full block sequence, genesis first. The truncation sweeps
/// keep it ≤ the confirmation depth: no checkpoint is written, so the
/// checkpoint gate does not veto them.
fn build_disk_chain(dir: &Path, blocks: u64) -> Vec<Block> {
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let mut store = DurableStore::open(dir, &genesis).unwrap();
    let miner = Miner::new(Address::from_label("disk"));
    let mut parent = genesis.clone();
    let mut chain = vec![genesis];
    for i in 0..blocks {
        let kp = KeyPair::from_seed(&(1_000 + i).to_be_bytes());
        let r = Record::signed(
            RecordKind::InitialReport,
            vec![i as u8; 4],
            Ether::from_milliether(11),
            i,
            &kp,
        );
        let b = miner
            .mine_next(&parent, vec![r], parent.header().timestamp + 15)
            .unwrap();
        store.commit(b.clone()).unwrap();
        chain.push(b.clone());
        parent = b;
    }
    chain
}

/// Byte offset of each frame boundary in the log holding `chain`,
/// starting at 0 and ending at the log length.
fn frame_boundaries(chain: &[Block]) -> Vec<usize> {
    let mut boundaries = vec![0usize];
    for b in chain {
        let last = *boundaries.last().unwrap();
        boundaries.push(last + FRAME_HEADER_LEN + b.encode().len());
    }
    boundaries
}

/// Writes a store directory holding exactly `log` as its block log.
fn store_with_log(dir: &Path, log: &[u8]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("blocks.log"), log).unwrap();
}

#[test]
fn log_truncation_at_every_byte_recovers_to_a_valid_prefix() {
    let tmp = TempDir::new("trunc");
    let master = tmp.path().join("master");
    let chain = build_disk_chain(&master, 5);
    let genesis = chain[0].clone();
    let log = std::fs::read(master.join("blocks.log")).unwrap();
    let boundaries = frame_boundaries(&chain);
    assert_eq!(*boundaries.last().unwrap(), log.len(), "boundary math");

    let work = tmp.path().join("work");
    for cut in 0..log.len() {
        store_with_log(&work, &log[..cut]);
        let store = DurableStore::open(&work, &genesis)
            .unwrap_or_else(|e| panic!("cut at {cut} failed to recover: {e}"));
        // Complete frames surviving the cut; the rest is a torn tail.
        let frames = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        let expect_height = (frames as u64).saturating_sub(1);
        assert_eq!(store.best_height(), expect_height, "cut {cut}");
        assert_eq!(
            store.best_tip(),
            chain[expect_height as usize].id(),
            "cut {cut} recovered to a non-prefix tip"
        );
        let mid_frame = !boundaries.contains(&cut);
        assert_eq!(
            store.last_recovery().torn_truncated,
            mid_frame,
            "cut {cut} misclassified"
        );
    }
}

#[test]
fn log_bit_flip_sweep_recovers_to_prefix_or_fails_typed() {
    let tmp = TempDir::new("flip-log");
    let master = tmp.path().join("master");
    let chain = build_disk_chain(&master, 5);
    let genesis = chain[0].clone();
    let log = std::fs::read(master.join("blocks.log")).unwrap();

    let work = tmp.path().join("work");
    for pos in 0..log.len() {
        let mut bent = log.clone();
        bent[pos] ^= 0x01;
        store_with_log(&work, &bent);
        match DurableStore::open(&work, &genesis) {
            // Fail closed: bit damage in a complete frame is corruption,
            // surfaced as the typed variant, never a panic.
            Err(StorageError::Corrupt { .. }) => {}
            Err(e) => panic!("flip at {pos}: untyped failure {e}"),
            // Recover to prefix: a flip in a length field can make the
            // tail look torn; then everything from the damaged frame on
            // must be truncated away and what remains must be an exact
            // prefix of the original chain.
            Ok(store) => {
                let h = store.best_height();
                assert!(
                    (h as usize) + 1 < chain.len(),
                    "flip at {pos} survived with the full chain"
                );
                for height in 0..=h {
                    assert_eq!(
                        store.canonical_id_at(height),
                        Some(chain[height as usize].id()),
                        "flip at {pos}: non-prefix block at height {height}"
                    );
                }
                assert!(
                    store.last_recovery().torn_truncated,
                    "flip at {pos} accepted without truncation"
                );
            }
        }
    }
}

/// File names in a store directory.
fn dir_listing(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect()
}

#[test]
fn a_store_directory_is_three_files_and_a_legacy_index_is_ignored() {
    let tmp = TempDir::new("three-files");
    let dir = tmp.path().join("store");
    let chain = build_disk_chain_with(&dir, CONFIRMATION_DEPTH + 4, eager_snapshots());
    let three = ["blocks.log", "checkpoint", "state.snap"].map(String::from);
    assert_eq!(dir_listing(&dir), BTreeSet::from(three.clone()));

    // A directory an older build wrote still carries its sidecar index.
    // It is never read, rewritten or removed — like a stale `*.tmp`.
    let legacy = b"SCIDX1\0\0 anything at all".to_vec();
    std::fs::write(dir.join("blocks.idx"), &legacy).unwrap();
    let mut store = DurableStore::open_with(&dir, &chain[0], eager_snapshots()).unwrap();
    assert!(store.last_recovery().clean());
    assert_eq!(store.best_tip(), chain.last().unwrap().id());
    let parent = store.best_block();
    let next = Miner::new(Address::from_label("disk"))
        .mine_next(&parent, vec![], parent.header().timestamp + 15)
        .unwrap();
    store.commit(next).unwrap();
    drop(store);
    assert_eq!(std::fs::read(dir.join("blocks.idx")).unwrap(), legacy);
    let mut listing = dir_listing(&dir);
    assert!(listing.remove("blocks.idx"));
    assert_eq!(listing, BTreeSet::from(three));
}

#[test]
fn checkpoint_damage_always_refuses_the_open() {
    let tmp = TempDir::new("flip-ckpt");
    let master = tmp.path().join("master");
    // The checkpoint is written with the snapshot: snapshot every height.
    let chain = build_disk_chain_with(&master, CONFIRMATION_DEPTH + 3, eager_snapshots());
    let checkpoint = std::fs::read(master.join("checkpoint")).unwrap();
    let work = tmp.path().join("work");
    let open_with_checkpoint = |image: &[u8]| {
        clone_store_dir(&master, &work);
        std::fs::write(work.join("checkpoint"), image).unwrap();
        DurableStore::open(&work, &chain[0])
    };

    let intact = open_with_checkpoint(&checkpoint).unwrap();
    assert!(intact.last_recovery().clean());
    assert_eq!(intact.checkpoint_height(), 3);
    drop(intact);

    // The file is swapped in atomically, so no crash leaves it damaged:
    // every truncation and every flipped bit fails the open closed
    // rather than reopening without the confirmed-history floor.
    let truncations = (0..checkpoint.len()).map(|cut| checkpoint[..cut].to_vec());
    let flips = (0..checkpoint.len() * 8).map(|bit| {
        let mut bent = checkpoint.clone();
        bent[bit / 8] ^= 1 << (bit % 8);
        bent
    });
    for (case, image) in truncations.chain(flips).enumerate() {
        match open_with_checkpoint(&image) {
            Err(StorageError::Corrupt { file, .. }) => assert_eq!(file, "checkpoint"),
            other => panic!("damaged checkpoint #{case} produced {other:?}"),
        }
    }
}

#[test]
fn a_legacy_wal_never_changes_the_recovered_chain() {
    // Older stores kept the commit in flight in a `wal` file. Its commit
    // never returned, so it holds no acknowledged block: a directory
    // carrying one — intact or bit-flipped — opens to the same chain as
    // the directory without it, and the file is never read or touched.
    let tmp = TempDir::new("legacy-wal");
    let master = tmp.path().join("master");
    let chain = build_disk_chain(&master, 4);
    let genesis = chain[0].clone();
    let parent = &chain[4];
    let inflight = Miner::new(Address::from_label("disk"))
        .mine_next(parent, vec![], parent.header().timestamp + 15)
        .unwrap();
    let wal = block_frame(&inflight);

    let without = DurableStore::open(&master, &genesis).unwrap();
    let expect: Vec<_> = (0..=4).map(|h| without.canonical_id_at(h)).collect();
    assert_eq!(without.best_tip(), parent.id());
    drop(without);

    let work = tmp.path().join("work");
    let flips = (0..wal.len()).map(|pos| {
        let mut bent = wal.clone();
        bent[pos] ^= 0x01;
        bent
    });
    for (case, image) in std::iter::once(wal.clone()).chain(flips).enumerate() {
        clone_store_dir(&master, &work);
        std::fs::write(work.join("wal"), &image).unwrap();
        let store = DurableStore::open(&work, &genesis)
            .unwrap_or_else(|e| panic!("legacy wal #{case} broke the open: {e}"));
        assert!(store.last_recovery().clean(), "legacy wal #{case}");
        assert_eq!(store.best_tip(), parent.id(), "legacy wal #{case}");
        assert!(!store.contains_block(&inflight.id()), "legacy wal #{case}");
        let got: Vec<_> = (0..=4).map(|h| store.canonical_id_at(h)).collect();
        assert_eq!(got, expect, "legacy wal #{case}");
        drop(store);
        assert_eq!(std::fs::read(work.join("wal")).unwrap(), image, "#{case}");
    }
}

#[test]
fn forged_length_and_checksum_frames_fail_closed_or_truncate() {
    let tmp = TempDir::new("forged");
    let master = tmp.path().join("master");
    let chain = build_disk_chain(&master, 3);
    let genesis = chain[0].clone();
    let log = std::fs::read(master.join("blocks.log")).unwrap();
    let boundaries = frame_boundaries(&chain);
    let last = boundaries[boundaries.len() - 2];
    let payload_len = (boundaries[boundaries.len() - 1] - last - FRAME_HEADER_LEN) as u64;
    let work = tmp.path().join("work");

    // Forged checksum: complete frame, checksum bytes zeroed → corrupt,
    // never "torn", never accepted.
    let mut bent = log.clone();
    for b in &mut bent[last + 12..last + FRAME_HEADER_LEN] {
        *b = 0;
    }
    store_with_log(&work, &bent);
    assert!(matches!(
        DurableStore::open(&work, &genesis),
        Err(StorageError::Corrupt { .. })
    ));

    // Forged length past EOF: indistinguishable from an interrupted
    // append, so the frame is truncated and the prefix recovered.
    let mut bent = log.clone();
    bent[last + 4..last + 12].copy_from_slice(&(payload_len + 1_000).to_be_bytes());
    store_with_log(&work, &bent);
    let store = DurableStore::open(&work, &genesis).unwrap();
    assert_eq!(store.best_height(), 2);
    assert_eq!(store.best_tip(), chain[2].id());
    assert!(store.last_recovery().torn_truncated);
    drop(store);

    // Absurd forged length: fails closed instead of honouring the
    // allocation.
    let mut bent = log.clone();
    bent[last + 4..last + 12].copy_from_slice(&u64::MAX.to_be_bytes());
    store_with_log(&work, &bent);
    assert!(matches!(
        DurableStore::open(&work, &genesis),
        Err(StorageError::Corrupt { .. })
    ));

    // Forged shorter length: the frame completes early, its checksum no
    // longer covers the right bytes → corrupt.
    let mut bent = log.clone();
    bent[last + 4..last + 12].copy_from_slice(&(payload_len - 1).to_be_bytes());
    store_with_log(&work, &bent);
    assert!(matches!(
        DurableStore::open(&work, &genesis),
        Err(StorageError::Corrupt { .. })
    ));
}

/// Appends the first `bytes` of `frame` to the store's log, as a crash
/// mid-append leaves it: a strict prefix when `bytes` is shorter.
fn append_to_log(dir: &Path, frame: &[u8], bytes: usize) {
    use std::io::Write;
    let mut log = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("blocks.log"))
        .unwrap();
    log.write_all(&frame[..bytes]).unwrap();
}

/// The block a commit on `parent` would have written when the crash hit.
fn inflight(parent: &Block) -> Block {
    Miner::new(Address::from_label("disk"))
        .mine_next(parent, vec![], parent.header().timestamp + 15)
        .unwrap()
}

#[test]
fn interrupted_commits_recover_idempotently() {
    // A crash before the append's fsync leaves a torn tail: recovery
    // truncates it, and the commit — which never returned — is lost.
    for (i, bytes) in [10usize, 60].into_iter().enumerate() {
        let tmp = TempDir::new(&format!("crashpoint-{i}"));
        let dir = tmp.path().join("store");
        let chain = build_disk_chain(&dir, 3);
        let genesis = chain[0].clone();
        let parent = chain[3].clone();
        append_to_log(&dir, &block_frame(&inflight(&parent)), bytes);

        let store = DurableStore::open(&dir, &genesis)
            .unwrap_or_else(|e| panic!("case {i} failed recovery: {e}"));
        assert_eq!(store.best_height(), 3, "case {i}");
        assert_eq!(store.best_tip(), parent.id(), "case {i}");
        assert!(store.last_recovery().torn_truncated, "case {i}");
        drop(store);

        // Recovery is idempotent: a second reopen finds a clean store at
        // the same height.
        let store = DurableStore::open(&dir, &genesis).unwrap();
        assert!(store.last_recovery().clean(), "case {i} second recovery");
        assert_eq!(store.best_height(), 3, "case {i}");
    }

    // A crash after the whole frame reached the log but before its fsync
    // returned: the commit never returned either, and open may keep it.
    let tmp = TempDir::new("crashpoint-whole");
    let dir = tmp.path().join("store");
    let chain = build_disk_chain(&dir, 3);
    let next = inflight(&chain[3]);
    let frame = block_frame(&next);
    append_to_log(&dir, &frame, frame.len());
    let store = DurableStore::open(&dir, &chain[0]).unwrap();
    assert!(store.last_recovery().clean());
    assert_eq!(store.best_tip(), next.id());
}

#[test]
fn failed_commit_never_advertises_a_tip_it_cannot_serve() {
    // A commit that died mid-append leaves a store that answers the old
    // tip and serves its body: the torn block is neither indexed nor
    // half-readable. (The live handle's side of this, and its poisoning,
    // are the `storage::durable` unit tests.)
    for (i, bytes) in [10usize, 60].into_iter().enumerate() {
        let tmp = TempDir::new(&format!("commit-order-{i}"));
        let dir = tmp.path().join("store");
        let chain = build_disk_chain(&dir, 3);
        let parent = &chain[3];
        let next = inflight(parent);
        append_to_log(&dir, &block_frame(&next), bytes);
        let store = DurableStore::open(&dir, &chain[0]).unwrap();
        assert_eq!(store.best_tip(), parent.id(), "case {i}");
        assert_eq!(store.best_height(), 3, "case {i}");
        assert_eq!(&store.best_block(), parent, "case {i}");
        assert!(!store.contains_block(&next.id()), "case {i}");
    }
}

// ---------------------------------------------------------------------------
// Snapshot sweeps: `state.snap` is an accelerator, never an authority.
// Every corruption of it must be rejected — recovery falls back to the
// full-log replay (or fails closed if the *log* is also bad) and then
// heals by rewriting a fresh snapshot. No snapshot damage may ever
// change the recovered chain.
// ---------------------------------------------------------------------------

/// A config that snapshots on every checkpoint advance, so even a short
/// chain leaves a `state.snap` behind.
fn eager_snapshots() -> StoreConfig {
    StoreConfig {
        cache_capacity: usize::MAX,
        snapshot_interval: 1,
    }
}

/// Builds a linear chain under `config`, returning the block sequence.
fn build_disk_chain_with(dir: &Path, blocks: u64, config: StoreConfig) -> Vec<Block> {
    let genesis = Block::genesis(Difficulty::from_u64(1));
    let mut store = DurableStore::open_with(dir, &genesis, config).unwrap();
    let miner = Miner::new(Address::from_label("disk"));
    let mut parent = genesis.clone();
    let mut chain = vec![genesis];
    for i in 0..blocks {
        let kp = KeyPair::from_seed(&(2_000 + i).to_be_bytes());
        let r = Record::signed(
            RecordKind::InitialReport,
            vec![i as u8; 4],
            Ether::from_milliether(11),
            i,
            &kp,
        );
        let b = miner
            .mine_next(&parent, vec![r], parent.header().timestamp + 15)
            .unwrap();
        store.commit(b.clone()).unwrap();
        chain.push(b.clone());
        parent = b;
    }
    chain
}

/// Copies a store directory file-by-file into `work`.
fn clone_store_dir(master: &Path, work: &Path) {
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).unwrap();
    for entry in std::fs::read_dir(master).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), work.join(entry.file_name())).unwrap();
    }
}

#[test]
fn valid_snapshot_serves_a_clean_fast_path_open() {
    let tmp = TempDir::new("snap-clean");
    let master = tmp.path().join("master");
    let chain = build_disk_chain_with(&master, 10, eager_snapshots());
    assert!(master.join("state.snap").exists(), "no snapshot written");

    let store = DurableStore::open_with(&master, &chain[0], eager_snapshots()).unwrap();
    assert!(store.last_recovery().snapshot_loaded, "fast path not taken");
    assert!(store.last_recovery().clean(), "fast path counted as repair");
    assert_eq!(store.best_height(), 10);
    assert_eq!(store.best_tip(), chain[10].id());
    for (h, b) in chain.iter().enumerate() {
        assert_eq!(store.canonical_id_at(h as u64), Some(b.id()));
        // Bodies page back in through the log, checksum-verified.
        assert_eq!(store.get_block(&b.id()).map(|x| x.id()), Some(b.id()));
        for record in b.records() {
            assert!(store.find_record(&record.id()).is_some(), "height {h}");
        }
    }
}

#[test]
fn snapshot_truncation_at_every_byte_falls_back_to_full_replay() {
    let tmp = TempDir::new("snap-trunc");
    let master = tmp.path().join("master");
    let chain = build_disk_chain_with(&master, 10, eager_snapshots());
    let snap = std::fs::read(master.join("state.snap")).unwrap();

    let work = tmp.path().join("work");
    for cut in 0..snap.len() {
        clone_store_dir(&master, &work);
        std::fs::write(work.join("state.snap"), &snap[..cut]).unwrap();
        let store = DurableStore::open_with(&work, &chain[0], eager_snapshots())
            .unwrap_or_else(|e| panic!("snap cut at {cut} broke recovery: {e}"));
        assert!(
            store.last_recovery().snapshot_rejected,
            "snap cut at {cut} was not rejected (reason: {:?})",
            store.snapshot_rejection()
        );
        assert!(!store.last_recovery().snapshot_loaded, "cut {cut}");
        assert_eq!(store.best_height(), 10, "snap cut at {cut}");
        assert_eq!(store.best_tip(), chain[10].id(), "snap cut at {cut}");
        // The fallback heals: a fresh, valid snapshot is rewritten.
        assert!(store.has_snapshot(), "snap cut at {cut} did not heal");
    }
}

#[test]
fn snapshot_bit_flip_sweep_falls_back_to_full_replay() {
    let tmp = TempDir::new("snap-flip");
    let master = tmp.path().join("master");
    let chain = build_disk_chain_with(&master, 8, eager_snapshots());
    let snap = std::fs::read(master.join("state.snap")).unwrap();

    let work = tmp.path().join("work");
    for pos in 0..snap.len() {
        let mut bent = snap.clone();
        bent[pos] ^= 0x01;
        clone_store_dir(&master, &work);
        std::fs::write(work.join("state.snap"), &bent).unwrap();
        let store = DurableStore::open_with(&work, &chain[0], eager_snapshots())
            .unwrap_or_else(|e| panic!("snap flip at {pos} broke recovery: {e}"));
        assert!(
            store.last_recovery().snapshot_rejected,
            "snap flip at {pos} was accepted"
        );
        assert_eq!(store.best_height(), 8, "snap flip at {pos}");
        assert_eq!(store.best_tip(), chain[8].id(), "snap flip at {pos}");
    }
}

#[test]
fn torn_snapshot_rewrite_never_loses_the_durable_commit() {
    for bytes in [1u64, 8, 40, 200, 100_000] {
        let tmp = TempDir::new(&format!("snap-torn-{bytes}"));
        let dir = tmp.path().join("store");
        let mut chain = build_disk_chain_with(&dir, 9, eager_snapshots());
        let genesis = chain[0].clone();
        let next = inflight(&chain[9]);
        let mut store = DurableStore::open_with(&dir, &genesis, eager_snapshots()).unwrap();
        store.commit(next.clone()).unwrap();
        assert_eq!(store.snapshot_height(), 10 - CONFIRMATION_DEPTH);
        drop(store);
        chain.push(next);
        // The snapshot the commit wrote, torn as a rewrite in place
        // leaves it on a filesystem without atomic rename.
        let snap = dir.join("state.snap");
        let len = std::fs::metadata(&snap).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&snap)
            .unwrap()
            .set_len(bytes.clamp(1, len - 1))
            .unwrap();

        // The commit was fully durable before the snapshot tear: recovery
        // must reject the half-written snapshot and replay the whole log.
        let store = DurableStore::open_with(&dir, &genesis, eager_snapshots())
            .unwrap_or_else(|e| panic!("torn snapshot ({bytes} bytes) broke recovery: {e}"));
        assert!(store.last_recovery().snapshot_rejected, "{bytes} bytes");
        assert_eq!(store.best_height(), 10, "{bytes} bytes");
        assert_eq!(store.best_tip(), chain[10].id(), "{bytes} bytes");
        drop(store);

        // Healed: the next reopen takes the fast path again.
        let store = DurableStore::open_with(&dir, &genesis, eager_snapshots()).unwrap();
        assert!(store.last_recovery().snapshot_loaded, "{bytes} bytes");
        assert!(store.last_recovery().clean(), "{bytes} bytes");
        assert_eq!(store.best_height(), 10, "{bytes} bytes");
    }
}

#[test]
fn stale_snapshot_from_before_the_tail_still_fast_paths() {
    // Freeze a snapshot, then grow the log past it: open must adopt the
    // prefix from the snapshot and fully replay only the tail.
    let tmp = TempDir::new("snap-stale");
    let dir = tmp.path().join("store");
    let chain = build_disk_chain_with(&dir, 8, eager_snapshots());
    let frozen = std::fs::read(dir.join("state.snap")).unwrap();

    let genesis = chain[0].clone();
    let mut store = DurableStore::open_with(&dir, &genesis, eager_snapshots()).unwrap();
    let miner = Miner::new(Address::from_label("disk"));
    let mut parent = chain[8].clone();
    let mut tail = Vec::new();
    for _ in 0..4 {
        let b = miner
            .mine_next(&parent, vec![], parent.header().timestamp + 15)
            .unwrap();
        store.commit(b.clone()).unwrap();
        tail.push(b.clone());
        parent = b;
    }
    drop(store);
    // Re-plant the stale (but internally valid) snapshot.
    std::fs::write(dir.join("state.snap"), &frozen).unwrap();

    let store = DurableStore::open_with(&dir, &genesis, eager_snapshots()).unwrap();
    assert!(store.last_recovery().snapshot_loaded, "stale snap rejected");
    assert!(store.last_recovery().clean());
    assert_eq!(store.best_height(), 12);
    assert_eq!(store.best_tip(), tail[3].id());
}

#[test]
fn damage_past_the_snapshot_names_its_byte_in_the_file() {
    // A flipped byte in a frame past the snapshot's prefix: the tail scan
    // rejects the snapshot and the full scan fails closed, both at the
    // damaged frame's offset in the file.
    let tmp = TempDir::new("snap-tail-flip");
    let dir = tmp.path().join("store");
    let chain = build_disk_chain_with(&dir, 8, eager_snapshots());
    let covered = frame_boundaries(&chain)[chain.len()];
    let frozen = std::fs::read(dir.join("state.snap")).unwrap();
    let mut store = DurableStore::open_with(&dir, &chain[0], eager_snapshots()).unwrap();
    let miner = Miner::new(Address::from_label("disk"));
    let mut parent = chain[8].clone();
    let mut tail = Vec::new();
    for _ in 0..3 {
        let b = miner
            .mine_next(&parent, vec![], parent.header().timestamp + 15)
            .unwrap();
        store.commit(b.clone()).unwrap();
        tail.push(b.clone());
        parent = b;
    }
    drop(store);
    std::fs::write(dir.join("state.snap"), &frozen).unwrap();
    let damaged = covered + FRAME_HEADER_LEN + tail[0].encode().len();
    let mut log = std::fs::read(dir.join("blocks.log")).unwrap();
    log[damaged + FRAME_HEADER_LEN + 3] ^= 0x01;
    std::fs::write(dir.join("blocks.log"), &log).unwrap();
    match DurableStore::open_with(&dir, &chain[0], eager_snapshots()) {
        Err(StorageError::Corrupt {
            file: "blocks.log",
            offset,
            ..
        }) => assert_eq!(offset as usize, damaged),
        other => panic!("a damaged tail frame produced {other:?}"),
    }

    // The tail scan's own verdict shows only when the full scan
    // succeeds: a forged log whose one block past genesis carries the
    // snapshot's last covered frame inside its payload, at the offset
    // the snapshot names. The snapshot binds, its tail starts mid-payload,
    // and the rejection names that byte of the file.
    let payload_at = |block: &Block| {
        let frame = block_frame(block);
        let marker = block.records()[0].payload();
        frame
            .windows(marker.len())
            .position(|w| w == marker)
            .unwrap()
    };
    let kp = KeyPair::from_seed(b"forger");
    let forge = |payload: Vec<u8>| {
        let record = Record::signed(RecordKind::Transfer, payload, Ether::ZERO, 0, &kp);
        Miner::new(Address::from_label("forger"))
            .mine_next(&chain[0], vec![record], chain[0].header().timestamp + 15)
            .unwrap()
    };
    let boundaries = frame_boundaries(&chain);
    let probe = forge((0..=255u8).collect());
    let pad = boundaries[8] - boundaries[1] - payload_at(&probe);
    let mut payload = vec![7u8; pad];
    payload.extend_from_slice(&block_frame(&chain[8]));
    payload.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    let forged = forge(payload);
    let mut log = block_frame(&chain[0]);
    log.extend_from_slice(&block_frame(&forged));
    std::fs::write(dir.join("blocks.log"), &log).unwrap();
    std::fs::write(dir.join("state.snap"), &frozen).unwrap();
    // The checkpoint names a block the forged log lacks.
    std::fs::remove_file(dir.join("checkpoint")).unwrap();
    let store = DurableStore::open_with(&dir, &chain[0], eager_snapshots()).unwrap();
    assert_eq!(store.best_tip(), forged.id(), "the log decides");
    assert_eq!(
        store.snapshot_rejection(),
        Some(
            format!("tail scan failed: corrupt blocks.log at byte {covered}: bad frame magic")
                .as_str()
        )
    );
}

#[cfg(unix)]
#[test]
fn unreadable_checkpoint_refuses_the_open() {
    // Only a missing checkpoint means "no floor". One that exists but
    // cannot be read (here a self-referencing symlink: `read` fails with
    // ELOOP, while a rename over it would succeed) must refuse the open,
    // not reopen without the veto and overwrite the evidence.
    let tmp = TempDir::new("unreadable-ckpt");
    let dir = tmp.path().join("store");
    let chain = build_disk_chain_with(&dir, 10, eager_snapshots());
    let checkpoint = dir.join("checkpoint");
    std::fs::remove_file(&checkpoint).unwrap();
    std::os::unix::fs::symlink("checkpoint", &checkpoint).unwrap();
    match DurableStore::open(&dir, &chain[0]) {
        Err(StorageError::Io {
            op: "read", path, ..
        }) => assert_eq!(path, checkpoint),
        other => panic!("unreadable checkpoint produced {other:?}"),
    }
    let meta = std::fs::symlink_metadata(&checkpoint).unwrap();
    assert!(meta.file_type().is_symlink(), "the refused open rewrote it");
}

// ---------------------------------------------------------------------------
// The genesis-difficulty pin: a live commit and a replay run the same
// header check, so a block at any other difficulty is refused before it
// reaches the log, and a log that carries one fails closed.
// ---------------------------------------------------------------------------

/// A child of `parent` sealed at `difficulty`, whatever the genesis says.
fn sealed_at(parent: &Block, difficulty: u64, label: &str) -> Block {
    let block = Block::assemble(
        parent,
        vec![],
        parent.header().timestamp + 15,
        Difficulty::from_u64(difficulty),
        Address::from_label(label),
    );
    Miner::new(Address::from_label(label))
        .seal(block, 0)
        .unwrap()
}

#[test]
fn off_genesis_difficulty_commit_is_refused_and_reopens_at_the_old_tip() {
    // Genesis at 16. A sibling of block 1 at 64× that would outweigh the
    // eight honest blocks (difficulty raising); one at 1 costs nothing.
    let tmp = TempDir::new("difficulty-pin");
    let dir = tmp.path().join("store");
    let genesis = Block::genesis(Difficulty::from_u64(16));
    let mut store = DurableStore::open_with(&dir, &genesis, eager_snapshots()).unwrap();
    let mut parent = genesis.clone();
    for _ in 0..8 {
        let block = sealed_at(&parent, 16, "honest");
        store.commit(block.clone()).unwrap();
        parent = block;
    }
    let log_len = std::fs::metadata(dir.join("blocks.log")).unwrap().len();
    for difficulty in [16 * 64, 1] {
        let rival = sealed_at(&genesis, difficulty, "raiser");
        match store.commit(rival.clone()) {
            Err(StorageError::Chain(ChainError::Codec { detail })) => {
                assert!(detail.contains("difficulty drift"), "{detail}")
            }
            other => panic!("difficulty {difficulty} commit returned {other:?}"),
        }
        assert!(!store.contains_block(&rival.id()));
        assert_eq!(store.best_tip(), parent.id());
    }
    assert_eq!(
        std::fs::metadata(dir.join("blocks.log")).unwrap().len(),
        log_len,
        "a refused block never reaches the log"
    );
    // The refusal did not poison the handle.
    let next = sealed_at(&parent, 16, "honest");
    store.commit(next.clone()).unwrap();
    drop(store);

    let fast = DurableStore::open_with(&dir, &genesis, eager_snapshots()).unwrap();
    assert!(
        fast.last_recovery().snapshot_loaded,
        "snapshot path not taken"
    );
    assert!(fast.last_recovery().clean());
    assert_eq!(fast.best_tip(), next.id());
    drop(fast);
    let full_scan = StoreConfig {
        snapshot_interval: 0,
        ..eager_snapshots()
    };
    let full = DurableStore::open_with(&dir, &genesis, full_scan).unwrap();
    assert!(!full.last_recovery().snapshot_loaded);
    assert!(full.last_recovery().clean());
    assert_eq!(full.best_tip(), next.id());
    assert_eq!(full.block_count(), 10);
}

#[test]
fn a_log_that_lowers_a_difficulty_fails_closed() {
    // A whole, checksummed frame of a block at difficulty 1 on a chain
    // whose genesis set 16: every target is met, so only the pin catches
    // it, in a store open and in an import alike.
    let tmp = TempDir::new("difficulty-lowered");
    let genesis = Block::genesis(Difficulty::from_u64(16));
    let mut chain = ChainStore::new(genesis.clone());
    let mut parent = genesis.clone();
    for _ in 0..3 {
        let block = sealed_at(&parent, 16, "honest");
        chain.insert(block.clone()).unwrap();
        parent = block;
    }
    let mut log = export_chain(&chain);
    log.extend_from_slice(&block_frame(&sealed_at(&parent, 1, "forger")));
    let dir = tmp.path().join("store");
    store_with_log(&dir, &log);
    match DurableStore::open(&dir, &genesis) {
        Err(StorageError::Corrupt { file, detail, .. }) => {
            assert_eq!(file, "blocks.log");
            assert!(detail.contains("difficulty drift"), "{detail}");
        }
        other => panic!("lowered difficulty opened as {other:?}"),
    }
    assert!(matches!(
        import_chain(&log),
        Err(ChainError::Codec { detail }) if detail.contains("difficulty drift")
    ));
}
