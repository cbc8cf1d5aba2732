//! The durable store: the chain index over bodies paged in from an
//! on-disk log, kept consistent with that log across crashes at any
//! instruction boundary.
//!
//! Unlike the in-memory [`crate::store::ChainStore`], the durable store
//! does **not** hold every block body in memory. Beside the shared
//! [`ChainIndex`] — headers, per-block work, the canonical index and the
//! record index, all O(header) per block — it keeps each block's frame
//! location and pages bodies through a bounded [`BlockCache`], reading
//! cold frames back from `blocks.log` with a single seek plus
//! checksum-verified decode. Reopen cost is O(snapshot + log tail) when a
//! valid `state.snap` exists, falling back to the full-log scan
//! otherwise. Either way the log streams past one frame at a time into
//! the cache, as commits fill it, so open holds no more bodies than the
//! cache will. See DESIGN.md §15 and STORAGE.md.

use super::cache::BlockCache;
use super::crc64::crc64;
use super::disk::{self, write_atomic};
use super::log::{BlockLog, FrameReader, LogEntry};
use super::snapshot::{self, Snapshot, SnapshotEntry, SnapshotRead, SNAPSHOT_FILE};
use super::{block_frame, ChainBackend, ChainQuery, StorageError, StoreConfig};
use crate::block::Block;
use crate::chain_index::ChainIndex;
use crate::error::ChainError;
use crate::header::BlockId;
use crate::CONFIRMATION_DEPTH;
use smartcrowd_crypto::DigestMap;
use smartcrowd_telemetry::counter;
use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};

const CHECKPOINT_MAGIC: &[u8; 8] = b"SCCKPT02";
/// magic + height + block id + CRC-64 of the preceding 48 bytes.
const CHECKPOINT_LEN: usize = 8 + 8 + 32 + 8;

/// What recovery had to repair (or accelerate) during
/// [`DurableStore::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A torn tail was truncated from `blocks.log`.
    pub torn_truncated: bool,
    /// The open was served from a valid state snapshot (fast path; not a
    /// repair, so it does not affect [`RecoveryReport::clean`]).
    pub snapshot_loaded: bool,
    /// A snapshot file existed but was rejected (damaged, stale, or
    /// failing its log-binding checks); open fell back to the full scan.
    pub snapshot_rejected: bool,
}

impl RecoveryReport {
    /// True when the open found a byte-perfect store: no repairs and no
    /// rejected snapshot. A *loaded* snapshot still counts as clean —
    /// the fast path is an accelerator, not a repair.
    pub fn clean(&self) -> bool {
        !self.torn_truncated && !self.snapshot_rejected
    }
}

/// Everything recovery produced before repairs are applied.
struct Recovered {
    index: ChainIndex,
    entries: Vec<LogEntry>,
    valid_len: u64,
    torn: bool,
    /// The cache the replayed bodies (full scan: all; snapshot path: the
    /// tail) went into, as each would on commit.
    cache: BlockCache,
    /// A genesis block to append to a freshly-seeded log.
    seeded_genesis: Option<Block>,
}

/// A file-backed chain store with a bounded block cache, checkpoint
/// state snapshots, crash recovery and fork pruning.
///
/// Every [`commit`] is durable before it returns: the fsync of its log
/// append is the durability point. Reads are answered from the resident
/// chain index (headers, heights, record index) plus a bounded body
/// cache, paging cold frames back in from disk. See the module docs,
/// DESIGN.md §15 and STORAGE.md for the on-disk layout and the recovery
/// state machine.
///
/// [`commit`]: DurableStore::commit
#[derive(Debug)]
pub struct DurableStore {
    dir: PathBuf,
    index: ChainIndex,
    /// Where each indexed block's frame sits in `blocks.log`.
    locations: DigestMap<BlockId, LogEntry>,
    cache: RefCell<BlockCache>,
    log: BlockLog,
    config: StoreConfig,
    /// Highest confirmed `(height, id)`. It advances on every commit; the
    /// `checkpoint` file catches up when the snapshot is written.
    checkpoint: (u64, BlockId),
    /// Checkpoint height the current `state.snap` was written at.
    snapshot_height: u64,
    has_snapshot: bool,
    last_recovery: RecoveryReport,
    /// Why the last open rejected a snapshot, if it did.
    snapshot_rejection: Option<String>,
    poisoned: Cell<bool>,
}

impl DurableStore {
    /// Opens (creating if needed) the store in `dir` with default
    /// [`StoreConfig`], running recovery. A fresh directory is seeded
    /// with `genesis`; an existing one must hold a chain built on that
    /// same genesis.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on filesystem failures; [`StorageError::Corrupt`]
    /// when the on-disk state cannot be trusted (complete frame with a bad
    /// checksum, replay failing chain validation, genesis mismatch, or a
    /// recovered prefix missing a checkpointed confirmed block). A damaged
    /// snapshot is never an error — it is rejected and the full-log scan
    /// takes over.
    pub fn open(dir: &Path, genesis: &Block) -> Result<Self, StorageError> {
        Self::open_impl(dir, Some(genesis), StoreConfig::default())
    }

    /// [`DurableStore::open`] with explicit cache/snapshot tuning.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::open`].
    pub fn open_with(
        dir: &Path,
        genesis: &Block,
        config: StoreConfig,
    ) -> Result<Self, StorageError> {
        Self::open_impl(dir, Some(genesis), config)
    }

    /// Opens an existing store without knowing its genesis in advance
    /// (operational tooling: `smartcrowd inspect <dir>`).
    ///
    /// # Errors
    ///
    /// As [`DurableStore::open`], plus [`StorageError::Corrupt`] when the
    /// directory holds no blocks at all.
    pub fn open_existing_with(dir: &Path, config: StoreConfig) -> Result<Self, StorageError> {
        Self::open_impl(dir, None, config)
    }

    fn open_impl(
        dir: &Path,
        genesis: Option<&Block>,
        config: StoreConfig,
    ) -> Result<Self, StorageError> {
        disk::create_dir_all(dir)?;
        let log_path = dir.join("blocks.log");
        let mut log = BlockLog::open(&log_path)?;
        let was_fresh = log.len_bytes() == 0;
        let snap_path = dir.join(SNAPSHOT_FILE);

        // Classify the snapshot before any replay: a valid one serves
        // the open in O(snapshot + tail); anything less falls back to
        // the authoritative full-log scan. Never fail closed on snapshot
        // damage alone — the log decides.
        let mut snapshot_rejection: Option<String> = None;
        let mut adopted: Option<Recovered> = None;
        if config.snapshot_interval > 0 && !was_fresh {
            match snapshot::read_snapshot(&snap_path) {
                SnapshotRead::Absent => {}
                SnapshotRead::Invalid { detail } => snapshot_rejection = Some(detail),
                SnapshotRead::Valid(snap) => {
                    match adopt_snapshot(&log, &snap, genesis, config.cache_capacity) {
                        Ok(recovered) => adopted = Some(recovered),
                        Err(reason) => snapshot_rejection = Some(reason),
                    }
                }
            }
        }
        let snapshot_loaded = adopted.is_some();
        let Recovered {
            index,
            entries,
            valid_len,
            torn,
            cache,
            seeded_genesis,
        } = match adopted {
            Some(r) => r,
            None => full_scan_recover(&log, genesis, config.cache_capacity)?,
        };
        let report = RecoveryReport {
            torn_truncated: torn,
            snapshot_loaded,
            snapshot_rejected: snapshot_rejection.is_some(),
        };

        // Checkpoint gate: the recovered prefix must still contain the
        // highest confirmed block a previous run checkpointed; otherwise
        // confirmed history was lost and recovery must fail closed.
        let mut checkpoint = (0, index.genesis_id());
        if let Some((height, id)) = read_checkpoint(&dir.join("checkpoint"))? {
            if index.canonical_id_at(height) != Some(id) {
                return Err(StorageError::Corrupt {
                    file: "checkpoint",
                    offset: 0,
                    detail: format!(
                        "recovered chain (height {}) is missing checkpointed confirmed \
                         block {id} at height {height}",
                        index.best_height()
                    ),
                });
            }
            checkpoint = (height, id);
        }

        // Validation passed — apply the repairs.
        log.adopt(valid_len, entries)?;
        if let Some(block) = &seeded_genesis {
            log.append(&block_frame(block), block.id())?;
            // A new log's name is durable only once its directory is.
            disk::sync_parent(&log_path)?;
        }

        counter!("chain.storage.opens").inc();
        if report.torn_truncated {
            counter!("chain.storage.torn_truncations").inc();
        }
        if report.snapshot_loaded {
            counter!("chain.storage.snapshot.loaded").inc();
        }
        if report.snapshot_rejected {
            counter!("chain.storage.snapshot.rejected").inc();
        }

        let mut durable = DurableStore {
            dir: dir.to_path_buf(),
            index,
            locations: log.entries().iter().map(|e| (e.id, *e)).collect(),
            cache: RefCell::new(cache),
            log,
            config,
            checkpoint,
            snapshot_height: if snapshot_loaded { checkpoint.0 } else { 0 },
            has_snapshot: snapshot_loaded,
            last_recovery: report,
            snapshot_rejection,
            poisoned: Cell::new(false),
        };
        durable.maintain()?;
        Ok(durable)
    }

    /// Validates and durably applies one block.
    ///
    /// Protocol: linkage (the genesis-difficulty pin included) +
    /// structural checks against the index (nothing written yet) → log
    /// append + fsync (the durability point) → index insert →
    /// prune/snapshot/checkpoint maintenance. The index learns
    /// of the block only once its frame is in the log, so the handle
    /// never advertises a tip it cannot serve. A crash before the fsync
    /// leaves a torn tail, which open truncates, or a whole frame of a
    /// commit that never returned, which open may keep.
    ///
    /// # Errors
    ///
    /// [`StorageError::Chain`] when validation rejects the block (disk
    /// untouched, handle still usable); [`StorageError::Io`] on filesystem
    /// failures. Any error past validation poisons the store until it is
    /// reopened — what reached the disk is for recovery to decide.
    pub fn commit(&mut self, block: Block) -> Result<BlockId, StorageError> {
        if self.poisoned.get() {
            return Err(StorageError::Io {
                op: "commit",
                path: self.dir.clone(),
                detail: "store poisoned by a failed commit or an unreadable frame; \
                         reopen from disk"
                    .to_string(),
            });
        }
        self.index.check_block(&block)?;
        let result = self.apply(block);
        if result.is_err() {
            self.poisoned.set(true);
        }
        result
    }

    /// The write half of [`DurableStore::commit`], for a checked block.
    fn apply(&mut self, block: Block) -> Result<BlockId, StorageError> {
        let entry = self.log.append(&block_frame(&block), block.id())?;
        let id = self.index.attach(&block);
        self.locations.insert(id, entry);
        self.cache.borrow_mut().insert(block);
        self.maintain()?;
        Ok(id)
    }

    /// Advances the checkpoint to the newly-confirmed height, prunes dead
    /// forks, advances the cache's pin floor, and writes the snapshot and
    /// the `checkpoint` file when the checkpoint has advanced a full
    /// [`StoreConfig::snapshot_interval`].
    fn maintain(&mut self) -> Result<(), StorageError> {
        let confirmed = pin_floor(&self.index);
        self.cache.borrow_mut().set_floor(confirmed);
        if confirmed > self.checkpoint.0 {
            let id =
                self.index
                    .canonical_id_at(confirmed)
                    .ok_or_else(|| StorageError::Corrupt {
                        file: "blocks.log",
                        offset: 0,
                        detail: format!("no canonical block at confirmed height {confirmed}"),
                    })?;
            self.checkpoint = (confirmed, id);
            self.prune()?;
        }
        if self.config.snapshot_interval > 0
            && self.checkpoint.0
                >= self
                    .snapshot_height
                    .saturating_add(self.config.snapshot_interval)
        {
            self.write_snapshot()?;
        }
        Ok(())
    }

    /// Removes fork branches that can no longer win: a non-canonical
    /// block whose entire subtree tops out at or below
    /// `best − CONFIRMATION_DEPTH` could only become canonical by
    /// reorging a confirmed block. Returns in O(1) on a fork-free log and
    /// otherwise folds over the fork blocks only. Compacts the log by raw
    /// frame copy (temp + rename — surviving frames are never re-encoded),
    /// drops the dead metadata and cached bodies, and refreshes the
    /// snapshot (frame offsets moved, so a stale snapshot would be
    /// rejected on the next open anyway).
    ///
    /// Returns the number of blocks removed.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on filesystem failures during compaction.
    pub fn prune(&mut self) -> Result<u64, StorageError> {
        let best = self.index.best_height();
        // The canonical chain holds `best + 1` blocks, so an index of
        // that size has no forks.
        if best <= CONFIRMATION_DEPTH || self.index.len() == best as usize + 1 {
            return Ok(0);
        }
        let horizon = best - CONFIRMATION_DEPTH;
        // Deepest descendant per fork block. Every descendant of a fork
        // block is itself one and children follow parents in the log, so
        // one reverse pass over the forks folds each subtree into its root.
        let forks = fork_ids(self.log.entries(), &self.index);
        let mut deepest: DigestMap<BlockId, u64> = DigestMap::default();
        for id in forks.iter().rev() {
            let header = self.index.header(id).ok_or_else(|| StorageError::Corrupt {
                file: "blocks.log",
                offset: 0,
                detail: format!("fork block {id} missing from the chain index"),
            })?;
            let own = deepest.get(id).copied().unwrap_or(0).max(header.height);
            deepest.insert(*id, own);
            let parent = deepest.entry(header.prev).or_insert(0);
            *parent = (*parent).max(own);
        }
        let pruned_ids: Vec<BlockId> = forks
            .into_iter()
            .filter(|id| deepest[id] <= horizon)
            .collect();
        if pruned_ids.is_empty() {
            return Ok(0);
        }
        self.log.compact(&pruned_ids.iter().collect())?;
        {
            let mut cache = self.cache.borrow_mut();
            for id in &pruned_ids {
                self.index.remove(id);
                cache.remove(id);
            }
        }
        // Frame offsets moved: rebind every surviving block.
        self.locations = self.log.entries().iter().map(|e| (e.id, *e)).collect();
        if self.has_snapshot {
            if self.config.snapshot_interval > 0 {
                self.write_snapshot()?;
            } else {
                let _ = disk::remove_file(&self.dir.join(SNAPSHOT_FILE));
                self.has_snapshot = false;
                self.snapshot_height = 0;
            }
        }
        let pruned = pruned_ids.len() as u64;
        counter!("chain.storage.pruned_blocks").add(pruned);
        Ok(pruned)
    }

    /// Atomically (re)writes the state snapshot covering the current
    /// log, then the `checkpoint` file at the current checkpoint. Called
    /// automatically every [`StoreConfig::snapshot_interval`] confirmed
    /// heights and after compaction; public so tooling and benchmarks can
    /// snapshot on demand.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on filesystem failures.
    pub fn write_snapshot(&mut self) -> Result<(), StorageError> {
        let bytes = snapshot::encode_snapshot(&self.current_snapshot());
        write_atomic(&self.dir.join(SNAPSHOT_FILE), &bytes)?;
        let (height, id) = self.checkpoint;
        if height > 0 {
            write_checkpoint(&self.dir.join("checkpoint"), height, id)?;
        }
        self.snapshot_height = height;
        self.has_snapshot = true;
        counter!("chain.storage.snapshot.written").inc();
        Ok(())
    }

    fn current_snapshot(&self) -> Snapshot {
        Snapshot {
            log_len: self.log.len_bytes(),
            tip: self.index.best_tip(),
            entries: self
                .log
                .entries()
                .iter()
                .filter_map(|entry| {
                    Some(SnapshotEntry {
                        offset: entry.offset,
                        len: entry.len,
                        header: self.index.header(&entry.id)?.clone(),
                        record_ids: self.index.record_ids(&entry.id)?.to_vec(),
                    })
                })
                .collect(),
        }
    }

    /// Pages a block body in: cache hit, or a cold checksum-verified
    /// frame read. An unreadable frame (checksum violation, id mismatch,
    /// I/O failure) poisons the store — the operation fails closed by
    /// answering `None`, and every later commit is refused until the
    /// store is reopened and recovery re-validates the disk.
    fn read_block(&self, id: &BlockId) -> Option<Block> {
        let entry = *self.locations.get(id)?;
        if let Some(hit) = self.cache.borrow().get(id) {
            return Some(hit);
        }
        match self.log.read_frame(entry) {
            Ok(block) => {
                self.cache.borrow_mut().insert(block.clone());
                Some(block)
            }
            Err(e) => {
                if matches!(e, StorageError::Corrupt { .. }) {
                    counter!("chain.storage.corrupt_frames").inc();
                }
                self.poisoned.set(true);
                None
            }
        }
    }

    /// Highest confirmed height. The `checkpoint` file on disk lags it
    /// by at most [`StoreConfig::snapshot_interval`] heights.
    pub fn checkpoint_height(&self) -> u64 {
        self.checkpoint.0
    }

    /// Checkpoint height the current snapshot was written at (0 when no
    /// snapshot exists).
    pub fn snapshot_height(&self) -> u64 {
        self.snapshot_height
    }

    /// Whether a state snapshot is currently on disk and tracked.
    pub fn has_snapshot(&self) -> bool {
        self.has_snapshot
    }

    /// What the last open had to repair.
    pub fn last_recovery(&self) -> RecoveryReport {
        self.last_recovery
    }

    /// Why the last open rejected its snapshot, when it did
    /// (`last_recovery().snapshot_rejected`).
    pub fn snapshot_rejection(&self) -> Option<&str> {
        self.snapshot_rejection.as_deref()
    }

    /// Block bodies currently resident in memory (pinned + cached) —
    /// bounded by `cache_capacity` plus the unconfirmed tip region.
    pub fn resident_blocks(&self) -> usize {
        self.cache.borrow().resident()
    }
}

impl ChainQuery for DurableStore {
    fn index(&self) -> &ChainIndex {
        &self.index
    }

    fn get_block(&self, id: &BlockId) -> Option<Block> {
        self.read_block(id)
    }
}

impl ChainBackend for DurableStore {
    fn commit(&mut self, block: Block) -> Result<BlockId, StorageError> {
        DurableStore::commit(self, block)
    }
}

/// The highest confirmed height: the cache pins the bodies above it.
fn pin_floor(index: &ChainIndex) -> u64 {
    index.best_height().saturating_sub(CONFIRMATION_DEPTH)
}

/// Counts a damaged frame the full scan read.
fn count_corrupt(e: &StorageError) {
    if matches!(e, StorageError::Corrupt { .. }) {
        counter!("chain.storage.corrupt_frames").inc();
    }
}

/// Replays the frames left in `frames` into `index`, one block at a time
/// through the check a live commit runs, then into `cache` as a commit
/// puts it there. A refused block ends the replay but not the scan: the
/// frames after it are still read, so a damaged frame anywhere in the
/// log is reported ahead of the refusal, which comes back as the inner
/// `Err`.
fn replay_frames(
    frames: &mut FrameReader<'_>,
    mut index: Result<ChainIndex, ChainError>,
    entries: &mut Vec<LogEntry>,
    cache: &mut BlockCache,
) -> Result<Result<ChainIndex, ChainError>, StorageError> {
    while let Some((entry, block)) = frames.next_block()? {
        entries.push(entry);
        if let Ok(chain) = &mut index {
            match chain.insert_block(&block) {
                Ok(_) => {
                    cache.insert(block);
                    cache.set_floor(pin_floor(chain));
                }
                Err(e) => index = Err(e),
            }
        }
    }
    Ok(index)
}

/// The authoritative recovery path: stream the whole log, replaying
/// every block through the check a live commit runs.
fn full_scan_recover(
    log: &BlockLog,
    genesis: Option<&Block>,
    cache_capacity: usize,
) -> Result<Recovered, StorageError> {
    let mut frames = log.frames_from(0);
    let mut entries = Vec::new();
    let mut cache = BlockCache::new(cache_capacity);
    let mut seeded_genesis = None;
    let first = match frames.next_block().inspect_err(count_corrupt)? {
        Some((entry, block)) => {
            entries.push(entry);
            block
        }
        None => {
            let expected = genesis.ok_or_else(|| StorageError::Corrupt {
                file: "blocks.log",
                offset: 0,
                detail: "store directory holds no blocks".to_string(),
            })?;
            seeded_genesis = Some(expected.clone());
            expected.clone()
        }
    };
    if let Some(expected) = genesis.filter(|expected| expected.id() != first.id()) {
        // A damaged frame anywhere in the log outranks the mismatch.
        while frames.next_block().inspect_err(count_corrupt)?.is_some() {}
        return Err(StorageError::Corrupt {
            file: "blocks.log",
            offset: 0,
            detail: format!(
                "store genesis {} does not match expected genesis {}",
                first.id(),
                expected.id()
            ),
        });
    }
    let index = ChainIndex::rooted_at_untrusted(&first);
    if let Ok(index) = &index {
        cache.insert(first);
        cache.set_floor(pin_floor(index));
    }
    let index = replay_frames(&mut frames, index, &mut entries, &mut cache)
        .inspect_err(count_corrupt)?
        .map_err(|e| StorageError::Corrupt {
            file: "blocks.log",
            offset: frames.valid_len(),
            detail: format!("log replay failed chain validation: {e}"),
        })?;
    Ok(Recovered {
        index,
        entries,
        valid_len: frames.valid_len(),
        torn: frames.torn(),
        cache,
        seeded_genesis,
    })
}

/// The snapshot fast path. Builds the chain index from the snapshot,
/// binds it to the log (geometry, spot-checked frames), and fully
/// replays only the tail past the covered prefix. Any anomaly rejects
/// the snapshot with a reason — the caller falls back to
/// [`full_scan_recover`], which either heals or fails closed against
/// the authoritative log.
fn adopt_snapshot(
    log: &BlockLog,
    snap: &Snapshot,
    genesis: Option<&Block>,
    cache_capacity: usize,
) -> Result<Recovered, String> {
    let first = snap.entries.first().ok_or("snapshot holds no entries")?;
    if snap.log_len > log.len_bytes() {
        return Err(format!(
            "snapshot covers {} bytes but the log holds only {}",
            snap.log_len,
            log.len_bytes()
        ));
    }
    if first.header.height != 0 {
        return Err("first snapshot entry is not a genesis block".to_string());
    }
    let genesis_id = first.header.id();
    if let Some(expected) = genesis {
        if genesis_id != expected.id() {
            return Err(format!(
                "snapshot genesis {genesis_id} does not match expected genesis {}",
                expected.id()
            ));
        }
    }
    // Header replay: bodies are not in hand, so each entry passes what a
    // header alone certifies; bodies are checksum-verified lazily when
    // paged in. Genesis is not mined, so, as on the full scan, it is
    // bound to the log by id alone (the probe below reads its frame).
    let mut index = ChainIndex::new(first.header.clone(), first.record_ids.clone());
    let mut entries = Vec::with_capacity(snap.entries.len());
    for se in &snap.entries {
        let id = if entries.is_empty() {
            genesis_id
        } else {
            index
                .insert_header(se.header.clone(), se.record_ids.clone())
                .map_err(|e| format!("snapshot header replay failed: {e}"))?
        };
        entries.push(LogEntry {
            offset: se.offset,
            len: se.len,
            id,
        });
    }
    if index.best_tip() != snap.tip {
        return Err(format!(
            "snapshot tip {} does not match header replay tip {}",
            snap.tip,
            index.best_tip()
        ));
    }
    // Geometry: entries must tile the covered prefix exactly. Lengths
    // are disk-controlled: a pair that wraps u64 would otherwise tile.
    let mut expect = 0u64;
    for entry in &entries {
        if entry.offset != expect {
            return Err(format!(
                "snapshot entries are not contiguous at offset {expect}"
            ));
        }
        expect = expect
            .checked_add(entry.len)
            .ok_or_else(|| format!("snapshot entry at offset {expect} overflows the log"))?;
    }
    if expect != snap.log_len {
        return Err(format!(
            "snapshot entries cover {expect} bytes, header declares {}",
            snap.log_len
        ));
    }
    // Spot-check log binding: the first and last covered frames must
    // decode (checksum-verified) to the ids the snapshot claims. Bodies
    // in between are verified lazily when paged in.
    for probe in [entries.first().copied(), entries.last().copied()]
        .into_iter()
        .flatten()
    {
        log.read_frame(probe)
            .map_err(|e| format!("log binding probe failed: {e}"))?;
    }
    // Tail past the snapshot: full-validation replay, as if the prefix
    // had been scanned.
    let mut frames = log.frames_from(snap.log_len);
    let mut cache = BlockCache::new(cache_capacity);
    let index = replay_frames(&mut frames, Ok(index), &mut entries, &mut cache)
        .map_err(|e| match e {
            StorageError::Io { .. } => format!("tail read failed: {e}"),
            _ => format!("tail scan failed: {e}"),
        })?
        .map_err(|e| format!("tail replay failed: {e}"))?;
    Ok(Recovered {
        index,
        entries,
        valid_len: frames.valid_len(),
        torn: frames.torn(),
        cache,
        seeded_genesis: None,
    })
}

/// The log's off-canonical blocks, in log order.
fn fork_ids(entries: &[LogEntry], index: &ChainIndex) -> Vec<BlockId> {
    entries
        .iter()
        .map(|e| e.id)
        .filter(|id| !index.is_canonical(id))
        .collect()
}

/// The checkpointed `(height, id)`, or `None` when no checkpoint exists.
/// The file is swapped in atomically, so it is never torn: a malformed
/// or unreadable one is damage, and opening without its floor would
/// silently drop the confirmed-history veto.
pub(super) fn read_checkpoint(path: &Path) -> Result<Option<(u64, BlockId)>, StorageError> {
    disk::read(path)?
        .map(|bytes| decode_checkpoint(&bytes))
        .transpose()
}

/// Decodes and checksum-verifies a `checkpoint` image.
pub(super) fn decode_checkpoint(bytes: &[u8]) -> Result<(u64, BlockId), StorageError> {
    if bytes.len() != CHECKPOINT_LEN
        || &bytes[..8] != CHECKPOINT_MAGIC
        || crc64(&bytes[..48]).to_be_bytes()[..] != bytes[48..]
    {
        return Err(StorageError::Corrupt {
            file: "checkpoint",
            offset: 0,
            detail: "malformed checkpoint (length, magic or checksum)".to_string(),
        });
    }
    let mut h = [0u8; 8];
    h.copy_from_slice(&bytes[8..16]);
    let mut id = [0u8; 32];
    id.copy_from_slice(&bytes[16..48]);
    Ok((u64::from_be_bytes(h), BlockId::from_digest(id)))
}

/// Atomic checkpoint swap.
fn write_checkpoint(path: &Path, height: u64, id: BlockId) -> Result<(), StorageError> {
    let mut bytes = Vec::with_capacity(CHECKPOINT_LEN);
    bytes.extend_from_slice(CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&height.to_be_bytes());
    bytes.extend_from_slice(id.as_digest());
    let checksum = crc64(&bytes);
    bytes.extend_from_slice(&checksum.to_be_bytes());
    write_atomic(path, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::Difficulty;
    use crate::pow::Miner;
    use crate::rng::SimRng;
    use smartcrowd_crypto::Address;

    /// Seeded fork trees committed with no reads: a full-scan reopen puts
    /// each surviving body into the cache and advances the floor as a
    /// commit does, so it holds exactly the bodies, in queue order, that
    /// committing the surviving log into a fresh store holds.
    #[test]
    fn a_reopened_cache_holds_what_committing_the_surviving_log_holds() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let miner = Miner::new(Address::from_label("fork tree"));
        let base = std::env::temp_dir().join(format!("sc-cache-rebuild-{}", std::process::id()));
        let (dir, fresh) = (base.join("log"), base.join("fresh"));
        // No snapshot, so every reopen is the full scan.
        let config = |cache_capacity| StoreConfig {
            cache_capacity,
            snapshot_interval: 0,
        };
        let mut forked_logs = 0;
        for seed in 0..12 {
            let _ = std::fs::remove_dir_all(&base);
            let mut store = DurableStore::open_with(&dir, &genesis, config(usize::MAX)).unwrap();
            let mut rng = SimRng::seed_from_u64(seed);
            let mut committed = vec![genesis.clone()];
            while committed.len() < 60 {
                // Mostly extend one of the newest blocks; now and then
                // fork deep below the tip.
                let back = if rng.next_bool(0.2) { 12 } else { 3 };
                let from = committed.len().saturating_sub(back) as u64;
                let parent = &committed[rng.next_range(from, committed.len() as u64) as usize];
                let ts = parent.header().timestamp + 1 + rng.next_below(30);
                let block = miner.mine_next(parent, vec![], ts).unwrap();
                // A duplicate, or a child of a pruned fork, is refused.
                if store.commit(block.clone()).is_ok() {
                    committed.push(block);
                }
            }
            // One more block on the tip advances the floor, and the prune
            // it runs leaves no stale fork for the reopen to drop.
            let best = store.index.best_tip();
            let tip = committed.iter().find(|b| b.id() == best).unwrap();
            let last = miner
                .mine_next(tip, vec![], tip.header().timestamp + 15)
                .unwrap();
            store.commit(last.clone()).unwrap();
            committed.push(last);
            let surviving: Vec<Block> = store
                .log
                .entries()
                .iter()
                .map(|entry| {
                    committed
                        .iter()
                        .find(|b| b.id() == entry.id)
                        .unwrap()
                        .clone()
                })
                .collect();
            if surviving.len() > store.index.best_height() as usize + 1 {
                forked_logs += 1;
            }
            drop(store);
            for capacity in [0, 1, 2, 5, usize::MAX] {
                let reopened = DurableStore::open_with(&dir, &genesis, config(capacity)).unwrap();
                let _ = std::fs::remove_dir_all(&fresh);
                let mut replica =
                    DurableStore::open_with(&fresh, &genesis, config(capacity)).unwrap();
                for block in &surviving[1..] {
                    replica.commit(block.clone()).unwrap();
                }
                assert_eq!(
                    reopened.cache.borrow().queues(),
                    replica.cache.borrow().queues(),
                    "seed {seed} capacity {capacity}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&base);
        assert!(forked_logs > 0, "no log kept a fork");
    }

    /// A store at height 3, its tip, and the next block on it.
    fn three_blocks(dir: &Path) -> (DurableStore, Block, Block) {
        let _ = std::fs::remove_dir_all(dir);
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let miner = Miner::new(Address::from_label("poison"));
        let mut store = DurableStore::open(dir, &genesis).unwrap();
        let mut parent = genesis;
        for _ in 0..3 {
            let block = miner
                .mine_next(&parent, vec![], parent.header().timestamp + 15)
                .unwrap();
            store.commit(block.clone()).unwrap();
            parent = block;
        }
        let next = miner
            .mine_next(&parent, vec![], parent.header().timestamp + 15)
            .unwrap();
        (store, parent, next)
    }

    /// A commit whose log append fails on a real I/O error leaves the
    /// handle on the old tip, which it can still serve, and poisons it:
    /// the same commit is refused until the directory is reopened, and
    /// the reopen decides from what reached the disk.
    #[test]
    fn a_failed_commit_poisons_the_handle_on_the_old_tip() {
        // A write failure leaves no byte of the frame; a failed fsync
        // leaves the whole unsynced frame, which the reopen keeps.
        for (op, survives) in [("write", false), ("fsync", true)] {
            let dir = std::env::temp_dir().join(format!("sc-poison-{op}-{}", std::process::id()));
            let (mut store, parent, next) = three_blocks(&dir);
            super::super::crash::fail_next(op);
            match store.commit(next.clone()) {
                Err(StorageError::Io { op: failed, .. }) => assert_eq!(failed, op),
                other => panic!("{op}: commit returned {other:?}"),
            }
            assert_eq!(store.best_tip(), parent.id(), "{op}");
            assert_eq!(store.best_height(), 3, "{op}");
            assert_eq!(store.best_block(), parent, "{op}");
            assert!(!store.contains_block(&next.id()), "{op}");
            assert!(
                matches!(
                    store.commit(next.clone()),
                    Err(StorageError::Io { op: "commit", .. })
                ),
                "{op}: a poisoned store accepted a commit"
            );
            drop(store);

            let genesis = Block::genesis(Difficulty::from_u64(1));
            let mut store = DurableStore::open(&dir, &genesis).unwrap();
            assert!(store.last_recovery().clean(), "{op}");
            assert_eq!(store.contains_block(&next.id()), survives, "{op}");
            if !survives {
                store.commit(next.clone()).unwrap();
            }
            assert_eq!(store.best_tip(), next.id(), "{op}");
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A snapshot is adopted on its headers, and its record ids are bound
    /// to no body: one that swaps two blocks' ids, with its CRC redone,
    /// still loads. A lookup through the forged index must not return
    /// the other block's record as the one asked for.
    #[test]
    fn a_forged_snapshot_record_index_never_returns_a_wrong_record() {
        use crate::record::{Record, RecordKind};
        use smartcrowd_crypto::keys::KeyPair;
        let dir = std::env::temp_dir().join(format!("sc-forged-ids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let config = StoreConfig {
            cache_capacity: usize::MAX,
            snapshot_interval: 1,
        };
        let miner = Miner::new(Address::from_label("forged ids"));
        let mut store = DurableStore::open_with(&dir, &genesis, config).unwrap();
        let mut chain = vec![genesis.clone()];
        for i in 0..11u64 {
            let kp = KeyPair::from_seed(&i.to_be_bytes());
            let record = Record::signed(
                RecordKind::InitialReport,
                vec![i as u8; 4],
                crate::Ether::from_milliether(11),
                0,
                &kp,
            );
            let parent = chain.last().unwrap();
            let block = miner
                .mine_next(parent, vec![record], parent.header().timestamp + 15)
                .unwrap();
            store.commit(block.clone()).unwrap();
            chain.push(block);
        }
        drop(store);

        let path = dir.join(SNAPSHOT_FILE);
        let SnapshotRead::Valid(mut snap) = snapshot::read_snapshot(&path) else {
            panic!("no valid snapshot to forge");
        };
        assert_eq!(snap.entries.len(), 12);
        let (low, high) = snap.entries.split_at_mut(3);
        std::mem::swap(&mut low[2].record_ids, &mut high[0].record_ids);
        std::fs::write(&path, snapshot::encode_snapshot(&snap)).unwrap();

        let store = DurableStore::open_with(&dir, &genesis, config).unwrap();
        assert!(store.last_recovery().snapshot_loaded);
        for block in &chain[2..=3] {
            let id = block.records()[0].id();
            assert_eq!(store.record_with_confirmations(&id), None);
        }
        let kept = chain[4].records()[0].clone();
        assert_eq!(store.record_with_confirmations(&kept.id()), Some((kept, 8)));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_damaged_frame_outranks_an_earlier_refusal() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let stranger = Block::genesis(Difficulty::from_u64(2));
        let miner = Miner::new(Address::from_label("order"));
        let b1 = miner
            .mine_next(&genesis, vec![], genesis.header().timestamp + 15)
            .unwrap();
        let b2 = miner
            .mine_next(&b1, vec![], b1.header().timestamp + 15)
            .unwrap();
        // Block 1 twice: the replay refuses the second copy.
        let mut log = Vec::new();
        for block in [&genesis, &b1, &b1, &b2] {
            log.extend_from_slice(&block_frame(block));
        }
        let last = log.len() - block_frame(&b2).len();
        let dir = std::env::temp_dir().join(format!("sc-refusal-order-{}", std::process::id()));
        let open = |log: &[u8], expected: &Block| {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("blocks.log"), log).unwrap();
            match DurableStore::open(&dir, expected) {
                Err(StorageError::Corrupt { offset, detail, .. }) => (offset, detail),
                other => panic!("expected a refusal, got {other:?}"),
            }
        };

        let (offset, detail) = open(&log, &genesis);
        assert_eq!(offset, log.len() as u64);
        assert!(
            detail.starts_with("log replay failed chain validation"),
            "{detail}"
        );
        let (offset, detail) = open(&log, &stranger);
        assert_eq!(offset, 0);
        assert!(detail.starts_with("store genesis"), "{detail}");

        log[last + 50] ^= 0x01;
        for expected in [&genesis, &stranger] {
            let (offset, detail) = open(&log, expected);
            assert_eq!(
                (offset, detail.as_str()),
                (last as u64, "frame checksum mismatch")
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
