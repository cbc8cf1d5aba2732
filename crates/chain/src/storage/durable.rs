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
//! otherwise. Either way the log streams past one frame at a time, and
//! open holds no more bodies than the cache will. See DESIGN.md §15 and
//! STORAGE.md.

use super::cache::{BlockCache, Residents};
use super::disk::{self, write_atomic, DiskFile};
use super::log::{BlockLog, FrameReader, LogEntry};
use super::snapshot::{self, Snapshot, SnapshotEntry, SnapshotRead, SNAPSHOT_FILE};
use super::{block_frame, ChainBackend, ChainQuery, CrashPoint, StorageError, StoreConfig};
use crate::block::Block;
use crate::chain_index::ChainIndex;
use crate::error::ChainError;
use crate::header::BlockId;
use crate::CONFIRMATION_DEPTH;
use smartcrowd_crypto::sha256::sha256d;
use smartcrowd_telemetry::counter;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

const CHECKPOINT_MAGIC: &[u8; 8] = b"SCCKPT01";
const CHECKPOINT_LEN: usize = 8 + 8 + 32 + 32;

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
    /// The bodies recovery decoded anyway (full scan: all; snapshot
    /// path: the tail) that the cache keeps once the floor is set.
    residents: Residents,
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
    locations: HashMap<BlockId, LogEntry>,
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
    crash: Option<CrashPoint>,
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
        let mut cache = BlockCache::new(config.cache_capacity);
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
            residents,
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

        // Warm the cache with the bodies recovery kept; the floor advance
        // in `maintain` below demotes them, in log order, and evicts none.
        cache.fill(residents);

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
            crash: None,
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
    /// failures; [`StorageError::InjectedCrash`] when an armed
    /// [`CrashPoint`] fires. Any error past validation poisons the store
    /// until it is reopened — what reached the disk is for recovery to
    /// decide.
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
            self.crash = None;
            self.poisoned.set(true);
        }
        result
    }

    /// The write half of [`DurableStore::commit`], for a checked block.
    fn apply(&mut self, block: Block) -> Result<BlockId, StorageError> {
        let frame = block_frame(&block);
        if let Some(CrashPoint::TornLogAppend { bytes }) = self.crash {
            self.log.append_torn(&frame, bytes)?;
            return Err(StorageError::InjectedCrash);
        }
        let entry = self.log.append(&frame, block.id())?;
        let id = self.index.attach(&block);
        self.locations.insert(id, entry);
        self.cache.borrow_mut().insert(block);
        if let Some(CrashPoint::TornSnapshotWrite { bytes }) = self.crash {
            // Simulate a power loss mid-snapshot-rewrite on a filesystem
            // without atomic rename: a prefix of the new image lands
            // directly over the final path, clobbering any previous
            // snapshot. The commit itself is fully durable.
            let image = snapshot::encode_snapshot(&self.current_snapshot());
            let keep = (bytes as usize).clamp(1, image.len().saturating_sub(1));
            let path = self.dir.join(SNAPSHOT_FILE);
            DiskFile::open(&path, true)?.write_at(0, &image[..keep])?;
            return Err(StorageError::InjectedCrash);
        }
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
        let mut deepest: HashMap<BlockId, u64> = HashMap::new();
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

    /// Arms a fault-injection crash point for the next [`commit`].
    ///
    /// [`commit`]: DurableStore::commit
    pub fn inject_crash(&mut self, point: CrashPoint) {
        self.crash = Some(point);
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> StoreConfig {
        self.config
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

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
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
/// through the check a live commit runs, offering each body to
/// `residents`. A refused block ends the replay but not the scan: the
/// frames after it are still read, so a damaged frame anywhere in the
/// log is reported ahead of the refusal, which comes back as the inner
/// `Err`.
fn replay_frames(
    frames: &mut FrameReader<'_>,
    mut index: Result<ChainIndex, ChainError>,
    entries: &mut Vec<LogEntry>,
    residents: &mut Residents,
) -> Result<Result<ChainIndex, ChainError>, StorageError> {
    while let Some((entry, block)) = frames.next_block()? {
        entries.push(entry);
        if let Ok(chain) = &mut index {
            match chain.insert_block(&block) {
                Ok(_) => residents.offer(block, pin_floor(chain)),
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
    let mut residents = Residents::new(cache_capacity);
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
        residents.offer(first, pin_floor(index));
    }
    let index = replay_frames(&mut frames, index, &mut entries, &mut residents)
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
        residents,
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
    let mut residents = Residents::new(cache_capacity);
    let index = replay_frames(&mut frames, Ok(index), &mut entries, &mut residents)
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
        residents,
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
    let Some(bytes) = disk::read(path)? else {
        return Ok(None);
    };
    if bytes.len() != CHECKPOINT_LEN
        || &bytes[..8] != CHECKPOINT_MAGIC
        || sha256d(&bytes[..48])[..] != bytes[48..]
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
    Ok(Some((u64::from_be_bytes(h), BlockId::from_digest(id))))
}

/// Atomic checkpoint swap.
fn write_checkpoint(path: &Path, height: u64, id: BlockId) -> Result<(), StorageError> {
    let mut bytes = Vec::with_capacity(CHECKPOINT_LEN);
    bytes.extend_from_slice(CHECKPOINT_MAGIC);
    bytes.extend_from_slice(&height.to_be_bytes());
    bytes.extend_from_slice(id.as_digest());
    let checksum = sha256d(&bytes);
    bytes.extend_from_slice(&checksum);
    write_atomic(path, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::Difficulty;
    use crate::pow::Miner;
    use smartcrowd_crypto::Address;

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
