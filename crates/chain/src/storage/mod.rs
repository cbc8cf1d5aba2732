//! Durable, crash-recoverable chain storage.
//!
//! [`crate::store::ChainStore`] stays the in-memory view of the chain;
//! this module adds a file-backed [`DurableStore`] that answers the same
//! queries from the same chain index, with bodies served from a bounded
//! block cache over an on-disk log, staying consistent across crashes at
//! any instruction boundary. The two are interchangeable behind
//! [`ChainBackend`] (whose read half is [`ChainQuery`]), so the sim,
//! chaos, and seeded tests keep running byte-identical on the in-memory
//! backend while persistence tests and
//! `smartcrowd simulate --store <dir>` exercise the disk.
//!
//! Layout of a store directory (full byte-level spec in STORAGE.md,
//! protocol rationale in DESIGN.md §15):
//!
//! | file         | contents                                              |
//! |--------------|-------------------------------------------------------|
//! | `blocks.log` | append-only [`frame`]s, one per committed block       |
//! | `checkpoint` | a confirmed height + block id, swapped with the       |
//! |              | snapshot                                              |
//! | `state.snap` | checkpoint state snapshot: headers + indices, so      |
//! |              | reopen is O(snapshot + tail) instead of O(chain)      |
//!
//! A commit is durable once its frame is appended to `blocks.log` and
//! fsynced: the log is its own write-ahead log. Recovery classifies
//! damage into exactly two outcomes: *recover to a valid prefix* (torn
//! tails, damaged snapshots — which merely fall back to the full-log
//! scan) or *fail closed with a typed [`StorageError`]* (checksum
//! violations in complete frames, a malformed checkpoint, a prefix that
//! no longer contains a checkpointed confirmed block). There is no third
//! outcome — corrupt state is never silently accepted.
//!
//! The frame log is also the only serialisation of a chain outside a
//! store directory: [`export_chain`] emits a `blocks.log` image and
//! [`import_chain`] reads one through the scanner and replay that
//! [`DurableStore::open`] runs.

pub mod frame;

mod cache;
mod crc64;
mod disk;
mod durable;
mod log;
mod snapshot;

pub use durable::{DurableStore, RecoveryReport};

use crate::block::Block;
use crate::chain_index::ChainIndex;
use crate::error::ChainError;
use crate::header::{BlockHeader, BlockId};
use crate::record::{Record, RecordKind};
use crate::store::{ChainStore, RecordLocation};
use crate::CONFIRMATION_DEPTH;
use frame::block_frame;
use smartcrowd_crypto::{Address, Digest};
use std::any::Any;
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors produced by the durable storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// The block itself was rejected by chain validation.
    Chain(ChainError),
    /// An operating-system I/O failure.
    Io {
        /// The operation that failed (e.g. `"append"`, `"fsync"`).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The OS error text.
        detail: String,
    },
    /// On-disk state is damaged in a way recovery must not repair by
    /// guessing: a complete frame fails its checksum, replay of the log
    /// violates chain validation, or the recovered prefix no longer
    /// contains a checkpointed confirmed block.
    Corrupt {
        /// The damaged file.
        file: &'static str,
        /// Byte offset of the damage where known.
        offset: u64,
        /// Human-readable cause.
        detail: String,
    },
    /// A fault-injection crash point fired mid-commit (test harnesses
    /// only); the store is poisoned and must be reopened from disk.
    InjectedCrash,
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Chain(e) => write!(f, "chain validation: {e}"),
            StorageError::Io { op, path, detail } => {
                write!(f, "storage io ({op} {}): {detail}", path.display())
            }
            StorageError::Corrupt {
                file,
                offset,
                detail,
            } => write!(f, "corrupt {file} at byte {offset}: {detail}"),
            StorageError::InjectedCrash => write!(f, "injected crash point fired mid-commit"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<ChainError> for StorageError {
    fn from(e: ChainError) -> Self {
        StorageError::Chain(e)
    }
}

/// Wraps a failed filesystem call as [`StorageError::Io`].
fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> StorageError {
    StorageError::Io {
        op,
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

impl StorageError {
    /// Collapses into a [`ChainError`] for call sites (sync, import)
    /// that report rejections in chain terms.
    pub fn into_chain_error(self) -> ChainError {
        match self {
            StorageError::Chain(e) => e,
            other => ChainError::Storage {
                detail: other.to_string(),
            },
        }
    }
}

/// Tuning knobs for [`DurableStore`]'s paged view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Maximum number of *confirmed* block bodies held resident; the
    /// unconfirmed tip region (heights above `best − CONFIRMATION_DEPTH`)
    /// is pinned and does not count against this budget. Evicted bodies
    /// are paged back in from `blocks.log` on demand.
    pub cache_capacity: usize,
    /// Write a state snapshot every time the checkpoint advances by this
    /// many heights (`0` disables snapshots entirely).
    pub snapshot_interval: u64,
}

impl Default for StoreConfig {
    /// Effectively unbounded cache, snapshots every 256 confirmed
    /// heights — a fresh store behaves exactly like the pre-paging one
    /// until the chain is long enough for snapshots to matter.
    fn default() -> Self {
        StoreConfig {
            cache_capacity: usize::MAX,
            snapshot_interval: 256,
        }
    }
}

/// Fault-injection points inside [`DurableStore::commit`], in protocol
/// order. Arming one makes the next commit stop there, leaving disk
/// state exactly as a power loss at that instant would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash mid-append to `blocks.log`, before the append's fsync: the
    /// log holds a torn prefix of the frame and the commit never
    /// returned, so recovery truncates it away.
    TornLogAppend {
        /// How many frame bytes reach the log before the crash.
        bytes: u64,
    },
    /// Crash mid-rewrite of `state.snap` on a filesystem without atomic
    /// rename: the commit itself is fully durable, but only `bytes` of
    /// the new snapshot image land, clobbering any previous snapshot.
    /// Recovery must reject the torn snapshot and fall back to the
    /// full-log scan.
    TornSnapshotWrite {
        /// How many snapshot bytes land before the crash.
        bytes: u64,
    },
}

/// Read-only chain queries shared by every backend.
///
/// Every metadata answer (tips, heights, canonical ids, confirmations,
/// record locations, headers) is written once, over the crate's chain
/// index; a backend supplies only that index and a way to fetch block
/// *bodies* — [`ChainStore`] from its map, [`DurableStore`] from a
/// bounded cache over `blocks.log`. Methods return owned values rather
/// than references — a paged backend has no stable reference to hand out.
/// The trait is sealed by the crate-internal index type.
pub trait ChainQuery: fmt::Debug {
    /// The backend's chain index.
    #[doc(hidden)]
    fn index(&self) -> &ChainIndex;
    /// Fetches a full block by id.
    fn get_block(&self, id: &BlockId) -> Option<Block>;

    /// The genesis block id.
    fn genesis_id(&self) -> BlockId {
        self.index().genesis_id()
    }

    /// The current best (heaviest-chain) tip.
    fn best_tip(&self) -> BlockId {
        self.index().best_tip()
    }

    /// Height of the best tip.
    fn best_height(&self) -> u64 {
        self.index().best_height()
    }

    /// The block at the best tip.
    ///
    /// # Panics
    ///
    /// When the tip body cannot be fetched — impossible unless the disk
    /// rotted under a paged backend, which poisons it.
    fn best_block(&self) -> Block {
        let tip = self.best_tip();
        match self.get_block(&tip) {
            Some(block) => block,
            None => panic!("best block {tip} is unreadable; store poisoned"),
        }
    }

    /// Total stored blocks (all forks).
    fn block_count(&self) -> usize {
        self.index().len()
    }

    /// Fetches a block's header by id.
    fn header_of(&self, id: &BlockId) -> Option<BlockHeader> {
        self.index().header(id).cloned()
    }

    /// Id of the canonical block at `height`, if within the best chain.
    fn canonical_id_at(&self, height: u64) -> Option<BlockId> {
        self.index().canonical_id_at(height)
    }

    /// The canonical block at `height`, if within the best chain.
    fn canonical_block_at(&self, height: u64) -> Option<Block> {
        self.canonical_id_at(height)
            .and_then(|id| self.get_block(&id))
    }

    /// Whether `id` lies on the canonical chain.
    fn is_canonical(&self, id: &BlockId) -> bool {
        self.index().is_canonical(id)
    }

    /// Confirmations of a block: 1 at the tip, 0 off-chain/unknown.
    fn confirmations(&self, id: &BlockId) -> u64 {
        self.index().confirmations(id)
    }

    /// Locates a record on the canonical chain.
    fn find_record(&self, record_id: &Digest) -> Option<RecordLocation> {
        self.index().find_record(record_id).cloned()
    }

    /// Fetches a record plus its confirmation count.
    fn record_with_confirmations(&self, record_id: &Digest) -> Option<(Record, u64)> {
        let loc = self.index().find_record(record_id)?;
        let block = self.get_block(&loc.block_id)?;
        let record = block.records().get(loc.index)?.clone();
        Some((record, self.confirmations(&loc.block_id)))
    }

    /// Whether a block with this id is stored (any fork).
    fn contains_block(&self, id: &BlockId) -> bool {
        self.index().header(id).is_some()
    }

    /// Whether the block has reached the paper's 6-block finality (§V-C).
    fn is_confirmed(&self, id: &BlockId) -> bool {
        self.confirmations(id) > CONFIRMATION_DEPTH
    }

    /// Whether a record is in a finally-confirmed block. Needs only the
    /// record's location, never the block body — paged backends answer
    /// without touching disk.
    fn record_confirmed(&self, record_id: &Digest) -> bool {
        self.index()
            .find_record(record_id)
            .is_some_and(|loc| self.is_confirmed(&loc.block_id))
    }

    /// The canonical chain from genesis to tip, as owned blocks.
    fn canonical_blocks(&self) -> Vec<Block> {
        (0..=self.best_height())
            .filter_map(|h| self.canonical_block_at(h))
            .collect()
    }

    /// All canonical records of a given kind (the consumer query of
    /// Phase #3: "consumers can quickly learn the system security
    /// analysis by querying the related detection results in the
    /// blockchain").
    fn records_of_kind(&self, kind: RecordKind) -> Vec<(Record, u64)> {
        let best = self.best_height();
        let mut out = Vec::new();
        for height in 0..=best {
            let Some(block) = self.canonical_block_at(height) else {
                continue;
            };
            let confs = best - height + 1;
            for record in block.records() {
                if record.kind() == kind {
                    out.push((record.clone(), confs));
                }
            }
        }
        out
    }

    /// Blocks mined by `miner` on the canonical chain.
    fn blocks_by_miner(&self, miner: &Address) -> Vec<Block> {
        self.canonical_blocks()
            .into_iter()
            .filter(|b| b.header().miner == *miner)
            .collect()
    }
}

impl ChainQuery for ChainStore {
    fn index(&self) -> &ChainIndex {
        &self.index
    }

    fn get_block(&self, id: &BlockId) -> Option<Block> {
        self.block(id).cloned()
    }
}

/// A chain backend: the in-memory [`ChainStore`] or a [`DurableStore`].
///
/// Node and sync-buffer code is written against this trait so the same
/// code path drives both; reads go through the [`ChainQuery`] supertrait
/// (the in-memory impl adds zero telemetry, keeping seeded sim runs
/// byte-identical), writes through [`commit`].
///
/// [`commit`]: ChainBackend::commit
pub trait ChainBackend: ChainQuery + Send {
    /// Validates and applies one block (durably, for disk backends).
    fn commit(&mut self, block: Block) -> Result<BlockId, StorageError>;
    /// Downcasting hook for harnesses that need the concrete backend.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl ChainBackend for ChainStore {
    fn commit(&mut self, block: Block) -> Result<BlockId, StorageError> {
        self.insert(block).map_err(StorageError::Chain)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Serialises the canonical chain (genesis to tip) as concatenated
/// [`frame`]s: byte for byte the `blocks.log` a fresh [`DurableStore`]
/// writes when the same blocks are committed in order. Works over any
/// [`ChainQuery`] backend; on a paged durable store this walks every
/// canonical body through the block cache.
pub fn export_chain<Q: ChainQuery + ?Sized>(store: &Q) -> Vec<u8> {
    let mut image = Vec::new();
    for block in store.canonical_blocks() {
        image.extend_from_slice(&block_frame(&block));
    }
    image
}

/// Rebuilds an in-memory store from a log image — an [`export_chain`]
/// result or the bytes of a `blocks.log` (forks included) — through the
/// scanner [`DurableStore::open`] uses, then [`ChainStore::insert`] of
/// each block after genesis: the check a live insert runs, the genesis
/// difficulty pin included.
///
/// Acceptance is the log's: every byte is covered by a frame checksum,
/// and a frame-aligned prefix of an image is the image of an ancestor
/// chain. Unlike a store open, nothing is repaired — a torn tail is an
/// error, not a truncation.
///
/// # Errors
///
/// [`ChainError::Storage`] for a frame that fails its magic, length cap
/// or checksum or does not decode as a block; [`ChainError::Codec`] for
/// an image that is empty, ends mid-frame or does not start at genesis;
/// any validation error an inserted block triggers.
pub fn import_chain(bytes: &[u8]) -> Result<ChainStore, ChainError> {
    let mut reader = log::FrameReader::image(bytes);
    let mut blocks = Vec::new();
    while let Some((_, block)) = reader
        .next_block()
        .map_err(StorageError::into_chain_error)?
    {
        blocks.push(block);
    }
    if reader.torn() {
        return Err(ChainError::Codec {
            detail: format!(
                "chain image ends mid-frame: {} of {} bytes are whole frames",
                reader.valid_len(),
                bytes.len()
            ),
        });
    }
    let mut blocks = blocks.into_iter();
    let genesis = blocks.next().filter(|b| b.header().height == 0);
    let mut store = ChainStore::new(genesis.ok_or_else(|| ChainError::Codec {
        detail: "chain image does not start with a genesis block".to_string(),
    })?);
    for block in blocks {
        store.insert(block)?;
    }
    Ok(store)
}

#[cfg(test)]
#[path = "tests/crash.rs"]
mod crash;

#[cfg(test)]
#[path = "tests/decoders.rs"]
mod decoders;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::Difficulty;

    #[test]
    fn chain_store_is_a_backend() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let backend: &mut dyn ChainBackend = &mut store;
        assert_eq!(backend.best_height(), 0);
        assert!(backend.contains_block(&genesis.id()));
        assert_eq!(backend.best_block().id(), genesis.id());
        // Re-committing genesis is a duplicate, surfaced as a chain error.
        assert!(matches!(
            backend.commit(genesis),
            Err(StorageError::Chain(ChainError::DuplicateBlock { .. }))
        ));
        assert!(backend.as_any_mut().downcast_mut::<ChainStore>().is_some());
    }

    #[test]
    fn backend_upcasts_to_query() {
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis);
        let backend: &mut dyn ChainBackend = &mut store;
        let query: &dyn ChainQuery = &*backend;
        assert_eq!(query.best_height(), 0);
        assert_eq!(query.canonical_blocks().len(), 1);
    }

    #[test]
    fn query_defaults_answer_a_mined_chain() {
        use crate::pow::Miner;
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let mut store = ChainStore::new(genesis.clone());
        let miner = Miner::new(smartcrowd_crypto::Address::from_label("q"));
        let mut parent = genesis;
        for _ in 0..8 {
            let b = miner
                .mine_next(&parent, vec![], parent.header().timestamp + 15)
                .unwrap();
            store.insert(b.clone()).unwrap();
            parent = b;
        }
        let q: &dyn ChainQuery = &store;
        assert_eq!(q.block_count(), 9);
        assert_eq!(q.canonical_blocks().len(), 9);
        let low = q.canonical_id_at(1).unwrap();
        assert!(q.is_confirmed(&low));
        assert_eq!(q.confirmations(&low), 8);
        assert!(!q.is_confirmed(&q.best_tip()));
        assert_eq!(
            q.blocks_by_miner(&smartcrowd_crypto::Address::from_label("q"))
                .len(),
            8
        );
    }

    #[test]
    fn import_rejects_empty_and_non_genesis() {
        assert!(matches!(import_chain(&[]), Err(ChainError::Codec { .. })));
        let genesis = Block::genesis(Difficulty::from_u64(1));
        let store = ChainStore::new(genesis.clone());
        let tip = store.best_block().clone();
        drop(store);
        // A chain starting above height 0 is rejected.
        let child = Block::assemble(
            &tip,
            vec![],
            tip.header().timestamp + 1,
            Difficulty::from_u64(1),
            smartcrowd_crypto::Address::from_label("m"),
        );
        assert!(matches!(
            import_chain(&block_frame(&child)),
            Err(ChainError::Codec { .. })
        ));
    }

    #[test]
    fn storage_error_display_and_conversion() {
        let variants = vec![
            StorageError::Chain(ChainError::NotFound),
            StorageError::Io {
                op: "fsync",
                path: PathBuf::from("/tmp/x"),
                detail: "boom".into(),
            },
            StorageError::Corrupt {
                file: "blocks.log",
                offset: 20,
                detail: "checksum".into(),
            },
            StorageError::InjectedCrash,
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
            match v.clone().into_chain_error() {
                ChainError::Storage { detail } => assert!(!detail.is_empty()),
                e => assert!(matches!(v, StorageError::Chain(_)), "unexpected {e}"),
            }
        }
    }

    #[test]
    fn default_config_is_effectively_unbounded() {
        let cfg = StoreConfig::default();
        assert_eq!(cfg.cache_capacity, usize::MAX);
        assert!(cfg.snapshot_interval > 0);
    }
}
