//! The append-only block log (`blocks.log`).
//!
//! Every committed block — canonical or fork — is one frame, appended in
//! insertion order. Because children are always committed after their
//! parents, *any frame-aligned prefix of the log is parent-closed*: the
//! recovery scan can truncate a torn tail and still replay a valid
//! chain. The scan itself never mutates the file; it reports a plan
//! (`valid_len`, decoded blocks, damage classification) and the caller
//! decides when repairs are safe to apply.
//!
//! Opening no longer slurps the file: the caller reads exactly the range
//! it needs — the whole image for a full recovery scan, or just the tail
//! past a snapshot's covered prefix — and cold block reads later seek
//! straight to a frame via [`BlockLog::read_frame`].
//!
//! The log is also the store's write-ahead log: a commit is durable once
//! [`BlockLog::append`] has fsynced its frame.

use super::disk::{self, DiskFile};
use super::frame::{scan_frame, FrameScan};
use super::StorageError;
use crate::block::Block;
use crate::header::BlockId;
use std::collections::HashSet;
use std::path::Path;

/// Location of one frame inside the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct LogEntry {
    /// Byte offset of the frame's first header byte.
    pub offset: u64,
    /// Total frame length (header + payload).
    pub len: u64,
    /// Id of the block the frame decodes to.
    pub id: BlockId,
}

/// Outcome of scanning a log image.
#[derive(Debug)]
pub(super) struct LogScan {
    /// Decoded blocks, in log order.
    pub blocks: Vec<Block>,
    /// Frame locations, parallel to `blocks`.
    pub entries: Vec<LogEntry>,
    /// Length of the valid frame-aligned prefix.
    pub valid_len: u64,
    /// Bytes past `valid_len` form a torn tail to truncate.
    pub torn: bool,
}

/// Scans raw log bytes into blocks without touching any file.
///
/// # Errors
///
/// [`StorageError::Corrupt`] on a complete-but-invalid frame or a
/// payload that does not decode as a block. Torn tails are *not* errors;
/// they set [`LogScan::torn`].
pub(super) fn scan_log(bytes: &[u8]) -> Result<LogScan, StorageError> {
    let mut blocks = Vec::new();
    let mut entries = Vec::new();
    let mut offset = 0usize;
    let mut torn = false;
    while offset < bytes.len() {
        match scan_frame(bytes, offset) {
            FrameScan::Complete { payload, next } => {
                let block = Block::decode(payload).map_err(|e| StorageError::Corrupt {
                    file: "blocks.log",
                    offset: offset as u64,
                    detail: format!("frame payload is not a block: {e}"),
                })?;
                entries.push(LogEntry {
                    offset: offset as u64,
                    len: (next - offset) as u64,
                    id: block.id(),
                });
                blocks.push(block);
                offset = next;
            }
            FrameScan::TornTail => {
                torn = true;
                break;
            }
            FrameScan::Corrupt { detail } => {
                return Err(StorageError::Corrupt {
                    file: "blocks.log",
                    offset: offset as u64,
                    detail,
                });
            }
        }
    }
    Ok(LogScan {
        blocks,
        entries,
        valid_len: offset as u64,
        torn,
    })
}

/// An open handle on `blocks.log` with its frame directory.
#[derive(Debug)]
pub(super) struct BlockLog {
    file: DiskFile,
    len: u64,
    entries: Vec<LogEntry>,
}

impl BlockLog {
    /// Opens (creating if absent) the log file without reading it. `len`
    /// starts at the on-disk size; the caller scans whatever range it
    /// needs and then [`adopt`](Self::adopt)s the resulting directory.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let file = DiskFile::open(path, false)?;
        let len = file.len()?;
        Ok(BlockLog {
            file,
            len,
            entries: Vec::new(),
        })
    }

    /// Reads from `from` to the end of the file.
    pub(crate) fn read_to_end_from(&self, from: u64) -> Result<Vec<u8>, StorageError> {
        self.file.read_from(from)
    }

    /// Cold read of one frame: seek, checksum-verified decode.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the range cannot be read;
    /// [`StorageError::Corrupt`] if the frame fails its checksum, does
    /// not decode as a block, or decodes to a different block id than
    /// the directory recorded.
    pub(crate) fn read_frame(&self, entry: LogEntry) -> Result<Block, StorageError> {
        let bytes = self.file.read_at(entry.offset, entry.len)?;
        let corrupt = |detail: String| StorageError::Corrupt {
            file: "blocks.log",
            offset: entry.offset,
            detail,
        };
        match scan_frame(&bytes, 0) {
            FrameScan::Complete { payload, next } if next == bytes.len() => {
                let block = Block::decode(payload)
                    .map_err(|e| corrupt(format!("frame payload is not a block: {e}")))?;
                if block.id() != entry.id {
                    return Err(corrupt(format!(
                        "frame decodes to block {} but the directory expected {}",
                        block.id(),
                        entry.id
                    )));
                }
                Ok(block)
            }
            FrameScan::Complete { .. } | FrameScan::TornTail => Err(corrupt(
                "frame shorter than its directory entry".to_string(),
            )),
            FrameScan::Corrupt { detail } => Err(corrupt(detail)),
        }
    }

    /// Adopts a scan of the current image, truncating any torn tail.
    pub fn adopt(&mut self, valid_len: u64, entries: Vec<LogEntry>) -> Result<(), StorageError> {
        if valid_len < self.len {
            self.file.set_len(valid_len)?;
            self.file.sync()?;
        }
        self.len = valid_len;
        self.entries = entries;
        Ok(())
    }

    /// Appends block `id`'s already-encoded frame and fsyncs. Returns the
    /// new entry.
    pub fn append(&mut self, frame: &[u8], id: BlockId) -> Result<LogEntry, StorageError> {
        self.file.write_at(self.len, frame)?;
        self.file.sync()?;
        let entry = LogEntry {
            offset: self.len,
            len: frame.len() as u64,
            id,
        };
        self.len += frame.len() as u64;
        self.entries.push(entry);
        Ok(entry)
    }

    /// Fault injection: writes only the first `keep` bytes of `frame`,
    /// unsynced — the shape a power loss mid-append leaves.
    pub(crate) fn append_torn(&mut self, frame: &[u8], keep: u64) -> Result<(), StorageError> {
        let keep = (keep as usize).clamp(1, frame.len().saturating_sub(1));
        // Deliberately no sync and no entry bookkeeping: the in-memory
        // handle is abandoned after an injected crash.
        self.file.write_at(self.len, &frame[..keep])
    }

    /// Compaction: atomically replaces the log with the frames of every
    /// block except `dead`, copied raw — no decode, no re-validation — so
    /// a compaction can never alter a surviving frame. Writes a temp
    /// file, fsyncs, renames it over the log, fsyncs the directory.
    ///
    /// The directory fsync makes the rename durable before the next
    /// append: every later commit is fsynced into the new inode, so a
    /// rename lost at power-off would lose every one of them.
    pub fn compact(&mut self, dead: &HashSet<&BlockId>) -> Result<(), StorageError> {
        let path = self.file.path().to_path_buf();
        let mut image = Vec::new();
        let mut entries = Vec::with_capacity(self.entries.len() - dead.len());
        for entry in self.entries.iter().filter(|e| !dead.contains(&e.id)) {
            let offset = image.len() as u64;
            image.extend_from_slice(&self.file.read_at(entry.offset, entry.len)?);
            entries.push(LogEntry { offset, ..*entry });
        }
        let tmp_path = path.with_extension("log.tmp");
        let mut tmp = DiskFile::open(&tmp_path, true)?;
        tmp.write_at(0, &image)?;
        tmp.sync()?;
        drop(tmp);
        disk::rename(&tmp_path, &path)?;
        self.file = DiskFile::open(&path, false)?;
        self.len = image.len() as u64;
        self.entries = entries;
        disk::sync_parent(&path)
    }

    /// The frame directory, in log order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Current log length in bytes. Until [`adopt`](Self::adopt) runs
    /// this is the raw on-disk size; afterwards, the valid prefix.
    pub(crate) fn len_bytes(&self) -> u64 {
        self.len
    }
}
