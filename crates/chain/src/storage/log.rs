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
//! it needs (`read_range`) — the whole image for a full recovery scan,
//! or just the tail past a snapshot's covered prefix — and cold block
//! reads later seek straight to a frame via [`BlockLog::read_frame`].

use super::frame::{scan_frame, FrameScan};
use super::{io_err, sync_file, sync_parent_dir, StorageError};
use crate::block::Block;
use crate::header::BlockId;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

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
    path: PathBuf,
    file: File,
    len: u64,
    entries: Vec<LogEntry>,
}

impl BlockLog {
    /// Opens (creating if absent) the log file without reading it. `len`
    /// starts at the on-disk size; the caller scans whatever range it
    /// needs and then [`adopt`](Self::adopt)s the resulting directory.
    pub fn open(path: &Path) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        let len = file.metadata().map_err(|e| io_err("stat", path, e))?.len();
        Ok(BlockLog {
            path: path.to_path_buf(),
            file,
            len,
            entries: Vec::new(),
        })
    }

    /// Reads `[from, from + len)` from the file. Positional: uses the
    /// shared handle through `&File` without moving the append cursor
    /// state (`append` always seeks to its own offset first).
    pub fn read_range(&self, from: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(from))
            .map_err(|e| io_err("seek", &self.path, e))?;
        let mut buf = vec![0u8; len as usize];
        file.read_exact(&mut buf)
            .map_err(|e| io_err("read", &self.path, e))?;
        Ok(buf)
    }

    /// Reads from `from` to the end of the file.
    pub fn read_to_end_from(&self, from: u64) -> Result<Vec<u8>, StorageError> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(from))
            .map_err(|e| io_err("seek", &self.path, e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| io_err("read", &self.path, e))?;
        Ok(buf)
    }

    /// Cold read of one frame: seek, checksum-verified decode.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] if the range cannot be read;
    /// [`StorageError::Corrupt`] if the frame fails its checksum, does
    /// not decode as a block, or decodes to a different block id than
    /// the directory recorded.
    pub fn read_frame(&self, entry: LogEntry) -> Result<Block, StorageError> {
        let bytes = self.read_range(entry.offset, entry.len)?;
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
            self.file
                .set_len(valid_len)
                .map_err(|e| io_err("truncate", &self.path, e))?;
            sync_file(&self.file, &self.path)?;
        }
        self.len = valid_len;
        self.entries = entries;
        Ok(())
    }

    /// Appends block `id`'s already-encoded frame and fsyncs. Returns the
    /// new entry.
    pub fn append(&mut self, frame: &[u8], id: BlockId) -> Result<LogEntry, StorageError> {
        self.file
            .seek(SeekFrom::Start(self.len))
            .map_err(|e| io_err("seek", &self.path, e))?;
        self.file
            .write_all(frame)
            .map_err(|e| io_err("append", &self.path, e))?;
        sync_file(&self.file, &self.path)?;
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
    pub fn append_torn(&mut self, frame: &[u8], keep: u64) -> Result<(), StorageError> {
        let keep = (keep as usize).clamp(1, frame.len().saturating_sub(1));
        self.file
            .seek(SeekFrom::Start(self.len))
            .map_err(|e| io_err("seek", &self.path, e))?;
        self.file
            .write_all(&frame[..keep])
            .map_err(|e| io_err("append", &self.path, e))?;
        // Deliberately no sync and no entry bookkeeping: the in-memory
        // handle is abandoned after an injected crash.
        Ok(())
    }

    /// Atomically replaces the log contents with already-encoded frames
    /// (compaction): writes a temp file, fsyncs, renames over the log,
    /// reopens, fsyncs the directory. Raw byte copy — no decode, no
    /// re-validation — so a compaction can never alter surviving frames.
    ///
    /// The directory fsync makes the rename durable before the next
    /// append: every later commit is fsynced into the new inode, so a
    /// rename lost at power-off would lose every one of them.
    pub fn rewrite_raw(&mut self, frames: &[(Vec<u8>, BlockId)]) -> Result<(), StorageError> {
        let tmp_path = self.path.with_extension("log.tmp");
        let mut tmp = File::create(&tmp_path).map_err(|e| io_err("create", &tmp_path, e))?;
        let mut entries = Vec::with_capacity(frames.len());
        let mut offset = 0u64;
        for (frame, id) in frames {
            tmp.write_all(frame)
                .map_err(|e| io_err("write", &tmp_path, e))?;
            entries.push(LogEntry {
                offset,
                len: frame.len() as u64,
                id: *id,
            });
            offset += frame.len() as u64;
        }
        sync_file(&tmp, &tmp_path)?;
        drop(tmp);
        std::fs::rename(&tmp_path, &self.path).map_err(|e| io_err("rename", &self.path, e))?;
        self.file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&self.path)
            .map_err(|e| io_err("open", &self.path, e))?;
        self.len = offset;
        self.entries = entries;
        sync_parent_dir(&self.path)
    }

    /// The frame directory, in log order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Current log length in bytes. Until [`adopt`](Self::adopt) runs
    /// this is the raw on-disk size; afterwards, the valid prefix.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }
}
