//! The single-entry write-ahead log (`wal`).
//!
//! A commit writes its frame here and fsyncs *before* touching
//! `blocks.log`; only after the log append is durable is the WAL
//! truncated. The WAL therefore holds at most one frame, and its state
//! on open classifies the in-flight commit:
//!
//! - **empty** — no commit was in flight; nothing to do.
//! - **one valid frame** — the commit reached its durability point. If
//!   the block is not already the log's last frame, replay it
//!   (idempotently) into the log.
//! - **torn or invalid** — the crash hit before the WAL fsync completed,
//!   so the commit never became durable. Discard it: this is the
//!   recover-to-prefix outcome, not data loss.

use super::frame::{scan_frame, FrameScan};
use super::{io_err, sync_file, StorageError};
use crate::block::Block;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// What the WAL held when the store was opened.
#[derive(Debug)]
pub(super) enum WalRecovery {
    /// WAL empty: no commit in flight.
    Empty,
    /// A complete, checksum-valid frame: the commit was durable and must
    /// be (idempotently) replayed into the log.
    Replay(Block),
    /// A torn or invalid entry: the commit never reached its durability
    /// point and is discarded.
    Discard,
}

/// Open handle on the WAL file.
#[derive(Debug)]
pub(super) struct Wal {
    path: PathBuf,
    file: File,
}

impl Wal {
    /// Opens (creating if absent) the WAL and classifies its contents.
    pub fn open(path: &Path) -> Result<(Self, WalRecovery), StorageError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", path, e))?;
        let recovery = if bytes.is_empty() {
            WalRecovery::Empty
        } else {
            match scan_frame(&bytes, 0) {
                FrameScan::Complete { payload, next } if next == bytes.len() => {
                    match Block::decode(payload) {
                        Ok(block) => WalRecovery::Replay(block),
                        // A checksum-valid frame that is not a block can
                        // only be forged, but the commit it represents
                        // was never applied — discarding loses nothing.
                        Err(_) => WalRecovery::Discard,
                    }
                }
                // Trailing garbage after a frame, torn prefix, or any
                // invalid shape: the commit never became durable.
                _ => WalRecovery::Discard,
            }
        };
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
            },
            recovery,
        ))
    }

    /// Begins a commit: truncates, writes the block's frame (the same
    /// bytes the log append writes next), fsyncs.
    pub fn begin(&mut self, frame: &[u8]) -> Result<(), StorageError> {
        self.reset()?;
        self.file
            .write_all(frame)
            .map_err(|e| io_err("write", &self.path, e))?;
        sync_file(&self.file, &self.path)
    }

    /// Fault injection: writes only the first `keep` bytes of the frame,
    /// unsynced — the shape a power loss mid-WAL-write leaves.
    pub fn begin_torn(&mut self, frame: &[u8], keep: u64) -> Result<(), StorageError> {
        let keep = (keep as usize).clamp(1, frame.len().saturating_sub(1));
        self.reset()?;
        self.file
            .write_all(&frame[..keep])
            .map_err(|e| io_err("write", &self.path, e))?;
        Ok(())
    }

    /// Completes a commit: truncates the WAL back to empty and fsyncs.
    pub fn clear(&mut self) -> Result<(), StorageError> {
        self.reset()?;
        sync_file(&self.file, &self.path)
    }

    fn reset(&mut self) -> Result<(), StorageError> {
        self.file
            .set_len(0)
            .map_err(|e| io_err("truncate", &self.path, e))?;
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", &self.path, e))?;
        Ok(())
    }
}
