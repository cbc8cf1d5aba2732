//! The sidecar offset index (`blocks.idx`).
//!
//! Maps log order to frame offsets and block ids so a large log can be
//! opened without decoding every payload (today's opens rescan anyway —
//! the index doubles as a cross-check). It is *best-effort*: written
//! without fsync after each append, fully validated on open, and rebuilt
//! from the log scan whenever anything mismatches. Losing or corrupting
//! it costs a rebuild, never correctness.
//!
//! ```text
//! +----------+----------------------------+-------------------------------+
//! | "SCIDX1\0\0" | count × entry          | footer                        |
//! | 8 bytes  | offset u64 · len u64 · id  | log_len u64 · count u64 ·     |
//! |          | 32  (48 bytes each)        | sha256d(magic + entries) 32   |
//! +----------+----------------------------+-------------------------------+
//! ```

use super::log::LogEntry;
use smartcrowd_crypto::sha256::sha256d;
use std::io::Write;
use std::path::{Path, PathBuf};

const IDX_MAGIC: &[u8; 8] = b"SCIDX1\0\0";
const ENTRY_LEN: usize = 8 + 8 + 32;
const FOOTER_LEN: usize = 8 + 8 + 32;

/// Writer/validator for the sidecar index.
#[derive(Debug)]
pub(super) struct SidecarIndex {
    path: PathBuf,
}

impl SidecarIndex {
    /// Binds the index to its path (no I/O).
    pub fn new(path: &Path) -> Self {
        SidecarIndex {
            path: path.to_path_buf(),
        }
    }

    fn encode(log_len: u64, entries: &[LogEntry]) -> Vec<u8> {
        let mut content = Vec::with_capacity(8 + entries.len() * ENTRY_LEN + FOOTER_LEN);
        content.extend_from_slice(IDX_MAGIC);
        for e in entries {
            content.extend_from_slice(&e.offset.to_be_bytes());
            content.extend_from_slice(&e.len.to_be_bytes());
            content.extend_from_slice(e.id.as_digest());
        }
        let checksum = sha256d(&content);
        content.extend_from_slice(&log_len.to_be_bytes());
        content.extend_from_slice(&(entries.len() as u64).to_be_bytes());
        content.extend_from_slice(&checksum);
        content
    }

    /// Rewrites the index to match the given log state. Best-effort: a
    /// failure is reported so the caller can count it, but the index is
    /// rebuilt on next open regardless.
    pub fn write(&self, log_len: u64, entries: &[LogEntry]) -> std::io::Result<()> {
        let bytes = Self::encode(log_len, entries);
        let mut file = std::fs::File::create(&self.path)?;
        file.write_all(&bytes)
    }

    /// Validates the on-disk index against the authoritative log scan.
    /// Returns `true` when it matches exactly. A missing file counts as
    /// valid only when the log is empty too (fresh store).
    pub fn matches(&self, log_len: u64, entries: &[LogEntry]) -> bool {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(_) => return log_len == 0 && entries.is_empty(),
        };
        bytes == Self::encode(log_len, entries)
    }
}
