//! Every filesystem call the store makes, in one place.
//!
//! The store's crash safety is an argument about the order of a handful
//! of operations — create, write, `set_len`, fsync, rename, remove and
//! directory fsync — so every one of them goes through this module, and
//! every fsync is counted in `chain.storage.fsyncs`. In the crate's test
//! build each mutating call is also appended to the calling thread's
//! crash trace, which the crash-state enumerator (`tests/crash.rs`)
//! replays under a conservative POSIX persistence model.
//!
//! The rule that model enforces: a name a create, mkdir or rename makes
//! is durable only once its directory is fsynced, so every create and
//! rename the store relies on is followed by [`sync_parent`].

use super::{io_err, StorageError};
use smartcrowd_telemetry::counter;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Appends one operation to the calling thread's crash trace; expands to
/// nothing outside the crate's test build.
macro_rules! trace {
    ($op:expr) => {
        #[cfg(test)]
        super::crash::record(|| {
            use super::crash::Op;
            $op
        });
    };
}

/// An open read-write handle on one store file.
#[derive(Debug)]
pub(super) struct DiskFile {
    path: PathBuf,
    file: File,
}

impl DiskFile {
    /// Opens `path` read-write, creating it empty when absent; with
    /// `truncate`, an existing file is emptied too.
    pub fn open(path: &Path, truncate: bool) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)
            .map_err(|e| io_err("open", path, e))?;
        trace!(Op::Create {
            path: path.to_path_buf(),
            truncate,
        });
        Ok(DiskFile {
            path: path.to_path_buf(),
            file,
        })
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file's current size in bytes.
    pub fn len(&self) -> Result<u64, StorageError> {
        let meta = self
            .file
            .metadata()
            .map_err(|e| io_err("stat", &self.path, e))?;
        Ok(meta.len())
    }

    /// Reads `[from, from + len)`.
    pub(crate) fn read_at(&self, from: u64, len: u64) -> Result<Vec<u8>, StorageError> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(from))
            .map_err(|e| io_err("seek", &self.path, e))?;
        let mut buf = vec![0u8; len as usize];
        file.read_exact(&mut buf)
            .map_err(|e| io_err("read", &self.path, e))?;
        Ok(buf)
    }

    /// Reads from `from` to the end of the file.
    pub(crate) fn read_from(&self, from: u64) -> Result<Vec<u8>, StorageError> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(from))
            .map_err(|e| io_err("seek", &self.path, e))?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)
            .map_err(|e| io_err("read", &self.path, e))?;
        Ok(buf)
    }

    /// Writes `bytes` at `offset`, unsynced.
    pub(crate) fn write_at(&mut self, offset: u64, bytes: &[u8]) -> Result<(), StorageError> {
        self.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| self.file.write_all(bytes))
            .map_err(|e| io_err("write", &self.path, e))?;
        trace!(Op::Write {
            path: self.path.clone(),
            offset,
            bytes: bytes.to_vec(),
        });
        Ok(())
    }

    /// Truncates or extends the file to `len` bytes, unsynced.
    pub(crate) fn set_len(&self, len: u64) -> Result<(), StorageError> {
        self.file
            .set_len(len)
            .map_err(|e| io_err("truncate", &self.path, e))?;
        trace!(Op::SetLen {
            path: self.path.clone(),
            len,
        });
        Ok(())
    }

    /// `sync_data`: makes every earlier write and `set_len` durable.
    pub fn sync(&self) -> Result<(), StorageError> {
        counter!("chain.storage.fsyncs").inc();
        self.file
            .sync_data()
            .map_err(|e| io_err("fsync", &self.path, e))?;
        trace!(Op::Sync(self.path.clone()));
        Ok(())
    }
}

/// Creates `dir` and any missing ancestors, making each new name durable
/// in its parent.
pub(super) fn create_dir_all(dir: &Path) -> Result<(), StorageError> {
    if dir.is_dir() {
        return Ok(());
    }
    if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
        create_dir_all(parent)?;
    }
    match std::fs::create_dir(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::AlreadyExists => return Ok(()),
        Err(e) => return Err(io_err("create-dir", dir, e)),
    }
    trace!(Op::Mkdir(dir.to_path_buf()));
    sync_parent(dir)
}

/// Makes a create or rename of `path` durable: `sync_all` on its
/// directory.
pub(super) fn sync_parent(path: &Path) -> Result<(), StorageError> {
    let dir = path
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    counter!("chain.storage.fsyncs").inc();
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync", dir, e))?;
    trace!(Op::SyncDir(dir.to_path_buf()));
    Ok(())
}

/// Renames `from` over `to` (same directory), not yet durable.
pub(super) fn rename(from: &Path, to: &Path) -> Result<(), StorageError> {
    std::fs::rename(from, to).map_err(|e| io_err("rename", to, e))?;
    trace!(Op::Rename {
        from: from.to_path_buf(),
        to: to.to_path_buf(),
    });
    Ok(())
}

/// Removes `path`, not yet durable.
pub(super) fn remove_file(path: &Path) -> Result<(), StorageError> {
    std::fs::remove_file(path).map_err(|e| io_err("remove", path, e))?;
    trace!(Op::Remove(path.to_path_buf()));
    Ok(())
}

/// A whole file, or `None` when it does not exist.
pub(super) fn read(path: &Path) -> Result<Option<Vec<u8>>, StorageError> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err("read", path, e)),
    }
}

/// Atomically replaces `path` (`checkpoint`, `state.snap`): temp file
/// `<name>.tmp` + fsync + rename + directory fsync. A crash leaves the
/// old file or the new one, never a mix, and once this returns the new
/// one survives a power loss.
pub(super) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = DiskFile::open(&tmp, true)?;
    file.write_at(0, bytes)?;
    file.sync()?;
    drop(file);
    rename(&tmp, path)?;
    sync_parent(path)
}
