//! The append-only block log (`blocks.log`).
//!
//! Every committed block — canonical or fork — is one frame, appended in
//! insertion order. Because children are always committed after their
//! parents, *any frame-aligned prefix of the log is parent-closed*: the
//! recovery scan can truncate a torn tail and still replay a valid
//! chain. The scan itself never mutates the file; it reports a plan
//! (`valid_len`, the frames it read, damage classification) and the
//! caller decides when repairs are safe to apply.
//!
//! Nothing reads the whole log at once. Every reader — the recovery
//! scan, the snapshot tail replay, compaction and [`super::import_chain`]
//! — goes through one [`FrameReader`], which walks the frames through a
//! single reused chunk buffer and hands each one over as it is
//! classified, so a scan holds one chunk, not the log. Cold block reads
//! seek straight to a frame via [`BlockLog::read_frame`].
//!
//! The log is also the store's write-ahead log: a commit is durable once
//! [`BlockLog::append`] has fsynced its frame.

use super::disk::{self, DiskFile};
use super::frame::{frame_extent, scan_frame, FrameScan, FRAME_HEADER_LEN};
use super::StorageError;
use crate::block::Block;
use crate::header::BlockId;
use smartcrowd_crypto::DigestSet;
use std::path::Path;

/// Bytes one positioned read of the log asks for. A frame longer than
/// this is read whole.
const CHUNK: usize = 1 << 20;

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

/// Where a [`FrameReader`] gets its bytes.
enum Source<'a> {
    /// A log file, read in [`CHUNK`]s into one buffer that holds the
    /// bytes from `start` on.
    File {
        file: &'a DiskFile,
        buf: Vec<u8>,
        start: u64,
    },
    /// A log image already in memory.
    Image(&'a [u8]),
}

impl Source<'_> {
    /// The bytes from `at` to the end of the window, at least `n` of
    /// them; `at + n` must not pass `end`, the end of the log.
    fn window(&mut self, at: u64, n: usize, end: u64) -> Result<&[u8], StorageError> {
        match self {
            Source::Image(bytes) => Ok(&bytes[at as usize..]),
            Source::File { file, buf, start } => {
                if at < *start || at + n as u64 > *start + buf.len() as u64 {
                    let len = (n.max(CHUNK) as u64).min(end - at) as usize;
                    buf.resize(len, 0);
                    file.read_into(at, buf)?;
                    *start = at;
                }
                Ok(&buf[(at - *start) as usize..])
            }
        }
    }
}

/// Streams the frames of a log, in order, from one offset to its end.
///
/// Each frame is classified exactly as [`scan_frame`] classifies it over
/// the whole image, and every offset it reports is absolute. A file is
/// read through one buffer of [`CHUNK`] bytes: a frame that straddles
/// the buffer's end is read again from its own start, so the buffer is
/// refilled, never shifted.
pub(super) struct FrameReader<'a> {
    source: Source<'a>,
    /// Offset of the next frame: the end of the valid prefix so far.
    pos: u64,
    end: u64,
    torn: bool,
}

impl<'a> FrameReader<'a> {
    /// Reads `file` from `from` to `end`.
    fn file(file: &'a DiskFile, from: u64, end: u64) -> Self {
        FrameReader {
            source: Source::File {
                file,
                buf: Vec::new(),
                start: 0,
            },
            pos: from,
            end,
            torn: false,
        }
    }

    /// Reads a log image held in memory (a chain export).
    pub(super) fn image(bytes: &'a [u8]) -> Self {
        FrameReader {
            source: Source::Image(bytes),
            pos: 0,
            end: bytes.len() as u64,
            torn: false,
        }
    }

    /// The `len` raw bytes at `at`, unverified (compaction's copy).
    fn raw(&mut self, at: u64, len: u64) -> Result<&[u8], StorageError> {
        let len = len as usize;
        Ok(&self.source.window(at, len, self.end)?[..len])
    }

    /// The next frame's offset and verified payload; `None` at the end
    /// of the log or at a torn tail ([`FrameReader::torn`]).
    ///
    /// # Errors
    ///
    /// [`StorageError::Corrupt`] on a complete-but-invalid frame;
    /// [`StorageError::Io`] when the file cannot be read.
    fn next_frame(&mut self) -> Result<Option<(u64, &[u8])>, StorageError> {
        let at = self.pos;
        let rest = self.end - at;
        if rest == 0 || self.torn {
            return Ok(None);
        }
        // Widen the window to all `scan_frame` looks at, so its verdict
        // is the one the whole image would get.
        let head = self
            .source
            .window(at, FRAME_HEADER_LEN.min(rest as usize), self.end)?;
        let need = (frame_extent(head) as u64).min(rest) as usize;
        match scan_frame(self.source.window(at, need, self.end)?, 0) {
            FrameScan::Complete { payload, next } => {
                self.pos = at + next as u64;
                Ok(Some((at, payload)))
            }
            FrameScan::TornTail => {
                self.torn = true;
                Ok(None)
            }
            FrameScan::Corrupt { detail } => Err(StorageError::Corrupt {
                file: "blocks.log",
                offset: at,
                detail,
            }),
        }
    }

    /// The next frame decoded as a block, with its location.
    ///
    /// # Errors
    ///
    /// As [`FrameReader::next_frame`], plus [`StorageError::Corrupt`] for
    /// a payload that does not decode as a block. Torn tails are *not*
    /// errors; they end the stream and set [`FrameReader::torn`].
    pub(super) fn next_block(&mut self) -> Result<Option<(LogEntry, Block)>, StorageError> {
        let Some((offset, payload)) = self.next_frame()? else {
            return Ok(None);
        };
        let block = Block::decode(payload).map_err(|e| StorageError::Corrupt {
            file: "blocks.log",
            offset,
            detail: format!("frame payload is not a block: {e}"),
        })?;
        let entry = LogEntry {
            offset,
            len: self.pos - offset,
            id: block.id(),
        };
        Ok(Some((entry, block)))
    }

    /// Length of the valid frame-aligned prefix read so far.
    pub(super) fn valid_len(&self) -> u64 {
        self.pos
    }

    /// Bytes past [`FrameReader::valid_len`] form a torn tail.
    pub(super) fn torn(&self) -> bool {
        self.torn
    }
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

    /// Streams the frames from `from` to the end of the file.
    pub(super) fn frames_from(&self, from: u64) -> FrameReader<'_> {
        FrameReader::file(&self.file, from, self.len)
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

    /// Compaction: atomically replaces the log with the frames of every
    /// block except `dead`, copied raw — no decode, no re-validation — so
    /// a compaction can never alter a surviving frame. Writes a temp
    /// file, fsyncs, renames it over the log, fsyncs the directory.
    ///
    /// The directory fsync makes the rename durable before the next
    /// append: every later commit is fsynced into the new inode, so a
    /// rename lost at power-off would lose every one of them.
    pub fn compact(&mut self, dead: &DigestSet<&BlockId>) -> Result<(), StorageError> {
        let path = self.file.path().to_path_buf();
        let tmp_path = path.with_extension("log.tmp");
        let mut tmp = DiskFile::open(&tmp_path, true)?;
        let mut reader = FrameReader::file(&self.file, 0, self.len);
        // Survivors gather in one chunk-sized buffer, written out when the
        // next frame would overflow it.
        let mut chunk = Vec::with_capacity(CHUNK.min(self.len as usize));
        let mut written = 0u64;
        let mut entries = Vec::with_capacity(self.entries.len() - dead.len());
        for entry in self.entries.iter().filter(|e| !dead.contains(&e.id)) {
            if !chunk.is_empty() && chunk.len() + entry.len as usize > CHUNK {
                tmp.write_at(written, &chunk)?;
                written += chunk.len() as u64;
                chunk.clear();
            }
            entries.push(LogEntry {
                offset: written + chunk.len() as u64,
                ..*entry
            });
            chunk.extend_from_slice(reader.raw(entry.offset, entry.len)?);
        }
        drop(reader);
        tmp.write_at(written, &chunk)?;
        written += chunk.len() as u64;
        tmp.sync()?;
        drop(tmp);
        disk::rename(&tmp_path, &path)?;
        self.file = DiskFile::open(&path, false)?;
        self.len = written;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::frame::encode_frame;

    /// Frames as `(offset, payload)`, then how the log ended: its valid
    /// length and whether a torn tail follows, or the damaged frame's
    /// offset and detail.
    type Verdict = (Vec<(u64, Vec<u8>)>, Result<(u64, bool), (u64, String)>);

    /// The verdict of one scan over the whole image from `from`.
    fn whole_image(image: &[u8], from: usize) -> Verdict {
        let mut frames = Vec::new();
        let mut at = from;
        while at < image.len() {
            match scan_frame(image, at) {
                FrameScan::Complete { payload, next } => {
                    frames.push((at as u64, payload.to_vec()));
                    at = next;
                }
                FrameScan::TornTail => return (frames, Ok((at as u64, true))),
                FrameScan::Corrupt { detail } => return (frames, Err((at as u64, detail))),
            }
        }
        (frames, Ok((at as u64, false)))
    }

    fn streamed(mut reader: FrameReader<'_>) -> Verdict {
        let mut frames = Vec::new();
        loop {
            match reader.next_frame() {
                Ok(Some((at, payload))) => frames.push((at, payload.to_vec())),
                Ok(None) => return (frames, Ok((reader.valid_len(), reader.torn()))),
                Err(StorageError::Corrupt { offset, detail, .. }) => {
                    return (frames, Err((offset, detail)))
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }

    #[test]
    fn streaming_a_file_matches_one_scan_of_the_whole_image() {
        // Frames that end just short of a chunk edge, straddle one, and
        // outgrow a chunk.
        let sizes = [1000, CHUNK - 1100, 7000, CHUNK + 3, 10, 300_000];
        let mut image = Vec::new();
        let mut starts = Vec::new();
        for (i, size) in sizes.into_iter().enumerate() {
            starts.push(image.len());
            image.extend_from_slice(&encode_frame(&vec![i as u8; size]));
        }
        let mut variants = vec![image.clone()];
        for &start in &starts {
            for (delta, flip) in [
                (0, 0x40),
                (6, 0x01),
                (14, 0x01),
                (FRAME_HEADER_LEN + 5, 0x01),
            ] {
                let mut bent = image.clone();
                bent[start + delta] ^= flip;
                variants.push(bent);
            }
            // Torn inside the header and inside the payload.
            variants.push(image[..start + 10].to_vec());
            variants.push(image[..start + FRAME_HEADER_LEN + 9].to_vec());
        }
        variants.push(image[..CHUNK + 17].to_vec());

        let dir = std::env::temp_dir().join(format!("sc-frame-reader-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blocks.log");
        for (n, variant) in variants.iter().enumerate() {
            std::fs::write(&path, variant).unwrap();
            let file = DiskFile::open(&path, false).unwrap();
            let len = variant.len() as u64;
            for from in [0, starts[3]] {
                if from as u64 > len {
                    continue;
                }
                assert_eq!(
                    streamed(FrameReader::file(&file, from as u64, len)),
                    whole_image(variant, from),
                    "variant {n} from {from}"
                );
            }
            assert_eq!(
                streamed(FrameReader::image(variant)),
                whole_image(variant, 0),
                "variant {n} in memory"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
