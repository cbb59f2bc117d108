//! The append-only, checksummed record journal.
//!
//! On-disk layout (all integers little-endian):
//!
//! ```text
//! header:  magic "TUTSTOR1" (8) | version u32 (4) | job_hash u64 (8)
//! record:  len u32 (4) | crc32(payload) u32 (4) | payload (len)
//! ```
//!
//! Durability contract:
//!
//! * **append** buffers a frame into the OS file; **commit** flushes and
//!   `fsync`s, so a batch of appends costs one disk sync (group commit).
//! * **recovery** ([`Journal::open`]) scans records front to back and
//!   stops at the first invalid frame — a torn length field, a frame
//!   running past EOF, or a CRC mismatch — then *truncates the file to the
//!   last valid record* and reopens for append. A crash mid-write therefore loses at
//!   most the uncommitted tail, never the journal.
//! * a bad header (wrong magic/version, short file) is [`StoreError::Corrupt`]:
//!   the caller decides what to do with it (the disk report cache
//!   recreates the journal empty) instead of panicking.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc::crc32;

/// Journal file magic.
pub const MAGIC: [u8; 8] = *b"TUTSTOR1";
/// Journal format version.
pub const VERSION: u32 = 1;
/// Header bytes: magic + version + job hash.
pub const HEADER_LEN: u64 = 8 + 4 + 8;
/// Upper bound on one record payload; a length field above this is
/// treated as tail corruption.
pub const MAX_RECORD_LEN: u32 = 1 << 24;

/// Errors of the store layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The journal path.
        path: PathBuf,
        /// The operation that failed (`"open"`, `"append"`, ...).
        op: &'static str,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file is not a usable journal (bad magic, unknown version, or
    /// shorter than a header). Recoverable by restarting the job fresh.
    Corrupt {
        /// The journal path.
        path: PathBuf,
        /// What was wrong.
        reason: String,
    },
    /// A replayed record payload failed to decode against the current
    /// codec — the journal is internally valid but semantically stale.
    Decode {
        /// What failed to decode.
        reason: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, op, source } => {
                write!(f, "journal {op} failed on `{}`: {source}", path.display())
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "`{}` is not a usable journal: {reason}", path.display())
            }
            StoreError::Decode { reason } => write!(f, "stale record payload: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// An open journal positioned for appending.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Valid on-disk bytes (header + committed/buffered whole frames).
    len: u64,
    /// Whole records written (recovered + appended).
    records: u64,
    /// Appends since the last commit.
    dirty: u64,
}

/// What [`Journal::open`] recovered from an existing journal.
#[derive(Debug)]
pub struct Recovery {
    /// The journal, truncated to its last valid record and ready to
    /// append.
    pub journal: Journal,
    /// The job hash the header carries (the caller checks it against the
    /// hash of the work it is about to do).
    pub job_hash: u64,
    /// Every valid record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// Torn-tail bytes dropped by recovery (0 for a clean journal).
    pub truncated_bytes: u64,
}

fn io_err(path: &Path, op: &'static str, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        op,
        source,
    }
}

impl Journal {
    /// Creates (or truncates to empty) a journal for `job_hash` and
    /// makes the header durable.
    pub fn create(path: &Path, job_hash: u64) -> Result<Journal, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| io_err(path, "create", e))?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&job_hash.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| io_err(path, "write header", e))?;
        file.sync_all()
            .map_err(|e| io_err(path, "sync header", e))?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
            len: HEADER_LEN,
            records: 0,
            dirty: 0,
        })
    }

    /// Opens an existing journal, recovering a torn tail by truncating to
    /// the last valid record.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure (including a missing
    /// file) and [`StoreError::Corrupt`] when the header is not a
    /// version-1 journal.
    pub fn open(path: &Path) -> Result<Recovery, StoreError> {
        let data = std::fs::read(path).map_err(|e| io_err(path, "open", e))?;
        let corrupt = |reason: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            reason,
        };
        if data.len() < HEADER_LEN as usize {
            return Err(corrupt(format!(
                "{} bytes is shorter than a {HEADER_LEN}-byte header",
                data.len()
            )));
        }
        if data[..8] != MAGIC {
            return Err(corrupt("bad magic".into()));
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(corrupt(format!(
                "format version {version}, this build reads {VERSION}"
            )));
        }
        let job_hash = u64::from_le_bytes(data[12..20].try_into().expect("8 bytes"));

        let mut records = Vec::new();
        let mut offset = HEADER_LEN as usize;
        while data.len() - offset >= 8 {
            let len = u32::from_le_bytes(data[offset..offset + 4].try_into().expect("4 bytes"));
            if len > MAX_RECORD_LEN || offset + 8 + len as usize > data.len() {
                break; // torn or corrupt length: stop at the last valid record
            }
            let crc = u32::from_le_bytes(data[offset + 4..offset + 8].try_into().expect("4 bytes"));
            let payload = &data[offset + 8..offset + 8 + len as usize];
            if crc32(payload) != crc {
                break; // corrupt payload: everything from here on is dropped
            }
            records.push(payload.to_vec());
            offset += 8 + len as usize;
        }
        let truncated_bytes = (data.len() - offset) as u64;

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, "reopen", e))?;
        if truncated_bytes > 0 {
            file.set_len(offset as u64)
                .map_err(|e| io_err(path, "truncate tail", e))?;
            file.sync_all()
                .map_err(|e| io_err(path, "sync truncation", e))?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err(path, "seek", e))?;
        Ok(Recovery {
            journal: Journal {
                file,
                path: path.to_path_buf(),
                len: offset as u64,
                records: records.len() as u64,
                dirty: 0,
            },
            job_hash,
            records,
            truncated_bytes,
        })
    }

    /// Appends one record frame (buffered; durable only after
    /// [`commit`](Journal::commit)).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        assert!(
            payload.len() <= MAX_RECORD_LEN as usize,
            "record payload above MAX_RECORD_LEN"
        );
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err(&self.path, "append", e))?;
        self.len += frame.len() as u64;
        self.records += 1;
        self.dirty += 1;
        Ok(())
    }

    /// Makes every buffered append durable with one `fsync` (the group
    /// commit boundary).
    pub fn commit(&mut self) -> Result<(), StoreError> {
        self.file
            .flush()
            .map_err(|e| io_err(&self.path, "flush", e))?;
        self.file
            .sync_all()
            .map_err(|e| io_err(&self.path, "fsync", e))?;
        self.dirty = 0;
        Ok(())
    }

    /// Whole records in the journal (recovered + appended).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Valid journal bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tut-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn roundtrip_and_reopen() {
        let path = temp_path("roundtrip.journal");
        let mut journal = Journal::create(&path, 0xFEED).expect("create");
        journal.append(b"alpha").expect("append");
        journal.append(b"beta").expect("append");
        journal.commit().expect("commit");
        assert_eq!(journal.records(), 2);
        drop(journal);

        let recovered = Journal::open(&path).expect("open");
        assert_eq!(recovered.job_hash, 0xFEED);
        assert_eq!(recovered.records, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        assert_eq!(recovered.truncated_bytes, 0);

        // Appends continue after recovery.
        let mut journal = recovered.journal;
        journal.append(b"gamma").expect("append");
        journal.commit().expect("commit");
        let recovered = Journal::open(&path).expect("open");
        assert_eq!(recovered.records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_record() {
        let path = temp_path("torn.journal");
        let mut journal = Journal::create(&path, 1).expect("create");
        journal.append(b"whole record").expect("append");
        journal.commit().expect("commit");
        let valid_len = journal.len_bytes();
        drop(journal);

        // Simulate a crash mid-write: half a frame after the good record.
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.extend_from_slice(&20u32.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 7]); // partial crc + payload
        std::fs::write(&path, &bytes).expect("write torn");

        let recovered = Journal::open(&path).expect("recovery must succeed");
        assert_eq!(recovered.records, vec![b"whole record".to_vec()]);
        assert_eq!(recovered.truncated_bytes, 11);
        assert_eq!(
            std::fs::metadata(&path).expect("meta").len(),
            valid_len,
            "file physically truncated to the last valid record"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_corruption_drops_the_tail_not_the_journal() {
        let path = temp_path("bitflip.journal");
        let mut journal = Journal::create(&path, 2).expect("create");
        for i in 0..5u8 {
            journal.append(&[i; 16]).expect("append");
        }
        journal.commit().expect("commit");
        drop(journal);

        // Flip one payload bit inside record 2.
        let mut bytes = std::fs::read(&path).expect("read");
        let record_2_payload = HEADER_LEN as usize + 2 * (8 + 16) + 8 + 3;
        bytes[record_2_payload] ^= 0x10;
        std::fs::write(&path, &bytes).expect("write corrupted");

        let recovered = Journal::open(&path).expect("recovery must succeed");
        assert_eq!(
            recovered.records,
            vec![vec![0u8; 16], vec![1u8; 16]],
            "records before the corruption survive; the rest is dropped"
        );
        assert!(recovered.truncated_bytes > 0);

        // The journal is usable again: refill the dropped records.
        let mut journal = recovered.journal;
        for i in 2..5u8 {
            journal.append(&[i; 16]).expect("append");
        }
        journal.commit().expect("commit");
        let recovered = Journal::open(&path).expect("open");
        assert_eq!(recovered.records.len(), 5);
        assert_eq!(recovered.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_headers_are_corrupt_not_panics() {
        let path = temp_path("header.journal");
        std::fs::write(&path, b"short").expect("write");
        assert!(matches!(
            Journal::open(&path),
            Err(StoreError::Corrupt { .. })
        ));

        std::fs::write(&path, b"NOTSTORExxxxyyyyyyyy").expect("write");
        assert!(matches!(
            Journal::open(&path),
            Err(StoreError::Corrupt { .. })
        ));

        let mut future = Vec::new();
        future.extend_from_slice(&MAGIC);
        future.extend_from_slice(&99u32.to_le_bytes());
        future.extend_from_slice(&0u64.to_le_bytes());
        std::fs::write(&path, &future).expect("write");
        let err = Journal::open(&path).expect_err("future version");
        assert!(err.to_string().contains("version 99"), "{err}");

        let missing = temp_path("does-not-exist.journal");
        assert!(matches!(
            Journal::open(&missing),
            Err(StoreError::Io { op: "open", .. })
        ));
        std::fs::remove_file(&path).ok();
    }
}
