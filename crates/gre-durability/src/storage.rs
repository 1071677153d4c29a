//! The byte-sink abstraction the WAL writes through.
//!
//! Separating *what* the log writes (framed records, group commit) from
//! *where* the bytes land lets the fault-injection layer
//! ([`crate::failpoint::InjectingSink`]) interpose deterministically scripted
//! failures between the log logic and the real file, while production code
//! uses a plain [`FileSink`].
//!
//! The contract mirrors the durability semantics of a real OS:
//! [`WalSink::append`] hands bytes to the sink with **no** durability
//! promise (they may sit in a page-cache-like buffer), and only
//! [`WalSink::sync`] is a durability barrier — after it returns `Ok`, every
//! previously appended byte must survive a crash. [`WalSink::truncate`]
//! discards the log (used when a snapshot supersedes it).

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// An append-only byte sink with an explicit durability barrier.
pub(crate) trait WalSink: Send {
    /// Hand `buf` to the sink. Not durable until [`WalSink::sync`] returns.
    fn append(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Durability barrier: all appended bytes must survive a crash once this
    /// returns `Ok`.
    fn sync(&mut self) -> io::Result<()>;

    /// Discard the entire log (after its contents were snapshotted). The
    /// truncation itself must be durable on return.
    fn truncate(&mut self) -> io::Result<()>;

    /// Bytes appended so far (durable or not), for offset-based failpoints
    /// and stats.
    fn position(&self) -> u64;
}

/// The production sink: a real file, `append` = buffered `write_all`,
/// `sync` = flush + `sync_data`.
pub(crate) struct FileSink {
    file: File,
    /// Appended-but-unsynced bytes. Buffering in-process (instead of
    /// writing straight through) keeps one write syscall per group commit
    /// even when the sync policy batches several groups per barrier.
    pending: Vec<u8>,
    position: u64,
}

impl FileSink {
    /// Open (creating or appending to) the log at `path`.
    pub(crate) fn open(path: &Path) -> io::Result<FileSink> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let position = file.metadata()?.len();
        Ok(FileSink {
            file,
            pending: Vec::new(),
            position,
        })
    }
}

impl WalSink for FileSink {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.pending.extend_from_slice(buf);
        self.position += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if !self.pending.is_empty() {
            self.file.write_all(&self.pending)?;
            self.pending.clear();
        }
        self.file.sync_data()
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.pending.clear();
        self.file.set_len(0)?;
        self.position = 0;
        self.file.sync_data()
    }

    fn position(&self) -> u64 {
        self.position
    }
}

/// An in-memory sink for unit tests: bytes survive "crashes" only if synced
/// (same model the injecting sink enforces). The backing store is shared so
/// a test can inspect what a crashed writer actually persisted.
#[cfg(test)]
pub(crate) struct MemSink {
    store: std::sync::Arc<std::sync::Mutex<Vec<u8>>>,
    pending: Vec<u8>,
    position: u64,
}

#[cfg(test)]
impl MemSink {
    pub(crate) fn new() -> (MemSink, std::sync::Arc<std::sync::Mutex<Vec<u8>>>) {
        let store = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        (
            MemSink {
                store: std::sync::Arc::clone(&store),
                pending: Vec::new(),
                position: 0,
            },
            store,
        )
    }
}

#[cfg(test)]
impl WalSink for MemSink {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.pending.extend_from_slice(buf);
        self.position += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.store
            .lock()
            .expect("mem sink poisoned")
            .extend_from_slice(&self.pending);
        self.pending.clear();
        Ok(())
    }

    fn truncate(&mut self) -> io::Result<()> {
        self.store.lock().expect("mem sink poisoned").clear();
        self.pending.clear();
        self.position = 0;
        Ok(())
    }

    fn position(&self) -> u64 {
        self.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_sink_persists_only_on_sync() {
        let (mut sink, store) = MemSink::new();
        sink.append(b"abc").unwrap();
        assert_eq!(sink.position(), 3);
        assert!(store.lock().unwrap().is_empty(), "unsynced stays pending");
        sink.sync().unwrap();
        assert_eq!(store.lock().unwrap().as_slice(), b"abc");
        sink.append(b"def").unwrap();
        sink.truncate().unwrap();
        assert!(store.lock().unwrap().is_empty());
        assert_eq!(sink.position(), 0);
    }

    #[test]
    fn file_sink_round_trips_through_the_filesystem() {
        let dir = crate::util::TempDir::new("file-sink");
        let path = dir.path().join("wal.log");
        {
            let mut sink = FileSink::open(&path).unwrap();
            sink.append(b"hello ").unwrap();
            sink.append(b"wal").unwrap();
            assert_eq!(sink.position(), 9);
            sink.sync().unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"hello wal");
        // Reopening appends; truncation is durable.
        let mut sink = FileSink::open(&path).unwrap();
        assert_eq!(sink.position(), 9);
        sink.truncate().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
    }
}
