//! Per-shard snapshots: the checkpointed base state a WAL replay starts
//! from.
//!
//! A snapshot is written to a temp file, synced, then atomically renamed
//! into place, so readers only ever observe either the old snapshot or the
//! complete new one — never a partial write. The format carries a CRC-32C
//! trailer; any snapshot that fails validation (bad magic, short file, bad
//! checksum, inconsistent count) is treated as **absent**, which is always
//! safe: the WAL it superseded was only truncated after the rename
//! succeeded, so a discarded snapshot at worst forces a longer replay, never
//! a wrong state.
//!
//! Layout (little-endian):
//!
//! ```text
//! +-----------+--------------+-----------+---------------------+---------+
//! | magic [8] | last_seq u64 | count u64 | count × (k u64,v64) | crc u32 |
//! +-----------+--------------+-----------+---------------------+---------+
//!  crc = CRC-32C over every preceding byte (magic included)
//! ```

use crate::failpoint::FailpointRegistry;
use crate::record::crc32c;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"GRESNAP1";
const HEADER: usize = 24; // magic + last_seq + count
const TRAILER: usize = 4;

/// Path of shard `shard`'s snapshot inside a log directory.
pub(crate) fn snapshot_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.snap"))
}

/// A validated snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Seq of the last group whose effects the entries include. WAL records
    /// with seq ≤ this are already folded in and are skipped on replay.
    pub last_seq: u64,
    pub entries: Vec<(u64, u64)>,
}

/// Write shard `shard`'s snapshot via temp + rename. When a failpoint
/// registry is supplied, the point `snapshot/{shard}/commit` is evaluated
/// *between* the temp-file sync and the rename — firing it models a crash
/// that leaves only the temp file (i.e. no new snapshot published).
pub(crate) fn write_snapshot(
    dir: &Path,
    shard: usize,
    last_seq: u64,
    entries: &[(u64, u64)],
    registry: Option<&FailpointRegistry>,
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(HEADER + entries.len() * 16 + TRAILER);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&last_seq.to_le_bytes());
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for &(k, v) in entries {
        buf.extend_from_slice(&k.to_le_bytes());
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let crc = crc32c(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());

    let path = snapshot_path(dir, shard);
    let tmp = path.with_extension("snap.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&buf)?;
        file.sync_data()?;
    }
    if let Some(reg) = registry {
        if let Some(action) = reg.check(&format!("snapshot/{shard}/commit"), 0) {
            // Whatever the scripted action, the effect at this point is the
            // same: the rename never happens.
            return Err(io::Error::other(format!(
                "injected fault before snapshot rename: {action:?}"
            )));
        }
    }
    std::fs::rename(&tmp, &path)
}

/// Read and validate the snapshot at `path`. `None` means "no usable
/// snapshot" — missing file and corrupt file are deliberately
/// indistinguishable to the caller.
pub(crate) fn read_snapshot(path: &Path) -> Option<Snapshot> {
    let buf = std::fs::read(path).ok()?;
    if buf.len() < HEADER + TRAILER || &buf[..8] != MAGIC {
        return None;
    }
    let body = &buf[..buf.len() - TRAILER];
    let stored_crc = u32::from_le_bytes(buf[buf.len() - TRAILER..].try_into().expect("4 bytes"));
    if crc32c(body) != stored_crc {
        return None;
    }
    let last_seq = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let count = u64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    let entry_bytes = body.len() - HEADER;
    if entry_bytes as u64 != count.checked_mul(16)? {
        return None;
    }
    let mut entries = Vec::with_capacity(count as usize);
    for chunk in body[HEADER..].chunks_exact(16) {
        let k = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
        let v = u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
        entries.push((k, v));
    }
    Some(Snapshot { last_seq, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{FailAction, FailpointRegistry, Trigger};
    use crate::util::TempDir;

    #[test]
    fn snapshot_round_trips() {
        let dir = TempDir::new("snap-roundtrip");
        let entries = vec![(1, 10), (2, 20), (u64::MAX, 0)];
        write_snapshot(dir.path(), 3, 42, &entries, None).unwrap();
        let snap = read_snapshot(&snapshot_path(dir.path(), 3)).expect("valid");
        assert_eq!(snap.last_seq, 42);
        assert_eq!(snap.entries, entries);
    }

    #[test]
    fn empty_snapshot_is_valid() {
        let dir = TempDir::new("snap-empty");
        write_snapshot(dir.path(), 0, 7, &[], None).unwrap();
        let snap = read_snapshot(&snapshot_path(dir.path(), 0)).expect("valid");
        assert_eq!(snap.last_seq, 7);
        assert!(snap.entries.is_empty());
    }

    #[test]
    fn corruption_reads_as_absent() {
        let dir = TempDir::new("snap-corrupt");
        write_snapshot(dir.path(), 0, 9, &[(5, 50)], None).unwrap();
        let path = snapshot_path(dir.path(), 0);
        let pristine = std::fs::read(&path).unwrap();
        // Missing file.
        assert!(read_snapshot(&dir.path().join("missing.snap")).is_none());
        // Any single-bit flip.
        for byte in 0..pristine.len() {
            let mut buf = pristine.clone();
            buf[byte] ^= 1;
            std::fs::write(&path, &buf).unwrap();
            assert!(read_snapshot(&path).is_none(), "flip at byte {byte}");
        }
        // Any truncation.
        for cut in 0..pristine.len() {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(read_snapshot(&path).is_none(), "cut at byte {cut}");
        }
        // Pristine bytes restored read fine again.
        std::fs::write(&path, &pristine).unwrap();
        assert!(read_snapshot(&path).is_some());
    }

    #[test]
    fn rewrites_replace_atomically() {
        let dir = TempDir::new("snap-rewrite");
        write_snapshot(dir.path(), 0, 1, &[(1, 1)], None).unwrap();
        write_snapshot(dir.path(), 0, 2, &[(2, 2), (3, 3)], None).unwrap();
        let snap = read_snapshot(&snapshot_path(dir.path(), 0)).expect("valid");
        assert_eq!(snap.last_seq, 2);
        assert_eq!(snap.entries, vec![(2, 2), (3, 3)]);
    }

    #[test]
    fn injected_crash_before_rename_keeps_the_old_snapshot() {
        let dir = TempDir::new("snap-inject");
        write_snapshot(dir.path(), 0, 1, &[(1, 1)], None).unwrap();
        let registry = FailpointRegistry::new();
        registry.script("snapshot/0/commit", Trigger::OnHit(1), FailAction::Crash);
        let err = write_snapshot(dir.path(), 0, 2, &[(2, 2)], Some(&registry));
        assert!(err.is_err());
        let snap = read_snapshot(&snapshot_path(dir.path(), 0)).expect("old snapshot intact");
        assert_eq!(snap.last_seq, 1, "rename never happened");
    }
}
