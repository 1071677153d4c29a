//! Tailing the WAL as a live shipping stream: [`LogFollower`] turns each
//! shard's log file into an incremental iterator of committed groups, while
//! a [`DurableLog`](crate::DurableLog) keeps appending to it.
//!
//! The layer-tax ledger times this stream as its log-shipping rows
//! (`ship.poll_ns_per_op`, `ship.apply_ns_per_op`): a follower reads exactly
//! the records recovery would replay — one record walk, one sequence rule
//! (see [`Recovery`](crate::Recovery)), one torn-tail discipline.
//!
//! ## Safety of concurrent tailing
//!
//! A WAL file only ever **grows** while it is being followed (group commits
//! append whole framed records; checkpoints, which truncate, require a
//! quiesced shard and must not run under a live follower — see
//! [`LogFollower::poll`]). The bytes a reader observes are therefore always
//! a prefix of a valid record sequence: the only mid-flight artifact is a
//! torn tail, exactly the crash signature recovery already classifies.
//! [`LogFollower::poll`] stops at a torn tail and re-reads from the same
//! offset next time; a corrupt record, a sequence break or a gap after the
//! snapshot is a real fault and surfaces as an [`io::Error`].

use crate::record::Record;
use crate::recover::{walk_records, SeqRule, StopReason};
use crate::snapshot::{read_snapshot, snapshot_path};
use crate::wal::{read_manifest, wal_path};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Per-shard tail position.
#[derive(Debug, Clone)]
struct Cursor {
    /// Byte offset of the first record not yet consumed.
    offset: u64,
    /// Where the shard's walk stands in the sequence rule.
    rule: SeqRule,
}

/// An incremental reader of a [`DurableLog`](crate::DurableLog) directory:
/// one cursor per shard, each [`poll`](LogFollower::poll) returning the
/// framed groups committed since the last call.
#[derive(Debug)]
pub struct LogFollower {
    dir: PathBuf,
    cursors: Vec<Cursor>,
    buf: Vec<u8>,
}

impl LogFollower {
    /// Follow the log under `dir` from the beginning of every shard's file,
    /// yielding the records its snapshot does not cover. Shard count comes
    /// from the WAL manifest.
    pub fn from_start(dir: &Path) -> io::Result<LogFollower> {
        let shards = read_manifest(dir)?;
        let cursors = (0..shards)
            .map(|s| Cursor {
                offset: 0,
                rule: SeqRule::after(read_snapshot(&snapshot_path(dir, s)).as_ref()),
            })
            .collect();
        Ok(LogFollower {
            dir: dir.to_path_buf(),
            cursors,
            buf: Vec::new(),
        })
    }

    /// Read every complete record appended to `shard`'s log since the last
    /// poll. Returns an empty vec when nothing new is committed (including
    /// when the file ends in a torn tail still being appended). Records the
    /// shard's snapshot covers advance the cursor without being yielded.
    ///
    /// Errors: a shrunken file (a checkpoint truncated the log under the
    /// follower — unsupported while shipping), a non-torn decode failure
    /// (corruption), a sequence break, or a first record that leaves a gap
    /// after the snapshot.
    pub fn poll(&mut self, shard: usize) -> io::Result<Vec<Record>> {
        let path = wal_path(&self.dir, shard);
        let mut file = std::fs::File::open(&path)?;
        let len = file.metadata()?.len();
        let cur = &mut self.cursors[shard];
        if len < cur.offset {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "wal for shard {shard} shrank under the follower \
                     ({len} < {}): checkpoint while shipping is unsupported",
                    cur.offset
                ),
            ));
        }
        if len == cur.offset {
            return Ok(Vec::new());
        }
        file.seek(SeekFrom::Start(cur.offset))?;
        self.buf.clear();
        file.take(len - cur.offset).read_to_end(&mut self.buf)?;

        let mut out = Vec::new();
        let (walked, stop) = walk_records(&self.buf, &mut cur.rule, shard, |rec| out.push(rec))?;
        cur.offset += walked as u64;
        match stop {
            // A torn tail is an append still in flight: stop here and
            // re-read from the same offset next poll.
            StopReason::CleanEnd | StopReason::TornTail { .. } => Ok(out),
            StopReason::Corrupt(e) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "corrupt record on shard {shard} at offset {}: {e:?}",
                    cur.offset
                ),
            )),
            StopReason::SeqBreak { expected, found } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("sequence break on shard {shard}: expected {expected}, found {found}"),
            )),
        }
    }

    /// Poll every shard once, returning `(shard, record)` pairs in shard
    /// order. Convenience for single-threaded shippers.
    pub fn poll_all(&mut self) -> io::Result<Vec<(usize, Record)>> {
        let mut out = Vec::new();
        for shard in 0..self.cursors.len() {
            for rec in self.poll(shard)? {
                out.push((shard, rec));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::TempDir;
    use crate::wal::{DurableLog, SyncPolicy};
    use gre_core::Request;

    fn inserts(base: u64, n: u64) -> Vec<Request<u64>> {
        (0..n)
            .map(|i| Request::Insert(base + i, base + i))
            .collect()
    }

    #[test]
    fn tails_groups_as_they_commit() {
        let dir = TempDir::new("follow-tail");
        let log = DurableLog::create(dir.path(), 2, SyncPolicy::EveryGroup).unwrap();
        let mut follower = LogFollower::from_start(dir.path()).unwrap();
        assert_eq!(follower.cursors.len(), 2);
        assert!(follower.poll(0).unwrap().is_empty());

        log.log_group(0, &inserts(10, 3)).unwrap();
        log.log_group(0, &inserts(20, 2)).unwrap();
        log.log_group(1, &inserts(30, 1)).unwrap();

        let got = follower.poll(0).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, 1);
        assert_eq!(got[0].ops, inserts(10, 3));
        assert_eq!(got[1].seq, 2);
        assert_eq!(follower.poll(0).unwrap().len(), 0, "no re-delivery");

        let got = follower.poll(1).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].ops, inserts(30, 1));

        // More commits after a drained poll are picked up incrementally.
        log.log_group(0, &inserts(40, 4)).unwrap();
        let got = follower.poll(0).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 3);
    }

    #[test]
    fn torn_tail_is_not_an_error_and_completes_later() {
        let dir = TempDir::new("follow-torn");
        let log = DurableLog::create(dir.path(), 1, SyncPolicy::EveryGroup).unwrap();
        log.log_group(0, &inserts(1, 2)).unwrap();

        // Simulate an append caught mid-write: a full record followed by a
        // prefix of the next one.
        let path = wal_path(dir.path(), 0);
        let full = std::fs::read(&path).unwrap();
        let mut next = Vec::new();
        crate::record::encode_record(2, &inserts(5, 2), &mut next);
        let mut torn = full.clone();
        torn.extend_from_slice(&next[..next.len() / 2]);
        std::fs::write(&path, &torn).unwrap();

        let mut follower = LogFollower::from_start(dir.path()).unwrap();
        let got = follower.poll(0).unwrap();
        assert_eq!(got.len(), 1, "complete record yielded");
        assert_eq!(
            follower.cursors[0].offset,
            full.len() as u64,
            "cursor stops at the tear"
        );

        // The append completes; the follower resumes cleanly.
        let mut whole = full;
        whole.extend_from_slice(&next);
        std::fs::write(&path, &whole).unwrap();
        let got = follower.poll(0).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 2);
        assert_eq!(got[0].ops, inserts(5, 2));
    }

    #[test]
    fn starts_after_the_snapshot_of_a_checkpointed_log() {
        let seqs = |f: &mut LogFollower| -> Vec<u64> {
            f.poll(0).unwrap().iter().map(|r| r.seq).collect()
        };
        // A checkpoint truncates the log but the sequence keeps counting.
        let dir = TempDir::new("follow-checkpoint");
        let log = DurableLog::create(dir.path(), 1, SyncPolicy::EveryGroup).unwrap();
        log.log_group(0, &inserts(0, 2)).unwrap();
        log.log_group(0, &inserts(10, 2)).unwrap();
        log.checkpoint(0, &[(0, 0)]).unwrap();
        log.log_group(0, &inserts(20, 2)).unwrap();
        let mut follower = LogFollower::from_start(dir.path()).unwrap();
        assert_eq!(seqs(&mut follower), [3]);

        // A crash between the snapshot's rename and the log's truncate
        // leaves both: the records the snapshot covers are consumed, not
        // yielded.
        let dir = TempDir::new("follow-untruncated");
        let log = DurableLog::create(dir.path(), 1, SyncPolicy::EveryGroup).unwrap();
        for g in 0..3u64 {
            log.log_group(0, &inserts(g * 10, 2)).unwrap();
        }
        crate::snapshot::write_snapshot(dir.path(), 0, 2, &[(0, 0)], None).unwrap();
        let mut follower = LogFollower::from_start(dir.path()).unwrap();
        assert_eq!(seqs(&mut follower), [3]);
        assert_eq!(
            follower.cursors[0].offset,
            std::fs::metadata(wal_path(dir.path(), 0)).unwrap().len()
        );
    }

    #[test]
    fn corruption_is_an_error_not_a_stall() {
        let dir = TempDir::new("follow-corrupt");
        let log = DurableLog::create(dir.path(), 1, SyncPolicy::EveryGroup).unwrap();
        log.log_group(0, &inserts(1, 2)).unwrap();
        log.log_group(0, &inserts(9, 2)).unwrap();

        // Flip a byte inside the second record's body.
        let path = wal_path(dir.path(), 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() - 4;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let mut follower = LogFollower::from_start(dir.path()).unwrap();
        assert!(follower.poll(0).is_err());
    }
}
