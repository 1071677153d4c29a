//! Crash recovery: scan snapshots + WALs back into an exact index state.
//!
//! [`Recovery::recover`] reads a log directory (manifest, per-shard
//! snapshot, per-shard WAL) and classifies, per shard, exactly where and why
//! the valid history ends:
//!
//! * **clean end** — the log ends on a record boundary;
//! * **torn tail** — the last record is incomplete (crash mid-append); the
//!   torn bytes are dropped, everything before them is kept;
//! * **corrupt record** — checksum/length/payload failure (bit rot, or a
//!   duplicate/rewritten region); the scan stops at the last valid record;
//! * **sequence break** — a record decodes but its seq is not the successor
//!   of the previous one (e.g. a duplicate tail record left by a torn
//!   rewrite); the scan stops before it.
//!
//! The scan never panics on any byte sequence and never reads past a file.
//!
//! Records whose seq is ≤ the shard snapshot's `last_seq` are *covered*: the
//! snapshot already folds in their effects (this happens when a crash lands
//! between a checkpoint's snapshot rename and its WAL truncate). They are
//! counted but not replayed.
//!
//! A key's history never leaves its shard: every key routes to one shard
//! during a run, and a restart keeps the shard cut the recovered shards
//! imply (`Partitioner::cut`), so each shard's snapshot and WAL are the
//! whole history of the keys it holds. Each shard therefore recovers on its
//! own: its snapshot, then its surviving groups in seq order, executed as
//! [`gre_core::Request::execute`] would. The shards hold disjoint key
//! ranges in shard order, so their states concatenate into the whole store:
//! [`Recovery::shard_states`] rebuilds them on scoped threads, one per
//! shard, and [`Recovery::replay_into`] bulk-loads their union once.
//! Replay is deterministic: the rebuilt state equals the state at the
//! moment the last surviving group originally executed.

use crate::record::{decode_record, Record, RecordError};
use crate::snapshot::{read_snapshot, snapshot_path, Snapshot};
use crate::wal::{read_manifest, wal_path, DurableLog, SyncPolicy};
use gre_core::{ConcurrentIndex, Index, IndexMeta, ModelIndex, Payload, RangeSpec};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Why a shard's WAL scan stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The log ended exactly on a record boundary.
    CleanEnd,
    /// The final record was incomplete — the normal crash signature.
    TornTail {
        /// Torn bytes dropped from the tail.
        dropped: u64,
    },
    /// A record failed validation; the scan stopped at the last valid one.
    Corrupt(RecordError),
    /// A record decoded but broke seq continuity (duplicate or gap).
    SeqBreak { expected: u64, found: u64 },
}

/// One shard's recovered history.
#[derive(Debug)]
pub struct ShardRecovery {
    pub shard: usize,
    /// Validated snapshot, if one exists.
    pub snapshot: Option<Snapshot>,
    /// Surviving WAL groups **not** covered by the snapshot, in seq order.
    pub groups: Vec<Record>,
    /// WAL records skipped because the snapshot already covers their seq.
    pub covered_groups: u64,
    /// Byte length of the valid WAL prefix (where a resume may append).
    pub valid_len: u64,
    /// Total bytes found in the WAL file.
    pub wal_len: u64,
    pub stop: StopReason,
}

impl ShardRecovery {
    /// Seq of the last group whose effects the recovered state includes
    /// (0 = empty history).
    pub fn last_seq(&self) -> u64 {
        self.groups
            .last()
            .map(|r| r.seq)
            .or(self.snapshot.as_ref().map(|s| s.last_seq))
            .unwrap_or(0)
    }

    /// Operations this shard will replay.
    pub fn op_count(&self) -> u64 {
        self.groups.iter().map(|r| r.ops.len() as u64).sum()
    }

    /// This shard's recovered entries in key order (see
    /// [`Recovery::shard_states`]).
    fn state(&self, meta: &IndexMeta) -> Vec<(u64, Payload)> {
        let mut model = ModelIndex::default();
        if let Some(snapshot) = &self.snapshot {
            model.bulk_load(&snapshot.entries);
        }
        for rec in &self.groups {
            for &op in &rec.ops {
                op.execute_mut(&mut model, meta);
            }
        }
        let mut entries = Vec::with_capacity(model.len());
        model.range(RangeSpec::new(0, usize::MAX), &mut entries);
        entries
    }
}

/// The full recovered image of a log directory.
#[derive(Debug)]
pub struct Recovery {
    dir: PathBuf,
    pub shards: Vec<ShardRecovery>,
}

fn scan_shard(dir: &Path, shard: usize) -> io::Result<ShardRecovery> {
    let snapshot = read_snapshot(&snapshot_path(dir, shard));
    let snap_seq = snapshot.as_ref().map(|s| s.last_seq);
    let wal = match std::fs::read(wal_path(dir, shard)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut groups = Vec::new();
    let mut covered_groups = 0u64;
    let mut at = 0usize;
    // The first record's seq is accepted as-is (checkpoints truncate the log
    // without resetting seqs); every later record must be its predecessor's
    // successor.
    let mut expected: Option<u64> = None;
    let stop = loop {
        if at == wal.len() {
            break StopReason::CleanEnd;
        }
        match decode_record(&wal, at) {
            Ok(rec) => {
                if let Some(exp) = expected {
                    if rec.seq != exp {
                        break StopReason::SeqBreak {
                            expected: exp,
                            found: rec.seq,
                        };
                    }
                }
                expected = Some(rec.seq + 1);
                at += rec.frame_len;
                if snap_seq.is_some_and(|s| rec.seq <= s) {
                    covered_groups += 1;
                } else {
                    groups.push(rec);
                }
            }
            Err(RecordError::TornTail { remaining }) => {
                break StopReason::TornTail {
                    dropped: remaining as u64,
                }
            }
            Err(e) => break StopReason::Corrupt(e),
        }
    };
    Ok(ShardRecovery {
        shard,
        snapshot,
        groups,
        covered_groups,
        valid_len: at as u64,
        wal_len: wal.len() as u64,
        stop,
    })
}

impl Recovery {
    /// Scan the log directory at `dir` (as laid out by
    /// [`DurableLog::create`]) into a recovery image.
    pub fn recover(dir: &Path) -> io::Result<Recovery> {
        let shards = read_manifest(dir)?;
        let mut recovered = Vec::new();
        for shard in 0..shards {
            recovered.push(scan_shard(dir, shard)?);
        }
        Ok(Recovery {
            dir: dir.to_path_buf(),
            shards: recovered,
        })
    }

    /// Total operations replay will apply (snapshot entries not included).
    pub fn replayed_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.op_count()).sum()
    }

    /// Whether every shard's WAL ended cleanly on a record boundary.
    pub fn is_clean(&self) -> bool {
        self.shards
            .iter()
            .all(|s| matches!(s.stop, StopReason::CleanEnd))
    }

    /// Every shard's recovered entries, in shard order: each shard's
    /// snapshot, then its surviving groups in seq order, each op executed as
    /// [`Request::execute`](gre_core::Request::execute) does against a
    /// backend described by `meta` (a remove applies only when it
    /// `supports_delete`). The shards are rebuilt on scoped threads, one
    /// per shard.
    ///
    /// Panics if two shards' states overlap or come out of key order: no
    /// log written under one shard cut per incarnation does that.
    pub fn shard_states(&self, meta: &IndexMeta) -> Vec<Vec<(u64, Payload)>> {
        let states: Vec<Vec<(u64, Payload)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || shard.state(meta)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard replay panicked"))
                .collect()
        });
        let mut below = None;
        for (shard, state) in states.iter().enumerate() {
            if let (Some(first), Some(last)) = (state.first(), state.last()) {
                assert!(
                    below < Some(first.0),
                    "recovered shard {shard} overlaps a lower shard's keys in {}",
                    self.dir.display()
                );
                below = Some(last.0);
            }
        }
        states
    }

    /// Rebuild `index` (which must be empty) to the recovered state: the
    /// union of the shards' states, bulk-loaded in one pass.
    /// Returns the number of replayed operations.
    pub fn replay_into<I: ConcurrentIndex<u64> + ?Sized>(&self, index: &mut I) -> u64 {
        let entries = self.shard_states(&index.meta()).concat();
        if !entries.is_empty() {
            index.bulk_load(&entries);
        }
        self.replayed_ops()
    }

    /// Physically truncate each shard's WAL to its valid prefix, removing
    /// torn or corrupt tails so a resumed writer appends on a clean
    /// boundary.
    fn truncate_torn_tails(&self) -> io::Result<()> {
        for shard in &self.shards {
            if shard.valid_len < shard.wal_len {
                let path = wal_path(&self.dir, shard.shard);
                let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                file.set_len(shard.valid_len)?;
                file.sync_data()?;
            }
        }
        Ok(())
    }

    /// Truncate torn tails and re-open the directory for writing, with each
    /// shard's sequence numbering continuing after its recovered history.
    pub fn resume(&self, policy: SyncPolicy) -> io::Result<Arc<DurableLog>> {
        self.truncate_torn_tails()?;
        let next_seqs: Vec<u64> = self.shards.iter().map(|s| s.last_seq() + 1).collect();
        DurableLog::build(&self.dir, self.shards.len(), policy, None, Some(&next_seqs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{FailAction, FailpointRegistry, Trigger};
    use crate::util::TempDir;
    use gre_core::index::MutexIndex;
    use gre_core::Request;

    fn model_backend() -> MutexIndex<ModelIndex> {
        MutexIndex::new(ModelIndex::default(), "model")
    }

    fn entries_of(index: &MutexIndex<ModelIndex>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        index.range(RangeSpec::new(0, usize::MAX), &mut out);
        out
    }

    fn write_history(dir: &Path) -> Vec<(u64, u64)> {
        // Shard 0: insert/overwrite/remove churn. Shard 1: checkpointed base
        // plus post-checkpoint records.
        let log = DurableLog::create(dir, 2, SyncPolicy::EveryGroup).unwrap();
        log.log_group(0, &[Request::Insert(1, 10), Request::Insert(3, 30)])
            .unwrap();
        log.log_group(0, &[Request::Update(3, 31), Request::Remove(1)])
            .unwrap();
        log.log_group(1, &[Request::Insert(100, 1000), Request::Insert(101, 1010)])
            .unwrap();
        log.checkpoint(1, &[(100, 1000), (101, 1010)]).unwrap();
        log.log_group(1, &[Request::Remove(101), Request::Insert(102, 1020)])
            .unwrap();
        vec![(3, 31), (100, 1000), (102, 1020)]
    }

    #[test]
    fn clean_recovery_rebuilds_exact_state() {
        let dir = TempDir::new("rec-clean");
        let expect = write_history(dir.path());
        let rec = Recovery::recover(dir.path()).unwrap();
        assert!(rec.is_clean());
        assert_eq!(rec.shards[1].snapshot.as_ref().unwrap().last_seq, 1);
        let mut index = model_backend();
        let replayed = rec.replay_into(&mut index);
        assert_eq!(replayed, rec.replayed_ops());
        assert_eq!(entries_of(&index), expect);
    }

    #[test]
    fn torn_tail_is_dropped_and_prefix_replays() {
        let dir = TempDir::new("rec-torn");
        write_history(dir.path());
        // Tear the last record of shard 0's WAL mid-frame.
        let path = dir.path().join("shard-0.wal");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let rec = Recovery::recover(dir.path()).unwrap();
        let shard0 = &rec.shards[0];
        assert!(matches!(shard0.stop, StopReason::TornTail { dropped } if dropped > 0));
        assert_eq!(shard0.groups.len(), 1, "only the first group survives");
        let mut index = model_backend();
        rec.replay_into(&mut index);
        // State as of the surviving prefix: group 2 (update/remove) is gone.
        assert_eq!(
            entries_of(&index),
            vec![(1, 10), (3, 30), (100, 1000), (102, 1020)]
        );
        // Repair then resume: the tail is gone and seqs continue.
        let resumed = rec.resume(SyncPolicy::EveryGroup).unwrap();
        assert_eq!(resumed.next_seq(0), 2);
        assert_eq!(resumed.next_seq(1), 3);
        resumed.log_group(0, &[Request::Insert(5, 50)]).unwrap();
        let again = Recovery::recover(dir.path()).unwrap();
        assert!(again.is_clean());
        assert_eq!(again.shards[0].groups.last().unwrap().seq, 2);
    }

    #[test]
    fn crash_between_snapshot_and_truncate_skips_covered_records() {
        let dir = TempDir::new("rec-covered");
        let registry = FailpointRegistry::new();
        // The checkpoint publishes its snapshot, then the WAL truncate
        // "crashes": both snapshot and full WAL remain on disk.
        registry.script("wal/0/truncate", Trigger::OnHit(1), FailAction::Crash);
        let log = DurableLog::create_injected(
            dir.path(),
            1,
            SyncPolicy::EveryGroup,
            Arc::clone(&registry),
        )
        .unwrap();
        log.log_group(0, &[Request::Insert(1, 10)]).unwrap();
        log.log_group(0, &[Request::Insert(2, 20)]).unwrap();
        assert!(log.checkpoint(0, &[(1, 10), (2, 20)]).is_err());
        drop(log);

        let rec = Recovery::recover(dir.path()).unwrap();
        let shard = &rec.shards[0];
        assert_eq!(shard.covered_groups, 2, "wal fully covered by snapshot");
        assert!(shard.groups.is_empty());
        assert_eq!(shard.last_seq(), 2);
        let mut index = model_backend();
        assert_eq!(rec.replay_into(&mut index), 0);
        assert_eq!(entries_of(&index), vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_full_wal_replay() {
        let dir = TempDir::new("rec-badsnap");
        let registry = FailpointRegistry::new();
        registry.script("wal/0/truncate", Trigger::OnHit(1), FailAction::Crash);
        let log = DurableLog::create_injected(
            dir.path(),
            1,
            SyncPolicy::EveryGroup,
            Arc::clone(&registry),
        )
        .unwrap();
        log.log_group(0, &[Request::Insert(1, 10)]).unwrap();
        assert!(log.checkpoint(0, &[(1, 10)]).is_err());
        drop(log);
        // Rot the snapshot; the un-truncated WAL carries the same history.
        let snap = snapshot_path(dir.path(), 0);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();

        let rec = Recovery::recover(dir.path()).unwrap();
        assert!(
            rec.shards[0].snapshot.is_none(),
            "corrupt snapshot = absent"
        );
        assert_eq!(rec.shards[0].groups.len(), 1);
        let mut index = model_backend();
        assert_eq!(rec.replay_into(&mut index), 1);
        assert_eq!(entries_of(&index), vec![(1, 10)]);
    }

    #[test]
    fn seq_break_stops_the_scan() {
        let dir = TempDir::new("rec-seqbreak");
        let log = DurableLog::create(dir.path(), 1, SyncPolicy::EveryGroup).unwrap();
        log.log_group(0, &[Request::Insert(1, 10)]).unwrap();
        log.log_group(0, &[Request::Insert(2, 20)]).unwrap();
        drop(log);
        // Duplicate the final record — the torn-rewrite signature.
        let path = dir.path().join("shard-0.wal");
        let bytes = std::fs::read(&path).unwrap();
        let first = decode_record(&bytes, 0).unwrap();
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes[first.frame_len..]);
        std::fs::write(&path, &doubled).unwrap();

        let rec = Recovery::recover(dir.path()).unwrap();
        let shard = &rec.shards[0];
        assert_eq!(
            shard.stop,
            StopReason::SeqBreak {
                expected: 3,
                found: 2
            }
        );
        assert_eq!(shard.groups.len(), 2, "history before the break survives");
        assert_eq!(shard.valid_len, bytes.len() as u64);
    }

    #[test]
    fn missing_directory_is_an_error_not_a_panic() {
        let dir = TempDir::new("rec-missing");
        assert!(Recovery::recover(&dir.path().join("never-created")).is_err());
    }
}
