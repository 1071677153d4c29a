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
//! Recovery never panics on any byte sequence and never reads past a file.
//!
//! Records whose seq is ≤ the shard snapshot's `last_seq` are *covered*: the
//! snapshot already folds in their effects (this happens when a crash lands
//! between a checkpoint's snapshot rename and its WAL truncate). They are
//! counted but not replayed.
//!
//! [`Recovery::replay_into`] rebuilds any [`ConcurrentIndex`] backend. Each
//! shard's model (a `BTreeMap`) is rebuilt independently — snapshot entries
//! first, then its surviving groups re-applied in seq order — so the
//! per-shard work runs on scoped threads, one per shard, and the merged
//! models are bulk-loaded in a single pass. Replay is deterministic: the
//! rebuilt state equals the state at the moment the last surviving group
//! originally executed.
//!
//! A caller that resumes the log under a routing refit from the recovered
//! keys must checkpoint every shard before it logs new writes: the merge
//! applies shards' writes in shard order, so a key's new write logged under
//! its new shard would lose to an old write left under a higher shard.

use crate::record::{decode_record, Record, RecordError};
use crate::snapshot::{read_snapshot, snapshot_path, Snapshot};
use crate::wal::{read_manifest, DurableLog, SyncPolicy};
use gre_core::{ConcurrentIndex, Request};
use std::collections::BTreeMap;
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
}

/// The full recovered image of a log directory.
#[derive(Debug)]
pub struct Recovery {
    dir: PathBuf,
    pub shards: Vec<ShardRecovery>,
}

/// The squashed final effect of one shard's surviving groups on one key.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// The key's final written value (insert or applied update).
    Put(u64),
    /// The key was removed (tombstone — recorded even when the key is
    /// absent locally, so the merge can kill a copy held by another
    /// shard's snapshot).
    Del,
    /// An update whose target's presence can only be decided against the
    /// globally merged state (the key was in neither this shard's
    /// snapshot nor its earlier writes).
    PutIfPresent(u64),
}

/// One shard's replay contribution: its snapshot base and the squashed
/// effects of its surviving groups, kept separate so the merge can layer
/// all bases under all writes.
struct ShardReplayState {
    base: BTreeMap<u64, u64>,
    writes: BTreeMap<u64, Effect>,
    replayed: u64,
}

fn scan_shard(dir: &Path, shard: usize) -> io::Result<ShardRecovery> {
    let snapshot = read_snapshot(&snapshot_path(dir, shard));
    let snap_seq = snapshot.as_ref().map(|s| s.last_seq);
    let wal = match std::fs::read(dir.join(format!("shard-{shard}.wal"))) {
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
        let mut recovered = Vec::with_capacity(shards);
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

    /// Rebuild one shard's contribution: its snapshot base plus its
    /// surviving groups squashed (in seq order) into per-key effects. Pure
    /// per-shard work, safe to run concurrently across shards. Keeping the
    /// base and the effects separate — instead of folding them into one
    /// model — lets the merge phase layer *every* shard's base under
    /// *every* shard's writes, reproducing the semantics of a sequential
    /// global replay even when routing drifted between incarnations (a key
    /// checkpointed under one shard, rewritten under another).
    fn shard_state(shard: &ShardRecovery, supports_delete: bool) -> ShardReplayState {
        let base: BTreeMap<u64, u64> = shard
            .snapshot
            .iter()
            .flat_map(|s| s.entries.iter().copied())
            .collect();
        let mut writes: BTreeMap<u64, Effect> = BTreeMap::new();
        let mut replayed = 0u64;
        for rec in &shard.groups {
            for &op in &rec.ops {
                // Mirrors `Request::execute` against a live backend: insert
                // overwrites, update is present-only, remove is gated on
                // the backend's delete support, reads mutate nothing.
                match op {
                    Request::Insert(k, v) => {
                        writes.insert(k, Effect::Put(v));
                    }
                    Request::Update(k, v) => {
                        let effect = match writes.get(&k) {
                            Some(Effect::Put(_)) => Some(Effect::Put(v)),
                            Some(Effect::PutIfPresent(_)) => Some(Effect::PutIfPresent(v)),
                            // Locally removed: definitively absent.
                            Some(Effect::Del) => None,
                            // Unknown locally: presence is decided at merge
                            // time against the globally layered state.
                            None if base.contains_key(&k) => Some(Effect::Put(v)),
                            None => Some(Effect::PutIfPresent(v)),
                        };
                        if let Some(e) = effect {
                            writes.insert(k, e);
                        }
                    }
                    Request::Remove(k) => {
                        if supports_delete {
                            writes.insert(k, Effect::Del);
                        }
                    }
                    Request::Get(_) | Request::Range(_) => {}
                }
                replayed += 1;
            }
        }
        ShardReplayState {
            base,
            writes,
            replayed,
        }
    }

    /// Rebuild every shard's state and merge: all snapshot bases first
    /// (shard order), then every shard's squashed writes on top (shard
    /// order) — so a write always supersedes a snapshot copy, whichever
    /// shards they came from. `parallel` fans the per-shard pass out on
    /// scoped threads; both modes produce identical bytes.
    fn rebuild_entries(&self, supports_delete: bool, parallel: bool) -> (Vec<(u64, u64)>, u64) {
        let states: Vec<ShardReplayState> = if parallel && self.shards.len() > 1 {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter()
                    .map(|shard| scope.spawn(move || Self::shard_state(shard, supports_delete)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard replay panicked"))
                    .collect()
            })
        } else {
            self.shards
                .iter()
                .map(|shard| Self::shard_state(shard, supports_delete))
                .collect()
        };
        let mut replayed = 0u64;
        let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
        for state in &states {
            merged.extend(state.base.iter().map(|(&k, &v)| (k, v)));
        }
        for state in states {
            replayed += state.replayed;
            for (k, effect) in state.writes {
                match effect {
                    Effect::Put(v) => {
                        merged.insert(k, v);
                    }
                    Effect::Del => {
                        merged.remove(&k);
                    }
                    Effect::PutIfPresent(v) => {
                        if let Some(slot) = merged.get_mut(&k) {
                            *slot = v;
                        }
                    }
                }
            }
        }
        (merged.into_iter().collect(), replayed)
    }

    /// Rebuild `index` (which must be empty) to the recovered state: each
    /// shard's model is rebuilt concurrently (snapshot base, then its
    /// surviving groups in seq order), and the merged result is bulk-loaded
    /// in one pass.
    /// Returns the number of replayed operations.
    pub fn replay_into<I: ConcurrentIndex<u64> + ?Sized>(&self, index: &mut I) -> u64 {
        let supports_delete = index.meta().supports_delete;
        let (entries, replayed) = self.rebuild_entries(supports_delete, true);
        if !entries.is_empty() {
            index.bulk_load(&entries);
        }
        replayed
    }

    /// Physically truncate each shard's WAL to its valid prefix, removing
    /// torn or corrupt tails so a resumed writer appends on a clean
    /// boundary.
    pub fn truncate_torn_tails(&self) -> io::Result<()> {
        for shard in &self.shards {
            if shard.valid_len < shard.wal_len {
                let path = self.dir.join(format!("shard-{}.wal", shard.shard));
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
    use gre_core::{ModelIndex, RangeSpec, Request};

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

    #[test]
    fn parallel_and_sequential_replay_are_byte_identical() {
        let dir = TempDir::new("rec-parallel");
        let log = DurableLog::create(dir.path(), 4, SyncPolicy::EveryGroup).unwrap();
        // A busy, uneven history: churn on every shard, a checkpoint, and
        // a checkpointed key rewritten under another shard.
        for i in 0..200u64 {
            let shard = (i % 4) as usize;
            log.log_group(
                shard,
                &[
                    Request::Insert(i * 10, i),
                    Request::Update(i * 5, i),
                    Request::Remove(i * 7),
                ],
            )
            .unwrap();
        }
        log.checkpoint(2, &[(2, 2), (42, 42)]).unwrap();
        log.log_group(2, &[Request::Insert(1_000_002, 2)]).unwrap();
        log.log_group(3, &[Request::Update(42, 43), Request::Insert(555, 5)])
            .unwrap();
        drop(log);

        let rec = Recovery::recover(dir.path()).unwrap();
        let (par, par_ops) = rec.rebuild_entries(true, true);
        let (seq, seq_ops) = rec.rebuild_entries(true, false);
        assert_eq!(par_ops, seq_ops);
        assert_eq!(par, seq, "scoped-thread replay must be deterministic");
        assert!(!par.is_empty());
        // And the public path agrees with the sequential rebuild.
        let mut index = model_backend();
        rec.replay_into(&mut index);
        assert_eq!(entries_of(&index), seq);
    }
}
