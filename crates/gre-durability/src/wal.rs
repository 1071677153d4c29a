//! Per-shard write-ahead logs with group commit.
//!
//! [`DurableLog`] owns one append-only log per shard. The serving pipeline
//! already batches operations into per-shard sub-batches and queues them
//! FIFO, so the group-commit unit falls out for free: a **group** is the
//! writes of every sub-batch a shard had queued when its worker turned to
//! it — one sub-batch when the queue is shallow, the whole backlog when a
//! slow barrier made it pile up — and it is **one WAL record**, logged and
//! synced *before* any of it executes in memory (log-then-execute). This
//! crate does not choose the grouping: a group is whatever one
//! [`DurableLog::log_group`] call carries. Because each shard's groups are
//! processed FIFO by the pipeline, each shard's log is a faithful serial
//! history of that shard's accepted writes — no cross-shard ordering is
//! needed, since a key's history never leaves its shard: every key routes
//! to one shard, and a restart keeps the shard cut (see [`crate::Recovery`]).
//!
//! ## Durability contract
//!
//! * Under [`SyncPolicy::EveryGroup`], a group's record is durable before
//!   [`DurableLog::log_group`] returns `Ok`. Combined with log-then-execute,
//!   every client-visible response corresponds to a durable record: recovery
//!   rebuilds **exactly** the acknowledged state.
//! * Under [`SyncPolicy::EveryN`], sync barriers are amortized over `n`
//!   groups. Recovery still rebuilds a *prefix-consistent* state (a clean
//!   per-shard prefix of accepted groups), but up to `n - 1` acknowledged
//!   groups per shard may be lost in a crash — and a group is a shard's
//!   whole queued backlog, so under load that is many more operations than
//!   `n - 1` sub-batches. This is the classic group-commit
//!   latency/durability dial; the ledger's `durable_write` workload prices
//!   both ends of it beside the mean group size.
//! * Any sink failure **fail-stops the shard's log**: the failed group is
//!   reported as not-logged (the pipeline answers it with a shutdown error
//!   and executes nothing), and every later group on that shard fails too.
//!   In-memory state therefore never runs ahead of what the log accepted.
//!
//! ## Checkpoints
//!
//! [`DurableLog::checkpoint`] writes a CRC-trailed snapshot of a shard's
//! entries (tmp + rename), then truncates that shard's WAL. Sequence numbers
//! keep counting across checkpoints, so recovery can tell a stale WAL (crash
//! between the snapshot rename and the truncate) from fresh records by
//! comparing record seq against the snapshot's `last_seq`.

use crate::failpoint::{FailpointRegistry, InjectingSink};
use crate::snapshot;
use crate::storage::{FileSink, WalSink};
use gre_core::Request;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How often group commits are made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// A durability barrier after every group: `log_group` returning `Ok`
    /// means the group survives any crash.
    EveryGroup,
    /// A barrier every `n` groups per shard (and on checkpoint/shutdown).
    /// Up to `n - 1` acknowledged groups per shard may be lost in a crash.
    /// The bound counts groups, not operations: the pipeline logs whatever
    /// a shard had queued as one group (up to its queue capacity in
    /// sub-batches), so under load `n - 1` groups hold far more writes than
    /// `n - 1` sub-batches would.
    EveryN(u32),
}

/// Why a group could not be logged.
#[derive(Debug)]
pub enum WalError {
    /// The sink failed while logging this group. The shard's log is now
    /// fail-stopped; the group was not made durable and must not execute.
    Io(io::Error),
    /// The shard's log already fail-stopped on an earlier error.
    Failed,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal write failed: {e}"),
            WalError::Failed => write!(f, "wal already fail-stopped"),
        }
    }
}

impl std::error::Error for WalError {}

/// Receipt for one successfully logged group.
#[derive(Debug, Clone, Copy)]
pub struct GroupReceipt {
    /// The group sequence number the record carries.
    pub seq: u64,
    /// Framed record size in bytes.
    pub bytes: usize,
    /// Durability barriers issued while logging this group (0 or 1).
    pub fsyncs: u64,
}

/// Aggregate counters across all shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Records appended (one per logged group).
    pub appends: u64,
    /// Durability barriers issued.
    pub fsyncs: u64,
}

struct ShardWal {
    sink: Box<dyn WalSink>,
    /// Seq the *next* logged group will carry. Monotone across checkpoints.
    next_seq: u64,
    /// Groups appended since the last durability barrier.
    unsynced: u32,
    failed: bool,
    /// Encode scratch, reused across groups.
    buf: Vec<u8>,
}

impl ShardWal {
    fn barrier(&mut self) -> io::Result<()> {
        self.sink.sync()?;
        self.unsynced = 0;
        Ok(())
    }
}

/// The durability tier: one WAL per shard, group commit, checkpoints.
pub struct DurableLog {
    dir: PathBuf,
    shards: Vec<Mutex<ShardWal>>,
    policy: SyncPolicy,
    registry: Option<Arc<FailpointRegistry>>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
}

/// File name of the per-directory manifest recording the log layout.
pub const MANIFEST: &str = "MANIFEST";

pub(crate) fn wal_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.wal"))
}

fn write_manifest(dir: &Path, shards: usize) -> io::Result<()> {
    let body = format!("gre-wal v1\nshards {shards}\n");
    std::fs::write(dir.join(MANIFEST), body)
}

/// Parse the manifest in `dir`; returns the shard count. A count is only
/// believed when the directory backs it: [`DurableLog`] writes the manifest
/// after every shard file exists, so a count `n` whose `shard-{n-1}.wal` is
/// missing is corrupt (`InvalidData`), and no caller sizes anything from an
/// unbacked count.
pub(crate) fn read_manifest(dir: &Path) -> io::Result<usize> {
    let body = std::fs::read_to_string(dir.join(MANIFEST))?;
    let mut lines = body.lines();
    if lines.next() != Some("gre-wal v1") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unrecognized wal manifest header",
        ));
    }
    lines
        .next()
        .and_then(|l| l.strip_prefix("shards "))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n > 0 && wal_path(dir, n - 1).is_file())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad wal manifest shard count"))
}

impl DurableLog {
    /// Create (or re-open empty) per-shard logs under `dir` and write its
    /// manifest. For resuming after recovery, use
    /// [`Recovery::resume`](crate::Recovery::resume), which seeds sequence
    /// numbers past the recovered history and writes no manifest.
    pub fn create(dir: &Path, shards: usize, policy: SyncPolicy) -> io::Result<Arc<DurableLog>> {
        Self::build(dir, shards, policy, None, None)
    }

    /// As [`DurableLog::create`], but every sink is wrapped in a fault
    /// injector consulting `registry` at points `wal/{shard}/{op}` (and
    /// snapshots at `snapshot/{shard}/commit`).
    pub fn create_injected(
        dir: &Path,
        shards: usize,
        policy: SyncPolicy,
        registry: Arc<FailpointRegistry>,
    ) -> io::Result<Arc<DurableLog>> {
        Self::build(dir, shards, policy, Some(registry), None)
    }

    pub(crate) fn build(
        dir: &Path,
        shards: usize,
        policy: SyncPolicy,
        registry: Option<Arc<FailpointRegistry>>,
        next_seqs: Option<&[u64]>,
    ) -> io::Result<Arc<DurableLog>> {
        assert!(shards > 0, "a durable log needs at least one shard");
        if let SyncPolicy::EveryN(n) = policy {
            assert!(n > 0, "SyncPolicy::EveryN(0) would never sync");
        }
        std::fs::create_dir_all(dir)?;
        let mut shard_wals = Vec::with_capacity(shards);
        for shard in 0..shards {
            let file = FileSink::open(&wal_path(dir, shard))?;
            let sink: Box<dyn WalSink> = match &registry {
                Some(reg) => Box::new(InjectingSink::new(
                    file,
                    Arc::clone(reg),
                    format!("wal/{shard}"),
                )),
                None => Box::new(file),
            };
            shard_wals.push(Mutex::new(ShardWal {
                sink,
                next_seq: next_seqs.map_or(1, |s| s[shard]),
                unsynced: 0,
                failed: false,
                buf: Vec::new(),
            }));
        }
        // Only a fresh log writes the manifest. A resume (`next_seqs`) keeps
        // the one it was recovered from: rewriting it in place is a window
        // in which a crash leaves a manifest no later restart can read.
        if next_seqs.is_none() {
            write_manifest(dir, shards)?;
        }
        Ok(Arc::new(DurableLog {
            dir: dir.to_path_buf(),
            shards: shard_wals,
            policy,
            registry,
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }))
    }

    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    fn shard(&self, shard: usize) -> std::sync::MutexGuard<'_, ShardWal> {
        self.shards[shard].lock().expect("shard wal poisoned")
    }

    /// Log one group of write operations for `shard`. Must be called
    /// *before* the group executes in memory; an `Err` means the group was
    /// **not** made durable and must not execute (the shard's log is now
    /// fail-stopped).
    pub fn log_group(&self, shard: usize, ops: &[Request<u64>]) -> Result<GroupReceipt, WalError> {
        let mut wal = self.shard(shard);
        if wal.failed {
            return Err(WalError::Failed);
        }
        let seq = wal.next_seq;
        let mut buf = std::mem::take(&mut wal.buf);
        buf.clear();
        let bytes = crate::record::encode_record(seq, ops, &mut buf);
        let appended = wal.sink.append(&buf);
        wal.buf = buf;
        if let Err(e) = appended {
            wal.failed = true;
            return Err(WalError::Io(e));
        }
        wal.unsynced += 1;
        let must_sync = match self.policy {
            SyncPolicy::EveryGroup => true,
            SyncPolicy::EveryN(n) => wal.unsynced >= n,
        };
        let mut fsyncs = 0;
        if must_sync {
            if let Err(e) = wal.barrier() {
                wal.failed = true;
                return Err(WalError::Io(e));
            }
            fsyncs = 1;
        }
        wal.next_seq = seq + 1;
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.fsyncs.fetch_add(fsyncs, Ordering::Relaxed);
        Ok(GroupReceipt { seq, bytes, fsyncs })
    }

    /// Issue a durability barrier on every healthy shard (shutdown path and
    /// pre-checkpoint). Returns the first error; failed shards are skipped.
    pub fn sync_all(&self) -> Result<(), WalError> {
        let mut first_err = None;
        for shard in 0..self.shards.len() {
            let mut wal = self.shard(shard);
            if wal.failed {
                continue;
            }
            if wal.unsynced > 0 {
                if let Err(e) = wal.barrier() {
                    wal.failed = true;
                    if first_err.is_none() {
                        first_err = Some(WalError::Io(e));
                    }
                    continue;
                }
                self.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Snapshot `entries` as shard `shard`'s full state and truncate its
    /// WAL. The caller must guarantee the shard is **quiesced**: `entries`
    /// reflects exactly the state after the last logged group, and no group
    /// is logged concurrently. A crash between the snapshot rename and the
    /// WAL truncate leaves both on disk; recovery reconciles them by seq.
    pub fn checkpoint(&self, shard: usize, entries: &[(u64, u64)]) -> Result<(), WalError> {
        let mut wal = self.shard(shard);
        if wal.failed {
            return Err(WalError::Failed);
        }
        // Everything the snapshot covers must be durable before the rename
        // publishes a snapshot claiming to cover it.
        if wal.unsynced > 0 {
            if let Err(e) = wal.barrier() {
                wal.failed = true;
                return Err(WalError::Io(e));
            }
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        let last_seq = wal.next_seq - 1;
        if let Err(e) = snapshot::write_snapshot(
            &self.dir,
            shard,
            last_seq,
            entries,
            self.registry.as_deref(),
        ) {
            wal.failed = true;
            return Err(WalError::Io(e));
        }
        if let Err(e) = wal.sink.truncate() {
            wal.failed = true;
            return Err(WalError::Io(e));
        }
        Ok(())
    }

    /// Whether `shard`'s log has fail-stopped.
    pub fn is_failed(&self, shard: usize) -> bool {
        self.shard(shard).failed
    }

    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint::{FailAction, Trigger};
    use crate::record::decode_record;
    use crate::util::TempDir;

    fn ops(base: u64) -> Vec<Request<u64>> {
        vec![Request::Insert(base, base * 10), Request::Remove(base + 1)]
    }

    #[test]
    fn logged_groups_are_readable_framed_records() {
        let dir = TempDir::new("wal-basic");
        let log = DurableLog::create(dir.path(), 2, SyncPolicy::EveryGroup).unwrap();
        let r1 = log.log_group(0, &ops(1)).unwrap();
        let r2 = log.log_group(0, &ops(2)).unwrap();
        let other = log.log_group(1, &ops(9)).unwrap();
        assert_eq!((r1.seq, r2.seq), (1, 2), "per-shard monotone seqs");
        assert_eq!(other.seq, 1, "shards number independently");
        assert_eq!(r1.fsyncs, 1, "EveryGroup syncs each group");

        let bytes = std::fs::read(wal_path(dir.path(), 0)).unwrap();
        let first = decode_record(&bytes, 0).unwrap();
        assert_eq!((first.seq, first.ops.clone()), (1, ops(1)));
        let second = decode_record(&bytes, first.frame_len).unwrap();
        assert_eq!((second.seq, second.ops.clone()), (2, ops(2)));
        assert_eq!(first.frame_len + second.frame_len, bytes.len());

        let stats = log.stats();
        assert_eq!((stats.appends, stats.fsyncs), (3, 3));
    }

    #[test]
    fn every_n_amortizes_barriers() {
        let dir = TempDir::new("wal-everyn");
        let log = DurableLog::create(dir.path(), 1, SyncPolicy::EveryN(3)).unwrap();
        assert_eq!(log.log_group(0, &ops(1)).unwrap().fsyncs, 0);
        assert_eq!(log.log_group(0, &ops(2)).unwrap().fsyncs, 0);
        assert_eq!(log.log_group(0, &ops(3)).unwrap().fsyncs, 1);
        assert_eq!(log.log_group(0, &ops(4)).unwrap().fsyncs, 0);
        assert_eq!(log.stats().fsyncs, 1);
        log.sync_all().unwrap();
        assert_eq!(log.stats().fsyncs, 2);
        log.sync_all().unwrap();
        assert_eq!(log.stats().fsyncs, 2, "no pending bytes, no barrier");
    }

    #[test]
    fn sink_failure_fail_stops_the_shard_only() {
        let dir = TempDir::new("wal-failstop");
        let registry = FailpointRegistry::new();
        registry.script("wal/0/sync", Trigger::OnHit(2), FailAction::Crash);
        let log = DurableLog::create_injected(
            dir.path(),
            2,
            SyncPolicy::EveryGroup,
            Arc::clone(&registry),
        )
        .unwrap();
        log.log_group(0, &ops(1)).unwrap();
        assert!(matches!(log.log_group(0, &ops(2)), Err(WalError::Io(_))));
        assert!(log.is_failed(0));
        assert!(matches!(log.log_group(0, &ops(3)), Err(WalError::Failed)));
        // The sibling shard is unaffected.
        assert!(!log.is_failed(1));
        log.log_group(1, &ops(4)).unwrap();
        // Only the synced first group reached disk.
        let bytes = std::fs::read(wal_path(dir.path(), 0)).unwrap();
        let first = decode_record(&bytes, 0).unwrap();
        assert_eq!(first.seq, 1);
        assert_eq!(first.frame_len, bytes.len());
    }

    #[test]
    fn checkpoint_truncates_and_seqs_keep_counting() {
        let dir = TempDir::new("wal-checkpoint");
        let log = DurableLog::create(dir.path(), 1, SyncPolicy::EveryGroup).unwrap();
        log.log_group(0, &ops(1)).unwrap();
        log.log_group(0, &ops(2)).unwrap();
        log.checkpoint(0, &[(1, 10), (7, 70)]).unwrap();
        assert_eq!(
            std::fs::read(wal_path(dir.path(), 0)).unwrap().len(),
            0,
            "checkpoint truncates the wal"
        );
        let receipt = log.log_group(0, &ops(3)).unwrap();
        assert_eq!(receipt.seq, 3, "seq survives the checkpoint");
        let snap = snapshot::read_snapshot(&snapshot::snapshot_path(dir.path(), 0))
            .expect("snapshot readable");
        assert_eq!(snap.last_seq, 2);
        assert_eq!(snap.entries, vec![(1, 10), (7, 70)]);
    }

    #[test]
    fn manifest_round_trips() {
        let dir = TempDir::new("wal-manifest");
        let _ = DurableLog::create(dir.path(), 5, SyncPolicy::EveryGroup).unwrap();
        assert_eq!(read_manifest(dir.path()).unwrap(), 5);
        assert!(read_manifest(&dir.path().join("nope")).is_err());
    }
}
