//! # gre-durability
//!
//! The durability tier for the GRE serving stack: per-shard write-ahead
//! logs with group commit, CRC-framed records, periodic snapshots,
//! deterministic fault injection, and crash recovery.
//!
//! * [`record`] — the on-disk record frame: length-prefixed,
//!   CRC-32C-checksummed groups of wire-encoded operations.
//! * [`storage`] — the [`storage::WalSink`] byte-sink abstraction
//!   (append / sync-barrier / truncate) with the production
//!   [`storage::FileSink`] and an in-memory test sink.
//! * [`failpoint`] — scripted failure injection: a
//!   [`failpoint::FailpointRegistry`] of named triggers and an
//!   [`failpoint::InjectingSink`] that turns them into deterministic
//!   errors, short writes, and crashes.
//! * [`wal`] — [`wal::DurableLog`]: one log per shard, one record per
//!   group (whatever the pipeline had queued for the shard), log-then-execute
//!   fail-stop semantics, checkpoints.
//! * [`snapshot`] — CRC-trailed, atomically renamed per-shard snapshots.
//! * [`recover`] — [`recover::Recovery`]: scan, classify how each shard's
//!   history ends (clean / torn / corrupt / sequence break), replay into
//!   any [`gre_core::ConcurrentIndex`] backend, and resume logging.
//! * [`follow`] — [`follow::LogFollower`]: tail a live log as a shipping
//!   stream, starting after each shard's snapshot and re-using the same
//!   record decode and torn-tail discipline as recovery.
//!
//! The serving pipeline (`gre-shard`) consumes this crate the same way it
//! consumes telemetry: an optional `Arc<DurableLog>` attached at
//! construction, zero-cost when detached. See `docs/DURABILITY.md` for the
//! record format, the group-commit protocol, and the crash matrix the tests
//! cover.

pub mod failpoint;
pub mod follow;
pub mod record;
pub mod recover;
pub mod snapshot;
pub mod storage;
pub mod util;
pub mod wal;

pub use failpoint::{FailAction, FailpointRegistry, InjectingSink, Trigger};
pub use follow::LogFollower;
pub use record::{decode_record, encode_record, Record, RecordError, MAX_RECORD_LEN};
pub use recover::{Recovery, ShardRecovery, StopReason};
pub use snapshot::{read_snapshot, snapshot_path, write_snapshot, Snapshot};
pub use storage::{FileSink, MemSink, WalSink};
pub use wal::{DurableLog, GroupReceipt, SyncPolicy, WalError, WalStats, MANIFEST};
