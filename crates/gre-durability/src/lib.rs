//! # gre-durability
//!
//! The durability tier for the GRE serving stack: per-shard write-ahead
//! logs with group commit, CRC-framed records, periodic snapshots,
//! deterministic fault injection, and crash recovery.
//!
//! * [`Record`] — the on-disk record frame: length-prefixed,
//!   CRC-32C-checksummed groups of wire-encoded operations
//!   ([`decode_record`]).
//! * A byte-sink abstraction (append / sync-barrier / truncate) under the
//!   log, with the production file sink and an in-memory test sink.
//! * Scripted failure injection: a [`FailpointRegistry`] of named
//!   [`Trigger`]s whose [`FailAction`]s a sink wrapper turns into
//!   deterministic errors, short writes, and crashes.
//! * [`DurableLog`]: one log per shard, one record per
//!   group (whatever the pipeline had queued for the shard), log-then-execute
//!   fail-stop semantics, checkpoints.
//! * CRC-trailed, atomically renamed per-shard snapshots.
//! * [`Recovery`]: scan, classify how each shard's history ends (clean /
//!   torn / corrupt / sequence break; a gap after the snapshot is an
//!   error), replay into any [`gre_core::ConcurrentIndex`] backend, and
//!   resume logging without rewriting the manifest.
//! * [`LogFollower`]: tail a live log as a shipping stream, through the
//!   same record walk, sequence rule and torn-tail discipline as recovery.
//!
//! The serving pipeline (`gre-shard`) consumes this crate the same way it
//! consumes telemetry: an optional `Arc<DurableLog>` attached at
//! construction, zero-cost when detached. See `docs/DURABILITY.md` for the
//! record format, the group-commit protocol, and the crash matrix the tests
//! cover.

mod failpoint;
mod follow;
mod record;
mod recover;
mod snapshot;
mod storage;
mod util;
mod wal;

pub use failpoint::{FailAction, FailpointRegistry, Trigger};
pub use follow::LogFollower;
pub use record::{decode_record, Record, RecordError};
pub use recover::{Recovery, StopReason};
pub use util::TempDir;
pub use wal::{DurableLog, GroupReceipt, SyncPolicy, WalError, MANIFEST};
