//! # gre-shard
//!
//! A range-partitioned concurrent serving layer over any GRE index backend.
//!
//! The paper's multi-thread experiments (Figures 4–6) show every updatable
//! learned index hitting a scalability wall from structure-modification
//! contention: past some thread count, one structure's internal
//! synchronization — however fine-grained — serializes writers. This crate
//! sits *above* the [`ConcurrentIndex`](gre_core::ConcurrentIndex) trait and
//! scales horizontally instead: partition the key space into `N` shards,
//! give each shard its own backend instance (learned or traditional), and
//! contention drops by construction because unrelated keys never touch the
//! same structure.
//!
//! The `key -> shard` map is [`Partitioner`], gre-core's key-range router
//! (re-exported here): [`Partitioner::range`] places boundaries, at bulk
//! load, at the quantiles of the loaded keys, so shards spread evenly under
//! key-distribution skew and stay ordered for sequential cross-shard scans.
//! Two pieces build on it:
//!
//! * [`ShardedIndex`], the composite store. It implements
//!   `ConcurrentIndex` itself, so every existing harness entry point
//!   (`Driver::run`, figure binaries, examples) serves a sharded variant
//!   unchanged; `range()` stitches cross-shard scans in key order and
//!   `len`/`memory_usage`/`stats`/`meta` report merged values.
//! * [`ShardPipeline`], the batched request path:
//!   [`OpBatch`]es are split into per-shard sub-batches (amortizing routing
//!   over many ops) and executed on a fixed worker pool with per-shard FIFO
//!   order. Every operation is answered with a typed
//!   [`Response`](gre_core::Response) delivered through a non-blocking
//!   [`SubmitHandle`]; [`Session`] pipelines many in-flight batches per
//!   client with FIFO completion, and bounded shard queues reject overload
//!   with [`Backpressure`] instead of queueing without limit.
//!
//! The pipeline can carry a [`Telemetry`](gre_telemetry::Telemetry)
//! registry ([`ShardPipeline::with_services`]): per-shard queue/in-flight
//! gauges, sub-batch histograms, outcome counters mirroring a client's
//! tally of its responses, and 1-in-N sampled request spans. The
//! uninstrumented path records nothing and reads no clocks.
//!
//! Durability attaches the same way: an optional per-shard write-ahead log
//! ([`gre_durability::DurableLog`], opened over a fresh or restarted store
//! by [`ShardedIndex::load_durable`] and passed to
//! [`ShardPipeline::with_services`]) group-commits the writes of whatever a
//! shard has queued — one record, one barrier — before any of it executes,
//! with fail-stop refusal
//! ([`gre_core::IndexError::Shutdown`]) when the log cannot accept a group.
//! A client facing the bounded queues either blocks
//! ([`ShardPipeline::submit`]) or takes the [`Backpressure`] and decides
//! ([`ShardPipeline::try_submit`]).

mod pipeline;
mod sharded;

pub use gre_core::Partitioner;
pub use pipeline::{
    Backpressure, OpBatch, Session, ShardPipeline, SubmitHandle, DEFAULT_QUEUE_CAPACITY,
};
pub use sharded::ShardedIndex;
