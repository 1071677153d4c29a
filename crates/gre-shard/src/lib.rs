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
//! Three pieces:
//!
//! * [`partition`] — the `key -> shard` maps: [`Partitioner::range`]
//!   places boundaries, at bulk load, at the quantiles of a sampled key CDF (even spread
//!   under key-distribution skew, ordered shards for sequential cross-shard
//!   scans); [`Partitioner::hash`] scatters hot contiguous regions across
//!   all shards (access-skew resistance, at the cost of fan-out scans).
//! * [`sharded`] — [`ShardedIndex`], the composite store. It implements
//!   `ConcurrentIndex` itself, so every existing harness entry point
//!   (`Driver::run`, figure binaries, examples) serves a sharded variant
//!   unchanged; `range()` stitches cross-shard scans in key order and
//!   `len`/`memory_usage`/`stats`/`meta` report merged values.
//! * [`pipeline`] — [`ShardPipeline`], the batched request path:
//!   [`OpBatch`]es are split into per-shard sub-batches (amortizing routing
//!   over many ops) and executed on a fixed worker pool with per-shard FIFO
//!   order. Every operation is answered with a typed
//!   [`Response`](gre_core::Response) delivered through a non-blocking
//!   [`SubmitHandle`]; [`Session`] pipelines many in-flight batches per
//!   client with FIFO completion, and bounded shard queues reject overload
//!   with [`Backpressure`] instead of queueing without limit.
//! * [`serve`] — [`PipelineTarget`], the scenario-driver adapter that plugs
//!   the batched client path into the `gre-workloads` scenario
//!   [`Driver`](gre_workloads::Driver) as a
//!   [`ServeTarget`](gre_workloads::ServeTarget), next to the blanket
//!   bare-backend target: each driver thread submits through its own
//!   [`Session`] with a configured in-flight window (`0` = submit-then-wait).
//!
//! The pipeline and the serve target can carry a
//! [`Telemetry`](gre_telemetry::Telemetry) registry
//! ([`ShardPipeline::with_services`], `PipelineTarget::instrumented`):
//! per-shard queue/in-flight gauges, sub-batch histograms, outcome counters
//! mirroring the driver's tally, and 1-in-N sampled request spans. The
//! uninstrumented path records nothing and reads no clocks.
//!
//! Durability attaches the same way: an optional per-shard write-ahead log
//! ([`gre_durability::DurableLog`], via [`ShardPipeline::with_services`]
//! or `PipelineTarget::durable`) group-commits the writes of whatever a
//! shard has queued — one record, one barrier — before any of it executes,
//! with fail-stop refusal
//! ([`gre_core::IndexError::Shutdown`]) when the log cannot accept a group.
//! A client facing the bounded queues either blocks
//! ([`ShardPipeline::submit`]) or takes the [`Backpressure`] and decides
//! ([`ShardPipeline::try_submit`]).

pub mod partition;
pub mod pipeline;
pub mod serve;
pub mod sharded;

pub use partition::{HashPartitioner, Partitioner, RangePartitioner};
pub use pipeline::{
    Backpressure, BackpressureReason, OpBatch, Session, ShardPipeline, SubmitHandle,
    DEFAULT_MAX_INFLIGHT, DEFAULT_QUEUE_CAPACITY,
};
pub use serve::{reconcile_tally, PipelineTarget, DEFAULT_DRIVER_BATCH};
pub use sharded::ShardedIndex;
