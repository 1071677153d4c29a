//! # gre-core
//!
//! Core building blocks shared by every index implementation and by the GRE
//! benchmarking harness:
//!
//! * [`Key`] — the key abstraction (ordered, copyable, convertible to/from
//!   `f64` so linear models can be trained on it) and the 8-byte
//!   [`Payload`] every index stores beside it.
//! * [`index`] — the [`Index`] and [`ConcurrentIndex`] traits every
//!   evaluated index implements, mirroring the operation set of the GRE
//!   benchmark (bulk load, lookup, insert, remove, range scan, memory
//!   accounting), [`ModelIndex`], the `BTreeMap` reference index tests
//!   compare against, and [`index::MutexIndex`], which lifts any `Index`
//!   to `ConcurrentIndex`. It is the one public module.
//! * [`Partitioner`] — the one key-range router: a quantile cut fitted at
//!   bulk load, key → range lookup and the key-ordered walk a scan takes
//!   across ranges.
//! * [`Partitioned`] — the one partition-lock adapter every concurrent
//!   derivative of a single-threaded index (ALEX+, LIPP+, B+tree/p64,
//!   ART/p64, HOT/p64, Masstree, Wormhole) runs on.
//! * [`OpCounters`] and [`StatsSnapshot`] — per-operation statistics used
//!   to reproduce the paper's insert-time breakdown (Figure 3) and
//!   per-insert counters (Table 3).
//! * [`Request`]/[`Response`] — the canonical typed request/response
//!   vocabulary spoken by the workload generators and the serving layers,
//!   with per-operation capability gating ([`IndexError`]), and [`Tally`],
//!   the one definition of what a run of responses came to.
//! * [`LatencyHistogram`] and [`KindLatency`] — kind-indexed log-linear
//!   latency histograms used by the scenario driver for
//!   coordinated-omission-safe tail reporting.
//! * [`encode_requests`]/[`decode_requests`] — the stable byte encoding of
//!   [`Request`] used by the `gre-durability` write-ahead log.
//! * [`JsonWriter`] — the one JSON emitter every report in the workspace
//!   is written through.
//! * [`prefetch_read`] and [`prefetch_slice`] — the best-effort cache-line
//!   prefetch ALEX and the B+-tree issue before a search.

pub mod index;
mod json;
mod key;
mod latency;
mod ops;
mod partition;
mod partitioned;
mod prefetch;
mod stats;
mod wire;

pub use index::{ConcurrentIndex, Index, IndexMeta, ModelIndex, RangeSpec};
pub use json::JsonWriter;
pub use key::{Key, Payload};
pub use latency::{bucket_index, bucket_span, KindLatency, LatencyHistogram, BUCKET_COUNT};
pub use ops::{IndexError, Request, RequestKind, Response, Tally};
pub use partition::Partitioner;
pub use partitioned::{Partitionable, Partitioned, Probe, BATCH_WIDTH};
pub use prefetch::{prefetch_read, prefetch_slice};
pub use stats::{OpCounters, StatsSnapshot};
pub use wire::{decode_requests, encode_requests};
