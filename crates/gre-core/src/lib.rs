//! # gre-core
//!
//! Core building blocks shared by every index implementation and by the GRE
//! benchmarking harness:
//!
//! * [`key`] — the [`key::Key`] abstraction (ordered, copyable, convertible
//!   to/from `f64` so linear models can be trained on it) and the canonical
//!   `(key, payload)` entry type.
//! * [`index`] — the [`index::Index`] and
//!   [`index::ConcurrentIndex`] traits every evaluated index
//!   implements, mirroring the operation set of the GRE benchmark
//!   (bulk load, lookup, insert, remove, range scan, memory accounting),
//!   and [`index::ModelIndex`], the `BTreeMap` reference index tests
//!   compare against.
//! * [`partitioned`] — [`partitioned::Partitioned`], the one partition-lock
//!   adapter every concurrent derivative of a single-threaded index (ALEX+,
//!   LIPP+, B+tree/p64, ART/p64, HOT/p64, Masstree, Wormhole) runs on.
//! * [`stats`] — per-operation statistics used to reproduce the paper's
//!   insert-time breakdown (Figure 3) and per-insert counters (Table 3).
//! * [`ops`] — the canonical typed request/response vocabulary
//!   ([`ops::Request`]/[`ops::Response`]) spoken by the
//!   workload generators and the serving layers, with per-operation
//!   capability gating ([`ops::IndexError`]).
//! * [`latency`] — kind-indexed log-linear latency histograms
//!   ([`latency::LatencyHistogram`], [`latency::KindLatency`]) used by the
//!   scenario driver for coordinated-omission-safe tail reporting.
//! * [`wire`] — the stable byte encoding of [`ops::Request`] used by the
//!   `gre-durability` write-ahead log.
//! * [`json`] — [`json::JsonWriter`], the one JSON emitter every report in
//!   the workspace is written through.

pub mod index;
pub mod json;
pub mod key;
pub mod latency;
pub mod ops;
pub mod partitioned;
pub mod stats;
pub mod wire;

pub use index::{ConcurrentIndex, Index, IndexMeta, ModelIndex, RangeSpec};
pub use key::{Entry, Key, Payload};
pub use latency::{KindLatency, LatencyHistogram};
pub use ops::{IndexError, Request, RequestKind, Response};
pub use partitioned::{Partitionable, Partitioned, Probe, BATCH_WIDTH};
pub use stats::{InsertBreakdown, OpCounters, StatsSnapshot};
