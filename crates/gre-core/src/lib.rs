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
//! * [`elastic`] — the shared vocabulary of the online elasticity protocol
//!   (typed [`elastic::ElasticError`], committed [`elastic::BoundaryChange`]
//!   events) spoken between `gre-shard`'s mechanism and `gre-elastic`'s
//!   policy layer.
//! * [`replica`] — the shared vocabulary of the replication tier
//!   (per-shard applied-sequence [`replica::Watermark`]s, the
//!   [`replica::ReadPolicy`] for read placement) spoken between
//!   `gre-replica`'s mechanism and the serving/benchmark layers.
//! * [`json`] — [`json::JsonWriter`], the one JSON emitter every report in
//!   the workspace is written through.
//! * [`error`] — the shared error type.

pub mod elastic;
pub mod error;
pub mod index;
pub mod json;
pub mod key;
pub mod latency;
pub mod ops;
pub mod partitioned;
pub mod replica;
pub mod stats;
pub mod wire;

pub use elastic::{BoundaryChange, ElasticError, TopologyKind};
pub use error::{GreError, Result};
pub use index::{ConcurrentIndex, Index, IndexMeta, ModelIndex, RangeSpec};
pub use key::{Entry, Key, Payload};
pub use latency::{KindLatency, LatencyHistogram};
pub use ops::{IndexError, Request, RequestKind, Response};
pub use partitioned::{Partitionable, Partitioned};
pub use replica::{ReadPolicy, Watermark};
pub use stats::{InsertBreakdown, OpCounters, StatsSnapshot};
