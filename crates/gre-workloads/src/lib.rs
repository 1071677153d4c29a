//! # gre-workloads
//!
//! Workload description and execution, mirroring §3.3 of the paper and
//! extending it into a typed scenario engine:
//!
//! * [`spec`] — the operation vocabulary and the write-ratio axis.
//! * [`generate`] — builders that turn a dataset into the paper's workloads
//!   (read-only … write-only, deletion mixes, range scans, YCSB,
//!   distribution shift), each a one-phase replay [`Scenario`]: the
//!   bulk-load set plus the materialized request stream.
//! * [`scenario`] — typed scenario descriptions: named phases, each an op
//!   [`Mix`] over a [`KeyDist`] with a
//!   [`Span`] and [`Pacing`] (closed loop
//!   or open loop at a fixed rate), generated lazily per thread through the
//!   seeded, allocation-free [`OpStream`].
//! * [`driver`] — the [`Driver`] executes a scenario
//!   against any [`ServeTarget`] (bare backends here; the pipeline target
//!   in `gre-shard`) or, in place, against a single-threaded index, recording
//!   per-phase, per-kind latency histograms measured from intended send
//!   time (coordinated-omission-safe under open loop) plus an interval
//!   throughput series.
//! * [`zipf`] — the Zipfian request-key sampler used by the YCSB workloads.
//! * [`batch`] — per-shard splitting of op streams for partitioned serving
//!   layers (the `gre-shard` crate's batched request pipeline).

pub mod batch;
pub mod driver;
pub mod generate;
pub mod scenario;
pub mod spec;
pub mod zipf;

pub use batch::{route_key, split_indexed_ops_by_shard, split_ops_by_shard};
pub use driver::{
    Connection, Driver, LatencySummary, PhaseRecorder, PhaseResult, ScenarioResult, ServeTarget,
    Tally, LATENCY_SAMPLE_RATE,
};
pub use generate::WorkloadBuilder;
pub use scenario::{KeyDist, Mix, OpSource, OpStream, Pacing, Phase, Scenario, Span};
pub use spec::{Op, OpKind, WriteRatio};
