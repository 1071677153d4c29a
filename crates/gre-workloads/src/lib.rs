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
//!   [`Mix`](scenario::Mix) over a [`KeyDist`](scenario::KeyDist) run for
//!   an op count by a number of closed-loop clients, generated lazily per
//!   thread through the seeded, allocation-free
//!   [`OpStream`](scenario::OpStream).
//! * [`driver`] — the [`Driver`] executes a scenario against any
//!   `ConcurrentIndex`, one thread per client, or in place against a
//!   single-threaded `Index`, recording per-phase typed-response counters
//!   and per-kind latency histograms.
//! * `zipf` — the Zipfian request-key sampler used by the YCSB workloads.

pub mod driver;
pub mod generate;
pub mod scenario;
pub mod spec;
mod zipf;

pub use driver::{Driver, LatencySummary, PhaseResult, Tally};
pub use generate::WorkloadBuilder;
pub use scenario::Scenario;
pub use spec::{Op, WriteRatio};
