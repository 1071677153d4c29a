//! # gre-workloads
//!
//! Workload description and execution, mirroring §3.3 of the paper and
//! extending it into a typed scenario engine:
//!
//! * The operation vocabulary ([`Op`], [`payload_for`]) and the
//!   write-ratio axis ([`WriteRatio`]).
//! * [`WorkloadBuilder`] — turns a dataset into the paper's workloads
//!   (read-only … write-only, deletion mixes, range scans, YCSB,
//!   distribution shift), each a one-phase replay [`Scenario`]: the
//!   bulk-load set plus the materialized request stream.
//! * Typed scenario descriptions: named [`Phase`]s, each an op [`Mix`]
//!   over a [`KeyDist`] run for an op count by a number of closed-loop
//!   clients, generated lazily per thread through the seeded,
//!   allocation-free [`OpStream`] ([`phase_stream`]).
//! * [`Driver`] — executes a scenario against any `ConcurrentIndex`, one
//!   thread per client, or in place against a single-threaded `Index`,
//!   recording per-phase typed-response counters (`gre_core::Tally`) and
//!   per-kind latency histograms.
//! * The Zipfian request-key sampler used by the YCSB workloads.

mod driver;
mod generate;
mod scenario;
mod spec;
mod zipf;

pub use driver::{Driver, LatencySummary, PhaseResult};
pub use generate::{WorkloadBuilder, YcsbVariant};
pub use scenario::{phase_stream, KeyDist, Mix, OpStream, Phase, Scenario};
pub use spec::{payload_for, Op, WriteRatio};
