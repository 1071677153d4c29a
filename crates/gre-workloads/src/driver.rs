//! The scenario driver: executes a [`Scenario`] against an index.
//!
//! The driver separates three concerns:
//!
//! * **What** is offered — the scenario's phase script (see
//!   [`scenario`](crate::scenario)).
//! * **Where** it is served — any [`ConcurrentIndex`] (including the
//!   sharded composite), which [`Driver::run`] calls from one thread per
//!   client, or a single-threaded [`Index`], which
//!   [`Driver::run_in_place`] drives with one client on the calling thread.
//! * **How** it is measured — per-phase typed-response counters and
//!   per-[`RequestKind`] latency histograms. Each phase runs its op budget
//!   over closed-loop clients: a client issues its next op as soon as the
//!   previous one answered. A sampled op is timed from its issue to its
//!   answer.
//!
//! Driving a scenario against a concurrent index, then the same traffic
//! with one client in place on a single-threaded index:
//!
//! ```
//! use gre_core::index::MutexIndex;
//! use gre_core::ModelIndex;
//! use gre_workloads::scenario::{KeyDist, Mix, Phase, Scenario};
//! use gre_workloads::Driver;
//!
//! let keys: Vec<u64> = (1..=1_000u64).map(|i| i * 4).collect();
//! let scenario = Scenario::new("driver-doc", 42, &keys).phase(Phase::new(
//!     "reads",
//!     Mix::read_only(),
//!     KeyDist::Zipf { theta: 0.99 },
//!     2_000, // ops
//!     2,     // clients
//! ));
//!
//! // `MutexIndex` lifts any `Index` to `ConcurrentIndex`.
//! let mut index = MutexIndex::new(ModelIndex::default(), "model");
//! let result = Driver::new().run(&scenario, &mut index);
//!
//! let phase = &result.phases[0];
//! assert_eq!(phase.ops(), 2_000);
//! assert_eq!(phase.tally.hits, 2_000); // read-only over loaded keys
//! println!("{}: {:.2} Mop/s", phase.phase, phase.throughput_mops());
//!
//! let one_client = scenario.closed_loop(1);
//! let result = Driver::new().run_in_place(&one_client, &mut ModelIndex::default());
//! assert_eq!(result.phases[0].tally.hits, 2_000);
//! ```

use crate::scenario::{phase_stream, OpStream, Phase, Scenario};
use crate::spec::Op;
use gre_core::ops::RequestKind;
use gre_core::{ConcurrentIndex, Index, KindLatency, LatencyHistogram, Response};
use std::sync::Arc;
use std::time::Instant;

/// Fraction of operations whose latency is sampled: one in every N ops
/// (§6.1 samples to keep measurement overhead negligible). An odd prime
/// stride avoids aliasing with the read/write interleaving pattern of the
/// generated request streams.
const LATENCY_SAMPLE_RATE: usize = 101;

/// Summary statistics over a set of sampled latencies (nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    pub samples: usize,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
    pub std_ns: f64,
}

impl LatencySummary {
    /// Build a summary from a recorded histogram (percentiles carry the
    /// histogram's ~3% bucket resolution, max is exact).
    fn from_histogram(hist: &LatencyHistogram) -> Self {
        if hist.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            samples: hist.count() as usize,
            p50_ns: hist.percentile(0.50),
            p99_ns: hist.percentile(0.99),
            p999_ns: hist.percentile(0.999),
            max_ns: hist.max(),
            std_ns: hist.std_dev(),
        }
    }
}

/// Typed-response counters accumulated over a phase, or over one batch's
/// responses ([`Tally::of`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Completed operations.
    pub ops: u64,
    /// Lookups that found their key.
    pub hits: u64,
    /// Inserts that created a new key.
    pub new_keys: u64,
    /// Updates that found their key.
    pub updated: u64,
    /// Removes that found their key.
    pub removed: u64,
    /// Keys returned by range scans.
    pub scanned_keys: u64,
    /// Operations rejected as unsupported by the index.
    pub errors: u64,
}

impl Tally {
    /// Record one typed response.
    #[inline]
    fn record(&mut self, response: &Response<u64>) {
        self.ops += 1;
        match response {
            Response::Get(found) => self.hits += u64::from(found.is_some()),
            Response::Insert(new) => self.new_keys += u64::from(*new),
            Response::Update(hit) => self.updated += u64::from(*hit),
            Response::Remove(removed) => self.removed += u64::from(removed.is_some()),
            Response::Range(entries) => self.scanned_keys += entries.len() as u64,
            Response::Error(_) => self.errors += 1,
        }
    }

    /// The counters of a slice of responses, e.g. one executed batch.
    pub fn of(responses: &[Response<u64>]) -> Tally {
        let mut tally = Tally::default();
        for response in responses {
            tally.record(response);
        }
        tally
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &Tally) {
        self.ops += other.ops;
        self.hits += other.hits;
        self.new_keys += other.new_keys;
        self.updated += other.updated;
        self.removed += other.removed;
        self.scanned_keys += other.scanned_keys;
        self.errors += other.errors;
    }
}

/// Per-thread measurement sink for one phase: kind-indexed latency
/// histograms of the timed completions and typed-response counters of all
/// of them.
#[derive(Default)]
struct PhaseRecorder {
    /// Latency of each timed completion, from its issue.
    latency: KindLatency,
    /// Counters over every completion.
    tally: Tally,
}

impl PhaseRecorder {
    /// Record one completion, timed when `issued` is its issue time.
    #[inline]
    fn complete(&mut self, kind: RequestKind, issued: Option<Instant>, response: &Response<u64>) {
        if let Some(t0) = issued {
            self.latency.record(kind, t0.elapsed().as_nanos() as u64);
        }
        self.tally.record(response);
    }
}

/// Executes scenarios against indexes.
///
/// Construction is builder-style; by default 1 op in
/// `LATENCY_SAMPLE_RATE` (101) is timed.
#[derive(Debug, Clone)]
pub struct Driver {
    sample_stride: usize,
}

impl Default for Driver {
    fn default() -> Self {
        Driver {
            sample_stride: LATENCY_SAMPLE_RATE,
        }
    }
}

impl Driver {
    pub fn new() -> Driver {
        Driver::default()
    }

    /// Latency sampling stride (1 = time every op).
    pub fn sample_stride(mut self, stride: usize) -> Driver {
        self.sample_stride = stride.max(1);
        self
    }

    /// Execute `scenario` against `index`: bulk load, then run each phase
    /// in script order, every client calling the index from its own thread.
    pub fn run<I: ConcurrentIndex<u64> + ?Sized>(
        &self,
        scenario: &Scenario,
        index: &mut I,
    ) -> ScenarioResult {
        let keys = Arc::new(scenario.loaded_keys());
        index.bulk_load(&scenario.bulk);
        let phases = scenario
            .phases
            .iter()
            .enumerate()
            .map(|(pi, phase)| self.run_phase(scenario, &keys, pi, phase, &*index))
            .collect();
        ScenarioResult {
            scenario: scenario.name.clone(),
            target: index.meta().name.to_string(),
            phases,
        }
    }

    /// Execute `scenario` with one client on the calling thread, directly
    /// against a single-threaded `index`: bulk load, then each phase in
    /// script order, with the same streams and measurement as
    /// [`Driver::run`].
    ///
    /// # Panics
    ///
    /// On a phase that asks for more than one client.
    pub fn run_in_place<I: Index<u64> + ?Sized>(
        &self,
        scenario: &Scenario,
        index: &mut I,
    ) -> ScenarioResult {
        // Copied before the load, so the freshly loaded index is what the
        // cache holds when the first phase starts.
        let keys = Arc::new(scenario.loaded_keys());
        index.bulk_load(&scenario.bulk);
        let meta = index.meta();
        let mut phases = Vec::with_capacity(scenario.phases.len());
        for (pi, phase) in scenario.phases.iter().enumerate() {
            let clients = phase.threads.max(1);
            assert_eq!(
                clients, 1,
                "run_in_place drives one client; phase `{}` asks for {clients}",
                phase.name
            );
            // Setup happens before the phase clock starts: a short phase
            // must not be charged for building its stream and recorder.
            let mut stream = phase_stream(scenario, &keys, pi, phase, 0, 1);
            let mut rec = PhaseRecorder::default();
            // Scans fill one reused buffer, clipped to their key window, so
            // a scan costs what the index's `range` costs rather than a
            // fresh `Vec` regrown as it fills; point ops (and scans the
            // index cannot serve) go through `Request::execute_mut`.
            let mut scan = Vec::new();
            let start = Instant::now();
            self.drive(phase.ops, stream.as_mut(), |op, issued| {
                let response = match op {
                    Op::Range(spec) if meta.supports_range => {
                        let mut buf = std::mem::take(&mut scan);
                        buf.clear();
                        index.range(spec, &mut buf);
                        spec.clip(&mut buf);
                        Response::Range(buf)
                    }
                    _ => op.execute_mut(&mut *index, &meta),
                };
                rec.complete(op.kind(), issued, &response);
                if let Response::Range(buf) = response {
                    scan = buf;
                }
            });
            let elapsed_ns = start.elapsed().as_nanos() as u64;
            phases.push(phase_result(phase, elapsed_ns, [rec]));
        }
        ScenarioResult {
            scenario: scenario.name.clone(),
            target: meta.name.to_string(),
            phases,
        }
    }

    fn run_phase<I: ConcurrentIndex<u64> + ?Sized>(
        &self,
        scenario: &Scenario,
        keys: &Arc<Vec<u64>>,
        phase_idx: usize,
        phase: &Phase,
        index: &I,
    ) -> PhaseResult {
        let threads = phase.threads.max(1);
        let meta = index.meta();
        let meta = &meta;
        let start = Instant::now();
        let recorders: Vec<PhaseRecorder> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mut stream = phase_stream(scenario, keys, phase_idx, phase, t, threads);
                        let mut rec = PhaseRecorder::default();
                        // An even split of the op budget, the first
                        // `ops % threads` clients one op more: the split
                        // `ReplayStream::chunk` uses.
                        let extra = u64::from((t as u64) < phase.ops % threads as u64);
                        let budget = phase.ops / threads as u64 + extra;
                        self.drive(budget, stream.as_mut(), |op, issued| {
                            let response = op.execute(index, meta);
                            rec.complete(op.kind(), issued, &response);
                        });
                        rec
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked"))
                .collect()
        });
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        phase_result(phase, elapsed_ns, recorders)
    }

    /// Hand `budget` ops of `stream` to `serve` one after another, with
    /// the issue time of one in `sample_stride`.
    fn drive(
        &self,
        budget: u64,
        stream: &mut dyn OpStream,
        mut serve: impl FnMut(Op, Option<Instant>),
    ) {
        let stride = self.sample_stride as u64;
        for i in 0..budget {
            let Some(op) = stream.next_op() else { break };
            let issued = (i % stride == 0).then(Instant::now);
            serve(op, issued);
        }
    }
}

/// Merge the clients' recorders of one finished phase.
fn phase_result(
    phase: &Phase,
    elapsed_ns: u64,
    recorders: impl IntoIterator<Item = PhaseRecorder>,
) -> PhaseResult {
    let mut latency = KindLatency::new();
    let mut tally = Tally::default();
    for rec in recorders {
        latency.merge(&rec.latency);
        tally.merge(&rec.tally);
    }
    PhaseResult {
        phase: phase.name.clone(),
        elapsed_ns,
        tally,
        latency,
    }
}

/// Measurements of one executed phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    pub phase: String,
    /// Wall-clock time of the phase including the final drain, ns.
    pub(crate) elapsed_ns: u64,
    /// Typed-response counters over every completed op.
    pub tally: Tally,
    /// Kind-indexed latency histograms, each op timed from its issue.
    pub(crate) latency: KindLatency,
}

impl PhaseResult {
    /// Completed operations.
    pub fn ops(&self) -> u64 {
        self.tally.ops
    }

    /// Throughput in million completed ops per second.
    pub fn throughput_mops(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.tally.ops as f64 / (self.elapsed_ns as f64 / 1e9) / 1e6
    }

    /// Latency summary of one request kind.
    pub fn kind_summary(&self, kind: RequestKind) -> LatencySummary {
        LatencySummary::from_histogram(self.latency.get(kind))
    }

    /// Keys returned by range scans per second, in millions (the paper
    /// reports scans as M keys/s).
    pub fn scan_throughput_mkeys(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.tally.scanned_keys as f64 / (self.elapsed_ns as f64 / 1e9) / 1e6
    }

    /// Merged read-side (get + range) latency summary.
    pub fn read_summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(
            &self.latency.merged(&[RequestKind::Get, RequestKind::Range]),
        )
    }

    /// Merged write-side (insert + update + remove) latency summary.
    pub fn write_summary(&self) -> LatencySummary {
        LatencySummary::from_histogram(&self.latency.merged(&[
            RequestKind::Insert,
            RequestKind::Update,
            RequestKind::Remove,
        ]))
    }
}

/// Measurements of one full scenario run against one target.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    pub scenario: String,
    pub target: String,
    pub phases: Vec<PhaseResult>,
}

impl ScenarioResult {
    /// Total completed operations across all phases.
    pub fn total_ops(&self) -> u64 {
        self.phases.iter().map(|p| p.tally.ops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::WorkloadBuilder;
    use crate::scenario::{KeyDist, Mix};
    use crate::spec::WriteRatio;
    use gre_core::index::MutexIndex;
    use gre_core::ModelIndex;

    fn keys(n: u64) -> Vec<u64> {
        (1..=n).map(|i| i * 13).collect()
    }

    #[test]
    fn closed_loop_scenario_runs_to_the_op_budget() {
        let scenario = Scenario::new("t", 1, &keys(2_000)).phase(Phase::new(
            "p0",
            Mix::read_only(),
            KeyDist::Uniform,
            5_000,
            3,
        ));
        let mut index = MutexIndex::new(ModelIndex::default(), "model-mutex");
        let result = Driver::new().sample_stride(7).run(&scenario, &mut index);
        assert_eq!(result.target, "model-mutex");
        assert_eq!(result.phases.len(), 1);
        let p = &result.phases[0];
        assert_eq!(p.ops(), 5_000);
        assert_eq!(p.tally.hits, 5_000, "read-only over loaded keys all hit");
        assert!(p.throughput_mops() > 0.0);
        assert!(p.latency.get(RequestKind::Get).count() > 0);
        assert_eq!(p.latency.get(RequestKind::Insert).count(), 0);
        assert!(p.read_summary().samples > 0);
        assert_eq!(result.total_ops(), 5_000);
    }

    #[test]
    fn mixed_phase_tallies_typed_outcomes() {
        let scenario = Scenario::new("t", 2, &keys(2_000)).phase(Phase::new(
            "mixed",
            Mix::points(2, 1, 1, 0).with_range(1, 10),
            KeyDist::Uniform,
            4_000,
            2,
        ));
        let mut index = MutexIndex::new(ModelIndex::default(), "model-mutex");
        let result = Driver::new().run(&scenario, &mut index);
        let p = &result.phases[0];
        assert_eq!(p.ops(), 4_000);
        assert!(p.tally.hits > 0);
        assert!(p.tally.new_keys > 0);
        assert!(p.tally.updated > 0);
        assert!(p.tally.scanned_keys > 0);
        assert_eq!(p.tally.errors, 0);
        // Inserted keys really landed.
        assert_eq!(index.len() as u64, 2_000 + p.tally.new_keys);
    }

    #[test]
    fn replay_scenario_reproduces_workload_semantics() {
        let scenario = WorkloadBuilder::new(9)
            .insert_workload("t", &keys(2_000), WriteRatio::Balanced)
            .closed_loop(4);
        let mut index = MutexIndex::new(ModelIndex::default(), "model-mutex");
        let result = Driver::new().run(&scenario, &mut index);
        let p = &result.phases[0];
        assert_eq!(p.ops(), scenario.phases[0].ops);
        // All remaining keys were inserted: the store holds every key.
        assert_eq!(index.len(), 2_000);
    }

    #[test]
    fn concurrent_run_matches_single_thread_outcome() {
        let all = keys(4_000);
        let single = WorkloadBuilder::new(4).insert_workload("test", &all, WriteRatio::Balanced);
        let mut alone = ModelIndex::default();
        let solo = Driver::new().run_in_place(&single, &mut alone);

        let scenario = single.clone().closed_loop(4);
        let mut index = MutexIndex::new(ModelIndex::default(), "model-mutex");
        let result = Driver::new().run(&scenario, &mut index);
        let p = &result.phases[0];
        assert_eq!(result.target, "model-mutex");
        assert_eq!(p.ops(), scenario.phases[0].ops);
        assert_eq!(p.ops(), solo.phases[0].ops());
        // Both runs end with every key stored.
        assert_eq!(index.len(), all.len());
        assert_eq!(alone.len(), all.len());
        assert!(p.read_summary().samples > 0);
        assert!(p.write_summary().samples > 0);
        assert!(p.kind_summary(RequestKind::Get).samples > 0);
        assert!(p.kind_summary(RequestKind::Insert).samples > 0);
        assert!(index.memory_usage() > 0);
    }

    #[test]
    fn concurrent_run_executes_every_op_when_threads_do_not_divide() {
        // Regression: the replay chunking must agree with the driver's
        // per-thread op budgets, or the tail of a chunk is silently
        // dropped (10 ops over 4 threads used to execute only 9).
        for (n, threads) in [(10u64, 4usize), (103, 4), (13, 4), (2_001, 7)] {
            let ops = (0..n).map(|i| Op::Insert(1_000 + i, i)).collect();
            let scenario =
                Scenario::new("odd", 0, &[1]).phase(Phase::replay("odd", Arc::new(ops), threads));
            let mut index = MutexIndex::new(ModelIndex::default(), "model-mutex");
            let result = Driver::new().run(&scenario, &mut index);
            assert_eq!(result.phases[0].ops(), n, "{n} ops / {threads} threads");
            assert_eq!(
                index.len() as u64,
                1 + n,
                "{n} ops / {threads} threads: every insert must land"
            );
        }
    }

    #[test]
    fn single_threaded_run_counts_hits() {
        let scenario =
            WorkloadBuilder::new(1).insert_workload("test", &keys(2000), WriteRatio::ReadOnly);
        let mut index = ModelIndex::default();
        let result = Driver::new().run_in_place(&scenario, &mut index);
        let p = &result.phases[0];
        assert_eq!(p.ops(), scenario.phases[0].ops);
        assert_eq!(p.tally.hits, p.ops(), "all read-only lookups must hit");
        assert!(p.throughput_mops() > 0.0);
        assert!(index.memory_usage() > 0);
        assert_eq!(result.target, "model");
        // Per-kind view: everything landed under Get.
        assert!(p.kind_summary(RequestKind::Get).samples > 0);
        assert_eq!(p.kind_summary(RequestKind::Insert).samples, 0);
        assert_eq!(
            RequestKind::ALL
                .iter()
                .filter(|&&k| p.kind_summary(k).samples > 0)
                .count(),
            1
        );
    }

    #[test]
    fn balanced_run_ends_with_all_keys_present() {
        let all = keys(2000);
        let scenario = WorkloadBuilder::new(2).insert_workload("test", &all, WriteRatio::Balanced);
        let mut index = ModelIndex::default();
        let result = Driver::new().run_in_place(&scenario, &mut index);
        assert_eq!(index.len(), all.len());
        // Both kinds sampled, and the per-kind split is consistent with the
        // merged read/write views.
        let p = &result.phases[0];
        assert_eq!(
            p.kind_summary(RequestKind::Get).samples,
            p.read_summary().samples
        );
        assert_eq!(
            p.kind_summary(RequestKind::Insert).samples,
            p.write_summary().samples
        );
    }

    #[test]
    fn scan_workload_counts_keys() {
        let scenario = WorkloadBuilder::new(3).range_workload("test", &keys(1000), 50, 20);
        let result = Driver::new().run_in_place(&scenario, &mut ModelIndex::default());
        let p = &result.phases[0];
        assert!(p.tally.scanned_keys > 0);
        assert!(p.scan_throughput_mkeys() > 0.0);
        assert!(p.kind_summary(RequestKind::Range).samples > 0);
    }

    #[test]
    fn delete_workload_shrinks_the_index() {
        let all = keys(2000);
        let scenario = WorkloadBuilder::new(5).delete_workload("test", &all, 0.5);
        let mut index = ModelIndex::default();
        Driver::new().run_in_place(&scenario, &mut index);
        assert_eq!(index.len(), all.len() - all.len() / 2);
    }

    #[test]
    #[should_panic(expected = "run_in_place drives one client")]
    fn in_place_run_refuses_more_than_one_client() {
        let scenario = WorkloadBuilder::new(6)
            .insert_workload("test", &keys(100), WriteRatio::ReadOnly)
            .closed_loop(2);
        Driver::new().run_in_place(&scenario, &mut ModelIndex::default());
    }

    #[test]
    fn latency_summary_statistics() {
        let mut hist = LatencyHistogram::new();
        for v in [10, 20, 30, 40, 50, 60, 70, 80, 90, 1000] {
            hist.record(v);
        }
        let s = LatencySummary::from_histogram(&hist);
        assert_eq!(s.samples, 10);
        assert_eq!(s.max_ns, 1000);
        assert!(s.p999_ns >= s.p99_ns && s.p99_ns >= s.p50_ns);
        assert!(s.std_ns > 0.0);
        let empty = LatencySummary::from_histogram(&LatencyHistogram::new());
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.p999_ns, 0);
    }

    #[test]
    fn summary_from_histogram_matches_samples_within_resolution() {
        // The samples are 7, 14, …, 70 000, so the exact statistics are
        // closed-form: the q-quantile is 70 000 q.
        let mut hist = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            hist.record(i * 7);
        }
        let from_hist = LatencySummary::from_histogram(&hist);
        assert_eq!(from_hist.samples, 10_000);
        assert_eq!(from_hist.max_ns, 70_000);
        for (got, exact) in [
            (from_hist.p50_ns, 35_000.0),
            (from_hist.p99_ns, 69_300.0),
            (from_hist.p999_ns, 69_930.0),
        ] {
            let rel = (got as f64 - exact).abs() / exact;
            assert!(rel < 0.05, "histogram {got} vs exact {exact}");
        }
        assert_eq!(
            LatencySummary::from_histogram(&LatencyHistogram::new()).samples,
            0
        );
    }
}
