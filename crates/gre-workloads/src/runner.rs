//! Workload execution and measurement — the materialized-[`Workload`]
//! compatibility surface over the scenario engine.
//!
//! # MIGRATION
//!
//! The pre-materialized `Vec<Op>` workload path is now a thin adapter over
//! the typed scenario engine:
//!
//! * [`run_concurrent`] wraps the workload in a one-phase replay
//!   [`Scenario`] (closed loop, contiguous
//!   per-thread chunks — the exact execution shape it always had) and
//!   executes it through the [`Driver`], then folds
//!   the phase measurements back into the stable [`RunResult`] shape.
//! * New code should describe traffic as a `Scenario` (mix + key
//!   distribution + span + pacing per phase) and call `Driver::run`
//!   directly: that unlocks multi-phase scripts, open-loop pacing with
//!   coordinated-omission-safe latency, per-kind histograms, and the
//!   non-bare serving targets (`ShardPipeline`/`Session` in `gre-shard`).
//! * [`run_single`] keeps its direct loop: single-threaded indexes
//!   (`Index`, `&mut self`) sit outside the concurrent `ServeTarget`
//!   surface. It records its samples into the same [`KindLatency`]
//!   histograms the driver uses, so the single- and multi-thread columns
//!   of one table carry the same percentile definition.
//!
//! Latencies on the closed-loop paths are sampled (1 op in
//! [`LATENCY_SAMPLE_RATE`], as in §6.1) to keep measurement overhead
//! negligible; [`RunResult`] now carries per-[`OpKind`] summaries next to
//! the merged read/write views so read and write tails stay separable.

use crate::driver::Driver;
use crate::scenario::{Pacing, Scenario};
use crate::spec::{Op, OpKind, Workload};
use gre_core::{ConcurrentIndex, Index, KindLatency, LatencyHistogram};
use std::time::Instant;

/// Fraction of operations whose latency is sampled: one in every N ops.
/// An odd prime stride avoids aliasing with the read/write interleaving
/// pattern of the generated request streams.
pub const LATENCY_SAMPLE_RATE: usize = 101;

/// Summary statistics over a set of sampled latencies (nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct LatencySummary {
    pub samples: usize,
    pub mean_ns: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub p999_ns: u64,
    pub max_ns: u64,
    pub std_ns: f64,
}

impl LatencySummary {
    /// Build a summary from a recorded histogram (percentiles carry the
    /// histogram's ~3% bucket resolution, mean and max are exact).
    pub fn from_histogram(hist: &LatencyHistogram) -> Self {
        if hist.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            samples: hist.count() as usize,
            mean_ns: hist.mean(),
            p50_ns: hist.percentile(0.50),
            p99_ns: hist.percentile(0.99),
            p999_ns: hist.percentile(0.999),
            max_ns: hist.max(),
            std_ns: hist.std_dev(),
        }
    }

    /// Merged read-side (get + range) summary.
    pub fn reads(latency: &KindLatency) -> Self {
        Self::from_histogram(&latency.merged(&[OpKind::Get, OpKind::Range]))
    }

    /// Merged write-side (insert + update + remove) summary.
    pub fn writes(latency: &KindLatency) -> Self {
        Self::from_histogram(&latency.merged(&[OpKind::Insert, OpKind::Update, OpKind::Remove]))
    }
}

/// Per-[`OpKind`] latency summaries (Get vs Insert vs Update vs Remove vs
/// Range), so read and write tails are separable in every report.
#[derive(Debug, Clone, Default)]
pub struct KindSummaries([LatencySummary; OpKind::COUNT]);

impl KindSummaries {
    /// The summary for one kind.
    pub fn get(&self, kind: OpKind) -> &LatencySummary {
        &self.0[kind.index()]
    }

    /// Build from a kind-indexed histogram recorder.
    pub fn from_kind_latency(latency: &KindLatency) -> Self {
        let mut out = KindSummaries::default();
        for (kind, hist) in latency.iter() {
            out.0[kind.index()] = LatencySummary::from_histogram(hist);
        }
        out
    }

    /// Iterate `(kind, summary)` pairs for kinds that recorded any samples.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (OpKind, &LatencySummary)> {
        OpKind::ALL
            .iter()
            .map(|&k| (k, self.get(k)))
            .filter(|(_, s)| s.samples > 0)
    }
}

/// The result of executing one workload on one index.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Index name.
    pub index: String,
    /// Workload name.
    pub workload: String,
    /// Threads used.
    pub threads: usize,
    /// Number of timed operations executed.
    pub ops: usize,
    /// Wall-clock time of the timed phase in nanoseconds.
    pub elapsed_ns: u64,
    /// Bulk-load time in nanoseconds.
    pub bulk_load_ns: u64,
    /// Lookup hits observed (sanity check that the workload makes sense).
    pub hits: usize,
    /// Keys returned by range scans.
    pub scanned_keys: usize,
    /// Lookup latency summary (sampled).
    pub read_latency: LatencySummary,
    /// Write (insert/update/remove) latency summary (sampled).
    pub write_latency: LatencySummary,
    /// Per-kind latency summaries (sampled), separating Get / Insert /
    /// Update / Remove / Range tails.
    pub kind_latency: KindSummaries,
    /// End-to-end index memory after the run, in bytes.
    pub memory_bytes: usize,
}

impl RunResult {
    /// Throughput in million operations per second.
    pub fn throughput_mops(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.ops as f64 / (self.elapsed_ns as f64 / 1e9) / 1e6
    }

    /// Throughput in keys scanned per second (for range workloads, which the
    /// paper reports as "M keys/s").
    pub fn scan_throughput_mkeys(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.scanned_keys as f64 / (self.elapsed_ns as f64 / 1e9) / 1e6
    }
}

/// Execute a workload on a single-threaded index.
pub fn run_single<I: Index<u64> + ?Sized>(index: &mut I, workload: &Workload) -> RunResult {
    let bulk_timer = Instant::now();
    index.bulk_load(&workload.bulk);
    let bulk_load_ns = bulk_timer.elapsed().as_nanos() as u64;

    let mut hits = 0usize;
    let mut scanned = 0usize;
    let mut latency = KindLatency::new();
    let mut scan_buf: Vec<(u64, u64)> = Vec::new();

    let timer = Instant::now();
    for (i, op) in workload.ops.iter().enumerate() {
        let sample = i % LATENCY_SAMPLE_RATE == 0;
        let start = if sample { Some(Instant::now()) } else { None };
        match *op {
            Op::Get(k) => {
                if index.get(k).is_some() {
                    hits += 1;
                }
            }
            Op::Insert(k, v) => {
                index.insert(k, v);
            }
            Op::Update(k, v) => {
                index.update(k, v);
            }
            Op::Remove(k) => {
                index.remove(k);
            }
            Op::Range(spec) => {
                scan_buf.clear();
                scanned += index.range(spec, &mut scan_buf);
            }
        }
        if let Some(start) = start {
            latency.record(op.kind(), start.elapsed().as_nanos() as u64);
        }
    }
    let elapsed_ns = timer.elapsed().as_nanos() as u64;

    RunResult {
        index: index.meta().name.to_string(),
        workload: workload.name.clone(),
        threads: 1,
        ops: workload.ops.len(),
        elapsed_ns,
        bulk_load_ns,
        hits,
        scanned_keys: scanned,
        read_latency: LatencySummary::reads(&latency),
        write_latency: LatencySummary::writes(&latency),
        kind_latency: KindSummaries::from_kind_latency(&latency),
        memory_bytes: index.memory_usage(),
    }
}

/// Execute a workload on a concurrent index with `threads` worker threads.
///
/// The request stream is split into `threads` contiguous chunks; each thread
/// executes its chunk independently (the paper's client threads likewise
/// issue independent request streams). This is the migration adapter over
/// the scenario engine: a one-phase closed-loop replay scenario driven
/// against the bare backend (see the module-level MIGRATION note).
pub fn run_concurrent<I: ConcurrentIndex<u64> + ?Sized>(
    index: &mut I,
    workload: &Workload,
    threads: usize,
) -> RunResult {
    let threads = threads.max(1);
    let scenario = Scenario::from_workload(workload, Pacing::ClosedLoop { threads });
    let result = Driver::new().run(&scenario, index);
    let phase = result
        .phases
        .first()
        .expect("one-phase replay scenario produced a phase");
    RunResult {
        index: result.target.clone(),
        workload: workload.name.clone(),
        threads,
        ops: phase.ops() as usize,
        elapsed_ns: phase.elapsed_ns,
        bulk_load_ns: result.bulk_load_ns,
        hits: phase.tally.hits as usize,
        scanned_keys: phase.tally.scanned_keys as usize,
        read_latency: phase.read_summary(),
        write_latency: phase.write_summary(),
        kind_latency: KindSummaries::from_kind_latency(&phase.latency),
        memory_bytes: index.memory_usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::WorkloadBuilder;
    use crate::spec::WriteRatio;
    use gre_core::index::MutexIndex;
    use gre_core::{IndexMeta, Payload, RangeSpec};
    use std::collections::BTreeMap;

    /// Reference index used to exercise the runner.
    #[derive(Default)]
    struct MapIndex {
        map: BTreeMap<u64, Payload>,
    }

    impl Index<u64> for MapIndex {
        fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
            self.map = entries.iter().copied().collect();
        }
        fn get(&self, key: u64) -> Option<Payload> {
            self.map.get(&key).copied()
        }
        fn insert(&mut self, key: u64, value: Payload) -> bool {
            self.map.insert(key, value).is_none()
        }
        fn remove(&mut self, key: u64) -> Option<Payload> {
            self.map.remove(&key)
        }
        fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
            let before = out.len();
            out.extend(
                self.map
                    .range(spec.start..)
                    .take(spec.count)
                    .map(|(k, v)| (*k, *v)),
            );
            out.len() - before
        }
        fn len(&self) -> usize {
            self.map.len()
        }
        fn memory_usage(&self) -> usize {
            self.map.len() * 48
        }
        fn meta(&self) -> IndexMeta {
            IndexMeta {
                name: "map",
                learned: false,
                concurrent: false,
                supports_delete: true,
                supports_range: true,
            }
        }
    }

    fn keys(n: u64) -> Vec<u64> {
        (1..=n).map(|i| i * 13).collect()
    }

    #[test]
    fn single_threaded_run_counts_hits() {
        let b = WorkloadBuilder::new(1);
        let w = b.insert_workload("test", &keys(2000), WriteRatio::ReadOnly);
        let mut idx = MapIndex::default();
        let r = run_single(&mut idx, &w);
        assert_eq!(r.ops, w.ops.len());
        assert_eq!(r.hits, w.ops.len(), "all read-only lookups must hit");
        assert!(r.throughput_mops() > 0.0);
        assert!(r.memory_bytes > 0);
        assert_eq!(r.threads, 1);
        // Per-kind view: everything landed under Get.
        assert!(r.kind_latency.get(OpKind::Get).samples > 0);
        assert_eq!(r.kind_latency.get(OpKind::Insert).samples, 0);
        assert_eq!(r.kind_latency.iter_nonempty().count(), 1);
    }

    #[test]
    fn balanced_run_ends_with_all_keys_present() {
        let b = WorkloadBuilder::new(2);
        let all = keys(2000);
        let w = b.insert_workload("test", &all, WriteRatio::Balanced);
        let mut idx = MapIndex::default();
        let r = run_single(&mut idx, &w);
        assert_eq!(idx.len(), all.len());
        // Both kinds sampled, and the per-kind split is consistent with the
        // merged read/write views.
        assert_eq!(
            r.kind_latency.get(OpKind::Get).samples,
            r.read_latency.samples
        );
        assert_eq!(
            r.kind_latency.get(OpKind::Insert).samples,
            r.write_latency.samples
        );
    }

    #[test]
    fn scan_workload_counts_keys() {
        let b = WorkloadBuilder::new(3);
        let w = b.range_workload("test", &keys(1000), 50, 20);
        let mut idx = MapIndex::default();
        let r = run_single(&mut idx, &w);
        assert!(r.scanned_keys > 0);
        assert!(r.scan_throughput_mkeys() > 0.0);
        assert!(r.kind_latency.get(OpKind::Range).samples > 0);
    }

    #[test]
    fn concurrent_run_matches_single_thread_outcome() {
        let b = WorkloadBuilder::new(4);
        let all = keys(4000);
        let w = b.insert_workload("test", &all, WriteRatio::Balanced);
        let mut conc = MutexIndex::new(MapIndex::default(), "map-mutex");
        let r = run_concurrent(&mut conc, &w, 4);
        assert_eq!(r.threads, 4);
        assert_eq!(r.ops, w.ops.len());
        assert_eq!(ConcurrentIndex::len(&conc), all.len());
        assert_eq!(r.index, "map-mutex");
        assert!(r.read_latency.samples > 0);
        assert!(r.write_latency.samples > 0);
        assert!(r.kind_latency.get(OpKind::Get).samples > 0);
        assert!(r.kind_latency.get(OpKind::Insert).samples > 0);
        assert!(r.memory_bytes > 0);
    }

    #[test]
    fn concurrent_run_executes_every_op_when_threads_do_not_divide() {
        // Regression: the replay chunking must agree with the driver's
        // per-thread op budgets, or the tail of a chunk is silently
        // dropped (10 ops over 4 threads used to execute only 9).
        for (n, threads) in [(10u64, 4usize), (103, 4), (13, 4), (2_001, 7)] {
            let w = Workload {
                name: "odd".into(),
                bulk: vec![(1, 1)],
                ops: (0..n).map(|i| Op::Insert(1_000 + i, i)).collect(),
            };
            let mut conc = MutexIndex::new(MapIndex::default(), "map-mutex");
            let r = run_concurrent(&mut conc, &w, threads);
            assert_eq!(r.ops as u64, n, "{n} ops / {threads} threads");
            assert_eq!(
                ConcurrentIndex::len(&conc) as u64,
                1 + n,
                "{n} ops / {threads} threads: every insert must land"
            );
        }
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
        assert!(s.mean_ns > 0.0);
        let empty = LatencySummary::from_histogram(&LatencyHistogram::new());
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.p999_ns, 0);
    }

    #[test]
    fn summary_from_histogram_matches_samples_within_resolution() {
        // The samples are 7, 14, …, 70 000, so the exact statistics are
        // closed-form: the q-quantile is 70 000 q and the mean 7 · 5000.5.
        let mut hist = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            hist.record(i * 7);
        }
        let from_hist = LatencySummary::from_histogram(&hist);
        assert_eq!(from_hist.samples, 10_000);
        assert_eq!(from_hist.max_ns, 70_000);
        assert!((from_hist.mean_ns - 35_003.5).abs() < 1e-6);
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

    #[test]
    fn delete_workload_shrinks_the_index() {
        let b = WorkloadBuilder::new(5);
        let all = keys(2000);
        let w = b.delete_workload("test", &all, 0.5);
        let mut idx = MapIndex::default();
        run_single(&mut idx, &w);
        assert_eq!(idx.len(), all.len() - all.len() / 2);
    }
}
