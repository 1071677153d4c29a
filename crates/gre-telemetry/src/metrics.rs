//! The lock-free metrics registry: static-id counters striped per worker,
//! per-shard gauges, and concurrent log-linear histograms.
//!
//! Everything on the recording side is a relaxed atomic operation addressed
//! by a static enum id — no string hashing, no locking, no allocation. The
//! layout is sized once at construction from the serving layout (shard
//! count, worker count) and never changes, so hot-path accesses are plain
//! array indexing.
//!
//! Counters are *striped*: each worker owns a cache-line-padded cell per
//! counter id, so concurrent increments from different workers never bounce
//! the same line. [`MetricsRegistry::snapshot`] folds the stripes into one
//! consistent-enough view (relaxed reads; exact once writers quiesce).
//!
//! Histograms ([`AtomicHistogram`]) mirror the exact bucket layout of
//! [`gre_core::LatencyHistogram`] via the public
//! [`gre_core::bucket_index`] mapping, and snapshot
//! back into a `LatencyHistogram` so every existing percentile/summary path
//! works on telemetry data unchanged.

use gre_core::{bucket_index, bucket_span, LatencyHistogram, BUCKET_COUNT};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonic event counters, one logical value per id (striped per worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Operations accepted into the pipeline by `submit`/`try_submit`.
    OpsSubmitted,
    /// Operations whose response has been produced by a shard worker.
    OpsCompleted,
    /// Batches accepted by `submit`/`try_submit`.
    BatchesSubmitted,
    /// Batches bounced by `try_submit` because a shard queue was full.
    BatchesRejected,
    /// Shard-local sub-batches executed by workers.
    SubBatchesExecuted,
    /// Get operations served through the batched `get_batch` fast path.
    BatchedGetOps,
    /// Point lookups that found their key.
    GetHits,
    /// Inserts that created a new key.
    InsertedNew,
    /// Updates that found their key.
    Updated,
    /// Removes that found their key.
    Removed,
    /// Keys returned by range scans.
    ScannedKeys,
    /// Range scans executed.
    RangeScans,
    /// Operations answered with a typed error (e.g. unsupported).
    OpErrors,
    /// Spans recorded into the trace ring.
    TraceSpans,
    /// Spans dropped because a ring slot was mid-write (writer collision).
    TraceDropped,
    /// Write-ahead-log records appended (one per durably logged group).
    WalAppends,
    /// Write-ahead-log fsync (durability) barriers issued.
    WalFsyncs,
}

impl CounterId {
    /// All counter ids, in declaration order.
    pub const ALL: [CounterId; 17] = [
        CounterId::OpsSubmitted,
        CounterId::OpsCompleted,
        CounterId::BatchesSubmitted,
        CounterId::BatchesRejected,
        CounterId::SubBatchesExecuted,
        CounterId::BatchedGetOps,
        CounterId::GetHits,
        CounterId::InsertedNew,
        CounterId::Updated,
        CounterId::Removed,
        CounterId::ScannedKeys,
        CounterId::RangeScans,
        CounterId::OpErrors,
        CounterId::TraceSpans,
        CounterId::TraceDropped,
        CounterId::WalAppends,
        CounterId::WalFsyncs,
    ];

    /// Number of counter ids.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index (position in [`CounterId::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Metric name, as `docs/OBSERVABILITY.md` lists it without the `gre_`
    /// prefix.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::OpsSubmitted => "ops_submitted",
            CounterId::OpsCompleted => "ops_completed",
            CounterId::BatchesSubmitted => "batches_submitted",
            CounterId::BatchesRejected => "batches_rejected",
            CounterId::SubBatchesExecuted => "sub_batches_executed",
            CounterId::BatchedGetOps => "batched_get_ops",
            CounterId::GetHits => "get_hits",
            CounterId::InsertedNew => "inserted_new",
            CounterId::Updated => "updated",
            CounterId::Removed => "removed",
            CounterId::ScannedKeys => "scanned_keys",
            CounterId::RangeScans => "range_scans",
            CounterId::OpErrors => "op_errors",
            CounterId::TraceSpans => "trace_spans",
            CounterId::TraceDropped => "trace_dropped",
            CounterId::WalAppends => "wal_appends",
            CounterId::WalFsyncs => "wal_fsyncs",
        }
    }
}

/// Per-shard instantaneous level gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Sub-batches currently queued or executing on the shard.
    QueueDepth,
    /// Operations enqueued on the shard whose responses are not yet written.
    InFlightOps,
}

impl GaugeId {
    /// All gauge ids, in declaration order.
    pub const ALL: [GaugeId; 2] = [GaugeId::QueueDepth, GaugeId::InFlightOps];
    /// Number of gauge ids.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index (position in [`GaugeId::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Metric name, as `docs/OBSERVABILITY.md` lists it without the `gre_`
    /// prefix.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::QueueDepth => "shard_queue_depth",
            GaugeId::InFlightOps => "shard_inflight_ops",
        }
    }
}

/// Per-shard value distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHistId {
    /// Operations per shard-local sub-batch.
    SubBatchSize,
    /// Nanoseconds a sub-batch waited between enqueue and worker dequeue.
    QueueWaitNs,
    /// Nanoseconds a worker spent executing a sub-batch.
    ServiceNs,
}

impl ShardHistId {
    /// All per-shard histogram ids, in declaration order.
    pub const ALL: [ShardHistId; 3] = [
        ShardHistId::SubBatchSize,
        ShardHistId::QueueWaitNs,
        ShardHistId::ServiceNs,
    ];
    /// Number of per-shard histogram ids.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index (position in [`ShardHistId::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Metric name, as `docs/OBSERVABILITY.md` lists it without the `gre_`
    /// prefix.
    pub fn name(self) -> &'static str {
        match self {
            ShardHistId::SubBatchSize => "sub_batch_size",
            ShardHistId::QueueWaitNs => "queue_wait_ns",
            ShardHistId::ServiceNs => "service_ns",
        }
    }
}

/// Process-wide value distributions (not per shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalHistId {
    /// `Session` in-flight window occupancy sampled at each submit.
    SessionWindow,
    /// Operations per driver-submitted batch.
    BatchOps,
}

impl GlobalHistId {
    /// All global histogram ids, in declaration order.
    pub const ALL: [GlobalHistId; 2] = [GlobalHistId::SessionWindow, GlobalHistId::BatchOps];
    /// Number of global histogram ids.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index (position in [`GlobalHistId::ALL`]).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Metric name, as `docs/OBSERVABILITY.md` lists it without the `gre_`
    /// prefix.
    pub fn name(self) -> &'static str {
        match self {
            GlobalHistId::SessionWindow => "session_window",
            GlobalHistId::BatchOps => "batch_ops",
        }
    }
}

/// One atomic counter cell padded to a cache line so neighbouring cells
/// (other counters of the same stripe, other stripes) never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedI64(AtomicI64);

/// One worker's private row of counter cells. All increments are relaxed —
/// counters are monotone event counts, not synchronization.
#[derive(Debug)]
pub struct CounterStripe {
    cells: [PaddedU64; CounterId::COUNT],
}

impl CounterStripe {
    fn new() -> CounterStripe {
        CounterStripe {
            cells: Default::default(),
        }
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.cells[id.index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to a counter.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    /// Current value of this stripe's cell (not the registry-wide total).
    pub fn get(&self, id: CounterId) -> u64 {
        self.cells[id.index()].0.load(Ordering::Relaxed)
    }
}

/// A concurrent log-linear histogram sharing the bucket layout of
/// [`LatencyHistogram`].
///
/// Recording is one relaxed `fetch_add` on the value's bucket (plus count
/// and sum upkeep). [`snapshot`](AtomicHistogram::snapshot) rebuilds a
/// `LatencyHistogram` by replaying each bucket at its midpoint: percentiles
/// are exact to bucket resolution (~3%), mean/min/max carry the same
/// representative-value approximation.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values (wraps after ~584 years of nanoseconds).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Rebuild a [`LatencyHistogram`] from the current bucket counts.
    pub fn snapshot(&self) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for (b, cell) in self.buckets.iter().enumerate() {
            let n = cell.load(Ordering::Relaxed);
            if n > 0 {
                let (low, width) = bucket_span(b);
                h.record_n(low + width / 2, n);
            }
        }
        h
    }
}

/// All per-shard telemetry state: gauges, a dedicated completed-ops
/// counter (the live load signal a rebalancer would watch), and the
/// per-shard histograms.
#[derive(Debug)]
pub struct ShardScope {
    gauges: [PaddedI64; GaugeId::COUNT],
    ops_completed: PaddedU64,
    hists: [AtomicHistogram; ShardHistId::COUNT],
}

impl ShardScope {
    fn new() -> ShardScope {
        ShardScope {
            gauges: Default::default(),
            ops_completed: PaddedU64::default(),
            hists: [
                AtomicHistogram::new(),
                AtomicHistogram::new(),
                AtomicHistogram::new(),
            ],
        }
    }

    /// Move a gauge by `delta` (relaxed).
    #[inline]
    pub fn gauge_add(&self, id: GaugeId, delta: i64) {
        self.gauges[id.index()]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Current gauge level.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id.index()].0.load(Ordering::Relaxed)
    }

    /// Add `n` completed operations to this shard's load counter.
    #[inline]
    pub fn add_ops_completed(&self, n: u64) {
        self.ops_completed.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Operations completed on this shard since construction.
    pub fn ops_completed(&self) -> u64 {
        self.ops_completed.0.load(Ordering::Relaxed)
    }

    /// One of this shard's histograms.
    #[inline]
    pub fn hist(&self, id: ShardHistId) -> &AtomicHistogram {
        &self.hists[id.index()]
    }
}

/// The registry: sized once from the serving layout, then written with
/// relaxed atomics only.
#[derive(Debug)]
pub struct MetricsRegistry {
    stripes: Box<[CounterStripe]>,
    shards: Box<[ShardScope]>,
    globals: [AtomicHistogram; GlobalHistId::COUNT],
}

impl MetricsRegistry {
    /// A registry for `shards` shards written by up to `writers` concurrent
    /// workers (each worker gets a private counter stripe; both are clamped
    /// to at least 1).
    pub fn new(shards: usize, writers: usize) -> MetricsRegistry {
        MetricsRegistry {
            stripes: (0..writers.max(1)).map(|_| CounterStripe::new()).collect(),
            shards: (0..shards.max(1)).map(|_| ShardScope::new()).collect(),
            globals: [AtomicHistogram::new(), AtomicHistogram::new()],
        }
    }

    /// The counter stripe of `writer` (wrapped modulo stripe count, so any
    /// thread id is a valid writer id).
    #[inline]
    pub fn stripe(&self, writer: usize) -> &CounterStripe {
        &self.stripes[writer % self.stripes.len()]
    }

    /// Per-shard telemetry scope (panics on out-of-range shard).
    #[inline]
    pub fn shard(&self, shard: usize) -> &ShardScope {
        &self.shards[shard]
    }

    /// Number of shard scopes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A process-wide histogram.
    #[inline]
    pub fn global(&self, id: GlobalHistId) -> &AtomicHistogram {
        &self.globals[id.index()]
    }

    /// Registry-wide counter total (sum over stripes).
    pub fn counter(&self, id: CounterId) -> u64 {
        self.stripes.iter().map(|s| s.get(id)).sum()
    }

    /// Fold the live state into an owned snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = [0u64; CounterId::COUNT];
        for (i, c) in counters.iter_mut().enumerate() {
            *c = self.counter(CounterId::ALL[i]);
        }
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let mut gauges = [0i64; GaugeId::COUNT];
                for (i, g) in gauges.iter_mut().enumerate() {
                    *g = s.gauge(GaugeId::ALL[i]);
                }
                ShardSnapshot {
                    gauges,
                    ops_completed: s.ops_completed(),
                    hists: ShardHistId::ALL.map(|id| s.hist(id).snapshot()),
                }
            })
            .collect();
        MetricsSnapshot {
            counters,
            shards,
            globals: GlobalHistId::ALL.map(|id| self.global(id).snapshot()),
        }
    }
}

/// Owned point-in-time view of one shard's telemetry.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    gauges: [i64; GaugeId::COUNT],
    /// Operations completed on this shard since construction.
    pub ops_completed: u64,
    hists: [LatencyHistogram; ShardHistId::COUNT],
}

impl ShardSnapshot {
    /// Gauge level at snapshot time.
    pub fn gauge(&self, id: GaugeId) -> i64 {
        self.gauges[id.index()]
    }

    /// Per-shard histogram at snapshot time.
    pub fn hist(&self, id: ShardHistId) -> &LatencyHistogram {
        &self.hists[id.index()]
    }
}

/// Owned point-in-time view of the whole registry.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    counters: [u64; CounterId::COUNT],
    /// One snapshot per shard, indexed by shard id.
    pub shards: Vec<ShardSnapshot>,
    globals: [LatencyHistogram; GlobalHistId::COUNT],
}

impl MetricsSnapshot {
    /// Registry-wide counter total at snapshot time.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// A process-wide histogram at snapshot time.
    pub fn global(&self, id: GlobalHistId) -> &LatencyHistogram {
        &self.globals[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ids_are_dense_and_named() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert!(!id.name().is_empty());
        }
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        for (i, id) in ShardHistId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        for (i, id) in GlobalHistId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn stripes_fold_into_totals() {
        let reg = MetricsRegistry::new(2, 3);
        reg.stripe(0).add(CounterId::OpsCompleted, 10);
        reg.stripe(1).add(CounterId::OpsCompleted, 5);
        reg.stripe(2).inc(CounterId::OpsCompleted);
        // Writer ids wrap modulo the stripe count.
        reg.stripe(3).add(CounterId::OpsCompleted, 4);
        assert_eq!(reg.counter(CounterId::OpsCompleted), 20);
        assert_eq!(reg.stripe(0).get(CounterId::OpsCompleted), 14);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(CounterId::OpsCompleted), 20);
        assert_eq!(snap.counter(CounterId::OpErrors), 0);
    }

    #[test]
    fn gauges_and_shard_counters_track_levels() {
        let reg = MetricsRegistry::new(2, 1);
        reg.shard(0).gauge_add(GaugeId::QueueDepth, 3);
        reg.shard(0).gauge_add(GaugeId::QueueDepth, -1);
        reg.shard(1).gauge_add(GaugeId::InFlightOps, 7);
        reg.shard(1).add_ops_completed(42);
        assert_eq!(reg.shard(0).gauge(GaugeId::QueueDepth), 2);
        assert_eq!(reg.shard(1).gauge(GaugeId::QueueDepth), 0);
        assert_eq!(reg.shard(1).ops_completed(), 42);
        let snap = reg.snapshot();
        assert_eq!(snap.shards[0].gauge(GaugeId::QueueDepth), 2);
        assert_eq!(snap.shards[1].gauge(GaugeId::InFlightOps), 7);
        assert_eq!(snap.shards[1].ops_completed, 42);
    }

    #[test]
    fn atomic_histogram_snapshot_matches_percentiles() {
        let h = AtomicHistogram::new();
        let mut reference = LatencyHistogram::new();
        for v in (1..=10_000u64).map(|i| i * 37) {
            h.record(v);
            reference.record(v);
        }
        assert_eq!(h.count(), 10_000);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 10_000);
        for p in [0.5, 0.9, 0.99] {
            let a = snap.percentile(p) as f64;
            let b = reference.percentile(p) as f64;
            assert!((a - b).abs() / b < 0.05, "p{p}: snapshot {a} vs direct {b}");
        }
        // The exact sum survives even though the snapshot mean is bucketed.
        assert_eq!(h.sum(), (1..=10_000u64).map(|i| i * 37).sum::<u64>());
    }

    #[test]
    fn atomic_histogram_is_concurrency_safe() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..25_000u64 {
                        h.record(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.snapshot().count(), 100_000);
    }
}
