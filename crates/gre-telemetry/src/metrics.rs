//! The lock-free metrics registry: static-id counters striped per worker
//! and concurrent log-linear histograms, per shard and process-wide.
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
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic event counters, one logical value per id (striped per worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
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
    /// Write-ahead-log records appended (one per durably logged group).
    WalAppends,
    /// Write-ahead-log fsync (durability) barriers issued.
    WalFsyncs,
}

impl CounterId {
    /// All counter ids, in declaration order.
    pub const ALL: [CounterId; 7] = [
        CounterId::OpsCompleted,
        CounterId::BatchesSubmitted,
        CounterId::BatchesRejected,
        CounterId::SubBatchesExecuted,
        CounterId::BatchedGetOps,
        CounterId::WalAppends,
        CounterId::WalFsyncs,
    ];

    const COUNT: usize = Self::ALL.len();
}

/// Per-shard value distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHistId {
    /// Nanoseconds a worker spent executing a sub-batch.
    ServiceNs,
}

impl ShardHistId {
    /// All per-shard histogram ids, in declaration order.
    pub const ALL: [ShardHistId; 1] = [ShardHistId::ServiceNs];

    const COUNT: usize = Self::ALL.len();
}

/// Process-wide value distributions (not per shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalHistId {
    /// `Session` in-flight window occupancy sampled at each submit.
    SessionWindow,
}

impl GlobalHistId {
    /// All global histogram ids, in declaration order.
    pub const ALL: [GlobalHistId; 1] = [GlobalHistId::SessionWindow];

    const COUNT: usize = Self::ALL.len();
}

/// One atomic counter cell padded to a cache line so neighbouring cells
/// (other counters of the same stripe, other stripes) never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

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
        self.cells[id as usize].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to a counter.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.add(id, 1);
    }

    fn get(&self, id: CounterId) -> u64 {
        self.cells[id as usize].0.load(Ordering::Relaxed)
    }
}

/// A concurrent log-linear histogram sharing the bucket layout of
/// [`LatencyHistogram`].
///
/// Recording is one relaxed `fetch_add` on the value's bucket.
/// [`snapshot`](AtomicHistogram::snapshot) rebuilds a `LatencyHistogram` by
/// replaying each bucket at its midpoint: percentiles are exact to bucket
/// resolution (~3%), mean/min/max carry the same representative-value
/// approximation.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Rebuild a [`LatencyHistogram`] from the current bucket counts.
    fn snapshot(&self) -> LatencyHistogram {
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

/// The registry: sized once from the serving layout, then written with
/// relaxed atomics only.
#[derive(Debug)]
pub struct MetricsRegistry {
    stripes: Box<[CounterStripe]>,
    /// One row of [`ShardHistId`] histograms per shard.
    shards: Box<[[AtomicHistogram; ShardHistId::COUNT]]>,
    globals: [AtomicHistogram; GlobalHistId::COUNT],
}

impl MetricsRegistry {
    /// A registry for `shards` shards written by up to `writers` concurrent
    /// workers (each worker gets a private counter stripe; both are clamped
    /// to at least 1).
    pub(crate) fn new(shards: usize, writers: usize) -> MetricsRegistry {
        MetricsRegistry {
            stripes: (0..writers.max(1)).map(|_| CounterStripe::new()).collect(),
            shards: (0..shards.max(1))
                .map(|_| std::array::from_fn(|_| AtomicHistogram::new()))
                .collect(),
            globals: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    /// The counter stripe of `writer` (wrapped modulo stripe count, so any
    /// thread id is a valid writer id).
    #[inline]
    pub fn stripe(&self, writer: usize) -> &CounterStripe {
        &self.stripes[writer % self.stripes.len()]
    }

    /// One of `shard`'s histograms (panics on out-of-range shard).
    #[inline]
    pub fn shard_hist(&self, shard: usize, id: ShardHistId) -> &AtomicHistogram {
        &self.shards[shard][id as usize]
    }

    /// Number of shards the registry was sized for.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// A process-wide histogram.
    #[inline]
    pub fn global(&self, id: GlobalHistId) -> &AtomicHistogram {
        &self.globals[id as usize]
    }

    /// Fold the live state into an owned snapshot.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: CounterId::ALL.map(|id| self.stripes.iter().map(|s| s.get(id)).sum()),
            shards: self
                .shards
                .iter()
                .map(|hists| ShardSnapshot {
                    hists: hists.each_ref().map(AtomicHistogram::snapshot),
                })
                .collect(),
            globals: self.globals.each_ref().map(AtomicHistogram::snapshot),
        }
    }
}

/// Owned point-in-time view of one shard's telemetry.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    hists: [LatencyHistogram; ShardHistId::COUNT],
}

impl ShardSnapshot {
    /// Per-shard histogram at snapshot time.
    pub fn hist(&self, id: ShardHistId) -> &LatencyHistogram {
        &self.hists[id as usize]
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
        self.counters[id as usize]
    }

    /// A process-wide histogram at snapshot time.
    pub fn global(&self, id: GlobalHistId) -> &LatencyHistogram {
        &self.globals[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
        for (i, id) in ShardHistId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
        }
        for (i, id) in GlobalHistId::ALL.iter().enumerate() {
            assert_eq!(*id as usize, i);
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
        assert_eq!(reg.stripe(0).get(CounterId::OpsCompleted), 14);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(CounterId::OpsCompleted), 20);
        assert_eq!(snap.counter(CounterId::WalFsyncs), 0);
    }

    #[test]
    fn atomic_histogram_snapshot_matches_percentiles() {
        let h = AtomicHistogram::new();
        let mut reference = LatencyHistogram::new();
        for v in (1..=10_000u64).map(|i| i * 37) {
            h.record(v);
            reference.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 10_000);
        for p in [0.5, 0.9, 0.99] {
            let a = snap.percentile(p) as f64;
            let b = reference.percentile(p) as f64;
            assert!((a - b).abs() / b < 0.05, "p{p}: snapshot {a} vs direct {b}");
        }
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
        assert_eq!(h.snapshot().count(), 100_000);
    }
}
