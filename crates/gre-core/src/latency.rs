//! Kind-indexed latency recording.
//!
//! The scenario driver in `gre-workloads` measures sampled operations'
//! latency from their *intended* send time, which means recording
//! potentially millions of samples per phase.
//! Storing raw samples would dominate the driver's memory traffic, so
//! latencies land in a fixed-size log-linear [`LatencyHistogram`] instead:
//! constant-time recording, ~3% relative value resolution, lossless merging
//! across threads, and percentile queries with linear interpolation inside a
//! bucket.
//!
//! [`KindLatency`] bundles one histogram per [`RequestKind`] so read and
//! write tails stay separable all the way to the report.

use crate::ops::RequestKind;

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets, bounding relative error by
/// `2^-SUB_BITS` (~3%).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` range.
///
/// Public so concurrent recorders (e.g. the atomic histograms in
/// `gre-telemetry`) can mirror the same bucket layout and later rebuild a
/// [`LatencyHistogram`] from their bucket counts.
pub const BUCKET_COUNT: usize = (64 - SUB_BITS as usize + 1) * SUB;
const BUCKETS: usize = BUCKET_COUNT;

/// A fixed-size log-linear histogram of nanosecond latencies.
///
/// Values below `2^SUB_BITS` are recorded exactly; above that, each
/// power-of-two range is split into 32 linear sub-buckets. Recording is
/// constant-time and allocation-free after construction; histograms merge
/// losslessly (bucket-wise addition), so per-thread recorders can be summed
/// into a per-phase report.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    sum_sq: f64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            sum_sq: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one latency value (nanoseconds).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.count += 1;
        self.sum += ns as u128;
        let v = ns as f64;
        self.sum_sq += v * v;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded values (the sum is tracked exactly).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Population standard deviation of the recorded values.
    pub fn std_dev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let var = (self.sum_sq / self.count as f64 - mean * mean).max(0.0);
        var.sqrt()
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-quantile (`0.0 ..= 1.0`) with linear interpolation inside the
    /// containing bucket, clamped to the observed min/max so bucket edges
    /// never report values outside the recorded range.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        // Fractional rank over count-1 gaps, matching the interpolated
        // sample-percentile convention used by `LatencySummary`.
        let rank = p * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let last_in_bucket = (seen + c - 1) as f64;
            if rank <= last_in_bucket {
                let (low, width) = bucket_bounds(b);
                // Position of the target rank inside this bucket's values.
                let into = (rank - seen as f64).max(0.0) / c as f64;
                let v = low as f64 + into * width as f64;
                return (v.round() as u64).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Record the same value `n` times in one constant-time step.
    ///
    /// This is how concurrent bucket recorders (which only keep per-bucket
    /// counts) rebuild a `LatencyHistogram` snapshot: replay each occupied
    /// bucket as `n` observations of a representative value. Percentiles of
    /// the rebuilt histogram are exact to bucket resolution; mean/min/max
    /// carry the representative-value approximation (~3%).
    #[inline]
    pub fn record_n(&mut self, ns: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(ns)] += n;
        self.count += n;
        self.sum += ns as u128 * n as u128;
        let v = ns as f64;
        self.sum_sq += v * v * n as f64;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Bucket-wise accumulation of another histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The bucket index holding value `v` under the shared log-linear layout.
///
/// Exposed so lock-free recorders can bucket values with the exact same
/// mapping as [`LatencyHistogram`] and hand snapshots back losslessly.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    bucket_of(v)
}

/// Lowest value and width of bucket `b` (companion to [`bucket_index`]).
pub fn bucket_span(b: usize) -> (u64, u64) {
    bucket_bounds(b)
}

/// The bucket index holding value `v`.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros();
    let shift = top - SUB_BITS;
    let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
    ((top - SUB_BITS + 1) as usize) * SUB + sub
}

/// Lowest value and width of bucket `b`.
#[inline]
fn bucket_bounds(b: usize) -> (u64, u64) {
    let block = b / SUB;
    let sub = (b % SUB) as u64;
    if block == 0 {
        return (sub, 1);
    }
    let shift = (block - 1) as u32;
    ((SUB as u64 + sub) << shift, 1u64 << shift)
}

/// One [`LatencyHistogram`] per [`RequestKind`]: the kind-indexed recorder
/// used for per-phase latency reporting.
#[derive(Debug, Clone, Default)]
pub struct KindLatency {
    hists: [LatencyHistogram; RequestKind::COUNT],
}

impl KindLatency {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency for an operation of `kind`.
    #[inline]
    pub fn record(&mut self, kind: RequestKind, ns: u64) {
        self.hists[kind.index()].record(ns);
    }

    /// The histogram for one kind.
    pub fn get(&self, kind: RequestKind) -> &LatencyHistogram {
        &self.hists[kind.index()]
    }

    /// Total recorded values across all kinds.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(LatencyHistogram::count).sum()
    }

    /// Kind-wise accumulation of another recorder.
    pub fn merge(&mut self, other: &KindLatency) {
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// One merged histogram over the given kinds (e.g. the read-side
    /// `[Get, Range]` or write-side `[Insert, Update, Remove]` view).
    pub fn merged(&self, kinds: &[RequestKind]) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for &k in kinds {
            out.merge(self.get(k));
        }
        out
    }

    /// Iterate `(kind, histogram)` pairs in [`RequestKind::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (RequestKind, &LatencyHistogram)> {
        RequestKind::ALL.iter().map(|&k| (k, self.get(k)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_value_space() {
        // Every bucket's bounds invert bucket_of at both edges.
        for b in 0..BUCKETS - SUB {
            let (low, width) = bucket_bounds(b);
            assert_eq!(bucket_of(low), b, "low edge of bucket {b}");
            assert_eq!(bucket_of(low + width - 1), b, "high edge of bucket {b}");
            let (next_low, _) = bucket_bounds(b + 1);
            assert_eq!(next_low, low + width, "buckets {b},{} contiguous", b + 1);
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 2, 3, 30, 31] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 31);
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(1.0), 31);
        assert_eq!(h.percentile(0.5), 3);
        assert!((h.mean() - 67.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_stay_within_resolution() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, expect) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.percentile(p) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.05, "p{p}: got {got}, want ~{expect} (rel {rel:.4})");
        }
        assert!((h.mean() - 50_000.5).abs() / 50_000.5 < 1e-9, "mean exact");
        assert!(h.std_dev() > 0.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in 0..1_000u64 {
            let v = v * 997;
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.percentile(p), whole.percentile(p), "p{p}");
        }
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut one = LatencyHistogram::new();
        let mut bulk = LatencyHistogram::new();
        for v in [7u64, 550, 9_999, 1 << 40] {
            for _ in 0..13 {
                one.record(v);
            }
            bulk.record_n(v, 13);
        }
        bulk.record_n(123, 0); // no-op
        assert_eq!(one.count(), bulk.count());
        assert_eq!(one.min(), bulk.min());
        assert_eq!(one.max(), bulk.max());
        assert!((one.mean() - bulk.mean()).abs() < 1e-6);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.percentile(p), bulk.percentile(p), "p{p}");
        }
    }

    #[test]
    fn public_bucket_api_matches_private_layout() {
        for v in [0u64, 1, 31, 32, 1_000, u64::MAX] {
            let b = bucket_index(v);
            assert_eq!(b, bucket_of(v));
            let (low, width) = bucket_span(b);
            assert!(low <= v && (v - low) < width || v < SUB as u64 && width == 1);
        }
        assert_eq!(BUCKET_COUNT, BUCKETS);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.std_dev(), 0.0);
    }

    #[test]
    fn kind_latency_separates_kinds() {
        let mut kl = KindLatency::new();
        kl.record(RequestKind::Get, 100);
        kl.record(RequestKind::Get, 200);
        kl.record(RequestKind::Insert, 9_000);
        assert_eq!(kl.get(RequestKind::Get).count(), 2);
        assert_eq!(kl.get(RequestKind::Insert).count(), 1);
        assert_eq!(kl.get(RequestKind::Remove).count(), 0);
        assert_eq!(kl.total_count(), 3);

        let reads = kl.merged(&[RequestKind::Get, RequestKind::Range]);
        assert_eq!(reads.count(), 2);
        let writes = kl.merged(&[
            RequestKind::Insert,
            RequestKind::Update,
            RequestKind::Remove,
        ]);
        assert_eq!(writes.count(), 1);
        assert!(writes.mean() > reads.mean());

        let mut other = KindLatency::new();
        other.record(RequestKind::Get, 300);
        kl.merge(&other);
        assert_eq!(kl.get(RequestKind::Get).count(), 3);
        assert_eq!(kl.iter().count(), RequestKind::COUNT);
    }
}
