//! Key-space partitioners: the `key -> shard` maps of the serving layer.
//!
//! Two schemes, matching the two failure modes of partitioned serving:
//!
//! * [`RangePartitioner`] — contiguous key ranges with boundaries placed at
//!   the quantiles of a sampled key CDF, so an arbitrarily skewed key
//!   *distribution* still spreads evenly across shards. Keeps shards ordered
//!   by key, which lets cross-shard range scans visit shards sequentially.
//! * [`HashPartitioner`] — a mixed hash of the key, for *access* skew
//!   resistance: a hot contiguous key region (e.g. append-mostly inserts at
//!   the domain tail) is spread over all shards instead of hammering one.
//!   Range scans lose shard locality and must fan out to every shard.

use gre_core::Key;

/// Cap on the number of CDF sample points used to fit range boundaries.
/// Quantile placement needs only a coarse CDF sketch; sampling keeps
/// boundary fitting O(SAMPLE_LIMIT log SAMPLE_LIMIT) even for huge loads.
pub const SAMPLE_LIMIT: usize = 4096;

/// A `key -> shard` map over a fixed number of shards.
#[derive(Debug, Clone)]
pub enum Partitioner<K: Key> {
    Range(RangePartitioner<K>),
    Hash(HashPartitioner),
}

impl<K: Key> Partitioner<K> {
    /// Range partitioner with no fitted boundaries yet: every key routes to
    /// shard 0 until [`Partitioner::refit`] (called by `ShardedIndex`'s bulk
    /// load) derives boundaries from actual keys.
    pub fn range(shards: usize) -> Self {
        Partitioner::Range(RangePartitioner::unfitted(shards))
    }

    /// Hash partitioner over `shards` shards.
    pub fn hash(shards: usize) -> Self {
        Partitioner::Hash(HashPartitioner::new(shards))
    }

    /// Number of shards this partitioner routes over.
    pub fn shards(&self) -> usize {
        match self {
            Partitioner::Range(p) => p.shards,
            Partitioner::Hash(p) => p.shards,
        }
    }

    /// The shard `key` routes to. Always `< self.shards()`.
    #[inline]
    pub fn shard_of(&self, key: K) -> usize {
        match self {
            Partitioner::Range(p) => p.shard_of(key),
            Partitioner::Hash(p) => p.shard_of(key),
        }
    }

    /// Whether shard order follows key order (true for range partitioning).
    /// Ordered partitioners support sequential cross-shard range scans;
    /// unordered ones require a full fan-out merge.
    pub fn is_ordered(&self) -> bool {
        matches!(self, Partitioner::Range(_))
    }

    /// Refit the partitioner to a fresh key sample. A no-op for hash
    /// partitioning; for range partitioning this re-derives the quantile
    /// boundaries. Must only be called while no keys are stored under the
    /// old boundaries (i.e. at bulk-load time).
    pub fn refit(&mut self, samples: &[K]) {
        if let Partitioner::Range(p) = self {
            *p = RangePartitioner::from_samples(samples, p.shards);
        }
    }

    /// Human-readable scheme name for reporting.
    pub fn scheme(&self) -> &'static str {
        match self {
            Partitioner::Range(_) => "range",
            Partitioner::Hash(_) => "hash",
        }
    }

    /// The range partitioner inside, when this is the range scheme. The
    /// segment walk of an ordered range scan only exists there.
    pub fn as_range(&self) -> Option<&RangePartitioner<K>> {
        match self {
            Partitioner::Range(p) => Some(p),
            Partitioner::Hash(_) => None,
        }
    }
}

/// Range partitioning over **segments**: the boundary table cuts the key
/// domain into `boundaries.len() + 1` contiguous segments, and segment `i` is
/// shard `i`. `shard_of` is therefore monotone in the key — the property the
/// bulk-load slicing and the ordered range scan in `ShardedIndex` rely on.
/// Shards past the last segment (when the sample had too few distinct keys)
/// stay empty.
#[derive(Debug, Clone)]
pub struct RangePartitioner<K> {
    /// `boundaries[i]` is the smallest key of segment `i + 1`; strictly
    /// increasing and at most `shards - 1` long (shorter when the sample had
    /// too few distinct keys).
    boundaries: Vec<K>,
    shards: usize,
}

impl<K: Key> RangePartitioner<K> {
    /// A partitioner with no boundaries: all keys route to shard 0.
    pub fn unfitted(shards: usize) -> Self {
        RangePartitioner {
            boundaries: Vec::new(),
            shards: shards.max(1),
        }
    }

    /// Fit boundaries at the quantiles of the sampled key CDF so each shard
    /// owns an (approximately) equal share of the observed keys.
    pub fn from_samples(samples: &[K], shards: usize) -> Self {
        let shards = shards.max(1);
        // Stride-sample to the CDF sketch budget, then sort the sketch.
        let stride = samples.len().div_ceil(SAMPLE_LIMIT).max(1);
        let mut sketch: Vec<K> = samples.iter().step_by(stride).copied().collect();
        sketch.sort_unstable();

        let mut boundaries = Vec::with_capacity(shards.saturating_sub(1));
        if sketch.len() >= shards && shards > 1 {
            for s in 1..shards {
                boundaries.push(sketch[s * sketch.len() / shards]);
            }
            boundaries.dedup();
        }
        RangePartitioner { boundaries, shards }
    }

    /// Fitted boundary keys (for diagnostics and tests).
    pub fn boundaries(&self) -> &[K] {
        &self.boundaries
    }

    /// Number of contiguous key segments.
    pub fn segments(&self) -> usize {
        self.boundaries.len() + 1
    }

    /// The segment `key` falls into.
    #[inline]
    pub fn segment_of(&self, key: K) -> usize {
        self.boundaries.partition_point(|b| *b <= key)
    }

    /// Key window of segment `seg` as `(lo, hi)`: `lo` inclusive (`None` =
    /// domain minimum), `hi` exclusive (`None` = domain maximum).
    pub fn segment_range(&self, seg: usize) -> (Option<K>, Option<K>) {
        let lo = seg.checked_sub(1).map(|i| self.boundaries[i]);
        let hi = self.boundaries.get(seg).copied();
        (lo, hi)
    }

    #[inline]
    pub fn shard_of(&self, key: K) -> usize {
        self.segment_of(key)
    }
}

/// Hash partitioning via a 64-bit finalizer (splitmix64) over the key's
/// radix bytes: adjacent keys land on unrelated shards.
#[derive(Debug, Clone)]
pub struct HashPartitioner {
    shards: usize,
}

impl HashPartitioner {
    pub fn new(shards: usize) -> Self {
        HashPartitioner {
            shards: shards.max(1),
        }
    }

    #[inline]
    pub fn shard_of<K: Key>(&self, key: K) -> usize {
        let x = u64::from_be_bytes(key.to_radix_bytes());
        (splitmix64(x) % self.shards as u64) as usize
    }
}

/// The splitmix64 finalizer: full-avalanche mixing of a 64-bit word.
#[inline]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfitted_range_routes_everything_to_shard_zero() {
        let p = Partitioner::<u64>::range(8);
        assert_eq!(p.shards(), 8);
        assert!(p.is_ordered());
        assert_eq!(p.scheme(), "range");
        for k in [0u64, 1, 1 << 40, u64::MAX] {
            assert_eq!(p.shard_of(k), 0);
        }
    }

    #[test]
    fn range_boundaries_track_the_sampled_cdf() {
        // Uniform keys: quantile boundaries split the domain evenly.
        let keys: Vec<u64> = (0..10_000u64).collect();
        let p = RangePartitioner::from_samples(&keys, 4);
        assert_eq!(p.boundaries().len(), 3);
        let mut counts = [0usize; 4];
        for &k in &keys {
            counts[p.shard_of(k)] += 1;
        }
        for c in counts {
            assert!(
                (2_000..=3_000).contains(&c),
                "uniform keys should spread evenly, got {counts:?}"
            );
        }
    }

    #[test]
    fn range_boundaries_adapt_to_skew() {
        // 90% of keys in a narrow band: quantiles put most boundaries there.
        let mut keys: Vec<u64> = (0..9_000u64).map(|i| 1_000_000 + i).collect();
        keys.extend((0..1_000u64).map(|i| i * 1_000_000_000));
        let p = RangePartitioner::from_samples(&keys, 8);
        let mut counts = vec![0usize; 8];
        for &k in &keys {
            counts[p.shard_of(k)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max <= keys.len() / 4,
            "no shard should own more than ~2x its fair share: {counts:?}"
        );
    }

    #[test]
    fn range_shard_of_is_monotone_in_the_key() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 31).collect();
        let p = RangePartitioner::from_samples(&keys, 7);
        let mut prev = 0usize;
        for &k in &keys {
            let s = p.shard_of(k);
            assert!(s >= prev, "range partitioning must preserve key order");
            assert!(s < 7);
            prev = s;
        }
    }

    #[test]
    fn degenerate_samples_leave_trailing_shards_empty() {
        // All-equal keys: boundaries collapse to at most one after dedup,
        // and every key still routes to a single valid shard.
        let keys = vec![42u64; 100];
        let p = RangePartitioner::from_samples(&keys, 4);
        assert!(p.boundaries().len() <= 1);
        assert!(p.shard_of(42) < 4);
        // Fewer samples than shards: also degenerate, still routable.
        let p = RangePartitioner::from_samples(&[1u64, 2], 8);
        for k in 0..10u64 {
            assert!(p.shard_of(k) < 8);
        }
    }

    #[test]
    fn hash_spreads_contiguous_keys() {
        let p = HashPartitioner::new(8);
        let mut counts = [0usize; 8];
        for k in 0..8_000u64 {
            counts[p.shard_of(k)] += 1;
        }
        for c in counts {
            assert!(
                (800..=1_200).contains(&c),
                "hash partitioning should spread a contiguous run: {counts:?}"
            );
        }
        assert!(!Partitioner::<u64>::hash(8).is_ordered());
        assert_eq!(Partitioner::<u64>::hash(8).scheme(), "hash");
    }

    #[test]
    fn refit_changes_range_but_not_hash() {
        let keys: Vec<u64> = (0..1_000u64).collect();
        let mut p = Partitioner::range(4);
        assert_eq!(p.shard_of(900), 0);
        p.refit(&keys);
        assert_eq!(p.shard_of(900), 3);
        let mut h = Partitioner::hash(4);
        let before = h.shard_of(900u64);
        h.refit(&keys);
        assert_eq!(h.shard_of(900u64), before);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(Partitioner::<u64>::range(0).shards(), 1);
        assert_eq!(Partitioner::<u64>::hash(0).shards(), 1);
    }

    #[test]
    fn fitted_partitioner_starts_with_identity_targets() {
        let keys: Vec<u64> = (0..10_000u64).collect();
        let p = RangePartitioner::from_samples(&keys, 4);
        assert_eq!(p.segments(), 4);
        for seg in 0..p.segments() {
            let (lo, hi) = p.segment_range(seg);
            assert_eq!(lo.is_none(), seg == 0);
            assert_eq!(hi.is_none(), seg == p.segments() - 1);
            assert_eq!(p.shard_of(lo.unwrap_or(0)), seg, "segment i is shard i");
            if let (Some(l), Some(h)) = (lo, hi) {
                assert!(l < h);
                assert_eq!(p.shard_of(h - 1), seg);
            }
        }
    }
}
