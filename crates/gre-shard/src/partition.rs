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
    /// segment APIs (split/reassign, segment walks) only exist there; hash
    /// partitioning has no boundary table to edit.
    pub fn as_range(&self) -> Option<&RangePartitioner<K>> {
        match self {
            Partitioner::Range(p) => Some(p),
            Partitioner::Hash(_) => None,
        }
    }

    /// Mutable access to the range partitioner inside, for topology edits
    /// on a cloned table before an atomic routing swap.
    pub fn as_range_mut(&mut self) -> Option<&mut RangePartitioner<K>> {
        match self {
            Partitioner::Range(p) => Some(p),
            Partitioner::Hash(_) => None,
        }
    }
}

/// Range partitioning over **segments**: the boundary table cuts the key
/// domain into `boundaries.len() + 1` contiguous segments, and a parallel
/// `targets` table maps each segment to the shard that serves it.
///
/// Freshly fitted partitioners use the identity assignment (segment `i` →
/// shard `i`), which keeps `shard_of` monotone in the key — the property the
/// bulk-load slicing in `ShardedIndex` relies on. Elastic topology changes
/// ([`RangePartitioner::split_at`], [`RangePartitioner::reassign`]) edit the
/// tables afterwards, so a shard may end up serving several disjoint
/// segments and monotonicity no longer holds; cross-shard range scans must
/// therefore walk *segments* (in key order), not shards.
#[derive(Debug, Clone)]
pub struct RangePartitioner<K> {
    /// `boundaries[i]` is the smallest key of segment `i + 1`; strictly
    /// increasing. Starts at most `shards - 1` long (shorter when the
    /// sample had too few distinct keys) and grows/shrinks under splits
    /// and merges.
    boundaries: Vec<K>,
    /// `targets[i]` is the shard serving segment `i`;
    /// `targets.len() == boundaries.len() + 1`, every value `< shards`.
    targets: Vec<usize>,
    shards: usize,
}

impl<K: Key> RangePartitioner<K> {
    /// A partitioner with no boundaries: all keys route to shard 0.
    pub fn unfitted(shards: usize) -> Self {
        RangePartitioner {
            boundaries: Vec::new(),
            targets: vec![0],
            shards: shards.max(1),
        }
    }

    /// Fit boundaries at the quantiles of the sampled key CDF so each shard
    /// owns an (approximately) equal share of the observed keys. Segments
    /// are assigned to shards identically (segment `i` → shard `i`).
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
        let targets = (0..=boundaries.len()).collect();
        RangePartitioner {
            boundaries,
            targets,
            shards,
        }
    }

    /// Fitted boundary keys (for diagnostics and tests).
    pub fn boundaries(&self) -> &[K] {
        &self.boundaries
    }

    /// Per-segment shard assignment (for diagnostics and tests).
    pub fn targets(&self) -> &[usize] {
        &self.targets
    }

    /// Number of contiguous key segments.
    pub fn segments(&self) -> usize {
        self.targets.len()
    }

    /// The segment `key` falls into.
    #[inline]
    pub fn segment_of(&self, key: K) -> usize {
        self.boundaries.partition_point(|b| *b <= key)
    }

    /// The shard serving segment `seg`.
    #[inline]
    pub fn segment_target(&self, seg: usize) -> usize {
        self.targets[seg]
    }

    /// Key window of segment `seg` as `(lo, hi)`: `lo` inclusive (`None` =
    /// domain minimum), `hi` exclusive (`None` = domain maximum).
    pub fn segment_range(&self, seg: usize) -> (Option<K>, Option<K>) {
        let lo = seg.checked_sub(1).map(|i| self.boundaries[i]);
        let hi = self.boundaries.get(seg).copied();
        (lo, hi)
    }

    /// Segments currently served by `shard`, in key order.
    pub fn segments_of_shard(&self, shard: usize) -> Vec<usize> {
        (0..self.segments())
            .filter(|&s| self.targets[s] == shard)
            .collect()
    }

    /// Split segment `seg` at `mid`: the lower half `[lo, mid)` keeps the
    /// current target, the upper half `[mid, hi)` moves to shard `to`.
    /// `mid` must fall strictly inside the segment and `to` must be a valid
    /// shard; on violation the partitioner is left unchanged.
    pub fn split_at(&mut self, seg: usize, mid: K, to: usize) -> Result<(), &'static str> {
        if seg >= self.segments() {
            return Err("segment id out of range");
        }
        if to >= self.shards {
            return Err("target shard out of range");
        }
        let (lo, hi) = self.segment_range(seg);
        if lo.is_some_and(|l| mid <= l) || hi.is_some_and(|h| mid >= h) {
            return Err("split key not strictly inside the segment");
        }
        self.boundaries.insert(seg, mid);
        self.targets.insert(seg + 1, to);
        self.coalesce();
        Ok(())
    }

    /// Reassign segment `seg` to shard `to`, then drop any boundary whose
    /// two sides now share a target (the merge primitive: pointing a cold
    /// segment at its neighbour's shard coalesces the pair).
    pub fn reassign(&mut self, seg: usize, to: usize) -> Result<(), &'static str> {
        if seg >= self.segments() {
            return Err("segment id out of range");
        }
        if to >= self.shards {
            return Err("target shard out of range");
        }
        self.targets[seg] = to;
        self.coalesce();
        Ok(())
    }

    /// Remove boundaries between adjacent segments with the same target.
    fn coalesce(&mut self) {
        let mut i = 0;
        while i + 1 < self.targets.len() {
            if self.targets[i] == self.targets[i + 1] {
                self.targets.remove(i + 1);
                self.boundaries.remove(i);
            } else {
                i += 1;
            }
        }
    }

    #[inline]
    pub fn shard_of(&self, key: K) -> usize {
        self.targets[self.segment_of(key)]
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
        assert_eq!(p.targets(), &[0, 1, 2, 3]);
        for seg in 0..p.segments() {
            assert_eq!(p.segment_target(seg), seg);
            let (lo, hi) = p.segment_range(seg);
            assert_eq!(lo.is_none(), seg == 0);
            assert_eq!(hi.is_none(), seg == p.segments() - 1);
            if let (Some(l), Some(h)) = (lo, hi) {
                assert!(l < h);
            }
        }
        assert_eq!(p.segments_of_shard(2), vec![2]);
    }

    #[test]
    fn split_moves_the_upper_half_to_the_target_shard() {
        let keys: Vec<u64> = (0..8_000u64).collect();
        let mut p = RangePartitioner::from_samples(&keys, 4);
        let (lo, hi) = p.segment_range(1);
        let (lo, hi) = (lo.unwrap(), hi.unwrap());
        let mid = (lo + hi) / 2;
        p.split_at(1, mid, 3).expect("legal split");
        assert_eq!(p.segments(), 5);
        // Lower half keeps shard 1, upper half now routes to shard 3.
        assert_eq!(p.shard_of(lo), 1);
        assert_eq!(p.shard_of(mid - 1), 1);
        assert_eq!(p.shard_of(mid), 3);
        assert_eq!(p.shard_of(hi - 1), 3);
        assert_eq!(p.shard_of(hi), 2);
        assert_eq!(p.segments_of_shard(3), vec![2, 4]);

        // Illegal splits leave the table unchanged.
        assert!(p.split_at(99, mid, 0).is_err());
        assert!(p.split_at(1, lo, 0).is_err(), "mid == segment lo");
        assert!(p.split_at(0, mid, 99).is_err(), "bad target shard");
        assert_eq!(p.segments(), 5);
    }

    #[test]
    fn reassign_coalesces_equal_target_neighbours() {
        let keys: Vec<u64> = (0..8_000u64).collect();
        let mut p = RangePartitioner::from_samples(&keys, 4);
        let (_, hi1) = p.segment_range(1);
        // Fold segment 1 into shard 2: boundary between 1 and 2 disappears.
        p.reassign(1, 2).expect("legal reassign");
        assert_eq!(p.segments(), 3);
        assert_eq!(p.targets(), &[0, 2, 3]);
        assert_eq!(p.shard_of(hi1.unwrap() - 1), 2);
        assert!(p.reassign(99, 0).is_err());
        assert!(p.reassign(0, 99).is_err());
    }

    #[test]
    fn split_then_merge_round_trips_routing() {
        let keys: Vec<u64> = (0..8_000u64).collect();
        let mut p = RangePartitioner::from_samples(&keys, 4);
        let before: Vec<usize> = keys.iter().map(|&k| p.shard_of(k)).collect();
        let (lo, hi) = p.segment_range(2);
        let mid = (lo.unwrap() + hi.unwrap()) / 2;
        p.split_at(2, mid, 0).unwrap();
        // Undo: point the new segment back at shard 2; coalescing removes
        // the split boundary again.
        let seg = p.segment_of(mid);
        p.reassign(seg, 2).unwrap();
        let after: Vec<usize> = keys.iter().map(|&k| p.shard_of(k)).collect();
        assert_eq!(before, after);
    }
}
