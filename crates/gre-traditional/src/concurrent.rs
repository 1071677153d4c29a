//! Concurrent derivatives of the traditional indexes.
//!
//! The paper evaluates B+TreeOLC, ART-OLC, HOT-ROWEX, Masstree and Wormhole
//! in its multi-threaded experiments (§4.2). The original C++ implementations
//! synchronize with optimistic lock coupling (OLC) or ROWEX protocols over
//! shared node memory. In safe Rust we substitute two schemes that preserve
//! the *observable* concurrency behaviour the paper analyses (see
//! "Substitutions" in `docs/BENCHMARKS.md`):
//!
//! * [`Sharded`] — the key space is range-partitioned into many shards, each
//!   an independent single-threaded index behind a reader-writer lock. Reads
//!   and writes to different regions proceed in parallel, which is the
//!   behaviour OLC/ROWEX deliver for tree indexes whose contention is spread
//!   across nodes. Used for B+TreeOLC, ART-OLC, HOT-ROWEX and Masstree.
//! * [`InnerLockIndex`] — a single reader-writer lock over the whole
//!   structure: reads scale, writes serialize. This models Wormhole's single
//!   inner-layer lock, whose write bottleneck the paper highlights
//!   (Figures 5 and 11).

use crate::art::Art;
use crate::btree::BPlusTree;
use crate::hot::Hot;
use crate::masstree::Masstree;
use crate::wormhole::Wormhole;
use gre_core::{ConcurrentIndex, Index, IndexMeta, Key, Payload, RangeSpec};
use parking_lot::RwLock;

/// Default shard count for the range-partitioned concurrent adapters.
pub const DEFAULT_SHARDS: usize = 64;

/// A range-partitioned concurrent adapter over a single-threaded index.
pub struct Sharded<K, I> {
    shards: Vec<RwLock<I>>,
    /// `boundaries[i]` is the smallest key of shard `i + 1`.
    boundaries: Vec<K>,
    name: &'static str,
}

impl<K: Key, I: Index<K> + Default> Sharded<K, I> {
    /// Create an adapter with `shards` empty shards.
    pub fn new(shards: usize, name: &'static str) -> Self {
        let shards = shards.max(1);
        Sharded {
            shards: (0..shards).map(|_| RwLock::new(I::default())).collect(),
            boundaries: Vec::new(),
            name,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_for(&self, key: K) -> usize {
        self.boundaries.partition_point(|b| *b <= key)
    }
}

impl<K: Key, I: Index<K> + Default + Sync> ConcurrentIndex<K> for Sharded<K, I> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        let shard_count = self.shards.len();
        // Pick boundaries at the entry quantiles so bulk data spreads evenly.
        self.boundaries.clear();
        if entries.len() >= shard_count && shard_count > 1 {
            for s in 1..shard_count {
                let idx = s * entries.len() / shard_count;
                self.boundaries.push(entries[idx].0);
            }
            self.boundaries.dedup();
        }
        // Partition the (sorted) entries into per-shard slices and load each.
        let mut start = 0usize;
        for s in 0..self.shards.len() {
            let end = if s < self.boundaries.len() {
                entries.partition_point(|e| e.0 < self.boundaries[s])
            } else {
                entries.len()
            };
            self.shards[s].get_mut().bulk_load(&entries[start..end]);
            start = end;
        }
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.shards[self.shard_for(key)].read().get(key)
    }

    fn insert(&self, key: K, value: Payload) -> bool {
        self.shards[self.shard_for(key)].write().insert(key, value)
    }

    /// Presence check and write run under one shard write lock, satisfying
    /// the trait's single-critical-section atomicity contract.
    fn update(&self, key: K, value: Payload) -> bool {
        self.shards[self.shard_for(key)].write().update(key, value)
    }

    fn remove(&self, key: K) -> Option<Payload> {
        self.shards[self.shard_for(key)].write().remove(key)
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        let mut shard = self.shard_for(spec.start);
        let mut remaining = spec.count;
        while shard < self.shards.len() && remaining > 0 {
            let got = self.shards[shard]
                .read()
                .range(RangeSpec::new(spec.start, remaining), out);
            remaining -= got;
            shard += 1;
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn memory_usage(&self) -> usize {
        self.shards.iter().map(|s| s.read().memory_usage()).sum()
    }

    fn meta(&self) -> IndexMeta {
        let mut meta = self.shards[0].read().meta();
        meta.name = self.name;
        meta.concurrent = true;
        meta
    }
}

/// A concurrent adapter with a single structure-wide reader-writer lock:
/// lookups scale across threads while writers serialize (Wormhole's
/// inner-layer lock behaviour).
pub struct InnerLockIndex<I> {
    inner: RwLock<I>,
    name: &'static str,
    supports_delete: bool,
}

impl<I> InnerLockIndex<I> {
    pub fn new(inner: I, name: &'static str, supports_delete: bool) -> Self {
        InnerLockIndex {
            inner: RwLock::new(inner),
            name,
            supports_delete,
        }
    }
}

impl<K: Key, I: Index<K> + Sync> ConcurrentIndex<K> for InnerLockIndex<I> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.inner.get_mut().bulk_load(entries);
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.inner.read().get(key)
    }

    fn insert(&self, key: K, value: Payload) -> bool {
        self.inner.write().insert(key, value)
    }

    /// One structure-wide write lock covers the whole check-then-write.
    fn update(&self, key: K, value: Payload) -> bool {
        self.inner.write().update(key, value)
    }

    fn remove(&self, key: K) -> Option<Payload> {
        self.inner.write().remove(key)
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        self.inner.read().range(spec, out)
    }

    fn len(&self) -> usize {
        self.inner.read().len()
    }

    fn memory_usage(&self) -> usize {
        self.inner.read().memory_usage()
    }

    fn meta(&self) -> IndexMeta {
        let mut meta = self.inner.read().meta();
        meta.name = self.name;
        meta.concurrent = true;
        meta.supports_delete = self.supports_delete;
        meta
    }
}

/// B+TreeOLC: the concurrent B+-tree with leaf side-links (§3.1).
pub type BPlusTreeOlc<K> = Sharded<K, BPlusTree<K>>;

/// ART-OLC: ART with optimistic lock coupling and epoch reclamation (§3.1).
pub type ArtOlc<K> = Sharded<K, Art<K>>;

/// HOT-ROWEX: HOT with read-optimised write exclusion (§3.1).
pub type HotRowex<K> = Sharded<K, Hot<K>>;

/// Concurrent Masstree.
pub type MasstreeConcurrent<K> = Sharded<K, Masstree<K>>;

/// Concurrent Wormhole with its single inner-layer lock.
pub type WormholeConcurrent<K> = InnerLockIndex<Wormhole<K>>;

/// Construct B+TreeOLC.
pub fn btree_olc<K: Key>() -> BPlusTreeOlc<K> {
    Sharded::new(DEFAULT_SHARDS, "B+treeOLC")
}

/// Construct ART-OLC.
pub fn art_olc<K: Key>() -> ArtOlc<K> {
    Sharded::new(DEFAULT_SHARDS, "ART-OLC")
}

/// Construct HOT-ROWEX.
pub fn hot_rowex<K: Key>() -> HotRowex<K> {
    Sharded::new(DEFAULT_SHARDS, "HOT-ROWEX")
}

/// Construct the concurrent Masstree.
pub fn masstree_concurrent<K: Key>() -> MasstreeConcurrent<K> {
    Sharded::new(DEFAULT_SHARDS, "Masstree")
}

/// Construct the concurrent Wormhole.
pub fn wormhole_concurrent<K: Key>() -> WormholeConcurrent<K> {
    InnerLockIndex::new(Wormhole::default(), "Wormhole", false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 10, i)).collect()
    }

    #[test]
    fn sharded_bulk_load_partitions_by_key_range() {
        let mut idx: BPlusTreeOlc<u64> = btree_olc();
        ConcurrentIndex::bulk_load(&mut idx, &entries(10_000));
        assert_eq!(idx.len(), 10_000);
        assert_eq!(idx.shard_count(), DEFAULT_SHARDS);
        for i in (0..10_000).step_by(101) {
            assert_eq!(idx.get(i * 10), Some(i));
        }
        assert_eq!(idx.meta().name, "B+treeOLC");
        assert!(idx.meta().concurrent);
    }

    #[test]
    fn sharded_concurrent_inserts_do_not_lose_keys() {
        let mut idx: ArtOlc<u64> = art_olc();
        ConcurrentIndex::bulk_load(&mut idx, &entries(1_000));
        let idx = Arc::new(idx);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        idx.insert(1_000_000 + t * 1_000_000 + i, i);
                    }
                });
            }
        });
        assert_eq!(idx.len(), 1_000 + 4 * 2_000);
        for t in 0..4u64 {
            for i in (0..2_000u64).step_by(97) {
                assert_eq!(idx.get(1_000_000 + t * 1_000_000 + i), Some(i));
            }
        }
    }

    #[test]
    fn sharded_range_crosses_shard_boundaries() {
        let mut idx: BPlusTreeOlc<u64> = btree_olc();
        ConcurrentIndex::bulk_load(&mut idx, &entries(10_000));
        let mut out = Vec::new();
        let got = idx.range(RangeSpec::new(0, 5_000), &mut out);
        assert_eq!(got, 5_000);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out[0].0, 0);
        assert_eq!(out.last().unwrap().0, 4_999 * 10);
    }

    #[test]
    fn sharded_removals() {
        let mut idx: HotRowex<u64> = hot_rowex();
        ConcurrentIndex::bulk_load(&mut idx, &entries(2_000));
        for i in 0..1_000u64 {
            assert_eq!(idx.remove(i * 10), Some(i));
        }
        assert_eq!(idx.len(), 1_000);
        assert!(idx.memory_usage() > 0);
    }

    #[test]
    fn inner_lock_wormhole_serializes_but_stays_correct() {
        let mut idx: WormholeConcurrent<u64> = wormhole_concurrent();
        ConcurrentIndex::bulk_load(&mut idx, &entries(1_000));
        let idx = Arc::new(idx);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                s.spawn(move || {
                    for i in 0..500u64 {
                        idx.insert(100_000 + t * 100_000 + i, i);
                        idx.get(i * 10);
                    }
                });
            }
        });
        assert_eq!(idx.len(), 1_000 + 4 * 500);
        assert_eq!(idx.meta().name, "Wormhole");
        assert!(!idx.meta().supports_delete);
    }

    #[test]
    fn masstree_concurrent_smoke() {
        let mut idx: MasstreeConcurrent<u64> = masstree_concurrent();
        ConcurrentIndex::bulk_load(&mut idx, &entries(5_000));
        assert_eq!(idx.get(40), Some(4));
        idx.insert(41, 99);
        assert_eq!(idx.get(41), Some(99));
        let mut out = Vec::new();
        assert_eq!(idx.range(RangeSpec::new(35, 3), &mut out), 3);
    }
}
