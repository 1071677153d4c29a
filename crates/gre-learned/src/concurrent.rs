//! ALEX+ and LIPP+ — the concurrent derivatives this paper contributes.
//!
//! The paper parallelizes ALEX by adapting APEX's protocol (per-data-node
//! optimistic locks, lock-free traversals, out-of-place SMOs) and LIPP with
//! item-level optimistic locks; it then shows that ALEX+ scales while LIPP+
//! does not, because LIPP's unified node layout forces every insert to update
//! statistics in every node on its path (§4.2).
//!
//! In safe Rust both are [`gre_core::Partitioned`] over the single-threaded
//! index — the same partition-lock adapter the concurrent traditional indexes
//! run on (the substitution is disclosed in `docs/BENCHMARKS.md`): 64
//! `RwLock`-guarded key ranges, so writers touching different data regions
//! never contend (the effect per-data-node locking achieves in ALEX+). LIPP+
//! additionally updates a set of *shared* path-statistics counters on every
//! insert — the exact source of cache-line contention the paper identifies —
//! so its write path degrades under concurrency while ALEX+'s does not.

use crate::alex::Alex;
use crate::lipp::Lipp;
use gre_core::{ConcurrentIndex, IndexMeta, Key, Partitionable, Partitioned, Payload, RangeSpec};
use std::sync::atomic::{AtomicU64, Ordering};

/// ALEX+: the concurrent ALEX.
pub type AlexPlus<K> = Partitioned<K, Alex<K>>;

impl<K: Key> Partitionable<K> for Lipp<K> {
    const CONCURRENT_NAME: &'static str = "LIPP+";
}

/// Number of levels of shared statistics LIPP+ touches per insert
/// (root + a couple of inner nodes on a typical path).
const LIPP_STAT_LEVELS: usize = 3;

/// LIPP+: the concurrent LIPP (the paper's takes item-level optimistic
/// locks; this one is partition-locked like ALEX+).
///
/// Writers lock only their partition. Crucially — and faithfully to the
/// paper's analysis — every insert also updates the shared per-level
/// statistics words below, which all writer threads contend on (the root
/// node's statistics in particular), capping insert scalability.
pub struct LippPlus<K: Key> {
    inner: Partitioned<K, Lipp<K>>,
    /// Shared per-level statistics (insert and conflict counters); the root
    /// level is written by every insert from every thread.
    path_stats: [AtomicU64; LIPP_STAT_LEVELS],
}

impl<K: Key> Default for LippPlus<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> LippPlus<K> {
    pub fn new() -> Self {
        LippPlus {
            inner: Partitioned::new(),
            path_stats: Default::default(),
        }
    }

    /// Total number of statistics updates performed (diagnostic).
    pub fn stat_updates(&self) -> u64 {
        self.path_stats
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum()
    }
}

impl<K: Key> ConcurrentIndex<K> for LippPlus<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.inner.bulk_load(entries);
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.inner.get(key)
    }

    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        self.inner.get_batch(keys, out);
    }

    fn insert(&self, key: K, value: Payload) -> bool {
        // Update the statistics on every level of the (conceptual) insertion
        // path. These are shared across all threads: the atomic writes to the
        // root-level word are the cache-line ping-pong the paper blames for
        // LIPP+'s poor insert scalability.
        for stat in &self.path_stats {
            stat.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.insert(key, value)
    }

    /// Updates do not touch the shared path statistics — the paper charges
    /// only structure-modifying inserts with the per-level statistics writes.
    fn update(&self, key: K, value: Payload) -> bool {
        self.inner.update(key, value)
    }

    fn remove(&self, key: K) -> Option<Payload> {
        self.inner.remove(key)
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        self.inner.range(spec, out)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn memory_usage(&self) -> usize {
        self.inner.memory_usage()
    }

    fn meta(&self) -> IndexMeta {
        self.inner.meta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 10, i)).collect()
    }

    #[test]
    fn alex_plus_bulk_and_point_ops() {
        let mut a: AlexPlus<u64> = AlexPlus::new();
        ConcurrentIndex::bulk_load(&mut a, &entries(20_000));
        assert_eq!(a.len(), 20_000);
        for i in (0..20_000).step_by(173) {
            assert_eq!(a.get(i * 10), Some(i));
        }
        assert!(a.insert(5, 55));
        assert_eq!(a.get(5), Some(55));
        assert_eq!(a.remove(5), Some(55));
        assert_eq!(a.meta().name, "ALEX+");
    }

    #[test]
    fn alex_plus_concurrent_inserts() {
        let mut a: AlexPlus<u64> = AlexPlus::new();
        ConcurrentIndex::bulk_load(&mut a, &entries(10_000));
        let a = Arc::new(a);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let a = Arc::clone(&a);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let key = 1_000_000 + t * 1_000_000 + i * 3;
                        a.insert(key, i);
                        assert_eq!(a.get(key), Some(i));
                    }
                });
            }
        });
        assert_eq!(a.len(), 10_000 + 8_000);
    }

    #[test]
    fn alex_plus_get_batch_matches_scalar_across_partitions() {
        let mut a: AlexPlus<u64> = AlexPlus::new();
        ConcurrentIndex::bulk_load(&mut a, &entries(20_000));
        // Keys spanning every partition, out of order, with misses and a
        // duplicate; length deliberately not a multiple of the batch width.
        let mut keys: Vec<u64> = (0..777u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) % 22_000) * 10 + (i % 2))
            .collect();
        keys.push(keys[3]);
        let mut batched = vec![Some(123)]; // stale content must be cleared
        a.get_batch(&keys, &mut batched);
        let scalar: Vec<_> = keys.iter().map(|&k| a.get(k)).collect();
        assert_eq!(batched, scalar);
        assert!(batched.iter().any(|r| r.is_some()));
        assert!(batched.iter().any(|r| r.is_none()));
    }

    #[test]
    fn alex_plus_range_crosses_partitions() {
        let mut a: AlexPlus<u64> = AlexPlus::new();
        ConcurrentIndex::bulk_load(&mut a, &entries(10_000));
        let mut out = Vec::new();
        assert_eq!(a.range(RangeSpec::new(0, 3_000), &mut out), 3_000);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn lipp_plus_basic_and_stat_contention_counter() {
        let mut l: LippPlus<u64> = LippPlus::new();
        ConcurrentIndex::bulk_load(&mut l, &entries(10_000));
        assert_eq!(l.len(), 10_000);
        for i in (0..10_000).step_by(97) {
            assert_eq!(l.get(i * 10), Some(i));
        }
        let before = l.stat_updates();
        l.insert(3, 3);
        assert!(l.stat_updates() > before);
        assert_eq!(l.meta().name, "LIPP+");
    }

    #[test]
    fn lipp_plus_concurrent_inserts() {
        let mut l: LippPlus<u64> = LippPlus::new();
        ConcurrentIndex::bulk_load(&mut l, &entries(5_000));
        let l = Arc::new(l);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let l = Arc::clone(&l);
                s.spawn(move || {
                    for i in 0..1_500u64 {
                        let key = 2_000_000 + t * 2_000_000 + i;
                        l.insert(key, i);
                        assert_eq!(l.get(key), Some(i));
                    }
                });
            }
        });
        assert_eq!(l.len(), 5_000 + 6_000);
        assert!(l.stat_updates() >= 6_000 * LIPP_STAT_LEVELS as u64);
    }
}
