//! The index trait surface every evaluated structure implements.
//!
//! The GRE benchmark drives all indexes through the same operation set:
//! bulk load, point lookup, insert, delete, range scan, plus memory and
//! statistics reporting. Single-threaded indexes implement [`Index`]
//! (`&mut self` operations); concurrent derivatives implement
//! [`ConcurrentIndex`] (`&self`, `Send + Sync`). The paper's concurrent
//! contenders (ALEX+, LIPP+, XIndex, FINEdex, ART/p64, B+tree/p64, HOT/p64,
//! Masstree, Wormhole) are all [`Partitioned`](crate::Partitioned) over an
//! [`Index`].

use crate::key::{Key, Payload};
use crate::stats::{OpCounters, StatsSnapshot};
use std::collections::BTreeMap;

/// Descriptive metadata about an index implementation, used by the harness
/// when printing tables (Table 1 of the paper) and heatmap legends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexMeta {
    /// Human-readable name as it appears in the paper ("ALEX", "LIPP+", …).
    pub name: &'static str,
    /// Whether this is a learned index (true) or a traditional one (false).
    pub learned: bool,
    /// Whether the structure supports concurrent operation.
    pub concurrent: bool,
    /// Whether deletions are implemented (the paper excludes several indexes
    /// from deletion experiments).
    pub supports_delete: bool,
    /// Whether range scans are implemented (Figure 13 only includes these).
    pub supports_range: bool,
}

/// A range scan request: fetch up to `count` entries with keys `>= start`
/// (and `<= end`, when an inclusive end bound is set).
///
/// The count-limited form matches the paper's range-query experiment (§6.3):
/// "Each query picks a random start key K and fetches a fixed number of keys
/// starting from K." The optional [`end`](RangeSpec::end) bound serves the
/// serving-layer API, where clients scan key windows rather than fixed key
/// counts; [`RangeSpec::bounded`] sets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeSpec<K> {
    pub start: K,
    pub count: usize,
    /// Inclusive upper key bound. `None` means count-limited only.
    pub end: Option<K>,
}

impl<K: Key> RangeSpec<K> {
    /// Count-limited scan: up to `count` entries with keys `>= start`.
    pub fn new(start: K, count: usize) -> Self {
        RangeSpec {
            start,
            count,
            end: None,
        }
    }

    /// Bounded scan: up to `count` entries with keys in `[start, end]`.
    pub fn bounded(start: K, end: K, count: usize) -> Self {
        RangeSpec {
            start,
            count,
            end: Some(end),
        }
    }

    /// Whether `key` falls inside this spec's key window.
    #[inline]
    pub fn admits(&self, key: K) -> bool {
        key >= self.start && self.end.map_or(true, |e| key <= e)
    }

    /// Drop the (sorted, ascending) tail of `out` that overshot this spec's
    /// key window — backends may honor only the count limit and leave the
    /// inclusive end bound to the caller.
    pub fn clip(&self, out: &mut Vec<(K, Payload)>) {
        if self.end.is_some() {
            while out.last().is_some_and(|&(k, _)| !self.admits(k)) {
                out.pop();
            }
        }
    }
}

/// Single-threaded updatable index over `(K, Payload)` pairs.
pub trait Index<K: Key>: Send {
    /// Bulk load from a slice sorted by strictly ascending key.
    ///
    /// Implementations may assume sortedness; the harness validates inputs.
    fn bulk_load(&mut self, entries: &[(K, Payload)]);

    /// Point lookup. Returns the payload of `key` if present. For indexes
    /// configured to store duplicates, any one matching payload is returned.
    fn get(&self, key: K) -> Option<Payload>;

    /// Insert a key/payload pair. Returns `true` if the key was newly
    /// inserted, `false` if an existing key's payload was updated in place
    /// (or, for duplicate-supporting configurations, appended).
    fn insert(&mut self, key: K, value: Payload) -> bool;

    /// Update the payload of an existing key in place. Returns `false` if the
    /// key is absent, and never inserts it.
    ///
    /// The default runs `get`, then `insert`: two searches, and the insert's
    /// bookkeeping. An index that counts or times its inserts must therefore
    /// override it, or its updates are counted as inserts. ALEX, the B+tree,
    /// Masstree, XIndex and FINEdex override it; LIPP, PGM, ART, HOT and
    /// Wormhole use the default.
    fn update(&mut self, key: K, value: Payload) -> bool {
        if self.get(key).is_some() {
            self.insert(key, value);
            true
        } else {
            false
        }
    }

    /// Remove a key. Returns its payload if it was present.
    fn remove(&mut self, key: K) -> Option<Payload>;

    /// Range scan: append up to `spec.count` entries with key `>= spec.start`
    /// in ascending key order to `out`, returning the number appended.
    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize;

    /// Number of entries currently stored.
    fn len(&self) -> usize;

    /// True when no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// End-to-end memory consumption in bytes, including the leaf layer
    /// (the paper's §5 measures end-to-end space, not just inner nodes).
    fn memory_usage(&self) -> usize;

    /// Statistics accumulated since construction (most indexes restart
    /// them on `bulk_load`). Of the benchmarked indexes only ALEX and LIPP
    /// keep any; the others report this empty default.
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::default()
    }

    /// Index metadata for reporting.
    fn meta(&self) -> IndexMeta;
}

/// Concurrent updatable index: same operation set, `&self` receivers.
pub trait ConcurrentIndex<K: Key>: Send + Sync {
    /// Bulk load from a sorted slice. Called before concurrent operation
    /// starts, so it takes `&mut self`.
    fn bulk_load(&mut self, entries: &[(K, Payload)]);

    /// Point lookup.
    fn get(&self, key: K) -> Option<Payload>;

    /// Batched point lookup: `out[i]` is the result of `get(keys[i])`.
    ///
    /// The default is the scalar loop, so every backend gets the batched
    /// entry point for free and callers (the `gre-shard` request pipeline,
    /// harness binaries) can always hand over a group of keys.
    /// [`Partitioned`](crate::Partitioned) overrides it: it read-locks every
    /// partition the keys touch, once each, and runs one two-stage probe over
    /// the whole batch (predict and prefetch a group of keys, then finish
    /// their last-mile searches), which ALEX+ fills with its model search.
    ///
    /// # Contract
    ///
    /// `out` is cleared first; afterwards `out.len() == keys.len()` and each
    /// `out[i]` equals what a scalar `get(keys[i])` at some point during the
    /// call would have returned. Duplicated keys are looked up once each, in
    /// order. A `Partitioned` batch answers every key under read guards held
    /// for the whole call, so all its answers come from one instant of the
    /// partitions they read.
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        out.clear();
        out.extend(keys.iter().map(|&k| self.get(k)));
    }

    /// Insert or update.
    fn insert(&self, key: K, value: Payload) -> bool;

    /// Update payload of an existing key; `false` if absent.
    ///
    /// # Atomicity contract
    ///
    /// An implementation must make the presence check and the payload write
    /// appear as **one** atomic step with respect to other operations on the
    /// same key: a concurrent `update`/`insert`/`remove` of that key may be
    /// ordered before or after it, but never in between.
    ///
    /// This method is deliberately **required** (no provided default): the
    /// obvious `get`-then-`insert` composition spans two critical sections,
    /// so a racing `remove` can slip in between (resurrecting the key) and a
    /// racing `update` can be lost. Every backend must implement a
    /// single-critical-section version — see [`MutexIndex`] for the minimal
    /// correct shape.
    fn update(&self, key: K, value: Payload) -> bool;

    /// Remove a key.
    fn remove(&self, key: K) -> Option<Payload>;

    /// Range scan.
    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize;

    /// Number of entries (may be approximate while writers are active).
    fn len(&self) -> usize;

    /// True when no entries are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// End-to-end memory consumption in bytes.
    fn memory_usage(&self) -> usize;

    /// Index metadata for reporting.
    fn meta(&self) -> IndexMeta;
}

/// Boxed single-threaded indexes are indexes: forwarding impl so harness
/// code can treat `Box<dyn Index<K>>` (and boxes of concrete indexes)
/// uniformly with unboxed backends. Forwards every method, including the
/// defaulted ones, so overrides in the boxed type are preserved.
impl<K: Key, T: Index<K> + ?Sized> Index<K> for Box<T> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        (**self).bulk_load(entries);
    }
    fn get(&self, key: K) -> Option<Payload> {
        (**self).get(key)
    }
    fn insert(&mut self, key: K, value: Payload) -> bool {
        (**self).insert(key, value)
    }
    fn update(&mut self, key: K, value: Payload) -> bool {
        (**self).update(key, value)
    }
    fn remove(&mut self, key: K) -> Option<Payload> {
        (**self).remove(key)
    }
    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        (**self).range(spec, out)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    fn memory_usage(&self) -> usize {
        (**self).memory_usage()
    }
    fn stats(&self) -> StatsSnapshot {
        (**self).stats()
    }
    fn meta(&self) -> IndexMeta {
        (**self).meta()
    }
}

/// Boxed concurrent indexes are concurrent indexes. This is what lets a
/// composite structure (e.g. `gre-shard`'s `ShardedIndex`) hold
/// `Box<dyn ConcurrentIndex<K>>` backends chosen at runtime while itself
/// implementing `ConcurrentIndex<K>`.
impl<K: Key, T: ConcurrentIndex<K> + ?Sized> ConcurrentIndex<K> for Box<T> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        (**self).bulk_load(entries);
    }
    fn get(&self, key: K) -> Option<Payload> {
        (**self).get(key)
    }
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        (**self).get_batch(keys, out);
    }
    fn insert(&self, key: K, value: Payload) -> bool {
        (**self).insert(key, value)
    }
    fn update(&self, key: K, value: Payload) -> bool {
        (**self).update(key, value)
    }
    fn remove(&self, key: K) -> Option<Payload> {
        (**self).remove(key)
    }
    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        (**self).range(spec, out)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn is_empty(&self) -> bool {
        (**self).is_empty()
    }
    fn memory_usage(&self) -> usize {
        (**self).memory_usage()
    }
    fn meta(&self) -> IndexMeta {
        (**self).meta()
    }
}

/// Blanket adapter: any single-threaded index wrapped in a global mutex
/// becomes a (trivially serialized) concurrent index. The harness uses this
/// only for sanity checks, never for the scalability experiments.
pub struct MutexIndex<I> {
    inner: parking_lot::Mutex<I>,
    name: &'static str,
}

impl<I> MutexIndex<I> {
    pub fn new(inner: I, name: &'static str) -> Self {
        MutexIndex {
            inner: parking_lot::Mutex::new(inner),
            name,
        }
    }

    /// The wrapped index's statistics.
    pub fn stats<K: Key>(&self) -> StatsSnapshot
    where
        I: Index<K>,
    {
        self.inner.lock().stats()
    }
}

impl<K: Key, I: Index<K>> ConcurrentIndex<K> for MutexIndex<I> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.inner.get_mut().bulk_load(entries);
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.inner.lock().get(key)
    }

    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        // One lock() for the whole batch instead of one per key.
        let inner = self.inner.lock();
        out.clear();
        out.extend(keys.iter().map(|&k| inner.get(k)));
    }

    fn insert(&self, key: K, value: Payload) -> bool {
        self.inner.lock().insert(key, value)
    }

    fn update(&self, key: K, value: Payload) -> bool {
        // One lock() for the whole check-then-write, satisfying the trait's
        // atomicity contract; the defaulted get-then-insert would open a
        // lost-update window between its two critical sections.
        self.inner.lock().update(key, value)
    }

    fn remove(&self, key: K) -> Option<Payload> {
        self.inner.lock().remove(key)
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        self.inner.lock().range(spec, out)
    }

    fn len(&self) -> usize {
        self.inner.lock().len()
    }

    fn memory_usage(&self) -> usize {
        self.inner.lock().memory_usage()
    }

    fn meta(&self) -> IndexMeta {
        let mut meta = self.inner.lock().meta();
        meta.name = self.name;
        meta.concurrent = true;
        meta
    }
}

/// The reference index: a `BTreeMap` with the full operation set. Tests
/// across the workspace use it as the model real indexes are compared
/// against and as the backend of serving-layer tests (lifted to
/// [`ConcurrentIndex`] by [`MutexIndex`]). It counts inserts, so adapter
/// stats forwarding is observable.
#[derive(Default)]
pub struct ModelIndex {
    map: BTreeMap<u64, Payload>,
    counters: OpCounters,
}

impl Index<u64> for ModelIndex {
    fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
        self.map = entries.iter().copied().collect();
    }
    fn get(&self, key: u64) -> Option<Payload> {
        self.map.get(&key).copied()
    }
    fn insert(&mut self, key: u64, value: Payload) -> bool {
        self.counters.inserts += 1;
        self.map.insert(key, value).is_none()
    }
    fn remove(&mut self, key: u64) -> Option<Payload> {
        self.map.remove(&key)
    }
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::new(self.counters)
    }
    fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
        let before = out.len();
        out.extend(
            self.map
                .range(spec.start..)
                .take_while(|(k, _)| spec.end.map_or(true, |e| **k <= e))
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
            name: "model",
            learned: false,
            concurrent: false,
            supports_delete: true,
            supports_range: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_index_basics() {
        let mut idx = ModelIndex::default();
        idx.bulk_load(&[(1, 10), (5, 50), (9, 90)]);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        assert_eq!(idx.get(5), Some(50));
        assert_eq!(idx.get(4), None);
        assert!(idx.insert(4, 40));
        assert!(!idx.insert(4, 41));
        assert!(idx.update(4, 42));
        assert!(!idx.update(100, 1));
        assert_eq!(idx.remove(4), Some(42));
        let mut out = Vec::new();
        assert_eq!(idx.range(RangeSpec::new(2, 10), &mut out), 2);
        assert_eq!(out, vec![(5, 50), (9, 90)]);
    }

    #[test]
    fn mutex_adapter_serializes_access() {
        let mut wrapped = MutexIndex::new(ModelIndex::default(), "model-mutex");
        ConcurrentIndex::bulk_load(&mut wrapped, &[(1, 1), (2, 2)]);
        assert_eq!(ConcurrentIndex::get(&wrapped, 1), Some(1));
        assert!(ConcurrentIndex::insert(&wrapped, 3, 3));
        assert!(ConcurrentIndex::update(&wrapped, 3, 33));
        assert_eq!(ConcurrentIndex::remove(&wrapped, 3), Some(33));
        assert_eq!(ConcurrentIndex::len(&wrapped), 2);
        assert!(ConcurrentIndex::memory_usage(&wrapped) > 0);
        assert_eq!(ConcurrentIndex::meta(&wrapped).name, "model-mutex");
        assert!(ConcurrentIndex::meta(&wrapped).concurrent);

        // Concurrent hammering through the adapter must not lose updates.
        let wrapped = std::sync::Arc::new(wrapped);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let w = std::sync::Arc::clone(&wrapped);
                s.spawn(move || {
                    for i in 0..250u64 {
                        w.insert(1000 + t * 1000 + i, i);
                    }
                });
            }
        });
        assert_eq!(wrapped.len(), 2 + 4 * 250);
    }

    #[test]
    fn mutex_adapter_forwards_stats() {
        let wrapped = MutexIndex::new(ModelIndex::default(), "model-mutex");
        wrapped.insert(1, 1);
        wrapped.insert(2, 2);
        assert_eq!(
            wrapped.stats().counters.inserts,
            2,
            "stats must come from the inner index, not the trait default"
        );
        wrapped.insert(3, 3);
        assert_eq!(wrapped.stats().counters.inserts, 3);
    }

    #[test]
    fn get_batch_matches_scalar_gets_in_order() {
        let mut wrapped = MutexIndex::new(ModelIndex::default(), "model-mutex");
        ConcurrentIndex::bulk_load(&mut wrapped, &[(1, 10), (2, 20), (5, 50)]);
        let keys = [5u64, 4, 1, 5, 2];
        let mut out = vec![Some(999)]; // stale content must be cleared
        wrapped.get_batch(&keys, &mut out);
        let scalar: Vec<_> = keys.iter().map(|&k| wrapped.get(k)).collect();
        assert_eq!(out, scalar);
        assert_eq!(out, vec![Some(50), None, Some(10), Some(50), Some(20)]);
        // Empty batches clear the output vector.
        wrapped.get_batch(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn boxed_index_forwards_everything() {
        let mut boxed: Box<dyn Index<u64>> = Box::new(ModelIndex::default());
        boxed.bulk_load(&[(1, 10), (2, 20)]);
        assert_eq!(boxed.len(), 2);
        assert!(!boxed.is_empty());
        assert!(boxed.insert(3, 30));
        assert!(boxed.update(3, 33));
        assert_eq!(boxed.get(3), Some(33));
        assert_eq!(boxed.remove(3), Some(33));
        let mut out = Vec::new();
        assert_eq!(boxed.range(RangeSpec::new(0, 10), &mut out), 2);
        assert!(boxed.memory_usage() > 0);
        // The inner ModelIndex counted 2 inserts (insert + update-via-insert);
        // the Box impl must surface them instead of the defaulted zeros.
        assert_eq!(boxed.stats().counters.inserts, 2);
        assert_eq!(boxed.meta().name, "model");
    }

    #[test]
    fn boxed_concurrent_index_forwards_everything() {
        let mut boxed: Box<dyn ConcurrentIndex<u64>> =
            Box::new(MutexIndex::new(ModelIndex::default(), "boxed-model"));
        boxed.bulk_load(&[(1, 10), (2, 20)]);
        assert_eq!(boxed.len(), 2);
        assert!(!boxed.is_empty());
        assert!(boxed.insert(3, 30));
        assert!(boxed.update(3, 33));
        assert!(!boxed.update(99, 1));
        assert_eq!(boxed.get(3), Some(33));
        assert_eq!(boxed.remove(3), Some(33));
        let mut out = Vec::new();
        assert_eq!(boxed.range(RangeSpec::new(0, 10), &mut out), 2);
        assert!(boxed.memory_usage() > 0);
        assert_eq!(boxed.meta().name, "boxed-model");
    }

    #[test]
    fn range_spec_constructor() {
        let spec = RangeSpec::new(7u64, 3);
        assert_eq!(spec.start, 7);
        assert_eq!(spec.count, 3);
        assert_eq!(spec.end, None);
        assert!(spec.admits(7));
        assert!(spec.admits(u64::MAX));
        assert!(!spec.admits(6));
    }

    #[test]
    fn bounded_range_spec_clips_at_the_end_key() {
        let spec = RangeSpec::bounded(2u64, 6, 100);
        assert_eq!(spec.end, Some(6));
        assert!(spec.admits(2) && spec.admits(6));
        assert!(!spec.admits(7));

        let mut idx = ModelIndex::default();
        idx.bulk_load(&[(1, 10), (3, 30), (5, 50), (7, 70), (9, 90)]);
        let mut out = Vec::new();
        // End bound clips before the count limit does.
        assert_eq!(idx.range(spec, &mut out), 2);
        assert_eq!(out, vec![(3, 30), (5, 50)]);
        // Count still limits a wide window.
        out.clear();
        assert_eq!(idx.range(RangeSpec::bounded(0, 100, 2), &mut out), 2);
        assert_eq!(out, vec![(1, 10), (3, 30)]);
        // An inverted window yields nothing.
        out.clear();
        assert_eq!(idx.range(RangeSpec::bounded(8, 2, 10), &mut out), 0);
    }
}
