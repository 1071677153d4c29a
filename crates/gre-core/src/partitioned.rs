//! [`Partitioned`]: the one partition-lock adapter that makes a
//! single-threaded [`Index`] a [`ConcurrentIndex`].
//!
//! A [`Partitioner`] splits the key space at the bulk-load quantiles into
//! [`Partitionable::PARTITIONS`] ranges, each an independent inner index
//! behind a `parking_lot::RwLock`. Writers in different ranges never contend
//! (the effect per-node locks buy); a reader takes its range's shared lock,
//! an SMO blocks its whole range, the boundaries never move after bulk load,
//! and a scan that crosses ranges reads them under consecutive locks, not one
//! snapshot. A batched reader ([`ConcurrentIndex::get_batch`]) takes the
//! shared lock of every range its keys touch, once each, and holds them all
//! for the call, so it answers as one snapshot of those ranges. ALEX+, LIPP+,
//! XIndex, FINEdex, B+tree/p64, ART/p64, HOT/p64, Masstree and Wormhole are
//! all this adapter over a different inner index (see "Substitutions" in
//! `docs/BENCHMARKS.md`).
//!
//! # Lock order
//!
//! Only `get_batch` holds more than one partition lock, and it takes them in
//! ascending partition order and only for reading. Every other path — point
//! writes, `range`, `len`, `memory_usage` — holds one partition lock at a
//! time. That rule is what keeps the batched reader deadlock-free under the
//! writer-preferring `RwLock`: a writer never waits while holding a lock, so
//! every chain of waits climbs strictly through partition numbers and cannot
//! close into a cycle. A new path that holds two partition locks must take
//! them in ascending order too.

use crate::index::{ConcurrentIndex, Index, IndexMeta, RangeSpec};
use crate::key::{Key, Payload};
use crate::partition::Partitioner;
use parking_lot::{RwLock, RwLockReadGuard};

/// Keys in flight in the batched lookup's two-stage probe: wide enough to
/// cover DRAM latency with independent work, small enough that the staged
/// [`Probe`]s stay in registers/L1.
pub const BATCH_WIDTH: usize = 8;

/// What stage 1 of a batched lookup ([`Partitionable::probe_start`]) hands
/// to stage 2 ([`Partitionable::probe_finish`]) for one key. Its meaning
/// belongs to the index: ALEX stores the data node and the slot its model
/// predicted; an index with no staged search leaves it at the default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Probe {
    pub node: usize,
    pub slot: usize,
}

/// A single-threaded index [`Partitioned`] can make concurrent.
pub trait Partitionable<K: Key>: Index<K> + Default + Sync {
    /// Display name of the concurrent derivative ("ALEX+", "B+tree/p64", …).
    const CONCURRENT_NAME: &'static str;

    /// Number of key-range partitions.
    const PARTITIONS: usize = 64;

    /// Stage 1 of a batched lookup: do the work that needs no data-dependent
    /// memory (route, predict) and prefetch what stage 2 will read. Runs for
    /// [`BATCH_WIDTH`] keys before the first of them reaches stage 2, so
    /// their cache misses overlap.
    fn probe_start(&self, _key: K) -> Probe {
        Probe::default()
    }

    /// Stage 2 of a batched lookup: finish the search `probe_start` began.
    /// Must answer exactly what `get(key)` answers.
    fn probe_finish(&self, key: K, _probe: Probe) -> Option<Payload> {
        self.get(key)
    }
}

/// Key-range partitions of `I`, each behind its own reader-writer lock.
pub struct Partitioned<K, I> {
    partitions: Vec<RwLock<I>>,
    cut: Partitioner<K>,
}

impl<K: Key, I: Partitionable<K>> Default for Partitioned<K, I> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, I: Partitionable<K>> Partitioned<K, I> {
    /// Default-constructed inner indexes.
    pub fn new() -> Self {
        Self::with_inner(I::default)
    }

    /// Inner indexes built by `make`, e.g. with a non-default configuration.
    pub fn with_inner(mut make: impl FnMut() -> I) -> Self {
        let cut = Partitioner::range(I::PARTITIONS);
        Partitioned {
            partitions: (0..cut.shards()).map(|_| RwLock::new(make())).collect(),
            cut,
        }
    }
}

impl<K: Key, I: Partitionable<K>> ConcurrentIndex<K> for Partitioned<K, I> {
    /// Boundaries go at the entry quantiles, so bulk data spreads evenly.
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        for (partition, part) in self.partitions.iter_mut().zip(self.cut.fit(entries)) {
            partition.get_mut().bulk_load(part);
        }
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.partitions[self.cut.shard_of(key)].read().get(key)
    }

    /// Routes every key once, read-locks each touched partition once in
    /// ascending order (see "Lock order" above) and holds the guards for the
    /// call, then runs one [`BATCH_WIDTH`]-wide two-stage probe over the keys
    /// in input order: stage 1 ([`Partitionable::probe_start`]) for a whole
    /// group, then stage 2 ([`Partitionable::probe_finish`]) for the same
    /// group, pushing each answer as it comes.
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        out.clear();
        out.reserve(keys.len());
        let routed: Vec<usize> = keys.iter().map(|&k| self.cut.shard_of(k)).collect();
        let mut touched = vec![false; self.partitions.len()];
        for &p in &routed {
            touched[p] = true;
        }
        let guards: Vec<Option<RwLockReadGuard<'_, I>>> = self
            .partitions
            .iter()
            .zip(touched)
            .map(|(lock, touched)| touched.then(|| lock.read()))
            .collect();
        let inner = |p: usize| -> &I { guards[p].as_deref().expect("partition read-locked") };
        let mut staged = [Probe::default(); BATCH_WIDTH];
        for (group, parts) in keys.chunks(BATCH_WIDTH).zip(routed.chunks(BATCH_WIDTH)) {
            for ((stage, &key), &p) in staged.iter_mut().zip(group).zip(parts) {
                *stage = inner(p).probe_start(key);
            }
            for ((stage, &key), &p) in staged.iter().zip(group).zip(parts) {
                out.push(inner(p).probe_finish(key, *stage));
            }
        }
    }

    fn insert(&self, key: K, value: Payload) -> bool {
        self.partitions[self.cut.shard_of(key)]
            .write()
            .insert(key, value)
    }

    /// Presence check and write happen under one partition write lock, so
    /// the trait's single-critical-section atomicity contract holds.
    fn update(&self, key: K, value: Payload) -> bool {
        self.partitions[self.cut.shard_of(key)]
            .write()
            .update(key, value)
    }

    fn remove(&self, key: K) -> Option<Payload> {
        self.partitions[self.cut.shard_of(key)].write().remove(key)
    }

    /// Walks the partitions in key order (see [`Partitioner::scan`]):
    /// stops at `spec.count`, or at the first partition past `spec.end`.
    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        self.cut.scan(spec, out, |p, sub, out| {
            self.partitions[p].read().range(sub, out);
        })
    }

    fn len(&self) -> usize {
        self.partitions.iter().map(|p| p.read().len()).sum()
    }

    fn memory_usage(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.read().memory_usage())
            .sum()
    }

    /// The inner index's metadata under the concurrent derivative's name.
    fn meta(&self) -> IndexMeta {
        let mut meta = self.partitions[0].read().meta();
        meta.name = I::CONCURRENT_NAME;
        meta.concurrent = true;
        meta
    }
}
