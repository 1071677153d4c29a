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

/// The most partitions a [`Partitioned`] index has: a batched lookup keeps
/// the set it touches in one `u64`.
const MAX_PARTITIONS: usize = u64::BITS as usize;

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

    /// Number of key-range partitions, at most 64.
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
        assert!(
            I::PARTITIONS <= MAX_PARTITIONS,
            "{} partitions: a batched lookup tracks at most {MAX_PARTITIONS}",
            I::PARTITIONS
        );
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
    /// group, writing each answer into its slot.
    ///
    /// The call allocates nothing of its own: a key's partition waits in its
    /// answer slot of `out` until stage 2 overwrites it, the touched set is
    /// one 64-bit mask, and the guards live in an array on the stack. Only
    /// `out` grows, and only when the caller hands it in too small.
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        out.clear();
        let mut touched = 0u64;
        out.extend(keys.iter().map(|&key| {
            let p = self.cut.shard_of(key);
            touched |= 1 << p;
            Some(p as Payload)
        }));
        let mut guards: [Option<RwLockReadGuard<'_, I>>; MAX_PARTITIONS] =
            std::array::from_fn(|_| None);
        while touched != 0 {
            let p = touched.trailing_zeros() as usize;
            guards[p] = Some(self.partitions[p].read());
            touched &= touched - 1;
        }
        let inner = |p: usize| -> &I { guards[p].as_deref().expect("partition read-locked") };
        let mut staged = [(0, Probe::default()); BATCH_WIDTH];
        for (group, answers) in keys.chunks(BATCH_WIDTH).zip(out.chunks_mut(BATCH_WIDTH)) {
            for ((stage, &key), answer) in staged.iter_mut().zip(group).zip(answers.iter()) {
                let p = answer.expect("routed above") as usize;
                *stage = (p, inner(p).probe_start(key));
            }
            for ((&(p, probe), &key), answer) in staged.iter().zip(group).zip(answers) {
                *answer = inner(p).probe_finish(key, probe);
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A map over `P` partitions whose stage 2 checks that its probe came
    /// from stage 1 of the same key on the same partition.
    #[derive(Default)]
    struct Checked<const P: usize>(BTreeMap<u64, Payload>);

    impl<const P: usize> Index<u64> for Checked<P> {
        fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
            self.0 = entries.iter().copied().collect();
        }
        fn get(&self, key: u64) -> Option<Payload> {
            self.0.get(&key).copied()
        }
        fn insert(&mut self, key: u64, value: Payload) -> bool {
            self.0.insert(key, value).is_none()
        }
        fn remove(&mut self, key: u64) -> Option<Payload> {
            self.0.remove(&key)
        }
        fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
            let before = out.len();
            out.extend(
                self.0
                    .range(spec.start..)
                    .take(spec.count)
                    .map(|(&k, &v)| (k, v)),
            );
            out.len() - before
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn memory_usage(&self) -> usize {
            0
        }
        fn meta(&self) -> IndexMeta {
            IndexMeta {
                name: "checked",
                learned: false,
                concurrent: false,
                supports_delete: true,
                supports_range: true,
            }
        }
    }

    impl<const P: usize> Partitionable<u64> for Checked<P> {
        const CONCURRENT_NAME: &'static str = "checked";
        const PARTITIONS: usize = P;

        fn probe_start(&self, key: u64) -> Probe {
            Probe {
                node: key as usize,
                slot: self as *const Self as usize,
            }
        }

        fn probe_finish(&self, key: u64, probe: Probe) -> Option<Payload> {
            assert_eq!(probe.node, key as usize, "probe of another key");
            assert_eq!(
                probe.slot, self as *const Self as usize,
                "probe of another partition"
            );
            self.get(key)
        }
    }

    /// Every run length up to two probe groups and one more, over stored
    /// keys spread across every partition with absent keys between them:
    /// the batch answers what scalar `get` answers, key for key.
    fn batches_match_scalar_gets<const P: usize>() {
        let entries: Vec<(u64, Payload)> = (0..20_000u64).map(|i| (i * 10, i)).collect();
        let mut index: Partitioned<u64, Checked<P>> = Partitioned::new();
        index.bulk_load(&entries);
        // A stride through the stored keys; every third key is absent.
        let keys: Vec<u64> = (0..3_000u64)
            .map(|i| (i * 7_919 % 20_000) * 10 + u64::from(i % 3 == 0) * 5)
            .collect();
        let partitions: Vec<usize> = keys.iter().map(|&k| index.cut.shard_of(k)).collect();
        assert!(
            (0..P).all(|p| partitions.contains(&p)),
            "every partition is read"
        );
        let mut out = vec![Some(Payload::MAX)]; // stale content must go
        let runs = (1..=2 * BATCH_WIDTH + 1).flat_map(|len| keys.chunks(len));
        for run in runs.chain([&[], &keys[..]]) {
            index.get_batch(run, &mut out);
            let scalar: Vec<_> = run.iter().map(|&k| index.get(k)).collect();
            assert_eq!(out, scalar, "a run of {}", run.len());
        }
        assert!(out.iter().any(Option::is_some) && out.iter().any(Option::is_none));
    }

    #[test]
    fn get_batch_matches_get_over_64_partitions() {
        batches_match_scalar_gets::<64>();
    }

    #[test]
    fn get_batch_matches_get_over_one_partition() {
        batches_match_scalar_gets::<1>();
    }
}
