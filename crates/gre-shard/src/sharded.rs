//! `ShardedIndex`: a horizontally partitioned store over any
//! [`ConcurrentIndex`] backend.
//!
//! Each shard is an independent backend instance; a [`Partitioner`] cuts
//! the key space into contiguous ranges and routes every key to exactly one
//! shard, so point operations touch one backend and scale past the internal
//! lock granularity of any single instance. The composite itself implements
//! [`ConcurrentIndex`], which means it drops into every existing harness
//! entry point (`Driver::run`, the figure binaries, the examples) unchanged —
//! sharding composes with, rather than replaces, the backends.
//!
//! This is a different layer from `gre_core::Partitioned`, the partition-lock
//! adapter under ALEX+, LIPP+ and the concurrent traditional indexes: that one
//! builds a *concurrent index out of single-threaded parts*; this one builds a
//! *serving layer out of already-concurrent backends* (learned or
//! traditional), with merged reporting. Both cut and route through the same
//! [`Partitioner`].

use gre_core::{ConcurrentIndex, IndexMeta, Key, Partitioner, Payload, RangeSpec};
use gre_durability::{DurableLog, Recovery, SyncPolicy};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// A range-partitioned store over `N` backend instances.
pub struct ShardedIndex<K: Key, B: ConcurrentIndex<K>> {
    partitioner: Partitioner<K>,
    backends: Vec<B>,
}

impl<K: Key, B: ConcurrentIndex<K>> ShardedIndex<K, B> {
    /// Build `partitioner.shards()` backends from a factory closure (the
    /// closure receives the shard id).
    pub fn from_factory(partitioner: Partitioner<K>, factory: impl FnMut(usize) -> B) -> Self {
        let backends = (0..partitioner.shards()).map(factory).collect();
        ShardedIndex {
            partitioner,
            backends,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.backends.len()
    }

    /// The shard `key` routes to.
    #[inline]
    pub fn shard_of(&self, key: K) -> usize {
        self.partitioner.shard_of(key)
    }

    /// The backend serving shard `shard`.
    pub(crate) fn backend(&self, shard: usize) -> &B {
        &self.backends[shard]
    }

    /// The partitioner in use. Only the two loads change it:
    /// [`ConcurrentIndex::bulk_load`] fits the boundaries to the loaded
    /// keys, and `load_parts` cuts them at a durable store's recovered shards.
    pub fn partitioner(&self) -> &Partitioner<K> {
        &self.partitioner
    }

    /// Load shard `i` with `parts[i]`, cutting the boundaries so that every
    /// key goes back to the shard it came from (see [`Partitioner::cut`]):
    /// the restart of a durable store, whose keys must stay with the shard
    /// whose log holds their history. `parts` holds one sorted part per
    /// shard, in ascending and disjoint key order.
    pub(crate) fn load_parts(&mut self, parts: &[Vec<(K, Payload)>]) {
        assert_eq!(parts.len(), self.backends.len(), "one part per shard");
        self.partitioner.cut(parts);
        for (backend, part) in self.backends.iter_mut().zip(parts) {
            backend.bulk_load(part);
        }
    }

    /// Entry count of every shard, for balance diagnostics.
    pub fn per_shard_lens(&self) -> Vec<usize> {
        self.backends.iter().map(|b| b.len()).collect()
    }
}

impl<B: ConcurrentIndex<u64>> ShardedIndex<u64, B> {
    /// Load a durable store from the per-shard write-ahead log under `dir`,
    /// and return the log for
    /// [`ShardPipeline::with_services`](crate::ShardPipeline::with_services),
    /// which group-commits every served write before it executes.
    ///
    /// If `dir` holds a durable history from a previous incarnation, this is
    /// a restart: each shard reloads its own recovered state, under the cut
    /// those states imply, and the log resumes where it left off, writing no
    /// snapshot; `entries` is ignored. A key's history never leaves its
    /// shard, so a restart neither rebalances the shards nor compacts the
    /// logs. Only a missing MANIFEST means a fresh directory: then `entries`
    /// is bulk loaded, a log is created, and every shard is checkpointed. A
    /// history that cannot be read is an error, never a fresh start over it.
    /// See `gre-durability` and `docs/DURABILITY.md`.
    pub fn load_durable(
        &mut self,
        entries: &[(u64, Payload)],
        dir: impl AsRef<Path>,
        policy: SyncPolicy,
    ) -> io::Result<Arc<DurableLog>> {
        let dir = dir.as_ref();
        match Recovery::recover(dir) {
            Ok(rec) => {
                self.load_parts(&rec.shard_states(&self.meta()));
                rec.resume(policy)
            }
            // Creating the log over a history it cannot read would rewrite
            // the manifest and truncate every acknowledged shard WAL.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.bulk_load(entries);
                let log = DurableLog::create(dir, self.num_shards(), policy)?;
                // The bulk load bypassed the log: checkpoint it, or a
                // recovery would replay an empty store. A backend holds
                // exactly the keys its shard routes to it, so its full scan
                // is that shard's checkpoint.
                for (shard, backend) in self.backends.iter().enumerate() {
                    let mut part = Vec::with_capacity(backend.len());
                    backend.range(RangeSpec::new(0, backend.len()), &mut part);
                    log.checkpoint(shard, &part).map_err(io::Error::other)?;
                }
                Ok(log)
            }
            Err(e) => Err(e),
        }
    }
}

impl<K: Key, B: ConcurrentIndex<K>> ConcurrentIndex<K> for ShardedIndex<K, B> {
    /// Refits the boundaries at the quantiles of the loaded (sorted)
    /// entries, then hands each shard its contiguous slice.
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        for (backend, part) in self.backends.iter_mut().zip(self.partitioner.fit(entries)) {
            backend.bulk_load(part);
        }
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.backends[self.partitioner.shard_of(key)].get(key)
    }

    /// Batched lookups are grouped per shard and forwarded to each backend's
    /// `get_batch`, so a partitioned backend's batched read (one read lock
    /// per touched partition, one two-stage probe; see
    /// [`gre_core::Partitioned`]) is reached even through the composite.
    /// Results land in input order.
    ///
    /// Regrouping is a two-pass counting sort — route every key once
    /// (memoized), prefix-sum the per-shard counts, scatter into one
    /// contiguous scratch buffer — so the cost is O(keys + shards) with a
    /// fixed handful of allocations, instead of the per-key group search
    /// and per-shard buffers a naive regroup pays. Single-shard batches
    /// (every key routed the same way) skip the scatter entirely and
    /// forward `keys` as-is.
    fn get_batch(&self, keys: &[K], out: &mut Vec<Option<Payload>>) {
        out.clear();
        out.resize(keys.len(), None);
        if keys.is_empty() {
            return;
        }
        let shards = self.backends.len();
        if shards == 1 {
            self.backends[0].get_batch(keys, out);
            return;
        }
        let partitioner = &self.partitioner;
        // Pass 1: route each key once, counting per-shard group sizes.
        let mut routed: Vec<u32> = Vec::with_capacity(keys.len());
        let mut counts: Vec<usize> = vec![0; shards];
        for &key in keys {
            let s = partitioner.shard_of(key);
            routed.push(s as u32);
            counts[s] += 1;
        }
        if counts[routed[0] as usize] == keys.len() {
            // Every key landed on one shard: no regrouping needed.
            self.backends[routed[0] as usize].get_batch(keys, out);
            return;
        }
        // Pass 2: prefix-sum offsets, then scatter keys (and their input
        // positions) into per-shard contiguous runs of one scratch buffer.
        let mut starts = vec![0usize; shards + 1];
        for s in 0..shards {
            starts[s + 1] = starts[s] + counts[s];
        }
        let mut grouped: Vec<(K, usize)> = vec![(keys[0], 0); keys.len()];
        let mut cursors = starts.clone();
        for (i, &key) in keys.iter().enumerate() {
            let s = routed[i] as usize;
            grouped[cursors[s]] = (key, i);
            cursors[s] += 1;
        }
        let mut group_keys: Vec<K> = Vec::with_capacity(keys.len());
        let mut group_results: Vec<Option<Payload>> = Vec::new();
        for s in 0..shards {
            let run = &grouped[starts[s]..starts[s + 1]];
            if run.is_empty() {
                continue;
            }
            group_keys.clear();
            group_keys.extend(run.iter().map(|&(k, _)| k));
            self.backends[s].get_batch(&group_keys, &mut group_results);
            for (&(_, i), result) in run.iter().zip(group_results.drain(..)) {
                out[i] = result;
            }
        }
    }

    fn insert(&self, key: K, value: Payload) -> bool {
        self.backends[self.partitioner.shard_of(key)].insert(key, value)
    }

    /// As atomic as the owning shard's backend: routing adds no extra
    /// critical section, so the trait's atomicity contract is inherited
    /// unchanged from the backend.
    fn update(&self, key: K, value: Payload) -> bool {
        self.backends[self.partitioner.shard_of(key)].update(key, value)
    }

    fn remove(&self, key: K) -> Option<Payload> {
        self.backends[self.partitioner.shard_of(key)].remove(key)
    }

    /// Cross-shard scans are stitched in key order: the walk visits shards
    /// in key order (shard `i` holds exactly the keys of range `i`) and
    /// clips each sorted tail at `spec.end` itself, so bounded windows are
    /// honored even over backends that ignore the bound.
    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        self.partitioner.scan(spec, out, |shard, sub, out| {
            self.backends[shard].range(sub, out);
        })
    }

    /// Sum of the per-shard entry counts, read **non-atomically**: each
    /// shard is queried in turn with no global quiesce, so while writers are
    /// active the sum may mix before/after states of different shards and
    /// transiently differ from any single serialization of the write stream.
    /// In a quiesced state (no in-flight writes) the value is exact — see
    /// `len_is_exact_when_quiesced`, which pins this contract.
    fn len(&self) -> usize {
        self.backends.iter().map(|b| b.len()).sum()
    }

    /// Same consistency contract as [`ConcurrentIndex::len`]: non-atomic
    /// per-shard sum, transiently off under live writers, exact when
    /// quiesced.
    fn memory_usage(&self) -> usize {
        self.backends.iter().map(|b| b.memory_usage()).sum()
    }

    /// Merged metadata: the backends' name, and capability flags that are
    /// the conjunction over shards (the composite only supports what every
    /// backend supports).
    fn meta(&self) -> IndexMeta {
        let mut meta = self
            .backends
            .first()
            .map(|b| b.meta())
            .unwrap_or(IndexMeta {
                name: "sharded",
                learned: false,
                concurrent: true,
                supports_delete: true,
                supports_range: true,
            });
        for b in &self.backends[1..] {
            let m = b.meta();
            meta.learned &= m.learned;
            meta.supports_delete &= m.supports_delete;
            meta.supports_range &= m.supports_range;
        }
        meta.concurrent = true;
        meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gre_core::index::MutexIndex;
    use gre_core::ModelIndex;

    fn backend() -> MutexIndex<ModelIndex> {
        MutexIndex::new(ModelIndex::default(), "model")
    }

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 7, i)).collect()
    }

    fn sharded(partitioner: Partitioner<u64>) -> ShardedIndex<u64, MutexIndex<ModelIndex>> {
        ShardedIndex::from_factory(partitioner, |_| backend())
    }

    #[test]
    fn bulk_load_spreads_and_round_trips_range_scheme() {
        let mut idx = sharded(Partitioner::range(4));
        idx.bulk_load(&entries(8_000));
        assert_eq!(idx.len(), 8_000);
        let lens = idx.per_shard_lens();
        assert_eq!(lens.len(), 4);
        assert!(
            lens.iter().all(|&l| l >= 1_000),
            "range boundaries should spread the load: {lens:?}"
        );
        for i in (0..8_000).step_by(97) {
            assert_eq!(idx.get(i * 7), Some(i));
        }
        assert_eq!(idx.get(1), None);
    }

    #[test]
    fn point_ops_route_consistently() {
        let mut idx = sharded(Partitioner::range(8));
        idx.bulk_load(&entries(4_000));
        assert!(idx.insert(1, 111));
        assert!(!idx.insert(1, 112));
        assert_eq!(idx.get(1), Some(112));
        assert!(idx.update(1, 113));
        assert_eq!(idx.remove(1), Some(113));
        assert!(!idx.update(1, 114), "update after remove must miss");
        assert_eq!(idx.len(), 4_000);
    }

    #[test]
    fn get_batch_routes_per_shard_and_preserves_order() {
        let mut idx = sharded(Partitioner::range(8));
        idx.bulk_load(&entries(4_000));
        let mut keys: Vec<u64> = (0..333u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) % 5_000) * 7 + (i % 2))
            .collect();
        keys.push(keys[7]);
        let mut batched = vec![Some(9)]; // stale content must be cleared
        idx.get_batch(&keys, &mut batched);
        let scalar: Vec<_> = keys.iter().map(|&k| idx.get(k)).collect();
        assert_eq!(batched, scalar);
        assert!(batched.iter().any(|r| r.is_some()));
        assert!(batched.iter().any(|r| r.is_none()));
    }

    #[test]
    fn range_scan_stitches_across_shard_boundaries_in_order() {
        let mut idx = sharded(Partitioner::range(8));
        idx.bulk_load(&entries(8_000));
        let mut out = Vec::new();
        let got = idx.range(RangeSpec::new(3 * 7, 5_000), &mut out);
        assert_eq!(got, 5_000);
        assert_eq!(out.len(), 5_000);
        assert_eq!(out[0].0, 21);
        assert_eq!(out.last().unwrap().0, (3 + 4_999) * 7);
        assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "stitched scan must be in strictly ascending key order"
        );
    }

    #[test]
    fn bounded_range_scan_clips_at_end_across_shards() {
        let mut idx = sharded(Partitioner::range(8));
        idx.bulk_load(&entries(8_000)); // keys 0, 7, 14, …
                                        // Window [21, 2100]: keys 21..=2100 step 7 → 298 entries, fewer
                                        // than the count limit, so the end bound does the clipping.
        let mut out = Vec::new();
        let got = idx.range(RangeSpec::bounded(21, 2_100, 5_000), &mut out);
        assert_eq!(got, 298);
        assert_eq!(out.first().unwrap().0, 21);
        assert_eq!(out.last().unwrap().0, 2_100); // 2100 = 300*7 is a stored key
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(out.iter().all(|e| (21..=2_100).contains(&e.0)));
        // Count still limits a wide bounded window.
        out.clear();
        assert_eq!(idx.range(RangeSpec::bounded(0, u64::MAX, 10), &mut out), 10);
        // Empty window.
        out.clear();
        assert_eq!(idx.range(RangeSpec::bounded(22, 27, 10), &mut out), 0);
    }

    #[test]
    fn len_is_exact_when_quiesced() {
        // The trait impl documents len() as approximate only while writers
        // are in flight; this pins the exactness half of that contract:
        // after every write completes, the non-atomic per-shard sum must
        // equal the true entry count.
        let mut idx = sharded(Partitioner::range(4));
        idx.bulk_load(&entries(4_000));
        let idx = std::sync::Arc::new(idx);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = std::sync::Arc::clone(&idx);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        // Fresh keys (existing keys are multiples of 7).
                        idx.insert(1_000_000 + t * 1_000_000 + i * 7 + 1, i);
                    }
                    for i in 0..100u64 {
                        idx.remove(1_000_000 + t * 1_000_000 + i * 7 + 1);
                    }
                });
            }
        });
        // Quiesced: all writer threads joined by scope exit.
        assert_eq!(idx.len(), 4_000 + 4 * (1_000 - 100));
        assert_eq!(idx.per_shard_lens().iter().sum::<usize>(), idx.len());
    }

    #[test]
    fn range_scan_exhausts_the_tail() {
        let mut idx = sharded(Partitioner::range(4));
        idx.bulk_load(&entries(1_000));
        let mut out = Vec::new();
        // Ask for more than remains past the start key.
        let got = idx.range(RangeSpec::new(995 * 7, 100), &mut out);
        assert_eq!(got, 5);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn merged_reporting() {
        let mut idx = sharded(Partitioner::range(4));
        idx.bulk_load(&entries(2_000));
        assert!(idx.memory_usage() >= 2_000 * 48);
        let meta = idx.meta();
        assert_eq!(
            meta.name, "model",
            "the composite reports its backends' name"
        );
        assert!(meta.concurrent);
        assert!(meta.supports_delete);
        assert!(meta.supports_range);
        assert!(!meta.learned);
        assert_eq!(idx.num_shards(), 4);
    }

    #[test]
    fn empty_sharded_index_behaves() {
        let idx = sharded(Partitioner::range(4));
        assert_eq!(idx.len(), 0);
        assert!(idx.is_empty());
        assert_eq!(idx.get(5), None);
        let mut out = Vec::new();
        assert_eq!(idx.range(RangeSpec::new(0, 10), &mut out), 0);
    }

    /// A restart restores the previous incarnation's served state, not the
    /// bulk entries. Each shard reloads its own recovered state under the
    /// cut those states imply, so key 600 stays on shard 1, whose WAL holds
    /// its history, although a quantile cut over the 1 000 keys served above
    /// it would move it to shard 0; its next write survives the next crash.
    #[test]
    fn durable_load_restores_a_previous_incarnation() {
        use crate::pipeline::{OpBatch, ShardPipeline, DEFAULT_QUEUE_CAPACITY};
        use gre_core::Request;
        use gre_durability::util::TempDir;
        use std::sync::Arc;

        let tmp = TempDir::new("sharded-restart");
        let incarnation = |entries: &[(u64, Payload)]| {
            let mut idx = sharded(Partitioner::range(2));
            let log = idx
                .load_durable(entries, tmp.path(), SyncPolicy::EveryGroup)
                .unwrap();
            ShardPipeline::with_services(Arc::new(idx), 2, DEFAULT_QUEUE_CAPACITY, None, Some(log))
        };
        type Served = ShardPipeline<MutexIndex<ModelIndex>>;
        let serve = |pipeline: &Served, ops: Vec<Request<u64>>| {
            let responses = pipeline.submit(OpBatch::new(ops)).wait();
            assert!(responses.iter().all(|r| !r.is_error()), "{responses:?}");
        };
        let stored = |pipeline: &Served| {
            let mut entries = Vec::new();
            pipeline
                .index()
                .range(RangeSpec::new(0, usize::MAX), &mut entries);
            entries
        };

        let bulk: Vec<(u64, Payload)> = (1..=1_000u64).map(|k| (k, k)).collect();
        let pipeline = incarnation(&bulk);
        assert_eq!(pipeline.index().shard_of(600), 1);
        let mut ops = vec![Request::Update(600, 1), Request::Remove(5)];
        ops.extend((2_000..3_000u64).map(|k| Request::Insert(k, k)));
        serve(&pipeline, ops);
        let before = stored(&pipeline);
        drop(pipeline); // the workers join and sync the log

        // A fresh store on the same directory restarts from the durable
        // history: the recovered state supersedes the bulk entries.
        let pipeline = incarnation(&[(1, 1)]);
        assert_eq!(
            stored(&pipeline),
            before,
            "restart must restore the served state"
        );
        assert_eq!(pipeline.index().shard_of(600), 1, "key 600 left its shard");
        serve(&pipeline, vec![Request::Update(600, 2)]);
        drop(pipeline);

        let pipeline = incarnation(&[]);
        assert_eq!(
            pipeline.index().get(600),
            Some(2),
            "a stale write came back"
        );
        assert_eq!(pipeline.index().len(), 1_999);
    }

    #[test]
    fn durable_load_refuses_a_log_directory_it_cannot_read() {
        use crate::pipeline::{OpBatch, ShardPipeline, DEFAULT_QUEUE_CAPACITY};
        use gre_core::Request;
        use gre_durability::util::TempDir;
        use gre_durability::MANIFEST;
        use std::path::PathBuf;
        use std::sync::Arc;

        let tmp = TempDir::new("sharded-corrupt-manifest");
        let mut idx = sharded(Partitioner::range(2));
        let log = idx
            .load_durable(&entries(1_000), tmp.path(), SyncPolicy::EveryGroup)
            .unwrap();
        let pipeline =
            ShardPipeline::with_services(Arc::new(idx), 2, DEFAULT_QUEUE_CAPACITY, None, Some(log));
        // Writes on both shards: fresh keys between the loaded multiples of 7.
        let ops = (0..2_000u64)
            .map(|i| Request::Insert(i * 7 / 2 + 1, i))
            .collect();
        pipeline.submit(OpBatch::new(ops)).wait();
        drop(pipeline); // the workers join and sync the log

        let wals = || {
            let mut wals: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(tmp.path())
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .filter(|path| path.extension().is_some_and(|ext| ext == "wal"))
                .map(|path| {
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            wals.sort();
            wals
        };
        let before = wals();
        assert_eq!(before.len(), 2, "one WAL per shard");
        assert!(before.iter().any(|(_, bytes)| !bytes.is_empty()));

        std::fs::write(tmp.path().join(MANIFEST), b"\xffgarbage\x00").unwrap();
        let loaded = sharded(Partitioner::range(2)).load_durable(
            &[(1, 1)],
            tmp.path(),
            SyncPolicy::EveryGroup,
        );
        assert!(
            loaded.is_err(),
            "an unreadable MANIFEST must not start fresh"
        );
        assert_eq!(wals(), before, "the acknowledged history must survive");
    }

    #[test]
    fn boxed_dyn_backends_work() {
        // The gre-core Box forwarding impl in action: heterogeneous-capable
        // dyn backends under one sharded store.
        let partitioner = Partitioner::<u64>::range(3);
        let mut idx: ShardedIndex<u64, Box<dyn ConcurrentIndex<u64>>> =
            ShardedIndex::from_factory(partitioner, |_| {
                Box::new(backend()) as Box<dyn ConcurrentIndex<u64>>
            });
        idx.bulk_load(&entries(1_000));
        assert_eq!(idx.len(), 1_000);
        assert!(idx.insert(1, 1));
        assert_eq!(idx.get(1), Some(1));
    }
}
