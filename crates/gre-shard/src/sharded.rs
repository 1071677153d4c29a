//! `ShardedIndex`: a horizontally partitioned store over any
//! [`ConcurrentIndex`] backend.
//!
//! Each shard is an independent backend instance; a [`Partitioner`] routes
//! every key to exactly one shard, so point operations touch one backend and
//! scale past the internal lock granularity of any single instance. The
//! composite itself implements [`ConcurrentIndex`], which means it drops into
//! every existing harness entry point (`Driver::run`, the figure binaries,
//! the examples) unchanged — sharding composes with, rather than replaces,
//! the backends.
//!
//! This is a different layer from `gre_core::Partitioned`, the partition-lock
//! adapter under ALEX+, LIPP+ and the concurrent traditional indexes: that one
//! builds a *concurrent index out of single-threaded parts*; this one builds a
//! *serving layer out of already-concurrent backends* (learned or
//! traditional), with pluggable partitioning and merged reporting.

use crate::partition::Partitioner;
use gre_core::elastic::ElasticError;
use gre_core::{ConcurrentIndex, IndexMeta, Key, Payload, RangeSpec};
use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The key window frozen while a migration is in flight. `lo` is inclusive
/// (`None` = domain minimum), `hi` exclusive (`None` = domain maximum).
#[derive(Debug, Clone, Copy)]
pub struct FrozenRange<K> {
    pub lo: Option<K>,
    pub hi: Option<K>,
    /// Set by [`ShardedIndex::seal_frozen`] once the pipeline queues are
    /// drained and bulk extraction begins: from that point until the commit
    /// or abort, direct (non-pipeline) operations touching the window wait,
    /// because the window's entries are physically in flight between
    /// backends. Before sealing, in-flight pre-freeze work may still touch
    /// the window safely under the old routing.
    pub sealed: bool,
}

impl<K: Key> FrozenRange<K> {
    /// Whether a point key falls inside the frozen window.
    #[inline]
    pub fn contains(&self, key: K) -> bool {
        self.lo.map_or(true, |l| key >= l) && self.hi.map_or(true, |h| key < h)
    }

    /// Whether a scan window `[start, end]` (inclusive end; `None` = the
    /// scan is count-limited and could run arbitrarily far right) can
    /// intersect the frozen window.
    #[inline]
    pub fn intersects_scan(&self, start: K, end: Option<K>) -> bool {
        let reaches_lo = match (self.lo, end) {
            (Some(l), Some(e)) => e >= l,
            _ => true,
        };
        reaches_lo && self.hi.map_or(true, |h| start < h)
    }
}

/// The atomically swappable routing table: which partitioner routes keys,
/// which window (if any) is frozen mid-migration, and the epoch stamp that
/// advances on every committed topology change.
pub(crate) struct RoutingState<K: Key> {
    pub(crate) partitioner: Arc<Partitioner<K>>,
    pub(crate) frozen: Option<FrozenRange<K>>,
    pub(crate) epoch: u64,
}

/// A range- or hash-partitioned store over `N` backend instances.
///
/// Routing state lives behind a reader/writer lock so the elasticity
/// controller can swap the boundary table while traffic is live: every
/// operation routes under a read guard held across its backend call, which
/// makes the controller's write-lock acquisitions (freeze, seal, commit)
/// true grace periods — no operation is ever mid-flight across a swap.
pub struct ShardedIndex<K: Key, B: ConcurrentIndex<K>> {
    routing: RwLock<RoutingState<K>>,
    /// Companion lock/condvar pair for operations that must wait out a
    /// sealed freeze window (the routing lock itself is never waited on
    /// with a predicate). Protocol: waiters re-check the routing state
    /// under this gate; the controller bumps/notifies after releasing the
    /// routing write lock, so the two locks are never held crosswise.
    freeze_gate: Mutex<()>,
    unfrozen: Condvar,
    backends: Vec<B>,
    name: &'static str,
}

impl<K: Key, B: ConcurrentIndex<K>> ShardedIndex<K, B> {
    /// Build from a partitioner and one backend per shard.
    ///
    /// # Panics
    /// If `backends.len()` differs from `partitioner.shards()`.
    pub fn new(partitioner: Partitioner<K>, backends: Vec<B>) -> Self {
        assert_eq!(
            backends.len(),
            partitioner.shards(),
            "one backend per shard required"
        );
        ShardedIndex {
            routing: RwLock::new(RoutingState {
                partitioner: Arc::new(partitioner),
                frozen: None,
                epoch: 0,
            }),
            freeze_gate: Mutex::new(()),
            unfrozen: Condvar::new(),
            backends,
            name: "sharded",
        }
    }

    /// Build `partitioner.shards()` backends from a factory closure (the
    /// closure receives the shard id).
    pub fn from_factory(partitioner: Partitioner<K>, mut factory: impl FnMut(usize) -> B) -> Self {
        let backends = (0..partitioner.shards()).map(&mut factory).collect();
        Self::new(partitioner, backends)
    }

    /// Build a same-topology sibling: a fresh `ShardedIndex` whose shard
    /// boundaries equal this one's *current* routing table, with empty
    /// backends from `factory`. This is how a replication tier constructs
    /// a replica group — every member routes each key to the same shard id,
    /// so per-shard WAL streams from the primary apply 1:1 on the sibling.
    ///
    /// The sibling takes a snapshot of the routing table; it does not track
    /// later topology changes on `self` (live elasticity under replication
    /// is out of scope — see `docs/REPLICATION.md`).
    pub fn sibling_from_factory<B2: ConcurrentIndex<K>>(
        &self,
        factory: impl FnMut(usize) -> B2,
    ) -> ShardedIndex<K, B2> {
        ShardedIndex::from_factory((*self.partitioner()).clone(), factory)
    }

    /// Set the name reported through [`ConcurrentIndex::meta`].
    pub fn with_name(mut self, name: &'static str) -> Self {
        self.name = name;
        self
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.backends.len()
    }

    /// The shard `key` routes to under the current routing table.
    #[inline]
    pub fn shard_of(&self, key: K) -> usize {
        self.routing.read().partitioner.shard_of(key)
    }

    /// The backend serving shard `shard`.
    pub fn backend(&self, shard: usize) -> &B {
        &self.backends[shard]
    }

    /// A snapshot of the partitioner in use. The snapshot stays internally
    /// consistent if a topology change commits afterwards (the swap replaces
    /// the `Arc`, it never mutates the shared table), but routing decisions
    /// derived from a stale snapshot may disagree with the live table —
    /// code that routes *writes* must hold the internal routing lock's read
    /// guard across the backend call instead (as every `ConcurrentIndex`
    /// method here does).
    pub fn partitioner(&self) -> Arc<Partitioner<K>> {
        Arc::clone(&self.routing.read().partitioner)
    }

    /// The routing epoch: bumped by every committed topology change.
    pub fn routing_epoch(&self) -> u64 {
        self.routing.read().epoch
    }

    /// The currently frozen window, if a migration is in flight.
    pub fn frozen_range(&self) -> Option<FrozenRange<K>> {
        self.routing.read().frozen
    }

    /// Entry count of every shard, for balance diagnostics.
    pub fn per_shard_lens(&self) -> Vec<usize> {
        self.backends.iter().map(|b| b.len()).collect()
    }

    /// The routing read guard, for callers (the pipeline) that must route a
    /// whole batch and enqueue it under one consistent table.
    pub(crate) fn routing(&self) -> RwLockReadGuard<'_, RoutingState<K>> {
        self.routing.read()
    }

    /// Step 1 of the migration protocol: freeze routing for `[lo, hi)`.
    ///
    /// From the moment this returns, the pipeline refuses new batches that
    /// touch the window (`BackpressureReason::Migrating`) — and because the
    /// freeze takes the routing write lock, every batch admitted before it
    /// is already fully enqueued. In-flight work may still touch the window
    /// under the old routing until [`ShardedIndex::seal_frozen`].
    pub fn freeze_range(&self, lo: Option<K>, hi: Option<K>) -> Result<(), ElasticError> {
        if let (Some(l), Some(h)) = (lo, hi) {
            if l >= h {
                return Err(ElasticError::InvalidRange(
                    "freeze window is empty".to_string(),
                ));
            }
        }
        let mut routing = self.routing.write();
        if routing.frozen.is_some() {
            return Err(ElasticError::AlreadyMigrating);
        }
        routing.frozen = Some(FrozenRange {
            lo,
            hi,
            sealed: false,
        });
        Ok(())
    }

    /// Step 3 of the migration protocol (after the queue drain): mark the
    /// frozen window sealed. Direct operations touching the window now wait
    /// until the commit or abort; the write-lock acquisition doubles as the
    /// grace period for any reader still mid-operation.
    pub fn seal_frozen(&self) -> Result<(), ElasticError> {
        let mut routing = self.routing.write();
        match routing.frozen.as_mut() {
            Some(f) => {
                f.sealed = true;
                Ok(())
            }
            None => Err(ElasticError::Aborted("seal without an active freeze")),
        }
    }

    /// Final step of the migration protocol: atomically install the new
    /// partitioner, clear the freeze, and advance the routing epoch.
    /// Returns the new epoch. Waiters parked on the frozen window resume
    /// under the new table.
    pub fn commit_routing(&self, new: Partitioner<K>) -> Result<u64, ElasticError> {
        if new.shards() != self.backends.len() {
            return Err(ElasticError::InvalidRange(format!(
                "partitioner routes over {} shards, store has {}",
                new.shards(),
                self.backends.len()
            )));
        }
        let epoch = {
            let mut routing = self.routing.write();
            routing.partitioner = Arc::new(new);
            routing.frozen = None;
            routing.epoch += 1;
            routing.epoch
        };
        // Notify after releasing the routing lock so a waiter holding the
        // gate while re-checking routing can never deadlock against us.
        let _gate = self.freeze_gate.lock().expect("freeze gate poisoned");
        self.unfrozen.notify_all();
        Ok(epoch)
    }

    /// Abandon an in-flight freeze, waking any parked waiters. Routing is
    /// left exactly as before [`ShardedIndex::freeze_range`].
    pub fn abort_freeze(&self) {
        {
            let mut routing = self.routing.write();
            routing.frozen = None;
        }
        let _gate = self.freeze_gate.lock().expect("freeze gate poisoned");
        self.unfrozen.notify_all();
    }

    /// Park until the routing state changes (bounded wait; callers loop on
    /// their own predicate). See `freeze_gate` for the lock protocol.
    pub(crate) fn wait_routing_change(&self) {
        let gate = self.freeze_gate.lock().expect("freeze gate poisoned");
        // Re-check under the gate: the unfreeze may have landed between the
        // caller's predicate check and this lock acquisition, in which case
        // its notify already happened and we must not sleep on it.
        if self.routing.read().frozen.is_none() {
            return;
        }
        let _ = self
            .unfrozen
            .wait_timeout(gate, Duration::from_millis(5))
            .expect("freeze gate poisoned");
    }

    /// Routing guard for a point op: waits out a sealed freeze window that
    /// contains `key`, then returns the guard to route and execute under.
    fn route_point(&self, key: K) -> RwLockReadGuard<'_, RoutingState<K>> {
        loop {
            let guard = self.routing.read();
            match guard.frozen {
                Some(f) if f.sealed && f.contains(key) => drop(guard),
                _ => return guard,
            }
            self.wait_routing_change();
        }
    }

    /// Fan-out range scan for unordered (hash) partitioning: every shard may
    /// hold keys from the requested window, so collect up to `count` from
    /// each and k-way merge the per-shard (individually sorted) results.
    /// The merge enforces `spec.end` itself, so backends that ignore the
    /// bound still produce a correctly clipped stitched window.
    fn range_fan_out(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let mut per_shard: Vec<Vec<(K, Payload)>> = Vec::with_capacity(self.backends.len());
        for b in &self.backends {
            let mut buf = Vec::new();
            b.range(spec, &mut buf);
            per_shard.push(buf);
        }
        let before = out.len();
        let mut cursors = vec![0usize; per_shard.len()];
        while out.len() - before < spec.count {
            let mut min: Option<(usize, K)> = None;
            for (s, buf) in per_shard.iter().enumerate() {
                if let Some(&(k, _)) = buf.get(cursors[s]) {
                    if min.map_or(true, |(_, mk)| k < mk) {
                        min = Some((s, k));
                    }
                }
            }
            match min {
                Some((s, k)) => {
                    if !spec.admits(k) {
                        break;
                    }
                    out.push(per_shard[s][cursors[s]]);
                    cursors[s] += 1;
                }
                None => break,
            }
        }
        out.len() - before
    }
}

impl<K: Key, B: ConcurrentIndex<K>> ConcurrentIndex<K> for ShardedIndex<K, B> {
    /// Refits range boundaries to the loaded keys' CDF, then splits the
    /// (sorted) entries into per-shard loads. Hash partitioning scatters;
    /// every scattered sub-sequence of a sorted slice is itself sorted, so
    /// backend bulk-load preconditions hold either way.
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        let routing = self.routing.get_mut();
        let partitioner = Arc::make_mut(&mut routing.partitioner);
        if partitioner.is_ordered() {
            // Stride-sample down to the CDF sketch budget up front so the
            // transient key copy is O(SAMPLE_LIMIT), not O(entries).
            let stride = entries
                .len()
                .div_ceil(crate::partition::SAMPLE_LIMIT)
                .max(1);
            let keys: Vec<K> = entries.iter().step_by(stride).map(|e| e.0).collect();
            // Refit resets segment targets to the identity assignment, so
            // `shard_of` is monotone in the key and the contiguous-slice
            // split below is valid.
            partitioner.refit(&keys);
            let mut start = 0usize;
            for (s, backend) in self.backends.iter_mut().enumerate() {
                let end = if s + 1 < partitioner.shards() {
                    entries.partition_point(|e| partitioner.shard_of(e.0) <= s)
                } else {
                    entries.len()
                };
                backend.bulk_load(&entries[start..end]);
                start = end;
            }
        } else {
            let mut buckets: Vec<Vec<(K, Payload)>> =
                (0..self.backends.len()).map(|_| Vec::new()).collect();
            for &e in entries {
                buckets[partitioner.shard_of(e.0)].push(e);
            }
            for (backend, bucket) in self.backends.iter_mut().zip(&buckets) {
                backend.bulk_load(bucket);
            }
        }
    }

    fn get(&self, key: K) -> Option<Payload> {
        let guard = self.route_point(key);
        self.backends[guard.partitioner.shard_of(key)].get(key)
    }

    /// Batched lookups are grouped per shard and forwarded to each backend's
    /// `get_batch`, so a backend's interleaved override (e.g. ALEX+) is
    /// reached even through the composite. Results land in input order.
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
        // One routing guard for the whole batch; wait out a sealed freeze
        // window that any of the keys falls into.
        let guard = loop {
            let g = self.routing.read();
            match g.frozen {
                Some(f) if f.sealed && keys.iter().any(|&k| f.contains(k)) => drop(g),
                _ => break g,
            }
            self.wait_routing_change();
        };
        let partitioner = &guard.partitioner;
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
        let guard = self.route_point(key);
        self.backends[guard.partitioner.shard_of(key)].insert(key, value)
    }

    /// As atomic as the owning shard's backend: routing adds no extra
    /// critical section, so the trait's atomicity contract is inherited
    /// unchanged from the backend.
    fn update(&self, key: K, value: Payload) -> bool {
        let guard = self.route_point(key);
        self.backends[guard.partitioner.shard_of(key)].update(key, value)
    }

    fn remove(&self, key: K) -> Option<Payload> {
        let guard = self.route_point(key);
        self.backends[guard.partitioner.shard_of(key)].remove(key)
    }

    /// Cross-shard scans are stitched in key order. Range partitioning walks
    /// **segments** sequentially in key order (a shard may serve several
    /// disjoint segments after topology changes, so walking shards would
    /// break ordering); hash partitioning fans out to every shard and
    /// merges. The stitcher enforces both each segment's upper bound and
    /// `spec.end` itself (clipping each sorted tail), so bounded windows are
    /// honored even over backends that ignore the bound. A scan that could
    /// enter a sealed (actively migrating) window waits for the commit —
    /// the pipeline never executes such scans (they are refused at submit),
    /// so only direct callers can park here.
    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let guard = loop {
            let g = self.routing.read();
            match g.frozen {
                Some(f) if f.sealed && f.intersects_scan(spec.start, spec.end) => drop(g),
                _ => break g,
            }
            self.wait_routing_change();
        };
        let Some(rp) = guard.partitioner.as_range() else {
            drop(guard);
            return self.range_fan_out(spec, out);
        };
        let before = out.len();
        let mut remaining = spec.count;
        let mut seg = rp.segment_of(spec.start);
        while remaining > 0 && seg < rp.segments() {
            let (seg_lo, seg_hi) = rp.segment_range(seg);
            // Stop once segments start past the end bound.
            if let (Some(lo), Some(end)) = (seg_lo, spec.end) {
                if lo > end {
                    break;
                }
            }
            let start = match seg_lo {
                Some(lo) if lo > spec.start => lo,
                _ => spec.start,
            };
            let at = out.len();
            let sub = RangeSpec {
                start,
                count: remaining,
                end: spec.end,
            };
            self.backends[rp.segment_target(seg)].range(sub, out);
            // The backend may also serve later segments; entries at or past
            // this segment's upper bound belong to those walks, not this one.
            if let Some(hi) = seg_hi {
                while out.len() > at && out.last().is_some_and(|e| e.0 >= hi) {
                    out.pop();
                }
            }
            // Clip overshoot past the end bound; once anything is clipped
            // there, no later segment can contribute.
            let mut end_clipped = false;
            while out.len() > at && out.last().is_some_and(|e| !spec.admits(e.0)) {
                out.pop();
                end_clipped = true;
            }
            if end_clipped {
                break;
            }
            remaining -= out.len() - at;
            seg += 1;
        }
        out.len() - before
    }

    /// Sum of the per-shard entry counts, read **non-atomically**: each
    /// shard is queried in turn with no global quiesce, so while writers are
    /// active the sum may mix before/after states of different shards and
    /// transiently differ from any single serialization of the write stream.
    /// A live **migration** widens the same caveat: between extraction and
    /// the routing commit the moving entries are in neither backend, so the
    /// sum can transiently under-count by up to the moved range's size (it
    /// never double-counts — entries are removed before they are re-inserted).
    /// In a quiesced state (no in-flight writes, no migration) the value is
    /// exact — see `len_is_exact_when_quiesced` here and the post-split/merge
    /// exactness test in `gre-elastic`, which pin this contract.
    fn len(&self) -> usize {
        self.backends.iter().map(|b| b.len()).sum()
    }

    /// Same consistency contract as [`ConcurrentIndex::len`]: non-atomic
    /// per-shard sum, transiently off under live writers or a migration,
    /// exact when quiesced.
    fn memory_usage(&self) -> usize {
        self.backends.iter().map(|b| b.memory_usage()).sum()
    }

    /// Merged metadata: capability flags are the conjunction over shards
    /// (the composite only supports what every backend supports).
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
        meta.name = self.name;
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
    fn bulk_load_spreads_and_round_trips_hash_scheme() {
        let mut idx = sharded(Partitioner::hash(4));
        idx.bulk_load(&entries(8_000));
        assert_eq!(idx.len(), 8_000);
        assert!(idx.per_shard_lens().iter().all(|&l| l >= 1_000));
        for i in (0..8_000).step_by(97) {
            assert_eq!(idx.get(i * 7), Some(i));
        }
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
        for partitioner in [Partitioner::range(8), Partitioner::hash(8)] {
            let mut idx = sharded(partitioner);
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
    }

    #[test]
    fn range_scan_stitches_across_shard_boundaries_in_order() {
        for partitioner in [Partitioner::range(8), Partitioner::hash(8)] {
            let mut idx = sharded(partitioner);
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
    }

    #[test]
    fn bounded_range_scan_clips_at_end_across_shards() {
        for partitioner in [Partitioner::range(8), Partitioner::hash(8)] {
            let scheme = partitioner.scheme();
            let mut idx = sharded(partitioner);
            idx.bulk_load(&entries(8_000)); // keys 0, 7, 14, …
                                            // Window [21, 2100]: keys 21..=2100 step 7 → 298 entries, fewer
                                            // than the count limit, so the end bound does the clipping.
            let mut out = Vec::new();
            let got = idx.range(RangeSpec::bounded(21, 2_100, 5_000), &mut out);
            assert_eq!(got, 298, "{scheme}");
            assert_eq!(out.first().unwrap().0, 21);
            assert_eq!(out.last().unwrap().0, 2_100); // 2100 = 300*7 is a stored key
            assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(out.iter().all(|e| (21..=2_100).contains(&e.0)));
            // Count still limits a wide bounded window.
            out.clear();
            assert_eq!(idx.range(RangeSpec::bounded(0, u64::MAX, 10), &mut out), 10);
            // Empty window.
            out.clear();
            assert_eq!(
                idx.range(RangeSpec::bounded(22, 27, 10), &mut out),
                0,
                "{scheme}"
            );
        }
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
        let mut idx = sharded(Partitioner::range(4)).with_name("sharded(map,4)");
        idx.bulk_load(&entries(2_000));
        assert!(idx.memory_usage() >= 2_000 * 48);
        let meta = idx.meta();
        assert_eq!(meta.name, "sharded(map,4)");
        assert!(meta.concurrent);
        assert!(meta.supports_delete);
        assert!(meta.supports_range);
        assert!(!meta.learned);
        assert_eq!(idx.num_shards(), 4);
        assert_eq!(idx.partitioner().scheme(), "range");
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

    #[test]
    #[should_panic(expected = "one backend per shard")]
    fn mismatched_backend_count_panics() {
        let _ = ShardedIndex::new(Partitioner::<u64>::range(4), vec![backend()]);
    }

    #[test]
    fn boxed_dyn_backends_work() {
        // The gre-core Box forwarding impl in action: heterogeneous-capable
        // dyn backends under one sharded store.
        let partitioner = Partitioner::<u64>::hash(3);
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
