//! ALEX — an updatable adaptive learned index (Ding et al., SIGMOD'20).
//!
//! ALEX combines *ML for subspace lookup* in its inner level with
//! *gapped-array* data nodes: each data node stores its entries spread over a
//! larger array according to a per-node linear model, leaving gaps that
//! absorb inserts. Lookups predict a slot and run an exponential "last-mile"
//! search around it; inserts either land in a nearby gap or shift existing
//! keys toward the closest gap (the write amplification the paper analyses in
//! Figure 3 / Table 3). A structural modification operation (SMO) rebuilds a
//! node whose insert found no room or whose density passed
//! `AlexConfig::max_density`: expanded and retrained in place while it holds
//! fewer than `max_node_entries` entries, split at the median key otherwise.
//! (The paper picks between these from a cost model over per-node runtime
//! statistics; this reproduction keeps no such statistics — the size budget
//! and the density bounds are the whole rule.)
//!
//! # Data-node layout
//!
//! A node is three parallel arrays over `capacity` slots plus a linear model:
//!
//! * `keys` is **gap-filled**: an occupied slot holds its key, a gap holds
//!   the key of the next occupied slot to its right, and the trailing gaps
//!   hold the sentinel `K::MAX`. The array is therefore non-decreasing, and
//!   the last-mile search is a plain exponential + binary search over it —
//!   no occupancy test on the search path. The slot it returns is either
//!   occupied or the start of the gap run in front of the occupied slot with
//!   the same key. `K::MAX` stays a legal key: a slot is live only if its bit
//!   is set, so the sentinel neither surfaces in a scan nor hides an entry.
//! * `values` holds payloads at the same slots (gaps hold stale data).
//! * `bitmap` has one bit per slot in `u64` words (`capacity.div_ceil(64)` of
//!   them, unused high bits of the last word zero). "Next occupied slot" and
//!   "closest gap" are `trailing_zeros` / `leading_zeros` over words; a range
//!   scan starts at the lower bound of its start key and walks set bits.
//!
//! Shift rule: an insert whose lower bound has a gap run in front of it takes
//! the gap of that run closest to the model's prediction and re-fills the
//! gaps before it. Otherwise it finds the closest gap on either side from the
//! bitmap (ties go right), moves the keys and values in between by one slot
//! with a single `memmove` each, and sets one bit. A remove clears one bit
//! and re-fills the freed slot and the gap run before it.
//!
//! Our implementation keeps ALEX's two defining choices — model-predicted
//! positions in gapped arrays, and a model-routed inner level — with one
//! structural simplification: a single inner level routes directly to data
//! nodes (with the paper's default 16 MB node budget, two levels are what
//! ALEX itself builds at the scales we benchmark).

use gre_core::{
    Index, IndexMeta, Key, OpCounters, Partitionable, Payload, Probe, RangeSpec, StatsSnapshot,
};
use gre_pla::LinearModel;
use std::time::Instant;

/// Configuration of ALEX (Table 1).
#[derive(Debug, Clone, Copy)]
pub struct AlexConfig {
    /// Maximum number of entries per data node (the paper's 16 MB node
    /// budget equals ~1M 16-byte entries; scaled-down runs use less).
    pub max_node_entries: usize,
    /// Lower density bound: a node whose density falls below this after
    /// deletions is repacked.
    pub min_density: f64,
    /// Initial density used when (re)building a node.
    pub init_density: f64,
    /// Upper density bound: exceeding it triggers an SMO.
    pub max_density: f64,
}

impl Default for AlexConfig {
    fn default() -> Self {
        AlexConfig {
            max_node_entries: 1 << 20,
            min_density: 0.6,
            init_density: 0.7,
            max_density: 0.8,
        }
    }
}

impl AlexConfig {
    /// The memory-constrained configuration of Figure 9 (ALEX-M): the fill
    /// factor is lowered so the index occupies roughly the same space as
    /// LIPP (resulting density 0.2–0.25 in the paper).
    pub fn memory_matched() -> Self {
        AlexConfig {
            init_density: 0.22,
            min_density: 0.1,
            max_density: 0.5,
            ..Default::default()
        }
    }
}

/// A gapped-array data node (layout in the module doc).
#[derive(Debug)]
pub struct DataNode<K> {
    model: LinearModel,
    /// Gap-filled and non-decreasing: a gap repeats the key of the next
    /// occupied slot to its right, trailing gaps hold `K::MAX`.
    keys: Vec<K>,
    values: Vec<Payload>,
    /// Bit `i` is set iff slot `i` is occupied; bits past `capacity()` are 0.
    bitmap: Vec<u64>,
    num_keys: usize,
}

impl<K: Key> DataNode<K> {
    /// Build a node from sorted entries at the given density.
    fn build(entries: &[(K, Payload)], density: f64) -> Self {
        let n = entries.len();
        let capacity = ((n as f64 / density.max(0.05)).ceil() as usize).max(n.max(4));
        let expansion = if n > 1 {
            (capacity - 1) as f64 / (n - 1) as f64
        } else {
            1.0
        };
        let model = LinearModel::fit_points(
            entries
                .iter()
                .enumerate()
                .map(|(i, e)| (e.0.to_model_input(), i as f64 * expansion)),
        );
        let mut values = vec![0; capacity];
        let mut bitmap = vec![0u64; capacity.div_ceil(64)];
        // Model-based placement: put each entry at its predicted slot, pushed
        // right past already-filled slots and pulled left just enough to
        // guarantee the remaining entries still fit.
        let mut next_free = 0usize;
        for (i, &(k, v)) in entries.iter().enumerate() {
            let predicted = model.predict_clamped(k, capacity);
            let pos = predicted.max(next_free).min(capacity - (n - i));
            values[pos] = v;
            bitmap[pos / 64] |= 1 << (pos % 64);
            next_free = pos + 1;
        }
        // Gap fill: a slot takes the key of the first entry placed at or
        // after it. That is entry number `rank`, the count of occupied slots
        // before it; past the last entry it is the sentinel. (One write per
        // slot and no data-dependent branch: filling each entry's gap run
        // inside the loop above mispredicts once per entry.)
        let mut rank = 0usize;
        let keys = (0..capacity)
            .map(|slot| {
                let key = entries.get(rank).map_or(K::MAX, |e| e.0);
                rank += (bitmap[slot / 64] >> (slot % 64) & 1) as usize;
                key
            })
            .collect();
        DataNode {
            model,
            keys,
            values,
            bitmap,
            num_keys: n,
        }
    }

    /// Number of slots; never below 4, so a model prediction always has a
    /// slot to land in.
    fn capacity(&self) -> usize {
        self.keys.len()
    }

    fn density(&self) -> f64 {
        self.num_keys as f64 / self.capacity() as f64
    }

    /// The slot the node's model predicts for `key`.
    #[inline]
    fn predict(&self, key: K) -> usize {
        self.model.predict_clamped(key, self.capacity())
    }

    /// First slot `>= from` whose occupancy equals `occupied`, or
    /// `capacity()` if there is none.
    fn next_slot(&self, from: usize, occupied: bool) -> usize {
        let cap = self.capacity();
        let flip = if occupied { 0 } else { !0u64 };
        let mut mask = !0u64 << (from % 64);
        for w in from / 64..self.bitmap.len() {
            let word = (self.bitmap[w] ^ flip) & mask;
            if word != 0 {
                // A zero bit past `capacity()` is not a gap.
                return (w * 64 + word.trailing_zeros() as usize).min(cap);
            }
            mask = !0;
        }
        cap
    }

    /// Last slot `< before` whose occupancy equals `occupied`.
    fn prev_slot(&self, before: usize, occupied: bool) -> Option<usize> {
        let last = before.checked_sub(1)?;
        let flip = if occupied { 0 } else { !0u64 };
        let mut mask = !0u64 >> (63 - last % 64);
        for w in (0..=last / 64).rev() {
            let word = (self.bitmap[w] ^ flip) & mask;
            if word != 0 {
                return Some(w * 64 + 63 - word.leading_zeros() as usize);
            }
            mask = !0;
        }
        None
    }

    /// First slot whose (gap-filled) key is `>= key`, or `capacity()` if
    /// every slot holds a smaller key: ALEX's "last-mile" search, an
    /// exponential search outward from the model's prediction `pred` and a
    /// binary search inside the bracket it finds. The slot is occupied or
    /// starts the gap run that ends at the occupied slot holding that key.
    fn lower_bound(&self, key: K, pred: usize) -> usize {
        let keys = &self.keys[..];
        let (mut lo, mut hi) = (0, keys.len());
        let mut step = 1usize;
        if keys[pred] >= key {
            hi = pred;
            while step <= pred {
                if keys[pred - step] < key {
                    lo = pred - step + 1;
                    break;
                }
                hi = pred - step;
                step *= 2;
            }
        } else {
            lo = pred + 1;
            while pred + step < keys.len() {
                if keys[pred + step] >= key {
                    hi = pred + step;
                    break;
                }
                lo = pred + step + 1;
                step *= 2;
            }
        }
        lo + keys[lo..hi].partition_point(|k| *k < key)
    }

    /// The occupied slot holding `key`, searching from the prediction `pred`.
    fn find(&self, key: K, pred: usize) -> Option<usize> {
        let first = self.lower_bound(key, pred);
        if self.keys.get(first) != Some(&key) {
            return None;
        }
        // A gap that repeats `key` ends at the slot holding it — except in
        // the trailing run, whose `K::MAX` fill stands for no entry.
        let slot = self.next_slot(first, true);
        (slot < self.capacity()).then_some(slot)
    }

    /// Point probe from a precomputed model prediction, shared by the scalar
    /// and batched read paths.
    #[inline]
    fn probe(&self, key: K, pred: usize) -> Option<Payload> {
        self.find(key, pred).map(|slot| self.values[slot])
    }

    /// Insert. Returns `(newly_inserted, keys_shifted)` or `Err(())` if the
    /// node has no room and needs an SMO first.
    fn insert(&mut self, key: K, value: Payload) -> Result<(bool, u64), ()> {
        let cap = self.capacity();
        let pred = self.predict(key);
        // The legal insertion region is `[first, lb)`: the run of gaps
        // between the last occupied key < `key` and the first one >= `key`.
        let first = self.lower_bound(key, pred);
        let lb = self.next_slot(first, true);
        if lb < cap && self.keys[lb] == key {
            self.values[lb] = value;
            return Ok((false, 0));
        }
        if self.num_keys >= cap {
            return Err(());
        }
        let (pos, taken) = if first < lb {
            // A gap is available without shifting: use the one closest to
            // the model's prediction; the gaps before it now precede `key`.
            let pos = pred.clamp(first, lb - 1);
            self.keys[first..pos].fill(key);
            (pos, pos)
        } else {
            // Slots `lb - 1` and `lb` are both occupied (or a node edge):
            // shift the shorter run of keys one slot into the closest gap.
            // The gap's own run already repeats the key that moves into it,
            // so the fill needs no repair.
            let right = self.next_slot(lb, false);
            match self.prev_slot(lb, false) {
                Some(left) if right == cap || lb - 1 - left < right - lb => {
                    self.keys.copy_within(left + 1..lb, left);
                    self.values.copy_within(left + 1..lb, left);
                    (lb - 1, left)
                }
                _ => {
                    self.keys.copy_within(lb..right, lb + 1);
                    self.values.copy_within(lb..right, lb + 1);
                    (lb, right)
                }
            }
        };
        self.keys[pos] = key;
        self.values[pos] = value;
        self.bitmap[taken / 64] |= 1 << (taken % 64);
        self.num_keys += 1;
        Ok((true, pos.abs_diff(taken) as u64))
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let slot = self.find(key, self.predict(key))?;
        self.bitmap[slot / 64] &= !(1 << (slot % 64));
        self.num_keys -= 1;
        // The freed slot joins the gap run before it, and the whole run now
        // precedes the next key to the right.
        let run = self.prev_slot(slot, true).map_or(0, |p| p + 1);
        let fill = self.keys.get(slot + 1).copied().unwrap_or(K::MAX);
        self.keys[run..=slot].fill(fill);
        Some(self.values[slot])
    }

    /// All live entries in key order.
    fn entries(&self) -> Vec<(K, Payload)> {
        let mut out = Vec::with_capacity(self.num_keys);
        self.scan_from(0, usize::MAX, &mut out);
        out
    }

    /// Append the live entries of slots `>= from`, in key order, until `out`
    /// holds `limit` entries: walks set bits, so it costs O(entries
    /// appended), not O(slots).
    fn scan_from(&self, from: usize, limit: usize, out: &mut Vec<(K, Payload)>) {
        let mut mask = !0u64 << (from % 64);
        for w in from / 64..self.bitmap.len() {
            let mut word = self.bitmap[w] & mask;
            mask = !0;
            while word != 0 {
                if out.len() >= limit {
                    return;
                }
                let slot = w * 64 + word.trailing_zeros() as usize;
                out.push((self.keys[slot], self.values[slot]));
                word &= word - 1;
            }
        }
    }

    fn memory(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.keys.capacity() * std::mem::size_of::<K>()
            + self.values.capacity() * std::mem::size_of::<Payload>()
            + self.bitmap.capacity() * std::mem::size_of::<u64>()
    }

    /// Panic unless the layout invariants of the module doc hold.
    #[cfg(any(test, debug_assertions))]
    fn check(&self) {
        let cap = self.capacity();
        assert_eq!(self.values.len(), cap);
        assert_eq!(self.bitmap.len(), cap.div_ceil(64));
        let live: u32 = self.bitmap.iter().map(|w| w.count_ones()).sum();
        assert_eq!(live as usize, self.num_keys, "popcount != num_keys");
        if cap % 64 != 0 {
            assert_eq!(self.bitmap[cap / 64] >> (cap % 64), 0, "bits past capacity");
        }
        // Right to left: a gap repeats the next occupied key (or the
        // sentinel), occupied keys strictly ascend — so `keys` never descends.
        let mut next: Option<K> = None;
        for i in (0..cap).rev() {
            if self.bitmap[i / 64] >> (i % 64) & 1 == 1 {
                assert!(
                    next.map_or(true, |n| self.keys[i] < n),
                    "slot {i} out of order"
                );
                next = Some(self.keys[i]);
            } else {
                assert_eq!(self.keys[i], next.unwrap_or(K::MAX), "gap {i} not filled");
            }
        }
        let bitmap_bytes = self.bitmap.len() * std::mem::size_of::<u64>();
        let slot_bytes = std::mem::size_of::<K>() + std::mem::size_of::<Payload>();
        assert!(self.memory() >= cap * slot_bytes + bitmap_bytes);
    }
}

/// Best-effort read prefetch of the cache line holding `*ptr`. No-op on
/// architectures without an exposed prefetch intrinsic.
#[inline(always)]
fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch never faults, even on invalid addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// ALEX: a model-routed collection of gapped-array data nodes.
#[derive(Debug)]
pub struct Alex<K> {
    config: AlexConfig,
    /// Inner-level model routing keys to data nodes ("ML for subspace lookup").
    inner_model: LinearModel,
    /// First key of each data node (used to correct the model's routing).
    boundaries: Vec<K>,
    nodes: Vec<DataNode<K>>,
    len: usize,
    counters: OpCounters,
}

impl<K: Key> Default for Alex<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> Alex<K> {
    pub fn new() -> Self {
        Self::with_config(AlexConfig::default())
    }

    pub fn with_config(config: AlexConfig) -> Self {
        Alex {
            config,
            inner_model: LinearModel::default(),
            boundaries: vec![K::MIN],
            nodes: vec![DataNode::build(&[], config.init_density)],
            len: 0,
            counters: OpCounters::default(),
        }
    }

    /// Number of data nodes.
    pub fn data_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Average data-node density (used by the ALEX-M experiment).
    pub fn average_density(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes.iter().map(|n| n.density()).sum::<f64>() / self.nodes.len() as f64
    }

    /// Retrain the inner routing model from the current node boundaries.
    fn retrain_inner(&mut self) {
        self.inner_model = LinearModel::fit_points(
            self.boundaries
                .iter()
                .enumerate()
                .map(|(i, k)| (k.to_model_input(), i as f64)),
        );
    }

    /// Route a key to its data node: model prediction plus local correction.
    /// Returns `(node_index, nodes_traversed)`.
    fn locate(&self, key: K) -> (usize, u64) {
        let n = self.nodes.len();
        let mut idx = self.inner_model.predict_clamped(key, n);
        let mut traversed = 1u64;
        while idx + 1 < n && self.boundaries[idx + 1] <= key {
            idx += 1;
            traversed += 1;
        }
        while idx > 0 && self.boundaries[idx] > key {
            idx -= 1;
            traversed += 1;
        }
        (idx, traversed.max(1))
    }

    /// Rebuild or split node `idx` after its insert failed or its density
    /// exceeded the budget: expand and retrain while the node is under the
    /// size budget, split otherwise.
    fn smo(&mut self, idx: usize) {
        #[cfg(debug_assertions)]
        self.nodes[idx].check();
        let entries = self.nodes[idx].entries();
        if entries.len() < self.config.max_node_entries {
            // Expand & retrain in place.
            self.nodes[idx] = DataNode::build(&entries, self.config.init_density);
            return;
        }
        // Split into two nodes at the median key.
        let mid = entries.len() / 2;
        let left = DataNode::build(&entries[..mid], self.config.init_density);
        let right = DataNode::build(&entries[mid..], self.config.init_density);
        let right_first = entries[mid].0;
        self.nodes[idx] = left;
        self.nodes.insert(idx + 1, right);
        self.boundaries.insert(idx + 1, right_first);
        self.retrain_inner();
    }
}

impl<K: Key> Index<K> for Alex<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.len = entries.len();
        self.nodes.clear();
        self.boundaries.clear();
        if entries.is_empty() {
            self.boundaries.push(K::MIN);
            self.nodes
                .push(DataNode::build(&[], self.config.init_density));
            self.retrain_inner();
            return;
        }
        // Partition into data nodes of at most max_node_entries * density.
        let per_node = ((self.config.max_node_entries as f64 * self.config.init_density) as usize)
            .clamp(64, self.config.max_node_entries)
            .min(entries.len().max(1));
        for chunk in entries.chunks(per_node) {
            self.boundaries.push(chunk[0].0);
            self.nodes
                .push(DataNode::build(chunk, self.config.init_density));
        }
        self.boundaries[0] = K::MIN;
        self.retrain_inner();
        self.counters = OpCounters::default();
    }

    fn get(&self, key: K) -> Option<Payload> {
        let (idx, _) = self.locate(key);
        let node = &self.nodes[idx];
        node.probe(key, node.predict(key))
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let start = Instant::now();
        let (idx, traversed) = self.locate(key);
        let located = Instant::now();
        let c = &mut self.counters;
        c.inserts += 1;
        c.nodes_traversed += traversed;
        c.insert_breakdown.lookup_ns += (located - start).as_nanos() as u64;

        let mut triggered_smo = false;
        let (inserted, shifted) = match self.nodes[idx].insert(key, value) {
            Ok(pair) => pair,
            Err(()) => {
                // SMO, then retry (the retry cannot fail: the rebuilt node has
                // gaps again).
                let smo_start = Instant::now();
                self.smo(idx);
                self.counters.insert_breakdown.smo_ns += smo_start.elapsed().as_nanos() as u64;
                self.counters.nodes_created += 1;
                triggered_smo = true;
                let (idx2, _) = self.locate(key);
                self.nodes[idx2]
                    .insert(key, value)
                    .expect("insert after SMO must succeed")
            }
        };
        // Attribute post-lookup time: shifting dominates when keys moved.
        let work_ns = located.elapsed().as_nanos() as u64;
        let c = &mut self.counters;
        c.keys_shifted += shifted;
        if shifted > 0 {
            c.insert_breakdown.shift_ns += work_ns;
        } else {
            c.insert_breakdown.insert_ns += work_ns;
        }

        if inserted {
            self.len += 1;
        }
        // Density-triggered proactive SMO (performance-driven design).
        let idx = idx.min(self.nodes.len() - 1);
        if self.nodes[idx].density() > self.config.max_density {
            let smo_start = Instant::now();
            self.smo(idx);
            self.counters.insert_breakdown.smo_ns += smo_start.elapsed().as_nanos() as u64;
            self.counters.nodes_created += 1;
            triggered_smo = true;
        }
        self.counters.smo_count += u64::from(triggered_smo);
        inserted
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let (idx, _) = self.locate(key);
        let removed = self.nodes[idx].remove(key);
        if removed.is_some() {
            self.len -= 1;
            // Deleting keys does not pollute the model (Message 8); we only
            // repack when density drops far below the minimum.
            if self.nodes[idx].density() < self.config.min_density / 4.0
                && self.nodes[idx].num_keys > 0
                && self.nodes[idx].capacity() > 64
            {
                let entries = self.nodes[idx].entries();
                self.nodes[idx] = DataNode::build(&entries, self.config.init_density);
                self.counters.smo_count += 1;
            }
        }
        removed
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        let (first, _) = self.locate(spec.start);
        let target = before.saturating_add(spec.count);
        // Only the first node is searched; every later one holds larger keys
        // and is scanned from its first slot.
        let node = &self.nodes[first];
        let mut from = node.lower_bound(spec.start, node.predict(spec.start));
        for node in &self.nodes[first..] {
            if out.len() >= target {
                break;
            }
            node.scan_from(from, target, out);
            from = 0;
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.boundaries.capacity() * std::mem::size_of::<K>()
            + self.nodes.iter().map(DataNode::memory).sum::<usize>()
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::new(self.counters)
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "ALEX",
            learned: true,
            concurrent: false,
            supports_delete: true,
            supports_range: true,
        }
    }
}

/// ALEX+ is [`gre_core::Partitioned`] over ALEX (see `concurrent.rs`).
impl<K: Key> Partitionable<K> for Alex<K> {
    const CONCURRENT_NAME: &'static str = "ALEX+";

    /// Stage 1 of the batched lookup: route through the inner model,
    /// predict the slot, and prefetch the lines stage 2 searches first.
    #[inline]
    fn probe_start(&self, key: K) -> Probe {
        let (node, _) = self.locate(key);
        let data = &self.nodes[node];
        let slot = data.predict(key);
        prefetch_read(data.keys.as_ptr().wrapping_add(slot));
        prefetch_read(data.bitmap.as_ptr().wrapping_add(slot / 64));
        Probe { node, slot }
    }

    /// Stage 2: the last-mile search from the prefetched prediction.
    #[inline]
    fn probe_finish(&self, key: K, probe: Probe) -> Option<Payload> {
        self.nodes[probe.node].probe(key, probe.slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 13 + 7, i)).collect()
    }

    #[test]
    fn bulk_load_and_lookup() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(20_000));
        assert_eq!(alex.len(), 20_000);
        for i in (0..20_000).step_by(173) {
            assert_eq!(alex.get(i * 13 + 7), Some(i), "key {}", i * 13 + 7);
            assert_eq!(alex.get(i * 13 + 8), None);
        }
    }

    #[test]
    fn inserts_fill_gaps_and_shift() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(5_000));
        for i in 0..5_000u64 {
            assert!(
                alex.insert(i * 13 + 8, i + 100_000),
                "insert {}",
                i * 13 + 8
            );
        }
        assert_eq!(alex.len(), 10_000);
        for i in (0..5_000).step_by(97) {
            assert_eq!(alex.get(i * 13 + 7), Some(i));
            assert_eq!(alex.get(i * 13 + 8), Some(i + 100_000));
        }
        let stats = alex.stats();
        assert_eq!(stats.counters.inserts, 5_000);
        // Some inserts needed shifting, some landed in gaps.
        assert!(stats.counters.keys_shifted > 0);
    }

    #[test]
    fn update_in_place_returns_false() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(100));
        assert!(!alex.insert(7, 999));
        assert_eq!(alex.get(7), Some(999));
        assert_eq!(alex.len(), 100);
    }

    #[test]
    fn empty_index_inserts_from_scratch() {
        let mut alex: Alex<u64> = Alex::new();
        assert!(alex.is_empty());
        for i in 0..2_000u64 {
            assert!(alex.insert(i * 3, i));
        }
        assert_eq!(alex.len(), 2_000);
        for i in 0..2_000u64 {
            assert_eq!(alex.get(i * 3), Some(i));
        }
    }

    #[test]
    fn remove_and_range() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(3_000));
        for i in 0..1_000u64 {
            assert_eq!(alex.remove(i * 13 + 7), Some(i));
            assert_eq!(alex.get(i * 13 + 7), None);
        }
        assert_eq!(alex.len(), 2_000);
        assert_eq!(alex.remove(4), None);
        let mut out = Vec::new();
        let got = alex.range(RangeSpec::new(0, 100), &mut out);
        assert_eq!(got, 100);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out[0].0, 1_000 * 13 + 7);
    }

    #[test]
    fn matches_model_under_random_ops() {
        let mut alex = Alex::with_config(AlexConfig {
            max_node_entries: 1 << 12,
            ..Default::default()
        });
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0x5a5a5a;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 10_000;
            match x % 3 {
                0 => assert_eq!(
                    alex.insert(key, i),
                    model.insert(key, i).is_none(),
                    "insert {key}"
                ),
                1 => assert_eq!(alex.remove(key), model.remove(&key), "remove {key}"),
                _ => assert_eq!(alex.get(key), model.get(&key).copied(), "get {key}"),
            }
            alex.nodes.iter().for_each(DataNode::check);
        }
        assert_eq!(alex.len(), model.len());
        let mut out = Vec::new();
        alex.range(RangeSpec::new(0, usize::MAX), &mut out);
        let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn dense_cluster_shifts_both_ways_and_retries_after_smo() {
        // Sparse keys fit the model; a cluster that grows from both of its
        // ends then packs the slots around one prediction solid, so inserts
        // at its bottom find the closest gap on the left and inserts at its
        // top find it on the right. `max_density: 1.0` turns the proactive
        // trigger off: the node fills to the last slot and the insert that
        // finds no room takes the SMO-then-retry path.
        let mut alex = Alex::with_config(AlexConfig {
            max_density: 1.0,
            ..Default::default()
        });
        let sparse: Vec<(u64, Payload)> = (0..64u64).map(|i| (i << 32, i)).collect();
        alex.bulk_load(&sparse);
        let mut model: BTreeMap<u64, u64> = sparse.iter().copied().collect();
        let middle = (32u64 << 32) + (1 << 31);
        let (mut left, mut right, mut retries, mut densest) = (0, 0, 0, 0.0f64);
        for i in 0..3_000u64 {
            let key = if i % 2 == 0 { middle - i } else { middle + i };
            let before = alex.nodes[0].bitmap.clone();
            let counted = alex.stats().counters;
            assert!(alex.insert(key, i));
            model.insert(key, i);
            let node = &alex.nodes[0];
            node.check();
            densest = densest.max(node.density());
            let now = alex.stats().counters;
            let shifted = now.keys_shifted - counted.keys_shifted;
            if now.smo_count > counted.smo_count {
                retries += 1;
            } else if shifted > 0 {
                let taken = before
                    .iter()
                    .zip(&node.bitmap)
                    .enumerate()
                    .find_map(|(w, (old, new))| {
                        (old != new).then(|| w * 64 + (old ^ new).trailing_zeros() as usize)
                    })
                    .expect("one slot became occupied");
                let pos = node.find(key, node.predict(key)).expect("just inserted");
                assert_eq!(shifted, pos.abs_diff(taken) as u64);
                if taken < pos {
                    left += 1;
                } else {
                    right += 1;
                }
            }
        }
        assert!(
            left > 0 && right > 0 && retries > 0,
            "{left} {right} {retries}"
        );
        assert!(densest >= 0.8);
        let mut out = Vec::new();
        alex.range(RangeSpec::new(0, usize::MAX), &mut out);
        assert_eq!(out, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn node_splits_bound_node_size() {
        let mut alex = Alex::with_config(AlexConfig {
            max_node_entries: 1024,
            ..Default::default()
        });
        for i in 0..10_000u64 {
            alex.insert(i, i);
        }
        assert!(alex.data_node_count() > 4);
        for i in (0..10_000).step_by(487) {
            assert_eq!(alex.get(i), Some(i));
        }
        assert!(alex.stats().counters.smo_count > 0);
    }

    #[test]
    fn memory_matched_config_lowers_density() {
        let mut normal = Alex::new();
        let mut matched = Alex::with_config(AlexConfig::memory_matched());
        normal.bulk_load(&entries(20_000));
        matched.bulk_load(&entries(20_000));
        assert!(matched.average_density() < normal.average_density());
        assert!(matched.memory_usage() > normal.memory_usage());
        assert_eq!(matched.get(7), Some(0));
    }

    /// The two-stage probe, driven through ALEX+'s batched lookup.
    #[test]
    fn batched_lookup_matches_scalar_gets() {
        use crate::AlexPlus;
        use gre_core::{ConcurrentIndex, Partitioned, BATCH_WIDTH};
        // Small nodes, so each partition holds several and stage 1 routes.
        let mut alex: AlexPlus<u64> = Partitioned::with_inner(|| {
            Alex::with_config(AlexConfig {
                max_node_entries: 128,
                ..Default::default()
            })
        });
        ConcurrentIndex::bulk_load(&mut alex, &entries(20_000));
        // Mixed hits and misses, shuffled order, length not a multiple of
        // the batch width, duplicates included.
        let mut keys: Vec<u64> = (0..1_003u64)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) % 25_000) * 13 + 7 - (i % 2))
            .collect();
        keys.push(keys[0]);
        assert_ne!(keys.len() % BATCH_WIDTH, 0);
        let mut batched = Vec::new();
        alex.get_batch(&keys, &mut batched);
        let scalar: Vec<_> = keys.iter().map(|&k| alex.get(k)).collect();
        assert_eq!(batched, scalar);
        assert!(batched.iter().any(|r| r.is_some()));
        assert!(batched.iter().any(|r| r.is_none()));

        // Empty index and empty batch are both fine.
        let empty: AlexPlus<u64> = AlexPlus::new();
        let mut out = Vec::new();
        empty.get_batch(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![None, None, None]);
        empty.get_batch(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn insert_stats_report_breakdown() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(1_000));
        alex.insert(5, 5);
        // bulk_load restarts the counters, so they hold this one insert.
        let s = alex.stats().counters;
        assert!(s.nodes_traversed >= 1);
        assert!(s.insert_breakdown.total_ns() >= s.insert_breakdown.lookup_ns);
        assert_eq!(alex.meta().name, "ALEX");
        assert!(alex.meta().learned);
    }
}
