//! ALEX — an updatable adaptive learned index (Ding et al., SIGMOD'20).
//!
//! ALEX combines *ML for subspace lookup* in its inner level with
//! *gapped-array* data nodes: each data node stores its entries spread over a
//! larger array according to a per-node linear model, leaving gaps that
//! absorb inserts. Lookups predict a slot and run an exponential "last-mile"
//! search around it; inserts either land in a nearby gap or shift existing
//! keys toward the closest gap (the write amplification the paper analyses in
//! Figure 3 / Table 3).
//!
//! # Node sizing
//!
//! One rule sizes every data node, at bulk load and at every structural
//! modification operation (SMO). Placing a key range's entries by its
//! fitted model also yields the keys a random insert is expected to shift,
//! Σ L² / 4n over the packed runs of length L (an insert lands in a run in
//! proportion to its length and shifts a quarter of it on average). The
//! range is one node when that cost is at most `MAX_EXPECTED_SHIFT` and it
//! holds at most `max_node_entries` entries; otherwise it is split at the
//! median and the rule applied to each half. The build is its own cost pass:
//! placement stops as soon as the runs placed so far pass the limit, before
//! the key array is built, so easy data pays no extra pass and hard data
//! only the prefix that proved it hard.
//!
//! The rule needs no floor to end. A range of n keys expects at most n / 4
//! shifts (all of them in one packed run: n² / 4n), so a range of
//! `4 * MAX_EXPECTED_SHIFT` = 256 keys or fewer always builds as one node,
//! and every node a split makes holds at least 128 keys. On 2 M `osm` keys in
//! 64 partitions the rule alone builds about 40 nodes of about 780 keys per
//! partition, whose median expects 21 shifts; a 1 024-key floor had stopped
//! it at 16 nodes of about 1 950 keys whose median expected 248, and random
//! inserts then shifted 305 keys each against 36. The smaller nodes cost
//! 0.5 % more bytes per key.
//!
//! An SMO rebuilds a node through the rule when an insert finds no room, when
//! its density passes `AlexConfig::max_density` (at `init_density`), or when
//! its inserts have out-shifted a rebuild: each node counts the keys its
//! inserts shifted since its build, and once that count exceeds both its key
//! count (the shifts have cost as much as a rebuild) and twice what its build
//! predicted, the node is rebuilt at its own density, clamped to
//! `[init_density, max_density]`, so a split adds no memory. (The paper picks
//! between expand, split sideways and split down from a cost model that also
//! weighs search cost; this rule weighs shifts only, splits at the median,
//! never splits down, and its shift limit is a fixed constant.)
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
//! Updates: `update` writes the payload in the slot one route and one
//! last-mile search find; it moves no key, so it counts and times nothing.
//!
//! Our implementation keeps ALEX's two defining choices — model-predicted
//! positions in gapped arrays, and a model-routed inner level — with one
//! structural simplification: a single inner level routes directly to data
//! nodes (with the paper's default 16 MB node budget, two levels are what
//! ALEX itself builds at the scales we benchmark).

use gre_core::{
    prefetch_read, Index, IndexMeta, Key, OpCounters, Partitionable, Payload, Probe, RangeSpec,
    StatsSnapshot,
};
use gre_pla::LinearModel;
use std::time::Instant;

/// The most keys a random insert may be expected to shift in a node. It
/// separates easy data from hard, as measured per node: `covid` expects
/// about 3.5 shifts at every size, `books` a median of 3.5 to 9.6 and a 90th
/// percentile of 4 to 24, `osm` about 4 100 at 31 k keys but about 60 at
/// 1 k keys. It also bounds the smallest node a split makes (module doc).
const MAX_EXPECTED_SHIFT: f64 = 64.0;

/// `insert` times one insert in this many and scales the lookup and
/// post-lookup times it reads by the same factor. Timing every insert (three
/// clock reads, each of which serializes the pipeline) cost about 40 % of an
/// insert on a 2-core KVM machine.
const TIMED_INSERT_EVERY: u64 = 64;

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
pub(crate) struct DataNode<K> {
    model: LinearModel,
    /// Gap-filled and non-decreasing: a gap repeats the key of the next
    /// occupied slot to its right, trailing gaps hold `K::MAX`.
    keys: Vec<K>,
    values: Vec<Payload>,
    /// Bit `i` is set iff slot `i` is occupied; bits past `capacity()` are 0.
    bitmap: Vec<u64>,
    num_keys: usize,
    /// Keys a random insert was expected to shift when the node was built.
    expected_shift: f64,
    /// Fresh inserts since the build, and the keys they shifted.
    inserts: u64,
    shifted: u64,
}

impl<K: Key> DataNode<K> {
    /// Build a node from sorted `entries` at `density` — unless a random
    /// insert into it would be expected to shift more than `limit` keys:
    /// then placement stops as soon as its runs show that, before the key
    /// array is built, and the answer is `None`.
    fn build(entries: &[(K, Payload)], density: f64, limit: f64) -> Option<Self> {
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
        // guarantee the remaining entries still fit. Meanwhile sum L² over
        // the runs of L adjacent filled slots: a run adds 1 + 3 + ... +
        // (2L - 1), one odd number per slot, kept with selects rather than a
        // branch that irregular keys mispredict.
        let scale = (4 * n.max(1)) as f64;
        let budget = (limit * scale) as usize;
        let (mut next_free, mut run_start, mut squares) = (0usize, 0usize, 0usize);
        for (i, &(k, v)) in entries.iter().enumerate() {
            let predicted = model.predict_clamped(k, capacity);
            let pos = predicted.max(next_free).min(capacity - (n - i));
            run_start = if pos > next_free { pos } else { run_start };
            squares += 2 * (pos - run_start) + 1;
            if squares > budget {
                return None;
            }
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
        Some(DataNode {
            model,
            keys,
            values,
            bitmap,
            num_keys: n,
            expected_shift: squares as f64 / scale,
            inserts: 0,
            shifted: 0,
        })
    }

    /// Whether the node's inserts have out-shifted a rebuild: the keys they
    /// shifted since its build exceed both its key count and twice what the
    /// build predicted.
    fn outshifted(&self) -> bool {
        self.shifted > self.num_keys as u64
            && self.shifted as f64 > 2.0 * self.expected_shift * self.inserts as f64
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
        search_from(&self.keys, pred, |k| *k < key).0
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
        let shifted = pos.abs_diff(taken) as u64;
        self.inserts += 1;
        self.shifted += shifted;
        Ok((true, shifted))
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

/// The partition point of `below` over `items` (the first index whose item
/// is not below; `below` must hold for a prefix), found by an exponential
/// search outward from `guess < items.len()` and a binary search inside the
/// bracket it finds. Also returns the probes made after the one at `guess`:
/// each step of the exponential search, and the bit length of the bracket
/// for the binary search.
#[inline]
fn search_from<T>(items: &[T], guess: usize, below: impl Fn(&T) -> bool) -> (usize, u64) {
    let (mut lo, mut hi) = (0, items.len());
    let (mut step, mut probes) = (1usize, 0u64);
    if !below(&items[guess]) {
        hi = guess;
        while step <= guess {
            probes += 1;
            if below(&items[guess - step]) {
                lo = guess - step + 1;
                break;
            }
            hi = guess - step;
            step *= 2;
        }
    } else {
        lo = guess + 1;
        while guess + step < items.len() {
            probes += 1;
            if !below(&items[guess + step]) {
                hi = guess + step;
                break;
            }
            lo = guess + step + 1;
            step *= 2;
        }
    }
    if lo == hi {
        // The common case on easy data: no bracket left to bisect.
        return (lo, probes);
    }
    let bracket = &items[lo..hi];
    let binary = u64::from(usize::BITS - bracket.len().leading_zeros());
    (lo + bracket.partition_point(below), probes + binary)
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
        let mut alex = Alex {
            config,
            inner_model: LinearModel::default(),
            boundaries: Vec::new(),
            nodes: Vec::new(),
            len: 0,
            counters: OpCounters::default(),
        };
        alex.bulk_load(&[]);
        alex
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

    /// Route a key to its data node: the inner model's prediction, corrected
    /// by an exponential search over `boundaries` from it and a binary search
    /// inside the bracket. Returns `(node_index, nodes_traversed)`, the
    /// latter 1 plus the boundary probes of the correction.
    fn locate(&self, key: K) -> (usize, u64) {
        // A lone node needs no routing, nor a load of its boundary.
        if self.boundaries.len() == 1 {
            return (0, 1);
        }
        let guess = self.inner_model.predict_clamped(key, self.boundaries.len());
        // `boundaries[0]` is `K::MIN`, so the partition point is at least 1.
        let (after, probes) = search_from(&self.boundaries, guess, |b| *b <= key);
        (after - 1, 1 + probes)
    }

    /// The node-sizing rule (module doc): build sorted `entries` at
    /// `density` as one node when it is within the size budget and expected
    /// to shift at most `MAX_EXPECTED_SHIFT` keys per insert; otherwise build
    /// each median half by the same rule. Appends the nodes to `out` in key
    /// order.
    fn build_nodes(&self, entries: &[(K, Payload)], density: f64, out: &mut Vec<DataNode<K>>) {
        let n = entries.len();
        if n <= self.config.max_node_entries.max(1) {
            if let Some(node) = DataNode::build(entries, density, MAX_EXPECTED_SHIFT) {
                out.push(node);
                return;
            }
        }
        let (left, right) = entries.split_at(n / 2);
        self.build_nodes(left, density, out);
        self.build_nodes(right, density, out);
    }

    /// SMO: rebuild node `idx` through the sizing rule at `density`, putting
    /// the nodes it builds in its place. Returns the nanoseconds it took,
    /// which it has also added to `smo_ns`.
    fn smo(&mut self, idx: usize, density: f64) -> u64 {
        let start = Instant::now();
        #[cfg(debug_assertions)]
        self.nodes[idx].check();
        let mut built = Vec::new();
        self.build_nodes(&self.nodes[idx].entries(), density, &mut built);
        let count = built.len();
        // A node's first key is the gap fill of its slot 0.
        let firsts: Vec<K> = built[1..].iter().map(|n| n.keys[0]).collect();
        self.nodes.splice(idx..=idx, built);
        if count > 1 {
            self.boundaries.splice(idx + 1..idx + 1, firsts);
            self.retrain_inner();
        }
        let smo_ns = start.elapsed().as_nanos() as u64;
        self.counters.nodes_created += count as u64;
        self.counters.insert_breakdown.smo_ns += smo_ns;
        smo_ns
    }
}

impl<K: Key> Index<K> for Alex<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.len = entries.len();
        // Chunks of at most max_node_entries * density, each sized by the
        // rule; an empty index still has one (empty) node.
        let density = self.config.init_density;
        let per_node = ((self.config.max_node_entries as f64 * density) as usize)
            .clamp(64, self.config.max_node_entries)
            .min(entries.len().max(1));
        let mut nodes = Vec::new();
        for chunk in entries.chunks(per_node) {
            self.build_nodes(chunk, density, &mut nodes);
        }
        if nodes.is_empty() {
            self.build_nodes(&[], density, &mut nodes);
        }
        self.boundaries = nodes.iter().map(|n| n.keys[0]).collect();
        self.boundaries[0] = K::MIN;
        self.nodes = nodes;
        self.retrain_inner();
        self.counters = OpCounters::default();
    }

    fn get(&self, key: K) -> Option<Payload> {
        let (idx, _) = self.locate(key);
        let node = &self.nodes[idx];
        node.probe(key, node.predict(key))
    }

    /// Times one insert in `TIMED_INSERT_EVERY`: `smo_ns` is exact, the
    /// other breakdown fields are scaled from the timed inserts.
    fn insert(&mut self, key: K, value: Payload) -> bool {
        let timed = self.counters.inserts % TIMED_INSERT_EVERY == 0;
        let start = timed.then(Instant::now);
        let (mut idx, traversed) = self.locate(key);
        let located = timed.then(Instant::now);
        let c = &mut self.counters;
        c.inserts += 1;
        c.nodes_traversed += traversed;

        let (mut triggered_smo, mut retry_smo_ns) = (false, 0);
        let (inserted, shifted) = match self.nodes[idx].insert(key, value) {
            Ok(pair) => pair,
            Err(()) => {
                // SMO, then retry (the retry cannot fail: the rebuilt nodes
                // have gaps again).
                retry_smo_ns = self.smo(idx, self.config.init_density);
                triggered_smo = true;
                idx = self.locate(key).0;
                self.nodes[idx]
                    .insert(key, value)
                    .expect("insert after SMO must succeed")
            }
        };
        let c = &mut self.counters;
        c.keys_shifted += shifted;
        if let (Some(start), Some(located)) = (start, located) {
            // Attribute post-lookup time, less the SMO `smo_ns` already
            // holds: shifting dominates when keys moved.
            let work_ns = located.elapsed().as_nanos() as u64 - retry_smo_ns;
            let b = &mut c.insert_breakdown;
            b.lookup_ns += (located - start).as_nanos() as u64 * TIMED_INSERT_EVERY;
            if shifted > 0 {
                b.shift_ns += work_ns * TIMED_INSERT_EVERY;
            } else {
                b.insert_ns += work_ns * TIMED_INSERT_EVERY;
            }
        }

        if inserted {
            self.len += 1;
        }
        // Proactive SMOs: a node past the density bound expands; a node
        // whose inserts out-shifted a rebuild is rebuilt at its own density.
        let (node, config) = (&self.nodes[idx], self.config);
        let density = if node.density() > config.max_density {
            Some(config.init_density)
        } else if node.outshifted() {
            Some(
                node.density()
                    .max(config.init_density)
                    .min(config.max_density),
            )
        } else {
            None
        };
        if let Some(density) = density {
            self.smo(idx, density);
            triggered_smo = true;
        }
        self.counters.smo_count += u64::from(triggered_smo);
        inserted
    }

    /// In place (module doc, "Updates"): no structure changes, so no SMO
    /// check either.
    fn update(&mut self, key: K, value: Payload) -> bool {
        let (idx, _) = self.locate(key);
        let node = &mut self.nodes[idx];
        match node.find(key, node.predict(key)) {
            Some(slot) => {
                node.values[slot] = value;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let (idx, _) = self.locate(key);
        let removed = self.nodes[idx].remove(key);
        if removed.is_some() {
            self.len -= 1;
            // Deleting keys does not pollute the model (Message 8); we only
            // repack when density drops far below the minimum.
            let node = &self.nodes[idx];
            if node.density() < self.config.min_density / 4.0
                && node.num_keys > 0
                && node.capacity() > 64
            {
                self.smo(idx, self.config.init_density);
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
    fn updates_write_in_place_and_count_nothing() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(5_000));
        for i in 0..100u64 {
            alex.insert(i * 13 + 8, i);
        }
        let (counters, len) = (alex.stats().counters, alex.len());
        for i in (0..5_000u64).step_by(7) {
            assert!(alex.update(i * 13 + 7, i + 1), "update {}", i * 13 + 7);
        }
        assert!(!alex.update(4, 1), "an absent key stays absent");
        assert_eq!(alex.get(4), None);
        assert_eq!(alex.stats().counters, counters);
        assert_eq!(alex.len(), len);
        for i in (0..5_000u64).step_by(7) {
            assert_eq!(alex.get(i * 13 + 7), Some(i + 1));
        }
        assert_eq!(alex.get(20), Some(1), "an unupdated key keeps its payload");
    }

    #[test]
    fn sampled_insert_timing_keeps_a_breakdown() {
        let mut alex = Alex::new();
        alex.bulk_load(&entries(5_000));
        for i in 0..1_000u64 {
            assert!(alex.insert(i * 13 + 8, i));
        }
        let b = alex.stats().counters.insert_breakdown;
        assert!(b.lookup_ns > 0, "{b:?}");
        assert!(b.total_ns() >= b.smo_ns, "{b:?}");
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
        // top find it on the right. `max_density: 1.0` turns the density
        // trigger off: the node fills to the last slot and the insert that
        // finds no room takes the SMO-then-retry path. The cluster's shifts
        // also trigger splits, so each key is followed to its node through
        // `locate`.
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
            let (at, _) = alex.locate(key);
            let before = alex.nodes[at].bitmap.clone();
            let counted = alex.stats().counters;
            assert!(alex.insert(key, i));
            model.insert(key, i);
            let now = alex.stats().counters;
            let shifted = now.keys_shifted - counted.keys_shifted;
            if now.smo_count > counted.smo_count {
                retries += 1;
                alex.nodes.iter().for_each(DataNode::check);
                continue;
            }
            // No SMO: the node list is unchanged and `key` went to `at`.
            let node = &alex.nodes[at];
            node.check();
            densest = densest.max(node.density());
            if shifted > 0 {
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
        assert!(alex.nodes.len() > 1, "the shift trigger split the node");
        let mut out = Vec::new();
        alex.range(RangeSpec::new(0, usize::MAX), &mut out);
        assert_eq!(out, model.into_iter().collect::<Vec<_>>());
    }

    /// The sizing rule's two invariants after a bulk load: every node
    /// expects at most `MAX_EXPECTED_SHIFT` shifts, and every node a split
    /// made holds at least `2 * MAX_EXPECTED_SHIFT` keys (the callers' size
    /// budget chunks hold more, so every node must).
    fn assert_sized(alex: &Alex<u64>) {
        let min_split = 2 * MAX_EXPECTED_SHIFT as usize;
        for node in &alex.nodes {
            node.check();
            assert!(
                node.expected_shift <= MAX_EXPECTED_SHIFT,
                "{} keys expect {} shifts",
                node.num_keys,
                node.expected_shift
            );
            assert!(
                node.num_keys >= min_split,
                "a split left {} keys",
                node.num_keys
            );
        }
    }

    #[test]
    fn a_range_of_four_times_the_shift_limit_always_builds() {
        // One packed run is the worst a range can expect: n / 4 shifts.
        let n = 4 * MAX_EXPECTED_SHIFT as usize;
        let run: Vec<(u64, Payload)> = (0..n as u64).map(|i| (i, i)).collect();
        let packed = DataNode::build(&run, 1.0, MAX_EXPECTED_SHIFT).expect("n / 4 <= limit");
        assert_eq!(packed.expected_shift, MAX_EXPECTED_SHIFT);
        let more: Vec<(u64, Payload)> = (0..=n as u64).map(|i| (i, i)).collect();
        assert!(DataNode::build(&more, 1.0, MAX_EXPECTED_SHIFT).is_none());
    }

    #[test]
    fn clustered_keys_are_bulk_loaded_into_easy_nodes() {
        // Four tight runs of consecutive keys, 2^40 apart: one model over
        // all of them packs each run into a few slots.
        let keys: Vec<(u64, Payload)> = (0..4u64)
            .flat_map(|c| (0..6_000u64).map(move |i| ((c << 40) + i, i)))
            .collect();
        assert!(DataNode::build(&keys, 0.7, MAX_EXPECTED_SHIFT).is_none());
        let mut alex = Alex::new();
        alex.bulk_load(&keys);
        assert!(alex.nodes.len() > 1);
        assert_sized(&alex);
        for &(k, v) in &keys {
            assert_eq!(alex.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn no_osm_node_expects_more_than_the_shift_limit() {
        // A 1 024-key floor stopped the rule here at 128 nodes of 1 024 to
        // 2 047 keys whose median expected 244 shifts.
        let keys: Vec<(u64, Payload)> = gre_datasets::Dataset::Osm
            .generate(200_000, 42)
            .into_iter()
            .map(|k| (k, k))
            .collect();
        let mut alex = Alex::new();
        alex.bulk_load(&keys);
        assert_sized(&alex);
        assert!(alex.nodes.len() > 1);
        for &(k, v) in keys.iter().step_by(97) {
            assert_eq!(alex.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn near_linear_keys_build_the_size_budget_chunks() {
        // Jittered linear keys are easy at every size, so the nodes are the
        // `max_node_entries * init_density` chunks the budget alone gives.
        let config = AlexConfig {
            max_node_entries: 1 << 14,
            ..Default::default()
        };
        let keys: Vec<(u64, Payload)> = (0..100_000u64)
            .map(|i| (i * 64 + (i.wrapping_mul(0x9e37_79b9) >> 7) % 48, i))
            .collect();
        let mut alex = Alex::with_config(config);
        alex.bulk_load(&keys);
        let per_node = (config.max_node_entries as f64 * config.init_density) as usize;
        let mut chunk_firsts: Vec<u64> = keys.chunks(per_node).map(|c| c[0].0).collect();
        chunk_firsts[0] = u64::MIN;
        assert!(chunk_firsts.len() > 1);
        assert_eq!(alex.boundaries, chunk_firsts);
        assert_sized(&alex);
    }

    #[test]
    fn shifting_cluster_splits_its_node_and_stops_shifting() {
        // One node of linear keys takes a dense cluster between two of them,
        // in a seeded order. The packed run around the cluster's prediction
        // makes every insert shift, until the shift trigger rebuilds the
        // node through the rule; repeated splits then give the cluster nodes
        // of its own. Without them the n-th cluster key would shift about
        // n / 4 keys.
        let linear: Vec<(u64, Payload)> = (0..4_096u64).map(|i| (i << 24, i)).collect();
        let mut alex = Alex::new();
        alex.bulk_load(&linear);
        assert_eq!(alex.nodes.len(), 1);
        let mut model: BTreeMap<u64, u64> = linear.iter().copied().collect();
        let mut cluster: Vec<u64> = (1..=20_000u64).map(|i| (2_048u64 << 24) + i).collect();
        let mut x = 42u64;
        for i in (1..cluster.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            cluster.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut shifts = Vec::new();
        let mut split_at = None;
        for (i, &key) in cluster.iter().enumerate() {
            let before = alex.stats().counters.keys_shifted;
            assert!(alex.insert(key, key));
            model.insert(key, key);
            shifts.push(alex.stats().counters.keys_shifted - before);
            if split_at.is_none() && alex.nodes.len() > 1 {
                split_at = Some(i);
            }
            if i % 256 == 0 {
                alex.nodes.iter().for_each(DataNode::check);
            }
        }
        alex.nodes.iter().for_each(DataNode::check);
        let split_at = split_at.expect("the cluster split its node");
        let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
        let (before, last) = (mean(&shifts[..split_at]), mean(&shifts[18_000..]));
        assert!(last * 4.0 < before, "{before} -> {last} shifts per insert");
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
        assert!(alex.nodes.len() > 4);
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
        // The same entries in more memory: lower density.
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
