//! LIPP — an updatable learned index with precise positions (Wu et al., VLDB'21).
//!
//! LIPP eliminates the last-mile search entirely: every node holds a linear
//! model and an array of slots, and a key lives *exactly* at its predicted
//! slot. When two keys collide on the same slot, LIPP creates a new child
//! node holding both (collision-driven chaining, §2.1), so the structure is
//! an unbalanced tree whose nodes interleave data entries and child pointers
//! (the *unified node layout* whose consequences — scalability and range-scan
//! branching — the paper analyses). Every node maintains statistics
//! (inserts and conflicts since it was built); when the conflict ratio of a
//! subtree exceeds a threshold the subtree is rebuilt from scratch.

use gre_core::{Index, IndexMeta, Key, OpCounters, Payload, RangeSpec, StatsSnapshot};
use gre_pla::LinearModel;
use std::time::Instant;

/// Configuration of LIPP (Table 1).
#[derive(Debug, Clone, Copy)]
pub struct LippConfig {
    /// Node density: slots per node = keys / density (paper: 0.5).
    pub density: f64,
    /// Maximum number of slots in one node (paper: 16 MB ≈ 0.7M slots;
    /// scaled down by default for laptop-sized runs).
    pub max_node_slots: usize,
    /// Rebuild a subtree once `inserts >= inserted_ratio * build_size`
    /// *and* `conflicts >= conflict_ratio * inserts` (paper: 2 / 0.1).
    pub inserted_ratio: f64,
    /// See `inserted_ratio`.
    pub conflict_ratio: f64,
}

impl Default for LippConfig {
    fn default() -> Self {
        LippConfig {
            density: 0.5,
            max_node_slots: 1 << 20,
            inserted_ratio: 2.0,
            conflict_ratio: 0.1,
        }
    }
}

/// One slot of a LIPP node: empty, a data entry, or a pointer to a child
/// subtree (the unified layout). `Bucket` is a correctness escape hatch this
/// reproduction adds: models are trained on `f64` projections of the keys, so
/// distinct `u64` keys closer than one f64 ulp (~2^11 apart near 2^63) can
/// never be separated by any linear model — chaining such a group would
/// recurse forever. Those groups are stored as a small sorted bucket instead.
#[derive(Debug)]
enum Slot<K> {
    Empty,
    Data(K, Payload),
    Child(Box<LippNode<K>>),
    Bucket(Vec<(K, Payload)>),
}

#[derive(Debug)]
struct LippNode<K> {
    model: LinearModel,
    slots: Vec<Slot<K>>,
    /// Number of data entries in this subtree.
    subtree_keys: usize,
    /// Keys in the node when it was (re)built.
    build_size: usize,
    /// Statistics updated on every insert that passes through this node —
    /// the per-node bookkeeping whose cost the paper highlights (Figure 3's
    /// "stat" component, which this reproduction does not time, and LIPP+'s
    /// scalability collapse).
    stat_inserts: u64,
    stat_conflicts: u64,
}

impl<K: Key> LippNode<K> {
    /// Build a node over sorted entries. Collisions during the build are
    /// resolved by recursively building child nodes, exactly as inserts do.
    fn build(entries: &[(K, Payload)], config: &LippConfig) -> Box<Self> {
        let n = entries.len();
        let slots_len = ((n as f64 / config.density.max(0.05)).ceil() as usize)
            .clamp(8, config.max_node_slots.max(8));
        let keys: Vec<K> = entries.iter().map(|e| e.0).collect();
        let expansion = if n > 1 {
            (slots_len - 1) as f64 / (n - 1) as f64
        } else {
            1.0
        };
        let mut model = LinearModel::fit_keys_with_expansion(&keys, expansion);
        // Defensive: the model must separate the group's first and last keys
        // or collision chaining could recurse without making progress; fall
        // back to exact two-point interpolation if floating-point precision
        // collapsed the fitted slope.
        if n >= 2 {
            let first = keys[0].to_model_input();
            let last = keys[n - 1].to_model_input();
            if first < last
                && model.predict_clamped(keys[0], slots_len)
                    == model.predict_clamped(keys[n - 1], slots_len)
            {
                let slope = (slots_len - 1) as f64 / (last - first);
                model = LinearModel::new(slope, -slope * first);
            }
        }
        let mut node = Box::new(LippNode {
            model,
            slots: (0..slots_len).map(|_| Slot::Empty).collect(),
            subtree_keys: 0,
            build_size: n,
            stat_inserts: 0,
            stat_conflicts: 0,
        });
        if n == 0 {
            return node;
        }
        // Group consecutive entries that collide on the same predicted slot.
        let mut duplicates_collapsed = 0usize;
        let mut group_start = 0usize;
        while group_start < n {
            let pos = node
                .model
                .predict_clamped(entries[group_start].0, slots_len);
            let mut group_end = group_start + 1;
            while group_end < n
                && node.model.predict_clamped(entries[group_end].0, slots_len) == pos
            {
                group_end += 1;
            }
            let group = &entries[group_start..group_end];
            if group.len() == 1 || group.iter().all(|e| e.0 == group[0].0) {
                // A single entry — or duplicate keys, which a map-semantics
                // index collapses to the most recent payload.
                let last = group[group.len() - 1];
                node.slots[pos] = Slot::Data(last.0, last.1);
                duplicates_collapsed += group.len() - 1;
            } else if group.len() == n
                || group[0].0.to_model_input() == group[group.len() - 1].0.to_model_input()
            {
                // The model failed to separate this group at all: either the
                // keys collapse to identical model inputs (distinct u64 keys
                // within one f64 ulp), or `slope * key + intercept` lost the
                // separation to catastrophic cancellation (both terms ~1e17
                // for keys near 2^62, where the f64 ulp exceeds the slot
                // span). Recursing would rebuild the same single group
                // forever, so store the group as a sorted overflow bucket.
                let mut bucket: Vec<(K, Payload)> = group.to_vec();
                bucket.dedup_by(|b, a| {
                    if a.0 == b.0 {
                        a.1 = b.1;
                        true
                    } else {
                        false
                    }
                });
                duplicates_collapsed += group.len() - bucket.len();
                node.slots[pos] = Slot::Bucket(bucket);
            } else {
                node.slots[pos] = Slot::Child(Self::build(group, config));
            }
            group_start = group_end;
        }
        node.subtree_keys = n - duplicates_collapsed;
        node
    }

    /// Collect all entries of the subtree in key order.
    fn collect(&self, out: &mut Vec<(K, Payload)>) {
        for slot in &self.slots {
            match slot {
                Slot::Empty => {}
                Slot::Data(k, v) => out.push((*k, *v)),
                Slot::Child(child) => child.collect(out),
                Slot::Bucket(bucket) => out.extend_from_slice(bucket),
            }
        }
    }

    /// Collect entries with key >= start, stopping once `count` collected.
    /// The model is monotone, so every slot before the one it predicts for
    /// `start` holds only smaller keys: the walk begins there, and only the
    /// child in that first slot can still straddle `start`.
    fn collect_from(&self, start: K, count: usize, out: &mut Vec<(K, Payload)>) {
        let first = self.model.predict_clamped(start, self.slots.len());
        for slot in &self.slots[first..] {
            if out.len() >= count {
                return;
            }
            // The unified layout makes this scan branch on every slot: data
            // entry or child pointer (Message 12).
            match slot {
                Slot::Empty => {}
                Slot::Data(k, v) => {
                    if *k >= start {
                        out.push((*k, *v));
                    }
                }
                Slot::Child(child) => child.collect_from(start, count, out),
                Slot::Bucket(bucket) => {
                    for &(k, v) in bucket {
                        if out.len() >= count {
                            return;
                        }
                        if k >= start {
                            out.push((k, v));
                        }
                    }
                }
            }
        }
    }

    fn memory(&self) -> usize {
        let mut total =
            std::mem::size_of::<Self>() + self.slots.capacity() * std::mem::size_of::<Slot<K>>();
        for slot in &self.slots {
            match slot {
                Slot::Child(child) => total += child.memory(),
                Slot::Bucket(bucket) => {
                    total += bucket.capacity() * std::mem::size_of::<(K, Payload)>()
                }
                _ => {}
            }
        }
        total
    }

    fn should_rebuild(&self, config: &LippConfig) -> bool {
        self.stat_inserts as f64 >= config.inserted_ratio * self.build_size.max(8) as f64
            && self.stat_conflicts as f64 >= config.conflict_ratio * self.stat_inserts as f64
    }
}

/// LIPP: collision-chained tree of model-addressed nodes.
#[derive(Debug)]
pub struct Lipp<K> {
    root: Box<LippNode<K>>,
    config: LippConfig,
    len: usize,
    counters: OpCounters,
}

impl<K: Key> Default for Lipp<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> Lipp<K> {
    pub fn new() -> Self {
        Self::with_config(LippConfig::default())
    }

    pub fn with_config(config: LippConfig) -> Self {
        Lipp {
            root: LippNode::build(&[], &config),
            config,
            len: 0,
            counters: OpCounters::default(),
        }
    }

    pub fn config(&self) -> LippConfig {
        self.config
    }

    /// Height of the tree (for diagnostics).
    pub fn height(&self) -> usize {
        fn depth<K: Key>(node: &LippNode<K>) -> usize {
            1 + node
                .slots
                .iter()
                .filter_map(|s| match s {
                    Slot::Child(c) => Some(depth(c)),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        }
        depth(&self.root)
    }

    /// Insert recursively, adding the traversed and created nodes to
    /// `counters` and one to `smo_count` per subtree rebuild; returns whether
    /// the key was new.
    fn insert_rec(
        node: &mut LippNode<K>,
        key: K,
        value: Payload,
        config: &LippConfig,
        counters: &mut OpCounters,
    ) -> bool {
        counters.nodes_traversed += 1;
        // Per-node statistics are updated on every node of the insertion
        // path (the cost the paper singles out for LIPP).
        node.stat_inserts += 1;
        let pos = node.model.predict_clamped(key, node.slots.len());
        let inserted = match &mut node.slots[pos] {
            slot @ Slot::Empty => {
                *slot = Slot::Data(key, value);
                true
            }
            Slot::Data(existing_key, existing_value) => {
                if *existing_key == key {
                    *existing_value = value;
                    false
                } else {
                    // Collision: chain a new child node holding both entries.
                    node.stat_conflicts += 1;
                    let mut pair = [(*existing_key, *existing_value), (key, value)];
                    pair.sort_by_key(|e| e.0);
                    let child = LippNode::build(&pair, config);
                    node.slots[pos] = Slot::Child(child);
                    counters.nodes_created += 1;
                    true
                }
            }
            Slot::Bucket(bucket) => {
                // Precision-collapsed keys: maintain the sorted bucket.
                node.stat_conflicts += 1;
                match bucket.binary_search_by_key(&key, |e| e.0) {
                    Ok(i) => {
                        bucket[i].1 = value;
                        false
                    }
                    Err(i) => {
                        bucket.insert(i, (key, value));
                        true
                    }
                }
            }
            Slot::Child(child) => {
                let created_before = counters.nodes_created;
                let inserted = Self::insert_rec(child, key, value, config, counters);
                // Conflicts anywhere in the subtree count against this node
                // too, so the rebuild trigger sees the whole subtree's
                // collision rate (as LIPP's per-node statistics do).
                if counters.nodes_created > created_before {
                    node.stat_conflicts += 1;
                }
                inserted
            }
        };
        if inserted {
            node.subtree_keys += 1;
        }
        // Subtree adjustment (SMO-like rebuild) when the conflict ratio is
        // exceeded, bounding the tree height.
        if node.should_rebuild(config) {
            let mut entries = Vec::with_capacity(node.subtree_keys);
            node.collect(&mut entries);
            *node = *LippNode::build(&entries, config);
            counters.smo_count += 1;
        }
        inserted
    }

    fn remove_rec(node: &mut LippNode<K>, key: K) -> Option<Payload> {
        let pos = node.model.predict_clamped(key, node.slots.len());
        let removed = match &mut node.slots[pos] {
            Slot::Empty => None,
            Slot::Data(existing_key, existing_value) => {
                if *existing_key == key {
                    let v = *existing_value;
                    node.slots[pos] = Slot::Empty;
                    Some(v)
                } else {
                    None
                }
            }
            Slot::Child(child) => Self::remove_rec(child, key),
            Slot::Bucket(bucket) => match bucket.binary_search_by_key(&key, |e| e.0) {
                Ok(i) => {
                    let v = bucket.remove(i).1;
                    // Collapse a drained bucket so the slot returns to
                    // model-addressed placement for future inserts.
                    if bucket.is_empty() {
                        node.slots[pos] = Slot::Empty;
                    }
                    Some(v)
                }
                Err(_) => None,
            },
        };
        if removed.is_some() {
            node.subtree_keys -= 1;
        }
        removed
    }
}

impl<K: Key> Index<K> for Lipp<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.root = LippNode::build(entries, &self.config);
        self.len = self.root.subtree_keys;
        self.counters = OpCounters::default();
    }

    fn get(&self, key: K) -> Option<Payload> {
        let mut node = self.root.as_ref();
        loop {
            let pos = node.model.predict_clamped(key, node.slots.len());
            match &node.slots[pos] {
                Slot::Empty => return None,
                Slot::Data(k, v) => return (*k == key).then_some(*v),
                Slot::Child(child) => node = child,
                Slot::Bucket(bucket) => {
                    return bucket
                        .binary_search_by_key(&key, |e| e.0)
                        .ok()
                        .map(|i| bucket[i].1)
                }
            }
        }
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let (created, smos) = (self.counters.nodes_created, self.counters.smo_count);
        // LIPP has no separate pre-insertion lookup: locating the slot is the
        // insert traversal itself, so one timer covers it and the whole time
        // goes to the phase the traversal ended in.
        let start = Instant::now();
        let inserted =
            Self::insert_rec(&mut self.root, key, value, &self.config, &mut self.counters);
        let work_ns = start.elapsed().as_nanos() as u64;
        let c = &mut self.counters;
        c.inserts += 1;
        // Rebuilds cascading up one insert's path count as one SMO.
        let triggered_smo = c.smo_count > smos;
        c.smo_count = smos + u64::from(triggered_smo);
        if c.nodes_created > created {
            c.insert_breakdown.chain_ns += work_ns;
        } else if triggered_smo {
            c.insert_breakdown.smo_ns += work_ns;
        } else {
            c.insert_breakdown.insert_ns += work_ns;
        }

        if inserted {
            self.len += 1;
        }
        inserted
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let removed = Self::remove_rec(&mut self.root, key);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        self.root
            .collect_from(spec.start, before.saturating_add(spec.count), out);
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>() + self.root.memory()
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::new(self.counters)
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "LIPP",
            learned: true,
            concurrent: false,
            supports_delete: true,
            supports_range: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 11 + 3, i)).collect()
    }

    #[test]
    fn bulk_load_and_lookup() {
        let mut lipp = Lipp::new();
        lipp.bulk_load(&entries(20_000));
        assert_eq!(lipp.len(), 20_000);
        for i in (0..20_000).step_by(211) {
            assert_eq!(lipp.get(i * 11 + 3), Some(i));
            assert_eq!(lipp.get(i * 11 + 4), None);
        }
    }

    #[test]
    fn inserts_chain_new_nodes_on_collisions() {
        let mut lipp = Lipp::new();
        lipp.bulk_load(&entries(2_000));
        for i in 0..2_000u64 {
            assert!(lipp.insert(i * 11 + 4, i + 50_000));
        }
        assert_eq!(lipp.len(), 4_000);
        for i in (0..2_000).step_by(37) {
            assert_eq!(lipp.get(i * 11 + 3), Some(i));
            assert_eq!(lipp.get(i * 11 + 4), Some(i + 50_000));
        }
        let stats = lipp.stats();
        assert_eq!(stats.counters.inserts, 2_000);
        // LIPP resolves collisions by creating nodes, never by shifting keys.
        assert!(stats.counters.nodes_created > 0);
        assert_eq!(stats.counters.keys_shifted, 0);
        // Write amplification is bounded: at most one node per collision.
        assert!(stats.avg_nodes_created_per_insert() <= 1.0);
    }

    #[test]
    fn write_only_breakdown_times_one_traversal() {
        // A seeded write-only run: no insert pays for a second lookup
        // traversal, and no phase is invented by splitting the time.
        let mut lipp = Lipp::new();
        lipp.bulk_load(&entries(2_000));
        let mut x: u64 = 0x11f3;
        for i in 0..5_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            lipp.insert(x % 100_000, i);
        }
        let b = lipp.stats().mean_insert_breakdown();
        assert_eq!(b.lookup_ns, 0);
        assert!(b.total_ns() > 0);
    }

    #[test]
    fn update_in_place() {
        let mut lipp = Lipp::new();
        lipp.bulk_load(&entries(100));
        assert!(!lipp.insert(3, 777));
        assert_eq!(lipp.get(3), Some(777));
        assert_eq!(lipp.len(), 100);
    }

    #[test]
    fn delete_does_not_pollute_the_model() {
        let mut lipp = Lipp::new();
        lipp.bulk_load(&entries(5_000));
        let height_before = lipp.height();
        for i in 0..2_500u64 {
            assert_eq!(lipp.remove(i * 11 + 3), Some(i));
        }
        assert_eq!(lipp.len(), 2_500);
        // Deletions only empty slots; the structure does not grow.
        assert!(lipp.height() <= height_before);
        for i in 2_500..5_000u64 {
            assert_eq!(lipp.get(i * 11 + 3), Some(i));
        }
        assert_eq!(lipp.remove(1), None);
    }

    #[test]
    fn matches_model_under_random_ops() {
        let mut lipp = Lipp::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0xfeed;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 12_000;
            match x % 3 {
                0 => assert_eq!(lipp.insert(key, i), model.insert(key, i).is_none()),
                1 => assert_eq!(lipp.remove(key), model.remove(&key)),
                _ => assert_eq!(lipp.get(key), model.get(&key).copied()),
            }
        }
        assert_eq!(lipp.len(), model.len());
        let mut out = Vec::new();
        lipp.range(RangeSpec::new(0, usize::MAX), &mut out);
        let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn range_scan_is_sorted() {
        let mut lipp = Lipp::new();
        lipp.bulk_load(&entries(5_000));
        let mut out = Vec::new();
        let got = lipp.range(RangeSpec::new(1_000, 200), &mut out);
        assert_eq!(got, 200);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(out[0].0 >= 1_000);
    }

    #[test]
    fn memory_is_larger_than_alex() {
        use crate::alex::Alex;
        let data = entries(20_000);
        let mut lipp = Lipp::new();
        let mut alex = Alex::new();
        lipp.bulk_load(&data);
        alex.bulk_load(&data);
        // LIPP trades space for speed: lower node density plus chained
        // subtrees make it the most memory-hungry index (Figure 8).
        assert!(lipp.memory_usage() > alex.memory_usage());
    }

    #[test]
    fn subtree_rebuild_bounds_height() {
        let mut lipp = Lipp::with_config(LippConfig {
            max_node_slots: 256,
            ..Default::default()
        });
        // Adversarial inserts: monotone keys repeatedly collide at the top.
        for i in 0..20_000u64 {
            lipp.insert(i, i);
        }
        for i in (0..20_000).step_by(991) {
            assert_eq!(lipp.get(i), Some(i));
        }
        // Without the rebuild mechanism the chain would approach the number
        // of inserts; with it the height stays very small.
        assert!(lipp.height() < 64, "height = {}", lipp.height());
    }

    #[test]
    fn precision_collapsed_keys_do_not_recurse_forever() {
        // Distinct u64 keys within one f64 ulp of each other (near 2^62 the
        // ulp is 512): no linear model can separate them, so they must land
        // in an overflow bucket instead of chaining unboundedly.
        let base = 1u64 << 62;
        let data: Vec<(u64, u64)> = (0..64).map(|i| (base + i, i)).collect();
        let mut lipp = Lipp::new();
        lipp.bulk_load(&data);
        assert_eq!(lipp.len(), 64);
        for &(k, v) in &data {
            assert_eq!(lipp.get(k), Some(v), "bulk-loaded {k}");
        }
        // Same collapse via the insert path.
        let mut lipp = Lipp::new();
        for &(k, v) in &data {
            assert!(lipp.insert(k, v));
        }
        for &(k, v) in &data {
            assert_eq!(lipp.get(k), Some(v), "inserted {k}");
        }
        assert_eq!(lipp.remove(base + 1), Some(1));
        assert_eq!(lipp.get(base + 1), None);
        assert_eq!(lipp.len(), 63);
        let mut out = Vec::new();
        lipp.range(RangeSpec::new(base, 10), &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.len(), 10);
        assert!(lipp.height() < 16, "height = {}", lipp.height());
        // Draining a bucket collapses its slot back to Empty; reinserting
        // afterwards must still round-trip.
        for &(k, _) in &data {
            lipp.remove(k);
        }
        assert!(lipp.is_empty());
        for &(k, v) in &data {
            assert!(lipp.insert(k, v));
            assert_eq!(lipp.get(k), Some(v), "reinserted {k}");
        }
        assert_eq!(lipp.len(), 64);
    }

    #[test]
    fn empty_behaviour() {
        let mut lipp: Lipp<u64> = Lipp::new();
        assert!(lipp.is_empty());
        assert_eq!(lipp.get(9), None);
        assert_eq!(lipp.remove(9), None);
        assert!(lipp.insert(9, 1));
        assert_eq!(lipp.get(9), Some(1));
        assert_eq!(lipp.meta().name, "LIPP");
    }
}
