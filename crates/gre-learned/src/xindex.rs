//! XIndex — a concurrent learned index with delta-merge (Tang et al., PPoPP'20).
//!
//! XIndex partitions the key space into *groups*, each holding a sorted main
//! array addressed by a linear model (error-bounded last-mile search) plus a
//! per-group *delta* buffer that absorbs inserts (§2.2). When a delta grows
//! past its budget the group is compacted: delta and main array are merged
//! and the model retrained (two-phase merge; the original uses a background
//! thread and RCU, which our inline compaction replaces — the latency spike
//! of a merge lands on the triggering insert, reproducing the tail-latency
//! behaviour of Figure 11 without background threads). A top-level router
//! (model + group boundaries) directs operations to groups.
//!
//! [`XIndexGroups`] is that structure single-threaded; [`XIndex`] is
//! [`gre_core::Partitioned`] over it, so a partition's lock guards the groups
//! of its key range (see "Substitutions" in `docs/BENCHMARKS.md`).

use gre_core::{Index, IndexMeta, Key, Partitionable, Partitioned, Payload, RangeSpec};
use gre_pla::LinearModel;
use std::collections::BTreeMap;

/// Configuration (Table 1: error bound 32, delta size 256, up to 4 models per
/// group — we use one model per group, and the group count is fixed at
/// `bulk_load`: groups never split, a full delta is compacted into its own
/// group).
#[derive(Debug, Clone, Copy)]
pub struct XIndexConfig {
    /// Last-mile search error budget.
    pub error_bound: usize,
    /// Delta entries per group before compaction.
    pub delta_size: usize,
    /// Target number of keys per group.
    pub group_size: usize,
}

impl Default for XIndexConfig {
    fn default() -> Self {
        XIndexConfig {
            error_bound: 32,
            delta_size: 256,
            group_size: 8_192,
        }
    }
}

#[derive(Debug)]
struct Group<K: Key> {
    model: LinearModel,
    keys: Vec<K>,
    values: Vec<Payload>,
    /// Delta buffer for new inserts (the original backs this with Masstree;
    /// an ordered map preserves the same semantics).
    delta: BTreeMap<K, Payload>,
    /// Tombstones for keys deleted from the main array without compaction.
    deleted: BTreeMap<K, ()>,
}

impl<K: Key> Group<K> {
    fn build(keys: Vec<K>, values: Vec<Payload>) -> Self {
        let model = LinearModel::fit_keys(&keys);
        Group {
            model,
            keys,
            values,
            delta: BTreeMap::new(),
            deleted: BTreeMap::new(),
        }
    }

    /// Model-predicted, error-bounded lower bound in the main array.
    fn main_lower_bound(&self, key: K, error_bound: usize) -> usize {
        self.model.lower_bound(&self.keys, key, error_bound)
    }

    fn get(&self, key: K, error_bound: usize) -> Option<Payload> {
        if let Some(v) = self.delta.get(&key) {
            return Some(*v);
        }
        if self.deleted.contains_key(&key) {
            return None;
        }
        let pos = self.main_lower_bound(key, error_bound);
        (pos < self.keys.len() && self.keys[pos] == key).then(|| self.values[pos])
    }

    /// Merge delta and tombstones into the main array and retrain the model
    /// (the compaction phase of the two-phase merge).
    fn compact(&mut self) {
        if self.delta.is_empty() && self.deleted.is_empty() {
            return;
        }
        let mut merged_keys = Vec::with_capacity(self.keys.len() + self.delta.len());
        let mut merged_values = Vec::with_capacity(merged_keys.capacity());
        let mut delta_iter = self.delta.iter().peekable();
        for (i, k) in self.keys.iter().enumerate() {
            while let Some((&dk, &dv)) = delta_iter.peek() {
                if dk < *k {
                    merged_keys.push(dk);
                    merged_values.push(dv);
                    delta_iter.next();
                } else {
                    break;
                }
            }
            if self.deleted.contains_key(k) {
                continue;
            }
            if let Some((&dk, &dv)) = delta_iter.peek() {
                if dk == *k {
                    merged_keys.push(dk);
                    merged_values.push(dv);
                    delta_iter.next();
                    continue;
                }
            }
            merged_keys.push(*k);
            merged_values.push(self.values[i]);
        }
        for (&dk, &dv) in delta_iter {
            merged_keys.push(dk);
            merged_values.push(dv);
        }
        self.model = LinearModel::fit_keys(&merged_keys);
        self.keys = merged_keys;
        self.values = merged_values;
        self.delta.clear();
        self.deleted.clear();
    }

    fn live_count(&self) -> usize {
        let mut count = self.keys.len() + self.delta.len() - self.deleted.len();
        // Keys present in both main and delta were counted twice.
        for k in self.delta.keys() {
            if self.keys.binary_search(k).is_ok() {
                count -= 1;
            }
        }
        count
    }

    fn memory(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.keys.capacity() * std::mem::size_of::<K>()
            + self.values.capacity() * std::mem::size_of::<Payload>()
            + (self.delta.len() + self.deleted.len()) * 64
    }
}

/// The XIndex structure, single-threaded: router + groups.
pub struct XIndexGroups<K: Key> {
    config: XIndexConfig,
    router: Router<K>,
    groups: Vec<Group<K>>,
}

/// XIndex: the group index behind one partition lock per key range.
pub type XIndex<K> = Partitioned<K, XIndexGroups<K>>;

#[derive(Debug)]
struct Router<K> {
    model: LinearModel,
    /// First key of each group.
    boundaries: Vec<K>,
}

impl<K: Key> Default for XIndexGroups<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> XIndexGroups<K> {
    pub fn new() -> Self {
        Self::with_config(XIndexConfig::default())
    }

    pub fn with_config(config: XIndexConfig) -> Self {
        XIndexGroups {
            config,
            router: Router {
                model: LinearModel::default(),
                boundaries: vec![K::MIN],
            },
            groups: vec![Group::build(Vec::new(), Vec::new())],
        }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Route a key to its group.
    fn locate(&self, key: K) -> usize {
        let boundaries = &self.router.boundaries;
        let n = self.groups.len();
        let mut idx = self.router.model.predict_clamped(key, n);
        while idx + 1 < n && boundaries[idx + 1] <= key {
            idx += 1;
        }
        while idx > 0 && boundaries[idx] > key {
            idx -= 1;
        }
        idx
    }
}

impl<K: Key> Index<K> for XIndexGroups<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        let group_size = self.config.group_size.max(64);
        let mut groups = Vec::new();
        let mut boundaries = Vec::new();
        if entries.is_empty() {
            groups.push(Group::build(Vec::new(), Vec::new()));
            boundaries.push(K::MIN);
        } else {
            for chunk in entries.chunks(group_size) {
                boundaries.push(chunk[0].0);
                groups.push(Group::build(
                    chunk.iter().map(|e| e.0).collect(),
                    chunk.iter().map(|e| e.1).collect(),
                ));
            }
            boundaries[0] = K::MIN;
        }
        let model = LinearModel::fit_points(
            boundaries
                .iter()
                .enumerate()
                .map(|(i, k)| (k.to_model_input(), i as f64)),
        );
        self.groups = groups;
        self.router = Router { model, boundaries };
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.groups[self.locate(key)].get(key, self.config.error_bound)
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let idx = self.locate(key);
        let group = &mut self.groups[idx];
        let existed = group.get(key, self.config.error_bound).is_some();
        group.deleted.remove(&key);
        // Updates of keys in the main array are done in place; new keys go to
        // the delta.
        let pos = group.main_lower_bound(key, self.config.error_bound);
        if pos < group.keys.len() && group.keys[pos] == key {
            group.values[pos] = value;
        } else {
            group.delta.insert(key, value);
            if group.delta.len() >= self.config.delta_size {
                group.compact();
            }
        }
        !existed
    }

    /// Unlike `insert`, an absent key is left absent.
    fn update(&mut self, key: K, value: Payload) -> bool {
        let idx = self.locate(key);
        let group = &mut self.groups[idx];
        if let Some(slot) = group.delta.get_mut(&key) {
            *slot = value;
            return true;
        }
        if group.deleted.contains_key(&key) {
            return false;
        }
        let pos = group.main_lower_bound(key, self.config.error_bound);
        if pos < group.keys.len() && group.keys[pos] == key {
            group.values[pos] = value;
            true
        } else {
            false
        }
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let idx = self.locate(key);
        let group = &mut self.groups[idx];
        if let Some(v) = group.delta.remove(&key) {
            return Some(v);
        }
        if group.deleted.contains_key(&key) {
            return None;
        }
        let pos = group.main_lower_bound(key, self.config.error_bound);
        if pos < group.keys.len() && group.keys[pos] == key {
            let v = group.values[pos];
            group.deleted.insert(key, ());
            Some(v)
        } else {
            None
        }
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        for group in &self.groups[self.locate(spec.start)..] {
            if out.len() - before >= spec.count {
                break;
            }
            // Merge the main array and delta on the fly.
            let mut main_pos = group.main_lower_bound(spec.start, self.config.error_bound);
            let mut delta_iter = group.delta.range(spec.start..).peekable();
            while out.len() - before < spec.count {
                let main_entry = loop {
                    if main_pos >= group.keys.len() {
                        break None;
                    }
                    let k = group.keys[main_pos];
                    if group.deleted.contains_key(&k) || group.delta.contains_key(&k) {
                        main_pos += 1;
                        continue;
                    }
                    break Some((k, group.values[main_pos]));
                };
                let delta_entry = delta_iter.peek().map(|(k, v)| (**k, **v));
                match (main_entry, delta_entry) {
                    (None, None) => break,
                    (Some((mk, mv)), None) => {
                        out.push((mk, mv));
                        main_pos += 1;
                    }
                    (None, Some((dk, dv))) => {
                        out.push((dk, dv));
                        delta_iter.next();
                    }
                    (Some((mk, mv)), Some((dk, dv))) => {
                        if mk < dk {
                            out.push((mk, mv));
                            main_pos += 1;
                        } else {
                            out.push((dk, dv));
                            delta_iter.next();
                        }
                    }
                }
            }
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.groups.iter().map(Group::live_count).sum()
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.groups.iter().map(Group::memory).sum::<usize>()
            + self.router.boundaries.capacity() * std::mem::size_of::<K>()
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "XIndex",
            learned: true,
            concurrent: false,
            supports_delete: true,
            supports_range: true,
        }
    }
}

impl<K: Key> Partitionable<K> for XIndexGroups<K> {
    const CONCURRENT_NAME: &'static str = "XIndex";
}

#[cfg(test)]
mod tests {
    use super::*;
    use gre_core::ConcurrentIndex;
    use std::sync::Arc;

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 9 + 2, i)).collect()
    }

    #[test]
    fn bulk_load_and_lookup() {
        let mut x = XIndexGroups::new();
        x.bulk_load(&entries(30_000));
        assert_eq!(x.len(), 30_000);
        assert!(x.group_count() > 1);
        for i in (0..30_000).step_by(307) {
            assert_eq!(x.get(i * 9 + 2), Some(i));
            assert_eq!(x.get(i * 9 + 3), None);
        }
    }

    #[test]
    fn inserts_go_to_delta_then_compact() {
        let mut x = XIndexGroups::with_config(XIndexConfig {
            delta_size: 64,
            ..Default::default()
        });
        x.bulk_load(&entries(5_000));
        for i in 0..5_000u64 {
            assert!(x.insert(i * 9 + 3, i + 70_000));
        }
        assert_eq!(x.len(), 10_000);
        for i in (0..5_000).step_by(101) {
            assert_eq!(x.get(i * 9 + 2), Some(i));
            assert_eq!(x.get(i * 9 + 3), Some(i + 70_000));
        }
        // Update existing keys in place.
        assert!(!x.insert(2, 42));
        assert_eq!(x.get(2), Some(42));
    }

    #[test]
    fn removes_with_tombstones() {
        let mut x = XIndex::new();
        ConcurrentIndex::bulk_load(&mut x, &entries(2_000));
        for i in 0..1_000u64 {
            assert_eq!(x.remove(i * 9 + 2), Some(i));
            assert_eq!(x.get(i * 9 + 2), None);
        }
        assert_eq!(x.len(), 1_000);
        assert_eq!(x.remove(3), None);
        // Reinsert a removed key.
        assert!(x.insert(2, 5));
        assert_eq!(x.get(2), Some(5));
    }

    #[test]
    fn range_merges_delta_and_main() {
        let mut x = XIndex::new();
        ConcurrentIndex::bulk_load(&mut x, &entries(2_000));
        for i in 0..100u64 {
            x.insert(i * 9 + 3, 1_000_000 + i);
        }
        let mut out = Vec::new();
        let got = x.range(RangeSpec::new(0, 300), &mut out);
        assert_eq!(got, 300);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        // Both main-array keys and delta keys appear.
        assert!(out.iter().any(|e| e.1 >= 1_000_000));
        assert!(out.iter().any(|e| e.1 < 1_000_000));
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let mut x = XIndex::new();
        ConcurrentIndex::bulk_load(&mut x, &entries(10_000));
        let x = Arc::new(x);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let x = Arc::clone(&x);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let key = 1_000_000 + t * 1_000_000 + i;
                        x.insert(key, i);
                        assert_eq!(x.get(key), Some(i));
                        x.get((i % 10_000) * 9 + 2);
                    }
                });
            }
        });
        assert_eq!(x.len(), 10_000 + 4 * 2_000);
        assert_eq!(x.meta().name, "XIndex");
    }

    #[test]
    fn empty_behaviour() {
        let x: XIndex<u64> = XIndex::new();
        assert_eq!(x.get(1), None);
        assert_eq!(x.remove(1), None);
        assert!(x.insert(1, 1));
        assert_eq!(x.get(1), Some(1));
        assert_eq!(x.len(), 1);
    }
}
