//! FINEdex — a fine-grained learned index for concurrent memory systems
//! (Li et al., VLDB'21).
//!
//! FINEdex trains error-bounded linear models over a sorted array (like
//! XIndex) but attaches a *per-record* delta ("level bin") to each position
//! instead of a per-group delta, so concurrent inserts targeting different
//! records never conflict and retraining can proceed in parallel (§2.2).
//! We implement the same structure with one flattening pass when a bin grows
//! past its budget (the stand-in for parallel retraining).
//!
//! [`FinedexGroups`] is that structure single-threaded; [`Finedex`] is
//! [`gre_core::Partitioned`] over it, so a partition's lock guards the groups
//! of its key range (see "Substitutions" in `docs/BENCHMARKS.md`).

use gre_core::{Index, IndexMeta, Key, Partitionable, Partitioned, Payload, RangeSpec};
use gre_pla::LinearModel;

/// Configuration (Table 1: error bound 32).
#[derive(Debug, Clone, Copy)]
pub struct FinedexConfig {
    /// Last-mile search error budget.
    pub error_bound: usize,
    /// Entries per record-level bin before the group is flattened.
    pub bin_capacity: usize,
    /// Keys per model group.
    pub group_size: usize,
}

impl Default for FinedexConfig {
    fn default() -> Self {
        FinedexConfig {
            error_bound: 32,
            bin_capacity: 8,
            group_size: 8_192,
        }
    }
}

#[derive(Debug)]
struct FinGroup<K: Key> {
    model: LinearModel,
    keys: Vec<K>,
    values: Vec<Payload>,
    /// Per-record level bins: `bins[i]` holds inserted keys that sort between
    /// `keys[i]` (exclusive) and `keys[i + 1]` (exclusive); `bins[0]` also
    /// absorbs keys below `keys[0]`. Bin entries are kept sorted.
    bins: Vec<Vec<(K, Payload)>>,
    /// Deletion markers for main-array records.
    dead: Vec<bool>,
}

impl<K: Key> FinGroup<K> {
    fn build(keys: Vec<K>, values: Vec<Payload>) -> Self {
        let model = LinearModel::fit_keys(&keys);
        let n = keys.len();
        FinGroup {
            model,
            keys,
            values,
            bins: (0..n.max(1)).map(|_| Vec::new()).collect(),
            dead: vec![false; n],
        }
    }

    fn lower_bound(&self, key: K, error_bound: usize) -> usize {
        self.model.lower_bound(&self.keys, key, error_bound)
    }

    /// Bin index responsible for a key that is *not* in the main array:
    /// the record preceding it (or bin 0 for keys before every record).
    fn bin_for(&self, key: K, error_bound: usize) -> usize {
        let lb = self.lower_bound(key, error_bound);
        lb.saturating_sub(if lb > 0 && self.keys.get(lb).map_or(true, |k| *k != key) {
            1
        } else {
            0
        })
        .min(self.bins.len().saturating_sub(1))
    }

    fn get(&self, key: K, error_bound: usize) -> Option<Payload> {
        let pos = self.lower_bound(key, error_bound);
        if pos < self.keys.len() && self.keys[pos] == key {
            return (!self.dead[pos]).then(|| self.values[pos]);
        }
        let bin = self.bin_for(key, error_bound);
        self.bins
            .get(bin)
            .and_then(|b| b.iter().find(|e| e.0 == key).map(|e| e.1))
    }

    /// Total live entries.
    fn live_count(&self) -> usize {
        self.keys.len() - self.dead.iter().filter(|d| **d).count()
            + self.bins.iter().map(Vec::len).sum::<usize>()
    }

    /// Flatten bins and tombstones into a fresh sorted array and retrain.
    fn flatten(&mut self) {
        let mut entries: Vec<(K, Payload)> = Vec::with_capacity(self.live_count());
        for (i, k) in self.keys.iter().enumerate() {
            if !self.dead[i] {
                entries.push((*k, self.values[i]));
            }
        }
        for bin in &self.bins {
            entries.extend_from_slice(bin);
        }
        entries.sort_by_key(|e| e.0);
        let rebuilt = FinGroup::build(
            entries.iter().map(|e| e.0).collect(),
            entries.iter().map(|e| e.1).collect(),
        );
        *self = rebuilt;
    }

    fn memory(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.keys.capacity() * std::mem::size_of::<K>()
            + self.values.capacity() * std::mem::size_of::<Payload>()
            + self.dead.capacity()
            + self
                .bins
                .iter()
                .map(|b| {
                    std::mem::size_of::<Vec<(K, Payload)>>()
                        + b.capacity() * std::mem::size_of::<(K, Payload)>()
                })
                .sum::<usize>()
    }

    /// In-order iteration over main array + bins starting at `start`.
    fn scan_into(&self, start: K, error_bound: usize, target: usize, out: &mut Vec<(K, Payload)>) {
        // bins[i] sorts after keys[i]; bin 0 also holds keys before keys[0].
        let emit_bin = |bin: &Vec<(K, Payload)>, out: &mut Vec<(K, Payload)>, below: Option<K>| {
            for &(k, v) in bin {
                if out.len() >= target {
                    return;
                }
                if k >= start && below.map_or(true, |b| k < b) {
                    out.push((k, v));
                }
            }
        };
        if self.keys.is_empty() {
            if let Some(bin) = self.bins.first() {
                emit_bin(bin, out, None);
            }
            return;
        }
        // Keys in bin 0 that precede the first main key.
        if let Some(bin) = self.bins.first() {
            emit_bin(bin, out, Some(self.keys[0]));
        }
        // Records before the one preceding `start`'s lower bound, and their
        // bins, hold only smaller keys.
        for i in self.lower_bound(start, error_bound).saturating_sub(1)..self.keys.len() {
            if out.len() >= target {
                return;
            }
            if !self.dead[i] && self.keys[i] >= start {
                out.push((self.keys[i], self.values[i]));
            }
            let below = self.keys.get(i + 1).copied();
            if let Some(bin) = self.bins.get(i) {
                // Bin 0's below-first-key entries were already emitted; the
                // filter below keeps only entries after keys[i].
                for &(k, v) in bin {
                    if out.len() >= target {
                        return;
                    }
                    if k >= start && k > self.keys[i] && below.map_or(true, |b| k < b) {
                        out.push((k, v));
                    }
                }
            }
        }
    }
}

/// FINEdex, single-threaded: routed groups with per-record level bins.
pub struct FinedexGroups<K: Key> {
    config: FinedexConfig,
    /// First key of each group.
    boundaries: Vec<K>,
    groups: Vec<FinGroup<K>>,
}

/// FINEdex: the group index behind one partition lock per key range.
pub type Finedex<K> = Partitioned<K, FinedexGroups<K>>;

impl<K: Key> Default for FinedexGroups<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> FinedexGroups<K> {
    pub fn new() -> Self {
        Self::with_config(FinedexConfig::default())
    }

    pub fn with_config(config: FinedexConfig) -> Self {
        FinedexGroups {
            config,
            boundaries: vec![K::MIN],
            groups: vec![FinGroup::build(Vec::new(), Vec::new())],
        }
    }

    fn locate(&self, key: K) -> usize {
        self.boundaries
            .partition_point(|b| *b <= key)
            .saturating_sub(1)
    }
}

impl<K: Key> Index<K> for FinedexGroups<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        let group_size = self.config.group_size.max(64);
        let mut groups = Vec::new();
        let mut boundaries = Vec::new();
        if entries.is_empty() {
            groups.push(FinGroup::build(Vec::new(), Vec::new()));
            boundaries.push(K::MIN);
        } else {
            for chunk in entries.chunks(group_size) {
                boundaries.push(chunk[0].0);
                groups.push(FinGroup::build(
                    chunk.iter().map(|e| e.0).collect(),
                    chunk.iter().map(|e| e.1).collect(),
                ));
            }
            boundaries[0] = K::MIN;
        }
        self.groups = groups;
        self.boundaries = boundaries;
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.groups[self.locate(key)].get(key, self.config.error_bound)
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let idx = self.locate(key);
        let group = &mut self.groups[idx];
        let error_bound = self.config.error_bound;
        let pos = group.lower_bound(key, error_bound);
        if pos < group.keys.len() && group.keys[pos] == key {
            let was_dead = group.dead[pos];
            group.values[pos] = value;
            group.dead[pos] = false;
            return was_dead;
        }
        let bin = group.bin_for(key, error_bound);
        let bin_vec = &mut group.bins[bin];
        match bin_vec.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => {
                bin_vec[i].1 = value;
                false
            }
            Err(i) => {
                bin_vec.insert(i, (key, value));
                let overflow = bin_vec.len() > self.config.bin_capacity;
                if overflow {
                    // Parallel-retraining stand-in: flatten this group.
                    group.flatten();
                }
                true
            }
        }
    }

    /// Unlike `insert`, an absent (or tombstoned) key is left absent.
    fn update(&mut self, key: K, value: Payload) -> bool {
        let idx = self.locate(key);
        let group = &mut self.groups[idx];
        let error_bound = self.config.error_bound;
        let pos = group.lower_bound(key, error_bound);
        if pos < group.keys.len() && group.keys[pos] == key {
            if group.dead[pos] {
                return false;
            }
            group.values[pos] = value;
            return true;
        }
        let bin = group.bin_for(key, error_bound);
        let bin_vec = &mut group.bins[bin];
        match bin_vec.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => {
                bin_vec[i].1 = value;
                true
            }
            Err(_) => false,
        }
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let idx = self.locate(key);
        let group = &mut self.groups[idx];
        let error_bound = self.config.error_bound;
        let pos = group.lower_bound(key, error_bound);
        if pos < group.keys.len() && group.keys[pos] == key {
            if group.dead[pos] {
                return None;
            }
            group.dead[pos] = true;
            return Some(group.values[pos]);
        }
        let bin = group.bin_for(key, error_bound);
        let bin_vec = &mut group.bins[bin];
        match bin_vec.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => Some(bin_vec.remove(i).1),
            Err(_) => None,
        }
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        let target = before.saturating_add(spec.count);
        for group in &self.groups[self.locate(spec.start)..] {
            if out.len() >= target {
                break;
            }
            group.scan_into(spec.start, self.config.error_bound, target, out);
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.groups.iter().map(FinGroup::live_count).sum()
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.groups.iter().map(FinGroup::memory).sum::<usize>()
            + self.boundaries.capacity() * std::mem::size_of::<K>()
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "FINEdex",
            learned: true,
            concurrent: false,
            supports_delete: true,
            supports_range: true,
        }
    }
}

impl<K: Key> Partitionable<K> for FinedexGroups<K> {
    const CONCURRENT_NAME: &'static str = "FINEdex";
}

#[cfg(test)]
mod tests {
    use super::*;
    use gre_core::ConcurrentIndex;
    use std::sync::Arc;

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 6 + 5, i)).collect()
    }

    #[test]
    fn bulk_load_and_lookup() {
        let mut f = Finedex::new();
        ConcurrentIndex::bulk_load(&mut f, &entries(20_000));
        assert_eq!(f.len(), 20_000);
        for i in (0..20_000).step_by(257) {
            assert_eq!(f.get(i * 6 + 5), Some(i));
            assert_eq!(f.get(i * 6 + 6), None);
        }
    }

    #[test]
    fn inserts_land_in_record_bins_then_flatten() {
        let mut f = FinedexGroups::with_config(FinedexConfig {
            bin_capacity: 4,
            ..Default::default()
        });
        f.bulk_load(&entries(2_000));
        for i in 0..2_000u64 {
            assert!(f.insert(i * 6 + 6, i + 40_000), "insert {}", i * 6 + 6);
        }
        assert_eq!(f.len(), 4_000);
        for i in (0..2_000).step_by(41) {
            assert_eq!(f.get(i * 6 + 5), Some(i));
            assert_eq!(f.get(i * 6 + 6), Some(i + 40_000));
        }
        assert!(!f.insert(5, 1), "update existing key");
        assert_eq!(f.get(5), Some(1));
    }

    #[test]
    fn removes_from_main_and_bins() {
        let mut f = Finedex::new();
        ConcurrentIndex::bulk_load(&mut f, &entries(1_000));
        f.insert(3, 33); // goes to a bin (below the first key)
        assert_eq!(f.remove(3), Some(33));
        assert_eq!(f.remove(3), None);
        assert_eq!(f.remove(5), Some(0));
        assert_eq!(f.get(5), None);
        assert_eq!(f.remove(5), None);
        assert_eq!(f.len(), 999);
        // Reinsert a deleted main-array key.
        assert!(f.insert(5, 50));
        assert_eq!(f.get(5), Some(50));
    }

    #[test]
    fn range_interleaves_bins_and_main() {
        let mut f = Finedex::new();
        ConcurrentIndex::bulk_load(&mut f, &entries(1_000));
        for i in 0..50u64 {
            f.insert(i * 6 + 7, 900_000 + i);
        }
        let mut out = Vec::new();
        let got = f.range(RangeSpec::new(0, 150), &mut out);
        assert_eq!(got, 150);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0), "{out:?}");
        assert!(out.iter().any(|e| e.1 >= 900_000));
    }

    #[test]
    fn concurrent_inserts_are_not_lost() {
        let mut f = Finedex::new();
        ConcurrentIndex::bulk_load(&mut f, &entries(5_000));
        let f = Arc::new(f);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let f = Arc::clone(&f);
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        let key = 10_000_000 + t * 1_000_000 + i;
                        f.insert(key, i);
                        assert_eq!(f.get(key), Some(i));
                    }
                });
            }
        });
        assert_eq!(f.len(), 5_000 + 4_000);
        assert_eq!(f.meta().name, "FINEdex");
    }

    #[test]
    fn empty_behaviour() {
        let f: Finedex<u64> = Finedex::new();
        assert_eq!(f.get(1), None);
        assert_eq!(f.remove(1), None);
        assert!(f.insert(1, 1));
        assert_eq!(f.get(1), Some(1));
        assert_eq!(f.len(), 1);
    }
}
