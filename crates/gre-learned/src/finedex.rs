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
//! [`FinedexGroups`] is that structure single-threaded: the group index in
//! `groups.rs`, which FINEdex shares with XIndex, with [`FinDelta`] as its
//! delta. [`Finedex`] is [`gre_core::Partitioned`] over it, so a partition's
//! lock guards the groups of its key range (see "Substitutions" in
//! `docs/BENCHMARKS.md`).

use crate::groups::{Delta, GroupIndex, Main};
// The unit tests drive the groups through the `Index` trait.
#[cfg(test)]
use gre_core::Index;
use gre_core::{Key, Partitioned, Payload, RangeSpec};

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

/// FINEdex's delta policy: per-record level bins and deletion markers.
/// `bins[i]` holds, sorted, the inserted keys between record `i` and record
/// `i + 1`; `bins[0]` also holds the keys below record 0.
#[derive(Debug)]
pub struct FinDelta<K> {
    bins: Vec<Vec<(K, Payload)>>,
    dead: Vec<bool>,
}

impl<K: Key> FinDelta<K> {
    /// The bin of a key that would go at `pos`: the preceding record's.
    fn bin(&self, pos: usize) -> &Vec<(K, Payload)> {
        &self.bins[pos.saturating_sub(1)]
    }

    fn bin_mut(&mut self, pos: usize) -> &mut Vec<(K, Payload)> {
        &mut self.bins[pos.saturating_sub(1)]
    }
}

impl<K: Key> Delta<K> for FinDelta<K> {
    type Config = FinedexConfig;
    const NAME: &'static str = "FINEdex";

    fn error_bound(config: &FinedexConfig) -> usize {
        config.error_bound
    }

    fn group_size(config: &FinedexConfig) -> usize {
        config.group_size
    }

    fn new(len: usize) -> Self {
        FinDelta {
            bins: (0..len.max(1)).map(|_| Vec::new()).collect(),
            dead: vec![false; len],
        }
    }

    fn is_dead(&self, pos: usize, _key: K) -> bool {
        self.dead[pos]
    }

    fn set_dead(&mut self, pos: usize, _key: K, dead: bool) -> bool {
        std::mem::replace(&mut self.dead[pos], dead)
    }

    fn get(&self, pos: usize, key: K) -> Option<Payload> {
        let bin = self.bin(pos);
        bin.binary_search_by_key(&key, |e| e.0)
            .ok()
            .map(|i| bin[i].1)
    }

    fn insert(&mut self, pos: usize, key: K, value: Payload) -> bool {
        let bin = self.bin_mut(pos);
        match bin.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => {
                bin[i].1 = value;
                false
            }
            Err(i) => {
                bin.insert(i, (key, value));
                true
            }
        }
    }

    fn full(&self, pos: usize, config: &FinedexConfig) -> bool {
        self.bin(pos).len() > config.bin_capacity
    }

    fn update(&mut self, pos: usize, key: K, value: Payload) -> bool {
        let bin = self.bin_mut(pos);
        bin.binary_search_by_key(&key, |e| e.0)
            .map(|i| bin[i].1 = value)
            .is_ok()
    }

    fn remove(&mut self, pos: usize, key: K) -> Option<Payload> {
        let bin = self.bin_mut(pos);
        let i = bin.binary_search_by_key(&key, |e| e.0).ok()?;
        Some(bin.remove(i).1)
    }

    /// Walks the records from the one before `from`, each followed by its
    /// bin, after the keys of bin 0 that precede record 0.
    fn scan(&self, main: &Main<K>, from: usize, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) {
        let first = main.keys.first().copied();
        let (leading, bin0) = self.bins[0]
            .split_at(self.bins[0].partition_point(|e| first.map_or(true, |f| e.0 < f)));
        let records = (from.saturating_sub(1)..main.keys.len()).flat_map(|i| {
            let record = (!self.dead[i]).then(|| (main.keys[i], main.values[i]));
            let bin = if i == 0 { bin0 } else { &self.bins[i][..] };
            record.into_iter().chain(bin.iter().copied())
        });
        let live = leading
            .iter()
            .copied()
            .chain(records)
            .filter(|e| e.0 >= spec.start);
        out.extend(live.take(spec.count));
    }

    fn live_count(&self, main_len: usize) -> usize {
        main_len - self.dead.iter().filter(|d| **d).count()
            + self.bins.iter().map(Vec::len).sum::<usize>()
    }

    fn heap_bytes(&self) -> usize {
        self.dead.capacity()
            + self
                .bins
                .iter()
                .map(|b| {
                    std::mem::size_of::<Vec<(K, Payload)>>()
                        + b.capacity() * std::mem::size_of::<(K, Payload)>()
                })
                .sum::<usize>()
    }
}

/// FINEdex, single-threaded: routed groups with per-record level bins.
pub type FinedexGroups<K> = GroupIndex<K, FinDelta<K>>;

/// FINEdex: the group index behind one partition lock per key range.
pub type Finedex<K> = Partitioned<K, FinedexGroups<K>>;

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
