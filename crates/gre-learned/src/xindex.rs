//! XIndex — a concurrent learned index with delta-merge (Tang et al., PPoPP'20).
//!
//! XIndex partitions the key space into *groups*, each holding a sorted main
//! array addressed by a linear model (error-bounded last-mile search) plus a
//! per-group *delta* buffer that absorbs inserts (§2.2). When a delta grows
//! past its budget the group is compacted: delta and main array are merged
//! and the model retrained (two-phase merge; the original uses a background
//! thread and RCU, which our inline compaction replaces — the latency spike
//! of a merge lands on the triggering insert, reproducing the tail-latency
//! behaviour of Figure 11 without background threads). The original routes
//! with a learned root model; ours binary-searches the groups' first keys.
//!
//! [`XIndexGroups`] is that structure single-threaded: the group index in
//! `groups.rs`, which XIndex shares with FINEdex, with [`XDelta`] as its
//! delta. [`XIndex`] is [`gre_core::Partitioned`] over it, so a partition's
//! lock guards the groups of its key range (see "Substitutions" in
//! `docs/BENCHMARKS.md`).

use crate::groups::{Delta, GroupIndex, Main};
// The unit tests drive the groups through the `Index` trait.
#[cfg(test)]
use gre_core::Index;
use gre_core::{Key, Partitioned, Payload, RangeSpec};
use std::collections::{BTreeMap, BTreeSet};

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

/// XIndex's delta policy: one ordered buffer of new keys per group (the
/// original backs it with Masstree) and tombstones for removed main-array
/// keys. A key is never in both the main array and the buffer: an insert of
/// a main-array key writes it in place.
#[derive(Debug)]
pub struct XDelta<K> {
    delta: BTreeMap<K, Payload>,
    deleted: BTreeSet<K>,
}

impl<K: Key> Delta<K> for XDelta<K> {
    type Config = XIndexConfig;
    const NAME: &'static str = "XIndex";

    fn error_bound(config: &XIndexConfig) -> usize {
        config.error_bound
    }

    fn group_size(config: &XIndexConfig) -> usize {
        config.group_size
    }

    fn new(_len: usize) -> Self {
        XDelta {
            delta: BTreeMap::new(),
            deleted: BTreeSet::new(),
        }
    }

    fn is_dead(&self, _pos: usize, key: K) -> bool {
        self.deleted.contains(&key)
    }

    fn set_dead(&mut self, _pos: usize, key: K, dead: bool) -> bool {
        if dead {
            !self.deleted.insert(key)
        } else {
            self.deleted.remove(&key)
        }
    }

    fn get(&self, _pos: usize, key: K) -> Option<Payload> {
        self.delta.get(&key).copied()
    }

    fn insert(&mut self, _pos: usize, key: K, value: Payload) -> bool {
        self.delta.insert(key, value).is_none()
    }

    fn full(&self, _pos: usize, config: &XIndexConfig) -> bool {
        self.delta.len() >= config.delta_size
    }

    fn update(&mut self, _pos: usize, key: K, value: Payload) -> bool {
        self.delta.get_mut(&key).map(|slot| *slot = value).is_some()
    }

    fn remove(&mut self, _pos: usize, key: K) -> Option<Payload> {
        self.delta.remove(&key)
    }

    /// Merges the main array, less its tombstones, with the buffer.
    fn scan(&self, main: &Main<K>, from: usize, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) {
        let mut records = (from..main.keys.len())
            .filter(|&i| !self.deleted.contains(&main.keys[i]))
            .map(|i| (main.keys[i], main.values[i]))
            .peekable();
        let mut waiting = self
            .delta
            .range(spec.start..)
            .map(|(k, v)| (*k, *v))
            .peekable();
        for _ in 0..spec.count {
            let next = match (records.peek(), waiting.peek()) {
                (Some(r), Some(w)) if w.0 < r.0 => waiting.next(),
                (Some(_), _) => records.next(),
                (None, _) => waiting.next(),
            };
            match next {
                Some(entry) => out.push(entry),
                None => break,
            }
        }
    }

    fn live_count(&self, main_len: usize) -> usize {
        main_len + self.delta.len() - self.deleted.len()
    }

    fn heap_bytes(&self) -> usize {
        (self.delta.len() + self.deleted.len()) * 64
    }
}

/// The XIndex structure, single-threaded: routed groups with a delta each.
pub type XIndexGroups<K> = GroupIndex<K, XDelta<K>>;

/// XIndex: the group index behind one partition lock per key range.
pub type XIndex<K> = Partitioned<K, XIndexGroups<K>>;

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
