//! Wormhole-like hash-accelerated ordered index (simplified).
//!
//! Wormhole (Wu et al., EuroSys'19) stores keys in sorted leaf segments and
//! reaches the right segment through a hashed meta-trie over key prefixes,
//! achieving O(log L) point lookups (L = key length) instead of O(log n).
//! Our simplification keeps the two layers — sorted leaf segments plus an
//! "inner layer" that maps keys to segments — but implements the inner layer
//! as a sorted anchor array with binary search plus a direct-mapped hash
//! hint table over the high key bits that short-circuits the binary search
//! for most lookups. The property the paper leans on (a monolithic inner
//! layer whose updates serialize writers in the concurrent variant) is
//! preserved: every leaf split rebuilds the hint table.

use gre_core::{Index, IndexMeta, Key, Payload, RangeSpec};

/// Target number of entries per leaf segment.
const LEAF_TARGET: usize = 128;
/// Number of slots in the hash hint table per leaf.
const HINT_FACTOR: usize = 4;

#[derive(Debug)]
struct Leaf<K> {
    /// Smallest key that can be stored in this leaf.
    anchor: K,
    keys: Vec<K>,
    values: Vec<Payload>,
}

impl<K: Key> Leaf<K> {
    fn memory(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.keys.capacity() * std::mem::size_of::<K>()
            + self.values.capacity() * std::mem::size_of::<Payload>()
    }
}

/// The Wormhole-like index.
#[derive(Debug)]
pub struct Wormhole<K> {
    /// Leaf segments sorted by anchor key.
    leaves: Vec<Leaf<K>>,
    /// Hash hint table: maps a hash of the key's high bits to a leaf index
    /// that is guaranteed to be at or before the correct leaf.
    hints: Vec<u32>,
    len: usize,
}

impl<K: Key> Default for Wormhole<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> Wormhole<K> {
    pub fn new() -> Self {
        Wormhole {
            leaves: vec![Leaf {
                anchor: K::MIN,
                keys: Vec::new(),
                values: Vec::new(),
            }],
            hints: vec![0],
            len: 0,
        }
    }

    /// Number of leaf segments (exposed for tests and memory analysis).
    pub fn segment_count(&self) -> usize {
        self.leaves.len()
    }

    #[inline]
    fn hint_slot(&self, key: K) -> usize {
        if self.hints.is_empty() {
            return 0;
        }
        // The hint table is indexed by the key's position in model space
        // scaled into the table, which mirrors Wormhole's prefix hashing for
        // monotone key bytes.
        let lo = self.leaves[0].anchor.to_model_input();
        let hi = self
            .leaves
            .last()
            .map(|l| l.anchor.to_model_input())
            .unwrap_or(lo);
        if hi <= lo {
            return 0;
        }
        let t = ((key.to_model_input() - lo) / (hi - lo)).clamp(0.0, 1.0);
        ((t * (self.hints.len() - 1) as f64) as usize).min(self.hints.len() - 1)
    }

    /// Find the leaf that should contain `key`.
    fn leaf_for(&self, key: K) -> usize {
        let hinted = self.hints[self.hint_slot(key)] as usize;
        let mut idx = hinted.min(self.leaves.len() - 1);
        // The hint is a lower bound; advance while the next leaf's anchor is
        // still <= key, and retreat if the hint overshoots.
        while idx > 0 && self.leaves[idx].anchor > key {
            idx -= 1;
        }
        while idx + 1 < self.leaves.len() && self.leaves[idx + 1].anchor <= key {
            idx += 1;
        }
        idx
    }

    /// Rebuild the hint table (the "inner layer" maintenance that serializes
    /// writers in the concurrent variant).
    fn rebuild_hints(&mut self) {
        let slots = (self.leaves.len() * HINT_FACTOR).max(1);
        let mut hints = vec![0u32; slots];
        // For each slot, store the index of the last leaf whose anchor maps
        // at or before the slot.
        let lo = self.leaves[0].anchor.to_model_input();
        let hi = self
            .leaves
            .last()
            .map(|l| l.anchor.to_model_input())
            .unwrap_or(lo);
        if hi > lo {
            let mut leaf = 0usize;
            for (s, hint) in hints.iter_mut().enumerate() {
                let slot_key = lo + (s as f64 / (slots - 1).max(1) as f64) * (hi - lo);
                while leaf + 1 < self.leaves.len()
                    && self.leaves[leaf + 1].anchor.to_model_input() <= slot_key
                {
                    leaf += 1;
                }
                *hint = leaf as u32;
            }
        }
        self.hints = hints;
    }

    fn split_leaf(&mut self, idx: usize) {
        let (right_keys, right_values) = {
            let leaf = &mut self.leaves[idx];
            let mid = leaf.keys.len() / 2;
            (leaf.keys.split_off(mid), leaf.values.split_off(mid))
        };
        let anchor = right_keys[0];
        self.leaves.insert(
            idx + 1,
            Leaf {
                anchor,
                keys: right_keys,
                values: right_values,
            },
        );
        self.rebuild_hints();
    }
}

impl<K: Key> Index<K> for Wormhole<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.leaves.clear();
        self.len = entries.len();
        if entries.is_empty() {
            self.leaves.push(Leaf {
                anchor: K::MIN,
                keys: Vec::new(),
                values: Vec::new(),
            });
            self.rebuild_hints();
            return;
        }
        for chunk in entries.chunks(LEAF_TARGET) {
            self.leaves.push(Leaf {
                anchor: chunk[0].0,
                keys: chunk.iter().map(|e| e.0).collect(),
                values: chunk.iter().map(|e| e.1).collect(),
            });
        }
        // The first leaf must accept any key below the first anchor.
        self.leaves[0].anchor = K::MIN;
        self.rebuild_hints();
    }

    fn get(&self, key: K) -> Option<Payload> {
        let leaf = &self.leaves[self.leaf_for(key)];
        leaf.keys.binary_search(&key).ok().map(|i| leaf.values[i])
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let idx = self.leaf_for(key);
        let (inserted, needs_split) = {
            let leaf = &mut self.leaves[idx];
            match leaf.keys.binary_search(&key) {
                Ok(i) => {
                    leaf.values[i] = value;
                    (false, false)
                }
                Err(i) => {
                    leaf.keys.insert(i, key);
                    leaf.values.insert(i, value);
                    (true, leaf.keys.len() > LEAF_TARGET * 2)
                }
            }
        };
        if inserted {
            self.len += 1;
        }
        if needs_split {
            self.split_leaf(idx);
        }
        inserted
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let idx = self.leaf_for(key);
        let leaf = &mut self.leaves[idx];
        match leaf.keys.binary_search(&key) {
            Ok(i) => {
                leaf.keys.remove(i);
                let v = leaf.values.remove(i);
                self.len -= 1;
                Some(v)
            }
            Err(_) => None,
        }
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        let mut idx = self.leaf_for(spec.start);
        while idx < self.leaves.len() && out.len() - before < spec.count {
            let leaf = &self.leaves[idx];
            let from = leaf.keys.partition_point(|k| *k < spec.start);
            for i in from..leaf.keys.len() {
                if out.len() - before >= spec.count {
                    break;
                }
                out.push((leaf.keys[i], leaf.values[i]));
            }
            idx += 1;
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.leaves.iter().map(Leaf::memory).sum::<usize>()
            + self.hints.capacity() * std::mem::size_of::<u32>()
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "Wormhole",
            learned: false,
            concurrent: false,
            supports_delete: false,
            supports_range: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn bulk_load_and_lookup() {
        let mut w = Wormhole::new();
        let entries: Vec<(u64, u64)> = (0..10_000u64).map(|i| (i * 3, i)).collect();
        w.bulk_load(&entries);
        assert_eq!(w.len(), 10_000);
        assert!(w.segment_count() > 1);
        for i in (0..10_000).step_by(29) {
            assert_eq!(w.get(i * 3), Some(i));
            assert_eq!(w.get(i * 3 + 1), None);
        }
    }

    #[test]
    fn inserts_split_segments() {
        let mut w = Wormhole::new();
        let before = w.segment_count();
        for i in 0..5_000u64 {
            assert!(w.insert(i * 7, i));
        }
        assert!(w.segment_count() > before);
        for i in 0..5_000u64 {
            assert_eq!(w.get(i * 7), Some(i));
        }
    }

    #[test]
    fn matches_model_under_random_ops() {
        let mut w = Wormhole::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0x77777;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 6000;
            match x % 3 {
                0 => assert_eq!(w.insert(key, i), model.insert(key, i).is_none()),
                1 => assert_eq!(w.remove(key), model.remove(&key)),
                _ => assert_eq!(w.get(key), model.get(&key).copied()),
            }
        }
        assert_eq!(w.len(), model.len());
        let mut out = Vec::new();
        w.range(RangeSpec::new(0, usize::MAX), &mut out);
        let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn range_scan_spans_segments() {
        let mut w = Wormhole::new();
        let entries: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i, i)).collect();
        w.bulk_load(&entries);
        let mut out = Vec::new();
        assert_eq!(w.range(RangeSpec::new(100, 500), &mut out), 500);
        assert_eq!(out[0].0, 100);
        assert_eq!(out.last().unwrap().0, 599);
    }

    #[test]
    fn keys_below_first_anchor_are_found() {
        let mut w = Wormhole::new();
        w.bulk_load(&(100..200u64).map(|i| (i, i)).collect::<Vec<_>>());
        assert!(w.insert(5, 55));
        assert_eq!(w.get(5), Some(55));
        assert_eq!(w.get(1), None);
    }

    #[test]
    fn empty_behaviour() {
        let mut w: Wormhole<u64> = Wormhole::new();
        assert_eq!(w.get(3), None);
        assert_eq!(w.remove(3), None);
        w.bulk_load(&[]);
        assert!(w.is_empty());
        assert!(w.insert(1, 1));
        assert_eq!(w.get(1), Some(1));
    }
}
