//! HOT-like height-optimised trie (simplified).
//!
//! The original HOT (Binna et al., SIGMOD'18) combines multiple radix levels
//! into compound nodes selected by discriminative bits and navigated with
//! SIMD masks. We implement a simplification (listed under "Substitutions"
//! in `docs/BENCHMARKS.md`): a nibble-span (4-bit) trie with path
//! compression and *compact* child storage (children are kept in a sorted,
//! exactly-sized vector rather than a fixed 16-slot array). This preserves
//! the two properties the paper relies on — a very small memory footprint
//! (Figure 8 shows HOT as the most space-efficient index) and robust lookup
//! performance — while omitting the SIMD machinery.

use gre_core::{Index, IndexMeta, InsertStats, Key, OpCounters, Payload, RangeSpec, StatsSnapshot};

const NIBBLES: usize = 16; // 64-bit keys / 4 bits

#[inline]
fn nibble_of<K: Key>(key: K, i: usize) -> u8 {
    let bytes = key.to_radix_bytes();
    let b = bytes[i / 2];
    if i % 2 == 0 {
        b >> 4
    } else {
        b & 0x0f
    }
}

#[derive(Debug)]
enum Node<K> {
    Leaf {
        key: K,
        value: Payload,
    },
    Inner {
        /// Number of leading nibbles (starting at this node's depth) shared
        /// by every key in the subtree (path compression).
        prefix: Vec<u8>,
        /// Children sorted by nibble, stored compactly.
        children: Vec<(u8, Box<Node<K>>)>,
    },
}

impl<K: Key> Node<K> {
    fn memory(&self) -> usize {
        match self {
            Node::Leaf { .. } => std::mem::size_of::<Self>(),
            Node::Inner { prefix, children } => {
                std::mem::size_of::<Self>()
                    + prefix.capacity()
                    + children.capacity() * std::mem::size_of::<(u8, Box<Node<K>>)>()
                    + children.iter().map(|(_, c)| c.memory()).sum::<usize>()
            }
        }
    }
}

/// The height-optimised trie.
#[derive(Debug)]
pub struct Hot<K> {
    root: Option<Box<Node<K>>>,
    len: usize,
    counters: OpCounters,
}

impl<K: Key> Default for Hot<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> Hot<K> {
    pub fn new() -> Self {
        Hot {
            root: None,
            len: 0,
            counters: OpCounters::default(),
        }
    }

    fn nibbles(key: K) -> [u8; NIBBLES] {
        let mut out = [0u8; NIBBLES];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = nibble_of(key, i);
        }
        out
    }

    fn common_prefix(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
    }

    fn insert_rec(
        node: &mut Box<Node<K>>,
        key: K,
        nibbles: &[u8; NIBBLES],
        value: Payload,
        depth: usize,
        stats: &mut InsertStats,
    ) -> bool {
        stats.nodes_traversed += 1;
        match node.as_mut() {
            Node::Leaf { key: lk, value: lv } => {
                if *lk == key {
                    *lv = value;
                    return false;
                }
                let existing = Self::nibbles(*lk);
                let common = Self::common_prefix(&existing[depth..], &nibbles[depth..]);
                let split = depth + common;
                let prefix = nibbles[depth..split].to_vec();
                let old = std::mem::replace(
                    node.as_mut(),
                    Node::Inner {
                        prefix,
                        children: Vec::with_capacity(2),
                    },
                );
                let Node::Inner { children, .. } = node.as_mut() else {
                    unreachable!()
                };
                let mut pair = vec![
                    (existing[split], Box::new(old)),
                    (nibbles[split], Box::new(Node::Leaf { key, value })),
                ];
                pair.sort_by_key(|(n, _)| *n);
                *children = pair;
                stats.nodes_created += 2;
                stats.triggered_smo = true;
                true
            }
            Node::Inner { prefix, children } => {
                let common = Self::common_prefix(prefix, &nibbles[depth..]);
                if common < prefix.len() {
                    // Split the compressed path.
                    let existing_nibble = prefix[common];
                    let rest = prefix[common + 1..].to_vec();
                    let new_prefix = nibbles[depth..depth + common].to_vec();
                    *prefix = rest;
                    let old = std::mem::replace(
                        node.as_mut(),
                        Node::Inner {
                            prefix: new_prefix,
                            children: Vec::with_capacity(2),
                        },
                    );
                    let Node::Inner { children, .. } = node.as_mut() else {
                        unreachable!()
                    };
                    let mut pair = vec![
                        (existing_nibble, Box::new(old)),
                        (nibbles[depth + common], Box::new(Node::Leaf { key, value })),
                    ];
                    pair.sort_by_key(|(n, _)| *n);
                    *children = pair;
                    stats.nodes_created += 2;
                    stats.triggered_smo = true;
                    return true;
                }
                let next_depth = depth + prefix.len();
                let nib = nibbles[next_depth];
                match children.binary_search_by_key(&nib, |(n, _)| *n) {
                    Ok(i) => Self::insert_rec(
                        &mut children[i].1,
                        key,
                        nibbles,
                        value,
                        next_depth + 1,
                        stats,
                    ),
                    Err(i) => {
                        children.insert(i, (nib, Box::new(Node::Leaf { key, value })));
                        stats.nodes_created += 1;
                        stats.keys_shifted += (children.len() - i) as u64;
                        true
                    }
                }
            }
        }
    }

    fn get_rec(node: &Node<K>, key: K, nibbles: &[u8; NIBBLES], depth: usize) -> Option<Payload> {
        match node {
            Node::Leaf { key: lk, value } => (*lk == key).then_some(*value),
            Node::Inner { prefix, children } => {
                if Self::common_prefix(prefix, &nibbles[depth..]) < prefix.len() {
                    return None;
                }
                let next_depth = depth + prefix.len();
                let nib = nibbles[next_depth];
                children
                    .binary_search_by_key(&nib, |(n, _)| *n)
                    .ok()
                    .and_then(|i| Self::get_rec(&children[i].1, key, nibbles, next_depth + 1))
            }
        }
    }

    /// Returns (removed payload, whether the child should be removed).
    fn remove_rec(
        node: &mut Box<Node<K>>,
        key: K,
        nibbles: &[u8; NIBBLES],
        depth: usize,
    ) -> (Option<Payload>, bool) {
        match node.as_mut() {
            Node::Leaf { key: lk, value } => {
                if *lk == key {
                    (Some(*value), true)
                } else {
                    (None, false)
                }
            }
            Node::Inner { prefix, children } => {
                if Self::common_prefix(prefix, &nibbles[depth..]) < prefix.len() {
                    return (None, false);
                }
                let next_depth = depth + prefix.len();
                let nib = nibbles[next_depth];
                let Ok(i) = children.binary_search_by_key(&nib, |(n, _)| *n) else {
                    return (None, false);
                };
                let (removed, drop_child) =
                    Self::remove_rec(&mut children[i].1, key, nibbles, next_depth + 1);
                if drop_child {
                    children.remove(i);
                    if children.len() == 1 {
                        // Collapse: merge the compressed path with the single child.
                        let (nib, mut only) = children.pop().expect("one child");
                        if let Node::Inner {
                            prefix: child_prefix,
                            ..
                        } = only.as_mut()
                        {
                            let mut merged = prefix.clone();
                            merged.push(nib);
                            merged.append(child_prefix);
                            *child_prefix = merged;
                        }
                        **node = *only;
                    }
                }
                (removed, false)
            }
        }
    }

    /// Ordered walk appending entries with key >= `start` until `out` holds
    /// `target` entries.
    fn collect_from(node: &Node<K>, start: K, target: usize, out: &mut Vec<(K, Payload)>) {
        if out.len() >= target {
            return;
        }
        match node {
            Node::Leaf { key, value } => {
                if *key >= start {
                    out.push((*key, *value));
                }
            }
            Node::Inner { children, .. } => {
                for (_, child) in children {
                    if out.len() >= target {
                        return;
                    }
                    Self::collect_from(child, start, target, out);
                }
            }
        }
    }
}

impl<K: Key> Index<K> for Hot<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.root = None;
        self.len = 0;
        for &(k, v) in entries {
            self.insert(k, v);
        }
        self.counters = OpCounters::default();
    }

    fn get(&self, key: K) -> Option<Payload> {
        let nibbles = Self::nibbles(key);
        self.root
            .as_ref()
            .and_then(|r| Self::get_rec(r, key, &nibbles, 0))
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let nibbles = Self::nibbles(key);
        let mut stats = InsertStats::default();
        let inserted = match &mut self.root {
            None => {
                self.root = Some(Box::new(Node::Leaf { key, value }));
                stats.nodes_created = 1;
                true
            }
            Some(root) => Self::insert_rec(root, key, &nibbles, value, 0, &mut stats),
        };
        if inserted {
            self.len += 1;
        }
        self.counters.record_insert(&stats);
        inserted
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let nibbles = Self::nibbles(key);
        let result = match &mut self.root {
            None => None,
            Some(root) => {
                let (removed, drop_root) = Self::remove_rec(root, key, &nibbles, 0);
                if drop_root {
                    self.root = None;
                }
                removed
            }
        };
        if result.is_some() {
            self.len -= 1;
        }
        self.counters.record_remove(1);
        result
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        if let Some(root) = &self.root {
            Self::collect_from(root, spec.start, before.saturating_add(spec.count), out);
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>() + self.root.as_ref().map_or(0, |r| r.memory())
    }

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot::new(self.counters)
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "HOT",
            learned: false,
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

    #[test]
    fn basic_roundtrip() {
        let mut hot = Hot::new();
        for i in 0..5_000u64 {
            assert!(hot.insert(i * 17, i));
        }
        for i in 0..5_000u64 {
            assert_eq!(hot.get(i * 17), Some(i));
            assert_eq!(hot.get(i * 17 + 1), None);
        }
        assert_eq!(hot.len(), 5_000);
        assert!(!hot.insert(17, 1234));
        assert_eq!(hot.get(17), Some(1234));
    }

    #[test]
    fn remove_collapses_paths() {
        let mut hot = Hot::new();
        for i in 0..2_000u64 {
            hot.insert(i, i);
        }
        for i in 0..1_000u64 {
            assert_eq!(hot.remove(i), Some(i));
        }
        for i in 1_000..2_000u64 {
            assert_eq!(hot.get(i), Some(i));
        }
        assert_eq!(hot.len(), 1_000);
        assert_eq!(hot.remove(5_000), None);
    }

    #[test]
    fn matches_model_under_random_ops() {
        let mut hot = Hot::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0xabcdef;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 10_000;
            match x % 3 {
                0 => assert_eq!(hot.insert(key, i), model.insert(key, i).is_none()),
                1 => assert_eq!(hot.remove(key), model.remove(&key)),
                _ => assert_eq!(hot.get(key), model.get(&key).copied()),
            }
        }
        assert_eq!(hot.len(), model.len());
    }

    #[test]
    fn range_scan_sorted() {
        let mut hot = Hot::new();
        let entries: Vec<(u64, u64)> = (0..1_000u64).map(|i| (i * 11, i)).collect();
        hot.bulk_load(&entries);
        let mut out = Vec::new();
        let n = hot.range(RangeSpec::new(110, 50), &mut out);
        assert_eq!(n, 50);
        assert_eq!(out[0].0, 110);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn memory_is_compact_relative_to_sparse_array_designs() {
        let mut hot = Hot::new();
        for i in 0..10_000u64 {
            hot.insert(i.wrapping_mul(0x9E3779B97F4A7C15), i);
        }
        // Well under 200 bytes per key for random keys (HOT's selling point
        // is compactness; exact numbers depend on the key distribution).
        assert!(hot.memory_usage() < 10_000 * 200);
        assert_eq!(hot.meta().name, "HOT");
    }

    #[test]
    fn empty_behaviour() {
        let mut hot: Hot<u64> = Hot::new();
        assert_eq!(hot.get(1), None);
        assert_eq!(hot.remove(1), None);
        assert!(hot.is_empty());
        let mut out = Vec::new();
        assert_eq!(hot.range(RangeSpec::new(0, 10), &mut out), 0);
    }
}
