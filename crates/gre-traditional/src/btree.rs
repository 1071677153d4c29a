//! STX-style in-memory B+-tree.
//!
//! A cache-conscious B+-tree with slotted inner and leaf nodes and leaf
//! side-links (the paper adds side-links to B+TreeOLC for better range-scan
//! performance; we build them in from the start). Nodes live in an arena and
//! are addressed by `u32` ids, which keeps the structure compact and makes
//! end-to-end memory accounting straightforward.

use gre_core::{Index, IndexMeta, Key, Payload, RangeSpec};

/// Number of keys per leaf node (STX uses a node size tuned to cache lines;
/// 64 eight-byte keys ≈ one 512-byte block plus payloads).
pub const LEAF_CAPACITY: usize = 64;
/// Number of keys per inner node.
pub const INNER_CAPACITY: usize = 64;

const NO_NODE: u32 = u32::MAX;

#[derive(Debug)]
enum Node<K> {
    Inner {
        /// Separator keys; `children.len() == keys.len() + 1`.
        keys: Vec<K>,
        children: Vec<u32>,
    },
    Leaf {
        keys: Vec<K>,
        values: Vec<Payload>,
        /// Right sibling (side-link) for range scans.
        next: u32,
    },
}

impl<K: Key> Node<K> {
    fn new_leaf() -> Self {
        Node::Leaf {
            keys: Vec::with_capacity(LEAF_CAPACITY),
            values: Vec::with_capacity(LEAF_CAPACITY),
            next: NO_NODE,
        }
    }

    fn memory(&self) -> usize {
        let base = std::mem::size_of::<Self>();
        match self {
            Node::Inner { keys, children } => {
                base + keys.capacity() * std::mem::size_of::<K>()
                    + children.capacity() * std::mem::size_of::<u32>()
            }
            Node::Leaf { keys, values, .. } => {
                base + keys.capacity() * std::mem::size_of::<K>()
                    + values.capacity() * std::mem::size_of::<Payload>()
            }
        }
    }
}

/// Configuration of the B+-tree (kept for Table 1 reporting symmetry with
/// the learned-index configurations).
#[derive(Debug, Clone, Copy)]
pub struct BPlusTreeConfig {
    pub leaf_capacity: usize,
    pub inner_capacity: usize,
}

impl Default for BPlusTreeConfig {
    fn default() -> Self {
        BPlusTreeConfig {
            leaf_capacity: LEAF_CAPACITY,
            inner_capacity: INNER_CAPACITY,
        }
    }
}

/// An STX-style B+-tree.
#[derive(Debug)]
pub struct BPlusTree<K> {
    nodes: Vec<Node<K>>,
    root: u32,
    len: usize,
    height: usize,
    config: BPlusTreeConfig,
}

impl<K: Key> Default for BPlusTree<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> BPlusTree<K> {
    /// Create an empty tree with the default node sizes.
    pub fn new() -> Self {
        Self::with_config(BPlusTreeConfig::default())
    }

    /// Create an empty tree with explicit node sizes.
    pub fn with_config(config: BPlusTreeConfig) -> Self {
        BPlusTree {
            nodes: vec![Node::new_leaf()],
            root: 0,
            len: 0,
            height: 1,
            config,
        }
    }

    /// Tree height (number of levels, leaves included).
    pub fn height(&self) -> usize {
        self.height
    }

    fn alloc(&mut self, node: Node<K>) -> u32 {
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Descend to the leaf that should hold `key`.
    fn find_leaf(&self, key: K) -> u32 {
        let mut id = self.root;
        loop {
            match &self.nodes[id as usize] {
                Node::Inner { keys, children } => {
                    let slot = keys.partition_point(|k| *k <= key);
                    id = children[slot];
                }
                Node::Leaf { .. } => return id,
            }
        }
    }

    /// Descend recording the path of (inner node id, child slot) pairs.
    fn find_leaf_with_path(&self, key: K) -> (u32, Vec<(u32, usize)>) {
        let mut id = self.root;
        let mut path = Vec::with_capacity(self.height);
        loop {
            match &self.nodes[id as usize] {
                Node::Inner { keys, children } => {
                    let slot = keys.partition_point(|k| *k <= key);
                    path.push((id, slot));
                    id = children[slot];
                }
                Node::Leaf { .. } => return (id, path),
            }
        }
    }

    /// Split a full leaf, returning `(separator, new_leaf_id)`.
    fn split_leaf(&mut self, leaf_id: u32) -> (K, u32) {
        let (right_keys, right_values, old_next) = {
            let Node::Leaf { keys, values, next } = &mut self.nodes[leaf_id as usize] else {
                unreachable!("split_leaf on inner node")
            };
            let mid = keys.len() / 2;
            (keys.split_off(mid), values.split_off(mid), *next)
        };
        let separator = right_keys[0];
        let new_id = self.alloc(Node::Leaf {
            keys: right_keys,
            values: right_values,
            next: old_next,
        });
        let Node::Leaf { next, .. } = &mut self.nodes[leaf_id as usize] else {
            unreachable!()
        };
        *next = new_id;
        (separator, new_id)
    }

    /// Split a full inner node, returning `(separator, new_inner_id)`.
    fn split_inner(&mut self, inner_id: u32) -> (K, u32) {
        let (separator, right_keys, right_children) = {
            let Node::Inner { keys, children } = &mut self.nodes[inner_id as usize] else {
                unreachable!("split_inner on leaf")
            };
            let mid = keys.len() / 2;
            let right_keys = keys.split_off(mid + 1);
            let separator = keys.pop().expect("non-empty inner split");
            let right_children = children.split_off(mid + 1);
            (separator, right_keys, right_children)
        };
        let new_id = self.alloc(Node::Inner {
            keys: right_keys,
            children: right_children,
        });
        (separator, new_id)
    }

    /// Propagate a split upwards along `path`.
    fn insert_into_parents(&mut self, mut path: Vec<(u32, usize)>, mut sep: K, mut right: u32) {
        loop {
            match path.pop() {
                Some((parent_id, slot)) => {
                    {
                        let Node::Inner { keys, children } = &mut self.nodes[parent_id as usize]
                        else {
                            unreachable!()
                        };
                        keys.insert(slot, sep);
                        children.insert(slot + 1, right);
                    }
                    let full = match &self.nodes[parent_id as usize] {
                        Node::Inner { keys, .. } => keys.len() > self.config.inner_capacity,
                        _ => false,
                    };
                    if !full {
                        return;
                    }
                    let (new_sep, new_right) = self.split_inner(parent_id);
                    sep = new_sep;
                    right = new_right;
                }
                None => {
                    // Root split: create a new root.
                    let old_root = self.root;
                    let new_root = self.alloc(Node::Inner {
                        keys: vec![sep],
                        children: vec![old_root, right],
                    });
                    self.root = new_root;
                    self.height += 1;
                    return;
                }
            }
        }
    }

    /// Iterate entries in ascending key order starting from `start`,
    /// following leaf side-links.
    fn scan_from(&self, start: K, count: usize, out: &mut Vec<(K, Payload)>) -> usize {
        let mut leaf_id = self.find_leaf(start);
        let before = out.len();
        while leaf_id != NO_NODE && out.len() - before < count {
            let Node::Leaf { keys, values, next } = &self.nodes[leaf_id as usize] else {
                unreachable!()
            };
            let from = keys.partition_point(|k| *k < start);
            for i in from..keys.len() {
                if out.len() - before >= count {
                    break;
                }
                out.push((keys[i], values[i]));
            }
            leaf_id = *next;
        }
        out.len() - before
    }
}

impl<K: Key> Index<K> for BPlusTree<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        // Rebuild from scratch: pack leaves to ~90% fill, then build the
        // inner levels bottom-up (the standard bulk-loading strategy of STX).
        self.nodes.clear();
        self.len = entries.len();
        if entries.is_empty() {
            self.nodes.push(Node::new_leaf());
            self.root = 0;
            self.height = 1;
            return;
        }
        let fill = (self.config.leaf_capacity * 9 / 10).max(1);
        let mut level: Vec<(K, u32)> = Vec::new();
        let mut chunk_start = 0usize;
        let mut prev_leaf: u32 = NO_NODE;
        while chunk_start < entries.len() {
            let chunk_end = (chunk_start + fill).min(entries.len());
            let chunk = &entries[chunk_start..chunk_end];
            let id = self.alloc(Node::Leaf {
                keys: chunk.iter().map(|e| e.0).collect(),
                values: chunk.iter().map(|e| e.1).collect(),
                next: NO_NODE,
            });
            if prev_leaf != NO_NODE {
                let Node::Leaf { next, .. } = &mut self.nodes[prev_leaf as usize] else {
                    unreachable!()
                };
                *next = id;
            }
            prev_leaf = id;
            level.push((chunk[0].0, id));
            chunk_start = chunk_end;
        }
        // Build inner levels until a single root remains.
        self.height = 1;
        while level.len() > 1 {
            let fanout = (self.config.inner_capacity * 9 / 10).max(2);
            let mut next_level = Vec::new();
            for group in level.chunks(fanout) {
                let first_key = group[0].0;
                let keys: Vec<K> = group.iter().skip(1).map(|(k, _)| *k).collect();
                let children: Vec<u32> = group.iter().map(|(_, id)| *id).collect();
                let id = self.alloc(Node::Inner { keys, children });
                next_level.push((first_key, id));
            }
            level = next_level;
            self.height += 1;
        }
        self.root = level[0].1;
    }

    fn get(&self, key: K) -> Option<Payload> {
        let leaf_id = self.find_leaf(key);
        let Node::Leaf { keys, values, .. } = &self.nodes[leaf_id as usize] else {
            unreachable!()
        };
        keys.binary_search(&key).ok().map(|i| values[i])
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let (leaf_id, path) = self.find_leaf_with_path(key);
        let (inserted, needs_split) = {
            let Node::Leaf { keys, values, .. } = &mut self.nodes[leaf_id as usize] else {
                unreachable!()
            };
            match keys.binary_search(&key) {
                Ok(i) => {
                    values[i] = value;
                    (false, false)
                }
                Err(i) => {
                    keys.insert(i, key);
                    values.insert(i, value);
                    (true, keys.len() > self.config.leaf_capacity)
                }
            }
        };
        if inserted {
            self.len += 1;
        }
        if needs_split {
            let (sep, right) = self.split_leaf(leaf_id);
            self.insert_into_parents(path, sep, right);
        }
        inserted
    }

    /// In place: one descent and one leaf search, no path recorded.
    fn update(&mut self, key: K, value: Payload) -> bool {
        let leaf_id = self.find_leaf(key);
        let Node::Leaf { keys, values, .. } = &mut self.nodes[leaf_id as usize] else {
            unreachable!()
        };
        match keys.binary_search(&key) {
            Ok(i) => {
                values[i] = value;
                true
            }
            Err(_) => false,
        }
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let leaf_id = self.find_leaf(key);
        let Node::Leaf { keys, values, .. } = &mut self.nodes[leaf_id as usize] else {
            unreachable!()
        };
        match keys.binary_search(&key) {
            Ok(i) => {
                keys.remove(i);
                let v = values.remove(i);
                self.len -= 1;
                Some(v)
            }
            Err(_) => None,
        }
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        self.scan_from(spec.start, spec.count, out);
        // Honor the optional inclusive end bound: the side-link scan is
        // count-limited, so clip the (sorted) tail that overshot the window.
        if spec.end.is_some() {
            while out.len() > before && out.last().is_some_and(|e| !spec.admits(e.0)) {
                out.pop();
            }
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>() + self.nodes.iter().map(Node::memory).sum::<usize>()
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "B+tree",
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

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 10, i)).collect()
    }

    #[test]
    fn bulk_load_and_lookup() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(10_000));
        assert_eq!(t.len(), 10_000);
        assert!(t.height() > 1);
        for i in (0..10_000).step_by(37) {
            assert_eq!(t.get(i * 10), Some(i));
            assert_eq!(t.get(i * 10 + 5), None);
        }
    }

    #[test]
    fn insert_then_lookup_everything() {
        let mut t = BPlusTree::new();
        // Insert in a scrambled order.
        let mut keys: Vec<u64> = (0..5_000).map(|i| i * 7 + 1).collect();
        keys.reverse();
        for (i, &k) in keys.iter().enumerate() {
            assert!(t.insert(k, i as u64));
        }
        assert_eq!(t.len(), 5_000);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(t.get(k), Some(i as u64), "key {k}");
        }
        // Updating an existing key returns false and changes the value.
        assert!(!t.insert(keys[0], 999));
        assert_eq!(t.get(keys[0]), Some(999));
    }

    #[test]
    fn remove_and_reinsert() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(2_000));
        for i in 0..1_000u64 {
            assert_eq!(t.remove(i * 20), Some(i * 2));
        }
        assert_eq!(t.len(), 1_000);
        for i in 0..1_000u64 {
            assert_eq!(t.get(i * 20), None);
            assert_eq!(t.get(i * 20 + 10), Some(i * 2 + 1));
        }
        assert_eq!(t.remove(5), None);
        // Re-insert the deleted keys.
        for i in 0..1_000u64 {
            assert!(t.insert(i * 20, 7));
        }
        assert_eq!(t.len(), 2_000);
    }

    #[test]
    fn range_scan_follows_side_links() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(3_000));
        let mut out = Vec::new();
        let n = t.range(RangeSpec::new(995, 200), &mut out);
        assert_eq!(n, 200);
        assert_eq!(out[0].0, 1000);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        // Scan starting beyond the last key returns nothing.
        out.clear();
        assert_eq!(t.range(RangeSpec::new(1_000_000, 10), &mut out), 0);
        // Scan from before the first key returns the first keys.
        out.clear();
        assert_eq!(t.range(RangeSpec::new(0, 5), &mut out), 5);
        assert_eq!(out[0].0, 0);
    }

    #[test]
    fn bounded_range_scan_respects_the_end_key() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(1_000));
        let stride = {
            let mut probe = Vec::new();
            t.range(RangeSpec::new(0, 2), &mut probe);
            probe[1].0 - probe[0].0
        };
        let mut out = Vec::new();
        // End bound clips before the count limit: [10*stride, 14*stride]
        // holds exactly 5 keys.
        let (lo, hi) = (10 * stride, 14 * stride);
        assert_eq!(t.range(RangeSpec::bounded(lo, hi, 50), &mut out), 5);
        assert_eq!(out.first().unwrap().0, lo);
        assert_eq!(out.last().unwrap().0, hi);
        // Count limits a wide window.
        out.clear();
        assert_eq!(t.range(RangeSpec::bounded(0, 999 * stride, 3), &mut out), 3);
        // Window with no keys in it.
        out.clear();
        assert_eq!(
            t.range(RangeSpec::bounded(lo + 1, lo + stride - 1, 10), &mut out),
            0
        );
    }

    #[test]
    fn mixed_operations_match_btreemap_model() {
        let mut t = BPlusTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0x12345;
        for i in 0..20_000u64 {
            // xorshift pseudo-random ops
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 4096;
            match x % 4 {
                0 | 1 => {
                    assert_eq!(t.insert(key, i), model.insert(key, i).is_none());
                }
                2 => {
                    assert_eq!(t.remove(key), model.remove(&key));
                }
                _ => {
                    assert_eq!(t.get(key), model.get(&key).copied());
                }
            }
        }
        assert_eq!(t.len(), model.len());
        let mut out = Vec::new();
        t.range(RangeSpec::new(0, usize::MAX), &mut out);
        let expected: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn stats_and_memory_reporting() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(1_000));
        let before = t.memory_usage();
        for i in 0..1_000u64 {
            t.insert(i * 10 + 5, i);
        }
        assert!(t.memory_usage() > before);
        assert_eq!(t.meta().name, "B+tree");
    }

    #[test]
    fn update_writes_in_place_and_counts_nothing() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(1_000));
        for i in 0..1_000u64 {
            assert!(t.update(i * 10, i + 1));
        }
        assert!(!t.update(5, 1));
        assert_eq!(t.get(5), None);
        assert_eq!(t.get(990), Some(100));
        assert_eq!(t.len(), 1_000);
    }

    #[test]
    fn empty_tree_behaviour() {
        let mut t: BPlusTree<u64> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(5), None);
        assert_eq!(t.remove(5), None);
        let mut out = Vec::new();
        assert_eq!(t.range(RangeSpec::new(0, 10), &mut out), 0);
        t.bulk_load(&[]);
        assert!(t.is_empty());
        assert!(t.insert(1, 1));
        assert_eq!(t.get(1), Some(1));
    }
}
