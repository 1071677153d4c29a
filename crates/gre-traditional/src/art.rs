//! Adaptive Radix Tree (ART).
//!
//! A radix tree over the big-endian byte representation of keys with the
//! four adaptive node types of the original paper (Node4 / Node16 / Node48 /
//! Node256) and path compression. ART is the strongest traditional baseline
//! of the study on integer keys ("because of its cache friendliness",
//! Message 2/§4.1).

use gre_core::{Index, IndexMeta, Key, Payload, RangeSpec};

const KEY_BYTES: usize = 8;
const EMPTY48: u8 = 255;

#[derive(Debug)]
enum Node<K> {
    /// A single key/value pair. ART stores values in leaves; with fixed
    /// 8-byte keys we keep the full key for final comparison.
    Leaf { key: K, value: Payload },
    Node4 {
        prefix: Vec<u8>,
        keys: [u8; 4],
        children: [Option<Box<Node<K>>>; 4],
        count: u8,
    },
    Node16 {
        prefix: Vec<u8>,
        keys: [u8; 16],
        children: [Option<Box<Node<K>>>; 16],
        count: u8,
    },
    Node48 {
        prefix: Vec<u8>,
        child_index: [u8; 256],
        children: Vec<Option<Box<Node<K>>>>,
        count: u8,
    },
    Node256 {
        prefix: Vec<u8>,
        children: Vec<Option<Box<Node<K>>>>,
        count: u16,
    },
}

impl<K: Key> Node<K> {
    fn new_node4(prefix: Vec<u8>) -> Self {
        Node::Node4 {
            prefix,
            keys: [0; 4],
            children: [None, None, None, None],
            count: 0,
        }
    }

    fn prefix(&self) -> &[u8] {
        match self {
            Node::Leaf { .. } => &[],
            Node::Node4 { prefix, .. }
            | Node::Node16 { prefix, .. }
            | Node::Node48 { prefix, .. }
            | Node::Node256 { prefix, .. } => prefix,
        }
    }

    fn set_prefix(&mut self, new_prefix: Vec<u8>) {
        match self {
            Node::Leaf { .. } => {}
            Node::Node4 { prefix, .. }
            | Node::Node16 { prefix, .. }
            | Node::Node48 { prefix, .. }
            | Node::Node256 { prefix, .. } => *prefix = new_prefix,
        }
    }

    fn is_full(&self) -> bool {
        match self {
            Node::Leaf { .. } => true,
            Node::Node4 { count, .. } => *count as usize >= 4,
            Node::Node16 { count, .. } => *count as usize >= 16,
            Node::Node48 { count, .. } => *count as usize >= 48,
            Node::Node256 { .. } => false,
        }
    }

    fn child_count(&self) -> usize {
        match self {
            Node::Leaf { .. } => 0,
            Node::Node4 { count, .. } | Node::Node16 { count, .. } | Node::Node48 { count, .. } => {
                *count as usize
            }
            Node::Node256 { count, .. } => *count as usize,
        }
    }

    fn find_child(&self, byte: u8) -> Option<&Node<K>> {
        match self {
            Node::Leaf { .. } => None,
            Node::Node4 {
                keys,
                children,
                count,
                ..
            } => (0..*count as usize)
                .find(|&i| keys[i] == byte)
                .and_then(|i| children[i].as_deref()),
            Node::Node16 {
                keys,
                children,
                count,
                ..
            } => (0..*count as usize)
                .find(|&i| keys[i] == byte)
                .and_then(|i| children[i].as_deref()),
            Node::Node48 {
                child_index,
                children,
                ..
            } => {
                let idx = child_index[byte as usize];
                if idx == EMPTY48 {
                    None
                } else {
                    children[idx as usize].as_deref()
                }
            }
            Node::Node256 { children, .. } => children[byte as usize].as_deref(),
        }
    }

    fn find_child_mut(&mut self, byte: u8) -> Option<&mut Box<Node<K>>> {
        match self {
            Node::Leaf { .. } => None,
            Node::Node4 {
                keys,
                children,
                count,
                ..
            } => {
                let c = *count as usize;
                (0..c)
                    .find(|&i| keys[i] == byte)
                    .and_then(move |i| children[i].as_mut())
            }
            Node::Node16 {
                keys,
                children,
                count,
                ..
            } => {
                let c = *count as usize;
                (0..c)
                    .find(|&i| keys[i] == byte)
                    .and_then(move |i| children[i].as_mut())
            }
            Node::Node48 {
                child_index,
                children,
                ..
            } => {
                let idx = child_index[byte as usize];
                if idx == EMPTY48 {
                    None
                } else {
                    children[idx as usize].as_mut()
                }
            }
            Node::Node256 { children, .. } => children[byte as usize].as_mut(),
        }
    }

    /// Add a child; the caller must have grown the node if it was full.
    fn add_child(&mut self, byte: u8, child: Box<Node<K>>) {
        match self {
            Node::Leaf { .. } => unreachable!("cannot add child to leaf"),
            Node::Node4 {
                keys,
                children,
                count,
                ..
            } => {
                let c = *count as usize;
                debug_assert!(c < 4);
                // Keep keys sorted for ordered iteration.
                let pos = keys[..c].iter().position(|&k| k > byte).unwrap_or(c);
                for i in (pos..c).rev() {
                    keys[i + 1] = keys[i];
                    children[i + 1] = children[i].take();
                }
                keys[pos] = byte;
                children[pos] = Some(child);
                *count += 1;
            }
            Node::Node16 {
                keys,
                children,
                count,
                ..
            } => {
                let c = *count as usize;
                debug_assert!(c < 16);
                let pos = keys[..c].iter().position(|&k| k > byte).unwrap_or(c);
                for i in (pos..c).rev() {
                    keys[i + 1] = keys[i];
                    children[i + 1] = children[i].take();
                }
                keys[pos] = byte;
                children[pos] = Some(child);
                *count += 1;
            }
            Node::Node48 {
                child_index,
                children,
                count,
                ..
            } => {
                debug_assert!((*count as usize) < 48);
                let slot = children
                    .iter()
                    .position(Option::is_none)
                    .unwrap_or_else(|| {
                        children.push(None);
                        children.len() - 1
                    });
                children[slot] = Some(child);
                child_index[byte as usize] = slot as u8;
                *count += 1;
            }
            Node::Node256 {
                children, count, ..
            } => {
                if children[byte as usize].is_none() {
                    *count += 1;
                }
                children[byte as usize] = Some(child);
            }
        }
    }

    /// Remove the child for `byte`, returning it.
    fn remove_child(&mut self, byte: u8) -> Option<Box<Node<K>>> {
        match self {
            Node::Leaf { .. } => None,
            Node::Node4 {
                keys,
                children,
                count,
                ..
            } => {
                let c = *count as usize;
                let pos = keys[..c].iter().position(|&k| k == byte)?;
                let removed = children[pos].take();
                for i in pos..c - 1 {
                    keys[i] = keys[i + 1];
                    children[i] = children[i + 1].take();
                }
                *count -= 1;
                removed
            }
            Node::Node16 {
                keys,
                children,
                count,
                ..
            } => {
                let c = *count as usize;
                let pos = keys[..c].iter().position(|&k| k == byte)?;
                let removed = children[pos].take();
                for i in pos..c - 1 {
                    keys[i] = keys[i + 1];
                    children[i] = children[i + 1].take();
                }
                *count -= 1;
                removed
            }
            Node::Node48 {
                child_index,
                children,
                count,
                ..
            } => {
                let idx = child_index[byte as usize];
                if idx == EMPTY48 {
                    return None;
                }
                child_index[byte as usize] = EMPTY48;
                *count -= 1;
                children[idx as usize].take()
            }
            Node::Node256 {
                children, count, ..
            } => {
                let removed = children[byte as usize].take();
                if removed.is_some() {
                    *count -= 1;
                }
                removed
            }
        }
    }

    /// Grow to the next larger node type, preserving children.
    fn grow(&mut self) {
        let prefix = self.prefix().to_vec();
        let old = std::mem::replace(self, Node::new_node4(Vec::new()));
        *self = match old {
            Node::Node4 {
                keys,
                mut children,
                count,
                ..
            } => {
                let mut n = Node::Node16 {
                    prefix,
                    keys: [0; 16],
                    children: Default::default(),
                    count: 0,
                };
                for i in 0..count as usize {
                    n.add_child(keys[i], children[i].take().expect("present child"));
                }
                n
            }
            Node::Node16 {
                keys,
                mut children,
                count,
                ..
            } => {
                let mut n = Node::Node48 {
                    prefix,
                    child_index: [EMPTY48; 256],
                    children: Vec::with_capacity(48),
                    count: 0,
                };
                for i in 0..count as usize {
                    n.add_child(keys[i], children[i].take().expect("present child"));
                }
                n
            }
            Node::Node48 {
                child_index,
                mut children,
                ..
            } => {
                let mut n = Node::Node256 {
                    prefix,
                    children: (0..256).map(|_| None).collect(),
                    count: 0,
                };
                for (byte, &idx) in child_index.iter().enumerate() {
                    if idx != EMPTY48 {
                        n.add_child(byte as u8, children[idx as usize].take().expect("present"));
                    }
                }
                n
            }
            other => other,
        };
    }

    /// Children in ascending byte order (for ordered scans).
    fn ordered_children(&self) -> Vec<(u8, &Node<K>)> {
        match self {
            Node::Leaf { .. } => Vec::new(),
            Node::Node4 {
                keys,
                children,
                count,
                ..
            } => (0..*count as usize)
                .map(|i| (keys[i], children[i].as_deref().expect("present")))
                .collect(),
            Node::Node16 {
                keys,
                children,
                count,
                ..
            } => (0..*count as usize)
                .map(|i| (keys[i], children[i].as_deref().expect("present")))
                .collect(),
            Node::Node48 {
                child_index,
                children,
                ..
            } => (0..256usize)
                .filter_map(|b| {
                    let idx = child_index[b];
                    if idx == EMPTY48 {
                        None
                    } else {
                        Some((b as u8, children[idx as usize].as_deref().expect("present")))
                    }
                })
                .collect(),
            Node::Node256 { children, .. } => (0..256usize)
                .filter_map(|b| children[b].as_deref().map(|c| (b as u8, c)))
                .collect(),
        }
    }

    /// The only remaining child (used to collapse one-child Node4s on delete).
    fn take_single_child(&mut self) -> Option<(u8, Box<Node<K>>)> {
        match self {
            Node::Node4 {
                keys,
                children,
                count,
                ..
            } if *count == 1 => Some((keys[0], children[0].take().expect("present"))),
            _ => None,
        }
    }

    fn memory(&self) -> usize {
        let base = std::mem::size_of::<Self>();
        match self {
            Node::Leaf { .. } => base,
            Node::Node4 { prefix, .. } | Node::Node16 { prefix, .. } => base + prefix.capacity(),
            Node::Node48 {
                prefix, children, ..
            } => {
                base + prefix.capacity()
                    + children.capacity() * std::mem::size_of::<Option<Box<Node<K>>>>()
            }
            Node::Node256 {
                prefix, children, ..
            } => {
                base + prefix.capacity()
                    + children.capacity() * std::mem::size_of::<Option<Box<Node<K>>>>()
            }
        }
    }

    /// Total memory of this subtree.
    fn subtree_memory(&self) -> usize {
        let mut total = self.memory();
        for (_, child) in self.ordered_children() {
            total += child.subtree_memory();
        }
        total
    }
}

/// The Adaptive Radix Tree.
#[derive(Debug)]
pub struct Art<K> {
    root: Option<Box<Node<K>>>,
    len: usize,
}

impl<K: Key> Default for Art<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> Art<K> {
    pub fn new() -> Self {
        Art { root: None, len: 0 }
    }

    fn key_bytes(key: K) -> [u8; KEY_BYTES] {
        key.to_radix_bytes()
    }

    /// Length of the common prefix of `a` and `b`.
    fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
        a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
    }

    fn insert_recursive(
        node: &mut Box<Node<K>>,
        key: K,
        bytes: &[u8; KEY_BYTES],
        value: Payload,
        depth: usize,
    ) -> bool {
        match node.as_mut() {
            Node::Leaf {
                key: leaf_key,
                value: leaf_value,
            } => {
                if *leaf_key == key {
                    *leaf_value = value;
                    return false;
                }
                // Split: replace this leaf with a Node4 holding both leaves
                // under their first diverging byte.
                let existing_bytes = Self::key_bytes(*leaf_key);
                let common = Self::common_prefix_len(&existing_bytes[depth..], &bytes[depth..]);
                let split_depth = depth + common;
                let prefix = bytes[depth..split_depth].to_vec();
                let old_leaf = std::mem::replace(node.as_mut(), Node::new_node4(prefix));
                node.add_child(existing_bytes[split_depth], Box::new(old_leaf));
                node.add_child(bytes[split_depth], Box::new(Node::Leaf { key, value }));
                true
            }
            _ => {
                let prefix = node.prefix().to_vec();
                let common = Self::common_prefix_len(&prefix, &bytes[depth..]);
                if common < prefix.len() {
                    // Prefix mismatch: split the prefix into a new parent.
                    let child_byte_existing = prefix[common];
                    let remaining_prefix = prefix[common + 1..].to_vec();
                    let old = std::mem::replace(
                        node.as_mut(),
                        Node::new_node4(bytes[depth..depth + common].to_vec()),
                    );
                    let mut old_boxed = Box::new(old);
                    old_boxed.set_prefix(remaining_prefix);
                    node.add_child(child_byte_existing, old_boxed);
                    node.add_child(bytes[depth + common], Box::new(Node::Leaf { key, value }));
                    return true;
                }
                let next_depth = depth + prefix.len();
                let byte = bytes[next_depth];
                if node.find_child_mut(byte).is_some() {
                    let child = node.find_child_mut(byte).expect("checked above");
                    return Self::insert_recursive(child, key, bytes, value, next_depth + 1);
                }
                if node.is_full() {
                    node.grow();
                }
                node.add_child(byte, Box::new(Node::Leaf { key, value }));
                true
            }
        }
    }

    fn remove_recursive(
        node: &mut Box<Node<K>>,
        key: K,
        bytes: &[u8; KEY_BYTES],
        depth: usize,
    ) -> (Option<Payload>, bool) {
        match node.as_mut() {
            Node::Leaf {
                key: leaf_key,
                value,
            } => {
                if *leaf_key == key {
                    (Some(*value), true) // caller removes this node
                } else {
                    (None, false)
                }
            }
            _ => {
                let prefix = node.prefix().to_vec();
                let common = Self::common_prefix_len(&prefix, &bytes[depth..]);
                if common < prefix.len() {
                    return (None, false);
                }
                let next_depth = depth + prefix.len();
                let byte = bytes[next_depth];
                let Some(child) = node.find_child_mut(byte) else {
                    return (None, false);
                };
                let (removed, remove_child) =
                    Self::remove_recursive(child, key, bytes, next_depth + 1);
                if remove_child {
                    node.remove_child(byte);
                    // Collapse a Node4 with a single remaining child into that
                    // child (path compression on the way back up).
                    if node.child_count() == 1 {
                        if let Some((b, mut only)) = node.take_single_child() {
                            let mut merged_prefix = prefix.clone();
                            merged_prefix.push(b);
                            merged_prefix.extend_from_slice(only.prefix());
                            only.set_prefix(merged_prefix);
                            **node = *only;
                        }
                    }
                }
                (removed, false)
            }
        }
    }

    /// Ordered DFS appending entries with key >= `start` until `out` holds
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
            _ => {
                for (_, child) in node.ordered_children() {
                    if out.len() >= target {
                        return;
                    }
                    // Prune subtrees entirely below `start`: the maximum key in
                    // a subtree is bounded by its byte path; a cheap
                    // conservative check is to recurse only when the subtree
                    // could contain keys >= start, which we determine from the
                    // subtree's maximum leaf. To avoid extra bookkeeping we
                    // simply recurse; pruning happens at the leaf comparison.
                    Self::collect_from(child, start, target, out);
                }
            }
        }
    }
}

impl<K: Key> Index<K> for Art<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.root = None;
        self.len = 0;
        for &(k, v) in entries {
            self.insert(k, v);
        }
    }

    fn get(&self, key: K) -> Option<Payload> {
        let bytes = Self::key_bytes(key);
        let mut node = self.root.as_deref()?;
        let mut depth = 0usize;
        loop {
            match node {
                Node::Leaf {
                    key: leaf_key,
                    value,
                } => return (*leaf_key == key).then_some(*value),
                _ => {
                    let prefix = node.prefix();
                    if Self::common_prefix_len(prefix, &bytes[depth..]) < prefix.len() {
                        return None;
                    }
                    depth += prefix.len();
                    if depth >= KEY_BYTES {
                        return None;
                    }
                    node = node.find_child(bytes[depth])?;
                    depth += 1;
                }
            }
        }
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let bytes = Self::key_bytes(key);
        let inserted = match &mut self.root {
            None => {
                self.root = Some(Box::new(Node::Leaf { key, value }));
                true
            }
            Some(root) => Self::insert_recursive(root, key, &bytes, value, 0),
        };
        if inserted {
            self.len += 1;
        }
        inserted
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let bytes = Self::key_bytes(key);
        let result = match &mut self.root {
            None => None,
            Some(root) => {
                let (removed, remove_root) = Self::remove_recursive(root, key, &bytes, 0);
                if remove_root {
                    self.root = None;
                }
                removed
            }
        };
        if result.is_some() {
            self.len -= 1;
        }
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
        std::mem::size_of::<Self>() + self.root.as_ref().map_or(0, |r| r.subtree_memory())
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "ART",
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
    fn insert_get_remove_roundtrip() {
        let mut art = Art::new();
        let keys: Vec<u64> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            assert!(art.insert(k, i as u64), "insert {k}");
        }
        assert_eq!(art.len(), keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(art.get(k), Some(i as u64), "get {k}");
        }
        assert_eq!(art.get(12345), None);
        for &k in keys.iter().take(5_000) {
            assert!(art.remove(k).is_some());
            assert_eq!(art.get(k), None);
        }
        assert_eq!(art.len(), 5_000);
        for &k in keys.iter().skip(5_000) {
            assert!(art.get(k).is_some());
        }
    }

    #[test]
    fn dense_keys_grow_through_all_node_types() {
        let mut art = Art::new();
        // 300 dense keys under the same 7-byte prefix force Node4 -> Node16
        // -> Node48 -> Node256 growth at the last level.
        for i in 0..300u64 {
            art.insert(i, i);
        }
        for i in 0..300u64 {
            assert_eq!(art.get(i), Some(i));
        }
        assert_eq!(art.len(), 300);
        // And deleting most of them collapses paths without losing the rest.
        for i in 0..295u64 {
            assert_eq!(art.remove(i), Some(i));
        }
        for i in 295..300u64 {
            assert_eq!(art.get(i), Some(i));
        }
    }

    #[test]
    fn update_in_place() {
        let mut art: Art<u64> = Art::new();
        assert!(art.insert(42, 1));
        assert!(!art.insert(42, 2));
        assert_eq!(art.get(42), Some(2));
        assert_eq!(art.len(), 1);
    }

    #[test]
    fn range_scan_is_sorted_and_bounded() {
        let mut art = Art::new();
        let entries: Vec<(u64, u64)> = (0..2_000u64).map(|i| (i * 31, i)).collect();
        art.bulk_load(&entries);
        let mut out = Vec::new();
        let n = art.range(RangeSpec::new(500, 100), &mut out);
        assert_eq!(n, 100);
        assert!(out[0].0 >= 500);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        // Compare against the model.
        let model: BTreeMap<u64, u64> = entries.iter().copied().collect();
        let expected: Vec<(u64, u64)> = model
            .range(500..)
            .take(100)
            .map(|(k, v)| (*k, *v))
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn matches_model_under_random_ops() {
        let mut art = Art::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0xdeadbeef;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 8192;
            match x % 3 {
                0 => assert_eq!(art.insert(key, i), model.insert(key, i).is_none()),
                1 => assert_eq!(art.remove(key), model.remove(&key)),
                _ => assert_eq!(art.get(key), model.get(&key).copied()),
            }
        }
        assert_eq!(art.len(), model.len());
    }

    #[test]
    fn sparse_high_bit_keys_use_path_compression() {
        let mut art = Art::new();
        // Keys differing only in the last byte but with a long shared prefix.
        let base = 0xABCD_EF01_2345_6700u64;
        for i in 0..200u64 {
            art.insert(base + i, i);
        }
        // Another cluster far away.
        for i in 0..200u64 {
            art.insert(i << 56, i + 1000);
        }
        for i in 0..200u64 {
            assert_eq!(art.get(base + i), Some(i));
            assert_eq!(art.get(i << 56), Some(i + 1000));
        }
        assert!(art.memory_usage() > 0);
        assert_eq!(art.meta().name, "ART");
    }

    #[test]
    fn empty_and_stats() {
        let mut art: Art<u64> = Art::new();
        assert!(art.is_empty());
        assert_eq!(art.get(1), None);
        assert_eq!(art.remove(1), None);
        art.insert(1, 1);
        assert_eq!(art.get(1), Some(1));
    }
}
