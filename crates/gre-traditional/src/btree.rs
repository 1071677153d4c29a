//! STX-style in-memory B+-tree.
//!
//! The layout follows the STX B+-tree (Bingmann's `stx::btree`, the C++
//! template behind the paper's B+tree baseline and its B+TreeOLC): nodes
//! of fixed capacity whose arrays live inline in the node, and leaves
//! chained by side-links for range scans (the paper adds side-links to
//! B+TreeOLC; we build them in from the start).
//!
//! # Layout
//!
//! * Two arenas, one of leaves and a `Vec<Inner>`, addressed by `u32` ids.
//!   The leaves sit in fixed-size chunks that never move (see `Arena`).
//!   The tree's `height` says how many inner levels a descent crosses before
//!   it reaches a leaf, so no node carries a type tag.
//! * A leaf is `{ len, next, entries: [(K, Payload); N] }`. A key sits
//!   beside its payload, so a hit's payload is on a line the search already
//!   fetched. `next` is the side-link.
//! * An inner node is `{ len, keys: [K; N], children: [u32; N] }`: `len`
//!   separators and `len + 1` children, so at most `N` children.
//!
//! `N` is a const parameter: 64 for the B+tree, 15 (`MASSTREE_FANOUT`) for
//! Masstree's layer. Leaves are never freed; a remove only shifts its leaf.
//!
//! # Why a node is fetched whole
//!
//! A binary search over a node's keys makes one load per probe, and each
//! probe's address depends on the last comparison. When the node is not in
//! cache every probe is a miss that waits for the one before it. On the
//! 2-core VM the benchmarks run on, a pointer-chase probe measured a
//! dependent random load at 208 ns over a 64 MB working set, against 22 ns a
//! load when the loads are independent. So before searching a node, the
//! descent prefetches every cache line of the node's used part
//! ([`gre_core::prefetch_slice`]); the misses overlap, and the std binary
//! search that follows runs over lines already on their way. Inline arrays
//! without the prefetch gained only 12–30 % on `write_hard` inserts; a
//! branch-free count over all of a node's keys gained more on misses but
//! cost 12 % on cache-resident lookups (`read_fit`).

use gre_core::{prefetch_slice, Index, IndexMeta, Key, Payload, RangeSpec};

const NO_NODE: u32 = u32::MAX;

/// A leaf: `len` sorted entries and the id of its right sibling.
#[derive(Debug)]
#[repr(C)] // `len` shares the first line with the first entries.
struct Leaf<K, const N: usize> {
    len: u32,
    next: u32,
    entries: [(K, Payload); N],
}

impl<K: Key, const N: usize> Leaf<K, N> {
    fn empty() -> Self {
        Leaf {
            len: 0,
            next: NO_NODE,
            entries: [(K::MIN, 0); N],
        }
    }

    #[inline]
    fn used(&self) -> &[(K, Payload)] {
        &self.entries[..self.len as usize]
    }

    /// Fetch the used lines at once, then binary search them.
    #[inline]
    fn search(&self, key: K) -> Result<usize, usize> {
        let used = self.used();
        prefetch_slice(used);
        used.binary_search_by_key(&key, |e| e.0)
    }

    fn insert_at(&mut self, i: usize, entry: (K, Payload)) {
        let len = self.len as usize;
        self.entries.copy_within(i..len, i + 1);
        self.entries[i] = entry;
        self.len += 1;
    }
}

/// An inner node: `len` separators and `len + 1` children. Child `i` holds
/// the keys in `[keys[i - 1], keys[i])`.
#[derive(Debug)]
#[repr(C)] // `len` shares the first line with the first keys.
struct Inner<K, const N: usize> {
    len: u32,
    keys: [K; N],
    children: [u32; N],
}

impl<K: Key, const N: usize> Inner<K, N> {
    fn empty() -> Self {
        Inner {
            len: 0,
            keys: [K::MIN; N],
            children: [NO_NODE; N],
        }
    }

    /// Fetch the used lines at once, then find the child slot for `key`.
    #[inline]
    fn slot(&self, key: K) -> usize {
        let keys = &self.keys[..self.len as usize];
        prefetch_slice(keys);
        prefetch_slice(&self.children[..=keys.len()]);
        keys.partition_point(|k| *k <= key)
    }

    /// Put `separator` at `slot` and `right` just after child `slot`.
    fn insert_at(&mut self, slot: usize, separator: K, right: u32) {
        let len = self.len as usize;
        self.keys.copy_within(slot..len, slot + 1);
        self.keys[slot] = separator;
        self.children.copy_within(slot + 1..=len, slot + 2);
        self.children[slot + 1] = right;
        self.len += 1;
    }
}

/// Nodes addressed by `u32` ids, stored in fixed-size chunks that never
/// move once allocated. The tree keeps its leaves in one.
///
/// A single growing `Vec` would copy every leaf and fault in twice its bytes
/// each time it doubled. Behind the 64-partition adapter all partitions grow
/// at the same pace, so their doublings land together and show as repeated
/// throughput dips whose depth follows the machine's page-fault and copy
/// costs. A chunk is allocated empty, at its full capacity, and only ever
/// appended to. Inner nodes stay in a plain `Vec`: there are about a
/// fanout's worth fewer of them, so their doublings copy a few kilobytes,
/// and a descent crosses them without the chunk lookup.
#[derive(Debug)]
struct Arena<T> {
    chunks: Vec<Vec<T>>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Arena { chunks: Vec::new() }
    }
}

impl<T> Arena<T> {
    /// Nodes per chunk; a power of two, so an id splits with a shift.
    const CHUNK_BITS: u32 = 6;
    const CHUNK: usize = 1 << Self::CHUNK_BITS;

    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * Self::CHUNK + last.len())
    }

    /// Append `node` and return its id.
    fn push(&mut self, node: T) -> u32 {
        let id = self.len() as u32;
        match self.chunks.last_mut() {
            Some(last) if last.len() < Self::CHUNK => last.push(node),
            _ => {
                let mut chunk = Vec::with_capacity(Self::CHUNK);
                chunk.push(node);
                self.chunks.push(chunk);
            }
        }
        id
    }
}

impl<T> std::ops::Index<u32> for Arena<T> {
    type Output = T;

    #[inline]
    fn index(&self, id: u32) -> &T {
        &self.chunks[(id >> Self::CHUNK_BITS) as usize][id as usize & (Self::CHUNK - 1)]
    }
}

impl<T> std::ops::IndexMut<u32> for Arena<T> {
    #[inline]
    fn index_mut(&mut self, id: u32) -> &mut T {
        &mut self.chunks[(id >> Self::CHUNK_BITS) as usize][id as usize & (Self::CHUNK - 1)]
    }
}

/// What an insert below a node leaves for that node to do.
enum Grown<K> {
    /// The key was present; its payload was overwritten.
    Replaced,
    /// A new key went in and no node split.
    Added,
    /// A new key went in and the child split: the node must take
    /// `(separator, right sibling id)`.
    Split(K, u32),
}

/// An STX-style B+-tree with `N`-slot inline nodes.
#[derive(Debug)]
pub struct BPlusTree<K, const N: usize = 64> {
    leaves: Arena<Leaf<K, N>>,
    inners: Vec<Inner<K, N>>,
    /// A leaf id when `height == 1`, an inner id otherwise.
    root: u32,
    len: usize,
    height: usize,
}

impl<K: Key, const N: usize> Default for BPlusTree<K, N> {
    fn default() -> Self {
        const { assert!(N >= 3, "a node needs at least 3 slots to split") };
        let mut leaves = Arena::default();
        leaves.push(Leaf::empty());
        BPlusTree {
            leaves,
            inners: Vec::new(),
            root: 0,
            len: 0,
            height: 1,
        }
    }
}

impl<K: Key> BPlusTree<K> {
    /// Create an empty tree with the default 64-slot nodes.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<K: Key, const N: usize> BPlusTree<K, N> {
    /// Descend to the id of the leaf that should hold `key`.
    #[inline]
    fn find_leaf(&self, key: K) -> u32 {
        let mut id = self.root;
        for _ in 1..self.height {
            let inner = &self.inners[id as usize];
            id = inner.children[inner.slot(key)];
        }
        id
    }

    /// Insert below node `id`, which sits `depth` levels above the leaves.
    /// The recursion is the descent's path, so no path is allocated.
    fn insert_below(&mut self, id: u32, depth: usize, key: K, value: Payload) -> Grown<K> {
        if depth == 0 {
            return self.insert_into_leaf(id, key, value);
        }
        let inner = &self.inners[id as usize];
        let slot = inner.slot(key);
        let child = inner.children[slot];
        match self.insert_below(child, depth - 1, key, value) {
            Grown::Split(separator, right) => self.insert_into_inner(id, slot, separator, right),
            done => done,
        }
    }

    fn insert_into_leaf(&mut self, id: u32, key: K, value: Payload) -> Grown<K> {
        let leaf = &mut self.leaves[id];
        let i = match leaf.search(key) {
            Ok(i) => {
                leaf.entries[i].1 = value;
                return Grown::Replaced;
            }
            Err(i) => i,
        };
        if (leaf.len as usize) < N {
            leaf.insert_at(i, (key, value));
            return Grown::Added;
        }
        // Full: the upper half moves to a new leaf, then the key goes into
        // the half it belongs to.
        let mid = N / 2;
        let mut right = Leaf::empty();
        right.entries[..N - mid].copy_from_slice(&leaf.entries[mid..]);
        right.len = (N - mid) as u32;
        right.next = leaf.next;
        leaf.len = mid as u32;
        if i <= mid {
            leaf.insert_at(i, (key, value));
        } else {
            right.insert_at(i - mid, (key, value));
        }
        let separator = right.entries[0].0;
        let right_id = self.leaves.push(right);
        self.leaves[id].next = right_id;
        Grown::Split(separator, right_id)
    }

    /// Put `(separator, right)` into inner node `id` after child `slot`,
    /// splitting the node when it already has `N` children.
    fn insert_into_inner(&mut self, id: u32, slot: usize, separator: K, right: u32) -> Grown<K> {
        let new_id = self.inners.len() as u32;
        let node = &mut self.inners[id as usize];
        let len = node.len as usize;
        if len + 1 < N {
            node.insert_at(slot, separator, right);
            return Grown::Added;
        }
        // Full: keys[..mid] stay, keys[mid] moves up, keys[mid + 1..] and
        // their children move to a new node.
        let mid = len / 2;
        let moved = len - mid - 1;
        let mut sibling = Inner::empty();
        sibling.keys[..moved].copy_from_slice(&node.keys[mid + 1..len]);
        sibling.children[..=moved].copy_from_slice(&node.children[mid + 1..=len]);
        sibling.len = moved as u32;
        let up = node.keys[mid];
        node.len = mid as u32;
        if slot <= mid {
            node.insert_at(slot, separator, right);
        } else {
            sibling.insert_at(slot - mid - 1, separator, right);
        }
        self.inners.push(sibling);
        Grown::Split(up, new_id)
    }
}

impl<K: Key, const N: usize> Index<K> for BPlusTree<K, N> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        // Rebuild from scratch: pack leaves to ~90% fill, then build the
        // inner levels bottom-up (the standard bulk-loading strategy of STX).
        *self = Self::default();
        if entries.is_empty() {
            return;
        }
        self.len = entries.len();
        self.leaves = Arena::default();
        let fill = (N * 9 / 10).max(1);
        let leaf_count = entries.len().div_ceil(fill);
        let mut level: Vec<(K, u32)> = Vec::with_capacity(leaf_count);
        for (i, chunk) in entries.chunks(fill).enumerate() {
            let mut leaf = Leaf::empty();
            leaf.entries[..chunk.len()].copy_from_slice(chunk);
            leaf.len = chunk.len() as u32;
            if i + 1 < leaf_count {
                leaf.next = i as u32 + 1;
            }
            self.leaves.push(leaf);
            level.push((chunk[0].0, i as u32));
        }
        // Build inner levels until a single root remains.
        let fanout = (N * 9 / 10).max(2);
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len().div_ceil(fanout));
            for group in level.chunks(fanout) {
                let mut node = Inner::empty();
                for (j, &(first_key, child)) in group.iter().enumerate() {
                    if j > 0 {
                        node.keys[j - 1] = first_key;
                    }
                    node.children[j] = child;
                }
                node.len = (group.len() - 1) as u32;
                next_level.push((group[0].0, self.inners.len() as u32));
                self.inners.push(node);
            }
            level = next_level;
            self.height += 1;
        }
        self.root = level[0].1;
    }

    fn get(&self, key: K) -> Option<Payload> {
        let leaf = &self.leaves[self.find_leaf(key)];
        leaf.search(key).ok().map(|i| leaf.entries[i].1)
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        match self.insert_below(self.root, self.height - 1, key, value) {
            Grown::Replaced => return false,
            Grown::Added => {}
            Grown::Split(separator, right) => {
                // Root split: a new root over the old root and its sibling.
                let mut root = Inner::empty();
                root.keys[0] = separator;
                root.children[..2].copy_from_slice(&[self.root, right]);
                root.len = 1;
                self.root = self.inners.len() as u32;
                self.inners.push(root);
                self.height += 1;
            }
        }
        self.len += 1;
        true
    }

    /// In place: one descent and one leaf search, no path recorded.
    fn update(&mut self, key: K, value: Payload) -> bool {
        let id = self.find_leaf(key);
        let leaf = &mut self.leaves[id];
        match leaf.search(key) {
            Ok(i) => {
                leaf.entries[i].1 = value;
                true
            }
            Err(_) => false,
        }
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let id = self.find_leaf(key);
        let leaf = &mut self.leaves[id];
        let i = leaf.search(key).ok()?;
        let value = leaf.entries[i].1;
        leaf.entries.copy_within(i + 1..leaf.len as usize, i);
        leaf.len -= 1;
        self.len -= 1;
        Some(value)
    }

    /// Walks the side-links from `spec.start`'s leaf and stops at
    /// `spec.count` entries or at the first key past `spec.end`, whichever
    /// comes first, so a bounded scan copies nothing beyond its window.
    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let end = spec.end.unwrap_or(K::MAX);
        let mut id = self.find_leaf(spec.start);
        let mut from = self.leaves[id].used().partition_point(|e| e.0 < spec.start);
        let mut remaining = spec.count;
        while id != NO_NODE && remaining > 0 {
            let leaf = &self.leaves[id];
            let used = &leaf.used()[from..];
            let window = &used[..used.len().min(remaining)];
            let within = window.partition_point(|e| e.0 <= end);
            out.extend_from_slice(&window[..within]);
            remaining -= within;
            if within < window.len() {
                break;
            }
            from = 0;
            id = leaf.next;
        }
        spec.count - remaining
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The nodes in use. STX allocates each node on its own, so the arenas'
    /// spare capacity (the last leaf chunk's free slots, and up to 2× of
    /// the inner `Vec` while it grows) is left out, as ALEX leaves out its
    /// node vector's.
    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.leaves.len() * std::mem::size_of::<Leaf<K, N>>()
            + self.inners.len() * std::mem::size_of::<Inner<K, N>>()
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
    fn arena_ids_cross_chunk_boundaries() {
        let mut arena = Arena::default();
        let total = 3 * Arena::<u64>::CHUNK + 5;
        for i in 0..total as u64 {
            assert_eq!(arena.len(), i as usize);
            assert_eq!(arena.push(i * 3), i as u32);
        }
        assert_eq!(arena.len(), total);
        assert_eq!(arena.chunks.len(), 4);
        assert!(arena
            .chunks
            .iter()
            .all(|c| c.capacity() >= Arena::<u64>::CHUNK));
        arena[Arena::<u64>::CHUNK as u32] = 7;
        for i in 0..total as u32 {
            let expected = if i as usize == Arena::<u64>::CHUNK {
                7
            } else {
                u64::from(i) * 3
            };
            assert_eq!(arena[i], expected);
        }
    }

    #[test]
    fn bulk_load_and_lookup() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(10_000));
        assert_eq!(t.len(), 10_000);
        assert!(t.height > 1);
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

    #[test]
    fn bounded_range_scan_copies_nothing_past_the_end_key() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(100_000));
        let mut out = Vec::new();
        assert_eq!(
            t.range(RangeSpec::bounded(100, 140, usize::MAX), &mut out),
            5
        );
        assert_eq!(out.first().unwrap().0, 100);
        assert_eq!(out.last().unwrap().0, 140);
        // The walk stops at the first key past the end: `out` never held
        // the tail of the tree.
        assert!(out.capacity() <= 64, "capacity {}", out.capacity());
    }

    #[test]
    fn extreme_keys_zero_and_max() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(1_000));
        assert_eq!(t.get(0), Some(0));
        assert_eq!(t.get(u64::MAX), None);
        assert!(t.insert(u64::MAX, 7));
        assert!(!t.insert(0, 9));
        assert_eq!(t.get(u64::MAX), Some(7));
        assert_eq!(t.get(0), Some(9));
        let mut out = Vec::new();
        assert_eq!(t.range(RangeSpec::new(u64::MAX, 10), &mut out), 1);
        assert_eq!(out, vec![(u64::MAX, 7)]);
        out.clear();
        assert_eq!(t.range(RangeSpec::bounded(0, 0, 10), &mut out), 1);
        assert_eq!(out, vec![(0, 9)]);
        assert_eq!(t.remove(u64::MAX), Some(7));
        assert_eq!(t.remove(0), Some(9));
        assert_eq!(t.get(0), None);
        assert_eq!(t.len(), 999);
    }

    #[test]
    fn scans_cross_a_leaf_emptied_by_removes() {
        let mut t = BPlusTree::new();
        t.bulk_load(&entries(1_000));
        // Bulk-loaded leaves hold 57 entries each; empty the second leaf.
        for i in 57..114u64 {
            assert_eq!(t.remove(i * 10), Some(i));
        }
        assert_eq!(t.len(), 1_000 - 57);
        for i in 57..114u64 {
            assert_eq!(t.get(i * 10), None);
        }
        let mut out = Vec::new();
        assert_eq!(t.range(RangeSpec::new(500, 10), &mut out), 10);
        let keys: Vec<u64> = out.iter().map(|e| e.0).collect();
        assert_eq!(
            keys,
            vec![500, 510, 520, 530, 540, 550, 560, 1140, 1150, 1160]
        );
        out.clear();
        assert_eq!(t.range(RangeSpec::new(600, 1), &mut out), 1);
        assert_eq!(out[0].0, 1140);
        out.clear();
        assert_eq!(t.range(RangeSpec::bounded(600, 1130, 10), &mut out), 0);
        // The emptied leaf takes inserts again.
        assert!(t.insert(605, 1));
        assert_eq!(t.get(605), Some(1));
    }

    #[test]
    fn four_slot_nodes_cascade_splits_through_inner_levels() {
        let mut t: BPlusTree<u64, 4> = BPlusTree::default();
        let mut model = BTreeMap::new();
        let mut x: u64 = 0x9e37_79b9;
        for i in 0..3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            assert_eq!(
                t.insert(x % 100_000, i),
                model.insert(x % 100_000, i).is_none()
            );
        }
        assert!(t.height >= 6, "height {}", t.height);
        for (&k, &v) in &model {
            assert_eq!(t.get(k), Some(v));
        }
        let mut out = Vec::new();
        t.range(RangeSpec::new(0, usize::MAX), &mut out);
        let expected: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(out, expected);
    }
}
