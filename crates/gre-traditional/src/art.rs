//! Adaptive Radix Tree (ART).
//!
//! A radix tree over the big-endian bytes of the key with the four adaptive
//! node kinds and path compression of Leis et al. (ICDE 2013). ART is the
//! strongest traditional baseline of the study on integer keys ("because of
//! its cache friendliness", Message 2/§4.1).
//!
//! # Layout
//!
//! * A child slot holds either a leaf or an inner node. A leaf is its
//!   `(key, payload)` pair, stored in the slot itself: it has no heap node of
//!   its own, and its full key settles every lookup that reaches it.
//! * An inner node is one header — the compressed path prefix, inline, at
//!   most 7 bytes for 8-byte keys — followed by its child table, indexed by
//!   the key byte after the prefix. Node4 and Node16 share one table of
//!   sorted key bytes (the width is a const generic); Node48 maps each byte
//!   through a 256-entry index into 48 slots; Node256 holds a slot per byte.
//!   A full table grows into the next kind. A Node4 left with one child by a
//!   remove collapses into that child; no other node shrinks.
//! * Lookups and removes skip prefixes by length alone and let the leaf's key
//!   decide. Inserts compare the prefix, since a mismatch splits it.
//!
//! # Range scans
//!
//! A scan seeks: it descends along the start key's bytes, skipping every
//! subtree whose path lies below them, and from the first key at or above
//! the start walks the children of each node in byte order. It stops at
//! `spec.count` entries or at the first key past `spec.end`.

use gre_core::{Index, IndexMeta, Key, Payload, RangeSpec};
use std::cmp::Ordering;
use std::fmt::Debug;

const KEY_BYTES: usize = 8;

/// A child slot: a leaf in place, or a boxed inner node.
#[derive(Debug)]
enum Child<K> {
    Leaf(K, Payload),
    Inner(Box<Inner<K>>),
}

/// The header of an inner node: the key bytes every key below it shares
/// between its parent's byte and its own. A node branches on one of the 8
/// key bytes, so at most 7 precede it.
#[derive(Debug, Clone, Copy)]
struct Prefix {
    bytes: [u8; KEY_BYTES - 1],
    len: u8,
}

impl Prefix {
    /// The concatenation of `parts`.
    fn of(parts: &[&[u8]]) -> Self {
        let mut prefix = Prefix {
            bytes: [0; KEY_BYTES - 1],
            len: 0,
        };
        for part in parts {
            let at = prefix.len as usize;
            prefix.bytes[at..at + part.len()].copy_from_slice(part);
            prefix.len += part.len() as u8;
        }
        prefix
    }

    fn get(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

/// An inner node: the header, then the child table of its kind.
#[derive(Debug)]
struct Node<S: ?Sized> {
    prefix: Prefix,
    slots: S,
}

type Inner<K> = Node<dyn Slots<K>>;

impl<K: Key> Inner<K> {
    /// The children with a byte `>= from`, in byte order.
    fn children(&self, from: u8) -> impl Iterator<Item = (u8, &Child<K>)> {
        let mut next = Some(from);
        std::iter::from_fn(move || {
            let (byte, child) = self.slots.seek(next?)?;
            next = byte.checked_add(1);
            Some((byte, child))
        })
    }
}

/// An inner node's child table, keyed by one key byte.
trait Slots<K>: Debug + Send + Sync {
    /// The most children the table holds.
    fn width(&self) -> usize;
    fn len(&self) -> usize;
    fn get(&self, byte: u8) -> Option<&Child<K>>;
    fn get_mut(&mut self, byte: u8) -> Option<&mut Child<K>>;
    /// Store `child` under `byte`, which is absent; the table is not full.
    fn add(&mut self, byte: u8, child: Child<K>);
    fn remove(&mut self, byte: u8) -> Option<Child<K>>;
    /// An empty node of the next larger kind, with `prefix`.
    fn larger(&self, prefix: Prefix) -> Box<Inner<K>>;

    /// The child with the smallest byte `>= byte`, and that byte. Each kind
    /// scans its own table from `byte`.
    fn seek(&self, byte: u8) -> Option<(u8, &Child<K>)>;
}

/// Node4 and Node16: up to `N` children, their bytes kept sorted.
#[derive(Debug)]
struct Sorted<K, const N: usize> {
    len: u8,
    bytes: [u8; N],
    children: [Option<Child<K>>; N],
}

impl<K, const N: usize> Sorted<K, N> {
    fn new() -> Self {
        Sorted {
            len: 0,
            bytes: [0; N],
            children: std::array::from_fn(|_| None),
        }
    }

    fn position(&self, byte: u8) -> Result<usize, usize> {
        self.bytes[..self.len as usize].binary_search(&byte)
    }
}

impl<K: Key, const N: usize> Slots<K> for Sorted<K, N> {
    fn width(&self) -> usize {
        N
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn get(&self, byte: u8) -> Option<&Child<K>> {
        self.children[self.position(byte).ok()?].as_ref()
    }

    fn get_mut(&mut self, byte: u8) -> Option<&mut Child<K>> {
        let i = self.position(byte).ok()?;
        self.children[i].as_mut()
    }

    fn add(&mut self, byte: u8, child: Child<K>) {
        let (len, Err(i)) = (self.len as usize, self.position(byte)) else {
            unreachable!("byte {byte} is already present");
        };
        self.bytes.copy_within(i..len, i + 1);
        self.children[i..=len].rotate_right(1);
        self.bytes[i] = byte;
        self.children[i] = Some(child);
        self.len += 1;
    }

    fn remove(&mut self, byte: u8) -> Option<Child<K>> {
        let (len, i) = (self.len as usize, self.position(byte).ok()?);
        let child = self.children[i].take();
        self.bytes.copy_within(i + 1..len, i);
        self.children[i..len].rotate_left(1);
        self.len -= 1;
        child
    }

    fn larger(&self, prefix: Prefix) -> Box<Inner<K>> {
        if N == 4 {
            Box::new(Node {
                prefix,
                slots: Sorted::<K, 16>::new(),
            })
        } else {
            Box::new(Node {
                prefix,
                slots: Indexed::new(),
            })
        }
    }

    fn seek(&self, byte: u8) -> Option<(u8, &Child<K>)> {
        let i = self.position(byte).unwrap_or_else(|i| i);
        let byte = *self.bytes[..self.len()].get(i)?;
        Some((byte, self.children[i].as_ref()?))
    }
}

/// Node48: a byte's entry in `index` is one past its child's slot, 0 if
/// the byte has no child.
#[derive(Debug)]
struct Indexed<K> {
    len: u8,
    index: [u8; 256],
    children: [Option<Child<K>>; 48],
}

impl<K> Indexed<K> {
    fn new() -> Self {
        Indexed {
            len: 0,
            index: [0; 256],
            children: std::array::from_fn(|_| None),
        }
    }

    fn slot(&self, byte: u8) -> Option<usize> {
        Some(self.index[byte as usize].checked_sub(1)? as usize)
    }
}

impl<K: Key> Slots<K> for Indexed<K> {
    fn width(&self) -> usize {
        48
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn get(&self, byte: u8) -> Option<&Child<K>> {
        self.children[self.slot(byte)?].as_ref()
    }

    fn get_mut(&mut self, byte: u8) -> Option<&mut Child<K>> {
        let slot = self.slot(byte)?;
        self.children[slot].as_mut()
    }

    fn add(&mut self, byte: u8, child: Child<K>) {
        let slot = self.children.iter().position(Option::is_none);
        let slot = slot.expect("a Node48 that is not full has a free slot");
        self.children[slot] = Some(child);
        self.index[byte as usize] = slot as u8 + 1;
        self.len += 1;
    }

    fn remove(&mut self, byte: u8) -> Option<Child<K>> {
        let slot = self.slot(byte)?;
        self.index[byte as usize] = 0;
        self.len -= 1;
        self.children[slot].take()
    }

    fn larger(&self, prefix: Prefix) -> Box<Inner<K>> {
        Box::new(Node {
            prefix,
            slots: Direct::new(),
        })
    }

    /// Scans `index` from `byte` for the first present byte.
    fn seek(&self, byte: u8) -> Option<(u8, &Child<K>)> {
        let gap = self.index[byte as usize..].iter().position(|&s| s != 0)?;
        let byte = byte + gap as u8;
        Some((byte, self.get(byte)?))
    }
}

/// Node256: one slot per byte.
#[derive(Debug)]
struct Direct<K> {
    len: u16,
    children: [Option<Child<K>>; 256],
}

impl<K> Direct<K> {
    fn new() -> Self {
        Direct {
            len: 0,
            children: std::array::from_fn(|_| None),
        }
    }
}

impl<K: Key> Slots<K> for Direct<K> {
    fn width(&self) -> usize {
        256
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn get(&self, byte: u8) -> Option<&Child<K>> {
        self.children[byte as usize].as_ref()
    }

    fn get_mut(&mut self, byte: u8) -> Option<&mut Child<K>> {
        self.children[byte as usize].as_mut()
    }

    fn add(&mut self, byte: u8, child: Child<K>) {
        self.children[byte as usize] = Some(child);
        self.len += 1;
    }

    fn remove(&mut self, byte: u8) -> Option<Child<K>> {
        let child = self.children[byte as usize].take()?;
        self.len -= 1;
        Some(child)
    }

    fn larger(&self, _prefix: Prefix) -> Box<Inner<K>> {
        unreachable!("a Node256 is never full: an absent byte has a free slot")
    }

    /// Scans `children` from `byte` for the first present child.
    fn seek(&self, byte: u8) -> Option<(u8, &Child<K>)> {
        let from = byte as usize;
        let (gap, child) = self.children[from..]
            .iter()
            .enumerate()
            .find_map(|(gap, child)| Some((gap, child.as_ref()?)))?;
        Some((byte + gap as u8, child))
    }
}

/// Length of the common prefix of `a` and `b`.
fn common_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The Adaptive Radix Tree.
#[derive(Debug)]
pub struct Art<K> {
    root: Option<Child<K>>,
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

    /// Insert below `slot`, reached by `bytes[..depth]`; false if `key` was
    /// there and its payload is overwritten.
    fn insert_at(
        slot: &mut Child<K>,
        key: K,
        bytes: &[u8; KEY_BYTES],
        value: Payload,
        depth: usize,
    ) -> bool {
        // Where the slot's path first leaves the key's bytes, and the
        // slot's own byte there.
        let (split, old_byte) = match slot {
            Child::Leaf(k, v) if *k == key => {
                *v = value;
                return false;
            }
            Child::Leaf(k, _) => {
                let old = k.to_radix_bytes();
                let split = depth + common_len(&old[depth..], &bytes[depth..]);
                (split, old[split])
            }
            Child::Inner(node) => {
                let prefix = node.prefix;
                let matched = common_len(prefix.get(), &bytes[depth..]);
                if matched < prefix.get().len() {
                    node.prefix = Prefix::of(&[&prefix.get()[matched + 1..]]);
                    (depth + matched, prefix.get()[matched])
                } else {
                    let depth = depth + matched;
                    if let Some(child) = node.slots.get_mut(bytes[depth]) {
                        return Self::insert_at(child, key, bytes, value, depth + 1);
                    }
                    if node.slots.len() == node.slots.width() {
                        let mut larger = node.slots.larger(node.prefix);
                        let mut from = Some(0);
                        while let Some((byte, _)) = from.and_then(|b| node.slots.seek(b)) {
                            let child = node.slots.remove(byte).expect("seek found it");
                            larger.slots.add(byte, child);
                            from = byte.checked_add(1);
                        }
                        *node = larger;
                    }
                    node.slots.add(bytes[depth], Child::Leaf(key, value));
                    return true;
                }
            }
        };
        // A Node4 takes the slot's place, over the old child and the new
        // leaf (which stands in the slot while the old child moves).
        let mut node4 = Sorted::<K, 4>::new();
        node4.add(old_byte, std::mem::replace(slot, Child::Leaf(key, value)));
        node4.add(bytes[split], Child::Leaf(key, value));
        let prefix = Prefix::of(&[&bytes[depth..split]]);
        *slot = Child::Inner(Box::new(Node {
            prefix,
            slots: node4,
        }));
        true
    }

    /// Remove `key` from below the inner node in `slot`, reached by
    /// `bytes[..depth]`.
    fn remove_at(
        slot: &mut Child<K>,
        key: K,
        bytes: &[u8; KEY_BYTES],
        depth: usize,
    ) -> Option<Payload> {
        let Child::Inner(node) = slot else {
            unreachable!("a leaf slot is removed by its parent");
        };
        let depth = depth + node.prefix.get().len();
        let byte = bytes[depth];
        let removed = match node.slots.get_mut(byte)? {
            Child::Leaf(k, v) if *k == key => {
                let v = *v;
                node.slots.remove(byte);
                v
            }
            Child::Leaf(..) => return None,
            child => return Self::remove_at(child, key, bytes, depth + 1),
        };
        if node.slots.width() == 4 && node.slots.len() == 1 {
            let (only_byte, _) = node.slots.seek(0).expect("one child left");
            let mut only = node.slots.remove(only_byte).expect("present");
            if let Child::Inner(child) = &mut only {
                child.prefix = Prefix::of(&[node.prefix.get(), &[only_byte], child.prefix.get()]);
            }
            *slot = only;
        }
        Some(removed)
    }

    fn memory(child: &Child<K>) -> usize {
        match child {
            Child::Leaf(..) => 0,
            Child::Inner(node) => {
                let below: usize = node.children(0).map(|(_, c)| Self::memory(c)).sum();
                std::mem::size_of_val(&**node) + below
            }
        }
    }
}

/// One range scan in progress.
struct Scan<'a, K> {
    spec: RangeSpec<K>,
    start: [u8; KEY_BYTES],
    /// `out.len()` at which the scan has its `spec.count` entries.
    want: usize,
    out: &'a mut Vec<(K, Payload)>,
}

impl<K: Key> Scan<'_, K> {
    /// Append the entries below `child`, whose path spells `depth` key
    /// bytes, in key order. `seek` says that path is `start[..depth]`, so
    /// only the subtree's first keys may lie below the start. Returns false
    /// once the scan is complete.
    fn walk(&mut self, child: &Child<K>, depth: usize, mut seek: bool) -> bool {
        let node = match child {
            Child::Leaf(k, _) if *k < self.spec.start => return true,
            Child::Leaf(k, _) if self.spec.end.is_some_and(|end| *k > end) => return false,
            Child::Leaf(k, v) => {
                self.out.push((*k, *v));
                return self.out.len() < self.want;
            }
            Child::Inner(node) => node,
        };
        let prefix = node.prefix.get();
        if seek {
            match prefix.cmp(&self.start[depth..depth + prefix.len()]) {
                Ordering::Less => return true,
                Ordering::Greater => seek = false,
                Ordering::Equal => {}
            }
        }
        let depth = depth + prefix.len();
        let from = if seek { self.start[depth] } else { 0 };
        node.children(from)
            .all(|(byte, child)| self.walk(child, depth + 1, seek && byte == self.start[depth]))
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
        let bytes = key.to_radix_bytes();
        let mut child = self.root.as_ref()?;
        let mut depth = 0;
        loop {
            match child {
                Child::Leaf(k, v) => return (*k == key).then_some(*v),
                Child::Inner(node) => {
                    depth += node.prefix.get().len();
                    child = node.slots.get(bytes[depth])?;
                    depth += 1;
                }
            }
        }
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let inserted = match &mut self.root {
            None => {
                self.root = Some(Child::Leaf(key, value));
                true
            }
            Some(root) => Self::insert_at(root, key, &key.to_radix_bytes(), value, 0),
        };
        self.len += inserted as usize;
        inserted
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let removed = match self.root.as_mut()? {
            Child::Leaf(k, v) if *k == key => {
                let v = *v;
                self.root = None;
                v
            }
            Child::Leaf(..) => return None,
            root => Self::remove_at(root, key, &key.to_radix_bytes(), 0)?,
        };
        self.len -= 1;
        Some(removed)
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        if let (Some(root), true) = (&self.root, spec.count > 0) {
            let mut scan = Scan {
                spec,
                start: spec.start.to_radix_bytes(),
                want: before.saturating_add(spec.count),
                out,
            };
            scan.walk(root, 0, true);
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>() + self.root.as_ref().map_or(0, Self::memory)
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

    /// `range(spec)` through ART and through a `BTreeMap` model, which must agree.
    fn assert_scan_matches(art: &Art<u64>, model: &BTreeMap<u64, u64>, spec: RangeSpec<u64>) {
        let mut out = Vec::new();
        let n = art.range(spec, &mut out);
        let expected: Vec<(u64, u64)> = model
            .range(spec.start..=spec.end.unwrap_or(u64::MAX))
            .take(spec.count)
            .map(|(k, v)| (*k, *v))
            .collect();
        assert_eq!(out, expected, "{spec:?}");
        assert_eq!(n, expected.len());
    }

    /// Every scan worth asking of `keys`: from each key, one below and one
    /// above it, and from the extremes, count-limited and bounded.
    fn assert_scans_match(art: &Art<u64>, model: &BTreeMap<u64, u64>) {
        let mut starts = vec![0, 1, u64::MAX - 1, u64::MAX];
        for &k in model.keys() {
            starts.extend([k.wrapping_sub(1), k, k.wrapping_add(1)]);
        }
        for start in starts {
            for count in [0, 1, 3, usize::MAX] {
                assert_scan_matches(art, model, RangeSpec::new(start, count));
                let end = start.saturating_add(1 << 20);
                assert_scan_matches(art, model, RangeSpec::bounded(start, end, count));
            }
        }
    }

    fn load(keys: &[u64]) -> (Art<u64>, BTreeMap<u64, u64>) {
        let mut art = Art::new();
        let mut model = BTreeMap::new();
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(art.insert(k, i as u64), model.insert(k, i as u64).is_none());
        }
        (art, model)
    }

    #[test]
    fn bounded_range_scan_copies_nothing_past_the_end_key() {
        let entries: Vec<(u64, u64)> = (0..100_000u64).map(|i| (i * 10, i)).collect();
        let mut art = Art::new();
        art.bulk_load(&entries);
        let mut out = Vec::new();
        assert_eq!(
            art.range(RangeSpec::bounded(100, 140, usize::MAX), &mut out),
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
        let (mut art, mut model) = load(&[u64::MAX, 0, 1 << 63, (1 << 63) - 1]);
        assert_eq!(art.get(0), Some(1));
        assert_eq!(art.get(u64::MAX), Some(0));
        assert_scans_match(&art, &model);
        assert_eq!(art.remove(u64::MAX), model.remove(&u64::MAX));
        assert_eq!(art.remove(0), model.remove(&0));
        assert_eq!((art.get(0), art.get(u64::MAX)), (None, None));
        assert_scans_match(&art, &model);
        assert_eq!(art.len(), 2);
    }

    #[test]
    fn keys_that_differ_only_in_the_first_or_the_last_byte() {
        let base = 0x0012_3456_789A_BC00u64;
        let first: Vec<u64> = (0..=255u64).map(|b| (b << 56) | 0x00AB_CDEF).collect();
        let last: Vec<u64> = (0..=255u64).map(|b| base | b).collect();
        for keys in [first, last] {
            let (art, model) = load(&keys);
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(art.get(k), Some(i as u64));
                assert_eq!(art.get(k ^ (1 << 20)), None);
            }
            assert_scans_match(&art, &model);
        }
    }

    #[test]
    fn scans_start_below_between_and_above_keys_at_every_level() {
        // Keys that branch at each of the eight byte depths, so scans start
        // between two keys of a Node4 at every level and in every prefix.
        let mut keys = Vec::new();
        for depth in 0..8u32 {
            let shift = 8 * (7 - depth);
            let stem = 0x4142_4344_4546_4748u64 & !(u64::MAX >> (8 * depth));
            for b in [0x10u64, 0x20, 0x21, 0xF0] {
                keys.push(stem | (b << shift));
            }
        }
        let (art, model) = load(&keys);
        assert_scans_match(&art, &model);
    }

    #[test]
    fn scans_after_removes_collapse_node4s() {
        // Under each stem, two Node4s at byte 7 hang off a Node4 at byte 6;
        // random keys add Node4s of leaf pairs at every depth.
        let mut keys: Vec<u64> = (0..400u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 40))
            .collect();
        for stem in 1..40u64 {
            keys.extend([0x100, 0x101, 0x200, 0x201].map(|low| (stem << 40) | low));
        }
        let (mut art, mut model) = load(&keys);
        // The first removes collapse the byte-7 Node4s into leaves, the last
        // ones the byte-6 Node4s into their surviving child, whose prefix
        // takes in the collapsed node's prefix and byte.
        let collapsing = (1..40u64).flat_map(|stem| [0x200, 0x201].map(|low| (stem << 40) | low));
        for k in keys.iter().copied().step_by(3).chain(collapsing) {
            assert_eq!(art.remove(k), model.remove(&k));
        }
        assert_eq!(art.len(), model.len());
        for &k in &keys {
            assert_eq!(art.get(k), model.get(&k).copied());
        }
        assert_scans_match(&art, &model);
    }

    #[test]
    fn dense_keys_cost_at_most_two_pairs_per_key() {
        let mut art = Art::new();
        for k in 0..65_536u64 {
            art.insert(k, k);
        }
        let per_key = art.memory_usage() / art.len();
        assert!(
            per_key <= 2 * std::mem::size_of::<(u64, Payload)>(),
            "{per_key} B/key"
        );
    }
}
