//! The group index XIndex and FINEdex share.
//!
//! Both cut the bulk-loaded keys into groups, each a sorted main array
//! addressed by one error-bounded [`LinearModel`], and differ only in where
//! an insert that misses the main array waits until its group is retrained,
//! and in how a removed record is marked. [`GroupIndex`] is everything but
//! that choice; a [`Delta`] is the choice. Routing is a binary search over
//! the groups' first keys, and the group count is fixed at `bulk_load`:
//! groups never split, a full delta retrains its own group.

use gre_core::{Index, IndexMeta, Key, Partitionable, Payload, RangeSpec};
use gre_pla::LinearModel;

/// A group's sorted main array and the model that addresses it.
#[derive(Debug)]
pub struct Main<K> {
    model: LinearModel,
    pub keys: Vec<K>,
    pub values: Vec<Payload>,
}

impl<K: Key> Main<K> {
    fn build(entries: &[(K, Payload)]) -> Self {
        let keys: Vec<K> = entries.iter().map(|e| e.0).collect();
        Main {
            model: LinearModel::fit_keys(&keys),
            keys,
            values: entries.iter().map(|e| e.1).collect(),
        }
    }

    /// `Ok(pos)` of `key` in the main array, or `Err(pos)` where it would go.
    fn find(&self, key: K, error_bound: usize) -> Result<usize, usize> {
        let pos = self.model.lower_bound(&self.keys, key, error_bound);
        if self.keys.get(pos) == Some(&key) {
            Ok(pos)
        } else {
            Err(pos)
        }
    }
}

/// Where the inserts that miss a group's main array wait, and how removed
/// main-array records are marked, until the group is retrained. Every `pos`
/// is the key's position in the main array: its record for `is_dead` and
/// `set_dead`, the place it would go for the others.
pub trait Delta<K: Key>: Sized + Send + Sync {
    type Config: Copy + Default + Send + Sync;
    /// The index's name, alone and behind `Partitioned`.
    const NAME: &'static str;

    fn error_bound(config: &Self::Config) -> usize;
    fn group_size(config: &Self::Config) -> usize;

    /// An empty delta beside a main array of `len` records.
    fn new(len: usize) -> Self;
    fn is_dead(&self, pos: usize, key: K) -> bool;
    /// Marks the record removed or live; returns whether it was removed.
    fn set_dead(&mut self, pos: usize, key: K, dead: bool) -> bool;
    fn get(&self, pos: usize, key: K) -> Option<Payload>;
    /// Returns whether the key is new.
    fn insert(&mut self, pos: usize, key: K, value: Payload) -> bool;
    /// Whether the insert just made at `pos` calls for a retrain.
    fn full(&self, pos: usize, config: &Self::Config) -> bool;
    /// Writes a waiting key; returns whether it was there.
    fn update(&mut self, pos: usize, key: K, value: Payload) -> bool;
    fn remove(&mut self, pos: usize, key: K) -> Option<Payload>;
    /// Pushes up to `spec.count` of the group's live entries with keys
    /// `>= spec.start`, in key order; `from` is the lower bound of
    /// `spec.start` in the main array.
    fn scan(&self, main: &Main<K>, from: usize, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>);
    fn live_count(&self, main_len: usize) -> usize;
    fn heap_bytes(&self) -> usize;
}

#[derive(Debug)]
struct Group<K, D> {
    main: Main<K>,
    delta: D,
}

impl<K: Key, D: Delta<K>> Group<K, D> {
    fn build(entries: &[(K, Payload)]) -> Self {
        Group {
            main: Main::build(entries),
            delta: D::new(entries.len()),
        }
    }

    /// Folds the delta and the removals into a fresh main array and refits
    /// its model (XIndex's compaction, FINEdex's flattening).
    fn retrain(&mut self) {
        let mut live = Vec::with_capacity(self.live_count());
        let all = RangeSpec::new(K::MIN, usize::MAX);
        self.delta.scan(&self.main, 0, all, &mut live);
        *self = Group::build(&live);
    }

    fn live_count(&self) -> usize {
        self.delta.live_count(self.main.keys.len())
    }

    fn memory(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.main.keys.capacity() * std::mem::size_of::<K>()
            + self.main.values.capacity() * std::mem::size_of::<Payload>()
            + self.delta.heap_bytes()
    }
}

/// Routed groups of main arrays, each with a delta of policy `D`.
pub struct GroupIndex<K: Key, D: Delta<K>> {
    config: D::Config,
    /// First key of each group; the first is `K::MIN`.
    boundaries: Vec<K>,
    groups: Vec<Group<K, D>>,
}

impl<K: Key, D: Delta<K>> Default for GroupIndex<K, D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key, D: Delta<K>> GroupIndex<K, D> {
    pub fn new() -> Self {
        Self::with_config(D::Config::default())
    }

    pub fn with_config(config: D::Config) -> Self {
        GroupIndex {
            config,
            boundaries: vec![K::MIN],
            groups: vec![Group::build(&[])],
        }
    }

    fn locate(&self, key: K) -> usize {
        self.boundaries.partition_point(|b| *b <= key) - 1
    }

    /// The group `key` routes to, and where `key` is in its main array.
    fn find(&self, key: K) -> (usize, Result<usize, usize>) {
        let idx = self.locate(key);
        let at = self.groups[idx]
            .main
            .find(key, D::error_bound(&self.config));
        (idx, at)
    }
}

impl<K: Key, D: Delta<K>> Index<K> for GroupIndex<K, D> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        let group_size = D::group_size(&self.config).max(64);
        self.groups = entries.chunks(group_size).map(Group::build).collect();
        if self.groups.is_empty() {
            self.groups.push(Group::build(&[]));
        }
        self.boundaries = std::iter::once(K::MIN)
            .chain(entries.chunks(group_size).skip(1).map(|c| c[0].0))
            .collect();
    }

    fn get(&self, key: K) -> Option<Payload> {
        let (idx, at) = self.find(key);
        let group = &self.groups[idx];
        match at {
            Ok(pos) => (!group.delta.is_dead(pos, key)).then(|| group.main.values[pos]),
            Err(pos) => group.delta.get(pos, key),
        }
    }

    /// A key in the main array is written in place; a new key waits in the
    /// delta.
    fn insert(&mut self, key: K, value: Payload) -> bool {
        let (idx, at) = self.find(key);
        let group = &mut self.groups[idx];
        match at {
            Ok(pos) => {
                group.main.values[pos] = value;
                group.delta.set_dead(pos, key, false)
            }
            Err(pos) => {
                let new = group.delta.insert(pos, key, value);
                if new && group.delta.full(pos, &self.config) {
                    group.retrain();
                }
                new
            }
        }
    }

    /// Unlike `insert`, an absent (or removed) key is left absent.
    fn update(&mut self, key: K, value: Payload) -> bool {
        let (idx, at) = self.find(key);
        let group = &mut self.groups[idx];
        match at {
            Ok(pos) if group.delta.is_dead(pos, key) => false,
            Ok(pos) => {
                group.main.values[pos] = value;
                true
            }
            Err(pos) => group.delta.update(pos, key, value),
        }
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let (idx, at) = self.find(key);
        let group = &mut self.groups[idx];
        match at {
            Ok(pos) => (!group.delta.set_dead(pos, key, true)).then(|| group.main.values[pos]),
            Err(pos) => group.delta.remove(pos, key),
        }
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        let before = out.len();
        let target = before.saturating_add(spec.count);
        for group in &self.groups[self.locate(spec.start)..] {
            if out.len() >= target {
                break;
            }
            let (Ok(from) | Err(from)) = group.main.find(spec.start, D::error_bound(&self.config));
            let rest = RangeSpec::new(spec.start, target - out.len());
            group.delta.scan(&group.main, from, rest, out);
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.groups.iter().map(Group::live_count).sum()
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.groups.iter().map(Group::memory).sum::<usize>()
            + self.boundaries.capacity() * std::mem::size_of::<K>()
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: D::NAME,
            learned: true,
            concurrent: false,
            supports_delete: true,
            supports_range: true,
        }
    }
}

impl<K: Key, D: Delta<K>> Partitionable<K> for GroupIndex<K, D> {
    const CONCURRENT_NAME: &'static str = D::NAME;
}
