//! Masstree-like trie of B+-trees (simplified).
//!
//! Masstree (Mao et al., EuroSys'12) indexes variable-length keys as a trie
//! whose layers are B+-trees over consecutive 8-byte key slices. For the
//! fixed 8-byte integer keys of this study the trie degenerates to a single
//! B+-tree layer with Masstree's small node fanout (15 slots per node, held
//! inline like the B+tree's 64), which is the simplification we implement
//! (see "Substitutions" in `docs/BENCHMARKS.md`). The behaviours the paper
//! attributes to Masstree in this setting — B-tree-like write amplification
//! and heavier per-key overhead than ART — are preserved.

use crate::btree::BPlusTree;
use gre_core::{Index, IndexMeta, Key, Payload, RangeSpec};

/// Masstree's per-node key fanout.
const MASSTREE_FANOUT: usize = 15;

/// A Masstree-like index over 8-byte keys.
#[derive(Debug)]
pub struct Masstree<K> {
    layer0: BPlusTree<K, MASSTREE_FANOUT>,
}

impl<K: Key> Default for Masstree<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> Masstree<K> {
    pub fn new() -> Self {
        Masstree {
            layer0: BPlusTree::default(),
        }
    }
}

impl<K: Key> Index<K> for Masstree<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.layer0.bulk_load(entries);
    }

    fn get(&self, key: K) -> Option<Payload> {
        self.layer0.get(key)
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        self.layer0.insert(key, value)
    }

    fn update(&mut self, key: K, value: Payload) -> bool {
        self.layer0.update(key, value)
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        // The paper notes Masstree does not cover deletions in its
        // evaluation; the underlying structure supports them, so we do too.
        self.layer0.remove(key)
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        self.layer0.range(spec, out)
    }

    fn len(&self) -> usize {
        self.layer0.len()
    }

    fn memory_usage(&self) -> usize {
        self.layer0.memory_usage()
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "Masstree",
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

    #[test]
    fn basic_operations() {
        let mut m = Masstree::new();
        let entries: Vec<(u64, u64)> = (0..3_000u64).map(|i| (i * 5, i)).collect();
        m.bulk_load(&entries);
        assert_eq!(m.len(), 3_000);
        assert_eq!(m.get(10), Some(2));
        assert!(m.insert(3, 33));
        assert_eq!(m.get(3), Some(33));
        assert_eq!(m.remove(3), Some(33));
        let mut out = Vec::new();
        assert_eq!(m.range(RangeSpec::new(0, 10), &mut out), 10);
        assert_eq!(m.meta().name, "Masstree");
        assert!(!m.meta().supports_delete);
    }

    #[test]
    fn updates_write_in_place_and_count_nothing() {
        let mut m = Masstree::new();
        let entries: Vec<(u64, u64)> = (0..3_000u64).map(|i| (i * 5, i)).collect();
        m.bulk_load(&entries);
        for &(k, v) in &entries {
            assert!(m.update(k, v + 1));
        }
        assert!(!m.update(1, 7), "absent key must miss");
        assert_eq!(m.get(1), None, "update must not insert");
        assert_eq!(m.get(10), Some(3));
        assert_eq!(m.len(), 3_000);
    }
}
