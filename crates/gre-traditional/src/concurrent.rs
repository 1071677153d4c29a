//! Concurrent derivatives of the traditional indexes.
//!
//! The paper evaluates B+TreeOLC, ART-OLC, HOT-ROWEX, Masstree and Wormhole
//! in its multi-threaded experiments (§4.2). The original C++ implementations
//! synchronize with optimistic lock coupling (OLC) or ROWEX protocols over
//! shared node memory. Here each is [`gre_core::Partitioned`] over the
//! single-threaded index — the same 64-partition lock adapter ALEX+ and LIPP+
//! run on (see "Substitutions" in `docs/BENCHMARKS.md`) — and is named for
//! what it is: `B+tree/p64`, `ART/p64`, `HOT/p64`. Reads and writes to
//! different key ranges proceed in parallel; no node-level protocol is
//! implemented, so the paper's OLC/ROWEX comparison is not reproduced. Wormhole
//! gets a single partition — one reader-writer lock over the whole structure,
//! reads scale and writes serialize — modelling the inner-layer write
//! bottleneck the paper highlights (Figures 5 and 11).

use crate::art::Art;
use crate::btree::BPlusTree;
use crate::hot::Hot;
use crate::masstree::Masstree;
use crate::wormhole::Wormhole;
use gre_core::{Key, Partitionable, Partitioned};

impl<K: Key> Partitionable<K> for BPlusTree<K> {
    const CONCURRENT_NAME: &'static str = "B+tree/p64";
}

impl<K: Key> Partitionable<K> for Art<K> {
    const CONCURRENT_NAME: &'static str = "ART/p64";
}

impl<K: Key> Partitionable<K> for Hot<K> {
    const CONCURRENT_NAME: &'static str = "HOT/p64";
}

impl<K: Key> Partitionable<K> for Masstree<K> {
    const CONCURRENT_NAME: &'static str = "Masstree";
}

impl<K: Key> Partitionable<K> for Wormhole<K> {
    const CONCURRENT_NAME: &'static str = "Wormhole";
    const PARTITIONS: usize = 1;
}

/// B+tree/p64: the B+-tree with leaf side-links behind the 64-partition
/// lock adapter, standing in for the paper's B+TreeOLC (§3.1).
pub type BPlusTreeOlc<K> = Partitioned<K, BPlusTree<K>>;

/// Construct B+tree/p64, the 64-partition adapter over the B+-tree.
pub fn btree_olc<K: Key>() -> BPlusTreeOlc<K> {
    Partitioned::new()
}

/// Construct ART/p64, the 64-partition adapter over ART, standing in for
/// the paper's ART-OLC (§3.1).
pub fn art_olc<K: Key>() -> Partitioned<K, Art<K>> {
    Partitioned::new()
}

/// Construct HOT/p64, the 64-partition adapter over HOT, standing in for
/// the paper's HOT-ROWEX (§3.1).
pub fn hot_rowex<K: Key>() -> Partitioned<K, Hot<K>> {
    Partitioned::new()
}

/// Construct the concurrent Masstree.
pub fn masstree_concurrent<K: Key>() -> Partitioned<K, Masstree<K>> {
    Partitioned::new()
}

/// Construct the concurrent Wormhole with its single inner-layer lock.
pub fn wormhole_concurrent<K: Key>() -> Partitioned<K, Wormhole<K>> {
    Partitioned::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gre_core::{ConcurrentIndex, Payload, RangeSpec, BATCH_WIDTH};
    use std::sync::Arc;

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 10, i)).collect()
    }

    #[test]
    fn sharded_bulk_load_partitions_by_key_range() {
        let mut idx: BPlusTreeOlc<u64> = btree_olc();
        ConcurrentIndex::bulk_load(&mut idx, &entries(10_000));
        assert_eq!(idx.len(), 10_000);
        for i in (0..10_000).step_by(101) {
            assert_eq!(idx.get(i * 10), Some(i));
        }
        assert_eq!(idx.meta().name, "B+tree/p64");
        assert!(idx.meta().concurrent);
    }

    #[test]
    fn sharded_concurrent_inserts_do_not_lose_keys() {
        let mut idx = art_olc::<u64>();
        ConcurrentIndex::bulk_load(&mut idx, &entries(1_000));
        let idx = Arc::new(idx);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        idx.insert(1_000_000 + t * 1_000_000 + i, i);
                    }
                });
            }
        });
        assert_eq!(idx.len(), 1_000 + 4 * 2_000);
        for t in 0..4u64 {
            for i in (0..2_000u64).step_by(97) {
                assert_eq!(idx.get(1_000_000 + t * 1_000_000 + i), Some(i));
            }
        }
    }

    #[test]
    fn sharded_range_crosses_shard_boundaries() {
        let mut idx: BPlusTreeOlc<u64> = btree_olc();
        ConcurrentIndex::bulk_load(&mut idx, &entries(10_000));
        let mut out = Vec::new();
        let got = idx.range(RangeSpec::new(0, 5_000), &mut out);
        assert_eq!(got, 5_000);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out[0].0, 0);
        assert_eq!(out.last().unwrap().0, 4_999 * 10);
    }

    #[test]
    fn sharded_removals() {
        let mut idx = hot_rowex::<u64>();
        ConcurrentIndex::bulk_load(&mut idx, &entries(2_000));
        for i in 0..1_000u64 {
            assert_eq!(idx.remove(i * 10), Some(i));
        }
        assert_eq!(idx.len(), 1_000);
        assert!(idx.memory_usage() > 0);
    }

    #[test]
    fn inner_lock_wormhole_serializes_but_stays_correct() {
        let mut idx = wormhole_concurrent::<u64>();
        ConcurrentIndex::bulk_load(&mut idx, &entries(1_000));
        let idx = Arc::new(idx);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let idx = Arc::clone(&idx);
                s.spawn(move || {
                    for i in 0..500u64 {
                        idx.insert(100_000 + t * 100_000 + i, i);
                        idx.get(i * 10);
                    }
                });
            }
        });
        assert_eq!(idx.len(), 1_000 + 4 * 500);
        assert_eq!(idx.meta().name, "Wormhole");
        assert!(!idx.meta().supports_delete);
    }

    /// Batched lookups through the 64-partition and the one-partition
    /// adapter answer what scalar `get` does, for every run length up to two
    /// probe groups and one more, with absent keys between stored ones.
    #[test]
    fn get_batch_matches_scalar_get_on_both_adapter_widths() {
        let mut btree: BPlusTreeOlc<u64> = btree_olc();
        let mut wormhole = wormhole_concurrent::<u64>();
        for index in [&mut btree as &mut dyn ConcurrentIndex<u64>, &mut wormhole] {
            index.bulk_load(&entries(20_000));
            let keys: Vec<u64> = (0..3_000u64)
                .map(|i| (i * 7_919 % 20_000) * 10 + u64::from(i % 3 == 0) * 5)
                .collect();
            let mut out = Vec::new();
            for len in 1..=2 * BATCH_WIDTH + 1 {
                for run in keys.chunks(len) {
                    index.get_batch(run, &mut out);
                    let scalar: Vec<_> = run.iter().map(|&k| index.get(k)).collect();
                    assert_eq!(out, scalar, "{}: a run of {len}", index.meta().name);
                }
            }
        }
    }

    #[test]
    fn masstree_concurrent_smoke() {
        let mut idx = masstree_concurrent::<u64>();
        ConcurrentIndex::bulk_load(&mut idx, &entries(5_000));
        assert_eq!(idx.get(40), Some(4));
        idx.insert(41, 99);
        assert_eq!(idx.get(41), Some(99));
        let mut out = Vec::new();
        assert_eq!(idx.range(RangeSpec::new(35, 3), &mut out), 3);
    }
}
