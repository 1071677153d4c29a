//! Registry smoke tests: fast-failing coverage that every registered index
//! survives a tiny insert/lookup round-trip, so registry regressions (a
//! renamed index, a broken constructor, a trait-impl typo) surface in
//! milliseconds without the heavy end-to-end suite. Covers the plain
//! registries and every concurrent backend behind range- and hash-sharded
//! `ShardedIndex` composites.

use gre_bench::{concurrent_indexes, single_thread_indexes, CONCURRENT};
use gre_core::ConcurrentIndex;
use gre_shard::{Partitioner, ShardedIndex};

const TINY: u64 = 64;

fn tiny_entries() -> Vec<(u64, u64)> {
    (0..TINY).map(|i| (i * 3 + 1, i + 100)).collect()
}

#[test]
fn registries_are_non_empty() {
    assert!(!single_thread_indexes().is_empty());
    assert!(!concurrent_indexes(true).is_empty());
    assert!(!concurrent_indexes(false).is_empty());
}

#[test]
fn registry_names_are_unique() {
    let mut names: Vec<&str> = single_thread_indexes()
        .iter()
        .map(|i| i.meta().name)
        .collect();
    names.sort_unstable();
    let len = names.len();
    names.dedup();
    assert_eq!(names.len(), len, "duplicate single-thread registry name");

    let mut names: Vec<&str> = concurrent_indexes(true)
        .iter()
        .map(|i| i.meta().name)
        .collect();
    names.sort_unstable();
    let len = names.len();
    names.dedup();
    assert_eq!(names.len(), len, "duplicate concurrent registry name");
}

#[test]
fn learned_families_are_the_papers() {
    let learned: Vec<&str> = single_thread_indexes()
        .iter()
        .map(|i| i.meta())
        .filter(|m| m.learned)
        .map(|m| m.name)
        .collect();
    assert_eq!(learned, ["ALEX", "LIPP", "PGM-Index"]);
    let learned: Vec<&str> = concurrent_indexes(true)
        .iter()
        .map(|i| i.meta())
        .filter(|m| m.learned)
        .map(|m| m.name)
        .collect();
    assert_eq!(learned, ["ALEX+", "LIPP+", "XIndex", "FINEdex"]);
}

/// Figure 16's "world without this study" drops exactly the two
/// parallelized derivatives, which lead the registry.
#[test]
fn without_parallelized_drops_the_first_two() {
    let with: Vec<&str> = concurrent_indexes(true)
        .iter()
        .map(|i| i.meta().name)
        .collect();
    let without: Vec<&str> = concurrent_indexes(false)
        .iter()
        .map(|i| i.meta().name)
        .collect();
    assert_eq!(&with[..2], ["ALEX+", "LIPP+"]);
    assert_eq!(without, with[2..]);
}

#[test]
fn every_single_thread_entry_round_trips() {
    let entries = tiny_entries();
    for mut index in single_thread_indexes() {
        let name = index.meta().name;
        index.bulk_load(&entries);
        assert_eq!(index.len(), entries.len(), "{name} bulk load");
        for &(k, v) in &entries {
            assert_eq!(index.get(k), Some(v), "{name} lookup {k}");
        }
        assert!(index.insert(2, 999), "{name} fresh insert");
        assert_eq!(index.get(2), Some(999), "{name} read-own-insert");
        assert_eq!(index.get(0), None, "{name} absent key");
    }
}

#[test]
fn every_concurrent_entry_round_trips() {
    let entries = tiny_entries();
    for mut index in concurrent_indexes(true) {
        round_trip(index.meta().name, &mut index, &entries);
    }
}

/// Every concurrent backend serves a tiny round trip behind a range
/// partitioner, and the composite reports its backend's name.
#[test]
fn every_concurrent_backend_serves_sharded() {
    let entries = tiny_entries();
    for ctor in CONCURRENT {
        let name = ctor().meta().name;
        let shown = format!("{name} over 3 shards");
        let mut idx = ShardedIndex::from_factory(Partitioner::range(3), |_| ctor());
        assert_eq!(idx.meta().name, name, "{shown}");
        round_trip(&shown, &mut idx, &entries);
    }
}

fn round_trip(name: &str, index: &mut impl ConcurrentIndex<u64>, entries: &[(u64, u64)]) {
    index.bulk_load(entries);
    assert_eq!(index.len(), entries.len(), "{name} bulk load");
    for &(k, v) in entries {
        assert_eq!(index.get(k), Some(v), "{name} lookup {k}");
    }
    assert!(index.insert(2, 999), "{name} fresh insert");
    assert_eq!(index.get(2), Some(999), "{name} read-own-insert");
    assert_eq!(index.get(0), None, "{name} absent key");
}
