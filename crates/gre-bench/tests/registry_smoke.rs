//! Registry smoke tests: fast-failing coverage that every registered index
//! survives a tiny insert/lookup round-trip, so registry regressions (a
//! renamed entry, a broken constructor, a trait-impl typo) surface in
//! milliseconds without the heavy end-to-end suite. Covers the plain
//! registries and the `sharded(...)` serving-layer composites of the typed
//! builder.

use gre_bench::registry::{
    concurrent_indexes, single_thread_indexes, IndexBuilder, CONCURRENT_BACKENDS,
};
use gre_shard::Scheme;

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
    let mut names: Vec<&str> = single_thread_indexes().iter().map(|e| e.name).collect();
    names.sort_unstable();
    let len = names.len();
    names.dedup();
    assert_eq!(names.len(), len, "duplicate single-thread registry name");

    let mut names: Vec<String> = concurrent_indexes(true)
        .into_iter()
        .map(|e| e.name)
        .collect();
    names.sort_unstable();
    let len = names.len();
    names.dedup();
    assert_eq!(names.len(), len, "duplicate concurrent registry name");
}

#[test]
fn every_single_thread_entry_round_trips() {
    let entries = tiny_entries();
    for mut e in single_thread_indexes() {
        e.index.bulk_load(&entries);
        assert_eq!(e.index.len(), entries.len(), "{} bulk load", e.name);
        for &(k, v) in &entries {
            assert_eq!(e.index.get(k), Some(v), "{} lookup {k}", e.name);
        }
        assert!(e.index.insert(2, 999), "{} fresh insert", e.name);
        assert_eq!(e.index.get(2), Some(999), "{} read-own-insert", e.name);
        assert_eq!(e.index.get(0), None, "{} absent key", e.name);
    }
}

#[test]
fn every_concurrent_entry_round_trips() {
    let entries = tiny_entries();
    for mut e in concurrent_indexes(true) {
        e.index.bulk_load(&entries);
        assert_eq!(e.index.len(), entries.len(), "{} bulk load", e.name);
        for &(k, v) in &entries {
            assert_eq!(e.index.get(k), Some(v), "{} lookup {k}", e.name);
        }
        assert!(e.index.insert(2, 999), "{} fresh insert", e.name);
        assert_eq!(e.index.get(2), Some(999), "{} read-own-insert", e.name);
        assert_eq!(e.index.get(0), None, "{} absent key", e.name);
    }
}

#[test]
fn index_builder_covers_every_registry_name() {
    let entries = tiny_entries();
    for (name, kind) in CONCURRENT_BACKENDS {
        let builder = IndexBuilder::backend(name)
            .unwrap_or_else(|_| panic!("builder must resolve registry name {name}"));
        assert_eq!(builder.backend_name(), name);
        assert_eq!(builder.kind(), kind);
        assert_eq!(builder.build().meta().name, name, "bare backend");
        // Range- and hash-sharded composites built through the typed surface
        // report the `sharded(NAME,N[,hash])` name and serve a tiny round-trip.
        for (shards, scheme, shown) in [
            (3, Scheme::Range, format!("sharded({name},3)")),
            (2, Scheme::Hash, format!("sharded({name},2,hash)")),
        ] {
            let builder = builder.clone().shards(shards).partitioner(scheme);
            assert_eq!(builder.display_name(), shown);
            let mut idx = builder.build();
            idx.bulk_load(&entries);
            assert_eq!(idx.meta().name, shown);
            assert_eq!(idx.len(), entries.len(), "{shown} bulk load");
            for &(k, v) in &entries {
                assert_eq!(idx.get(k), Some(v), "{shown} lookup {k}");
            }
            assert!(idx.insert(2, 999), "{shown} fresh insert");
            assert_eq!(idx.get(2), Some(999), "{shown} read-own-insert");
            assert_eq!(idx.get(0), None, "{shown} absent key");
        }
    }
    assert!(IndexBuilder::backend("definitely-not-an-index").is_err());
}
