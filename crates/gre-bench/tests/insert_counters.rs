//! The per-insert work counters behind Table 3 and the ledger's
//! `index.alex.*` rows, pinned through the `Box<dyn Index>` entries of
//! `single_thread_indexes()` that the figures read.

use gre_bench::registry::{single_thread_indexes, SingleEntry};
use gre_core::OpCounters;
use gre_datasets::Dataset;

/// 2 000 seeded `osm` keys: the even positions are bulk-loaded, the odd
/// ones are returned in a seeded shuffle for inserting.
fn osm_stream() -> (Vec<(u64, u64)>, Vec<u64>) {
    let keys = Dataset::Osm.generate(2_000, 42);
    let bulk = keys.iter().step_by(2).map(|&k| (k, k ^ 1)).collect();
    let mut fresh: Vec<u64> = keys.iter().skip(1).step_by(2).copied().collect();
    let mut x = 42u64;
    for i in (1..fresh.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        fresh.swap(i, (x % (i as u64 + 1)) as usize);
    }
    (bulk, fresh)
}

fn entry(name: &str) -> SingleEntry {
    single_thread_indexes()
        .into_iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is registered"))
}

/// `(inserts, nodes_traversed, keys_shifted, nodes_created, smo_count)`.
fn work(c: OpCounters) -> [u64; 5] {
    [
        c.inserts,
        c.nodes_traversed,
        c.keys_shifted,
        c.nodes_created,
        c.smo_count,
    ]
}

/// Exact values of a seeded write-only stream. A refactor of the counter
/// path must leave them alone; a change meant to move them (an SMO policy,
/// a new traversal) updates them and says why.
#[test]
fn write_only_osm_counters_are_exact() {
    let (bulk, fresh) = osm_stream();
    for (name, expected) in [
        ("ALEX", [1_000, 1_000, 233_550, 5, 5]),
        ("LIPP", [1_000, 2_996, 0, 485, 0]),
    ] {
        let mut e = entry(name);
        e.index.bulk_load(&bulk);
        for &k in &fresh {
            assert!(e.index.insert(k, k), "{name} fresh insert {k}");
        }
        assert_eq!(work(e.index.stats().counters), expected, "{name}");
    }
}

#[test]
fn removes_leave_the_per_insert_traversal_alone() {
    let (bulk, fresh) = osm_stream();
    for mut e in single_thread_indexes() {
        if !e.index.meta().supports_delete {
            continue;
        }
        e.index.bulk_load(&bulk);
        for &k in &fresh {
            e.index.insert(k, k);
        }
        let before = e.index.stats().avg_nodes_traversed_per_insert();
        assert!(before > 0.0, "{} counts insert traversals", e.name);
        for &(k, v) in bulk.iter().step_by(2) {
            assert_eq!(e.index.remove(k), Some(v), "{} remove {k}", e.name);
        }
        for &k in fresh.iter().step_by(2) {
            assert_eq!(e.index.remove(k), Some(k), "{} remove {k}", e.name);
        }
        let after = e.index.stats().avg_nodes_traversed_per_insert();
        assert_eq!(
            before, after,
            "{}: removes moved the per-insert traversal",
            e.name
        );
    }
}
