//! The per-insert work counters behind Table 3 and the ledger's
//! `index.alex.*` rows, pinned through the `Box<dyn Index>` entries of
//! `single_thread_indexes()` that the figures read.

use gre_bench::registry::single_thread_indexes;
use gre_core::{Index, OpCounters};
use gre_datasets::Dataset;

/// `n` seeded `osm` keys: the even positions are bulk-loaded, the odd ones
/// are returned in a seeded shuffle for inserting.
fn osm_stream(n: usize) -> (Vec<(u64, u64)>, Vec<u64>) {
    let keys = Dataset::Osm.generate(n, 42);
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

fn registered(name: &str) -> Box<dyn Index<u64>> {
    single_thread_indexes()
        .into_iter()
        .find(|index| index.meta().name == name)
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
/// a new traversal) updates them and says why. ALEX's node-sizing rule
/// already splits here: with a 1 024-key node floor one node took every
/// insert, `[1_000, 1_000, 233_550, 5, 5]`, 234 keys shifted per insert
/// against 38.
#[test]
fn write_only_osm_counters_are_exact() {
    let (bulk, fresh) = osm_stream(2_000);
    for (name, expected) in [
        ("ALEX", [1_000, 1_552, 37_700, 14, 13]),
        ("LIPP", [1_000, 2_996, 0, 485, 0]),
    ] {
        let mut index = registered(name);
        index.bulk_load(&bulk);
        for &k in &fresh {
            assert!(index.insert(k, k), "{name} fresh insert {k}");
        }
        assert_eq!(work(index.stats().counters), expected, "{name}");
    }
}

/// At 20 000 keys ALEX's node-sizing rule splits the loaded keys into
/// several nodes and keeps splitting as the inserts pack them. Before the
/// rule one node took every insert: `[10_000, 10_000, 23_718_734, 5, 5]`,
/// 2 372 keys shifted per insert; with a 1 024-key node floor, `[10_000,
/// 22_491, 1_302_982, 58, 50]`, 130; with the rule alone, 68.
#[test]
fn write_only_osm_counters_are_exact_where_alex_splits() {
    let (bulk, fresh) = osm_stream(20_000);
    let mut index = registered("ALEX");
    index.bulk_load(&bulk);
    for &k in &fresh {
        assert!(index.insert(k, k), "ALEX fresh insert {k}");
    }
    assert_eq!(
        work(index.stats().counters),
        [10_000, 35_466, 678_726, 354, 315]
    );
}

/// Only ALEX and LIPP keep work counters.
#[test]
fn removes_leave_the_per_insert_traversal_alone() {
    let (bulk, fresh) = osm_stream(2_000);
    for name in ["ALEX", "LIPP"] {
        let mut index = registered(name);
        index.bulk_load(&bulk);
        for &k in &fresh {
            index.insert(k, k);
        }
        let before = index.stats().avg_nodes_traversed_per_insert();
        assert!(before > 0.0, "{name} counts insert traversals");
        for &(k, v) in bulk.iter().step_by(2) {
            assert_eq!(index.remove(k), Some(v), "{name} remove {k}");
        }
        for &k in fresh.iter().step_by(2) {
            assert_eq!(index.remove(k), Some(k), "{name} remove {k}");
        }
        let after = index.stats().avg_nodes_traversed_per_insert();
        assert_eq!(
            before, after,
            "{name}: removes moved the per-insert traversal"
        );
    }
}
