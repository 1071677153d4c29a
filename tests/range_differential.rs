//! Differential range scans: every range-capable backend must return exactly
//! what a `BTreeMap` returns, from every kind of start position, after a
//! seeded interleaving of inserts, removes and updates.
//!
//! The starts are derived from the live key set rather than from a backend's
//! internals: scanning from `k - 1`, `k` and `k + 1` of every live key `k`
//! covers "equal to a key", "inside a gap run" (a non-key between two keys),
//! "the last slot of a node" and "across a node / partition boundary" (every
//! node's and every `gre_core::Partitioned` partition's last key is some `k`,
//! and a scan of 100 from it crosses into the next one) without knowing where
//! they are; `0` and `u64::MAX` cover "below the first key" and "past the last
//! key".
//!
//! A second test holds the nine `Partitioned` backends to the model on the
//! adapter's own paths: grouped batch lookups, appending scans, and the
//! bulk-reload migration pair `extract_range` / `absorb_range`.

use gre::learned::{Alex, AlexConfig, AlexPlus, DynamicPgm, Finedex, Lipp, LippPlus, XIndex};
use gre::traditional::{
    art_olc, btree_olc, hot_rowex, masstree_concurrent, wormhole_concurrent, Art, BPlusTree,
};
use gre_core::index::MutexIndex;
use gre_core::{ConcurrentIndex, RangeSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

type Backend = Box<dyn ConcurrentIndex<u64>>;

/// Small ALEX nodes, so a few thousand keys span many of them.
const SMALL_NODES: AlexConfig = AlexConfig {
    max_node_entries: 128,
    min_density: 0.6,
    init_density: 0.7,
    max_density: 0.8,
};

fn backends() -> Vec<(&'static str, Backend)> {
    vec![
        (
            "Alex",
            Box::new(MutexIndex::new(Alex::with_config(SMALL_NODES), "ALEX")),
        ),
        (
            "AlexPlus",
            Box::new(AlexPlus::with_inner(|| Alex::with_config(SMALL_NODES))),
        ),
        ("Lipp", Box::new(MutexIndex::new(Lipp::new(), "LIPP"))),
        ("LippPlus", Box::new(LippPlus::new())),
        (
            "DynamicPgm",
            Box::new(MutexIndex::new(DynamicPgm::new(), "PGM")),
        ),
        ("XIndex", Box::new(XIndex::new())),
        ("Finedex", Box::new(Finedex::new())),
        (
            "BPlusTree",
            Box::new(MutexIndex::new(BPlusTree::new(), "B+tree")),
        ),
        ("Art", Box::new(MutexIndex::new(Art::new(), "ART"))),
        ("B+tree/p64", Box::new(btree_olc())),
        ("HOT/p64", Box::new(hot_rowex())),
    ]
}

/// Every concurrent index built on `gre_core::Partitioned`.
fn partitioned_backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("ALEX+", Box::new(AlexPlus::new())),
        ("LIPP+", Box::new(LippPlus::new())),
        ("XIndex", Box::new(XIndex::new())),
        ("FINEdex", Box::new(Finedex::new())),
        ("B+tree/p64", Box::new(btree_olc())),
        ("ART/p64", Box::new(art_olc())),
        ("HOT/p64", Box::new(hot_rowex())),
        ("Masstree", Box::new(masstree_concurrent())),
        ("Wormhole", Box::new(wormhole_concurrent())),
    ]
}

/// A dense cluster (packed nodes, shifts) mixed with keys spread over the
/// upper half of the domain (long gap runs, skewed models). Never `0` or
/// `u64::MAX`: the test adds and removes those itself.
fn random_key(rng: &mut StdRng) -> u64 {
    if rng.gen_range(0..4u32) == 0 {
        rng.gen_range(1 << 40..u64::MAX)
    } else {
        rng.gen_range(10_000..18_000)
    }
}

/// Compare `index` with `model` from every start position and every count.
fn check_scans(name: &str, index: &dyn ConcurrentIndex<u64>, model: &BTreeMap<u64, u64>, at: &str) {
    let mut starts = vec![0, 1, u64::MAX - 1, u64::MAX];
    for &k in model.keys() {
        starts.extend([k.saturating_sub(1), k, k.saturating_add(1)]);
    }
    let mut out = Vec::new();
    for (i, &start) in starts.iter().enumerate() {
        // Long scans from a sample of the starts keep the test quick.
        let counts: &[usize] = if i % 13 == 0 {
            &[0, 1, 100, usize::MAX]
        } else {
            &[0, 1]
        };
        for &count in counts {
            out.clear();
            let got = index.range(RangeSpec::new(start, count), &mut out);
            let expected: Vec<(u64, u64)> = model
                .range(start..)
                .take(count)
                .map(|(k, v)| (*k, *v))
                .collect();
            assert_eq!(got, out.len(), "{name} {at}: returned count");
            assert_eq!(out, expected, "{name} {at}: range({start}, {count})");
        }
        if i % 13 == 0 {
            // A key window ending between the 40th and 41st entry: backends
            // may leave the inclusive `end` to the caller, so clip as
            // `Request::execute` does before comparing.
            let Some(&end) = model.range(start..).map(|(k, _)| k).nth(40) else {
                continue;
            };
            let spec = RangeSpec::bounded(start, end, 100);
            out.clear();
            index.range(spec, &mut out);
            while out.last().is_some_and(|&(k, _)| !spec.admits(k)) {
                out.pop();
            }
            let expected: Vec<(u64, u64)> =
                model.range(start..=end).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(out, expected, "{name} {at}: bounded({start}, {end})");
        }
    }
}

#[test]
fn range_scans_match_btreemap_on_every_backend() {
    for (name, mut index) in backends() {
        let mut rng = StdRng::seed_from_u64(0x5ca9_2026);
        let mut model: BTreeMap<u64, u64> =
            (0..2_000u64).map(|i| (random_key(&mut rng), i)).collect();
        let bulk: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        index.bulk_load(&bulk);
        check_scans(name, &*index, &model, "after bulk load");

        let mut seen: Vec<u64> = bulk.iter().map(|e| e.0).collect();
        for op in 0..6_000u64 {
            let payload = 1_000_000 + op;
            match rng.gen_range(0..4u32) {
                0 | 1 => {
                    let key = random_key(&mut rng);
                    seen.push(key);
                    assert_eq!(
                        index.insert(key, payload),
                        model.insert(key, payload).is_none(),
                        "{name}: insert {key}"
                    );
                }
                2 => {
                    let key = seen[rng.gen_range(0..seen.len())];
                    assert_eq!(
                        index.remove(key),
                        model.remove(&key),
                        "{name}: remove {key}"
                    );
                }
                _ => {
                    let key = seen[rng.gen_range(0..seen.len())];
                    let live = model.get_mut(&key).map(|v| *v = payload).is_some();
                    assert_eq!(index.update(key, payload), live, "{name}: update {key}");
                }
            }
            if op == 2_000 {
                check_scans(name, &*index, &model, "mid-way");
            }
        }
        check_scans(name, &*index, &model, "after the interleaving");

        // The domain's end points are legal keys: ALEX's trailing-gap
        // sentinel is `u64::MAX` and its gap fill must neither surface a key
        // that is not there nor hide one that is.
        for key in [0, u64::MAX] {
            assert!(index.insert(key, key ^ 1), "{name}: insert {key}");
            model.insert(key, key ^ 1);
            assert_eq!(index.get(key), Some(key ^ 1), "{name}: get {key}");
        }
        check_scans(name, &*index, &model, "with 0 and u64::MAX stored");
        for key in [0, u64::MAX] {
            assert_eq!(
                index.remove(key),
                model.remove(&key),
                "{name}: remove {key}"
            );
            assert_eq!(index.get(key), None, "{name}: get removed {key}");
        }
        check_scans(name, &*index, &model, "with 0 and u64::MAX removed");
        assert_eq!(index.len(), model.len(), "{name}: final length");
    }
}

#[test]
fn partitioned_backends_batch_scan_extract_and_absorb_like_the_model() {
    let model: BTreeMap<u64, u64> = (0..20_000u64).map(|i| (i * 3 + 1, i)).collect();
    let bulk: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    let entries = |r: std::ops::Range<u64>| -> Vec<(u64, u64)> {
        model.range(r).map(|(k, v)| (*k, *v)).collect()
    };
    let mut rng = StdRng::seed_from_u64(0x9a27_1710);
    // Hits and misses spread over every partition, plus a duplicate.
    let mut keys: Vec<u64> = (0..700).map(|_| rng.gen_range(0..60_010)).collect();
    keys.push(keys[7]);
    // Starts 40 keys below each 64th quantile: a scan of 100 crosses into
    // the next partition.
    let starts: Vec<u64> = (1..64).map(|p| bulk[p * bulk.len() / 64 - 40].0).collect();
    // A window over several partitions, opening on a non-key.
    let (lo, hi) = (bulk[5_000].0 + 1, bulk[9_000].0);
    let window = entries(lo..hi);

    for (name, mut index) in partitioned_backends() {
        index.bulk_load(&bulk);

        let mut batched = vec![Some(u64::MAX)];
        index.get_batch(&keys, &mut batched);
        let scalar: Vec<Option<u64>> = keys.iter().map(|&k| index.get(k)).collect();
        assert_eq!(batched, scalar, "{name}: get_batch");
        let expected: Vec<Option<u64>> = keys.iter().map(|k| model.get(k).copied()).collect();
        assert_eq!(scalar, expected, "{name}: get");

        let prefix = [(7, 7), (8, 8), (9, 9)];
        for &start in &starts {
            let mut out = prefix.to_vec();
            let got = index.range(RangeSpec::new(start, 100), &mut out);
            assert_eq!(got, 100, "{name}: range({start}, 100) appended");
            assert_eq!(
                out[..3],
                prefix,
                "{name}: range({start}, 100) kept the prefix"
            );
            assert_eq!(
                out[3..],
                entries(start..u64::MAX)[..100],
                "{name}: range({start}, 100)"
            );
        }

        let mut moved = prefix.to_vec();
        let got = index.extract_range(lo, Some(hi), &mut moved);
        assert_eq!(got, window.len(), "{name}: extracted count");
        assert_eq!(moved[3..], window, "{name}: extract_range({lo}, {hi})");
        assert_eq!(
            index.len(),
            model.len() - window.len(),
            "{name}: len after extract"
        );
        assert_eq!(
            index.get(window[0].0),
            None,
            "{name}: extracted key still present"
        );
        assert_eq!(
            index.get(lo - 1),
            model.get(&(lo - 1)).copied(),
            "{name}: below the window"
        );
        assert_eq!(
            index.get(hi),
            model.get(&hi).copied(),
            "{name}: the window's end"
        );

        index.absorb_range(&moved[3..]);
        assert_eq!(index.len(), model.len(), "{name}: len after absorb");
        let mut all = Vec::new();
        index.range(RangeSpec::new(0, usize::MAX), &mut all);
        assert_eq!(all, bulk, "{name}: contents after absorb");
    }
}
