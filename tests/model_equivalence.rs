//! Randomized model tests: every index must behave exactly like a `BTreeMap`
//! under arbitrary operation sequences (the core correctness invariant of the
//! whole suite).
//!
//! These were originally proptest strategies; the vendored offline toolchain
//! has no proptest, so the same property is exercised with seeded random
//! operation sequences (deterministic, so failures reproduce by seed).

use gre::learned::{
    Alex, DynamicPgm, FinedexConfig, FinedexGroups, Lipp, XIndexConfig, XIndexGroups,
};
use gre::traditional::{Art, BPlusTree, Hot, Masstree, Wormhole};
use gre_core::{Index, RangeSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const CASES: u64 = 32;
const KEY_SPACE: u64 = 2_000;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Update(u64, u64),
    Remove(u64),
    Get(u64),
    Range(u64, usize),
}

fn random_op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..5u32) {
        0 => Op::Insert(rng.gen_range(0..KEY_SPACE), rng.gen()),
        1 => Op::Update(rng.gen_range(0..KEY_SPACE), rng.gen()),
        2 => Op::Remove(rng.gen_range(0..KEY_SPACE)),
        3 => Op::Get(rng.gen_range(0..KEY_SPACE)),
        _ => Op::Range(rng.gen_range(0..KEY_SPACE), rng.gen_range(0..64)),
    }
}

fn random_bulk(rng: &mut StdRng) -> Vec<(u64, u64)> {
    let len = rng.gen_range(0..400usize);
    let map: BTreeMap<u64, u64> = (0..len)
        .map(|_| (rng.gen_range(0..KEY_SPACE), rng.gen()))
        .collect();
    map.into_iter().collect()
}

fn check_against_model<I: Index<u64>>(mut index: I, ops: &[Op], bulk: &[(u64, u64)], case: u64) {
    let mut model: BTreeMap<u64, u64> = bulk.iter().copied().collect();
    index.bulk_load(bulk);
    for op in ops {
        match *op {
            Op::Insert(k, v) => {
                assert_eq!(
                    index.insert(k, v),
                    model.insert(k, v).is_none(),
                    "insert {k} (case {case})"
                );
            }
            Op::Update(k, v) => {
                // Returns presence, writes only a present key, never inserts.
                let present = model.get_mut(&k).map(|slot| *slot = v).is_some();
                assert_eq!(index.update(k, v), present, "update {k} (case {case})");
                assert_eq!(
                    index.get(k),
                    model.get(&k).copied(),
                    "get after update {k} (case {case})"
                );
            }
            Op::Remove(k) => {
                assert_eq!(
                    index.remove(k),
                    model.remove(&k),
                    "remove {k} (case {case})"
                );
            }
            Op::Get(k) => {
                assert_eq!(
                    index.get(k),
                    model.get(&k).copied(),
                    "get {k} (case {case})"
                );
            }
            Op::Range(k, c) => {
                let mut out = Vec::new();
                index.range(RangeSpec::new(k, c), &mut out);
                let expected: Vec<(u64, u64)> =
                    model.range(k..).take(c).map(|(a, b)| (*a, *b)).collect();
                assert_eq!(out, expected, "range from {k} count {c} (case {case})");
            }
        }
    }
    assert_eq!(index.len(), model.len(), "final length (case {case})");
}

macro_rules! model_test {
    ($name:ident, $ctor:expr) => {
        #[test]
        fn $name() {
            for case in 0..CASES {
                // Per-case seed derived from the test name so the suites stay
                // independent yet fully reproducible.
                let seed = fnv64(stringify!($name)) ^ case;
                let mut rng = StdRng::seed_from_u64(seed);
                let bulk = random_bulk(&mut rng);
                let op_count = rng.gen_range(1..300usize);
                let ops: Vec<Op> = (0..op_count).map(|_| random_op(&mut rng)).collect();
                check_against_model($ctor, &ops, &bulk, case);
            }
        }
    };
}

fn fnv64(s: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

model_test!(alex_matches_btreemap, Alex::<u64>::new());
model_test!(lipp_matches_btreemap, Lipp::<u64>::new());
model_test!(pgm_matches_btreemap, DynamicPgm::<u64>::new());
model_test!(btree_matches_btreemap, BPlusTree::<u64>::new());
// Four-slot nodes split every few inserts: inner splits cascade and the
// root grows several levels within one case.
model_test!(btree_small_matches_btreemap, BPlusTree::<u64, 4>::default());
model_test!(art_matches_btreemap, Art::<u64>::new());
model_test!(hot_matches_btreemap, Hot::<u64>::new());
model_test!(wormhole_matches_btreemap, Wormhole::<u64>::new());
model_test!(masstree_matches_btreemap, Masstree::<u64>::new());
model_test!(xindex_matches_btreemap, XIndexGroups::<u64>::new());
model_test!(finedex_matches_btreemap, FinedexGroups::<u64>::new());
// Small groups, a tight error bound and tiny deltas/bins: compaction,
// flattening and routing across several groups all run within one case.
model_test!(
    xindex_small_matches_btreemap,
    XIndexGroups::<u64>::with_config(XIndexConfig {
        group_size: 64,
        error_bound: 4,
        delta_size: 8,
    })
);
model_test!(
    finedex_small_matches_btreemap,
    FinedexGroups::<u64>::with_config(FinedexConfig {
        group_size: 64,
        error_bound: 4,
        bin_capacity: 2,
    })
);
