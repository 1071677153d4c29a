//! Model-equivalence and concurrency tests for the sharded serving layer.
//!
//! `ShardedIndex` must be observationally identical to a plain `BTreeMap`
//! under any interleaving of get/insert/update/remove/range — over both a
//! learned (ALEX+) and a traditional (B+tree/p64) backend. The randomized runs are seeded, so failures
//! reproduce deterministically.

use gre_core::{ConcurrentIndex, Payload, RangeSpec, Tally};
use gre_learned::AlexPlus;
use gre_shard::{OpBatch, Partitioner, ShardPipeline, ShardedIndex};
use gre_traditional::btree_olc;
use gre_workloads::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

type DynBackend = Box<dyn ConcurrentIndex<u64>>;
type DynSharded = ShardedIndex<u64, DynBackend>;
type BackendFactory = fn() -> DynBackend;

/// Backends under test: one learned, one traditional (the acceptance bar).
fn backends() -> Vec<(&'static str, BackendFactory)> {
    vec![
        ("ALEX+", || Box::new(AlexPlus::<u64>::new())),
        ("B+tree/p64", || Box::new(btree_olc::<u64>())),
    ]
}

fn build(partitioner: Partitioner<u64>, factory: fn() -> DynBackend) -> DynSharded {
    ShardedIndex::from_factory(partitioner, |_| factory())
}

/// Seeded randomized op soup checked op-by-op against the model.
#[test]
fn sharded_index_matches_btreemap_model() {
    for (name, factory) in backends() {
        let mut idx = build(Partitioner::range(5), factory);
        let mut model: BTreeMap<u64, Payload> = BTreeMap::new();

        // Bulk phase: dense-ish keys so shard boundaries fall mid-data.
        let bulk: Vec<(u64, Payload)> = (0..3_000u64).map(|i| (i * 11, i)).collect();
        idx.bulk_load(&bulk);
        model.extend(bulk.iter().copied());

        let mut rng = StdRng::seed_from_u64(0xd1ce);
        for step in 0..6_000 {
            let key = rng.gen_range(0..40_000u64);
            let ctx = format!("{name} step {step} key {key}");
            match rng.gen_range(0..10u32) {
                0..=3 => {
                    assert_eq!(idx.get(key), model.get(&key).copied(), "get {ctx}");
                }
                4..=6 => {
                    let v = rng.gen::<u64>();
                    let fresh = idx.insert(key, v);
                    assert_eq!(fresh, model.insert(key, v).is_none(), "insert {ctx}");
                }
                7 => {
                    let v = rng.gen::<u64>();
                    let hit = idx.update(key, v);
                    let model_hit = model.get_mut(&key).map(|slot| *slot = v).is_some();
                    assert_eq!(hit, model_hit, "update {ctx}");
                }
                8 => {
                    assert_eq!(idx.remove(key), model.remove(&key), "remove {ctx}");
                }
                _ => {
                    let count = rng.gen_range(1..200usize);
                    let mut got = Vec::new();
                    idx.range(RangeSpec::new(key, count), &mut got);
                    let want: Vec<(u64, Payload)> = model
                        .range(key..)
                        .take(count)
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    assert_eq!(got, want, "range {ctx}");
                }
            }
        }
        assert_eq!(idx.len(), model.len(), "{name} final len");
    }
}

/// Scans that start in one shard and end in another must stitch seamlessly,
/// for both backends.
#[test]
fn cross_shard_range_scans_stitch_in_key_order() {
    for (name, factory) in backends() {
        let mut idx = build(Partitioner::range(8), factory);
        let bulk: Vec<(u64, Payload)> = (0..8_000u64).map(|i| (i * 3, i)).collect();
        idx.bulk_load(&bulk);

        // Whole-domain scan: every key, in order, exactly once.
        let mut out = Vec::new();
        let got = idx.range(RangeSpec::new(0, 8_000), &mut out);
        assert_eq!(got, 8_000, "{name}");
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(out.first().unwrap().0, 0);
        assert_eq!(out.last().unwrap().0, 7_999 * 3);

        // A window straddling the middle of the key space.
        let mut out = Vec::new();
        let got = idx.range(RangeSpec::new(4_000 * 3 + 1, 1_000), &mut out);
        assert_eq!(got, 1_000, "{name}");
        assert_eq!(out.first().unwrap().0, 4_001 * 3);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
    }
}

/// The batch pipeline under multi-threaded submission: every submitted write
/// must land exactly once (no lost updates), and per-shard FIFO must make
/// same-key histories deterministic per submitter.
#[test]
fn pipeline_hammer_loses_no_updates() {
    for (name, factory) in backends() {
        let mut idx = build(Partitioner::range(8), factory);
        let bulk: Vec<(u64, Payload)> = (0..4_000u64).map(|i| (i * 2, i)).collect();
        idx.bulk_load(&bulk);
        let pipeline = ShardPipeline::new(Arc::new(idx), 4);

        let submitters = 4u64;
        let batches = 25u64;
        let per_batch = 40u64;
        std::thread::scope(|s| {
            let pipeline = &pipeline;
            for t in 0..submitters {
                s.spawn(move || {
                    for b in 0..batches {
                        // Disjoint fresh keys per (submitter, batch), plus an
                        // update to a private key whose last batch must win.
                        let base = 1_000_000 + t * 1_000_000 + b * per_batch;
                        let mut ops: Vec<Op> =
                            (0..per_batch).map(|i| Op::Insert(base + i, t)).collect();
                        ops.push(Op::Insert(500_000 + t, b));
                        let r = Tally::of(&pipeline.submit(OpBatch::new(ops)).wait());
                        assert_eq!(r.new_keys, per_batch + u64::from(b == 0));
                    }
                });
            }
        });

        let index = pipeline.index();
        let expected = 4_000 + submitters * batches * per_batch + submitters;
        assert_eq!(index.len() as u64, expected, "{name}: lost updates");
        for t in 0..submitters {
            for b in (0..batches * per_batch).step_by(37) {
                let k = 1_000_000 + t * 1_000_000 + b;
                assert_eq!(index.get(k), Some(t), "{name} key {k}");
            }
            // Per-submitter FIFO: the last batch's update is the survivor.
            assert_eq!(index.get(500_000 + t), Some(batches - 1), "{name}");
        }
    }
}

/// Sharding must not corrupt merged bookkeeping: len / memory / meta stay
/// consistent with the sum of the parts while shards take writes.
#[test]
fn merged_reporting_stays_consistent_under_writes() {
    let mut idx = build(Partitioner::range(4), || Box::new(AlexPlus::<u64>::new()));
    let bulk: Vec<(u64, Payload)> = (0..2_000u64).map(|i| (i * 5, i)).collect();
    idx.bulk_load(&bulk);
    for i in 0..500u64 {
        idx.insert(i * 5 + 1, i);
    }
    let per_shard: usize = idx.per_shard_lens().iter().sum();
    assert_eq!(per_shard, idx.len());
    assert_eq!(idx.len(), 2_500);
    assert!(idx.memory_usage() > 0);
    let meta = idx.meta();
    assert!(meta.concurrent);
    assert!(meta.learned, "all-ALEX+ composite is a learned index");
}
