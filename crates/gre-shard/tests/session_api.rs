//! Typed client-API tests for the serving layer: per-op [`Response`]
//! equivalence against a `BTreeMap` model through [`Session`], backpressure
//! semantics of bounded shard queues, and drop-mid-flight draining — all
//! over real backends (a learned and a traditional one), seeded so failures
//! reproduce deterministically.

use gre_core::{ConcurrentIndex, IndexError, Payload, RangeSpec, Response};
use gre_learned::AlexPlus;
use gre_shard::{OpBatch, Partitioner, Session, ShardPipeline, ShardedIndex};
use gre_traditional::btree_olc;
use gre_workloads::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Apply one op to the model and produce the response the index must give.
fn model_response(model: &mut BTreeMap<u64, Payload>, op: Op) -> Response<u64> {
    match op {
        Op::Get(k) => Response::Get(model.get(&k).copied()),
        Op::Insert(k, v) => Response::Insert(model.insert(k, v).is_none()),
        Op::Update(k, v) => Response::Update(match model.get_mut(&k) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }),
        Op::Remove(k) => Response::Remove(model.remove(&k)),
        Op::Range(spec) => Response::Range(
            model
                .range(spec.start..)
                .take_while(|(k, _)| spec.end.map_or(true, |e| **k <= e))
                .take(spec.count)
                .map(|(k, v)| (*k, *v))
                .collect(),
        ),
    }
}

fn random_point_op(rng: &mut StdRng) -> Op {
    let key = rng.gen_range(0..40_000u64);
    match rng.gen_range(0..8u32) {
        0..=2 => Op::Get(key),
        3..=4 => Op::Insert(key, rng.gen()),
        5..=6 => Op::Update(key, rng.gen()),
        _ => Op::Remove(key),
    }
}

/// A mixed stream — including bounded and unbounded ranges — through a
/// `Session`, one batch in flight, checked response-by-response against the
/// model. This is the strictest equivalence: every typed `Response` value
/// must match, not just the merged counters.
///
/// Writes and cross-shard ranges are split into separate batches: inside
/// one batch, ops on *different* shards legitimately run concurrently, so a
/// range stitching across shards mid-batch may observe a same-batch write
/// half-applied — deterministic per-op results are only promised across
/// batch boundaries (per-shard FIFO), which is what the stream exercises.
#[test]
fn session_responses_match_btreemap_model_on_mixed_stream() {
    for (name, factory) in backends() {
        let mut idx = build(Partitioner::range(5), factory);
        let mut model: BTreeMap<u64, Payload> = BTreeMap::new();
        let bulk: Vec<(u64, Payload)> = (0..3_000u64).map(|i| (i * 11, i)).collect();
        idx.bulk_load(&bulk);
        model.extend(bulk.iter().copied());

        let pipeline = ShardPipeline::new(Arc::new(idx), 4);
        let mut session = Session::new(&pipeline);
        let mut rng = StdRng::seed_from_u64(0x5e55);
        for round in 0..60 {
            let ops: Vec<Op> = if round % 3 == 2 {
                // A scan batch: bounded and unbounded cross-shard ranges.
                (0..20)
                    .map(|_| {
                        let start = rng.gen_range(0..40_000u64);
                        let count = rng.gen_range(1..150usize);
                        if rng.gen_bool(0.5) {
                            Op::Range(RangeSpec::new(start, count))
                        } else {
                            let end = start + rng.gen_range(0..2_000u64);
                            Op::Range(RangeSpec::bounded(start, end, count))
                        }
                    })
                    .collect()
            } else {
                // A point batch: mixed get/insert/update/remove.
                (0..100).map(|_| random_point_op(&mut rng)).collect()
            };
            let expected: Vec<Response<u64>> = {
                let mut m = Vec::with_capacity(ops.len());
                for &op in &ops {
                    m.push(model_response(&mut model, op));
                }
                m
            };
            session.submit(OpBatch::new(ops));
            let got = session.recv().expect("one batch pending");
            assert_eq!(got, expected, "{name} round {round}");
        }
        assert_eq!(session.pending(), 0);
        assert_eq!(pipeline.index().len(), model.len(), "{name}");
    }
}

/// Point-op streams stay exactly model-equivalent even when fully
/// pipelined: with a single submitter, per-key program order is preserved
/// by per-shard FIFO, so each op's typed response is deterministic although
/// many batches are in flight at once.
#[test]
fn pipelined_point_ops_stay_model_equivalent() {
    for (name, factory) in backends() {
        let mut idx = build(Partitioner::range(8), factory);
        let mut model: BTreeMap<u64, Payload> = BTreeMap::new();
        let bulk: Vec<(u64, Payload)> = (0..3_000u64).map(|i| (i * 11, i)).collect();
        idx.bulk_load(&bulk);
        model.extend(bulk.iter().copied());

        let pipeline = ShardPipeline::new(Arc::new(idx), 4);
        let mut session = Session::with_max_inflight(&pipeline, 8);
        let mut rng = StdRng::seed_from_u64(0x9193);
        let mut expected: Vec<Vec<Response<u64>>> = Vec::new();
        for _ in 0..50 {
            let ops: Vec<Op> = (0..80).map(|_| random_point_op(&mut rng)).collect();
            expected.push(
                ops.iter()
                    .map(|&op| model_response(&mut model, op))
                    .collect(),
            );
            session.submit(OpBatch::new(ops));
        }
        let got = session.drain();
        assert_eq!(got.len(), expected.len(), "{name}");
        for (b, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g, e, "{name} batch {b}");
        }
        assert_eq!(pipeline.index().len(), model.len(), "{name}");
    }
}

/// Saturate tiny bounded queues with `try_submit`: rejected batches come
/// back intact, and every *accepted* op executes exactly once — no accepted
/// work is lost under backpressure.
#[test]
fn backpressure_loses_no_accepted_ops() {
    for (name, factory) in backends() {
        let mut idx = build(Partitioner::range(2), factory);
        let bulk: Vec<(u64, Payload)> = (0..1_000u64).map(|i| (i * 2, i)).collect();
        idx.bulk_load(&bulk);
        let pipeline = ShardPipeline::with_services(Arc::new(idx), 1, 2, None, None);

        let mut handles = Vec::new();
        let mut accepted_keys = Vec::new();
        let mut rejected = 0usize;
        for i in 0..3_000u64 {
            let key = 1_000_000 + i; // fresh keys, outside the bulk domain
            match pipeline.try_submit(OpBatch::new(vec![Op::Insert(key, i)])) {
                Ok(handle) => {
                    accepted_keys.push(key);
                    handles.push(handle);
                }
                Err(bp) => {
                    assert_eq!(bp.batch.ops, vec![Op::Insert(key, i)], "{name}: intact");
                    rejected += 1;
                }
            }
        }
        for handle in handles {
            assert_eq!(handle.wait(), vec![Response::Insert(true)], "{name}");
        }
        assert_eq!(
            pipeline.index().len(),
            bulk.len() + accepted_keys.len(),
            "{name}: accepted ops must all land, rejected ones must not"
        );
        for &key in accepted_keys.iter().step_by(17) {
            assert!(pipeline.index().get(key).is_some(), "{name} key {key}");
        }
        assert!(rejected > 0, "{name}: 2-deep queues must reject a 3k flood");
    }
}

/// An open-loop client — one that submits batches without waiting for
/// their answers — that stops mid-stream with batches still in flight
/// loses no accepted op: waiting out its session window hands back every
/// submitted batch, the store grows by exactly the new keys the responses
/// acknowledge, and no op answers an error.
#[test]
fn open_loop_shutdown_mid_phase_loses_no_accepted_ops() {
    for (name, factory) in backends() {
        let mut idx = build(Partitioner::range(4), factory);
        let bulk: Vec<(u64, Payload)> = (0..4_000u64).map(|i| (i * 16, i)).collect();
        idx.bulk_load(&bulk);
        let bulk_len = idx.len();
        let pipeline = ShardPipeline::new(Arc::new(idx), 2);
        let mut session = Session::with_max_inflight(&pipeline, 8);

        // Insert-heavy 64-op batches for 60 ms. Completions are collected
        // before each submit, never after it, so the stop always leaves the
        // last batch in flight.
        let mut rng = StdRng::seed_from_u64(0xD1E);
        let mut submitted = 0;
        let mut responses = Vec::new();
        let deadline = Instant::now() + Duration::from_millis(60);
        while Instant::now() < deadline {
            while let Some(done) = session.try_recv() {
                responses.extend(done);
            }
            let ops: Vec<Op> = (0..64)
                .map(|_| {
                    let key = rng.gen_range(0..64_000u64);
                    if rng.gen_bool(0.75) {
                        Op::Insert(key, key)
                    } else {
                        Op::Get(key)
                    }
                })
                .collect();
            submitted += ops.len();
            session.submit(OpBatch::new(ops));
        }
        assert!(
            session.pending() > 0,
            "{name}: batches in flight at the stop"
        );
        for done in session.drain() {
            responses.extend(done);
        }

        assert_eq!(responses.len(), submitted, "{name}: every op answers");
        let new_keys = responses
            .iter()
            .filter(|r| matches!(r, Response::Insert(true)))
            .count();
        assert_eq!(
            pipeline.index().len(),
            bulk_len + new_keys,
            "{name}: store growth must match the acknowledged new keys exactly"
        );
        assert!(responses.iter().all(|r| !r.is_error()), "{name}");
    }
}

/// Shutdown is terminal and exact: every submitted op answers either its
/// real typed response (it executed before the shutdown) or
/// `Response::Error(IndexError::Shutdown)` (it was refused) — never
/// silence, never a half-applied write. A submitter can therefore
/// distinguish "drained and completed" from "refused" per operation, and
/// the store grows by exactly the executed inserts.
#[test]
fn shutdown_answers_are_terminal_and_exactly_accounted() {
    for (name, factory) in backends() {
        let mut idx = build(Partitioner::range(4), factory);
        let bulk: Vec<(u64, Payload)> = (0..2_000u64).map(|i| (i * 2, i)).collect();
        idx.bulk_load(&bulk);
        let bulk_len = idx.len();
        let pipeline = ShardPipeline::new(Arc::new(idx), 2);

        let mut handles = Vec::new();
        for i in 0..200u64 {
            if i == 100 {
                pipeline.shutdown();
            }
            handles.push(pipeline.submit(OpBatch::new(vec![Op::Insert(1_000_000 + i, i)])));
        }
        let mut executed = Vec::new();
        let mut refused = 0u64;
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.wait().as_slice() {
                [Response::Insert(true)] => executed.push(1_000_000 + i as u64),
                [Response::Error(IndexError::Shutdown)] => refused += 1,
                other => panic!("{name}: unexpected batch outcome {other:?}"),
            }
        }
        assert_eq!(executed.len() as u64 + refused, 200, "{name}");
        assert!(
            refused >= 100,
            "{name}: every submission after shutdown() must be refused \
             (and queued-but-unexecuted ones may be too)"
        );
        assert_eq!(
            pipeline.index().len(),
            bulk_len + executed.len(),
            "{name}: the store grows by exactly the executed inserts"
        );
        for &key in &executed {
            assert!(pipeline.index().get(key).is_some(), "{name} key {key}");
        }
    }
}

/// Dropping handles, sessions and the pipeline itself mid-flight must drain
/// cleanly: queued work still executes, nothing deadlocks, no op is lost.
#[test]
fn drop_mid_flight_drains_cleanly() {
    for (name, factory) in backends() {
        let mut idx = build(Partitioner::range(4), factory);
        let bulk: Vec<(u64, Payload)> = (0..2_000u64).map(|i| (i * 2, i)).collect();
        idx.bulk_load(&bulk);
        let store;
        {
            let pipeline = ShardPipeline::new(Arc::new(idx), 2);
            // Fire-and-forget handles (blocking submit: acceptance is
            // guaranteed, only the results are discarded)…
            for i in 0..100u64 {
                drop(pipeline.submit(OpBatch::new(vec![Op::Insert(2_000_000 + i, i)])));
            }
            // …and a session dropped with batches still in flight.
            let mut session = Session::with_max_inflight(&pipeline, 16);
            for i in 0..100u64 {
                session.submit(OpBatch::new(vec![Op::Insert(3_000_000 + i, i)]));
            }
            drop(session);
            store = Arc::clone(pipeline.index());
            // The pipeline drops here with jobs still queued.
        }
        assert_eq!(store.len(), 2_000 + 200, "{name}: drop must drain");
        for i in (0..100u64).step_by(7) {
            assert_eq!(store.get(2_000_000 + i), Some(i), "{name}");
            assert_eq!(store.get(3_000_000 + i), Some(i), "{name}");
        }
    }
}
