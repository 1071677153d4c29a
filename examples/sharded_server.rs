//! A sharded key-value "server": the `gre-shard` serving layer over ALEX+,
//! serving scripted scenario traffic through the typed client API.
//!
//! Demonstrates the full serving stack in two acts:
//!
//! 1. The raw client surface: an ALEX+ store built by concrete constructor
//!    (`ShardedIndex::from_factory` over `Partitioner::range`), a
//!    `ShardPipeline` answering per-op `Response` values through a
//!    non-blocking `SubmitHandle` polled to completion without ever calling
//!    `wait()`, and cross-shard bounded range scans.
//! 2. Scripted traffic: a two-phase `Scenario` (read-mostly churn, then a
//!    write burst, both over closed-loop clients) served through the same
//!    pipeline, each client thread submitting its seeded op stream in
//!    64-op batches through its own `Session` with up to 8 in flight —
//!    with per-phase throughput and typed outcome counts.
//!
//! Run with `cargo run --release --example sharded_server`.

use gre::learned::AlexPlus;
use gre::shard::{OpBatch, Partitioner, Session, ShardPipeline, ShardedIndex};
use gre_core::{ConcurrentIndex, RangeSpec, Response};
use gre_workloads::scenario::{phase_stream, KeyDist, Mix, Phase, Scenario};
use gre_workloads::{Op, Tally};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 8;
const WORKERS: usize = 4;
/// Ops per batch a client submits.
const BATCH: usize = 64;
/// Batches a client keeps in flight.
const WINDOW: usize = 8;

/// An empty store: one ALEX+ per shard behind a range partitioner, whose
/// boundaries the bulk load fits to the loaded key CDF.
fn alex_plus_store() -> ShardedIndex<u64, AlexPlus<u64>> {
    ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| AlexPlus::new())
}

/// Serve phase `pi` of `scenario` through `pipeline`: each client thread
/// submits its share of the phase's ops, drawn from its seeded stream, in
/// `BATCH`-op batches through its own session, then drains it. Returns the
/// tally of every response and the phase's wall-clock seconds.
fn serve_phase(
    pipeline: &ShardPipeline<AlexPlus<u64>>,
    scenario: &Scenario,
    pi: usize,
) -> (Tally, f64) {
    let phase = &scenario.phases[pi];
    let keys = Arc::new(scenario.loaded_keys());
    let keys = &keys;
    let clients = phase.threads;
    let start = Instant::now();
    let tally = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = phase_stream(scenario, keys, pi, phase, c, clients);
                    let mut session = Session::with_max_inflight(pipeline, WINDOW);
                    let mut left = phase.ops / clients as u64;
                    while left > 0 {
                        let ops: Vec<Op> = (0..left.min(BATCH as u64))
                            .map_while(|_| stream.next_op())
                            .collect();
                        left -= ops.len() as u64;
                        session.submit(OpBatch::new(ops));
                    }
                    let mut tally = Tally::default();
                    for responses in session.drain() {
                        tally.merge(&Tally::of(&responses));
                    }
                    tally
                })
            })
            .collect();
        let mut tally = Tally::default();
        for handle in handles {
            tally.merge(&handle.join().expect("client thread panicked"));
        }
        tally
    });
    (tally, start.elapsed().as_secs_f64())
}

fn main() {
    // ---- Act 1: the raw typed client API ------------------------------
    // Boot a store: 500k keys bulk-loaded into the ALEX+ shards.
    let entries: Vec<(u64, u64)> = (0..500_000u64).map(|i| (i * 4, i)).collect();
    let mut store = alex_plus_store();
    store.bulk_load(&entries);
    println!(
        "serving {} keys as {} ({} shards, per-shard entries {:?})",
        store.len(),
        store.meta().name,
        store.num_shards(),
        store.per_shard_lens()
    );
    let pipeline = ShardPipeline::new(Arc::new(store), WORKERS);

    // A client reading its own typed results through a non-blocking
    // SubmitHandle: no wait() on the hot path — poll try_take and do other
    // work (here: just count the polls) until the responses arrive.
    let mut handle = pipeline.submit(OpBatch::new(vec![
        Op::Get(400_000),                            // loaded key → payload 100_000
        Op::Insert(400_001, 7),                      // fresh odd key
        Op::Get(123_456_789),                        // miss
        Op::Range(RangeSpec::bounded(80, 100, 100)), // bounded window scan
    ]));
    let mut polls = 0u64;
    let responses = loop {
        match handle.try_take() {
            Some(responses) => break responses,
            None => {
                polls += 1;
                std::thread::yield_now();
            }
        }
    };
    assert_eq!(responses[0], Response::Get(Some(100_000)));
    assert_eq!(responses[1], Response::Insert(true));
    assert_eq!(responses[2], Response::Get(None));
    println!(
        "non-blocking handle ready after {polls} polls: \
         get(400000) -> {:?}, insert(400001) -> {:?}, get(miss) -> {:?}",
        responses[0], responses[1], responses[2]
    );
    if let Response::Range(window) = &responses[3] {
        println!("bounded scan [80, 100] -> {window:?}");
        assert!(window.iter().all(|e| (80..=100).contains(&e.0)));
    }

    // A cross-shard scan through the serving layer.
    let store = pipeline.index();
    let mut window = Vec::new();
    let got = store.range(RangeSpec::new(1_000_000, 10), &mut window);
    println!(
        "scan of 10 keys from 1000000 crossed shards in key order: {got} keys, first {:?}",
        window.first()
    );
    assert!(window.windows(2).all(|w| w[0].0 < w[1].0));
    drop(pipeline);

    // ---- Act 2: scripted traffic through client sessions ---------------
    // A fresh serving stack under a phase script: each client thread opens
    // a pipelined Session (64-op batches, up to 8 in flight) and submits
    // its seeded op stream through it.
    let keys: Vec<u64> = (0..500_000u64).map(|i| i * 4).collect();
    let scenario = Scenario::new("serve", 42, &keys)
        .phase(Phase::new(
            "read-mostly churn",
            Mix::read_mostly(10),
            KeyDist::Zipf { theta: 0.99 },
            400_000, // ops
            4,       // clients
        ))
        .phase(Phase::new(
            "write burst",
            Mix::read_mostly(80),
            KeyDist::Uniform,
            50_000,
            2,
        ));
    let mut store = alex_plus_store();
    store.bulk_load(&scenario.bulk);
    let pipeline = ShardPipeline::new(Arc::new(store), WORKERS);

    println!("\nscenario 'serve' over {SHARDS} shards, {WORKERS} workers:");
    let mut new_keys = 0u64;
    for (pi, name) in ["read-mostly churn", "write burst"].into_iter().enumerate() {
        let (tally, secs) = serve_phase(&pipeline, &scenario, pi);
        println!(
            "  {:<22} {:>8} ops {:>7.2} Mop/s  hits={} new keys={} errors={}",
            name,
            tally.ops,
            tally.ops as f64 / secs / 1e6,
            tally.hits,
            tally.new_keys,
            tally.errors,
        );
        assert_eq!(tally.errors, 0, "{name}: every op is served");
        new_keys += tally.new_keys;
    }

    // No lost updates: every accepted insert landed exactly once.
    assert_eq!(
        pipeline.index().len() as u64,
        500_000 + new_keys,
        "inserted ops must all be visible"
    );
    println!(
        "inserted {new_keys} new keys; store now holds {}",
        pipeline.index().len()
    );
}
