//! Cross-target model equivalence for the scenario engine: the same seeded
//! [`Scenario`] driven through the bare sharded composite and served through
//! the batched pipeline, one session per client with in-flight windows 0
//! (submit-then-wait) and 8 (pipelined), must leave identical final index
//! contents, and those contents must match a `BTreeMap` model fed the same
//! generated op streams.
//!
//! The scenario's writes are *commutative by construction* (inserts and
//! updates both store the canonical `payload_for(key)`, and no phase
//! removes), so the final contents are independent of cross-thread
//! interleaving: any divergence between targets is a real serving-layer
//! bug, not scheduling noise.

mod common;

use common::{client_budget, serve_scenario};
use gre_core::{ConcurrentIndex, Payload, RangeSpec};
use gre_learned::AlexPlus;
use gre_shard::{Partitioner, ShardPipeline, ShardedIndex};
use gre_traditional::btree_olc;
use gre_workloads::payload_for;
use gre_workloads::{phase_stream, KeyDist, Mix, Phase, Scenario};
use gre_workloads::{Driver, Op};
use std::collections::BTreeMap;
use std::sync::Arc;

type DynBackend = Box<dyn ConcurrentIndex<u64>>;
type BackendFactory = fn() -> DynBackend;

fn backends() -> Vec<(&'static str, BackendFactory)> {
    vec![
        ("ALEX+", || Box::new(AlexPlus::<u64>::new())),
        ("B+tree/p64", || Box::new(btree_olc::<u64>())),
    ]
}

fn sharded(factory: BackendFactory) -> ShardedIndex<u64, DynBackend> {
    ShardedIndex::from_factory(Partitioner::range(4), |_| factory())
}

/// Two pipeline workers over a fresh composite loaded with `scenario.bulk`.
fn pipeline(factory: BackendFactory, scenario: &Scenario) -> ShardPipeline<DynBackend> {
    let mut index = sharded(factory);
    index.bulk_load(&scenario.bulk);
    ShardPipeline::new(Arc::new(index), 2)
}

/// A two-phase script mixing lookups, commutative writes, and cross-shard
/// scans, with the hotspot drifting between phases.
fn scenario() -> Scenario {
    let keys: Vec<u64> = (1..=6_000u64).map(|i| i * 32).collect();
    Scenario::new("equivalence", 0xC0FFEE, &keys)
        .phase(Phase::new(
            "warm",
            Mix::points(4, 2, 1, 0).with_range(1, 24),
            KeyDist::Hotspot {
                start: 0.1,
                span: 0.1,
                hot_access: 0.8,
            },
            8_000,
            3,
        ))
        .phase(Phase::new(
            "shifted",
            Mix::points(2, 3, 1, 0).with_range(1, 24),
            KeyDist::Hotspot {
                start: 0.6,
                span: 0.1,
                hot_access: 0.8,
            },
            8_000,
            3,
        ))
}

/// Every key/payload pair stored by a target, via a full cross-shard scan.
fn contents(index: &ShardedIndex<u64, DynBackend>, name: &str) -> Vec<(u64, Payload)> {
    let mut out = Vec::new();
    let got = index.range(RangeSpec::new(0, index.len() + 1_000), &mut out);
    assert_eq!(got, index.len(), "{name}: scan covers the whole store");
    out
}

/// The model: apply every generated write, order-free (the scenario's
/// writes commute), replicating the driver's per-thread budget split.
fn model_contents(scenario: &Scenario) -> Vec<(u64, Payload)> {
    let mut model: BTreeMap<u64, Payload> = scenario.bulk.iter().copied().collect();
    let keys = Arc::new(scenario.loaded_keys());
    for (pi, phase) in scenario.phases.iter().enumerate() {
        let threads = phase.threads;
        for t in 0..threads {
            let mut stream = phase_stream(scenario, &keys, pi, phase, t, threads);
            for _ in 0..client_budget(phase, t) {
                match stream.next_op().expect("synthetic streams are infinite") {
                    Op::Insert(k, v) => {
                        model.insert(k, v);
                    }
                    Op::Update(k, v) => {
                        if let Some(slot) = model.get_mut(&k) {
                            *slot = v;
                        }
                    }
                    Op::Remove(_) => panic!("equivalence scenario must not remove"),
                    Op::Get(_) | Op::Range(_) => {}
                }
            }
        }
    }
    model.into_iter().collect()
}

#[test]
fn same_scenario_yields_identical_contents_across_all_three_targets() {
    let scenario = scenario();
    let expected = model_contents(&scenario);
    let total_ops: u64 = 16_000;

    for (name, factory) in backends() {
        // Bare composite: driver threads hit the ConcurrentIndex directly.
        let mut bare = sharded(factory);
        let bare_result = Driver::new().run(&scenario, &mut bare);
        assert_eq!(bare_result.total_ops(), total_ops, "{name}/bare");
        let bare_contents = contents(&bare, name);

        assert_eq!(bare_contents, expected, "{name}: bare vs model");
        for pb in &bare_result.phases {
            assert_eq!(pb.tally.errors, 0, "{name}/{}", pb.phase);
        }

        // The batched pipeline, submit-then-wait and with up to 8 batches
        // in flight per client.
        for window in [0, 8] {
            let pipeline = pipeline(factory, &scenario);
            let tallies = serve_scenario(&pipeline, &scenario, 256, window);
            let served: u64 = tallies.iter().map(|t| t.ops).sum();
            assert_eq!(served, total_ops, "{name}/window {window}");
            let got = contents(pipeline.index(), name);
            assert_eq!(got, expected, "{name}: window {window} vs model");

            // All per-phase tallies agree with the bare run: the same
            // offered traffic produced the same typed outcomes.
            for (pb, pt) in bare_result.phases.iter().zip(&tallies) {
                let at = format!("{name}/window {window}/{}", pb.phase);
                assert_eq!(pb.tally.new_keys, pt.new_keys, "{at}");
                assert_eq!(pt.errors, 0, "{at}");
            }
        }
    }
}

#[test]
fn payloads_are_canonical_after_any_interleaving() {
    // Spot-check the commutativity premise itself: every stored payload is
    // the canonical function of its key, whichever write landed last.
    let scenario = scenario();
    let pipeline = pipeline(backends()[0].1, &scenario);
    serve_scenario(&pipeline, &scenario, 128, 4);
    for (k, v) in contents(pipeline.index(), "ALEX+") {
        assert_eq!(v, payload_for(k), "key {k}");
    }
}
