//! Migration equivalence under live traffic: a seeded scenario drives
//! concurrent mixed read/write traffic through a [`PipelineTarget`] while a
//! side thread forces shard splits and merges mid-phase, and the final
//! contents must still match a `BTreeMap` model fed the same op streams —
//! no key lost or duplicated by any drain-and-handoff, and the pipelined
//! sessions' FIFO per-op response accounting intact (zero typed errors).
//!
//! As in the `scenario_driver` equivalence suite, the scenario's writes are
//! commutative by construction (inserts and updates both store the
//! canonical `payload_for(key)`, and no phase removes), so the final state
//! is independent of cross-thread interleaving: any divergence is a real
//! serving- or migration-layer bug, not scheduling noise.

use gre_core::{ConcurrentIndex, Payload, RangeSpec};
use gre_elastic::{ElasticController, ElasticPolicy};
use gre_learned::AlexPlus;
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
use gre_traditional::btree_olc;
use gre_workloads::driver::ServeTarget;
use gre_workloads::scenario::{phase_stream, KeyDist, Mix, Pacing, Phase, Scenario, Span};
use gre_workloads::{Driver, Op};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 4;
const OPS_PER_PHASE: u64 = 60_000;

type DynBackend = Box<dyn ConcurrentIndex<u64>>;
type BackendFactory = fn() -> DynBackend;

fn backends() -> Vec<(&'static str, BackendFactory)> {
    vec![
        ("ALEX+", || Box::new(AlexPlus::<u64>::new())),
        ("B+tree/p64", || Box::new(btree_olc::<u64>())),
    ]
}

fn sharded(factory: BackendFactory) -> ShardedIndex<u64, DynBackend> {
    ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| factory())
}

/// Two phases of mixed point/range traffic whose hotspot drifts between
/// phases — the same shape the elasticity controller is built to chase.
fn scenario() -> Scenario {
    let keys: Vec<u64> = (1..=6_000u64).map(|i| i * 32).collect();
    Scenario::new("elastic-equivalence", 0xE1A5_71C0, &keys)
        .phase(Phase::new(
            "warm",
            Mix::points(4, 2, 1, 0).with_range(1, 24),
            KeyDist::Hotspot {
                start: 0.1,
                span: 0.15,
                hot_access: 0.85,
            },
            Span::Ops(OPS_PER_PHASE),
            Pacing::ClosedLoop { threads: 3 },
        ))
        .phase(Phase::new(
            "shifted",
            Mix::points(2, 3, 1, 0).with_range(1, 24),
            KeyDist::Hotspot {
                start: 0.65,
                span: 0.15,
                hot_access: 0.85,
            },
            Span::Ops(OPS_PER_PHASE),
            Pacing::ClosedLoop { threads: 3 },
        ))
}

/// Every key/payload pair stored by the target, via a full cross-shard scan.
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
        let Pacing::ClosedLoop { threads } = phase.pacing else {
            panic!("model replay only supports closed-loop op budgets")
        };
        let Span::Ops(total) = phase.span else {
            panic!("model replay only supports op-count spans")
        };
        let base = total / threads as u64;
        let extra = (total % threads as u64) as usize;
        for t in 0..threads {
            let budget = base + u64::from(t < extra);
            let mut stream = phase_stream(scenario, &keys, pi, phase, t, threads);
            for _ in 0..budget {
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
fn forced_splits_and_merges_under_live_sessions_preserve_model_equivalence() {
    let scenario = scenario();
    let expected = model_contents(&scenario);

    for (name, factory) in backends() {
        let mut target = PipelineTarget::new(sharded(factory), 2, 128, 8);
        // Pre-load so the pipeline exists before the driver starts (the
        // driver's own load call is idempotent) and the controller can be
        // pointed at it.
        target.load(&scenario.bulk);
        let pipeline = target
            .pipeline_handle()
            .expect("loaded target has a pipeline");
        let controller = ElasticController::new(pipeline, ElasticPolicy::default());
        let stop = AtomicBool::new(false);

        let (result, splits, merges) = std::thread::scope(|s| {
            // Churn the topology for the whole run: repeated forced splits
            // spread segments out, forced merges fold them back, each one a
            // full freeze/drain/extract/absorb/swap cycle racing the
            // sessions. Rejections (nothing left to split/merge, or a plan
            // raced a concurrent freeze) are expected and ignored.
            let forcer = s.spawn(|| {
                let mut splits = 0u32;
                let mut merges = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    for shard in 0..SHARDS {
                        if controller.split_hot(shard).is_ok() {
                            splits += 1;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                    for shard in 0..SHARDS {
                        if controller.merge_coldest(shard).is_ok() {
                            merges += 1;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                (splits, merges)
            });
            let result = Driver::new().run(&scenario, &mut target);
            stop.store(true, Ordering::Relaxed);
            let (splits, merges) = forcer.join().expect("forcer panicked");
            (result, splits, merges)
        });

        assert_eq!(
            result.total_ops(),
            2 * OPS_PER_PHASE,
            "{name}: every offered op completed"
        );
        for phase in &result.phases {
            assert_eq!(
                phase.tally.errors, 0,
                "{name}/{}: typed errors",
                phase.phase
            );
        }
        assert!(splits >= 1, "{name}: at least one forced split landed");
        assert!(merges >= 1, "{name}: at least one forced merge landed");
        assert_eq!(
            controller.changes().len(),
            (splits + merges) as usize,
            "{name}: every successful change was journalled"
        );
        assert_eq!(
            contents(target.index(), name),
            expected,
            "{name}: final contents match the BTreeMap model"
        );
    }
}
