//! Telemetry/client reconciliation: the workers' completed-ops counter and
//! the clients' [`Tally`] of their responses count the same operations from
//! opposite ends of the pipeline, so after a drained run they must match
//! *exactly*, and every executed sub-batch leaves one service-time sample —
//! for every backend, submit-then-wait and pipelined.

mod common;

use common::serve_scenario;
use gre_core::{ConcurrentIndex, Tally};
use gre_learned::AlexPlus;
use gre_shard::{Partitioner, ShardPipeline, ShardedIndex, DEFAULT_QUEUE_CAPACITY};
use gre_telemetry::{
    CounterId, GlobalHistId, MetricsSnapshot, ShardHistId, Telemetry, TelemetryConfig,
};
use gre_traditional::btree_olc;
use gre_workloads::{KeyDist, Mix, Phase, Scenario};
use std::sync::Arc;

type DynBackend = Box<dyn ConcurrentIndex<u64>>;
type BackendFactory = fn() -> DynBackend;

const SHARDS: usize = 4;
const WORKERS: usize = 2;

fn backends() -> Vec<(&'static str, BackendFactory)> {
    vec![
        ("ALEX+", || Box::new(AlexPlus::<u64>::new())),
        ("B+tree/p64", || Box::new(btree_olc::<u64>())),
    ]
}

/// An instrumented pipeline of two workers over four range shards loaded
/// with `bulk`; its registry has one counter stripe per worker plus one for
/// submitters, and its tracer samples one op in `trace_sample_one_in` into
/// a ring of `trace_capacity` slots (0 turns tracing off).
fn instrumented(
    factory: BackendFactory,
    bulk: &[(u64, u64)],
    trace_capacity: usize,
    trace_sample_one_in: u64,
) -> ShardPipeline<DynBackend> {
    let mut index = ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| factory());
    index.bulk_load(bulk);
    let telemetry = Telemetry::new(TelemetryConfig {
        shards: SHARDS,
        writers: WORKERS + 1,
        trace_capacity,
        trace_sample_one_in,
    });
    ShardPipeline::with_services(
        Arc::new(index),
        WORKERS,
        DEFAULT_QUEUE_CAPACITY,
        Some(Arc::new(telemetry)),
        None,
    )
}

/// A seeded two-phase mixed scenario: hits and misses, fresh inserts,
/// updates, removes, and cross-shard scans.
fn scenario() -> Scenario {
    let keys: Vec<u64> = (1..=5_000u64).map(|i| i * 32).collect();
    let mix = Mix::points(4, 2, 1, 1).with_range(1, 16);
    Scenario::new("telemetry-reconcile", 0x7E1E, &keys)
        .phase(Phase::new(
            "hot",
            mix,
            KeyDist::Hotspot {
                start: 0.2,
                span: 0.1,
                hot_access: 0.8,
            },
            6_000,
            3,
        ))
        .phase(Phase::new("uniform", mix, KeyDist::Uniform, 6_000, 2))
}

fn merged_tally(phases: &[Tally]) -> Tally {
    let mut tally = Tally::default();
    for p in phases {
        tally.merge(p);
    }
    tally
}

/// Check that a drained pipeline's snapshot agrees *exactly* with the
/// clients' tally of the responses served through it, and that every
/// executed sub-batch left one service-time sample. `tally` must cover every
/// phase served since the telemetry was attached.
fn reconcile(snap: &MetricsSnapshot, tally: &Tally, name: &str) {
    assert_eq!(
        snap.counter(CounterId::OpsCompleted),
        tally.ops,
        "{name}: completed ops against the client tally"
    );
    let service_samples: u64 = snap
        .shards
        .iter()
        .map(|s| s.hist(ShardHistId::ServiceNs).count())
        .sum();
    assert_eq!(
        service_samples,
        snap.counter(CounterId::SubBatchesExecuted),
        "{name}: one service sample per sub-batch"
    );
}

#[test]
fn pipeline_counters_reconcile_with_driver_tally() {
    for (name, factory) in backends() {
        let scenario = scenario();
        let pipeline = instrumented(factory, &scenario.bulk, 4096, 32);
        let tally = merged_tally(&serve_scenario(&pipeline, &scenario, 128, 0));
        assert_eq!(tally.ops, 12_000, "{name}: every op completes");
        assert!(tally.hits > 0 && tally.new_keys > 0, "{name}: {tally:?}");
        assert!(tally.scanned_keys > 0, "{name}: {tally:?}");

        let t = pipeline.telemetry().expect("instrumented");
        let snap = t.snapshot();
        reconcile(&snap, &tally, name);
        // The 1-in-32 sampler left spans in the ring.
        assert!(t.trace().expect("tracing on").recorded() > 0, "{name}");
        // Every submit samples the in-flight occupancy, counting the batch
        // just submitted: window 0 is submit-then-wait.
        let occupancy = snap.global(GlobalHistId::SessionWindow);
        assert!(occupancy.count() > 0, "{name}");
        assert_eq!(occupancy.max(), 1, "{name}: window 0 is submit-then-wait");

        // Batches were split into per-shard sub-batches.
        assert!(snap.counter(CounterId::BatchesSubmitted) > 0, "{name}");
        assert!(
            snap.counter(CounterId::SubBatchesExecuted)
                >= snap.counter(CounterId::BatchesSubmitted),
            "{name}: each batch yields at least one sub-batch"
        );
    }
}

#[test]
fn session_counters_reconcile_and_record_the_window() {
    for (name, factory) in backends() {
        let scenario = scenario();
        let pipeline = instrumented(factory, &scenario.bulk, 0, 1);
        let tally = merged_tally(&serve_scenario(&pipeline, &scenario, 96, 3));
        assert_eq!(tally.ops, 12_000, "{name}: every op completes");

        let t = pipeline.telemetry().expect("instrumented");
        let snap = t.snapshot();
        reconcile(&snap, &tally, name);
        assert!(t.trace().is_none(), "{name}: tracer disabled");

        // Every submitted batch records the session's in-flight occupancy:
        // at most the window of 3 plus the batch just submitted.
        let window = snap.global(GlobalHistId::SessionWindow);
        assert_eq!(
            window.count(),
            snap.counter(CounterId::BatchesSubmitted),
            "{name}"
        );
        assert!(
            window.max() <= 4,
            "{name}: occupancy {} exceeds the window of 3 plus one",
            window.max()
        );
    }
}
