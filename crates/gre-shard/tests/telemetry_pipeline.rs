//! Telemetry/client reconciliation: the worker-side outcome counters and
//! the clients' [`Tally`] of their responses classify the same responses
//! from opposite ends of the pipeline, so after a drained run every pair
//! must match *exactly* — for every backend, submit-then-wait and
//! pipelined.

mod common;

use common::serve_scenario;
use gre_core::ConcurrentIndex;
use gre_learned::AlexPlus;
use gre_shard::{Partitioner, ShardPipeline, ShardedIndex, DEFAULT_QUEUE_CAPACITY};
use gre_telemetry::{
    CounterId, GaugeId, GlobalHistId, MetricsSnapshot, ShardHistId, Telemetry, TelemetryConfig,
};
use gre_traditional::btree_olc;
use gre_workloads::scenario::{KeyDist, Mix, Phase, Scenario};
use gre_workloads::Tally;
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
/// submitters, and `configure` adjusts the tracer.
fn instrumented(
    factory: BackendFactory,
    bulk: &[(u64, u64)],
    configure: impl FnOnce(TelemetryConfig) -> TelemetryConfig,
) -> ShardPipeline<DynBackend> {
    let mut index = ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| factory());
    index.bulk_load(bulk);
    let telemetry = Telemetry::new(configure(TelemetryConfig::new(SHARDS, WORKERS + 1)));
    ShardPipeline::with_services(
        Arc::new(index),
        WORKERS,
        DEFAULT_QUEUE_CAPACITY,
        Some(Arc::new(telemetry)),
        None,
    )
}

/// A seeded two-phase mixed scenario exercising every counter: hits and
/// misses, fresh inserts, updates, removes, and cross-shard scans.
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

/// Check that a telemetry snapshot agrees *exactly* with the clients' tally
/// of the responses served through it: the two count the same outcomes
/// from opposite ends of the pipeline (workers classifying responses vs.
/// clients classifying the responses handed back), so on a drained pipeline
/// every pair must match. Returns the first mismatch. `tally` must cover
/// every phase served since the telemetry was attached.
fn reconcile_tally(snap: &MetricsSnapshot, tally: &Tally) -> Result<(), String> {
    let pairs = [
        (CounterId::OpsSubmitted, tally.ops),
        (CounterId::OpsCompleted, tally.ops),
        (CounterId::GetHits, tally.hits),
        (CounterId::InsertedNew, tally.new_keys),
        (CounterId::Updated, tally.updated),
        (CounterId::Removed, tally.removed),
        (CounterId::ScannedKeys, tally.scanned_keys),
        (CounterId::OpErrors, tally.errors),
    ];
    for (id, expected) in pairs {
        let got = snap.counter(id);
        if got != expected {
            return Err(format!(
                "counter {} = {got}, client tally says {expected}",
                id.name()
            ));
        }
    }
    let per_shard: u64 = snap.shards.iter().map(|s| s.ops_completed).sum();
    if per_shard != tally.ops {
        return Err(format!(
            "per-shard ops_completed sum to {per_shard}, client tally says {}",
            tally.ops
        ));
    }
    Ok(())
}

/// The drained pipeline leaves no residual queue depth or in-flight ops.
fn assert_drained(snap: &MetricsSnapshot, name: &str) {
    for (s, shard) in snap.shards.iter().enumerate() {
        assert_eq!(shard.gauge(GaugeId::QueueDepth), 0, "{name} shard {s}");
        assert_eq!(shard.gauge(GaugeId::InFlightOps), 0, "{name} shard {s}");
    }
}

#[test]
fn pipeline_counters_reconcile_with_driver_tally() {
    for (name, factory) in backends() {
        let scenario = scenario();
        let pipeline = instrumented(factory, &scenario.bulk, |c| c.trace_sample(32));
        let tally = merged_tally(&serve_scenario(&pipeline, &scenario, 128, 0));
        assert_eq!(tally.ops, 12_000, "{name}: every op completes");
        assert!(tally.hits > 0 && tally.new_keys > 0, "{name}: {tally:?}");
        assert!(tally.scanned_keys > 0, "{name}: {tally:?}");

        let t = pipeline.telemetry().expect("instrumented");
        let snap = t.snapshot();
        reconcile_tally(&snap, &tally).unwrap_or_else(|e| panic!("{name}: {e}"));
        // The 1-in-32 sampler left spans in the ring.
        assert!(t.trace().expect("tracing on").recorded() > 0, "{name}");
        assert!(snap.counter(CounterId::TraceSpans) > 0, "{name}");
        // Every submit samples the in-flight occupancy, counting the batch
        // just submitted: window 0 is submit-then-wait.
        let occupancy = snap.global(GlobalHistId::SessionWindow);
        assert!(occupancy.count() > 0, "{name}");
        assert_eq!(occupancy.max(), 1, "{name}: window 0 is submit-then-wait");

        // Structural counters: batches were split into per-shard sub-batches
        // and nothing is left in flight after the drain.
        assert!(snap.counter(CounterId::BatchesSubmitted) > 0, "{name}");
        assert!(
            snap.counter(CounterId::SubBatchesExecuted)
                >= snap.counter(CounterId::BatchesSubmitted),
            "{name}: each batch yields at least one sub-batch"
        );
        assert!(snap.counter(CounterId::RangeScans) > 0, "{name}");
        assert_drained(&snap, name);
        for (s, shard) in snap.shards.iter().enumerate() {
            assert_eq!(
                shard.hist(ShardHistId::SubBatchSize).count(),
                shard.hist(ShardHistId::ServiceNs).count(),
                "{name} shard {s}: one size and one service sample per sub-batch"
            );
        }
        let sub_batches: u64 = snap
            .shards
            .iter()
            .map(|s| s.hist(ShardHistId::SubBatchSize).count())
            .sum();
        assert_eq!(
            sub_batches,
            snap.counter(CounterId::SubBatchesExecuted),
            "{name}"
        );
    }
}

#[test]
fn session_counters_reconcile_and_record_the_window() {
    for (name, factory) in backends() {
        let scenario = scenario();
        let pipeline = instrumented(factory, &scenario.bulk, |c| c.without_trace());
        let tally = merged_tally(&serve_scenario(&pipeline, &scenario, 96, 3));
        assert_eq!(tally.ops, 12_000, "{name}: every op completes");

        let t = pipeline.telemetry().expect("instrumented");
        let snap = t.snapshot();
        reconcile_tally(&snap, &tally).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_drained(&snap, name);
        assert!(t.trace().is_none(), "{name}: tracer disabled");
        assert_eq!(snap.counter(CounterId::TraceSpans), 0, "{name}");

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

/// The per-shard `ops_completed` counters locate the load: over 4 range
/// shards, a read-mostly hotspot (5 % of the keys taking 90 % of the
/// requests) moved from rank 0.05 to rank 0.85 moves the busiest shard from
/// shard 0 to shard 3.
#[test]
fn busiest_shard_follows_the_hotspot_drift() {
    let keys: Vec<u64> = (1..=5_000u64).map(|i| i * 32).collect();
    let bulk = Scenario::new("drift", 0xD41F7, &keys).bulk;
    let pipeline = instrumented(backends()[0].1, &bulk, |c| c.without_trace());
    let mut last = vec![0u64; 4];
    for (start, hot_shard) in [(0.05, 0), (0.85, 3)] {
        let scenario = Scenario::new("drift", 0xD41F7, &keys).phase(Phase::new(
            &format!("hot@{start}"),
            Mix::read_mostly(10),
            KeyDist::Hotspot {
                start,
                span: 0.05,
                hot_access: 0.9,
            },
            6_000,
            2,
        ));
        // Both hotspots are served by the same store.
        serve_scenario(&pipeline, &scenario, 128, 0);
        let snap = pipeline.telemetry().expect("instrumented").snapshot();
        let completed: Vec<u64> = snap.shards.iter().map(|s| s.ops_completed).collect();
        let deltas: Vec<u64> = completed.iter().zip(&last).map(|(c, l)| c - l).collect();
        let busiest = (0..deltas.len())
            .max_by_key(|&s| deltas[s])
            .expect("4 shards");
        assert_eq!(
            busiest, hot_shard,
            "hotspot at {start}: per-shard ops {deltas:?}"
        );
        last = completed;
    }
}
