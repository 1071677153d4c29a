//! Telemetry/driver reconciliation: the worker-side outcome counters and
//! the driver-side [`Tally`] classify the same responses from opposite ends
//! of the pipeline, so after a drained run every pair must match *exactly*
//! — for every backend and both serving paths.

use gre_core::ConcurrentIndex;
use gre_learned::AlexPlus;
use gre_shard::{reconcile_tally, Partitioner, PipelineTarget, ShardedIndex};
use gre_telemetry::{CounterId, GaugeId, GlobalHistId, ShardHistId};
use gre_traditional::btree_olc;
use gre_workloads::driver::Tally;
use gre_workloads::scenario::{KeyDist, Mix, Phase, Scenario};
use gre_workloads::Driver;

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

fn merged_tally(phases: &[gre_workloads::driver::PhaseResult]) -> Tally {
    let mut tally = Tally::default();
    for p in phases {
        tally.merge(&p.tally);
    }
    tally
}

#[test]
fn pipeline_counters_reconcile_with_driver_tally() {
    for (name, factory) in backends() {
        let mut target = PipelineTarget::new(sharded(factory), 2, 128, 0)
            .instrumented_with(|c| c.trace_sample(32));
        let result = Driver::new().run(&scenario(), &mut target);
        let tally = merged_tally(&result.phases);
        assert_eq!(tally.ops, 12_000, "{name}: every op completes");

        let snap = target.telemetry().expect("instrumented").snapshot();
        reconcile_tally(&snap, &tally).unwrap_or_else(|e| panic!("{name}: {e}"));

        // Structural counters: batches were split into per-shard sub-batches
        // and nothing is left in flight after the drain.
        assert!(snap.counter(CounterId::BatchesSubmitted) > 0, "{name}");
        assert!(
            snap.counter(CounterId::SubBatchesExecuted)
                >= snap.counter(CounterId::BatchesSubmitted),
            "{name}: each batch yields at least one sub-batch"
        );
        assert!(snap.counter(CounterId::RangeScans) > 0, "{name}");
        for (s, shard) in snap.shards.iter().enumerate() {
            assert_eq!(shard.gauge(GaugeId::QueueDepth), 0, "{name} shard {s}");
            assert_eq!(shard.gauge(GaugeId::InFlightOps), 0, "{name} shard {s}");
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
        let mut target = PipelineTarget::new(sharded(factory), 2, 96, 3)
            .instrumented_with(|c| c.without_trace());
        let result = Driver::new().run(&scenario(), &mut target);
        let tally = merged_tally(&result.phases);

        let t = target.telemetry().expect("instrumented");
        let snap = t.snapshot();
        reconcile_tally(&snap, &tally).unwrap_or_else(|e| panic!("{name}: {e}"));
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
    let mut target = PipelineTarget::new(sharded(|| Box::new(AlexPlus::<u64>::new())), 2, 128, 0)
        .instrumented_with(|c| c.without_trace());
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
        // Loading is idempotent: the second run serves the same store.
        Driver::new().run(&scenario, &mut target);
        let snap = target.telemetry().expect("instrumented").snapshot();
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
