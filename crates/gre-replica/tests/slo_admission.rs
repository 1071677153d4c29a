//! SLO-driven admission: reads are redirected off a replica whose
//! published p99 breaches the target, and shed with
//! `IndexError::Overloaded` when every replica is in breach — with both
//! outcomes surfaced on the driver's `PhaseResult` and counted in
//! telemetry.

use gre_core::ConcurrentIndex;
use gre_durability::util::TempDir;
use gre_durability::SyncPolicy;
use gre_learned::AlexPlus;
use gre_replica::{ReplicatedTarget, SloTarget};
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
use gre_telemetry::CounterId;
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
use gre_workloads::{Driver, ServeTarget};
use std::time::Duration;

type DynBackend = Box<dyn ConcurrentIndex<u64>>;

fn sharded() -> ShardedIndex<u64, DynBackend> {
    ShardedIndex::from_factory(Partitioner::range(4), |_| {
        Box::new(AlexPlus::<u64>::new()) as DynBackend
    })
}

fn read_only() -> Scenario {
    let keys: Vec<u64> = (1..=3_000u64).map(|i| i * 32).collect();
    Scenario::new("slo", 0x51_0AD, &keys).phase(Phase::new(
        "reads",
        Mix::points(1, 0, 0, 0),
        KeyDist::Uniform,
        Span::Ops(4_000),
        Pacing::ClosedLoop { threads: 2 },
    ))
}

/// A target whose SLO interval never closes during the test, so breach
/// bits stay exactly where `publish_for_test` put them.
fn slo_target(replicas: usize) -> (TempDir, ReplicatedTarget<DynBackend>) {
    let tmp = TempDir::new("slo-admission");
    let primary = PipelineTarget::new(sharded(), 2, 64, 0)
        .durable(tmp.path(), SyncPolicy::EveryGroup)
        .instrumented();
    let target = ReplicatedTarget::new(primary, |_| Box::new(AlexPlus::<u64>::new()) as DynBackend)
        .with_replicas(replicas)
        .with_slo(SloTarget::p99(1_000_000).with_interval(Duration::from_secs(3600)));
    (tmp, target)
}

#[test]
fn breached_replica_is_redirected_around() {
    let (_tmp, mut target) = slo_target(2);
    target.load(&[]);
    // Put replica 0 over the 1 ms target; replica 1 stays healthy.
    target.nodes()[0]
        .slo()
        .expect("slo configured")
        .publish_for_test(5_000_000);

    let result = Driver::new().run(&read_only(), &mut target);
    let phase = &result.phases[0];
    assert_eq!(phase.ops(), 4_000);
    assert_eq!(phase.tally.errors, 0, "redirects do not fail reads");
    assert_eq!(phase.shed(), 0, "a healthy replica exists, nothing sheds");
    assert!(
        phase.redirected() > 0,
        "reads routed to replica 0 were redirected to the healthy one"
    );
    // Telemetry counted the same redirects the driver saw.
    let snap = target.telemetry().expect("instrumented").snapshot();
    assert_eq!(snap.counter(CounterId::ReadsRedirected), phase.redirected());
    assert_eq!(snap.counter(CounterId::ReadsShed), 0);
}

#[test]
fn fully_breached_replica_set_sheds_reads() {
    let (_tmp, mut target) = slo_target(2);
    target.load(&[]);
    for node in target.nodes() {
        node.slo()
            .expect("slo configured")
            .publish_for_test(5_000_000);
    }

    let result = Driver::new().run(&read_only(), &mut target);
    let phase = &result.phases[0];
    assert_eq!(phase.ops(), 4_000, "shed ops still complete (as errors)");
    assert!(phase.shed() > 0, "admission control shed reads");
    assert_eq!(
        phase.shed(),
        phase.tally.errors,
        "every error is a shed on a read-only mix"
    );
    assert!(
        phase.shed() < 4_000,
        "probe batches keep trickling traffic through the breach"
    );
    assert_eq!(phase.redirected(), 0, "no healthy replica to redirect to");
    let snap = target.telemetry().expect("instrumented").snapshot();
    assert_eq!(snap.counter(CounterId::ReadsShed), phase.shed());
}

#[test]
fn no_slo_means_no_admission_control() {
    let tmp = TempDir::new("slo-off");
    let mut target = ReplicatedTarget::new(
        PipelineTarget::new(sharded(), 2, 64, 0).durable(tmp.path(), SyncPolicy::EveryGroup),
        |_| Box::new(AlexPlus::<u64>::new()) as DynBackend,
    )
    .with_replicas(2);
    let result = Driver::new().run(&read_only(), &mut target);
    let phase = &result.phases[0];
    assert_eq!(phase.tally.errors, 0);
    assert_eq!(phase.shed(), 0);
    assert_eq!(phase.redirected(), 0);
    assert!(target.nodes()[0].slo().is_none());
}
