//! Kill-window robustness: a replica whose shipper crashes mid-stream (via
//! a scripted `gre-durability` failpoint) re-joins by resuming the WAL from
//! its last applied watermark, and ends byte-identical to the primary with
//! no record lost and none applied twice.

use gre_core::{ConcurrentIndex, Payload, RangeSpec};
use gre_durability::util::TempDir;
use gre_durability::{FailAction, FailpointRegistry, SyncPolicy, Trigger};
use gre_learned::AlexPlus;
use gre_replica::{apply_failpoint, ReplicatedTarget};
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
use gre_workloads::Driver;
use std::sync::Arc;
use std::time::{Duration, Instant};

type DynBackend = Box<dyn ConcurrentIndex<u64>>;

fn sharded() -> ShardedIndex<u64, DynBackend> {
    ShardedIndex::from_factory(Partitioner::range(4), |_| {
        Box::new(AlexPlus::<u64>::new()) as DynBackend
    })
}

fn write_heavy() -> Scenario {
    let keys: Vec<u64> = (1..=4_000u64).map(|i| i * 64).collect();
    Scenario::new("kill-window", 0xDEADBEA7, &keys).phase(Phase::new(
        "churn",
        Mix::points(1, 4, 2, 1),
        KeyDist::Uniform,
        Span::Ops(10_000),
        Pacing::ClosedLoop { threads: 3 },
    ))
}

fn contents(index: &ShardedIndex<u64, DynBackend>, who: &str) -> Vec<(u64, Payload)> {
    let mut out = Vec::new();
    let got = index.range(RangeSpec::new(0, index.len() + 1_000), &mut out);
    assert_eq!(got, index.len(), "{who}: scan covers the whole store");
    out
}

#[test]
fn crashed_replica_rejoins_from_its_watermark_without_loss_or_duplication() {
    const CRASH_AFTER: u64 = 25;
    let failpoints = FailpointRegistry::new();
    failpoints.script(
        &apply_failpoint(0),
        Trigger::OnHit(CRASH_AFTER),
        FailAction::Crash,
    );

    let tmp = TempDir::new("kill-rejoin");
    let mut target = ReplicatedTarget::new(
        PipelineTarget::new(sharded(), 2, 128, 0).durable(tmp.path(), SyncPolicy::EveryGroup),
        |_| Box::new(AlexPlus::<u64>::new()) as DynBackend,
    )
    .with_replicas(2)
    .with_failpoints(Arc::clone(&failpoints));

    Driver::new().run(&write_heavy(), &mut target);

    // The scripted crash fired, killing replica 0's shipper mid-stream
    // while replica 1 kept applying.
    let name = apply_failpoint(0);
    assert!(failpoints.fired(&name), "failpoint fired during the run");
    let deadline = Instant::now() + Duration::from_secs(10);
    while target.nodes()[0].is_running() {
        assert!(Instant::now() < deadline, "crashed shipper exits");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(target.nodes()[0].applied_records(), CRASH_AFTER);

    // Survivor catches up; the crashed replica is frozen strictly behind.
    target.quiesce();
    let survivor_records = target.nodes()[1].applied_records();
    assert!(
        survivor_records > CRASH_AFTER,
        "crash landed mid-stream: survivor applied {survivor_records} > {CRASH_AFTER}"
    );
    assert!(
        target.nodes()[0].watermark().total_lag(&target.committed()) > 0,
        "crashed replica is behind before the re-join"
    );

    // Re-join: resume shipping from replica 0's own watermark.
    target.rejoin_replica(0).expect("rejoin");
    target.quiesce();

    let primary = contents(target.primary().index(), "primary");
    for node in target.nodes() {
        assert!(node.is_running(), "replica {} shipping again", node.id());
        assert_eq!(
            contents(node.index(), "replica"),
            primary,
            "replica {} state equals primary after re-join",
            node.id()
        );
    }
    // Exactly-once: across crash + re-join, replica 0 applied the same
    // record and op counts as the replica that never crashed — nothing
    // was skipped (loss) and nothing replayed twice (duplication).
    assert_eq!(
        target.nodes()[0].applied_records(),
        target.nodes()[1].applied_records(),
        "record counts agree across the crash window"
    );
    assert_eq!(
        target.nodes()[0].applied_ops(),
        target.nodes()[1].applied_ops(),
        "op counts agree across the crash window"
    );
}

#[test]
fn graceful_kill_freezes_and_rejoin_catches_up() {
    // The controlled half of the drill: kill_replica stops shipping
    // cooperatively; writes keep committing; re-join replays the gap.
    let tmp = TempDir::new("kill-graceful");
    let mut target = ReplicatedTarget::new(
        PipelineTarget::new(sharded(), 2, 128, 0).durable(tmp.path(), SyncPolicy::EveryGroup),
        |_| Box::new(AlexPlus::<u64>::new()) as DynBackend,
    )
    .with_replicas(1);

    let scenario = write_heavy();
    Driver::new().run(&scenario, &mut target);
    target.quiesce();
    target.kill_replica(0);
    assert!(!target.nodes()[0].is_running());
    let frozen = target.nodes()[0].watermark().snapshot();

    // More traffic while the replica is down.
    Driver::new().run(&scenario, &mut target);
    let committed = target.committed();
    assert!(
        target.nodes()[0].watermark().total_lag(&committed) > 0,
        "watermark frozen at {frozen:?} while writes advanced to {committed:?}"
    );

    target.rejoin_replica(0).expect("rejoin");
    target.quiesce();
    assert_eq!(
        contents(target.nodes()[0].index(), "replica"),
        contents(target.primary().index(), "primary"),
        "replica equals primary after catching up"
    );
}
