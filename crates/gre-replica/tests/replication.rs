//! Replica model equivalence: a seeded scenario driven through
//! [`ReplicatedTarget`] must leave every replica byte-identical to the
//! primary once shipping quiesces — across both a learned backend (ALEX+)
//! and a traditional one (B+tree/p64), and under every read policy.

use gre_core::{ConcurrentIndex, Payload, RangeSpec, ReadPolicy};
use gre_durability::util::TempDir;
use gre_durability::SyncPolicy;
use gre_learned::AlexPlus;
use gre_replica::ReplicatedTarget;
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
use gre_traditional::btree_olc;
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
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

/// A two-phase mixed workload: point reads, inserts, updates, removes, and
/// cross-shard scans. Removes are fine here (unlike the cross-*target*
/// equivalence suite): replicas apply the per-shard WAL order, which is by
/// construction the order the primary executed, so replica state must equal
/// primary state whatever the interleaving was.
fn scenario() -> Scenario {
    let keys: Vec<u64> = (1..=5_000u64).map(|i| i * 64).collect();
    Scenario::new("replication", 0xFEED5EED, &keys)
        .phase(Phase::new(
            "mixed",
            Mix::points(5, 2, 1, 1).with_range(1, 16),
            KeyDist::Uniform,
            Span::Ops(8_000),
            Pacing::ClosedLoop { threads: 3 },
        ))
        .phase(Phase::new(
            "read-heavy",
            Mix::points(16, 1, 1, 0).with_range(1, 16),
            KeyDist::Hotspot {
                start: 0.4,
                span: 0.2,
                hot_access: 0.8,
            },
            Span::Ops(8_000),
            Pacing::ClosedLoop { threads: 3 },
        ))
}

/// Every key/payload pair stored, via a full cross-shard scan.
fn contents(index: &ShardedIndex<u64, DynBackend>, who: &str) -> Vec<(u64, Payload)> {
    let mut out = Vec::new();
    let got = index.range(RangeSpec::new(0, index.len() + 1_000), &mut out);
    assert_eq!(got, index.len(), "{who}: scan covers the whole store");
    out
}

#[test]
fn replicas_match_primary_exactly_after_quiesce_across_backends_and_policies() {
    let scenario = scenario();
    for (name, factory) in backends() {
        for policy in ReadPolicy::ALL {
            let tmp = TempDir::new("replication-equivalence");
            let mut target = ReplicatedTarget::new(
                PipelineTarget::new(sharded(factory), 2, 256, 0)
                    .durable(tmp.path(), SyncPolicy::EveryGroup),
                move |_| factory(),
            )
            .with_replicas(3)
            .read_policy(policy);
            let result = Driver::new().run(&scenario, &mut target);
            assert_eq!(result.total_ops(), 16_000, "{name}/{policy}");
            for phase in &result.phases {
                assert_eq!(phase.tally.errors, 0, "{name}/{policy}/{}", phase.phase);
                assert_eq!(phase.shed(), 0, "{name}/{policy}/{}", phase.phase);
            }

            target.quiesce();
            let primary = contents(target.primary().index(), name);
            assert!(!primary.is_empty(), "{name}/{policy}: primary holds data");
            let committed = target.committed();
            assert!(
                committed.iter().any(|&s| s > 0),
                "{name}/{policy}: writes were logged"
            );
            for node in target.nodes() {
                assert!(
                    node.applied_records() > 0,
                    "{name}/{policy}: replica {} shipped records",
                    node.id()
                );
                assert_eq!(
                    node.watermark().snapshot(),
                    committed,
                    "{name}/{policy}: replica {} caught up",
                    node.id()
                );
                let replica = contents(node.index(), name);
                assert_eq!(
                    replica,
                    primary,
                    "{name}/{policy}: replica {} state equals primary",
                    node.id()
                );
            }
        }
    }
}

#[test]
fn all_replicas_apply_the_same_stream() {
    // Every replica consumes the same WAL, so their apply counters must
    // agree exactly with each other once quiesced.
    let scenario = scenario();
    let (_, factory) = backends()[0];
    let tmp = TempDir::new("replication-counters");
    let mut target = ReplicatedTarget::new(
        PipelineTarget::new(sharded(factory), 2, 128, 0)
            .durable(tmp.path(), SyncPolicy::EveryGroup),
        move |_| factory(),
    )
    .with_replicas(2);
    Driver::new().run(&scenario, &mut target);
    target.quiesce();
    let nodes = target.nodes();
    assert_eq!(nodes[0].applied_records(), nodes[1].applied_records());
    assert_eq!(nodes[0].applied_ops(), nodes[1].applied_ops());
    assert!(nodes[0].applied_ops() > 0);
}
