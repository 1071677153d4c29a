//! Live topology-change tests for the elasticity controller: split, merge,
//! and migrate against a running pipeline — quiesced exactness, concurrent
//! traffic, WAL handoff durability, and the rollback paths.

use gre_core::index::MutexIndex;
use gre_core::{ConcurrentIndex, ModelIndex, Payload, RangeSpec};
use gre_durability::util::TempDir;
use gre_durability::{DurableLog, FailAction, FailpointRegistry, Recovery, SyncPolicy, Trigger};
use gre_elastic::{ElasticController, ElasticError, ElasticPolicy, TopologyKind};
use gre_shard::{OpBatch, Partitioner, ShardPipeline, ShardedIndex, DEFAULT_QUEUE_CAPACITY};
use gre_telemetry::{CounterId, Telemetry};
use std::sync::Arc;

type Op = gre_core::ops::Request<u64>;

/// The reference index behind a mutex: each shard's backend.
type Backend = MutexIndex<ModelIndex>;

fn backend() -> Backend {
    MutexIndex::new(ModelIndex::default(), "model")
}

fn entries(n: u64) -> Vec<(u64, Payload)> {
    (0..n).map(|i| (i * 7, i)).collect()
}

fn pipeline(
    shards: usize,
    n: u64,
    durability: Option<Arc<DurableLog>>,
) -> Arc<ShardPipeline<Backend>> {
    let mut idx = ShardedIndex::from_factory(Partitioner::range(shards), |_| backend());
    idx.bulk_load(&entries(n));
    let telemetry = Telemetry::shared(shards, 3);
    Arc::new(ShardPipeline::with_services(
        Arc::new(idx),
        2,
        DEFAULT_QUEUE_CAPACITY,
        Some(telemetry),
        durability,
    ))
}

fn controller(p: &Arc<ShardPipeline<Backend>>) -> ElasticController<Backend> {
    ElasticController::new(Arc::clone(p), ElasticPolicy::default())
}

/// Every (key, value) the composite currently holds, via a full scan.
fn contents(index: &ShardedIndex<u64, Backend>) -> Vec<(u64, Payload)> {
    let mut out = Vec::new();
    index.range(RangeSpec::new(0, usize::MAX), &mut out);
    out
}

#[test]
fn split_moves_the_upper_half_and_stays_exact_when_quiesced() {
    const N: u64 = 8_000;
    let p = pipeline(4, N, None);
    let ctl = controller(&p);
    let before = contents(p.index());
    let lens_before = p.index().per_shard_lens();

    let change = ctl.split_hot(0).expect("split must succeed");
    assert_eq!(change.kind, TopologyKind::Split);
    assert_eq!(change.from, 0);
    assert_ne!(change.to, 0);
    assert_eq!(change.epoch, 1);
    assert_eq!(p.index().routing_epoch(), 1);
    assert!(change.keys_moved > 0);
    assert!(p.index().frozen_range().is_none(), "freeze must clear");

    // Quiesced exactness: the non-atomic per-shard len sum is exact once no
    // migration or writer is in flight (the documented len()/memory caveat).
    assert_eq!(p.index().len(), N as usize);
    assert_eq!(p.index().per_shard_lens().iter().sum::<usize>(), N as usize);
    assert!(p.index().memory_usage() >= N as usize * 48);
    assert_eq!(contents(p.index()), before, "no key lost or duplicated");

    // The moved range physically changed shards.
    let lens_after = p.index().per_shard_lens();
    assert_eq!(lens_after[0], lens_before[0] - change.keys_moved);
    assert_eq!(
        lens_after[change.to],
        lens_before[change.to] + change.keys_moved
    );

    // Telemetry observed the change.
    let snap = p.telemetry().expect("instrumented").snapshot();
    assert_eq!(snap.counter(CounterId::SplitsStarted), 1);
    assert_eq!(snap.counter(CounterId::SplitsCompleted), 1);
    assert_eq!(
        snap.counter(CounterId::KeysMigrated),
        change.keys_moved as u64
    );
    assert!(snap.counter(CounterId::MigrationPauseMicros) >= change.pause_micros);
    assert_eq!(ctl.changes(), vec![change]);
}

#[test]
fn merge_folds_a_segment_into_its_neighbour_and_stays_exact() {
    const N: u64 = 6_000;
    let p = pipeline(3, N, None);
    let ctl = controller(&p);
    let before = contents(p.index());
    let segments_before = p
        .index()
        .partitioner()
        .as_range()
        .expect("range scheme")
        .segments();

    let change = ctl.merge_coldest(1).expect("merge must succeed");
    assert_eq!(change.kind, TopologyKind::Merge);
    assert_eq!(change.from, 1);

    let after = p.index().partitioner();
    let rp = after.as_range().expect("range scheme");
    assert_eq!(
        rp.segments(),
        segments_before - 1,
        "coalescing removes the shared boundary"
    );
    assert!(
        rp.segments_of_shard(1).is_empty(),
        "shard 1's only segment was folded away"
    );
    // Post-merge quiesced exactness.
    assert_eq!(p.index().len(), N as usize);
    assert_eq!(contents(p.index()), before);
    let snap = p.telemetry().expect("instrumented").snapshot();
    assert_eq!(snap.counter(CounterId::MergesStarted), 1);
    assert_eq!(snap.counter(CounterId::MergesCompleted), 1);
}

#[test]
fn migrate_reassigns_a_segment_without_coalescing() {
    const N: u64 = 8_000;
    let p = pipeline(4, N, None);
    let ctl = controller(&p);
    // Segment 1 (shard 1) to shard 3: not adjacent to any shard-3 segment's
    // neighbour? Segment 2 is shard 2, segment 3 is shard 3 — segment 1 is
    // not adjacent to segment 3, so this is a migrate, not a merge.
    let change = ctl.move_segment(1, 3).expect("migrate must succeed");
    assert_eq!(change.kind, TopologyKind::Migrate);
    let after = p.index().partitioner();
    let rp = after.as_range().expect("range scheme");
    assert_eq!(rp.segments_of_shard(3).len(), 2);
    assert!(rp.segments_of_shard(1).is_empty());
    assert_eq!(p.index().len(), N as usize);
}

#[test]
fn split_under_live_traffic_loses_no_accepted_write() {
    const N: u64 = 8_000;
    const WRITERS: u64 = 3;
    const BATCHES: u64 = 40;
    const PER_BATCH: u64 = 32;
    let p = pipeline(4, N, None);
    let ctl = controller(&p);

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let p = Arc::clone(&p);
            s.spawn(move || {
                for b in 0..BATCHES {
                    // Fresh odd keys (bulk keys are multiples of 7 × even).
                    let ops: Vec<Op> = (0..PER_BATCH)
                        .map(|i| {
                            let k =
                                1_000_000 + (w * BATCHES * PER_BATCH + b * PER_BATCH + i) * 2 + 1;
                            Op::Insert(k, k ^ 0xabcd)
                        })
                        .collect();
                    // submit() parks on Migrating and retries after the
                    // swap, so every batch is eventually accepted.
                    let responses = p.submit(OpBatch::new(ops)).wait();
                    assert_eq!(responses.len(), PER_BATCH as usize);
                }
            });
        }
        // Concurrent topology changes while the writers run.
        let mut committed = 0;
        for round in 0..6 {
            match ctl.split_hot(round % 4) {
                Ok(_) => committed += 1,
                Err(ElasticError::InvalidRange(_)) | Err(ElasticError::AlreadyMigrating) => {}
                Err(e) => panic!("unexpected elastic error: {e}"),
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(committed > 0, "at least one split must land mid-traffic");
    });

    // Quiesced: every bulk key and every accepted insert must be present.
    let expected = N + WRITERS * BATCHES * PER_BATCH;
    assert_eq!(p.index().len() as u64, expected);
    for i in (0..N).step_by(97) {
        assert_eq!(p.index().get(i * 7), Some(i), "bulk key {i}");
    }
    for w in 0..WRITERS {
        for j in (0..BATCHES * PER_BATCH).step_by(53) {
            let k = 1_000_000 + (w * BATCHES * PER_BATCH + j) * 2 + 1;
            assert_eq!(p.index().get(k), Some(k ^ 0xabcd), "inserted key {k}");
        }
    }
}

#[test]
fn durable_split_survives_recovery_with_the_post_handoff_topology() {
    const N: u64 = 4_000;
    let dir = TempDir::new("elastic-durable-split");
    let log = DurableLog::create(dir.path(), 4, SyncPolicy::EveryGroup).unwrap();
    let p = pipeline(4, N, Some(Arc::clone(&log)));
    checkpoint_bulk(&log, &p.index().partitioner(), N);

    let ctl = controller(&p);
    let change = ctl.split_hot(2).expect("split must succeed");
    // A couple of post-split writes into the moved range route to the new
    // owner and land in its WAL.
    let probe = change.lo.expect("split window has a lower bound") + 1;
    let responses = p.submit(OpBatch::new(vec![Op::Insert(probe, 777)])).wait();
    assert_eq!(responses.len(), 1);
    drop(p); // workers join; the log is released

    // Recovery must see a completed handoff and rebuild the exact state.
    drop(log);
    let rec = Recovery::recover(dir.path()).unwrap();
    assert!(rec.has_topology());
    let mut recovered: ShardedIndex<u64, Backend> =
        ShardedIndex::from_factory(Partitioner::range(4), |_| backend());
    rec.replay_into(&mut recovered);
    assert_eq!(recovered.len(), N as usize + 1);
    assert_eq!(recovered.get(probe), Some(777));
    for i in (0..N).step_by(71) {
        assert_eq!(recovered.get(i * 7), Some(i));
    }
}

#[test]
fn wal_failure_rolls_back_and_the_source_keeps_the_range() {
    const N: u64 = 4_000;
    let dir = TempDir::new("elastic-wal-abort");
    let registry = FailpointRegistry::new();
    let log =
        DurableLog::create_injected(dir.path(), 4, SyncPolicy::EveryGroup, Arc::clone(&registry))
            .unwrap();
    let p = pipeline(4, N, Some(log));
    let ctl = controller(&p);
    let lens_before = p.index().per_shard_lens();
    let epoch_before = p.index().routing_epoch();

    // Shard 2 is the least-loaded target candidate? Target choice is
    // data-dependent; fail *every* shard's next append so whichever target
    // the controller picks, its `In` record errors.
    for shard in 0..4 {
        registry.script(
            &format!("wal/{shard}/append"),
            Trigger::OnHit(1),
            FailAction::Error,
        );
    }
    match ctl.split_hot(0) {
        Err(ElasticError::Wal(_)) => {}
        other => panic!("expected a WAL handoff failure, got {other:?}"),
    }
    // Rolled back: routing untouched, freeze cleared, every entry home.
    assert_eq!(p.index().routing_epoch(), epoch_before);
    assert!(p.index().frozen_range().is_none());
    assert_eq!(p.index().per_shard_lens(), lens_before);
    assert_eq!(p.index().len(), N as usize);
    let snap = p.telemetry().expect("instrumented").snapshot();
    assert_eq!(snap.counter(CounterId::SplitsStarted), 1);
    assert_eq!(snap.counter(CounterId::SplitsCompleted), 0);
    assert_eq!(snap.counter(CounterId::KeysMigrated), 0);
}

#[test]
fn hash_partitioning_is_rejected_as_unsupported() {
    let mut idx = ShardedIndex::from_factory(Partitioner::hash(4), |_| backend());
    idx.bulk_load(&entries(1_000));
    let p = Arc::new(ShardPipeline::new(Arc::new(idx), 2));
    let ctl = controller(&p);
    match ctl.split_hot(0) {
        Err(ElasticError::UnsupportedScheme(s)) => assert_eq!(s, "hash"),
        other => panic!("expected UnsupportedScheme, got {other:?}"),
    }
    match ctl.move_segment(0, 1) {
        Err(ElasticError::UnsupportedScheme(_)) => {}
        other => panic!("expected UnsupportedScheme, got {other:?}"),
    }
}

#[test]
fn invalid_plans_are_rejected_before_any_freeze() {
    const N: u64 = 4_000;
    let p = pipeline(4, N, None);
    let ctl = controller(&p);
    // Moving a segment onto its own shard is a no-op, not a migration.
    let seg_target = {
        let part = p.index().partitioner();
        part.as_range().expect("range scheme").segment_target(1)
    };
    match ctl.move_segment(1, seg_target) {
        Err(ElasticError::InvalidRange(_)) => {}
        other => panic!("expected InvalidRange, got {other:?}"),
    }
    // A split key outside the segment is refused.
    match ctl.split_segment(0, u64::MAX, 1) {
        Err(ElasticError::InvalidRange(_)) => {}
        other => panic!("expected InvalidRange, got {other:?}"),
    }
    // Nothing was frozen by the failed attempts.
    assert!(p.index().frozen_range().is_none());
    assert_eq!(p.index().routing_epoch(), 0);
}

#[test]
fn an_active_freeze_makes_concurrent_changes_wait_their_turn() {
    const N: u64 = 4_000;
    let p = pipeline(4, N, None);
    let ctl = controller(&p);
    // Simulate another in-flight migration by freezing a window directly.
    p.index().freeze_range(Some(1), Some(2)).unwrap();
    match ctl.split_hot(0) {
        Err(ElasticError::AlreadyMigrating) => {}
        other => panic!("expected AlreadyMigrating, got {other:?}"),
    }
    p.index().abort_freeze();
    ctl.split_hot(0)
        .expect("split proceeds once the freeze lifts");
}

/// Checkpoint the bulk load per shard, as a durable serve target would, so
/// recovery has a base snapshot to replay handoffs against.
fn checkpoint_bulk(log: &DurableLog, partitioner: &Partitioner<u64>, n: u64) {
    let mut per_shard: Vec<Vec<(u64, u64)>> = vec![Vec::new(); 4];
    for (k, v) in entries(n) {
        per_shard[partitioner.shard_of(k)].push((k, v));
    }
    for (shard, chunk) in per_shard.iter().enumerate() {
        log.checkpoint(shard, chunk).unwrap();
    }
}

/// Acceptance: kill-and-recover across a split boundary. The process dies
/// in the classic window — the target's `In` records are synced but the
/// source's `Out` commit record never persists. Recovery must come back
/// under the *pre*-handoff topology: the `In` records are discarded, the
/// source's replay keeps the whole range, and no key is lost or duplicated.
#[test]
fn a_crash_between_in_and_out_recovers_the_pre_handoff_topology() {
    const N: u64 = 4_000;
    let dir = TempDir::new("elastic-crash-window");
    let registry = FailpointRegistry::new();
    // split_hot(2) migrates *from* shard 2, and checkpoints bypass the
    // append point, so the first `wal/2/append` is the Out commit record.
    registry.script("wal/2/append", Trigger::OnHit(1), FailAction::Crash);
    let log =
        DurableLog::create_injected(dir.path(), 4, SyncPolicy::EveryGroup, Arc::clone(&registry))
            .unwrap();
    let p = pipeline(4, N, Some(Arc::clone(&log)));
    checkpoint_bulk(&log, &p.index().partitioner(), N);

    let ctl = controller(&p);
    match ctl.split_hot(2) {
        Err(ElasticError::Wal(_)) => {}
        other => panic!("expected the Out append to crash, got {other:?}"),
    }
    assert!(
        registry.fired("wal/2/append"),
        "the kill window was exercised"
    );
    drop(p);
    drop(log);

    let rec = Recovery::recover(dir.path()).unwrap();
    assert!(
        rec.has_topology(),
        "the orphaned In records survived the kill"
    );
    let mut recovered: ShardedIndex<u64, Backend> =
        ShardedIndex::from_factory(Partitioner::range(4), |_| backend());
    rec.replay_into(&mut recovered);
    assert_eq!(
        contents(&recovered),
        entries(N),
        "pre-handoff topology, every key exactly once"
    );
}

/// Same kill window, uglier failure: the `Out` record is torn mid-write
/// (only its first bytes reach the disk). A torn commit point must read as
/// *absent*, not as garbage: recovery discards the tail and again lands on
/// the pre-handoff topology.
#[test]
fn a_torn_out_record_reads_as_absent_and_recovers_pre_handoff() {
    const N: u64 = 4_000;
    let dir = TempDir::new("elastic-torn-out");
    let registry = FailpointRegistry::new();
    registry.script(
        "wal/2/append",
        Trigger::OnHit(1),
        FailAction::ShortWrite { keep: 7 },
    );
    let log =
        DurableLog::create_injected(dir.path(), 4, SyncPolicy::EveryGroup, Arc::clone(&registry))
            .unwrap();
    let p = pipeline(4, N, Some(Arc::clone(&log)));
    checkpoint_bulk(&log, &p.index().partitioner(), N);

    let ctl = controller(&p);
    match ctl.split_hot(2) {
        Err(ElasticError::Wal(_)) => {}
        other => panic!("expected the torn Out to fail the handoff, got {other:?}"),
    }
    drop(p);
    drop(log);

    let rec = Recovery::recover(dir.path()).unwrap();
    rec.truncate_torn_tails().unwrap();
    let mut recovered: ShardedIndex<u64, Backend> =
        ShardedIndex::from_factory(Partitioner::range(4), |_| backend());
    rec.replay_into(&mut recovered);
    assert_eq!(
        contents(&recovered),
        entries(N),
        "a torn commit point must not tip recovery into the post-handoff topology"
    );
}
