//! The watermark-bound policy's read-your-writes guarantee, demonstrated
//! deterministically: with a replica's shipper killed, its watermark can
//! never cover a fresh write, so a bounded read must fall back to the
//! primary and observe the write — while a lag-blind round-robin read of
//! the same state serves the stale replica and misses.

use gre_core::{ConcurrentIndex, ReadPolicy};
use gre_durability::util::TempDir;
use gre_durability::SyncPolicy;
use gre_learned::AlexPlus;
use gre_replica::ReplicatedTarget;
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
use gre_workloads::driver::{PhaseRecorder, ServeTarget};
use gre_workloads::Op;
use std::time::{Duration, Instant};

type DynBackend = Box<dyn ConcurrentIndex<u64>>;

fn sharded() -> ShardedIndex<u64, DynBackend> {
    ShardedIndex::from_factory(Partitioner::range(4), |_| {
        Box::new(AlexPlus::<u64>::new()) as DynBackend
    })
}

fn target(policy: ReadPolicy, tmp: &TempDir) -> ReplicatedTarget<DynBackend> {
    ReplicatedTarget::new(
        PipelineTarget::new(sharded(), 2, 8, 0).durable(tmp.path(), SyncPolicy::EveryGroup),
        |_| Box::new(AlexPlus::<u64>::new()) as DynBackend,
    )
    .with_replicas(1)
    .read_policy(policy)
}

fn recorder() -> PhaseRecorder {
    PhaseRecorder::new(Instant::now(), Duration::from_secs(1))
}

/// Load, kill the only replica's shipper, then write and immediately read
/// the written key through one connection. Returns the Get hit count (1 if
/// the read observed the write).
fn write_then_read(policy: ReadPolicy) -> u64 {
    let tmp = TempDir::new("ryw");
    let mut t = target(policy, &tmp);
    let bulk: Vec<(u64, u64)> = (1..=1_000u64).map(|i| (i * 64, i)).collect();
    t.load(&bulk);
    // Freeze shipping: the replica's watermark can no longer advance, so
    // it will never cover the write below.
    t.kill_replica(0);

    let fresh_key = 33; // not in the bulk load
    let mut rec = recorder();
    {
        let mut conn = t.connect();
        conn.submit(Op::Insert(fresh_key, 7), None, &mut rec);
        conn.flush(&mut rec);
        assert_eq!(rec.tally().new_keys, 1, "write acknowledged");
        conn.submit(Op::Get(fresh_key), None, &mut rec);
        conn.flush(&mut rec);
    }
    assert_eq!(rec.tally().errors, 0);
    rec.tally().hits
}

#[test]
fn watermark_bound_reads_observe_the_sessions_own_writes() {
    assert_eq!(
        write_then_read(ReadPolicy::WatermarkBound),
        1,
        "bounded read fell back to the primary and saw the write"
    );
}

#[test]
fn lag_blind_round_robin_reads_the_stale_replica() {
    // The control: the identical sequence under round-robin serves the
    // frozen replica and misses — the staleness the bound exists to mask.
    assert_eq!(
        write_then_read(ReadPolicy::RoundRobin),
        0,
        "unbounded read served the stale replica"
    );
}

#[test]
fn caught_up_replica_satisfies_the_bound_again() {
    let tmp = TempDir::new("ryw-catchup");
    let mut t = target(ReadPolicy::WatermarkBound, &tmp);
    t.load(&[]);
    let mut rec = recorder();
    {
        let mut conn = t.connect();
        conn.submit(Op::Insert(42, 7), None, &mut rec);
        conn.flush(&mut rec);
    }
    t.quiesce();
    // Shipping caught up: the replica's watermark now covers the session's
    // write, so it is eligible again — and serves the correct value.
    let committed = t.committed();
    assert!(committed.iter().any(|&s| s > 0));
    assert_eq!(t.nodes()[0].watermark().snapshot(), committed);
    {
        let mut conn = t.connect();
        conn.submit(Op::Get(42), None, &mut rec);
        conn.flush(&mut rec);
    }
    assert_eq!(rec.tally().hits, 1);
    assert_eq!(t.nodes()[0].index().len(), t.primary().index().len());
}
