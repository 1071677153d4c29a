//! Replication scaling: read throughput vs replica count × read fraction
//! through [`ReplicatedTarget`] — the write-forwarding primary ships its
//! WAL to read replicas, so adding replicas should buy read capacity
//! without touching the write path.
//!
//! **Why the read-service floor?** The harness may run on a single core,
//! where replica backends answer a point lookup in well under a
//! microsecond and the measurement would be dominated by driver overhead,
//! not replica capacity. Each *replica* backend is therefore wrapped in a
//! [`Throttled`] decorator that charges a fixed service floor per read
//! (`get`/`get_batch`/`range`), modeling a remote replica's per-request
//! service time. Sleeping workers overlap regardless of core count, so
//! read capacity genuinely scales with the number of replica servers
//! (`replica_workers(1)` serializes each replica as one server), while the
//! primary stays unthrottled. Every cell uses the same seed and mix, so
//! throughput ratios across replica counts are apples-to-apples.
//!
//! The sweep runs replica count × read fraction, asserts every cell is
//! error-free and every replica quiesces byte-identical to the primary's
//! committed watermark, requires the 3-replica 95/5 cell to out-serve the
//! 1-replica cell, and prints its table. The floor makes this a plumbing
//! drill, not a performance result: nothing is written to disk, and the
//! repo's numbers come from the ledger (`BENCHMARK.json`).

use crate::RunOpts;
use gre_core::{
    ConcurrentIndex, IndexMeta, InsertStats, Payload, RangeSpec, RequestKind, StatsSnapshot,
};
use gre_datasets::Dataset;
use gre_durability::util::TempDir;
use gre_learned::AlexPlus;
use gre_replica::ReplicatedTarget;
use gre_shard::{Partitioner, ShardedIndex};
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
use gre_workloads::Driver;
use std::time::Duration;

const SHARDS: usize = 4;
/// Per-read service floor charged by replica backends (see module docs).
const READ_FLOOR: Duration = Duration::from_micros(50);
/// Closed-loop driver threads. Fixed rather than core-derived: the cells
/// are sleep-bound, so client concurrency must exceed the widest replica
/// fan-out for the capacity difference to be observable.
const DRIVER_THREADS: usize = 8;
/// Required speedup of the 3-replica 95/5 cell over the 1-replica cell.
const MIN_SPEEDUP: f64 = 1.3;

type Inner = Box<dyn ConcurrentIndex<u64>>;

/// Decorator charging a fixed service floor per read operation. Writes
/// (and the replica WAL-apply path) pass through unthrottled.
struct Throttled {
    inner: Inner,
    floor: Duration,
}

impl Throttled {
    fn new(floor: Duration) -> Throttled {
        Throttled {
            inner: Box::new(AlexPlus::<u64>::new()),
            floor,
        }
    }

    #[inline]
    fn charge(&self, reads: u32) {
        if !self.floor.is_zero() && reads > 0 {
            std::thread::sleep(self.floor * reads);
        }
    }
}

impl ConcurrentIndex<u64> for Throttled {
    fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
        self.inner.bulk_load(entries);
    }
    fn get(&self, key: u64) -> Option<Payload> {
        self.charge(1);
        self.inner.get(key)
    }
    fn get_batch(&self, keys: &[u64], out: &mut Vec<Option<Payload>>) {
        self.charge(keys.len() as u32);
        self.inner.get_batch(keys, out);
    }
    fn insert(&self, key: u64, value: Payload) -> bool {
        self.inner.insert(key, value)
    }
    fn update(&self, key: u64, value: Payload) -> bool {
        self.inner.update(key, value)
    }
    fn remove(&self, key: u64) -> Option<Payload> {
        self.inner.remove(key)
    }
    fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
        self.charge(1);
        self.inner.range(spec, out)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn memory_usage(&self) -> usize {
        self.inner.memory_usage()
    }
    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
    fn last_insert_stats(&self) -> InsertStats {
        self.inner.last_insert_stats()
    }
    fn meta(&self) -> IndexMeta {
        self.inner.meta()
    }
}

pub fn run(opts: &RunOpts) {
    let keys = Dataset::Covid.generate(opts.keys, opts.seed);
    let ops: u64 = if opts.quick { 6_000 } else { 24_000 };
    let (replica_axis, pct_axis): (&[usize], &[u32]) = if opts.quick {
        (&[1, 3], &[95])
    } else {
        (&[1, 2, 3], &[50, 95, 100])
    };

    println!(
        "# Replication scaling: {} replicas x {:?}% reads, {} ops/cell, \
         {} driver threads, {}µs read floor",
        replica_axis.len(),
        pct_axis,
        ops,
        DRIVER_THREADS,
        READ_FLOOR.as_micros()
    );
    println!(
        "\n{:<12} {:<16} {:>12} {:>10} {:>10}",
        "target", "mix", "ops/s", "p50 us", "p99 us"
    );

    // (replicas, read %, ops/s) per cell; `run_cell` prints the table row.
    let mut results: Vec<(usize, u32, f64)> = Vec::new();
    for &pct in pct_axis {
        for &replicas in replica_axis {
            results.push((replicas, pct, run_cell(opts, &keys, replicas, pct, ops)));
        }
    }

    // The acceptance bar: on the 95/5 mix, three replicas must out-serve
    // one. Every cell replays the identical seeded op stream, so total
    // throughput is a fair proxy for read capacity (reads are 95% of it
    // and carry the service floor); the floor makes the gap a capacity
    // statement, not a scheduler accident.
    let rate_at = |replicas: usize| {
        results
            .iter()
            .find(|&&(r, pct, _)| r == replicas && pct == 95)
            .map(|&(_, _, ops_s)| ops_s)
            .expect("95/5 cell measured")
    };
    let (one, three) = (rate_at(1), rate_at(3));
    let speedup = three / one;
    println!("\n95/5 throughput: 3 replicas / 1 replica = {speedup:.2}x");
    assert!(
        speedup > MIN_SPEEDUP,
        "3-replica throughput ({three:.0} ops/s) must beat 1-replica ({one:.0} ops/s) \
         by >{MIN_SPEEDUP}x, got {speedup:.2}x"
    );
}

/// Drive one (replica count, read fraction) cell, print its table row and
/// return its throughput in ops/s.
fn run_cell(opts: &RunOpts, keys: &[u64], replicas: usize, read_pct: u32, ops: u64) -> f64 {
    let mix = Mix::read_mostly(100 - read_pct);
    let scenario = Scenario::new("replication-scaling", opts.seed, keys).phase(Phase::new(
        "serve",
        mix,
        KeyDist::Uniform,
        Span::Ops(ops),
        Pacing::ClosedLoop {
            threads: DRIVER_THREADS,
        },
    ));

    let tmp = TempDir::new("figs-replication");
    let primary = ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| {
        Throttled::new(Duration::ZERO)
    });
    let mut target =
        ReplicatedTarget::new(primary, 2, 64, tmp.path(), |_| Throttled::new(READ_FLOOR))
            .with_replicas(replicas)
            .replica_workers(1);

    let result = Driver::new().run(&scenario, &mut target);
    let phase = &result.phases[0];
    let label = format!("replica×{replicas}/read{read_pct}");
    assert_eq!(phase.ops(), ops, "{label}: phase completed");
    assert_eq!(phase.tally.errors, 0, "{label}: no errors without an SLO");
    assert_eq!(phase.shed(), 0, "{label}: nothing sheds without an SLO");

    // Every cell doubles as a consistency check: once shipping quiesces,
    // each replica's watermark covers everything the primary committed.
    target.quiesce();
    let committed = target.committed();
    for node in target.nodes() {
        assert_eq!(
            node.watermark().snapshot(),
            committed,
            "{label}: replica {} caught up",
            node.id()
        );
        assert_eq!(
            node.index().len(),
            target.primary().index().len(),
            "{label}: replica {} size equals primary",
            node.id()
        );
    }

    let hist = phase.latency.merged(&RequestKind::ALL);
    println!(
        "{:<12} {:<16} {:>12.0} {:>10.1} {:>10.1}",
        format!("replica×{replicas}"),
        format!("read{read_pct}/write{}", 100 - read_pct),
        phase.achieved_rate(),
        hist.percentile(0.50) as f64 / 1e3,
        hist.percentile(0.99) as f64 / 1e3,
    );
    phase.achieved_rate()
}
