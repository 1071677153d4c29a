//! The pinned public surface: the one module that names workspace types.
//!
//! Everything the ledger calls in the system under test is constructed or
//! re-exported here, by concrete constructor (no registry strings, no
//! scenario driver), so a refactor of the workspace sees in one file which
//! public functions it must keep compiling. The rest of the benchmark speaks
//! only the aliases and plain-data helpers below.

pub use gre_core::{ConcurrentIndex, RangeSpec};
pub use gre_shard::{OpBatch, Session};

use crate::tape::{insert_payload, update_payload, Kind, Tape};
use gre_core::index::MutexIndex;
use gre_core::{IndexMeta, Request, Response};
use gre_datasets::Dataset;
use gre_durability::{
    DurableLog, FailAction, FailpointRegistry, LogFollower, Recovery, SyncPolicy, Trigger,
};
use gre_learned::{Alex, AlexPlus, DynamicPgm, Finedex, LippPlus, XIndex};
use gre_pla::{DataHardness, HardnessConfig};
use gre_shard::{Partitioner, ShardPipeline, ShardedIndex};
use gre_telemetry::{CounterId, GlobalHistId, ShardHistId, Telemetry, TelemetryConfig};
use gre_traditional::{art_olc, btree_olc, BPlusTreeOlc};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub type Op = Request<u64>;
pub type Reply = Response<u64>;
pub type Backend = AlexPlus<u64>;
pub type Sharded = ShardedIndex<u64, Backend>;
pub type Pipeline = ShardPipeline<Backend>;

/// Serving-stack shape, sized for 2 cores.
pub const SHARDS: usize = 4;
pub const WORKERS: usize = 2;
pub const SESSION_WINDOW: usize = 4;
pub const CLIENTS: usize = 2;
pub const BATCH_OPS: usize = 256;

// ---------------------------------------------------------------------------
// Datasets.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    Covid,
    Osm,
    Books,
}

impl Data {
    /// `n` ascending unique keys.
    pub fn generate(self, n: usize, seed: u64) -> Vec<u64> {
        let dataset = match self {
            Data::Covid => Dataset::Covid,
            Data::Osm => Dataset::Osm,
            Data::Books => Dataset::Books,
        };
        dataset.generate(n, seed)
    }
}

/// Global PLA hardness (segments at eps = 4096) of up to 200 k sampled keys.
pub fn hardness_segments(keys: &[u64]) -> usize {
    DataHardness::compute_sampled(keys, HardnessConfig::default(), 200_000).global
}

// ---------------------------------------------------------------------------
// Tape -> request, and the cheap per-response check.
// ---------------------------------------------------------------------------

pub fn request(tape: &Tape, i: usize) -> Op {
    let key = tape.key(i);
    match tape.kind(i) {
        Kind::Get => Request::Get(key),
        Kind::Insert => Request::Insert(key, insert_payload(key)),
        Kind::Update => Request::Update(key, update_payload(key)),
        Kind::Range => Request::Range(RangeSpec::new(key, tape.range_len)),
    }
}

pub fn batch(tape: &Tape, from: usize, to: usize) -> OpBatch {
    OpBatch::new((from..to).map(|i| request(tape, i)).collect())
}

/// Whether `reply` has the one shape the tape allows for op `i` regardless
/// of interleaving: a hit, a fresh insert, an applied update, a full scan.
pub fn reply_ok(tape: &Tape, i: usize, reply: &Reply) -> bool {
    match (tape.kind(i), reply) {
        (Kind::Get, Response::Get(found)) => found.is_some(),
        (Kind::Insert, Response::Insert(fresh)) => *fresh,
        (Kind::Update, Response::Update(hit)) => *hit,
        (Kind::Range, Response::Range(entries)) => {
            entries.len() == tape.range_len
                && entries[0].0 == tape.key(i)
                && entries.windows(2).all(|w| w[0].0 < w[1].0)
        }
        _ => false,
    }
}

/// Whether the serving layer refused (did not execute) the operation.
pub fn refused(reply: &Reply) -> bool {
    reply.is_error()
}

/// The reference model's answer to op `i`, applied to `model`.
pub fn model_reply(
    model: &mut std::collections::BTreeMap<u64, u64>,
    tape: &Tape,
    i: usize,
) -> Reply {
    let key = tape.key(i);
    match tape.kind(i) {
        Kind::Get => Response::Get(model.get(&key).copied()),
        Kind::Insert => Response::Insert(model.insert(key, insert_payload(key)).is_none()),
        Kind::Update => Response::Update(match model.get_mut(&key) {
            Some(v) => {
                *v = update_payload(key);
                true
            }
            None => false,
        }),
        Kind::Range => Response::Range(
            model
                .range(key..)
                .take(tape.range_len)
                .map(|(&k, &v)| (k, v))
                .collect(),
        ),
    }
}

/// Execute op `i` directly against an index (capability flags cached in
/// `meta`).
#[inline]
pub fn execute<I: ConcurrentIndex<u64> + ?Sized>(
    index: &I,
    meta: &IndexMeta,
    tape: &Tape,
    i: usize,
) -> Reply {
    request(tape, i).execute(index, meta)
}

/// Every entry of `index`, ascending.
pub fn scan_all<I: ConcurrentIndex<u64> + ?Sized>(index: &I) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(index.len());
    index.range(RangeSpec::new(0, index.len() + 1), &mut out);
    out
}

// ---------------------------------------------------------------------------
// Backends.
// ---------------------------------------------------------------------------

/// The benchmark's own baseline: a sorted array searched by bisection.
/// Read-only — writes answer "not applied".
#[derive(Debug, Default)]
pub struct Bsearch {
    entries: Vec<(u64, u64)>,
}

impl ConcurrentIndex<u64> for Bsearch {
    fn bulk_load(&mut self, entries: &[(u64, u64)]) {
        self.entries = entries.to_vec();
    }
    fn get(&self, key: u64) -> Option<u64> {
        let at = self.entries.partition_point(|e| e.0 < key);
        self.entries.get(at).filter(|e| e.0 == key).map(|e| e.1)
    }
    fn insert(&self, _key: u64, _value: u64) -> bool {
        false
    }
    fn update(&self, _key: u64, _value: u64) -> bool {
        false
    }
    fn remove(&self, _key: u64) -> Option<u64> {
        None
    }
    fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, u64)>) -> usize {
        let at = self.entries.partition_point(|e| e.0 < spec.start);
        let before = out.len();
        out.extend(
            self.entries[at..]
                .iter()
                .take(spec.count)
                .take_while(|e| spec.admits(e.0)),
        );
        out.len() - before
    }
    fn len(&self) -> usize {
        self.entries.len()
    }
    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>() + self.entries.capacity() * std::mem::size_of::<(u64, u64)>()
    }
    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "bsearch",
            learned: false,
            concurrent: true,
            supports_delete: false,
            supports_range: true,
        }
    }
}

/// Called once per backend of the per-layer index table.
pub trait BackendVisitor {
    fn visit<I: ConcurrentIndex<u64>>(&mut self, name: &'static str, index: I, writable: bool);
}

pub const BACKENDS: [&str; 8] = [
    "alex", "lipp", "xindex", "finedex", "btree", "art", "pgm", "bsearch",
];

/// Construct each backend of [`BACKENDS`], in that order, and hand it over
/// empty.
pub fn visit_backends(v: &mut impl BackendVisitor) {
    v.visit("alex", AlexPlus::<u64>::new(), true);
    v.visit("lipp", LippPlus::<u64>::new(), true);
    v.visit("xindex", XIndex::<u64>::new(), true);
    v.visit("finedex", Finedex::<u64>::new(), true);
    v.visit("btree", btree_olc::<u64>(), true);
    v.visit("art", art_olc::<u64>(), true);
    v.visit(
        "pgm",
        MutexIndex::new(DynamicPgm::<u64>::new(), "PGM"),
        true,
    );
    v.visit("bsearch", Bsearch::default(), false);
}

pub fn bare_alex(entries: &[(u64, u64)]) -> Backend {
    let mut index = AlexPlus::new();
    index.bulk_load(entries);
    index
}

pub fn bare_btree(entries: &[(u64, u64)]) -> BPlusTreeOlc<u64> {
    let mut index = btree_olc();
    index.bulk_load(entries);
    index
}

/// ALEX's own work counters after replaying the inserts among the first
/// `ops` tape operations single-threaded: `(nodes traversed per insert,
/// keys shifted per insert, SMOs per 1000 inserts, SMO share of insert
/// time)`. `None` when the prefix holds no insert. (ALEX counts nothing on
/// its lookup path, so there is no per-lookup figure to read.)
pub fn alex_insert_counters(tape: &Tape, ops: usize) -> Option<(f64, f64, f64, f64)> {
    let mut index = MutexIndex::new(Alex::<u64>::new(), "ALEX");
    index.bulk_load(&tape.loaded);
    for i in (0..ops).filter(|&i| tape.kind(i) == Kind::Insert) {
        index.insert(tape.key(i), insert_payload(tape.key(i)));
    }
    let c = index.stats().counters;
    (c.inserts > 0).then(|| {
        let n = c.inserts as f64;
        (
            c.nodes_traversed as f64 / n,
            c.keys_shifted as f64 / n,
            c.smo_count as f64 * 1000.0 / n,
            c.insert_breakdown.smo_ns as f64 / c.insert_breakdown.total_ns().max(1) as f64,
        )
    })
}

// ---------------------------------------------------------------------------
// The served stack.
// ---------------------------------------------------------------------------

fn empty_sharded() -> Sharded {
    ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| AlexPlus::new())
}

pub fn sharded(entries: &[(u64, u64)]) -> Sharded {
    let mut index = empty_sharded();
    index.bulk_load(entries);
    index
}

/// Route every key through the stack's partitioner: `(ns per call, share of
/// keys on the busiest shard)`.
pub fn routing_cost(index: &Sharded, keys: &[u64]) -> (f64, f64) {
    let partitioner = index.partitioner();
    let mut counts = [0usize; SHARDS];
    let started = Instant::now();
    for &k in keys {
        counts[std::hint::black_box(partitioner.shard_of(std::hint::black_box(k)))] += 1;
    }
    let ns = started.elapsed().as_nanos() as f64 / keys.len().max(1) as f64;
    let max = counts.iter().copied().max().unwrap_or(0);
    (ns, max as f64 / keys.len().max(1) as f64)
}

/// Telemetry sized for the stack, tracing one op of every batch into a ring
/// of `spans` slots.
pub fn telemetry(spans: usize) -> Arc<Telemetry> {
    Arc::new(Telemetry::new(TelemetryConfig {
        shards: SHARDS,
        writers: WORKERS + 1,
        trace_capacity: spans,
        trace_sample_one_in: BATCH_OPS as u64,
    }))
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create wal directory");
}

/// A fresh write-ahead log under `dir`, one durability barrier per group
/// (the durable workload's fixed flush policy), with the bulk-loaded `index`
/// checkpointed into it: the bulk load bypasses the pipeline, so recovery
/// needs it as a snapshot. With `failpoints`, every sink consults them.
fn wal_for(
    index: &Sharded,
    dir: &Path,
    failpoints: Option<&Arc<FailpointRegistry>>,
) -> Arc<DurableLog> {
    fresh_dir(dir);
    let log = match failpoints {
        None => DurableLog::create(dir, SHARDS, SyncPolicy::EveryGroup),
        Some(registry) => {
            DurableLog::create_injected(dir, SHARDS, SyncPolicy::EveryGroup, Arc::clone(registry))
        }
    }
    .expect("create durable log");
    let partitioner = index.partitioner();
    let all = scan_all(index);
    for shard in 0..SHARDS {
        let entries: Vec<(u64, u64)> = all
            .iter()
            .copied()
            .filter(|e| partitioner.shard_of(e.0) == shard)
            .collect();
        log.checkpoint(shard, &entries)
            .expect("checkpoint of the bulk load");
    }
    log
}

fn serve(
    index: Sharded,
    log: Option<Arc<DurableLog>>,
    telemetry: Option<Arc<Telemetry>>,
) -> Pipeline {
    ShardPipeline::with_services(
        Arc::new(index),
        WORKERS,
        gre_shard::DEFAULT_QUEUE_CAPACITY,
        telemetry,
        log,
    )
}

/// Load `entries` and start the pipeline over them; with `wal`, group-commit
/// every sub-batch's writes under that directory before executing them.
pub fn start(
    entries: &[(u64, u64)],
    wal: Option<&Path>,
    telemetry: Option<Arc<Telemetry>>,
) -> Pipeline {
    let index = sharded(entries);
    let log = wal.map(|dir| wal_for(&index, dir, None));
    serve(index, log, telemetry)
}

/// As [`start`] with a log whose shard-0 sink crashes (discarding what it
/// had not flushed) at its `hit`-th durability barrier after start-up.
pub fn start_crashing(entries: &[(u64, u64)], dir: &Path, hit: u64) -> Pipeline {
    let index = sharded(entries);
    let registry = FailpointRegistry::new();
    let log = wal_for(&index, dir, Some(&registry));
    // Scripted only now, so the checkpoint's own barriers are not counted.
    registry.script("wal/0/sync", Trigger::OnHit(hit), FailAction::Crash);
    serve(index, Some(log), None)
}

pub fn session(pipeline: &Pipeline) -> Session<'_, Backend> {
    Session::with_max_inflight(pipeline, SESSION_WINDOW)
}

/// What a recovery from `dir` found and cost.
pub struct Recovered {
    pub index: Sharded,
    pub replayed_ops: u64,
    pub scan_s: f64,
    pub replay_s: f64,
}

/// Rebuild a fresh stack index from the snapshots and logs under `dir`.
pub fn recover(dir: &Path) -> Recovered {
    let started = Instant::now();
    let recovery = Recovery::recover(dir).expect("scan the wal directory");
    let scan_s = started.elapsed().as_secs_f64();
    let mut index = empty_sharded();
    let started = Instant::now();
    let replayed_ops = recovery.replay_into(&mut index);
    Recovered {
        index,
        replayed_ops,
        scan_s,
        replay_s: started.elapsed().as_secs_f64(),
    }
}

/// Bytes the logs under `dir` hold (the bulk load's checkpoint emptied them,
/// so this is what the groups logged since then wrote).
pub fn wal_bytes(dir: &Path) -> u64 {
    (0..SHARDS)
        .map(|shard| {
            std::fs::metadata(dir.join(format!("shard-{shard}.wal")))
                .expect("a log file per shard")
                .len()
        })
        .sum()
}

/// Direct durability-tier costs for `groups` write groups of `group_ops`
/// operations each, drawn from the tape's writes and spread over the shards.
pub struct WalCosts {
    /// Median ns of `log_group` without a barrier.
    pub append_ns_per_group: f64,
    /// Median ns a barrier adds to `log_group`.
    pub sync_ns_per_group: f64,
    pub bytes_per_op: f64,
    /// Log-shipping: ns per op to poll the groups back, and to apply them.
    pub ship_poll_ns_per_op: f64,
    pub ship_apply_ns_per_op: f64,
}

pub fn wal_costs(tape: &Tape, dir: &Path, groups: usize, group_ops: usize) -> WalCosts {
    let writes: Vec<Op> = (0..tape.len())
        .filter(|&i| tape.kind(i).is_write())
        .take(groups * group_ops)
        .map(|i| request(tape, i))
        .collect();
    let groups: Vec<&[Op]> = writes.chunks(group_ops).collect();
    let time_groups = |policy: SyncPolicy| -> (f64, u64) {
        fresh_dir(dir);
        let log = DurableLog::create(dir, SHARDS, policy).expect("create durable log");
        let mut ns = Vec::with_capacity(groups.len());
        let mut bytes = 0u64;
        for (g, ops) in groups.iter().enumerate() {
            let started = Instant::now();
            let receipt = log.log_group(g % SHARDS, ops).expect("log a group");
            ns.push(started.elapsed().as_nanos() as f64);
            bytes += receipt.bytes as u64;
        }
        (crate::stats::median(&ns), bytes)
    };
    let (append_ns, _) = time_groups(SyncPolicy::EveryN(u32::MAX));
    // Last, so the synced log stays on disk for the shipping pass below.
    let (synced_ns, bytes) = time_groups(SyncPolicy::EveryGroup);

    let started = Instant::now();
    let mut follower = LogFollower::from_start(dir).expect("open follower");
    let shipped = follower.poll_all().expect("poll the log");
    let poll_ns = started.elapsed().as_nanos() as f64;
    let replica = sharded(&tape.loaded);
    let meta = replica.meta();
    let started = Instant::now();
    let mut applied = 0usize;
    for (_, record) in &shipped {
        for op in &record.ops {
            std::hint::black_box(op.execute(&replica, &meta));
            applied += 1;
        }
    }
    let apply_ns = started.elapsed().as_nanos() as f64;
    assert_eq!(applied, writes.len(), "the follower ships every logged op");
    let n = writes.len().max(1) as f64;
    WalCosts {
        append_ns_per_group: append_ns,
        sync_ns_per_group: (synced_ns - append_ns).max(0.0),
        bytes_per_op: bytes as f64 / n,
        ship_poll_ns_per_op: poll_ns / n,
        ship_apply_ns_per_op: apply_ns / n,
    }
}

/// Counters and stage times the pipeline's own telemetry recorded.
pub struct PipelineTrace {
    pub sub_batches_per_batch: f64,
    pub batched_get_share: f64,
    pub rejected_share: f64,
    /// Sum of worker service time over `WORKERS x elapsed`.
    pub worker_busy_share: f64,
    pub session_window_mean: f64,
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub ops_completed: u64,
    /// Median ns of each span stage: route, enqueue, queue wait, execute,
    /// respond.
    pub stage_p50_ns: [f64; 5],
}

pub fn pipeline_trace(telemetry: &Telemetry, elapsed_s: f64) -> PipelineTrace {
    let snap = telemetry.snapshot();
    let count = |id| snap.counter(id) as f64;
    let service_ns: f64 = snap
        .shards
        .iter()
        .map(|s| {
            let h = s.hist(ShardHistId::ServiceNs);
            h.mean() * h.count() as f64
        })
        .sum();
    let spans = telemetry
        .trace()
        .map(|ring| ring.recent())
        .unwrap_or_default();
    let stage = |f: fn(&gre_telemetry::SpanRecord) -> u64| -> f64 {
        if spans.is_empty() {
            return 0.0;
        }
        let v: Vec<f64> = spans.iter().map(|s| f(s) as f64).collect();
        crate::stats::median(&v)
    };
    let batches = count(CounterId::BatchesSubmitted);
    let rejected = count(CounterId::BatchesRejected);
    PipelineTrace {
        sub_batches_per_batch: count(CounterId::SubBatchesExecuted) / batches.max(1.0),
        batched_get_share: count(CounterId::BatchedGetOps)
            / count(CounterId::OpsCompleted).max(1.0),
        rejected_share: rejected / (batches + rejected).max(1.0),
        worker_busy_share: service_ns / (WORKERS as f64 * elapsed_s * 1e9),
        session_window_mean: snap.global(GlobalHistId::SessionWindow).mean(),
        wal_appends: snap.counter(CounterId::WalAppends),
        wal_fsyncs: snap.counter(CounterId::WalFsyncs),
        ops_completed: snap.counter(CounterId::OpsCompleted),
        stage_p50_ns: [
            stage(|s| s.route_ns.saturating_sub(s.submit_ns)),
            stage(|s| s.enqueue_ns.saturating_sub(s.route_ns)),
            stage(|s| s.execute_ns.saturating_sub(s.enqueue_ns)),
            stage(|s| s.complete_ns.saturating_sub(s.execute_ns)),
            stage(|s| s.respond_ns.saturating_sub(s.complete_ns)),
        ],
    }
}

/// Where this run may write: `$CARGO_TARGET_DIR` when the caller set it,
/// else the package's own `target/`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    base.join("ledger-scratch")
        .join(format!("{tag}-{}", std::process::id()))
}
