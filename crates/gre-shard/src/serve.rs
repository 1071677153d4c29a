//! Scenario-driver target for the serving layer: [`PipelineTarget`] lets the
//! `gre-workloads` [`Driver`](gre_workloads::Driver) execute a scenario
//! through the batched [`ShardPipeline`], next to the bare
//! [`ConcurrentIndex`] blanket impl:
//!
//! * **bare** — driver threads call the (possibly sharded) index directly;
//!   one routing decision per op, latency is pure service time.
//! * **[`PipelineTarget`]** — each driver thread buffers ops into
//!   fixed-size [`OpBatch`]es and submits every full batch through its own
//!   [`Session`], then takes completions (oldest first, in FIFO order)
//!   until at most `window` batches are still in flight. `window = 0` is
//!   submit-then-wait; `window = w` keeps up to `w` batches in flight while
//!   the next one fills, the shape a real pipelined client has. Latency of
//!   an op is measured from its intended send time to its *batch's*
//!   completion, so buffering and queueing delay are charged to the
//!   request, not hidden.
//!
//! The target bulk loads through the composite before spawning the worker
//! pool, and its connections flush buffered and in-flight work when a
//! phase ends — the driver reports only completed operations, and no
//! accepted operation is lost when a phase (or the whole run) is cut short.
//!
//! Serving a closed-loop mixed phase through the batched pipeline path:
//!
//! ```
//! use gre_core::index::MutexIndex;
//! use gre_core::ModelIndex;
//! use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
//! use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
//! use gre_workloads::Driver;
//!
//! // Four range shards, each its own backend instance.
//! let store = ShardedIndex::from_factory(Partitioner::range(4), |_| {
//!     MutexIndex::new(ModelIndex::default(), "model-shard")
//! });
//!
//! let keys: Vec<u64> = (1..=2_000u64).map(|i| i * 8).collect();
//! let scenario = Scenario::new("serve-doc", 7, &keys).phase(Phase::new(
//!     "mixed",
//!     Mix::points(8, 1, 1, 0), // 80% get / 10% insert / 10% update
//!     KeyDist::Uniform,
//!     Span::Ops(4_000),
//!     Pacing::ClosedLoop { threads: 2 },
//! ));
//!
//! // Two pipeline workers, 128-op batches, submit-then-wait per client
//! // (window 0: no earlier batch stays in flight).
//! let mut target = PipelineTarget::new(store, 2, 128, 0);
//! let result = Driver::new().run(&scenario, &mut target);
//!
//! assert_eq!(result.phases[0].ops(), 4_000); // flush covers partial batches
//! assert_eq!(result.phases[0].tally.errors, 0);
//! assert!(result.target.contains("pipeline"));
//! ```

use crate::pipeline::{OpBatch, Session, ShardPipeline, DEFAULT_QUEUE_CAPACITY};
use crate::sharded::ShardedIndex;
use gre_core::ops::RequestKind;
use gre_core::{ConcurrentIndex, Payload, Response};
use gre_durability::{DurableLog, Recovery, SyncPolicy};
use gre_telemetry::{CounterId, Telemetry, TelemetryConfig};
use gre_workloads::driver::{Connection, PhaseRecorder, ServeTarget};
use gre_workloads::Op;
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Default ops per submitted batch.
pub const DEFAULT_DRIVER_BATCH: usize = 1024;

/// Per-op bookkeeping a connection keeps for one in-flight batch: the op's
/// kind and its intended send time (when the driver timed it).
type BatchMeta = Vec<(RequestKind, Option<Instant>)>;

/// Check that a telemetry snapshot agrees *exactly* with the driver-side
/// typed-response tally of the ops served through it: the two count the
/// same outcomes from opposite ends of the pipeline (workers classifying
/// responses vs. the recorder classifying the responses it hands back), so
/// on a drained pipeline every pair must match. Returns the first mismatch.
///
/// Used by the telemetry integration tests and as a debug assertion in the
/// observability binary; `tally` must cover every phase served since the
/// telemetry was attached.
pub fn reconcile_tally(
    snap: &gre_telemetry::MetricsSnapshot,
    tally: &gre_workloads::driver::Tally,
) -> Result<(), String> {
    use gre_telemetry::CounterId;
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
                "counter {} = {got}, driver tally says {expected}",
                id.name()
            ));
        }
    }
    let per_shard: u64 = snap.shards.iter().map(|s| s.ops_completed).sum();
    if per_shard != tally.ops {
        return Err(format!(
            "per-shard ops_completed sum to {per_shard}, driver tally says {}",
            tally.ops
        ));
    }
    Ok(())
}

/// Durability settings for a serve target: where the per-shard WAL lives
/// and how often it syncs.
struct DurabilityConfig {
    dir: PathBuf,
    policy: SyncPolicy,
}

/// Serve scenarios through the batched [`ShardPipeline`]: each driver
/// thread submits full batches through its own [`Session`] and keeps at
/// most `window` earlier batches in flight while the next one fills.
pub struct PipelineTarget<B: ConcurrentIndex<u64> + 'static> {
    index: Arc<ShardedIndex<u64, B>>,
    /// The worker pool serving `index`, created at [`ServeTarget::load`]
    /// time (after the bulk load, which needs exclusive access to the
    /// composite). Shared so a caller can hold the pipeline alongside the
    /// target (see [`PipelineTarget::pipeline_handle`]).
    pipeline: Option<Arc<ShardPipeline<B>>>,
    workers: usize,
    batch: usize,
    window: usize,
    telemetry: Option<Arc<Telemetry>>,
    durability: Option<DurabilityConfig>,
}

impl<B: ConcurrentIndex<u64> + 'static> PipelineTarget<B> {
    /// Target `index` with a `workers`-thread pool, `batch`-op batches and
    /// a per-connection in-flight `window`: after submitting a full batch,
    /// a connection waits out its oldest batches until at most `window`
    /// remain in flight (`0` = submit-then-wait).
    pub fn new(index: ShardedIndex<u64, B>, workers: usize, batch: usize, window: usize) -> Self {
        PipelineTarget {
            index: Arc::new(index),
            pipeline: None,
            workers,
            batch: batch.max(1),
            window,
            telemetry: None,
            durability: None,
        }
    }

    /// The served composite (for post-run verification).
    pub fn index(&self) -> &ShardedIndex<u64, B> {
        &self.index
    }

    /// Attach runtime telemetry with trace-enabled defaults; the registry
    /// is sized for this target's layout (one scope per shard, one
    /// counter stripe per worker plus a dedicated stripe for submitters)
    /// and shared with the pipeline built at load time. Retrieve it via
    /// [`PipelineTarget::telemetry`].
    pub fn instrumented(self) -> Self {
        self.instrumented_with(|c| c)
    }

    /// Like [`PipelineTarget::instrumented`], with `configure` applied to
    /// the default [`TelemetryConfig`] (e.g. to change the trace sampling
    /// period or disable the tracer).
    pub fn instrumented_with(
        mut self,
        configure: impl FnOnce(TelemetryConfig) -> TelemetryConfig,
    ) -> Self {
        let config = configure(TelemetryConfig::new(
            self.index.num_shards(),
            self.workers + 1,
        ));
        self.telemetry = Some(Arc::new(Telemetry::new(config)));
        self
    }

    /// The attached telemetry, when [`PipelineTarget::instrumented`].
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Make this target durable: at load time, open a per-shard write-ahead
    /// log under `dir` (checkpointing the bulk load into snapshots) and
    /// attach it to the pipeline, so every served write is group-committed
    /// before it executes. If `dir` already holds a durable history from a
    /// previous incarnation, load restores it instead of the bulk entries
    /// (a restart), resumes the log where it left off and checkpoints every
    /// shard under the routing refit from the restored keys, recording the
    /// replayed op count as `recovery_replayed_ops` when instrumented; a
    /// history load cannot read is a panic, never a fresh start over it.
    /// See `gre-durability` and `docs/DURABILITY.md`.
    pub fn durable(mut self, dir: impl AsRef<Path>, policy: SyncPolicy) -> Self {
        self.durability = Some(DurabilityConfig {
            dir: dir.as_ref().to_path_buf(),
            policy,
        });
        self
    }

    /// The shared serving pipeline, once loaded, for submitting batches
    /// outside the driver. Loading is idempotent, so a caller may `load()`
    /// ahead of the driver, take this handle, and let the driver's own load
    /// call no-op.
    pub fn pipeline_handle(&self) -> Option<Arc<ShardPipeline<B>>> {
        self.pipeline.clone()
    }
}

impl<B: ConcurrentIndex<u64> + 'static> ServeTarget for PipelineTarget<B> {
    fn describe(&self) -> String {
        format!(
            "{} [pipeline batch={} window={}{}]",
            self.index.meta().name,
            self.batch,
            self.window,
            if self.durability.is_some() {
                " wal"
            } else {
                ""
            }
        )
    }

    fn load(&mut self, entries: &[(u64, Payload)]) {
        // Idempotent: a target loaded ahead of the driver (e.g. to take its
        // pipeline handle before traffic starts) ignores the driver's own
        // load call.
        if self.pipeline.is_some() {
            return;
        }
        let index = Arc::get_mut(&mut self.index)
            .expect("load() must run before the worker pool is spawned");
        // Durable targets either restore a previous incarnation's on-disk
        // state (a restart: the durable history supersedes the bulk
        // entries) or open a fresh log over the bulk load.
        let durability = if let Some(cfg) = &self.durability {
            let log = match Recovery::recover(&cfg.dir) {
                Ok(rec) => {
                    let replayed = rec.replay_into(index);
                    if let Some(t) = &self.telemetry {
                        t.metrics()
                            .stripe(0)
                            .add(CounterId::RecoveryReplayedOps, replayed);
                    }
                    rec.resume(cfg.policy)
                        .expect("durable target: cannot resume the write-ahead log")
                }
                // Only a missing manifest means a fresh directory: creating
                // the log over a history it cannot read would rewrite the
                // manifest and truncate every acknowledged shard WAL.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    index.bulk_load(entries);
                    DurableLog::create(&cfg.dir, index.num_shards(), cfg.policy)
                        .expect("durable target: cannot create the write-ahead log")
                }
                Err(e) => panic!(
                    "durable target: cannot recover the write-ahead log in {}: {e}",
                    cfg.dir.display()
                ),
            };
            // Checkpoint every shard before serving. A fresh load never
            // passed through the pipeline, so without it a recovery would
            // replay an empty store. A restart's bulk load refit the routing
            // from the recovered keys, so a key may now belong to another
            // shard than the one whose WAL holds its history: recovery
            // applies shards' writes in shard order, so a new write logged
            // under the new shard would lose to an old one left under a
            // higher shard.
            // A backend holds exactly the keys its shard's range routes to
            // it, so its full scan is that shard's checkpoint.
            for shard in 0..index.num_shards() {
                let backend = index.backend(shard);
                let mut entries = Vec::with_capacity(backend.len());
                backend.range(gre_core::RangeSpec::new(0, backend.len()), &mut entries);
                log.checkpoint(shard, &entries)
                    .expect("durable target: cannot checkpoint the loaded state");
            }
            Some(log)
        } else {
            index.bulk_load(entries);
            None
        };
        self.pipeline = Some(Arc::new(ShardPipeline::with_services(
            Arc::clone(&self.index),
            self.workers,
            DEFAULT_QUEUE_CAPACITY,
            self.telemetry.clone(),
            durability,
        )));
    }

    fn connect(&self) -> Box<dyn Connection + '_> {
        let pipeline = self
            .pipeline
            .as_deref()
            .expect("driver calls load() before connect()");
        Box::new(WindowedConn {
            // One slot above the window: settling leaves at most `window`
            // batches in flight, so submitting never blocks on the session.
            session: Session::with_max_inflight(pipeline, self.window + 1),
            batch: self.batch,
            window: self.window,
            buf: Vec::with_capacity(self.batch),
            buf_meta: Vec::with_capacity(self.batch),
            pending: VecDeque::new(),
        })
    }

    fn stored_len(&self) -> usize {
        self.index.len()
    }

    fn memory_bytes(&self) -> usize {
        self.index.memory_usage()
    }
}

/// One driver thread's endpoint: buffers ops into a batch, submits each
/// full batch through its session, then settles the in-flight window.
struct WindowedConn<'a, B: ConcurrentIndex<u64> + 'static> {
    session: Session<'a, B>,
    batch: usize,
    window: usize,
    buf: Vec<Op>,
    buf_meta: BatchMeta,
    /// Metadata of submitted-but-unrecorded batches, in submission order
    /// (the session returns completions in the same FIFO order).
    pending: VecDeque<BatchMeta>,
}

impl<B: ConcurrentIndex<u64> + 'static> WindowedConn<'_, B> {
    fn send(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let meta = std::mem::replace(&mut self.buf_meta, Vec::with_capacity(self.batch));
        self.pending.push_back(meta);
        let ops = std::mem::replace(&mut self.buf, Vec::with_capacity(self.batch));
        self.session.submit(OpBatch::new(ops));
    }

    /// Record completions, blocking on the oldest batch first, until at
    /// most `keep` batches remain in flight; then record whatever else has
    /// already completed.
    fn settle(&mut self, rec: &mut PhaseRecorder, keep: usize) {
        while self.session.pending() > keep {
            let responses = self.session.recv().expect("a batch is pending");
            self.record(rec, &responses);
        }
        while let Some(responses) = self.session.try_recv() {
            self.record(rec, &responses);
        }
    }

    fn record(&mut self, rec: &mut PhaseRecorder, responses: &[Response<u64>]) {
        let meta = self
            .pending
            .pop_front()
            .expect("every submitted batch has pending metadata");
        rec.complete_batch(&meta, responses);
    }
}

impl<B: ConcurrentIndex<u64> + 'static> Connection for WindowedConn<'_, B> {
    fn submit(&mut self, op: Op, intended: Option<Instant>, rec: &mut PhaseRecorder) {
        self.buf.push(op);
        self.buf_meta.push((op.kind(), intended));
        if self.buf.len() >= self.batch {
            self.send();
            self.settle(rec, self.window);
        }
    }

    fn flush(&mut self, rec: &mut PhaseRecorder) {
        self.send();
        self.settle(rec, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;
    use gre_core::index::MutexIndex;
    use gre_core::{ModelIndex, RangeSpec};
    use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
    use gre_workloads::Driver;

    fn sharded(shards: usize) -> ShardedIndex<u64, MutexIndex<ModelIndex>> {
        ShardedIndex::from_factory(Partitioner::range(shards), |_| {
            MutexIndex::new(ModelIndex::default(), "model-shard")
        })
    }

    fn scenario(ops: u64, threads: usize) -> Scenario {
        let keys: Vec<u64> = (1..=4_000u64).map(|i| i * 16).collect();
        Scenario::new("serve-test", 77, &keys).phase(Phase::new(
            "mixed",
            Mix::points(3, 1, 1, 0).with_range(1, 20),
            KeyDist::Uniform,
            Span::Ops(ops),
            Pacing::ClosedLoop { threads },
        ))
    }

    #[test]
    fn pipeline_target_completes_every_op() {
        let mut target = PipelineTarget::new(sharded(4), 2, 128, 0);
        let result = Driver::new().run(&scenario(5_000, 2), &mut target);
        let p = &result.phases[0];
        assert_eq!(p.ops(), 5_000, "flush must account for the partial batch");
        assert!(p.tally.hits > 0);
        assert!(p.tally.new_keys > 0);
        assert!(p.tally.scanned_keys > 0);
        assert_eq!(p.tally.errors, 0);
        assert_eq!(
            target.index().len() as u64,
            4_000 + p.tally.new_keys - p.tally.removed
        );
        assert!(result.target.contains("pipeline"));
    }

    #[test]
    fn session_target_completes_every_op() {
        let mut target = PipelineTarget::new(sharded(4), 2, 128, 8);
        let result = Driver::new().run(&scenario(5_000, 3), &mut target);
        let p = &result.phases[0];
        assert_eq!(p.ops(), 5_000, "drain must hand back every batch");
        assert_eq!(p.tally.errors, 0);
        assert_eq!(
            target.index().len() as u64,
            4_000 + p.tally.new_keys - p.tally.removed
        );
        assert!(result.target.contains("window=8"));
    }

    #[test]
    fn instrumented_target_counts_every_completed_op() {
        use gre_telemetry::{CounterId, GaugeId, GlobalHistId};

        for window in [0, 4] {
            let mut target = PipelineTarget::new(sharded(4), 2, 128, window)
                .instrumented_with(|c| c.trace_sample(64));
            let result = Driver::new().run(&scenario(5_000, 2), &mut target);
            let p = &result.phases[0];
            assert_eq!(p.ops(), 5_000, "window {window}");

            let t = target.telemetry().expect("instrumented");
            let snap = t.snapshot();
            assert_eq!(snap.counter(CounterId::OpsSubmitted), 5_000);
            assert_eq!(snap.counter(CounterId::OpsCompleted), 5_000);
            assert_eq!(snap.counter(CounterId::GetHits), p.tally.hits);
            assert_eq!(snap.counter(CounterId::ScannedKeys), p.tally.scanned_keys);
            // Per-shard completions sum to the total, and the drained
            // pipeline leaves no residual queue depth or in-flight ops.
            let per_shard: u64 = snap.shards.iter().map(|s| s.ops_completed).sum();
            assert_eq!(per_shard, 5_000);
            for shard in &snap.shards {
                assert_eq!(shard.gauge(GaugeId::QueueDepth), 0);
                assert_eq!(shard.gauge(GaugeId::InFlightOps), 0);
            }
            // Every submit samples the in-flight occupancy, counting the
            // batch just submitted: never more than `window` earlier ones.
            let occupancy = snap.global(GlobalHistId::SessionWindow);
            assert!(occupancy.count() > 0);
            assert!(
                occupancy.max() <= window as u64 + 1,
                "window {window}: occupancy {}",
                occupancy.max()
            );
            if window == 0 {
                assert_eq!(occupancy.max(), 1, "window 0 is submit-then-wait");
            }
            // The 1-in-64 sampler left spans in the ring.
            assert!(t.trace().expect("tracing on").recorded() > 0);
            assert!(snap.counter(CounterId::TraceSpans) > 0);
        }
    }

    /// A restart restores the previous incarnation's served state, not the
    /// bulk entries. Its bulk load refits the range boundaries, so a key can
    /// move to a lower shard than the one whose WAL holds its history, and
    /// recovery applies shards' writes in shard order: the restart
    /// checkpoints every shard, so the moved key's next write survives the
    /// next crash instead of losing to its old one.
    #[test]
    fn durable_target_restores_a_previous_incarnation_on_load() {
        use gre_durability::util::TempDir;

        let tmp = TempDir::new("serve-restart");
        let incarnation = |entries: &[(u64, Payload)]| {
            let mut target = PipelineTarget::new(sharded(2), 2, 64, 0)
                .durable(tmp.path(), SyncPolicy::EveryGroup)
                .instrumented_with(|c| c.without_trace());
            target.load(entries);
            target
        };
        let serve = |target: &PipelineTarget<MutexIndex<ModelIndex>>, ops: Vec<Op>| {
            let pipeline = target.pipeline_handle().expect("loaded");
            let responses = pipeline.submit(OpBatch::new(ops)).wait();
            assert!(responses.iter().all(|r| !r.is_error()), "{responses:?}");
        };
        let stored = |target: &PipelineTarget<MutexIndex<ModelIndex>>| {
            let mut entries = Vec::new();
            target
                .index()
                .range(RangeSpec::new(0, usize::MAX), &mut entries);
            entries
        };

        let bulk: Vec<(u64, Payload)> = (1..=1_000u64).map(|k| (k, k)).collect();
        let target = incarnation(&bulk);
        assert_eq!(target.index().shard_of(600), 1);
        let mut ops = vec![Op::Update(600, 1), Op::Remove(5)];
        ops.extend((2_000..3_000u64).map(|k| Op::Insert(k, k)));
        serve(&target, ops);
        let before = stored(&target);
        drop(target); // the pipeline joins and syncs the log

        // A fresh target on the same directory restarts from the durable
        // history: the recovered state supersedes the bulk entries.
        let target = incarnation(&[(1, 1)]);
        assert_eq!(
            stored(&target),
            before,
            "restart must restore the served state"
        );
        let snap = target.telemetry().expect("instrumented").snapshot();
        assert!(snap.counter(CounterId::RecoveryReplayedOps) > 0);
        assert_eq!(target.index().shard_of(600), 0, "the refit moved key 600");
        serve(&target, vec![Op::Update(600, 2)]);
        drop(target);

        let target = incarnation(&[]);
        assert_eq!(target.index().get(600), Some(2), "a stale write came back");
        assert_eq!(target.index().len(), 1_999);
    }

    #[test]
    fn durable_target_refuses_a_log_directory_it_cannot_read() {
        use gre_durability::util::TempDir;
        use gre_durability::MANIFEST;

        let tmp = TempDir::new("serve-corrupt-manifest");
        let mut target =
            PipelineTarget::new(sharded(2), 2, 64, 0).durable(tmp.path(), SyncPolicy::EveryGroup);
        Driver::new().run(&scenario(2_000, 2), &mut target);
        drop(target); // the pipeline joins and syncs the log

        let wals = || {
            let mut wals: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(tmp.path())
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .filter(|path| path.extension().is_some_and(|ext| ext == "wal"))
                .map(|path| {
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            wals.sort();
            wals
        };
        let before = wals();
        assert_eq!(before.len(), 2, "one WAL per shard");
        assert!(before.iter().any(|(_, bytes)| !bytes.is_empty()));

        std::fs::write(tmp.path().join(MANIFEST), b"\xffgarbage\x00").unwrap();
        let mut target =
            PipelineTarget::new(sharded(2), 2, 64, 0).durable(tmp.path(), SyncPolicy::EveryGroup);
        let loaded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            target.load(&[(1, 1)]);
        }));
        assert!(
            loaded.is_err(),
            "an unreadable MANIFEST must not start fresh"
        );
        assert_eq!(wals(), before, "the acknowledged history must survive");
    }

    #[test]
    fn batched_latency_is_measured_from_intended_send_time() {
        // A tiny open-loop run: every op is timed, and since ops wait for
        // their batch to fill before even being submitted, their recorded
        // latency (measured from intended send time) must cover that
        // buffering delay: with 64-op batches at 6.4k ops/s the first op of
        // each batch waits ~10ms for the batch to fill.
        let mut target = PipelineTarget::new(sharded(2), 2, 64, 4);
        let keys: Vec<u64> = (1..=2_000u64).map(|i| i * 8).collect();
        let s = Scenario::new("co-safe", 5, &keys).phase(Phase::new(
            "paced",
            Mix::read_only(),
            KeyDist::Uniform,
            Span::Ops(256),
            Pacing::OpenLoop {
                rate_ops_s: 6_400.0,
            },
        ));
        let result = Driver::new().open_loop_senders(1).run(&s, &mut target);
        let p = &result.phases[0];
        assert_eq!(p.ops(), 256);
        assert_eq!(p.latency.total_count(), 256, "open loop times every op");
        let get = p.kind_summary(RequestKind::Get);
        // 64 ops fill a batch in 10ms; the batch-opening op waits all of it.
        assert!(
            get.max_ns > 2_000_000,
            "max latency {}ns does not cover the buffering delay",
            get.max_ns
        );
    }
}
