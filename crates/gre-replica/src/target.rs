//! [`ReplicatedTarget`]: the replicated serving adapter the `Scenario` /
//! `Driver` machinery drives unchanged.
//!
//! Writes forward to a durable primary [`PipelineTarget`] (so every write is
//! group-committed to the per-shard WAL before it executes); reads fan out
//! across the replica set under the configured [`ReadPolicy`], with
//! SLO-driven admission shedding or redirecting reads away from replicas
//! whose p99-over-interval breaches the target.

use crate::set::{spawn_shipper, ReplicaNode, ShipperConfig};
use crate::slo::SloTarget;
use gre_core::ops::RequestKind;
use gre_core::{ConcurrentIndex, IndexError, Payload, RangeSpec, ReadPolicy, Response};
use gre_durability::{DurableLog, FailpointRegistry, LogFollower};
use gre_shard::{PipelineTarget, ShardPipeline};
use gre_telemetry::{CounterId, Telemetry};
use gre_workloads::driver::{Connection, PhaseRecorder, ServeTarget};
use gre_workloads::Op;
use std::io;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long [`ReplicatedTarget::quiesce`] waits for shipping to catch up
/// before declaring the replica set wedged.
const QUIESCE_TIMEOUT: Duration = Duration::from_secs(30);

/// A replicated serving target: a write-forwarding durable primary plus `n`
/// read replicas fed by WAL log-shipping.
///
/// Construction is two-stage, like the other serve targets: the builder
/// configures topology and policy, and [`ServeTarget::load`] materialises
/// the replica set (bulk-seeding each replica from the loaded primary and
/// starting its shipper thread). The driver's own `load` call makes this
/// transparent; a test may also `load` ahead of the driver to grab handles.
pub struct ReplicatedTarget<B: ConcurrentIndex<u64> + 'static> {
    primary: PipelineTarget<B>,
    /// Builds one backend instance per (replica, shard); locked because
    /// `ServeTarget` requires `Sync` while `FnMut` is not.
    factory: Mutex<Box<dyn FnMut(usize) -> B + Send>>,
    replica_count: usize,
    policy: ReadPolicy,
    slo: Option<SloTarget>,
    failpoints: Option<Arc<FailpointRegistry>>,
    nodes: Vec<Arc<ReplicaNode<B>>>,
    shippers: Vec<Option<JoinHandle<()>>>,
}

impl<B: ConcurrentIndex<u64> + 'static> ReplicatedTarget<B> {
    /// A replicated target over an already configured `primary`: its WAL
    /// (the shipping stream), batch size, worker count, sync policy and
    /// telemetry carry over — replica pipelines get the primary's worker
    /// count, and shed, redirect and shipping metrics land in the
    /// primary's registry when it is instrumented. `factory` builds one
    /// replica backend per shard; it must produce the same index type the
    /// primary runs so replica state stays model-comparable.
    ///
    /// Defaults: 1 replica, [`ReadPolicy::RoundRobin`], no SLO admission.
    ///
    /// # Panics
    /// If `primary` is not [`PipelineTarget::durable`]: replicas follow
    /// its write-ahead log, so there is nothing to ship without one.
    pub fn new(
        primary: PipelineTarget<B>,
        factory: impl FnMut(usize) -> B + Send + 'static,
    ) -> Self {
        assert!(
            primary.wal_dir().is_some(),
            "replicated target: the primary must be durable (call .durable(dir, policy) on it)"
        );
        ReplicatedTarget {
            primary,
            factory: Mutex::new(Box::new(factory)),
            replica_count: 1,
            policy: ReadPolicy::RoundRobin,
            slo: None,
            failpoints: None,
            nodes: Vec::new(),
            shippers: Vec::new(),
        }
    }

    /// Set the replica count (0 is allowed: a pure write-forwarding
    /// baseline where every read serves from the primary).
    pub fn with_replicas(mut self, n: usize) -> Self {
        self.replica_count = n;
        self
    }

    /// Read placement policy.
    pub fn read_policy(mut self, policy: ReadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enable SLO-driven admission: each replica tracks its read p99 over
    /// `target.interval`, and reads are redirected off (or, when every
    /// replica is in breach, shed with [`IndexError::Overloaded`]) a
    /// breached replica.
    pub fn with_slo(mut self, target: SloTarget) -> Self {
        self.slo = Some(target);
        self
    }

    /// Attach a failpoint registry; shippers evaluate
    /// [`crate::set::apply_failpoint`] once per applied record.
    pub fn with_failpoints(mut self, registry: Arc<FailpointRegistry>) -> Self {
        self.failpoints = Some(registry);
        self
    }

    /// The primary's telemetry, when it was
    /// [`PipelineTarget::instrumented`].
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.primary.telemetry()
    }

    /// The primary serve target.
    pub fn primary(&self) -> &PipelineTarget<B> {
        &self.primary
    }

    /// Stripe the connections and shippers count into: the submitter
    /// stripe of the primary's telemetry topology.
    fn stripe(&self) -> usize {
        self.primary.workers()
    }

    /// The replica set (empty until loaded).
    pub fn nodes(&self) -> &[Arc<ReplicaNode<B>>] {
        &self.nodes
    }

    /// The primary's live WAL, once loaded.
    pub fn log(&self) -> Option<&Arc<DurableLog>> {
        self.primary().durability()
    }

    /// Per-shard committed sequence numbers (the shipping targets replicas
    /// chase). Panics before load.
    pub fn committed(&self) -> Vec<u64> {
        let log = self.log().expect("target not loaded");
        (0..log.shards()).map(|s| log.next_seq(s) - 1).collect()
    }

    /// Stop replica `i`'s shipper and wait for it to exit: the controlled
    /// half of the kill drill. The replica keeps serving (stale) reads
    /// under lag-blind policies; its watermark freezes.
    pub fn kill_replica(&mut self, i: usize) {
        self.nodes[i].request_stop();
        if let Some(handle) = self.shippers[i].take() {
            handle.join().expect("shipper panicked");
        }
    }

    /// Restart replica `i`'s shipper, resuming the shipping stream from
    /// the replica's own applied watermark — the re-join path after a
    /// crash or a [`ReplicatedTarget::kill_replica`]. Records at or below
    /// the watermark are skipped by the follower, so nothing is applied
    /// twice; everything after it replays, so nothing is lost.
    pub fn rejoin_replica(&mut self, i: usize) -> io::Result<()> {
        if let Some(handle) = self.shippers[i].take() {
            let _ = handle.join();
        }
        let log = self.log().expect("target not loaded").clone();
        let node = &self.nodes[i];
        let follower = LogFollower::resume(log.dir(), &node.watermark().snapshot())?;
        self.shippers[i] = Some(spawn_shipper(
            Arc::clone(node),
            follower,
            ShipperConfig {
                log,
                telemetry: self.telemetry().cloned(),
                failpoints: self.failpoints.clone(),
                stripe: self.stripe(),
            },
        ));
        Ok(())
    }

    /// Drain the primary pipeline, sync the WAL, and wait until every
    /// *live* replica's watermark covers everything committed. After this
    /// returns, each live replica's state is byte-equivalent to the
    /// primary's (crashed replicas are left where they stopped).
    ///
    /// Panics if shipping fails to converge within 30 s — a wedged shipper
    /// is a bug, not a condition to serve through.
    pub fn quiesce(&self) {
        if let Some(pipeline) = self.primary().pipeline_handle() {
            pipeline.drain_barrier().wait();
        }
        let log = self.log().expect("target not loaded");
        log.sync_all().expect("wal sync failed");
        let targets = self.committed();
        let deadline = Instant::now() + QUIESCE_TIMEOUT;
        for node in self.nodes.iter().filter(|n| n.is_running()) {
            while node.watermark().total_lag(&targets) > 0 {
                assert!(
                    Instant::now() < deadline,
                    "replica {} failed to catch up to {targets:?} (at {:?})",
                    node.id(),
                    node.watermark().snapshot()
                );
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
}

impl<B: ConcurrentIndex<u64> + 'static> ServeTarget for ReplicatedTarget<B> {
    fn describe(&self) -> String {
        format!(
            "{} ×{} replicas [ship policy={}{}]",
            self.primary().describe(),
            self.replica_count,
            self.policy,
            if self.slo.is_some() { " slo" } else { "" }
        )
    }

    fn load(&mut self, entries: &[(u64, Payload)]) {
        self.primary.load(entries);
        if !self.nodes.is_empty() {
            return;
        }
        let stripe = self.stripe();
        let primary = &self.primary;
        let log = primary
            .durability()
            .expect("replicated target primary is always durable")
            .clone();
        // Seed replicas from the *primary's* post-load state, not from
        // `entries`: on a restart the primary recovers its durable history,
        // which is what replicas must mirror. Load precedes traffic, so
        // the scan is race-free.
        let primary_index = primary.index();
        let mut seed = Vec::with_capacity(primary_index.len());
        primary_index.range(RangeSpec::new(0, usize::MAX), &mut seed);
        let shards = primary_index.num_shards();
        let baselines: Vec<u64> = (0..shards).map(|s| log.next_seq(s) - 1).collect();
        let mut factory = self.factory.lock().expect("factory poisoned");
        for id in 0..self.replica_count {
            let mut index = primary_index.sibling_from_factory(&mut **factory);
            index.bulk_load(&seed);
            let index = Arc::new(index);
            let pipeline = Arc::new(ShardPipeline::new(Arc::clone(&index), primary.workers()));
            let node = ReplicaNode::new(id, index, pipeline, &baselines, self.slo);
            let follower =
                LogFollower::resume(log.dir(), &baselines).expect("wal readable for shipping");
            self.shippers.push(Some(spawn_shipper(
                Arc::clone(&node),
                follower,
                ShipperConfig {
                    log: Arc::clone(&log),
                    telemetry: primary.telemetry().cloned(),
                    failpoints: self.failpoints.clone(),
                    stripe,
                },
            )));
            self.nodes.push(node);
        }
    }

    fn connect(&self) -> Box<dyn Connection + '_> {
        let primary = self
            .primary()
            .pipeline_handle()
            .expect("connect before load");
        let shards = self.primary().index().num_shards();
        let batch = self.primary.batch();
        Box::new(ReplicatedConn {
            target: self,
            primary,
            batch,
            buf: Vec::with_capacity(batch),
            meta: Vec::with_capacity(batch),
            session_req: vec![0; shards],
            rr: 0,
            batches: 0,
        })
    }

    fn stored_len(&self) -> usize {
        self.primary().index().len()
    }

    fn memory_bytes(&self) -> usize {
        self.primary().index().memory_usage()
            + self
                .nodes
                .iter()
                .map(|n| n.index().memory_usage())
                .sum::<usize>()
    }
}

impl<B: ConcurrentIndex<u64> + 'static> Drop for ReplicatedTarget<B> {
    fn drop(&mut self) {
        for node in &self.nodes {
            node.request_stop();
        }
        for handle in self.shippers.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}

/// Where one read sub-batch goes.
enum Placement {
    /// A replica, by position in the node set.
    Node(usize),
    /// The primary pipeline (no replicas, none eligible, or none running).
    Primary,
    /// Nowhere: admission control rejects the batch with
    /// [`IndexError::Overloaded`].
    Shed,
}

/// One driver thread's endpoint: buffers ops, forwards the write portion
/// of each batch to the primary, and places the read portion per policy.
struct ReplicatedConn<'a, B: ConcurrentIndex<u64> + 'static> {
    target: &'a ReplicatedTarget<B>,
    primary: Arc<ShardPipeline<B>>,
    batch: usize,
    buf: Vec<Op>,
    meta: Vec<(RequestKind, Option<Instant>)>,
    /// Read-your-writes requirement: per shard, the committed sequence at
    /// the time of this connection's last acknowledged write batch.
    /// (Sampled from the log, so it is conservative — it may also cover
    /// other sessions' concurrent writes.)
    session_req: Vec<u64>,
    /// Round-robin cursor.
    rr: usize,
    /// Read batches placed so far (paces the breach-probe cadence).
    batches: usize,
}

impl<B: ConcurrentIndex<u64> + 'static> ReplicatedConn<'_, B> {
    fn send(&mut self, rec: &mut PhaseRecorder) {
        if self.buf.is_empty() {
            return;
        }
        let ops = std::mem::take(&mut self.buf);
        let meta = std::mem::take(&mut self.meta);
        let mut writes = Vec::new();
        let mut wmeta = Vec::new();
        let mut reads = Vec::new();
        let mut rmeta = Vec::new();
        for (op, m) in ops.into_iter().zip(meta) {
            if op.is_write() {
                writes.push(op);
                wmeta.push(m);
            } else {
                reads.push(op);
                rmeta.push(m);
            }
        }
        if !writes.is_empty() {
            let responses = self.primary.submit(gre_shard::OpBatch::new(writes)).wait();
            rec.complete_batch(&wmeta, &responses);
            // The log's committed sequences now cover this batch; remember
            // them as the session's freshness floor for bounded reads.
            let log = self.target.log().expect("loaded");
            for (shard, req) in self.session_req.iter_mut().enumerate() {
                *req = log.next_seq(shard) - 1;
            }
        }
        if reads.is_empty() {
            return;
        }
        let (placement, redirected) = self.place(&reads);
        let n = reads.len() as u64;
        if redirected {
            rec.note_redirects(n);
            self.count(CounterId::ReadsRedirected, n);
        }
        match placement {
            Placement::Node(i) => {
                let node = &self.target.nodes()[i];
                let t0 = Instant::now();
                let responses = node
                    .pipeline()
                    .submit(gre_shard::OpBatch::new(reads))
                    .wait();
                if let Some(slo) = node.slo() {
                    slo.record(t0.elapsed().as_nanos() as u64);
                }
                rec.complete_batch(&rmeta, &responses);
            }
            Placement::Primary => {
                let responses = self.primary.submit(gre_shard::OpBatch::new(reads)).wait();
                rec.complete_batch(&rmeta, &responses);
            }
            Placement::Shed => {
                let responses = vec![Response::Error(IndexError::Overloaded); reads.len()];
                rec.complete_batch(&rmeta, &responses);
                self.count(CounterId::ReadsShed, n);
            }
        }
    }

    /// Decide where this read batch goes; the bool reports an SLO
    /// redirect (the policy's pick was in breach and a healthy replica
    /// took the batch instead).
    fn place(&mut self, reads: &[Op]) -> (Placement, bool) {
        let nodes = self.target.nodes();
        if nodes.is_empty() {
            return (Placement::Primary, false);
        }
        // Every 32nd batch probes the policy's pick even through a breach,
        // so a redirected-away (or fully shed) replica set keeps receiving
        // enough traffic to close an interval and clear its breach bit.
        self.batches = self.batches.wrapping_add(1);
        let probe = self.batches % 32 == 0;
        // A replica whose *shipper* died still serves reads (its backend is
        // intact, just frozen): least-lagged steers around it and a
        // watermark bound stops covering it, but lag-blind round-robin
        // keeps reading it — documented staleness, not an error.
        let mut candidates: Vec<usize> = (0..nodes.len()).collect();
        if self.target.policy == ReadPolicy::WatermarkBound {
            let touched = self.touched_shards(reads);
            candidates.retain(|&i| {
                touched
                    .iter()
                    .enumerate()
                    .all(|(s, &t)| !t || nodes[i].watermark().covers(s, self.session_req[s]))
            });
        }
        if candidates.is_empty() {
            return (Placement::Primary, false);
        }
        if self.target.slo.is_none() {
            return (Placement::Node(self.choose(&candidates)), false);
        }
        let breached = |i: usize| nodes[i].slo().is_some_and(|s| s.breached());
        let healthy: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&i| !breached(i))
            .collect();
        if healthy.is_empty() {
            return if probe {
                (Placement::Node(self.choose(&candidates)), false)
            } else {
                (Placement::Shed, false)
            };
        }
        let pick = self.choose(&candidates);
        if breached(pick) && !probe {
            (Placement::Node(self.choose(&healthy)), true)
        } else {
            (Placement::Node(pick), false)
        }
    }

    /// Pick one of `candidates` (non-empty) per the configured policy.
    fn choose(&mut self, candidates: &[usize]) -> usize {
        let nodes = self.target.nodes();
        match self.target.policy {
            ReadPolicy::LeastLagged => {
                let targets = self.target.committed();
                *candidates
                    .iter()
                    .min_by_key(|&&i| nodes[i].watermark().total_lag(&targets))
                    .expect("candidates non-empty")
            }
            ReadPolicy::RoundRobin | ReadPolicy::WatermarkBound => {
                let i = candidates[self.rr % candidates.len()];
                self.rr = self.rr.wrapping_add(1);
                i
            }
        }
    }

    /// Which shards this read batch touches. Range scans conservatively
    /// touch every shard (a scan may cross shard boundaries).
    fn touched_shards(&self, reads: &[Op]) -> Vec<bool> {
        let index = self.target.primary().index();
        let mut touched = vec![false; index.num_shards()];
        for op in reads {
            if op.kind() == RequestKind::Range {
                touched.iter_mut().for_each(|t| *t = true);
                break;
            }
            touched[index.shard_of(op.route_key())] = true;
        }
        touched
    }

    fn count(&self, id: CounterId, n: u64) {
        if let Some(t) = self.target.telemetry() {
            t.metrics().stripe(self.target.stripe()).add(id, n);
        }
    }
}

impl<B: ConcurrentIndex<u64> + 'static> Connection for ReplicatedConn<'_, B> {
    fn submit(&mut self, op: Op, intended: Option<Instant>, rec: &mut PhaseRecorder) {
        self.buf.push(op);
        self.meta.push((op.kind(), intended));
        if self.buf.len() >= self.batch {
            self.send(rec);
        }
    }

    fn flush(&mut self, rec: &mut PhaseRecorder) {
        self.send(rec);
    }
}
