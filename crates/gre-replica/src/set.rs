//! The replication mechanism: read replicas that continuously apply the
//! primary's WAL via a [`LogFollower`] shipping stream, publishing per-shard
//! applied watermarks, plus the shipper threads' kill/re-join lifecycle.

use crate::slo::{SloMonitor, SloTarget};
use gre_core::{ConcurrentIndex, Watermark};
use gre_durability::{DurableLog, FailAction, FailpointRegistry, LogFollower};
use gre_shard::{ShardPipeline, ShardedIndex};
use gre_telemetry::{CounterId, GaugeId, GlobalHistId, Telemetry};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shipper idle poll interval: how quickly a replica notices new WAL
/// records once the stream goes quiet.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// The failpoint name a replica's shipper evaluates once per applied
/// record: `replica/{id}/apply`. Script it with
/// [`FailAction::Crash`] to kill the shipper mid-stream (the position
/// passed to the trigger is the count of records applied so far, so
/// `Trigger::OnHit(n)` and `Trigger::AtByte(n)` both kill after `n`
/// records).
pub fn apply_failpoint(replica: usize) -> String {
    format!("replica/{replica}/apply")
}

/// One read replica: a same-topology copy of the primary's sharded index,
/// its own serving pipeline for reads, and the applied-sequence watermark
/// its shipper publishes.
pub struct ReplicaNode<B: ConcurrentIndex<u64> + 'static> {
    pub(crate) id: usize,
    pub(crate) index: Arc<ShardedIndex<u64, B>>,
    pub(crate) pipeline: Arc<ShardPipeline<B>>,
    pub(crate) watermark: Arc<Watermark>,
    pub(crate) slo: Option<SloMonitor>,
    /// Records fully applied by this replica's shipper (across rejoins).
    applied_records: AtomicU64,
    /// Write operations applied (the sum of record op counts).
    applied_ops: AtomicU64,
    /// Shipper liveness: true while a shipper thread is applying. A
    /// scripted crash or an error flips it to false.
    running: AtomicBool,
    /// Cooperative stop request for the current shipper incarnation.
    stop: AtomicBool,
    /// This replica's last contribution to the per-shard lag gauge, so a
    /// new shipper incarnation adjusts by delta instead of double-counting.
    lag_contrib: Mutex<Vec<i64>>,
}

impl<B: ConcurrentIndex<u64> + 'static> ReplicaNode<B> {
    pub(crate) fn new(
        id: usize,
        index: Arc<ShardedIndex<u64, B>>,
        pipeline: Arc<ShardPipeline<B>>,
        baselines: &[u64],
        slo: Option<SloTarget>,
    ) -> Arc<ReplicaNode<B>> {
        let watermark = Watermark::new(baselines.len());
        for (shard, &seq) in baselines.iter().enumerate() {
            watermark.advance(shard, seq);
        }
        Arc::new(ReplicaNode {
            id,
            index,
            pipeline,
            watermark: Arc::new(watermark),
            slo: slo.map(SloMonitor::new),
            applied_records: AtomicU64::new(0),
            applied_ops: AtomicU64::new(0),
            running: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            lag_contrib: Mutex::new(vec![0; baselines.len()]),
        })
    }

    /// This replica's id (its position in the replica set).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The replica's index copy (for post-run verification).
    pub fn index(&self) -> &ShardedIndex<u64, B> {
        &self.index
    }

    /// The per-shard applied watermark this replica publishes.
    pub fn watermark(&self) -> &Watermark {
        &self.watermark
    }

    /// The replica's read-serving pipeline.
    pub fn pipeline(&self) -> &ShardPipeline<B> {
        &self.pipeline
    }

    /// The replica's SLO monitor, when admission control is configured.
    pub fn slo(&self) -> Option<&SloMonitor> {
        self.slo.as_ref()
    }

    /// WAL records fully applied by this replica (across rejoins).
    pub fn applied_records(&self) -> u64 {
        self.applied_records.load(Ordering::Relaxed)
    }

    /// Write operations applied by this replica (across rejoins).
    pub fn applied_ops(&self) -> u64 {
        self.applied_ops.load(Ordering::Relaxed)
    }

    /// Whether a shipper thread is currently applying for this replica.
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::Acquire)
    }

    pub(crate) fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    pub(crate) fn clear_stop(&self) {
        self.stop.store(false, Ordering::Release);
    }
}

/// Everything one shipper incarnation needs; owned by the spawned thread.
pub(crate) struct ShipperConfig {
    pub log: Arc<DurableLog>,
    pub telemetry: Option<Arc<Telemetry>>,
    pub failpoints: Option<Arc<FailpointRegistry>>,
    /// Counter-stripe index this shipper records into.
    pub stripe: usize,
}

/// Spawn a shipper thread applying `follower`'s stream into `node`.
///
/// The shipper polls every shard, executes each record's write ops against
/// the replica's backend for that shard, advances the watermark *after* the
/// ops are visible, and publishes its shipping lag into the
/// [`GaugeId::ReplicaLag`] gauge. It exits when
/// [`ReplicaNode::request_stop`] is observed (graceful: `running` stays
/// consistent), when the scripted [`apply_failpoint`] fires with
/// [`FailAction::Crash`] (the kill-window drill), or when the stream
/// errors.
pub(crate) fn spawn_shipper<B: ConcurrentIndex<u64> + 'static>(
    node: Arc<ReplicaNode<B>>,
    mut follower: LogFollower,
    cfg: ShipperConfig,
) -> JoinHandle<()> {
    node.clear_stop();
    node.running.store(true, Ordering::Release);
    std::thread::spawn(move || {
        let shards = node.index.num_shards();
        let metas: Vec<_> = (0..shards).map(|s| node.index.backend(s).meta()).collect();
        let failpoint = cfg.failpoints.as_ref().map(|_| apply_failpoint(node.id));
        loop {
            if node.stop.load(Ordering::Acquire) {
                break;
            }
            let mut progressed = false;
            for (shard, meta) in metas.iter().enumerate() {
                let records = match follower.poll(shard) {
                    Ok(records) => records,
                    Err(_) => {
                        // A corrupt or truncated stream fail-stops this
                        // replica's shipping; reads keep being served from
                        // its last applied state.
                        node.running.store(false, Ordering::Release);
                        return;
                    }
                };
                for record in records {
                    let t0 = Instant::now();
                    let backend = node.index.backend(shard);
                    let mut ops = 0u64;
                    for op in &record.ops {
                        if op.is_write() {
                            op.execute(backend, meta);
                            ops += 1;
                        }
                    }
                    // Ops first, watermark second: a watermark never claims
                    // state the backend does not yet show.
                    node.watermark.advance(shard, record.seq);
                    let applied = node.applied_records.fetch_add(1, Ordering::AcqRel) + 1;
                    node.applied_ops.fetch_add(ops, Ordering::Relaxed);
                    if let Some(t) = &cfg.telemetry {
                        t.metrics()
                            .stripe(cfg.stripe)
                            .add(CounterId::ReplicaAppliedOps, ops);
                        t.metrics()
                            .global(GlobalHistId::ReplicaApplyNs)
                            .record(t0.elapsed().as_nanos() as u64);
                    }
                    progressed = true;
                    if let (Some(fp), Some(name)) = (&cfg.failpoints, &failpoint) {
                        if fp.check(name, applied) == Some(FailAction::Crash) {
                            // The scripted mid-stream kill: the shipper dies
                            // between two applies, exactly like a replica
                            // process crash after persisting its state.
                            node.running.store(false, Ordering::Release);
                            return;
                        }
                    }
                }
            }
            publish_lag(&node, &cfg);
            if !progressed {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
        publish_lag(&node, &cfg);
        node.running.store(false, Ordering::Release);
    })
}

/// Fold this replica's current shipping lag into the shared per-shard
/// [`GaugeId::ReplicaLag`] gauge (which sums lag across replicas), by
/// delta against the node's last published contribution.
fn publish_lag<B: ConcurrentIndex<u64> + 'static>(node: &ReplicaNode<B>, cfg: &ShipperConfig) {
    let Some(t) = &cfg.telemetry else { return };
    let mut contrib = node.lag_contrib.lock().expect("lag contribution poisoned");
    for (shard, prev) in contrib.iter_mut().enumerate() {
        let committed = cfg.log.next_seq(shard) - 1;
        let lag = node.watermark.lag_behind(shard, committed) as i64;
        if lag != *prev {
            t.metrics()
                .shard(shard)
                .gauge_add(GaugeId::ReplicaLag, lag - *prev);
            *prev = lag;
        }
    }
}
