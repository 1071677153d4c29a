//! The batched request pipeline: [`OpBatch`] → per-shard sub-batches executed
//! on a fixed worker pool, with **typed per-operation results**.
//!
//! Callers hand the pipeline whole batches of operations instead of issuing
//! them one by one; the pipeline routes each batch into per-shard sub-batches
//! (amortizing partitioner lookups and thread hand-off over many ops) and
//! executes them on `workers` long-lived threads. Shard `s` is pinned to
//! worker `s % workers`, and each worker drains its queue in arrival order,
//! which yields the pipeline's ordering guarantee: **operations on the same
//! shard execute in submission order** (per-shard FIFO). Operations on
//! different shards from the same batch may run concurrently — exactly the
//! freedom a partitioned store is allowed to exploit.
//!
//! The client surface is built from three pieces:
//!
//! * [`ShardPipeline::try_submit`] enqueues a batch without blocking. Every
//!   shard queue is **bounded**; a full queue rejects the whole batch with
//!   [`Backpressure`] (returning it to the caller) rather than queueing
//!   unboundedly. [`ShardPipeline::submit`] is the blocking form that waits
//!   for capacity.
//! * [`SubmitHandle`] is the per-batch completion handle. Workers fill one
//!   [`Response`] slot per operation, **in submission order** (slot `i`
//!   answers `batch.ops[i]`); the handle exposes the non-blocking
//!   [`try_take`](SubmitHandle::try_take) and the blocking
//!   [`wait`](SubmitHandle::wait) — no async runtime, just a mutex/condvar
//!   pair per batch.
//! * [`Session`] pipelines many in-flight batches for one client and hands
//!   results back in FIFO submission order, so a client can keep the worker
//!   pool busy without ever blocking on an individual batch.
//!
//! Point operations go straight to the owning shard's backend (the routing
//! already picked it, so the composite's dispatch is skipped); range scans
//! run through the full [`ShardedIndex`] so cross-shard stitching applies.
//! Operations a backend cannot serve (deletes or scans with the capability
//! flag off) answer [`Response::Error`] instead of silently no-opping.
//!
//! ## Durability
//!
//! A pipeline built by [`ShardPipeline::with_services`] with a log carries an
//! optional per-shard write-ahead log ([`DurableLog`]). The group-commit
//! unit is **what the shard has queued, not one sub-batch**: when a worker
//! turns to a sub-batch whose writes are not yet logged, it takes every
//! sub-batch of that shard waiting in its queue, logs all their writes, in
//! submission order, as **one record under one sync barrier**, and only then
//! executes and answers them one by one in FIFO order (log-then-execute).
//! Group size therefore adapts to load — one sub-batch when the queue is
//! shallow, the whole backlog (at most the queue capacity) when a slow sync
//! made it pile up — and per-shard FIFO order keeps the log a faithful
//! replay script. The contract is
//! **acknowledged ⇒ durable, refused ⇒ never in the log**, and the semantics
//! are **fail-stop**: if the log cannot accept a group, no member of it
//! executes and every op in every member answers
//! [`Response::Error`]\([`IndexError::Shutdown`]) — memory never runs ahead
//! of the durable state. [`ShardPipeline::shutdown`] flips the same terminal
//! answer for all subsequent submissions and for queued sub-batches no
//! record covers yet (one whose writes already reached the log still
//! executes and is acknowledged), letting clients distinguish "drained and
//! executed" from "refused". Detached (the default), the gate is one branch
//! per sub-batch.

use crate::sharded::ShardedIndex;
use gre_core::{ConcurrentIndex, IndexError, IndexMeta, Payload, Request, Response};
use gre_durability::{DurableLog, GroupReceipt};
use gre_telemetry::{CounterId, GlobalHistId, ShardHistId, SpanRecord, Telemetry};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Op = Request<u64>;

/// Default bound on each shard's queue, in sub-batches.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// A batch of operations submitted to the pipeline as one unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpBatch {
    pub ops: Vec<Op>,
}

impl OpBatch {
    pub fn new(ops: Vec<Op>) -> Self {
        OpBatch { ops }
    }
}

/// A batch was rejected without being enqueued because a shard's bounded
/// queue was at capacity (rejection is all-or-nothing). Carries the
/// rejected batch back to the caller for retry; its `Display` names the
/// saturated shard.
#[derive(Debug)]
pub struct Backpressure {
    /// The rejected batch, returned for retry.
    pub batch: OpBatch,
    /// The saturated shard.
    shard: usize,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} queue full; batch of {} ops rejected",
            self.shard,
            self.batch.ops.len()
        )
    }
}

impl std::error::Error for Backpressure {}

/// Completion state shared between one batch's submitter and the workers
/// executing its sub-batches.
struct BatchShared {
    state: Mutex<BatchState>,
    ready: Condvar,
}

struct BatchState {
    /// One slot per submitted op, indexed by submission position.
    slots: Vec<Option<Response<u64>>>,
    /// Sub-batches still executing.
    pending: usize,
    /// Results already handed to the client.
    taken: bool,
}

impl BatchShared {
    fn new(ops: usize, pending: usize) -> Self {
        BatchShared {
            state: Mutex::new(BatchState {
                slots: (0..ops).map(|_| None).collect(),
                pending,
                taken: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// A batch already answered in full — every slot filled with a terminal
    /// [`IndexError::Shutdown`], nothing pending. Used to refuse submissions
    /// after [`ShardPipeline::shutdown`] without touching the queues.
    fn refused(ops: usize) -> Self {
        BatchShared {
            state: Mutex::new(BatchState {
                slots: (0..ops)
                    .map(|_| Some(Response::Error(IndexError::Shutdown)))
                    .collect(),
                pending: 0,
                taken: false,
            }),
            ready: Condvar::new(),
        }
    }
}

/// Handle to an in-flight batch: per-op [`Response`] slots filled by the
/// workers in submission order (slot `i` answers op `i` of the batch).
///
/// The handle never blocks unless asked to: poll with
/// [`try_take`](SubmitHandle::try_take), or give up the non-blocking
/// property explicitly with [`wait`](SubmitHandle::wait). Dropping the
/// handle is allowed at any time; the batch still executes
/// (fire-and-forget).
pub struct SubmitHandle {
    shared: Arc<BatchShared>,
}

impl SubmitHandle {
    /// Take the per-op responses if the batch has completed; `None` if it is
    /// still executing or the results were already taken.
    pub fn try_take(&mut self) -> Option<Vec<Response<u64>>> {
        let mut state = self.shared.state.lock().expect("pipeline poisoned");
        Self::take_locked(&mut state)
    }

    /// Block until the batch completes and return the per-op responses.
    ///
    /// # Panics
    /// If the results were already taken via `try_take`.
    pub fn wait(self) -> Vec<Response<u64>> {
        let mut state = self.shared.state.lock().expect("pipeline poisoned");
        while state.pending > 0 {
            state = self.shared.ready.wait(state).expect("pipeline poisoned");
        }
        Self::take_locked(&mut state).expect("batch results already taken")
    }

    fn take_locked(state: &mut BatchState) -> Option<Vec<Response<u64>>> {
        if state.pending > 0 || state.taken {
            return None;
        }
        state.taken = true;
        Some(
            std::mem::take(&mut state.slots)
                .into_iter()
                .map(|slot| slot.expect("completed batch has a response in every slot"))
                .collect(),
        )
    }
}

/// A per-shard unit of work queued to a worker.
struct Job {
    shard: usize,
    /// `(submission index, op)` pairs — the index addresses the result slot.
    ops: Vec<(usize, Op)>,
    shared: Arc<BatchShared>,
    /// Enqueue timestamp (telemetry epoch ns); 0 when telemetry is off.
    enqueue_ns: u64,
    /// The sampled span this sub-batch carries, if any.
    trace: Option<PendingSpan>,
    /// Where this job stands at its worker's durability gate.
    gate: Gate,
}

/// A queued job's standing at the worker's durability gate (see
/// `Worker::admit`). The stamp is what keeps the contract at group
/// granularity: a job whose writes reached the log executes and is
/// acknowledged whatever happens later, a job whose group was refused
/// executes nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Gate {
    /// Undecided: none of its writes is in the log.
    Open,
    /// Its writes are in the group being logged right now; it takes that
    /// group's verdict before the worker looks at it again.
    Grouped,
    /// Cleared to execute: its writes are logged, or it has none to log.
    Admitted,
    /// Its group was refused: every op answers [`IndexError::Shutdown`].
    Refused,
}

/// Submit-side half of a sampled span, completed by the executing worker.
struct PendingSpan {
    /// Index into `Job::ops` of the traced operation.
    pos: usize,
    /// Global sample ticket of the traced op.
    op_id: u64,
    submit_ns: u64,
    route_ns: u64,
}

/// State shared by the pipeline handle and its workers for queue accounting.
struct QueueGauge {
    /// Sub-batches queued or executing, per shard.
    depths: Vec<AtomicUsize>,
    /// Blocking submitters currently parked on `freed`; workers skip the
    /// notify lock entirely while this is zero (the common case).
    waiters: AtomicUsize,
    /// Capacity signal for blocking submitters.
    lock: Mutex<()>,
    freed: Condvar,
}

/// A fixed worker pool executing batches against a shared [`ShardedIndex`],
/// answering every operation with a typed [`Response`].
///
/// Dropping the pipeline shuts the workers down (they drain already-queued
/// jobs first, so submitted work is never lost and every outstanding
/// [`SubmitHandle`] still completes).
pub struct ShardPipeline<B: ConcurrentIndex<u64> + 'static> {
    index: Arc<ShardedIndex<u64, B>>,
    queues: Vec<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    gauge: Arc<QueueGauge>,
    queue_capacity: usize,
    telemetry: Option<Arc<Telemetry>>,
    durability: Option<Arc<DurableLog>>,
    /// Set by [`ShardPipeline::shutdown`]: submissions and queued work are
    /// refused with [`IndexError::Shutdown`] instead of executing.
    stopping: Arc<AtomicBool>,
}

impl<B: ConcurrentIndex<u64> + 'static> ShardPipeline<B> {
    /// Spawn `workers` threads serving `index` with the default per-shard
    /// queue bound. The worker count is clamped to at least 1 and at most
    /// the shard count (extra workers would never receive a shard
    /// assignment).
    pub fn new(index: Arc<ShardedIndex<u64, B>>, workers: usize) -> Self {
        Self::with_services(index, workers, DEFAULT_QUEUE_CAPACITY, None, None)
    }

    /// Like [`ShardPipeline::new`] with an explicit per-shard queue bound
    /// (in sub-batches; clamped to at least 1) and two optional services,
    /// each attached independently: `telemetry` records every submission
    /// and execution (batch and sub-batch counters, per-shard service time,
    /// the session window, sampled spans — see `gre-telemetry`), and
    /// `durability` group-commits each sub-batch's writes before execution —
    /// one record for everything its shard had queued (log-then-execute; see
    /// the module docs' durability section).
    ///
    /// # Panics
    /// If `telemetry` or `durability` was sized for a different shard count
    /// than `index`.
    pub fn with_services(
        index: Arc<ShardedIndex<u64, B>>,
        workers: usize,
        queue_capacity: usize,
        telemetry: Option<Arc<Telemetry>>,
        durability: Option<Arc<DurableLog>>,
    ) -> Self {
        if let Some(t) = telemetry.as_deref() {
            assert_eq!(
                t.metrics().shard_count(),
                index.num_shards(),
                "telemetry shard count must match the served index"
            );
        }
        if let Some(d) = durability.as_deref() {
            assert_eq!(
                d.shards(),
                index.num_shards(),
                "durable log shard count must match the served index"
            );
        }
        let workers = workers.clamp(1, index.num_shards());
        let gauge = Arc::new(QueueGauge {
            depths: (0..index.num_shards())
                .map(|_| AtomicUsize::new(0))
                .collect(),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            freed: Condvar::new(),
        });
        let stopping = Arc::new(AtomicBool::new(false));
        let mut queues = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for worker_id in 0..workers {
            let (tx, rx) = channel::<Job>();
            let index = Arc::clone(&index);
            let gauge = Arc::clone(&gauge);
            let telemetry = telemetry.clone();
            let durability = durability.clone();
            let stopping = Arc::clone(&stopping);
            handles.push(std::thread::spawn(move || {
                // Capability metadata is static per backend; resolve it once
                // instead of per operation (composite meta takes locks).
                let index_meta = index.meta();
                let backend_metas = (0..index.num_shards())
                    .map(|s| index.backend(s).meta())
                    .collect();
                Worker {
                    worker_id,
                    rx,
                    index,
                    index_meta,
                    backend_metas,
                    gauge,
                    telemetry,
                    durability,
                    stopping,
                    backlog: VecDeque::new(),
                    writes: Vec::new(),
                    scratch: Scratch::default(),
                }
                .run()
            }));
            queues.push(tx);
        }
        ShardPipeline {
            index,
            queues,
            workers: handles,
            gauge,
            queue_capacity: queue_capacity.max(1),
            telemetry,
            durability,
            stopping,
        }
    }

    /// The attached telemetry, when this pipeline was built with
    /// [`ShardPipeline::with_services`].
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Stop accepting and executing work. Every subsequent submission — and
    /// every sub-batch still queued when its worker reaches it, unless its
    /// writes are already in the durable log — answers all its operations
    /// with [`Response::Error`]\([`IndexError::Shutdown`]), so a submitter
    /// can tell *refused* from *completed* per operation. Writes never
    /// half-apply: a refused sub-batch executes nothing and is in no log
    /// record; a logged one always executes and is acknowledged.
    ///
    /// Idempotent; does not wait for in-flight work (drop the pipeline or
    /// wait on outstanding handles for that).
    pub fn shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
    }

    /// The served index (for reads outside the batch path).
    pub fn index(&self) -> &Arc<ShardedIndex<u64, B>> {
        &self.index
    }

    /// Split `batch` into per-shard sub-batches and enqueue them without
    /// blocking. Rejection is all-or-nothing: if any target shard's queue is
    /// at capacity, nothing is enqueued and the batch comes back inside
    /// [`Backpressure`]. Sub-batches of the same shard (across submissions)
    /// execute in submission order on the shard's pinned worker.
    pub fn try_submit(&self, batch: OpBatch) -> Result<SubmitHandle, Backpressure> {
        // A shut-down pipeline refuses instantly with a pre-completed
        // handle: every slot already holds the terminal `Shutdown` error,
        // the queues are never touched, and no telemetry is recorded (the
        // ops neither enter nor leave the pipeline).
        if self.stopping.load(Ordering::SeqCst) {
            return Ok(SubmitHandle {
                shared: Arc::new(BatchShared::refused(batch.ops.len())),
            });
        }
        let shards = self.index.num_shards();
        let ops = batch.ops.len();
        // Submit-side span timestamps; both stay 0 when telemetry is off,
        // keeping the uninstrumented hot path clock-free.
        let submit_ns = self.telemetry.as_deref().map_or(0, Telemetry::now_ns);
        let sub_batches =
            split_indexed_ops_by_shard(&batch.ops, shards, |k| self.index.shard_of(k));
        let route_ns = self.telemetry.as_deref().map_or(0, Telemetry::now_ns);

        // Reserve queue slots before enqueueing anything, so a rejected
        // batch leaves no partial work behind.
        let mut reserved: Vec<usize> = Vec::new();
        for (shard, sub) in sub_batches.iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let depth = self.gauge.depths[shard].fetch_add(1, Ordering::SeqCst);
            if depth >= self.queue_capacity {
                self.gauge.depths[shard].fetch_sub(1, Ordering::SeqCst);
                for &s in &reserved {
                    self.gauge.depths[s].fetch_sub(1, Ordering::SeqCst);
                }
                if let Some(t) = self.telemetry.as_deref() {
                    t.metrics()
                        .stripe(self.workers.len())
                        .inc(CounterId::BatchesRejected);
                }
                return Err(Backpressure { batch, shard });
            }
            reserved.push(shard);
        }

        // Accepted: account the batch and pick the traced op (if the 1-in-N
        // sampler lands inside this batch). Sampling happens only after
        // acceptance so rejected batches never consume sample tickets.
        let mut enqueue_ns = 0u64;
        let mut traced: Option<(usize, PendingSpan)> = None;
        if let Some(t) = self.telemetry.as_deref() {
            enqueue_ns = t.now_ns();
            // Submitters share the stripe after the workers' (wraps when
            // telemetry was sized with exactly `workers` stripes).
            t.metrics()
                .stripe(self.workers.len())
                .inc(CounterId::BatchesSubmitted);
            if t.trace().is_some() {
                if let Some((op_id, offset)) = t.sampler().claim(ops as u64) {
                    traced = sub_batches.iter().enumerate().find_map(|(shard, sub)| {
                        sub.iter().position(|&(i, _)| i == offset).map(|pos| {
                            (
                                shard,
                                PendingSpan {
                                    pos,
                                    op_id,
                                    submit_ns,
                                    route_ns,
                                },
                            )
                        })
                    });
                }
            }
        }

        let shared = Arc::new(BatchShared::new(ops, reserved.len()));
        for (shard, sub) in sub_batches.into_iter().enumerate() {
            if sub.is_empty() {
                continue;
            }
            let trace = match &mut traced {
                Some((s, _)) if *s == shard => traced.take().map(|(_, span)| span),
                _ => None,
            };
            self.queues[shard % self.queues.len()]
                .send(Job {
                    shard,
                    ops: sub,
                    shared: Arc::clone(&shared),
                    enqueue_ns,
                    trace,
                    gate: Gate::Open,
                })
                .expect("pipeline worker exited early");
        }
        Ok(SubmitHandle { shared })
    }

    /// Submit, waiting for queue capacity when a shard is saturated (the
    /// blocking counterpart of [`ShardPipeline::try_submit`]).
    pub fn submit(&self, batch: OpBatch) -> SubmitHandle {
        // Uncontended fast path: no lock at all, so concurrent submitters
        // split and enqueue their batches fully in parallel.
        let mut batch = match self.try_submit(batch) {
            Ok(handle) => return handle,
            Err(bp) => bp.batch,
        };
        // Slow path: register as a waiter (so workers notify), then retry
        // under the capacity lock. The register-then-check order pairs with
        // the workers' free-then-check-waiters order; the wait timeout is a
        // belt-and-braces backstop.
        self.gauge.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.gauge.lock.lock().expect("pipeline poisoned");
        loop {
            match self.try_submit(batch) {
                Ok(handle) => {
                    drop(guard);
                    self.gauge.waiters.fetch_sub(1, Ordering::SeqCst);
                    return handle;
                }
                Err(bp) => batch = bp.batch,
            }
            let (next, _) = self
                .gauge
                .freed
                .wait_timeout(guard, Duration::from_millis(10))
                .expect("pipeline poisoned");
            guard = next;
        }
    }
}

impl<B: ConcurrentIndex<u64> + 'static> Drop for ShardPipeline<B> {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop after it drains
        // the jobs already queued.
        self.queues.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // With the workers gone nothing else can append: flush any groups an
        // `EveryN` sync policy left unsynced, so a clean drop leaves the log
        // durable up to the last executed group.
        if let Some(log) = &self.durability {
            let _ = log.sync_all();
        }
    }
}

/// One worker thread's state: its queue, the index and services it works
/// against, and the buffers it reuses for its whole life.
struct Worker<B: ConcurrentIndex<u64> + 'static> {
    worker_id: usize,
    rx: Receiver<Job>,
    index: Arc<ShardedIndex<u64, B>>,
    index_meta: IndexMeta,
    backend_metas: Vec<IndexMeta>,
    gauge: Arc<QueueGauge>,
    telemetry: Option<Arc<Telemetry>>,
    durability: Option<Arc<DurableLog>>,
    stopping: Arc<AtomicBool>,
    /// Jobs taken off the channel while forming a group, in arrival order.
    /// They still count against their shard's queue depth, so the backlog —
    /// and with it a group — is bounded by the queue capacity.
    backlog: VecDeque<Job>,
    /// Scratch for one group's concatenated writes.
    writes: Vec<Op>,
    /// Scratch for executing one sub-batch.
    scratch: Scratch,
}

/// What [`execute_sub_batch`] fills for one sub-batch, kept by the worker
/// across sub-batches so that, once each buffer has grown to the largest
/// sub-batch, executing one allocates nothing but its range answers.
#[derive(Default)]
struct Scratch {
    /// The keys of one run of consecutive gets.
    keys: Vec<u64>,
    /// The answers to `keys`, in order.
    results: Vec<Option<Payload>>,
    /// The sub-batch's `(slot, response)` pairs, in submission order.
    /// Empty between sub-batches: `serve` drains it into the batch's slots.
    responses: Vec<(usize, Response<u64>)>,
}

impl<B: ConcurrentIndex<u64> + 'static> Worker<B> {
    /// Serve jobs in arrival order — the backlog first, then the channel —
    /// until every sender is gone and everything queued has been answered.
    fn run(mut self) {
        loop {
            let job = match self.backlog.pop_front() {
                Some(job) => job,
                None => match self.rx.recv() {
                    Ok(job) => job,
                    Err(_) => return,
                },
            };
            self.serve(job);
        }
    }

    /// Give `shard`'s queue slot back and wake blocking submitters — but
    /// only when someone is actually parked: a waiter registers itself
    /// (SeqCst) *before* its final capacity check, so either this load sees
    /// it, or the waiter's check sees the freed slot. Notifying under the
    /// lock closes the remaining window between a waiter's failed check and
    /// its wait.
    fn release_slot(&self, shard: usize) {
        self.gauge.depths[shard].fetch_sub(1, Ordering::SeqCst);
        if self.gauge.waiters.load(Ordering::SeqCst) > 0 {
            let _g = self.gauge.lock.lock().expect("pipeline poisoned");
            self.gauge.freed.notify_all();
        }
    }

    /// The durability gate, before anything of `job` touches memory.
    /// Contract: **acknowledged ⇒ durable, refused ⇒ never in the log.**
    ///
    /// A job stamped by an earlier group keeps its stamp. An undecided one
    /// is refused if the pipeline is shutting down (so shutdown refuses
    /// only what no record covers); otherwise its writes open a group: the
    /// worker empties its channel into the backlog and appends, in arrival
    /// order, the writes of every undecided job of the same shard in the
    /// backlog. The group is logged as **one** record under one barrier (per
    /// the log's policy) and every member is stamped with the verdict — a
    /// refused group (log fail-stopped, sink error) executes none of its
    /// members, so memory never runs ahead of the log. With nothing else
    /// queued the group is the job alone: one record, one barrier per
    /// sub-batch.
    ///
    /// Returns the receipt of the record this call wrote, if it wrote one.
    fn admit(&mut self, job: &mut Job) -> Option<GroupReceipt> {
        if job.gate != Gate::Open {
            return None;
        }
        if self.stopping.load(Ordering::SeqCst) {
            job.gate = Gate::Refused;
            return None;
        }
        job.gate = Gate::Admitted;
        let log = self.durability.as_deref()?;
        self.writes.clear();
        self.writes.extend(writes_of(job));
        if self.writes.is_empty() {
            return None;
        }
        self.backlog.extend(self.rx.try_iter());
        let shard = job.shard;
        for queued in self.backlog.iter_mut() {
            if queued.shard == shard && queued.gate == Gate::Open {
                let before = self.writes.len();
                self.writes.extend(writes_of(queued));
                if self.writes.len() > before {
                    queued.gate = Gate::Grouped;
                }
            }
        }
        let receipt = log.log_group(shard, &self.writes).ok();
        let verdict = match receipt {
            Some(_) => Gate::Admitted,
            None => Gate::Refused,
        };
        job.gate = verdict;
        for queued in self.backlog.iter_mut() {
            if queued.gate == Gate::Grouped {
                queued.gate = verdict;
            }
        }
        receipt
    }

    /// Gate, execute and answer one sub-batch.
    fn serve(&mut self, mut job: Job) {
        // Dequeue stamp, taken before the gate so service time is
        // separable. A group's log time is therefore service time of the
        // member that opened it; the other members are still queued while
        // it runs, so per-job service intervals never overlap.
        let execute_ns = self.telemetry.as_deref().map(Telemetry::now_ns);
        let receipt = self.admit(&mut job);
        let batched_gets = if job.gate == Gate::Refused {
            self.scratch.responses.extend(
                job.ops
                    .iter()
                    .map(|&(slot, _)| (slot, Response::Error(IndexError::Shutdown))),
            );
            0
        } else {
            execute_sub_batch(
                &self.index,
                &self.backend_metas[job.shard],
                &self.index_meta,
                &job,
                &mut self.scratch,
            )
        };
        let responses = &mut self.scratch.responses;
        debug_assert_eq!(
            responses.len(),
            job.ops.len(),
            "every submitted op must have exactly one response"
        );
        // Every counter a snapshot must reconcile is updated *before* the
        // responses become visible below: once a client observes its batch
        // complete, a snapshot accounts for every one of its ops. A group's
        // record is counted once, with the member that wrote it.
        let complete_ns = self.telemetry.as_deref().map(|t| {
            let now = t.now_ns();
            t.metrics()
                .shard_hist(job.shard, ShardHistId::ServiceNs)
                .record(now.saturating_sub(execute_ns.unwrap_or(now)));
            let stripe = t.metrics().stripe(self.worker_id);
            stripe.inc(CounterId::SubBatchesExecuted);
            stripe.add(CounterId::OpsCompleted, job.ops.len() as u64);
            stripe.add(CounterId::BatchedGetOps, batched_gets as u64);
            if let Some(r) = &receipt {
                stripe.inc(CounterId::WalAppends);
                stripe.add(CounterId::WalFsyncs, r.fsyncs);
            }
            now
        });
        {
            let mut state = job.shared.state.lock().expect("pipeline poisoned");
            for (slot, response) in responses.drain(..) {
                state.slots[slot] = Some(response);
            }
            state.pending -= 1;
            if state.pending == 0 {
                job.shared.ready.notify_all();
            }
        }
        self.release_slot(job.shard);
        if let Some(t) = self.telemetry.as_deref() {
            if let (Some(ring), Some(span)) = (t.trace(), &job.trace) {
                let (_, op) = job.ops[span.pos];
                ring.record(SpanRecord {
                    op_id: span.op_id,
                    kind: op.kind(),
                    shard: job.shard as u32,
                    batch_ops: job.ops.len() as u32,
                    submit_ns: span.submit_ns,
                    route_ns: span.route_ns,
                    enqueue_ns: job.enqueue_ns,
                    execute_ns: execute_ns.unwrap_or(0),
                    complete_ns: complete_ns.unwrap_or(0),
                    respond_ns: t.now_ns(),
                });
            }
        }
    }
}

/// Split a request stream into `shards` per-shard sub-streams using `route`
/// (a `key -> shard` map applied to [`Op::route_key`]; out-of-range results
/// are clamped to the last shard, and zero shards is treated as one). Each
/// bucketed operation carries its index in `ops`, and within a bucket the
/// operations keep the relative order they had in `ops`, so executing every
/// sub-stream FIFO preserves per-key program order.
fn split_indexed_ops_by_shard<F>(ops: &[Op], shards: usize, route: F) -> Vec<Vec<(usize, Op)>>
where
    F: Fn(u64) -> usize,
{
    let shards = shards.max(1);
    // Pre-size each bucket at the uniform share to avoid repeated regrowth
    // on large streams without overcommitting on skewed ones.
    let hint = ops.len() / shards;
    let mut buckets: Vec<Vec<(usize, Op)>> =
        (0..shards).map(|_| Vec::with_capacity(hint)).collect();
    for (i, op) in ops.iter().enumerate() {
        let s = route(op.route_key()).min(shards - 1);
        buckets[s].push((i, *op));
    }
    buckets
}

/// The writes of one sub-batch, in submission order (what its group logs).
fn writes_of(job: &Job) -> impl Iterator<Item = Op> + '_ {
    job.ops.iter().map(|&(_, op)| op).filter(|op| op.is_write())
}

/// Execute one per-shard sub-batch into `scratch.responses` as `(slot,
/// response)` pairs, and return how many of its gets ran batched. Point ops
/// hit the owning backend directly; scans go through the composite for
/// cross-shard stitching, gated on the composite's merged capability flags.
///
/// Maximal runs of **consecutive** lookups execute through the backend's
/// [`ConcurrentIndex::get_batch`], so a partitioned backend answers the run
/// under one read lock per touched partition and one two-stage probe (ALEX+
/// predicts and prefetches a group of keys before searching any). Only
/// consecutive gets are grouped — a get is never hoisted past a write that
/// precedes it in the sub-batch, preserving the pipeline's per-shard FIFO
/// semantics (read-your-write within a batch). Lookups are never
/// capability-gated (mirroring `Request::execute`), so every slot in a
/// batched run answers `Response::Get`.
///
/// It allocates nothing per call but its range answers, each once, at its
/// bound: the runs' keys, their answers and the responses go into the
/// worker's reused `scratch`.
fn execute_sub_batch<B: ConcurrentIndex<u64>>(
    index: &ShardedIndex<u64, B>,
    backend_meta: &IndexMeta,
    index_meta: &IndexMeta,
    job: &Job,
    scratch: &mut Scratch,
) -> usize {
    let backend = index.backend(job.shard);
    let Scratch {
        keys,
        results,
        responses: out,
    } = scratch;
    let mut batched_gets = 0usize;
    let mut i = 0usize;
    while i < job.ops.len() {
        let run_end = i + job.ops[i..]
            .iter()
            .take_while(|(_, op)| matches!(op, Op::Get(_)))
            .count();
        if run_end - i >= 2 {
            keys.clear();
            keys.extend(job.ops[i..run_end].iter().map(|&(_, op)| match op {
                Op::Get(k) => k,
                _ => unreachable!("run contains only gets"),
            }));
            backend.get_batch(keys, results);
            debug_assert_eq!(results.len(), keys.len());
            batched_gets += keys.len();
            for (&(slot, _), result) in job.ops[i..run_end].iter().zip(results.drain(..)) {
                out.push((slot, Response::Get(result)));
            }
            i = run_end;
        } else {
            let (slot, op) = job.ops[i];
            let response = match op {
                Op::Range(_) => op.execute(index, index_meta),
                _ => op.execute(backend, backend_meta),
            };
            out.push((slot, response));
            i += 1;
        }
    }
    batched_gets
}

/// A client-side handle that pipelines many in-flight batches over one
/// [`ShardPipeline`], handing results back in **FIFO submission order**.
///
/// A session caps its own **in-flight** window (`max_inflight`): submitting
/// past the cap first waits out the oldest batch, so a single client cannot
/// monopolize the pipeline's bounded shard queues. Completed-but-unreceived
/// results are *not* bounded — they accumulate inside the session until the
/// client consumes them through [`try_recv`](Session::try_recv) /
/// [`recv`](Session::recv) / [`drain`](Session::drain), so a client that
/// only ever submits retains one response buffer per batch.
///
/// Dropping a session mid-flight is safe: its outstanding batches still
/// execute (the pipeline's drop-drains guarantee), only the results are
/// discarded.
pub struct Session<'p, B: ConcurrentIndex<u64> + 'static> {
    pipeline: &'p ShardPipeline<B>,
    inflight: VecDeque<SubmitHandle>,
    completed: VecDeque<Vec<Response<u64>>>,
    max_inflight: usize,
}

/// Default cap on a session's in-flight batches.
const DEFAULT_MAX_INFLIGHT: usize = 32;

impl<'p, B: ConcurrentIndex<u64> + 'static> Session<'p, B> {
    /// Open a session over `pipeline` with the default in-flight window of
    /// 32 batches.
    pub fn new(pipeline: &'p ShardPipeline<B>) -> Self {
        Self::with_max_inflight(pipeline, DEFAULT_MAX_INFLIGHT)
    }

    /// Open a session with an explicit in-flight window (clamped to ≥ 1).
    pub fn with_max_inflight(pipeline: &'p ShardPipeline<B>, max_inflight: usize) -> Self {
        Session {
            pipeline,
            inflight: VecDeque::new(),
            completed: VecDeque::new(),
            max_inflight: max_inflight.max(1),
        }
    }

    /// Batches submitted but not yet returned through `recv`/`try_recv`.
    pub fn pending(&self) -> usize {
        self.inflight.len() + self.completed.len()
    }

    /// Submit a batch, blocking only when the session's in-flight window or
    /// a shard queue is full (never on the batch's own completion).
    pub fn submit(&mut self, batch: OpBatch) {
        while self.inflight.len() >= self.max_inflight {
            let handle = self.inflight.pop_front().expect("inflight not empty");
            self.completed.push_back(handle.wait());
        }
        self.inflight.push_back(self.pipeline.submit(batch));
        // Sample the in-flight window occupancy, the batch just submitted
        // included.
        if let Some(t) = self.pipeline.telemetry() {
            t.metrics()
                .global(GlobalHistId::SessionWindow)
                .record(self.inflight.len() as u64);
        }
    }

    /// The oldest unreturned batch's responses, if it has completed
    /// (non-blocking). `None` when nothing is pending or the oldest batch is
    /// still executing — FIFO order means a completed newer batch is never
    /// returned early.
    pub fn try_recv(&mut self) -> Option<Vec<Response<u64>>> {
        if let Some(done) = self.completed.pop_front() {
            return Some(done);
        }
        let front = self.inflight.front_mut()?;
        let responses = front.try_take()?;
        self.inflight.pop_front();
        Some(responses)
    }

    /// Block for the oldest unreturned batch's responses; `None` when the
    /// session has nothing pending.
    pub fn recv(&mut self) -> Option<Vec<Response<u64>>> {
        if let Some(done) = self.completed.pop_front() {
            return Some(done);
        }
        Some(self.inflight.pop_front()?.wait())
    }

    /// Wait out every pending batch and return all remaining responses in
    /// submission order.
    pub fn drain(&mut self) -> Vec<Vec<Response<u64>>> {
        let mut all: Vec<Vec<Response<u64>>> = self.completed.drain(..).collect();
        all.extend(self.inflight.drain(..).map(SubmitHandle::wait));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;
    use gre_core::index::MutexIndex;
    use gre_core::{Index, IndexMeta, ModelIndex, Payload, RangeSpec, Tally};

    /// Telemetry for `shards` shards and two writers, tracing every op.
    fn telemetry(shards: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry::new(gre_telemetry::TelemetryConfig {
            shards,
            writers: 2,
            trace_capacity: 64,
            trace_sample_one_in: 1,
        }))
    }

    fn pipeline(shards: usize, workers: usize) -> ShardPipeline<MutexIndex<ModelIndex>> {
        let mut idx = ShardedIndex::from_factory(Partitioner::range(shards), |_| {
            MutexIndex::new(ModelIndex::default(), "model-shard")
        });
        let entries: Vec<(u64, Payload)> = (0..4_000u64).map(|i| (i * 2, i)).collect();
        idx.bulk_load(&entries);
        ShardPipeline::new(Arc::new(idx), workers)
    }

    #[test]
    fn route_key_covers_every_op() {
        assert_eq!(Op::Get(7).route_key(), 7);
        assert_eq!(Op::Insert(8, 1).route_key(), 8);
        assert_eq!(Op::Update(9, 1).route_key(), 9);
        assert_eq!(Op::Remove(10).route_key(), 10);
        assert_eq!(Op::Range(RangeSpec::new(11, 100)).route_key(), 11);
    }

    #[test]
    fn split_clamps_out_of_range_routes() {
        let ops = vec![Op::Get(1), Op::Get(2)];
        let buckets = split_indexed_ops_by_shard(&ops, 2, |_| 99);
        assert_eq!(buckets[1], [(0, ops[0]), (1, ops[1])]);
        // Zero shards is treated as one.
        let buckets = split_indexed_ops_by_shard(&ops, 0, |_| 0);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].len(), 2);
    }

    #[test]
    fn indexed_split_carries_submission_positions() {
        let ops: Vec<Op> = (0..50u64).map(|i| Op::Insert(i, i)).collect();
        let buckets = split_indexed_ops_by_shard(&ops, 3, |k| (k % 3) as usize);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), ops.len());
        let mut seen = vec![false; ops.len()];
        for (s, bucket) in buckets.iter().enumerate() {
            for &(i, op) in bucket {
                // The carried index points at the original op.
                assert_eq!(ops[i], op);
                assert_eq!(op.route_key() % 3, s as u64);
                seen[i] = true;
            }
            // Indices inside a bucket keep submission order.
            assert!(bucket.windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert!(
            seen.iter().all(|&s| s),
            "every op lands in exactly one bucket"
        );
    }

    #[test]
    fn responses_come_back_typed_and_in_submission_order() {
        let p = pipeline(4, 2);
        assert_eq!(p.workers.len(), 2);
        let batch = OpBatch::new(vec![
            Op::Get(0),                             // hit
            Op::Get(1),                             // miss (odd keys absent)
            Op::Insert(1, 10),                      // new key
            Op::Insert(0, 99),                      // overwrite, not a new key
            Op::Update(2, 77),                      // present
            Op::Update(9_999, 0),                   // absent
            Op::Remove(4),                          // present, payload 2
            Op::Remove(5),                          // absent
            Op::Range(RangeSpec::new(6, 3)),        // keys 6, 8, 10
            Op::Range(RangeSpec::bounded(6, 8, 9)), // keys 6, 8
        ]);
        assert_eq!(batch.ops.len(), 10);
        let responses = p.submit(batch).wait();
        assert_eq!(
            responses,
            vec![
                Response::Get(Some(0)),
                Response::Get(None),
                Response::Insert(true),
                Response::Insert(false),
                Response::Update(true),
                Response::Update(false),
                Response::Remove(Some(2)),
                Response::Remove(None),
                Response::Range(vec![(6, 3), (8, 4), (10, 5)]),
                Response::Range(vec![(6, 3), (8, 4)]),
            ]
        );
        let r = Tally::of(&responses);
        assert_eq!(r.ops, 10);
        assert_eq!(r.hits, 1);
        assert_eq!(r.new_keys, 1);
        assert_eq!(r.updated, 1);
        assert_eq!(r.removed, 1);
        assert_eq!(r.scanned_keys, 5);
        assert_eq!(r.errors, 0);
        // The writes really landed.
        assert_eq!(p.index().get(1), Some(10));
        assert_eq!(p.index().get(0), Some(99));
        assert_eq!(p.index().get(2), Some(77));
        assert_eq!(p.index().get(4), None);
    }

    #[test]
    fn batched_get_runs_keep_submission_order_and_fifo_writes() {
        let p = pipeline(2, 2);
        // A long run of gets (exercising the batched path), a write in the
        // middle (splitting the runs), then gets that must observe it.
        let mut ops: Vec<Op> = (0..40u64).map(|i| Op::Get(i * 2)).collect();
        ops.push(Op::Insert(99_999, 7)); // odd key: previously absent
        ops.push(Op::Get(99_999));
        ops.push(Op::Get(1)); // still a miss
        let responses = p.submit(OpBatch::new(ops)).wait();
        for i in 0..40u64 {
            assert_eq!(responses[i as usize], Response::Get(Some(i)), "slot {i}");
        }
        assert_eq!(responses[40], Response::Insert(true));
        assert_eq!(
            responses[41],
            Response::Get(Some(7)),
            "a get after a write to the same shard must see it"
        );
        assert_eq!(responses[42], Response::Get(None));
    }

    #[test]
    fn reused_buffers_carry_nothing_from_one_sub_batch_into_the_next() {
        // One worker serves every sub-batch with the same buffers: runs
        // that shrink from batch to batch, a range between them and lone
        // gets must each come back with exactly their own answers.
        let p = pipeline(1, 1);
        for (n, run) in [33u64, 17, 9, 2, 1, 0, 5].into_iter().enumerate() {
            let n = n as u64;
            let mut ops: Vec<Op> = (0..run).map(|i| Op::Get(n + i)).collect();
            ops.push(Op::Range(RangeSpec::new(2 * n, 2)));
            ops.push(Op::Get(2 * n + 1));
            let mut expected: Vec<Response<u64>> = (0..run)
                .map(|i| Response::Get(p.index().get(n + i)))
                .collect();
            expected.push(Response::Range(vec![(2 * n, n), (2 * n + 2, n + 1)]));
            expected.push(Response::Get(None));
            assert_eq!(p.submit(OpBatch::new(ops)).wait(), expected, "run of {run}");
        }
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let p = pipeline(4, 4);
        let mut handle = p.submit(OpBatch::default());
        assert_eq!(handle.try_take(), Some(vec![]));
        // Results can only be taken once.
        assert_eq!(handle.try_take(), None);
        assert_eq!(
            Tally::of(&p.submit(OpBatch::default()).wait()),
            Tally::default()
        );
    }

    #[test]
    fn handle_polling_is_nonblocking_and_single_shot() {
        let p = pipeline(4, 2);
        let mut handle = p.submit(OpBatch::new(vec![Op::Get(0), Op::Insert(7, 7)]));
        // Poll to completion without ever calling wait().
        let responses = loop {
            if let Some(r) = handle.try_take() {
                break r;
            }
            std::thread::yield_now();
        };
        assert_eq!(responses[0], Response::Get(Some(0)));
        assert_eq!(responses[1], Response::Insert(true));
        assert_eq!(handle.try_take(), None, "results are single-shot");
    }

    #[test]
    fn per_shard_fifo_makes_same_key_writes_deterministic() {
        let p = pipeline(8, 3);
        // 100 successive single-op batches updating the same key: FIFO per
        // shard means the last submitted value must win, every time.
        for round in 0..100u64 {
            p.submit(OpBatch::new(vec![Op::Insert(0, round)]));
        }
        let r = Tally::of(&p.submit(OpBatch::new(vec![Op::Get(0)])).wait());
        assert_eq!(r.hits, 1);
        assert_eq!(p.index().get(0), Some(99));
    }

    #[test]
    fn worker_count_clamps_to_shard_count() {
        let p = pipeline(2, 16);
        assert_eq!(p.workers.len(), 2);
        let p = pipeline(4, 0);
        assert_eq!(p.workers.len(), 1);
    }

    #[test]
    fn drop_drains_queued_work() {
        let total;
        {
            let p = pipeline(4, 2);
            for i in 0..50u64 {
                // Handles are intentionally dropped: fire-and-forget.
                p.submit(OpBatch::new(vec![Op::Insert(100_001 + 2 * i, i)]));
            }
            total = Arc::clone(p.index());
            // p drops here; workers must finish the queued inserts first.
        }
        assert_eq!(total.len(), 4_000 + 50);
    }

    #[test]
    fn unsupported_ops_answer_errors_not_silence() {
        // A backend without delete or range support: remove/scan requests
        // must fail loudly per-op while the rest of the batch executes.
        struct NoDeleteIndex(ModelIndex);
        impl Index<u64> for NoDeleteIndex {
            fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
                self.0.bulk_load(entries);
            }
            fn get(&self, key: u64) -> Option<Payload> {
                self.0.get(key)
            }
            fn insert(&mut self, key: u64, value: Payload) -> bool {
                self.0.insert(key, value)
            }
            fn update(&mut self, key: u64, value: Payload) -> bool {
                self.0.update(key, value)
            }
            fn remove(&mut self, key: u64) -> Option<Payload> {
                self.0.remove(key)
            }
            fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
                self.0.range(spec, out)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn memory_usage(&self) -> usize {
                self.0.memory_usage()
            }
            fn meta(&self) -> IndexMeta {
                IndexMeta {
                    supports_delete: false,
                    supports_range: false,
                    ..self.0.meta()
                }
            }
        }

        let mut idx = ShardedIndex::from_factory(Partitioner::range(2), |_| {
            MutexIndex::new(NoDeleteIndex(ModelIndex::default()), "nodelete")
        });
        let entries: Vec<(u64, Payload)> = (0..100u64).map(|i| (i, i)).collect();
        idx.bulk_load(&entries);
        let p = ShardPipeline::new(Arc::new(idx), 2);
        let responses = p
            .submit(OpBatch::new(vec![
                Op::Get(1),
                Op::Remove(1),
                Op::Range(RangeSpec::new(0, 5)),
            ]))
            .wait();
        assert_eq!(responses[0], Response::Get(Some(1)));
        assert!(responses[1].is_error(), "remove must be rejected");
        assert!(responses[2].is_error(), "range must be rejected");
        // The rejected remove really did not execute.
        assert_eq!(p.index().get(1), Some(1));
        assert_eq!(Tally::of(&responses).errors, 2);
    }

    #[test]
    fn concurrent_submitters_lose_no_updates() {
        let p = pipeline(8, 4);
        let p = &p;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for b in 0..20u64 {
                        let ops: Vec<Op> = (0..50u64)
                            .map(|i| {
                                let k = 1_000_000 + t * 1_000_000 + b * 50 + i;
                                Op::Insert(k, k)
                            })
                            .collect();
                        let r = Tally::of(&p.submit(OpBatch::new(ops)).wait());
                        assert_eq!(r.new_keys, 50);
                    }
                });
            }
        });
        assert_eq!(p.index().len(), 4_000 + 4 * 20 * 50);
    }

    #[test]
    fn session_returns_fifo_results_while_pipelining() {
        let p = pipeline(4, 2);
        let mut session = Session::with_max_inflight(&p, 4);
        // 10 batches in flight; each writes then reads its own key.
        for b in 0..10u64 {
            session.submit(OpBatch::new(vec![
                Op::Insert(100_001 + 2 * b, b),
                Op::Get(100_001 + 2 * b),
            ]));
        }
        let mut got = Vec::new();
        while let Some(responses) = session.recv() {
            got.push(responses);
        }
        assert_eq!(got.len(), 10);
        for (b, responses) in got.iter().enumerate() {
            // FIFO: batch b's responses come back b-th, and the read-your-
            // write inside a batch holds (same shard ⇒ same FIFO queue).
            assert_eq!(responses[0], Response::Insert(true), "batch {b}");
            assert_eq!(responses[1], Response::Get(Some(b as u64)), "batch {b}");
        }
        assert_eq!(session.pending(), 0);
        assert!(session.try_recv().is_none());
    }

    #[test]
    fn session_drain_collects_everything_in_order() {
        let p = pipeline(4, 2);
        let mut session = Session::new(&p);
        for b in 0..5u64 {
            session.submit(OpBatch::new(vec![Op::Insert(200_001 + 2 * b, b)]));
        }
        let all = session.drain();
        assert_eq!(all.len(), 5);
        for (b, responses) in all.iter().enumerate() {
            assert_eq!(responses, &vec![Response::Insert(true)], "batch {b}");
        }
        assert_eq!(session.pending(), 0);
    }

    #[test]
    fn session_window_caps_inflight_batches() {
        let p = pipeline(2, 1);
        let mut session = Session::with_max_inflight(&p, 2);
        for b in 0..6u64 {
            session.submit(OpBatch::new(vec![Op::Get(2 * b)]));
            assert!(session.inflight.len() <= 2, "window respected");
        }
        assert_eq!(session.drain().len(), 6);
    }

    #[test]
    fn shutdown_answers_everything_with_terminal_errors() {
        let p = pipeline(4, 2);
        p.shutdown();
        let responses = p
            .submit(OpBatch::new(vec![
                Op::Get(0),
                Op::Insert(1, 1),
                Op::Remove(0),
            ]))
            .wait();
        assert_eq!(
            responses,
            vec![Response::Error(IndexError::Shutdown); 3],
            "a shut-down pipeline answers every op with the terminal error"
        );
        // The refused write and delete never touched the store.
        assert_eq!(p.index().get(1), None);
        assert_eq!(p.index().get(0), Some(0));
        // try_submit agrees: refused, not backpressured.
        let handle = p.try_submit(OpBatch::new(vec![Op::Get(2)])).unwrap();
        assert_eq!(handle.wait(), vec![Response::Error(IndexError::Shutdown)]);
    }

    #[test]
    fn durable_pipeline_group_commits_writes_before_execution() {
        use gre_durability::TempDir;
        use gre_durability::{Recovery, SyncPolicy};

        let tmp = TempDir::new("pipeline-wal");
        let mut idx = ShardedIndex::from_factory(Partitioner::range(4), |_| {
            MutexIndex::new(ModelIndex::default(), "model-shard")
        });
        // The durable load checkpoints the bulk load, which bypasses the
        // pipeline, so recovery starts from the loaded state.
        let entries: Vec<(u64, Payload)> = (0..1_000u64).map(|i| (i * 2, i)).collect();
        let log = idx
            .load_durable(&entries, tmp.path(), SyncPolicy::EveryGroup)
            .unwrap();
        let p =
            ShardPipeline::with_services(Arc::new(idx), 2, DEFAULT_QUEUE_CAPACITY, None, Some(log));
        assert!(p.durability.is_some());
        // Mixed batches: reads must not be logged, writes must all be.
        for b in 0..20u64 {
            let responses = p
                .submit(OpBatch::new(vec![
                    Op::Get(2 * b),
                    Op::Insert(100_001 + 2 * b, b),
                    Op::Update(2 * b, b + 1),
                    Op::Remove(2 * b + 200),
                ]))
                .wait();
            assert!(responses.iter().all(|r| !r.is_error()));
        }
        let live = Arc::clone(p.index());
        let stats = p.durability.as_ref().unwrap().stats();
        assert!(stats.appends > 0 && stats.fsyncs > 0);
        drop(p);

        // Crash-equivalent check: rebuild purely from disk and compare.
        let rec = Recovery::recover(tmp.path()).unwrap();
        assert!(rec.is_clean());
        let mut replayed = MutexIndex::new(ModelIndex::default(), "replayed");
        rec.replay_into(&mut replayed);
        assert_eq!(replayed.len(), live.len());
        for k in (0..1_000u64)
            .map(|i| i * 2)
            .chain((0..20).map(|b| 100_001 + 2 * b))
        {
            assert_eq!(replayed.get(k), live.get(k), "key {k}");
        }
    }

    #[test]
    fn wal_counters_reconcile_with_log_stats_when_both_services_attach() {
        use gre_durability::TempDir;
        use gre_durability::{DurableLog, SyncPolicy};

        let tmp = TempDir::new("pipeline-wal-telemetry");
        let shards = 2usize;
        let mut idx = ShardedIndex::from_factory(Partitioner::range(shards), |_| {
            MutexIndex::new(ModelIndex::default(), "model-shard")
        });
        idx.bulk_load(&[(0, 0), (u64::MAX / 2 + 1, 1)]);
        let log = DurableLog::create(tmp.path(), shards, SyncPolicy::EveryGroup).unwrap();
        let telemetry = telemetry(shards);
        let p = ShardPipeline::with_services(
            Arc::new(idx),
            2,
            DEFAULT_QUEUE_CAPACITY,
            Some(Arc::clone(&telemetry)),
            Some(log),
        );
        for b in 0..16u64 {
            // One read-only batch per write batch: reads are neither logged
            // nor counted as WAL activity.
            p.submit(OpBatch::new(vec![Op::Get(0), Op::Get(u64::MAX / 2 + 1)]))
                .wait();
            p.submit(OpBatch::new(vec![
                Op::Insert(10 + b, b),
                Op::Insert(u64::MAX / 2 + 10 + b, b),
            ]))
            .wait();
        }
        let stats = p.durability.as_ref().unwrap().stats();
        drop(p);

        let snap = telemetry.snapshot();
        assert!(stats.appends > 0 && stats.fsyncs > 0);
        assert_eq!(snap.counter(CounterId::WalAppends), stats.appends);
        assert_eq!(snap.counter(CounterId::WalFsyncs), stats.fsyncs);
    }

    #[test]
    fn one_batch_in_flight_logs_one_record_and_one_barrier_per_sub_batch() {
        use gre_durability::TempDir;
        use gre_durability::{DurableLog, SyncPolicy};

        let tmp = TempDir::new("pipeline-wal-depth1");
        let high = u64::MAX / 2 + 1;
        let mut idx = ShardedIndex::from_factory(Partitioner::range(2), |_| {
            MutexIndex::new(ModelIndex::default(), "model-shard")
        });
        idx.bulk_load(&[(0, 0), (high, 0)]);
        let log = DurableLog::create(tmp.path(), 2, SyncPolicy::EveryGroup).unwrap();
        let p =
            ShardPipeline::with_services(Arc::new(idx), 2, DEFAULT_QUEUE_CAPACITY, None, Some(log));
        for b in 1..=10u64 {
            // Both shards write, then only shard 1, then nobody.
            p.submit(OpBatch::new(vec![
                Op::Insert(b, b),
                Op::Get(b),
                Op::Insert(high + b, b),
            ]))
            .wait();
            p.submit(OpBatch::new(vec![Op::Get(b), Op::Update(high + b, b + 1)]))
                .wait();
            p.submit(OpBatch::new(vec![Op::Get(b), Op::Get(high + b)]))
                .wait();
        }
        // With nothing queued behind it, a group is its sub-batch.
        let stats = p.durability.as_ref().unwrap().stats();
        assert_eq!((stats.appends, stats.fsyncs), (30, 30));
    }

    /// A map whose next write, once [`WriteGate::arm`]ed, parks inside the
    /// backend until the test releases it — the worker is then provably
    /// past that job's log and busy, so whatever the test submits meanwhile
    /// is one backlog when the worker comes back.
    struct GatedIndex {
        map: ModelIndex,
        gate: Arc<WriteGate>,
    }

    #[derive(Default)]
    struct WriteGate {
        state: Mutex<GateState>,
        changed: Condvar,
    }

    #[derive(Default, Clone, Copy, PartialEq, Debug)]
    enum GateState {
        #[default]
        Idle,
        Armed,
        Holding,
    }

    impl WriteGate {
        fn set(&self, to: GateState) {
            *self.state.lock().unwrap() = to;
            self.changed.notify_all();
        }
        fn wait_while(&self, held: impl Fn(GateState) -> bool) {
            let mut state = self.state.lock().unwrap();
            while held(*state) {
                state = self.changed.wait(state).unwrap();
            }
        }
        fn arm(&self) {
            self.set(GateState::Armed);
        }
        /// Block until a write is parked inside the backend.
        fn wait_held(&self) {
            self.wait_while(|s| s != GateState::Holding);
        }
        fn release(&self) {
            self.set(GateState::Idle);
        }
        /// Called by the backend at the top of every write.
        fn pass(&self) {
            let mut state = self.state.lock().unwrap();
            if *state == GateState::Armed {
                *state = GateState::Holding;
                self.changed.notify_all();
                while *state == GateState::Holding {
                    state = self.changed.wait(state).unwrap();
                }
            }
        }
    }

    impl Index<u64> for GatedIndex {
        fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
            self.map.bulk_load(entries);
        }
        fn get(&self, key: u64) -> Option<Payload> {
            self.map.get(key)
        }
        fn insert(&mut self, key: u64, value: Payload) -> bool {
            self.gate.pass();
            self.map.insert(key, value)
        }
        fn update(&mut self, key: u64, value: Payload) -> bool {
            self.gate.pass();
            self.map.update(key, value)
        }
        fn remove(&mut self, key: u64) -> Option<Payload> {
            self.gate.pass();
            self.map.remove(key)
        }
        fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
            self.map.range(spec, out)
        }
        fn len(&self) -> usize {
            self.map.len()
        }
        fn memory_usage(&self) -> usize {
            self.map.memory_usage()
        }
        fn meta(&self) -> IndexMeta {
            self.map.meta()
        }
    }

    /// One shard, one worker, empty store, logging to `log`, with the given
    /// queue bound and telemetry.
    fn gated_pipeline(
        log: Arc<DurableLog>,
        queue_capacity: usize,
        telemetry: Option<Arc<Telemetry>>,
    ) -> (ShardPipeline<MutexIndex<GatedIndex>>, Arc<WriteGate>) {
        let gate = Arc::new(WriteGate::default());
        let idx = ShardedIndex::from_factory(Partitioner::range(1), |_| {
            MutexIndex::new(
                GatedIndex {
                    map: ModelIndex::default(),
                    gate: Arc::clone(&gate),
                },
                "gated",
            )
        });
        let p =
            ShardPipeline::with_services(Arc::new(idx), 1, queue_capacity, telemetry, Some(log));
        (p, gate)
    }

    /// The store a restart would rebuild from the log directory `dir`.
    fn recovered_entries(dir: &std::path::Path) -> Vec<(u64, Payload)> {
        let mut replayed = MutexIndex::new(ModelIndex::default(), "replayed");
        gre_durability::Recovery::recover(dir)
            .unwrap()
            .replay_into(&mut replayed);
        let mut out = Vec::new();
        replayed.range(RangeSpec::new(0, usize::MAX), &mut out);
        out
    }

    #[test]
    fn shutdown_after_a_group_is_logged_still_executes_and_acknowledges_its_members() {
        use gre_durability::TempDir;
        use gre_durability::{DurableLog, SyncPolicy};

        let tmp = TempDir::new("pipeline-wal-shutdown");
        let log = DurableLog::create(tmp.path(), 1, SyncPolicy::EveryGroup).unwrap();
        let (p, gate) = gated_pipeline(log, DEFAULT_QUEUE_CAPACITY, None);
        gate.arm();
        let a = p.submit(OpBatch::new(vec![Op::Insert(1, 1)]));
        gate.wait_held();
        let b = p.submit(OpBatch::new(vec![Op::Insert(2, 2)]));
        let c = p.submit(OpBatch::new(vec![Op::Insert(3, 3), Op::Get(2)]));
        // Let `a` finish and park the worker inside `b`: by then the record
        // for {b, c} is on disk, and `c` has not touched memory yet.
        gate.arm();
        gate.wait_held();
        assert_eq!(p.durability.as_ref().unwrap().stats().appends, 2);
        p.shutdown();
        let d = p.submit(OpBatch::new(vec![Op::Insert(4, 4)]));
        gate.release();
        assert_eq!(a.wait(), vec![Response::Insert(true)]);
        assert_eq!(b.wait(), vec![Response::Insert(true)]);
        // Logged before the shutdown, so executed and acknowledged after it:
        // refusing `c` here would resurrect a refused write at recovery.
        assert_eq!(
            c.wait(),
            vec![Response::Insert(true), Response::Get(Some(2))]
        );
        assert_eq!(d.wait(), vec![Response::Error(IndexError::Shutdown)]);
        assert_eq!(p.index().len(), 3);
        drop(p);
        assert_eq!(recovered_entries(tmp.path()), vec![(1, 1), (2, 2), (3, 3)]);
    }

    #[test]
    fn a_group_the_log_refuses_refuses_every_member_and_executes_none() {
        use gre_durability::TempDir;
        use gre_durability::{DurableLog, FailAction, FailpointRegistry, SyncPolicy, Trigger};

        let tmp = TempDir::new("pipeline-wal-refused-group");
        let registry = FailpointRegistry::new();
        // Barrier 1 is `a`'s own record; barrier 2 is the group behind it.
        registry.script("wal/0/sync", Trigger::OnHit(2), FailAction::Error);
        let log = DurableLog::create_injected(
            tmp.path(),
            1,
            SyncPolicy::EveryGroup,
            Arc::clone(&registry),
        )
        .unwrap();
        let (p, gate) = gated_pipeline(log, DEFAULT_QUEUE_CAPACITY, None);
        gate.arm();
        let a = p.submit(OpBatch::new(vec![Op::Insert(1, 1)]));
        gate.wait_held();
        let b = p.submit(OpBatch::new(vec![Op::Insert(2, 2)]));
        let reads = p.submit(OpBatch::new(vec![Op::Get(1), Op::Get(2)]));
        let c = p.submit(OpBatch::new(vec![Op::Get(1), Op::Update(1, 9)]));
        gate.release();
        assert_eq!(a.wait(), vec![Response::Insert(true)]);
        assert_eq!(b.wait(), vec![Response::Error(IndexError::Shutdown)]);
        // A sub-batch with nothing to log is no member: it is served, and
        // sees that `b` never executed.
        assert_eq!(
            reads.wait(),
            vec![Response::Get(Some(1)), Response::Get(None)]
        );
        // Refusal is per sub-batch, reads included.
        assert_eq!(c.wait(), vec![Response::Error(IndexError::Shutdown); 2]);
        assert!(registry.fired("wal/0/sync"));
        assert_eq!(p.durability.as_ref().unwrap().stats().appends, 1);
        assert_eq!(p.index().get(1), Some(1));
        assert_eq!(p.index().len(), 1);
        drop(p);
        assert_eq!(recovered_entries(tmp.path()), vec![(1, 1)]);
    }

    #[test]
    fn queued_sub_batches_coalesce_into_one_record() {
        use gre_durability::TempDir;
        use gre_durability::{decode_record, DurableLog, SyncPolicy};

        let tmp = TempDir::new("pipeline-wal-coalesce");
        let log = DurableLog::create(tmp.path(), 1, SyncPolicy::EveryGroup).unwrap();
        let (p, gate) = gated_pipeline(log, DEFAULT_QUEUE_CAPACITY, None);
        let stats = || p.durability.as_ref().unwrap().stats();
        // Batch `b`: overwrite the shared key, read it back, add an own key.
        let batch = |b: u64| vec![Op::Insert(7, b), Op::Get(7), Op::Insert(100 + b, b)];
        let writes = |b: u64| vec![Op::Insert(7, b), Op::Insert(100 + b, b)];
        let answers = |b: u64| {
            vec![
                Response::Insert(false),
                Response::Get(Some(b)),
                Response::Insert(true),
            ]
        };

        // Park the worker inside job 0's first write: its record (alone, the
        // queue was empty) is on disk, and N more batches pile up behind it.
        gate.arm();
        let blocked = p.submit(OpBatch::new(vec![Op::Insert(7, 0)]));
        gate.wait_held();
        assert_eq!(stats().appends, 1);
        const N: u64 = 6;
        let queued: Vec<SubmitHandle> = (1..=N).map(|b| p.submit(OpBatch::new(batch(b)))).collect();
        assert_eq!(
            stats().appends,
            1,
            "nothing is logged while the worker is busy"
        );
        gate.release();
        assert_eq!(blocked.wait(), vec![Response::Insert(true)]);
        // Same-key writes answer in FIFO order: batch b reads its own value.
        for (b, handle) in (1..=N).zip(queued) {
            assert_eq!(handle.wait(), answers(b), "batch {b}");
        }
        // Exactly two records: job 0's, then one for the N behind it, one
        // barrier each; the second is the N batches' writes in order.
        let s = stats();
        assert_eq!((s.appends, s.fsyncs), (2, 2));
        let bytes = std::fs::read(tmp.path().join("shard-0.wal")).unwrap();
        let first = decode_record(&bytes, 0).unwrap();
        assert_eq!(first.ops, vec![Op::Insert(7, 0)]);
        let second = decode_record(&bytes, first.frame_len).unwrap();
        assert_eq!((first.seq, second.seq), (1, 2));
        assert_eq!(second.ops, (1..=N).flat_map(writes).collect::<Vec<_>>());
        assert_eq!(first.frame_len + second.frame_len, bytes.len());
    }

    #[test]
    fn try_submit_backpressure_is_all_or_nothing() {
        // One worker, one shard, tiny queue: saturate it and verify accepted
        // batches all execute while rejected ones come back intact.
        let mut idx = ShardedIndex::from_factory(Partitioner::range(1), |_| {
            MutexIndex::new(ModelIndex::default(), "model-shard")
        });
        idx.bulk_load(&[(0, 0)]);
        let p = ShardPipeline::with_services(Arc::new(idx), 1, 2, None, None);
        assert_eq!(p.queue_capacity, 2);

        let mut accepted: Vec<SubmitHandle> = Vec::new();
        let mut rejected = 0usize;
        let mut accepted_keys: Vec<u64> = Vec::new();
        for i in 0..2_000u64 {
            let key = 10 + i;
            match p.try_submit(OpBatch::new(vec![Op::Insert(key, i)])) {
                Ok(handle) => {
                    accepted_keys.push(key);
                    accepted.push(handle);
                }
                Err(bp) => {
                    // The rejected batch comes back intact for retry.
                    assert_eq!(bp.batch.ops, vec![Op::Insert(key, i)]);
                    assert_eq!(bp.shard, 0);
                    rejected += 1;
                }
            }
        }
        // Every accepted op completed with a typed response…
        for handle in accepted {
            let responses = handle.wait();
            assert_eq!(responses, vec![Response::Insert(true)]);
        }
        // …and is visible in the store: accepted + bulk = final len.
        assert_eq!(p.index().len(), 1 + accepted_keys.len());
        for key in accepted_keys {
            assert!(p.index().get(key).is_some());
        }
        assert!(
            rejected > 0,
            "a 2-deep queue must reject under a 2k-op flood"
        );
    }

    #[test]
    fn every_counter_and_histogram_is_written() {
        use gre_durability::TempDir;
        use gre_durability::{DurableLog, SyncPolicy};

        let tmp = TempDir::new("pipeline-every-metric");
        let log = DurableLog::create(tmp.path(), 1, SyncPolicy::EveryGroup).unwrap();
        let telemetry = telemetry(1);
        let (p, gate) = gated_pipeline(log, 1, Some(Arc::clone(&telemetry)));
        // Park the worker inside a logged write: its sub-batch holds the
        // shard's one queue slot, so a non-blocking submit is rejected.
        gate.arm();
        let held = p.submit(OpBatch::new(vec![Op::Insert(1, 1)]));
        gate.wait_held();
        let bp = p
            .try_submit(OpBatch::new(vec![Op::Get(1)]))
            .err()
            .expect("the only queue slot is taken");
        assert_eq!(bp.shard, 0);
        gate.release();
        assert_eq!(held.wait(), vec![Response::Insert(true)]);
        // Two consecutive gets run batched; the session samples its window.
        let mut session = Session::new(&p);
        session.submit(OpBatch::new(vec![Op::Get(1), Op::Get(2)]));
        assert_eq!(
            session.drain(),
            vec![vec![Response::Get(Some(1)), Response::Get(None)]]
        );

        let snap = telemetry.snapshot();
        for id in CounterId::ALL {
            assert!(snap.counter(id) > 0, "{id:?} was never written");
        }
        let service: u64 = snap
            .shards
            .iter()
            .map(|s| s.hist(ShardHistId::ServiceNs).count())
            .sum();
        assert_eq!(service, snap.counter(CounterId::SubBatchesExecuted));
        assert_eq!(snap.global(GlobalHistId::SessionWindow).count(), 1);
    }
}
