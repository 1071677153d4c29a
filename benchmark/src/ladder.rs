//! The traced run of one workload: the per-layer metrics.
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions. The same tape prefix is replayed by one client through
//! successively taller rungs — bare index, sharded composite, pipeline
//! (submit + wait), session, and (durable workloads) session over the
//! write-ahead log, with the same client loops the untraced run uses — and a
//! layer's tax is its rung minus the rung below.
//! The pipeline's own span records and counters are read after the run to
//! split its tax into stages.

use crate::clients::{self, LINGER};
use crate::openloop::{self, paced_us};
use crate::report::{per_layer, Spec, WorkloadReport};
use crate::stack::{self, BackendVisitor, ConcurrentIndex, BATCH_OPS, CLIENTS};
use crate::stats::{median, percentile_sorted, Summary};
use crate::tape::{Kind, Mix, Tape};
use crate::workloads::{whole_blocks, Workload, RATE_INTERVALS, SLOWEST};
use std::time::{Duration, Instant};

/// Shares of `--seconds` (at seed speed) the traced run gives its segments.
const SHARE_INDEX: f64 = 0.02; // per backend, of the bare-index speed
const SHARE_RUNG: f64 = 0.025; // per ladder rung, of the served speed
const SHARE_SERVED: f64 = 0.06; // per 2-client served run (untraced, traced)
/// Sub-intervals a one-client rung's per-op time is the median of.
const RUNG_INTERVALS: usize = 11;
/// The rungs are short; only the long segments need a time limit.
const NO_LIMIT: Duration = Duration::MAX;

struct Out<'a> {
    specs: &'a [Spec],
    report: WorkloadReport,
}

impl Out<'_> {
    fn put(&mut self, name: &str, value: Summary) {
        self.report.push(self.specs, name, value);
    }
    fn exact(&mut self, name: &str, value: f64) {
        self.put(name, Summary::exact(value));
    }
    fn tally(&mut self, attempted: usize, failed: usize) {
        self.report.attempted += attempted as u64;
        self.report.failed += failed as u64;
    }
}

/// Cost of one clock read, subtracted from per-op timings.
fn clock_ns() -> f64 {
    let pairs: Vec<f64> = (0..10_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    median(&pairs)
}

/// Summary over the means of consecutive blocks of `samples` (a robust
/// per-op cost: a block mean keeps ordinary cache misses, the median across
/// blocks drops the rare stall).
fn block_summary(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let block = (samples.len() / 32).clamp(1, 256);
    let means: Vec<f64> = samples
        .chunks_exact(block)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    Some(Summary::of(&means))
}

/// Measures each backend on the prefix's operations, one kind at a time:
/// lookups and scans in block-timed runs (a per-op clock read would cost as
/// much as the lookup and stop consecutive lookups overlapping), then the
/// writes one by one, so their tail is visible.
struct IndexTable<'a, 'o> {
    tape: &'a Tape,
    mix: Mix,
    ops: usize,
    /// Wall-clock cap on each of a backend's three passes.
    budget: Duration,
    clock: f64,
    out: &'a mut Out<'o>,
    /// Mix-weighted ALEX+ cost per op, for the ladder.
    alex_ns_per_op: f64,
}

impl IndexTable<'_, '_> {
    /// Run the prefix's ops of `kind` in blocks of `block`, returning ns
    /// per op of each block and the failed-reply count. A backend too slow
    /// to finish within the pass budget is cut short: its cost per op is
    /// known by then, and one pathological backend must not eat the run.
    fn block_timed<I: ConcurrentIndex<u64>>(
        &self,
        index: &I,
        kind: Kind,
        block: usize,
    ) -> (Vec<f64>, usize) {
        let meta = index.meta();
        let picks: Vec<usize> = (0..self.ops)
            .filter(|&i| self.tape.kind(i) == kind)
            .collect();
        let mut failed = 0;
        let pass = Instant::now();
        let per_op = picks
            .chunks_exact(block)
            .take_while(|_| pass.elapsed() < self.budget)
            .map(|chunk| {
                let started = Instant::now();
                for &i in chunk {
                    let reply = stack::execute(index, &meta, self.tape, i);
                    failed += usize::from(!stack::reply_ok(self.tape, i, &reply));
                }
                started.elapsed().as_nanos() as f64 / block as f64
            })
            .collect();
        (per_op, failed)
    }
}

impl BackendVisitor for IndexTable<'_, '_> {
    fn visit<I: ConcurrentIndex<u64>>(&mut self, name: &'static str, mut index: I, writable: bool) {
        let tape = self.tape;
        let started = Instant::now();
        index.bulk_load(&tape.loaded);
        if name == "alex" {
            self.out
                .exact("setup.bulk_load_s", started.elapsed().as_secs_f64());
        }
        let metric = |m: &str| format!("index.{name}.{m}");
        let mut weighted = 0.0;
        let (mut attempted, mut failed) = (0usize, 0usize);

        let (gets, bad) = self.block_timed(&index, Kind::Get, 256);
        failed += bad;
        if !gets.is_empty() {
            let s = Summary::of(&gets);
            weighted += s.value * self.mix.share(Kind::Get);
            attempted += gets.len() * 256;
            self.out.put(&metric("get_ns"), s);
        }
        let (scans, bad) = self.block_timed(&index, Kind::Range, 16);
        failed += bad;
        if !scans.is_empty() {
            let per_key: Vec<f64> = scans.iter().map(|ns| ns / tape.range_len as f64).collect();
            let s = Summary::of(&per_key);
            weighted += s.value * tape.range_len as f64 * self.mix.share(Kind::Range);
            attempted += scans.len() * 16;
            self.out.put(&metric("range_ns_per_key"), s);
        }
        if writable {
            let meta = index.meta();
            let mut writes = Vec::new();
            let pass = Instant::now();
            for i in (0..self.ops).filter(|&i| tape.kind(i).is_write()) {
                if pass.elapsed() >= self.budget {
                    break;
                }
                let before = Instant::now();
                let reply = stack::execute(&index, &meta, tape, i);
                writes.push((before.elapsed().as_nanos() as f64 - self.clock).max(0.0));
                failed += usize::from(!stack::reply_ok(tape, i, &reply));
            }
            if let Some(s) = block_summary(&writes) {
                weighted += s.value * (self.mix.share(Kind::Insert) + self.mix.share(Kind::Update));
                attempted += writes.len();
                self.out.put(&metric("write_ns"), s);
                let mut sorted: Vec<u64> = writes.iter().map(|&ns| ns as u64).collect();
                sorted.sort_unstable();
                self.out.exact(
                    &metric("write_p999_ns"),
                    percentile_sorted(&sorted, 99.9) as f64,
                );
            }
        }
        self.out.tally(attempted, failed);
        self.out.exact(
            &metric("bytes_per_key"),
            index.memory_usage() as f64 / index.len().max(1) as f64,
        );
        if name == "alex" {
            self.alex_ns_per_op = weighted;
        }
    }
}

/// ns per op of a one-client closed-loop rung, over its sub-intervals.
/// (Sessions complete batches in bursts, so a single block's completion gap
/// says little; sub-interval rates do.)
fn rung_ns_per_op(seg: &clients::Closed, out: &mut Out) -> Summary {
    out.tally(seg.ops, seg.failed);
    let per_op: Vec<f64> = seg
        .rates(RUNG_INTERVALS)
        .iter()
        .map(|rate| 1e9 / rate)
        .collect();
    Summary::of(&per_op)
}

/// One client, one batch in flight: submit, then wait. Returns ns per op
/// per block, and the medians of the submit and wait calls.
fn rung_pipeline(
    pipeline: &stack::Pipeline,
    tape: &Tape,
    ops: usize,
    out: &mut Out,
) -> (Summary, f64, f64) {
    let mut per_op = Vec::with_capacity(ops / BATCH_OPS);
    let (mut submits, mut waits) = (Vec::new(), Vec::new());
    let mut failed = 0;
    for from in (0..ops).step_by(BATCH_OPS) {
        let started = Instant::now();
        let batch = stack::batch(tape, from, from + BATCH_OPS);
        let before = Instant::now();
        let handle = pipeline.submit(batch);
        let submitted = Instant::now();
        let replies = handle.wait();
        let done = Instant::now();
        for (i, reply) in (from..).zip(&replies) {
            failed += usize::from(!stack::reply_ok(tape, i, reply));
        }
        submits.push((submitted - before).as_nanos() as f64);
        waits.push((done - submitted).as_nanos() as f64);
        per_op.push(started.elapsed().as_nanos() as f64 / BATCH_OPS as f64);
    }
    out.tally(ops, failed);
    (Summary::of(&per_op), median(&submits), median(&waits))
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> WorkloadReport {
    let specs = per_layer();
    let ops_index = whole_blocks(w.speed_direct * SHARE_INDEX * seconds, 8);
    let ops_rung = whole_blocks(w.speed_served * SHARE_RUNG * seconds, 8);
    let ops_served = whole_blocks(w.speed_served * SHARE_SERVED * seconds, 2 * RATE_INTERVALS);
    let tape_ops = ops_index
        .max(ops_rung)
        .max(ops_served)
        .max(openloop::ops_needed(w, seconds));

    // Set-up and generator.
    let started = Instant::now();
    let keys = w.data.generate(w.loaded, seed);
    let generate_s = started.elapsed().as_secs_f64();
    let hardness = stack::hardness_segments(&keys);
    drop(keys);
    let keys = w.keys(tape_ops, seed);
    let started = Instant::now();
    let tape = w.tape(&keys, tape_ops, seed);
    let gen_ns = started.elapsed().as_nanos() as f64 / tape_ops as f64;
    drop(keys);

    let mut out = Out {
        specs: &specs,
        report: WorkloadReport {
            name: w.name.to_string(),
            tape_digest: format!("{:016x}", tape.digest()),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        },
    };
    out.exact("datasets.generate_s", generate_s);
    out.exact("pla.hardness_segments", hardness as f64);
    out.exact("gen.ns_per_op", gen_ns);

    // Index layer: every backend, op by op.
    let mut table = IndexTable {
        tape: &tape,
        mix: w.mix,
        ops: ops_index,
        budget: Duration::from_secs_f64(SHARE_INDEX * seconds),
        clock: clock_ns(),
        out: &mut out,
        alex_ns_per_op: 0.0,
    };
    stack::visit_backends(&mut table);
    let index_ns = table.alex_ns_per_op;
    if let Some((nodes, shifted, smo, smo_share)) = stack::alex_insert_counters(&tape, ops_index) {
        out.exact("index.alex.nodes_per_insert", nodes);
        out.exact("index.alex.keys_shifted_per_insert", shifted);
        out.exact("index.alex.smo_per_kinsert", smo);
        out.exact("index.alex.smo_ns_share", smo_share);
    }

    // Sharded composite.
    let sharded = stack::sharded(&tape.loaded);
    let route_keys: Vec<u64> = (0..ops_rung).map(|i| tape.key(i)).collect();
    let (shard_of_ns, max_share) = stack::routing_cost(&sharded, &route_keys);
    out.exact("partition.shard_of_ns", shard_of_ns);
    out.exact("sharded.max_shard_share", max_share);
    let get_keys: Vec<u64> = (0..ops_rung)
        .filter(|&i| tape.kind(i) == Kind::Get)
        .map(|i| tape.key(i))
        .collect();
    let mut found = Vec::new();
    let per_key: Vec<f64> = get_keys
        .chunks_exact(BATCH_OPS)
        .map(|chunk| {
            let started = Instant::now();
            sharded.get_batch(chunk, &mut found);
            std::hint::black_box(&found);
            started.elapsed().as_nanos() as f64 / BATCH_OPS as f64
        })
        .collect();
    if !per_key.is_empty() {
        out.put("sharded.get_batch_ns_per_key", Summary::of(&per_key));
    }

    // The ladder: one client, the same prefix, taller and taller rungs.
    let alex = stack::bare_alex(&tape.loaded);
    let one = |seg: clients::Closed, out: &mut Out| (rung_ns_per_op(&seg, out), seg);
    let (rung_index, _) = one(
        clients::direct(&alex, &tape, ops_rung, 1, NO_LIMIT),
        &mut out,
    );
    drop(alex);
    let (rung_sharded, _) = one(
        clients::direct(&sharded, &tape, ops_rung, 1, NO_LIMIT),
        &mut out,
    );
    drop(sharded);
    let pipeline = stack::start(&tape.loaded, None, None);
    let (rung_pipeline_ns, submit_ns, wait_ns) =
        rung_pipeline(&pipeline, &tape, ops_rung, &mut out);
    drop(pipeline);
    let pipeline = stack::start(&tape.loaded, None, None);
    let (rung_session_ns, seg) = one(
        clients::served(&pipeline, &tape, ops_rung, 1, NO_LIMIT),
        &mut out,
    );
    let submit_block_ns = median(
        &seg.submit_ns
            .iter()
            .map(|&ns| ns as f64)
            .collect::<Vec<_>>(),
    );
    drop(pipeline);
    out.exact(
        "sharded.tax_ns_per_op",
        rung_sharded.value - rung_index.value,
    );
    out.exact(
        "pipeline.tax_ns_per_op",
        rung_pipeline_ns.value - rung_sharded.value,
    );
    out.exact("pipeline.submit_ns_per_batch", submit_ns);
    out.exact("pipeline.wait_ns_per_batch", wait_ns);
    out.exact(
        "session.tax_ns_per_op",
        rung_session_ns.value - rung_pipeline_ns.value,
    );
    out.exact("session.submit_block_ns_per_batch", submit_block_ns);

    let scratch = stack::scratch_dir(&format!("{}-trace", w.name));
    let wal = |tag: &str| w.durable.then(|| scratch.join(tag));
    let mut rung_served = rung_session_ns;
    if let Some(dir) = wal("wal-rung") {
        let pipeline = stack::start(&tape.loaded, Some(&dir), None);
        let (rung_wal, _) = one(
            clients::served(&pipeline, &tape, ops_rung, 1, NO_LIMIT),
            &mut out,
        );
        drop(pipeline);
        out.exact("wal.tax_ns_per_op", rung_wal.value - rung_session_ns.value);
        rung_served = rung_wal;
    }
    out.exact("ladder.index_ns_per_op", index_ns);
    out.put("ladder.served_ns_per_op", rung_served);
    // Telescoping leaves what the index line does not explain of the bare
    // rung: the client loop, tape decode and clock error.
    out.exact("ladder.unattributed_ns_per_op", rung_index.value - index_ns);

    // The pipeline's own spans: one client, one batch in flight, so the
    // stages of a span add up to the submit + wait the client timed.
    let telemetry = stack::telemetry(1 << 14);
    let pipeline = stack::start(&tape.loaded, None, Some(telemetry.clone()));
    let started = Instant::now();
    rung_pipeline(&pipeline, &tape, ops_rung, &mut out);
    let traced = stack::pipeline_trace(&telemetry, started.elapsed().as_secs_f64());
    drop(pipeline);
    for (name, ns) in [
        "pipeline.route_ns",
        "pipeline.enqueue_ns",
        "pipeline.queue_wait_ns",
        "pipeline.execute_ns",
        "pipeline.respond_ns",
    ]
    .iter()
    .zip(traced.stage_p50_ns)
    {
        out.exact(name, ns);
    }
    out.exact(
        "pipeline.sub_batches_per_batch",
        traced.sub_batches_per_batch,
    );
    out.exact("pipeline.batched_get_share", traced.batched_get_share);

    // Two clients, untraced then traced: the tracing overhead, and the
    // counters that only mean something under the served load.
    let pipeline = stack::start(&tape.loaded, wal("wal-plain").as_deref(), None);
    let served_limit = Duration::from_secs_f64(SLOWEST * SHARE_SERVED * seconds);
    let plain = clients::served(&pipeline, &tape, ops_served, CLIENTS, served_limit);
    out.tally(plain.ops, plain.failed);
    drop(pipeline);
    let telemetry = stack::telemetry(1 << 10);
    let traced_dir = wal("wal-traced");
    let pipeline = stack::start(&tape.loaded, traced_dir.as_deref(), Some(telemetry.clone()));
    let seg = clients::served(&pipeline, &tape, ops_served, CLIENTS, served_limit);
    out.tally(seg.ops, seg.failed);
    let traced = stack::pipeline_trace(&telemetry, seg.elapsed_s);
    drop(pipeline);
    // `None` for a segment cut before it had sub-intervals to read.
    let rate = |seg: &clients::Closed| {
        let rates = seg.rates(RATE_INTERVALS);
        (!rates.is_empty()).then(|| median(&rates))
    };
    out.exact("pipeline.rejected_share", traced.rejected_share);
    out.exact("pipeline.worker_busy_share", traced.worker_busy_share);
    out.exact("session.window_mean", traced.session_window_mean);
    match (rate(&seg), rate(&plain)) {
        (Some(traced), Some(plain)) => {
            out.exact("telemetry.overhead_share", 1.0 - traced / plain);
        }
        _ => out.tally(1, 1),
    }

    // Durability tier, called directly.
    if let Some(dir) = &traced_dir {
        let write_ops = (0..seg.ops).filter(|&i| tape.kind(i).is_write()).count();
        let ops_per_group = write_ops as f64 / traced.wal_appends.max(1) as f64;
        out.exact("wal.ops_per_group", ops_per_group);
        out.exact(
            "wal.fsyncs_per_kop",
            traced.wal_fsyncs as f64 * 1000.0 / traced.ops_completed.max(1) as f64,
        );
        let recovered = stack::recover(dir);
        let replayed = recovered.replayed_ops.max(1) as f64;
        out.exact("recovery.scan_ns_per_op", recovered.scan_s * 1e9 / replayed);
        out.exact(
            "recovery.replay_ns_per_op",
            recovered.replay_s * 1e9 / replayed,
        );
        out.exact("recovery.total_s", recovered.scan_s + recovered.replay_s);
        let expected = clients::expected_state(&tape, seg.ops);
        out.tally(
            expected.len(),
            clients::state_mismatches(&recovered.index, &expected),
        );
        let costs = stack::wal_costs(
            &tape,
            &scratch.join("wal-direct"),
            2_000,
            (ops_per_group.round() as usize).max(1),
        );
        out.exact("wal.append_ns_per_group", costs.append_ns_per_group);
        out.exact("wal.sync_ns_per_group", costs.sync_ns_per_group);
        out.exact("wal.bytes_per_op", costs.bytes_per_op);
        out.exact("ship.poll_ns_per_op", costs.ship_poll_ns_per_op);
        out.exact("ship.apply_ns_per_op", costs.ship_apply_ns_per_op);
    }

    // Open loop: generator lateness and the tail at the nominal rate, each
    // rung's p99, and the latencies the untraced run gates on.
    let open = openloop::run(w, &tape, seconds, wal("wal-paced").as_deref());
    out.tally(open.attempted, open.failed);
    let is_read = |k: Kind| !k.is_write();
    for (name, p, keep) in [
        ("paced.p50_us", 50.0, None),
        ("paced.p99_us", 99.0, None),
        ("paced.read_p50_us", 50.0, Some(true)),
        ("paced.read_p99_us", 99.0, Some(true)),
        ("paced.write_p50_us", 50.0, Some(false)),
        ("paced.write_p99_us", 99.0, Some(false)),
    ] {
        if let Some(s) = paced_us(&open.nominal, p, |k| keep.map_or(true, |r| is_read(k) == r)) {
            out.put(name, s);
        }
    }
    let mut all: Vec<u64> = open.nominal.latencies.iter().map(|l| l.1).collect();
    all.sort_unstable();
    out.exact("paced.p999_us", percentile_sorted(&all, 99.9) as f64 / 1e3);
    let mut lag = open.nominal.send_lag_ns.clone();
    lag.sort_unstable();
    let late = lag.partition_point(|&ns| ns <= 2 * LINGER.as_nanos() as u64);
    out.exact(
        "gen.late_share",
        (lag.len() - late) as f64 / lag.len() as f64,
    );
    out.exact(
        "gen.late_p99_us",
        percentile_sorted(&lag, 99.0) as f64 / 1e3,
    );
    for (r, p99) in open.rung_p99_us.iter().enumerate() {
        out.exact(&format!("rate.rung{}_p99_us", r + 1), *p99);
    }
    out.exact("rate.max_ok_ops_s", open.max_ok_ops_s);
    let _ = std::fs::remove_dir_all(&scratch);

    // Report in spec order, whatever order the segments ran in.
    let mut report = out.report;
    report
        .metrics
        .sort_by_key(|m| specs.iter().position(|s| s.name == m.name));
    report
}
