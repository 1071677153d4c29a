//! The untraced run of one workload: set-up, the oracle, the `direct` and
//! `served` closed-loop segments, the open-loop segments, and (durable
//! workloads) the recovery and injected-crash drills. Produces the
//! end-to-end metrics.

use crate::clients;
use crate::openloop::{self, paced_us};
use crate::report::{end_to_end, WorkloadReport};
use crate::stack::{self, ConcurrentIndex, BATCH_OPS, CLIENTS};
use crate::stats::{replayed_rates, Summary};
use crate::tape::{Kind, Tape};
use crate::workloads::{
    whole_blocks, Workload, RATE_INTERVALS, SHARE_BTREE, SHARE_DIRECT, SHARE_SERVED, SLOWEST,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Operations the oracle replays through the served stack.
const VERIFY_OPS: usize = 64 * BATCH_OPS;
/// Batches the injected-crash drill submits.
const DRILL_BATCHES: usize = 64;
/// Times each closed-loop segment is replayed on fresh state, the three
/// kinds of segment taking turns (see `stats::replayed_rates`).
const ROUNDS: usize = 3;

/// Failed ops of a closed-loop segment: wrong replies, plus a stored length
/// that does not match the prefix's fresh inserts.
fn closed_failures<I: ConcurrentIndex<u64>>(
    index: &I,
    tape: &Tape,
    run: &clients::Closed,
) -> usize {
    let expected = tape.loaded.len() + tape.inserts_in(run.ops);
    run.failed + usize::from(index.len() != expected)
}

/// Untimed: a log whose shard-0 sink crashes mid-stream, really discarding
/// what it had not flushed. Every acknowledged write must survive recovery,
/// and nothing refused may appear. Returns `(attempted, failed)`.
fn crash_drill(tape: &Tape, dir: &Path, seed: u64) -> (usize, usize) {
    let pipeline = stack::start_crashing(&tape.loaded, dir, 5 + seed % 20);
    let mut model: BTreeMap<u64, u64> = tape.loaded.iter().copied().collect();
    let ops = (DRILL_BATCHES * BATCH_OPS).min(tape.len());
    let (mut failed, mut refused) = (0usize, 0usize);
    for from in (0..ops).step_by(BATCH_OPS) {
        let to = (from + BATCH_OPS).min(ops);
        let replies = pipeline.submit(stack::batch(tape, from, to)).wait();
        for (i, reply) in (from..to).zip(&replies) {
            if stack::refused(reply) {
                refused += 1;
            } else {
                failed += usize::from(*reply != stack::model_reply(&mut model, tape, i));
            }
        }
    }
    drop(pipeline);
    let recovered = stack::recover(dir);
    failed += clients::state_mismatches(&recovered.index, &model);
    // The drill must actually have crashed something, or it proves nothing.
    failed += usize::from(refused == 0);
    (ops + model.len(), failed)
}

pub fn run(w: &Workload, seed: u64, seconds: f64) -> WorkloadReport {
    let specs = end_to_end();
    let per_round = |speed: f64, share: f64| {
        whole_blocks(speed * share * seconds / ROUNDS as f64, 2 * RATE_INTERVALS)
    };
    let ops_direct = per_round(w.speed_direct, SHARE_DIRECT);
    let ops_btree = per_round(w.speed_btree, SHARE_BTREE);
    let ops_served = per_round(w.speed_served, SHARE_SERVED);
    let tape_ops = ops_direct
        .max(ops_btree)
        .max(ops_served)
        .max(VERIFY_OPS)
        .max(openloop::ops_needed(w, seconds));
    let tape = w.tape(&w.keys(tape_ops, seed), tape_ops, seed);
    let mut report = WorkloadReport {
        name: w.name.to_string(),
        tape_digest: format!("{:016x}", tape.digest()),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let mut tally = |attempted: usize, failed: usize| {
        report.attempted += attempted as u64;
        report.failed += failed as u64;
    };

    // At seed speed a segment takes its share of `--seconds`; see
    // `clients::closed_loop` for why it is nevertheless capped.
    let limit = |share: f64| Duration::from_secs_f64(SLOWEST * share * seconds / ROUNDS as f64);

    let scratch = stack::scratch_dir(w.name);
    let wal_dir = |tag: &str| w.durable.then(|| scratch.join(tag));

    // Every served stack the run needs is a timed set-up: keys + bulk load +
    // stack start (+ log creation and the bulk load's checkpoint).
    let mut setup_secs = Vec::new();
    let set_up = |tag: &str, secs: &mut Vec<f64>| {
        let started = Instant::now();
        std::hint::black_box(w.data.generate(tape.loaded.len(), seed));
        let pipeline = stack::start(&tape.loaded, wal_dir(tag).as_deref(), None);
        secs.push(started.elapsed().as_secs_f64());
        pipeline
    };

    // Oracle: one client, every typed reply against the model.
    let verifier = set_up("wal-oracle", &mut setup_secs);
    let verify_ops = VERIFY_OPS.min(tape.len());
    tally(
        verify_ops,
        clients::verify_served(&verifier, &tape, verify_ops),
    );
    drop(verifier);

    // Closed loop: the bare backends, then the full stack, ROUNDS times over.
    let (mut direct, mut direct_btree, mut served) = (Vec::new(), Vec::new(), Vec::new());
    let (mut bytes_per_key, mut wal_bytes_per_op) = (0.0, 0.0);
    let mut recovery_secs = Vec::new();
    for _ in 0..ROUNDS {
        let alex = stack::bare_alex(&tape.loaded);
        let seg = clients::direct(&alex, &tape, ops_direct, CLIENTS, limit(SHARE_DIRECT));
        tally(seg.ops, closed_failures(&alex, &tape, &seg));
        direct.push(seg.rates(RATE_INTERVALS));
        drop(alex);

        let btree = stack::bare_btree(&tape.loaded);
        let seg = clients::direct(&btree, &tape, ops_btree, CLIENTS, limit(SHARE_BTREE));
        tally(seg.ops, closed_failures(&btree, &tape, &seg));
        direct_btree.push(seg.rates(RATE_INTERVALS));
        drop(btree);

        let pipeline = set_up("wal-served", &mut setup_secs);
        let seg = clients::served(&pipeline, &tape, ops_served, CLIENTS, limit(SHARE_SERVED));
        tally(seg.ops, closed_failures(&**pipeline.index(), &tape, &seg));
        served.push(seg.rates(RATE_INTERVALS));
        let index = pipeline.index();
        bytes_per_key = index.memory_usage() as f64 / index.len().max(1) as f64;
        // Dropped without a checkpoint or an explicit sync: whatever the
        // log's own policy made durable is all a restart gets.
        drop(pipeline);
        if let Some(dir) = wal_dir("wal-served") {
            let writes = (0..seg.ops).filter(|&i| tape.kind(i).is_write()).count();
            wal_bytes_per_op = stack::wal_bytes(&dir) as f64 / writes.max(1) as f64;
            let recovered = stack::recover(&dir);
            recovery_secs.push(recovered.scan_s + recovered.replay_s);
            let expected = clients::expected_state(&tape, seg.ops);
            tally(
                expected.len(),
                clients::state_mismatches(&recovered.index, &expected),
            );
        }
    }

    // A set-up of milliseconds is timed some more: four samples of it are
    // mostly the machine's noise.
    while setup_secs.len() < 16 && setup_secs.iter().sum::<f64>() < 0.5 {
        drop(set_up("wal-spare", &mut setup_secs));
    }

    // Open loop: the nominal rate and the other rungs of the rate ladder.
    let open = openloop::run(w, &tape, seconds, wal_dir("wal-paced").as_deref());
    tally(open.attempted, open.failed);

    if let Some(dir) = wal_dir("wal-drill") {
        let (attempted, failed) = crash_drill(&tape, &dir, seed);
        tally(attempted, failed);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    // A segment cut before it had sub-intervals to read is a failed run.
    let mut rate = |replays: &[Vec<f64>]| {
        let rates = replayed_rates(replays);
        tally(1, usize::from(rates.is_empty()));
        (!rates.is_empty()).then(|| Summary::of(&rates))
    };
    let (direct, direct_btree, served) = (rate(&direct), rate(&direct_btree), rate(&served));
    let is_read = |k: Kind| !k.is_write();
    let metrics = [
        ("setup_s", Some(Summary::of(&setup_secs))),
        ("direct_ops_s", direct),
        ("direct_btree_ops_s", direct_btree),
        ("served_ops_s", served),
        ("paced_read_p50_us", paced_us(&open.nominal, 50.0, is_read)),
        (
            "paced_write_p50_us",
            paced_us(&open.nominal, 50.0, Kind::is_write),
        ),
        ("max_rate_ok_ops_s", Some(Summary::exact(open.max_ok_ops_s))),
        ("bytes_per_key", Some(Summary::exact(bytes_per_key))),
        (
            "wal_bytes_per_op",
            w.durable.then(|| Summary::exact(wal_bytes_per_op)),
        ),
        ("recovery_s", w.durable.then(|| Summary::of(&recovery_secs))),
    ];
    for (name, value) in metrics {
        if let Some(value) = value {
            report.push(&specs, name, value);
        }
    }
    report
}
