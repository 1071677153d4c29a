//! Client loops: closed-loop (bare index and served stack), open-loop paced,
//! and the reference-model oracle. All clocks are the benchmark's own.

use crate::stack::{self, ConcurrentIndex, Pipeline, BATCH_OPS};
use crate::tape::{Kind, Tape};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Outcome of a closed-loop segment over a prefix of the tape, handed out to
/// the clients in blocks of [`BATCH_OPS`].
pub struct Closed {
    /// Completion time of every block, ascending, ns from segment start.
    pub block_done_ns: Vec<u64>,
    /// Operations executed: the planned prefix, or less if the segment ran
    /// into its time limit.
    pub ops: usize,
    /// Operations whose reply was not the one the tape allows.
    pub failed: usize,
    pub elapsed_s: f64,
    /// ns each `Session::submit` call took (served segments only).
    pub submit_ns: Vec<u64>,
}

impl Closed {
    /// Per-sub-interval throughput (ops/s), warm-up interval dropped; fewer
    /// sub-intervals when the segment was cut short, none when it was cut
    /// before four blocks completed.
    pub fn rates(&self, intervals: usize) -> Vec<f64> {
        let intervals = intervals.min(self.block_done_ns.len() / 2);
        crate::stats::interval_rates(&self.block_done_ns, BATCH_OPS, intervals)
    }
}

/// One client's view of a closed-loop segment: it claims blocks from the
/// shared cursor and stamps each block's completion.
struct Lane<'a> {
    cursor: &'a AtomicUsize,
    ops: usize,
    started: Instant,
    limit: Duration,
    stamps: Vec<u64>,
    submit_ns: Vec<u64>,
}

impl Lane<'_> {
    fn next(&self) -> Option<(usize, usize)> {
        if self.started.elapsed() > self.limit {
            return None;
        }
        let from = self.cursor.fetch_add(BATCH_OPS, Ordering::Relaxed);
        (from < self.ops).then_some((from, from + BATCH_OPS))
    }

    fn done(&mut self) {
        self.stamps.push(self.started.elapsed().as_nanos() as u64);
    }
}

/// Run `client` (returning its failed-op count) on `threads` threads sharing
/// one block cursor over the first `ops` operations.
///
/// Segments are sized in operations so that every run replays the same
/// inputs; `limit` only keeps a machine several times slower than the one
/// the sizes were frozen on from running past the harness's patience. Once
/// it passes, no further block is claimed (the blocks executed are still a
/// prefix of the tape) and the cut is reported on stderr.
fn closed_loop(
    ops: usize,
    threads: usize,
    limit: Duration,
    client: impl Fn(&mut Lane) -> usize + Sync,
) -> Closed {
    let ops = ops - ops % BATCH_OPS;
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let lanes: Vec<(Lane, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut lane = Lane {
                        cursor: &cursor,
                        ops,
                        started,
                        limit,
                        stamps: Vec::with_capacity(ops / BATCH_OPS / threads + 1),
                        submit_ns: Vec::new(),
                    };
                    let failed = client(&mut lane);
                    (lane, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut block_done_ns: Vec<u64> = lanes
        .iter()
        .flat_map(|l| l.0.stamps.iter().copied())
        .collect();
    block_done_ns.sort_unstable();
    let done = block_done_ns.len() * BATCH_OPS;
    assert!(done <= ops, "a block completed twice");
    if done < ops {
        eprintln!("note: segment cut at {limit:?} after {done} of {ops} ops");
    }
    Closed {
        block_done_ns,
        ops: done,
        failed: lanes.iter().map(|l| l.1).sum(),
        elapsed_s,
        submit_ns: lanes.into_iter().flat_map(|l| l.0.submit_ns).collect(),
    }
}

/// `threads` clients calling the index directly, one op at a time.
pub fn direct<I: ConcurrentIndex<u64>>(
    index: &I,
    tape: &Tape,
    ops: usize,
    threads: usize,
    limit: Duration,
) -> Closed {
    let meta = index.meta();
    closed_loop(ops, threads, limit, |lane| {
        let mut failed = 0;
        while let Some((from, to)) = lane.next() {
            for i in from..to {
                let reply = stack::execute(index, &meta, tape, i);
                failed += usize::from(!stack::reply_ok(tape, i, &reply));
            }
            lane.done();
        }
        failed
    })
}

/// `threads` clients, each pipelining blocks through its own session.
pub fn served(
    pipeline: &Pipeline,
    tape: &Tape,
    ops: usize,
    threads: usize,
    limit: Duration,
) -> Closed {
    closed_loop(ops, threads, limit, |lane| {
        let mut session = stack::session(pipeline);
        let mut inflight: VecDeque<usize> = VecDeque::new();
        let mut failed = 0;
        let check = |from: usize, replies: Vec<stack::Reply>| {
            replies
                .iter()
                .enumerate()
                .filter(|(j, r)| !stack::reply_ok(tape, from + j, r))
                .count()
        };
        while let Some((from, to)) = lane.next() {
            let batch = stack::batch(tape, from, to);
            let before = Instant::now();
            session.submit(batch);
            lane.submit_ns.push(before.elapsed().as_nanos() as u64);
            inflight.push_back(from);
            while let Some(replies) = session.try_recv() {
                failed += check(
                    inflight.pop_front().expect("reply without a batch"),
                    replies,
                );
                lane.done();
            }
        }
        while let Some(replies) = session.recv() {
            failed += check(
                inflight.pop_front().expect("reply without a batch"),
                replies,
            );
            lane.done();
        }
        failed
    })
}

/// Outcome of an open-loop segment: one sender offering the first `ops`
/// tape operations at `rate` ops/s, each timed from its due time.
#[derive(Default)]
pub struct Paced {
    /// `(kind, latency ns)` per op, in completion order.
    pub latencies: Vec<(Kind, u64)>,
    /// ns each op was handed to the stack after its due time.
    pub send_lag_ns: Vec<u64>,
    /// ns each `Session::submit` call took.
    pub submit_ns: Vec<u64>,
    pub failed: usize,
    pub elapsed_s: f64,
    /// The sender fell further behind than it was told to tolerate and
    /// stopped offering load; `latencies` covers only what it sent.
    pub gave_up: bool,
}

/// The paced client batches at [`BATCH_OPS`] ops or this linger.
pub const LINGER: Duration = Duration::from_micros(200);

/// `give_up_lag` bounds how far behind its schedule the sender may fall
/// before it abandons the segment (a rate far past capacity would otherwise
/// take many times its nominal duration to drain).
pub fn paced(
    pipeline: &Pipeline,
    tape: &Tape,
    ops: usize,
    rate: f64,
    give_up_lag: Duration,
) -> Paced {
    let gap_ns = 1e9 / rate;
    let give_up_ns = u64::try_from(give_up_lag.as_nanos()).unwrap_or(u64::MAX);
    let due = |i: usize| (i as f64 * gap_ns) as u64;
    let mut session = stack::session(pipeline);
    let mut inflight: VecDeque<(usize, usize)> = VecDeque::new();
    let mut out = Paced {
        latencies: Vec::with_capacity(ops),
        send_lag_ns: Vec::with_capacity(ops),
        submit_ns: Vec::with_capacity(ops / 16),
        failed: 0,
        elapsed_s: 0.0,
        gave_up: false,
    };
    let started = Instant::now();
    let now_ns = || started.elapsed().as_nanos() as u64;
    let harvest = |out: &mut Paced, from: usize, to: usize, replies: Vec<stack::Reply>| {
        let now = now_ns();
        for (i, reply) in (from..to).zip(&replies) {
            out.failed += usize::from(!stack::reply_ok(tape, i, reply));
            out.latencies
                .push((tape.kind(i), now.saturating_sub(due(i))));
        }
    };
    let mut sent = 0usize;
    while sent < ops {
        while let Some(replies) = session.try_recv() {
            let (from, to) = inflight.pop_front().expect("reply without a batch");
            harvest(&mut out, from, to, replies);
        }
        let now = now_ns();
        if now.saturating_sub(due(sent)) > give_up_ns {
            out.gave_up = true;
            break;
        }
        let due_count = (((now as f64 / gap_ns) as usize) + 1).min(ops) - sent;
        let lingered = due_count > 0 && now - due(sent) >= LINGER.as_nanos() as u64;
        if due_count >= BATCH_OPS || lingered || sent + due_count == ops && due_count > 0 {
            let to = sent + due_count.min(BATCH_OPS);
            let batch = stack::batch(tape, sent, to);
            let before = now_ns();
            session.submit(batch);
            let after = now_ns();
            out.submit_ns.push(after - before);
            out.send_lag_ns
                .extend((sent..to).map(|i| before.saturating_sub(due(i))));
            inflight.push_back((sent, to));
            sent = to;
        } else {
            // Not a spin: with two cores the workers need the one the
            // sender is waiting on.
            std::thread::yield_now();
        }
    }
    while let Some(replies) = session.recv() {
        let (from, to) = inflight.pop_front().expect("reply without a batch");
        harvest(&mut out, from, to, replies);
    }
    out.elapsed_s = started.elapsed().as_secs_f64();
    out
}

/// Replay the first `ops` operations through the served stack with one
/// client, comparing every typed reply and the final stored length with a
/// `BTreeMap` model. Returns the number of mismatches.
///
/// A scan and a write never share a batch here: a scan that crosses into a
/// neighbouring shard reads it while that shard's worker may be running a
/// write from the same batch, and the sequential model cannot say which it
/// saw.
pub fn verify_served(pipeline: &Pipeline, tape: &Tape, ops: usize) -> usize {
    let mut model: BTreeMap<u64, u64> = tape.loaded.iter().copied().collect();
    let mut wrong = 0;
    let mut from = 0;
    while from < ops {
        let mut to = from;
        let (mut scans, mut writes) = (false, false);
        while to < ops && to - from < BATCH_OPS {
            let kind = tape.kind(to);
            if kind == Kind::Range && writes || kind.is_write() && scans {
                break;
            }
            scans |= kind == Kind::Range;
            writes |= kind.is_write();
            to += 1;
        }
        let replies = pipeline.submit(stack::batch(tape, from, to)).wait();
        for (i, reply) in (from..to).zip(&replies) {
            wrong += usize::from(*reply != stack::model_reply(&mut model, tape, i));
        }
        from = to;
    }
    wrong + usize::from(pipeline.index().len() != model.len())
}

/// The state the first `ops` operations leave behind, whatever the
/// interleaving (payloads are functions of the key).
pub fn expected_state(tape: &Tape, ops: usize) -> BTreeMap<u64, u64> {
    let mut model: BTreeMap<u64, u64> = tape.loaded.iter().copied().collect();
    for i in 0..ops {
        stack::model_reply(&mut model, tape, i);
    }
    model
}

/// Entries of `index` that differ from `model`, plus entries missing or
/// surplus.
pub fn state_mismatches<I: ConcurrentIndex<u64>>(index: &I, model: &BTreeMap<u64, u64>) -> usize {
    let got = stack::scan_all(index);
    let same = got.iter().filter(|(k, v)| model.get(k) == Some(v)).count();
    (got.len() - same) + (model.len() - same)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{KeyDist, Mix};

    #[test]
    fn a_segment_runs_its_whole_prefix_unless_its_time_limit_cuts_it() {
        let keys: Vec<u64> = (0..10_000).map(|i| i * 5 + 2).collect();
        let reads = Mix {
            get: 80,
            insert: 0,
            update: 0,
            range: 20,
        };
        let tape = Tape::generate(
            &keys,
            keys.len(),
            reads,
            KeyDist::Uniform,
            10,
            8 * BATCH_OPS,
            3,
        );
        let mut index = stack::Bsearch::default();
        index.bulk_load(&tape.loaded);

        let whole = direct(&index, &tape, tape.len(), 2, Duration::from_secs(60));
        assert_eq!((whole.ops, whole.failed), (tape.len(), 0));
        assert_eq!(whole.block_done_ns.len(), 8);
        assert!(whole.block_done_ns.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(whole.rates(4).len(), 3);

        let cut = direct(&index, &tape, tape.len(), 2, Duration::ZERO);
        assert_eq!((cut.ops, cut.failed), (0, 0));
        assert!(cut.rates(4).is_empty(), "nothing to read a rate from");
    }
}
