//! The open-loop segments: the paced run at the workload's nominal rate and
//! the other rungs of its rate ladder, each against a fresh stack. Both the
//! untraced run (latency at the nominal rate, highest rate that meets the
//! limit) and the traced run (generator lateness, the tail, each rung's p99)
//! read from the same segments.

use crate::clients::{self, Paced};
use crate::stack;
use crate::stats::{interval_percentiles, percentile_sorted, Summary};
use crate::tape::{Kind, Tape};
use crate::workloads::{whole_blocks, Workload, LATENCY_INTERVALS};
use std::path::Path;
use std::time::Duration;

/// Shares of `--seconds` the nominal-rate segment and each other rung offer
/// load for. (A rung past capacity ends early: its sender gives up.)
const SHARE_PACED: f64 = 0.10;
const SHARE_RUNG: f64 = 0.06;
/// A sender this many latency limits behind its schedule gives the rung up.
const GIVE_UP_LIMITS: u32 = 20;

pub struct OpenLoop {
    /// The segment at the workload's nominal rate.
    pub nominal: Paced,
    /// p99 from due time (us) of each rung of `Workload::rungs`.
    pub rung_p99_us: [f64; 4],
    /// Highest rung whose p99 meets the workload's limit with no growing
    /// backlog and no failure; 0 when none does.
    pub max_ok_ops_s: f64,
    pub attempted: usize,
    pub failed: usize,
}

/// Tape operations the segments replay, at most.
pub fn ops_needed(w: &Workload, seconds: f64) -> usize {
    w.rungs
        .iter()
        .map(|&rate| rung_ops(w, rate, seconds))
        .max()
        .expect("four rungs")
}

fn rung_ops(w: &Workload, rate: f64, seconds: f64) -> usize {
    let share = if rate == w.paced_rate() {
        SHARE_PACED
    } else {
        SHARE_RUNG
    };
    whole_blocks(rate * share * seconds, LATENCY_INTERVALS)
}

/// Percentile `p` (us) of the latencies `keep` selects: the median of the
/// segment's sub-intervals' percentiles, with their quartiles. `None` when
/// the segment holds too few such operations.
pub fn paced_us(run: &Paced, p: f64, keep: impl Fn(Kind) -> bool) -> Option<Summary> {
    let lat: Vec<u64> = run
        .latencies
        .iter()
        .filter(|l| keep(l.0))
        .map(|l| l.1)
        .collect();
    let intervals = LATENCY_INTERVALS.min(lat.len() / 20);
    (intervals >= 3).then(|| {
        let v: Vec<f64> = interval_percentiles(&lat, p, intervals)
            .iter()
            .map(|ns| ns / 1e3)
            .collect();
        Summary::of(&v)
    })
}

/// What the segment's last tenth of operations waited, as their median: a
/// backlog that grew through the segment holds all of them up, a stall that
/// happened to fall at its end only some.
fn backlog_us(run: &Paced) -> f64 {
    let mut last: Vec<u64> = run.latencies[run.latencies.len() * 9 / 10..]
        .iter()
        .map(|l| l.1)
        .collect();
    if last.is_empty() {
        return 0.0;
    }
    last.sort_unstable();
    percentile_sorted(&last, 50.0) as f64 / 1e3
}

/// Offer each rung's rate to a fresh stack (logging under `wal` on a durable
/// workload).
pub fn run(w: &Workload, tape: &Tape, seconds: f64, wal: Option<&Path>) -> OpenLoop {
    let limit = Duration::from_micros(w.p99_limit_us as u64);
    let gave_up_us = (limit * GIVE_UP_LIMITS).as_micros() as f64;
    let mut out = OpenLoop {
        nominal: Paced::default(),
        rung_p99_us: [0.0; 4],
        max_ok_ops_s: 0.0,
        attempted: 0,
        failed: 0,
    };
    for (r, &rate) in w.rungs.iter().enumerate() {
        let ops = rung_ops(w, rate, seconds).min(tape.len());
        let pipeline = stack::start(&tape.loaded, wal, None);
        let run = clients::paced(&pipeline, tape, ops, rate, limit * GIVE_UP_LIMITS);
        drop(pipeline);
        out.attempted += run.latencies.len();
        out.failed += run.failed;
        let p99 = paced_us(&run, 99.0, |_| true).map_or(f64::MAX, |s| s.value);
        // A sender that gave up was at least that far behind.
        out.rung_p99_us[r] = if run.gave_up {
            p99.max(gave_up_us)
        } else {
            p99
        };
        let ok = !run.gave_up
            && run.failed == 0
            && out.rung_p99_us[r] <= w.p99_limit_us
            && backlog_us(&run) <= w.p99_limit_us;
        if ok {
            out.max_ok_ops_s = out.max_ok_ops_s.max(rate);
        }
        if rate == w.paced_rate() {
            out.nominal = run;
        }
    }
    out
}
