//! Shared latency-report formatting for the figures' verbose
//! mode: per-[`RequestKind`] summary lines so read
//! and write tails stay separable in the printed output.

use gre_core::{LatencyHistogram, RequestKind};
use gre_workloads::driver::PhaseResult;

/// Print one line per request kind of `phase` that recorded samples:
/// `kind  n  p50  p99  p999  max` (latencies in µs).
pub fn print_phase_latency(indent: &str, phase: &PhaseResult) {
    for kind in RequestKind::ALL {
        let s = phase.kind_summary(kind);
        if s.samples == 0 {
            continue;
        }
        println!(
            "{indent}{:<7} n={:<9} p50={:>9.1}us p99={:>9.1}us p999={:>9.1}us max={:>9.1}us",
            kind.label(),
            s.samples,
            s.p50_ns as f64 / 1e3,
            s.p99_ns as f64 / 1e3,
            s.p999_ns as f64 / 1e3,
            s.max_ns as f64 / 1e3,
        );
    }
}

/// A condensed `completions-per-interval` view of a phase's throughput
/// series: `interval_s` column pairs, at most `max_cols` of them (evenly
/// subsampled beyond that).
pub fn interval_series(phase: &PhaseResult, max_cols: usize) -> String {
    let n = phase.intervals.len();
    if n == 0 || max_cols == 0 {
        return String::from("(no intervals)");
    }
    let stride = n.div_ceil(max_cols);
    let secs = phase.interval_ns as f64 / 1e9;
    phase
        .intervals
        .chunks(stride)
        .enumerate()
        .map(|(i, chunk)| {
            let total: u64 = chunk.iter().sum();
            let rate = total as f64 / (chunk.len() as f64 * secs);
            format!("{:.1}s:{:.0}/s", i as f64 * stride as f64 * secs, rate)
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// A condensed per-interval latency view of a phase: `t:p50/p99` column
/// pairs in µs, at most `max_cols` of them (adjacent interval histograms
/// are merged beyond that). Intervals without a timed completion print `-`.
pub fn interval_latency_series(phase: &PhaseResult, max_cols: usize) -> String {
    let n = phase.interval_latency.len();
    if n == 0 || max_cols == 0 {
        return String::from("(no intervals)");
    }
    let stride = n.div_ceil(max_cols);
    let secs = phase.interval_ns as f64 / 1e9;
    phase
        .interval_latency
        .chunks(stride)
        .enumerate()
        .map(|(i, chunk)| {
            let t = i as f64 * stride as f64 * secs;
            let mut merged = LatencyHistogram::new();
            for h in chunk {
                merged.merge(h);
            }
            if merged.count() == 0 {
                format!("{t:.1}s:-")
            } else {
                format!(
                    "{t:.1}s:{:.0}/{:.0}us",
                    merged.percentile(0.5) as f64 / 1e3,
                    merged.percentile(0.99) as f64 / 1e3,
                )
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}
