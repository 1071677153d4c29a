//! Shared latency-report formatting for the figures' verbose
//! mode: per-[`RequestKind`] summary lines so read
//! and write tails stay separable in the printed output.

use gre_core::RequestKind;
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
