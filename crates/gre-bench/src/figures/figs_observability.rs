//! Observability end to end: serve the shifting-hotspot scenario through an
//! *instrumented* `PipelineTarget` and show every telemetry surface at work:
//!
//! * a monitor thread samples per-shard `ops_completed` each interval and
//!   prints the resulting load-imbalance series — the hot shard visibly
//!   follows the scripted hotspot drift (asserted, not just printed);
//! * each phase reports its per-interval p50/p99 latency series next to the
//!   completions-per-interval throughput series;
//! * the final metrics snapshot is exported as Prometheus text (run through
//!   the strict validator) and as JSON;
//! * the sampled request spans are dumped as Chrome trace-event JSON to
//!   `figs_observability_trace.json` (load it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>);
//! * a closing overhead probe runs a read-only pipeline cell with and
//!   without telemetry and prints the throughput ratio (budget: within 3%,
//!   see `docs/OBSERVABILITY.md`).
//!
//! `--quick` shrinks spans for a CI smoke run; `--verbose` adds per-kind
//! latency breakdowns and the full Prometheus exposition.

use crate::overhead::telemetry_overhead_probe;
use crate::report::{interval_latency_series, interval_series, print_phase_latency};
use crate::RunOpts;
use gre_datasets::Dataset;
use gre_learned::AlexPlus;
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
use gre_telemetry::{
    chrome_trace_json, json_text, prometheus_text, validate_prometheus, CounterId,
};
use gre_workloads::driver::Driver;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// File the Chrome trace-event dump is written to (CI uploads it as an
/// artifact).
const TRACE_OUT: &str = "figs_observability_trace.json";

pub fn run(opts: &RunOpts) {
    let keys = Dataset::Covid.generate(opts.keys, opts.seed);
    let index = ShardedIndex::from_factory(Partitioner::range(opts.shards.clamp(2, 8)), |_| {
        AlexPlus::<u64>::new()
    });
    let phase_ops = if opts.quick { 60_000 } else { 300_000 } as u64;
    let threads = opts.threads.clamp(1, 8);
    let interval = Duration::from_millis(if opts.quick { 20 } else { 100 });
    // The monitor samples finer than the driver's series so even a fast
    // quick run yields several imbalance rows.
    let monitor_interval = interval / 4;
    // Sample densely enough that even the quick run fills the span ring.
    let trace_one_in = if opts.quick { 64 } else { 1024 };

    println!(
        "# Observability: instrumented {} serving shifting-hotspot",
        super::sharded_label(&index)
    );

    let scenario = super::shifting_hotspot_scenario(opts.seed, &keys, phase_ops, threads);

    let mut target = PipelineTarget::new(index, threads, 256, 0)
        .instrumented_with(|c| c.trace_sample(trace_one_in));
    let telemetry = Arc::clone(target.telemetry().expect("instrumented"));

    let stop = Arc::new(AtomicBool::new(false));
    let monitor =
        super::spawn_shard_monitor(Arc::clone(&telemetry), Arc::clone(&stop), monitor_interval);

    let result = Driver::new().interval(interval).run(&scenario, &mut target);
    stop.store(true, Ordering::Release);
    let shard_series = monitor.join().expect("monitor thread panicked");

    println!("\n## {} on {}", result.scenario, result.target);
    for phase in &result.phases {
        println!(
            "{:<10} ops={:<8} {:.3} Mop/s  read p99 {:.1}us",
            phase.phase,
            phase.ops(),
            phase.throughput_mops(),
            phase.read_summary().p99_ns as f64 / 1e3,
        );
        println!("  throughput: {}", interval_series(phase, 6));
        println!("  latency:    {}", interval_latency_series(phase, 6));
        if opts.verbose {
            print_phase_latency("    ", phase);
        }
    }
    assert_eq!(result.total_ops(), 3 * phase_ops);

    print_imbalance(&shard_series);

    let snap = telemetry.snapshot();
    assert_eq!(snap.counter(CounterId::OpsCompleted), 3 * phase_ops);
    // In debug builds, cross-check every outcome counter against the
    // driver's typed-response tally (the two classify the same responses
    // from opposite ends of the pipeline).
    debug_assert_eq!(
        {
            let mut tally = gre_workloads::driver::Tally::default();
            for p in &result.phases {
                tally.merge(&p.tally);
            }
            gre_shard::reconcile_tally(&snap, &tally)
        },
        Ok(())
    );

    let prom = prometheus_text(&snap);
    let samples = validate_prometheus(&prom).expect("prometheus exposition must validate");
    let json = json_text(&snap);
    println!("\n## Snapshot exporters");
    println!(
        "  prometheus: {samples} samples (validated)   json: {} bytes",
        json.len()
    );
    if opts.verbose {
        print!("{prom}");
    }

    let spans = telemetry.trace().expect("tracing on").recent();
    assert!(
        !spans.is_empty(),
        "the 1-in-{trace_one_in} sampler must leave spans"
    );
    std::fs::write(TRACE_OUT, chrome_trace_json(&spans)).expect("write trace dump");
    println!(
        "  trace: {} spans sampled 1-in-{trace_one_in} ({} recorded, {} dropped) -> {TRACE_OUT}",
        spans.len(),
        snap.counter(CounterId::TraceSpans),
        snap.counter(CounterId::TraceDropped),
    );

    let probe = telemetry_overhead_probe(opts, if opts.quick { 1 } else { 3 });
    println!(
        "\n## Overhead probe (read-only pipeline cell, best of runs)\n  \
         base {:.3} Mop/s  instrumented {:.3} Mop/s  ratio {:.3}",
        probe.base_mops,
        probe.instrumented_mops,
        probe.ratio()
    );
}

/// Print the per-interval shard load series and assert the hot shard moved
/// with the scripted drift.
fn print_imbalance(series: &[Vec<u64>]) {
    println!("\n## Per-shard load (ops/interval, monitor thread)");
    let active: Vec<&Vec<u64>> = series
        .iter()
        .filter(|d| d.iter().sum::<u64>() > 0)
        .collect();
    assert!(
        active.len() >= 2,
        "monitor sampled {} active windows; the run must span several",
        active.len()
    );
    let cols = active.len().min(8);
    let stride = active.len().div_ceil(cols);
    for (i, deltas) in active.iter().enumerate().step_by(stride) {
        let total: u64 = deltas.iter().sum();
        let max = *deltas.iter().max().expect("at least one shard");
        let hot = deltas.iter().position(|&d| d == max).expect("max exists");
        let imbalance = max as f64 / (total as f64 / deltas.len() as f64);
        println!(
            "  t{i:<3} hot=shard{hot} imbalance={imbalance:>4.1}x  {}",
            deltas
                .iter()
                .map(|d| format!("{d:>6}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }

    // The hotspot drifts 0.05 -> 0.85 across range shards: the busiest
    // shard of the first active window must differ from the last one's.
    let hottest = |d: &Vec<u64>| {
        let max = *d.iter().max().expect("at least one shard");
        d.iter().position(|&x| x == max).expect("max exists")
    };
    let first = hottest(active.first().expect("non-empty"));
    let last = hottest(active.last().expect("non-empty"));
    println!("  hot shard drifted: {first} -> {last}");
    assert_ne!(
        first, last,
        "the hot shard must follow the scripted hotspot drift"
    );
}
