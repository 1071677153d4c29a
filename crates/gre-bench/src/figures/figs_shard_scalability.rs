//! Shard scalability of the `gre-shard` serving layer: throughput of
//! `sharded(backend, S)` while sweeping shard count × thread count ×
//! backend on the paper's balanced workload.
//!
//! All three execution paths run the same one-phase replay scenario through
//! the `gre-workloads` scenario `Driver` — only the `ServeTarget` differs:
//!
//! * `direct`  — driver threads call the composite `ConcurrentIndex`
//!   directly (the blanket bare-backend target), one routing decision
//!   per op.
//! * `batched` — `PipelineTarget` at window 0: the request stream is
//!   buffered into `BATCH`-op `OpBatch`es and submitted to the
//!   `ShardPipeline` worker pool one batch at a time (submit, then wait),
//!   amortizing routing and thread hand-off with per-shard FIFO execution.
//! * `session` — `PipelineTarget` at window `INFLIGHT`: each full batch is
//!   submitted, then the oldest batches are waited out until at most
//!   `INFLIGHT` remain in flight per thread, overlapping submission with
//!   execution.
//!
//! `--shards N` caps the shard-count axis, `--threads T` the thread axis,
//! `--verbose` adds per-kind latency breakdowns per path.

use crate::registry::CONCURRENT;
use crate::report::print_phase_latency;
use crate::RunOpts;
use gre_datasets::Dataset;
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
use gre_workloads::driver::{Driver, PhaseResult, ServeTarget};
use gre_workloads::scenario::{Scenario, Span};
use gre_workloads::{WorkloadBuilder, WriteRatio};

/// Ops per submitted batch on the batched and session paths.
const BATCH: usize = 1024;

/// In-flight batch window per client on the session path.
const INFLIGHT: usize = 8;

pub fn run(opts: &RunOpts) {
    let names: &[&str] = if opts.quick {
        &["ALEX+", "B+tree/p64"]
    } else {
        &["ALEX+", "LIPP+", "XIndex", "B+tree/p64", "ART/p64"]
    };
    let backends: Vec<_> = names
        .iter()
        .map(|&name| {
            *CONCURRENT
                .iter()
                .find(|ctor| ctor().meta().name == name)
                .expect("a registered concurrent index")
        })
        .collect();
    let shard_counts: Vec<usize> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|s| *s <= opts.shards)
        .collect();
    let mut thread_points: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|t| *t <= opts.threads)
        .collect();
    if thread_points.is_empty() {
        thread_points.push(1);
    }
    let datasets: &[Dataset] = if opts.quick {
        &[Dataset::Covid]
    } else {
        &[Dataset::Covid, Dataset::Osm]
    };

    let builder = WorkloadBuilder::new(opts.seed);
    println!(
        "# Shard scalability (Mop/s), balanced workload; thread axis: {thread_points:?}; \
         batched/session paths use {BATCH}-op batches, sessions keep {INFLIGHT} in flight"
    );
    println!(
        "{:<10} {:<22} {:>6} {:<8}{}",
        "dataset",
        "index",
        "shards",
        "path",
        thread_points
            .iter()
            .map(|t| format!(" {t:>7}T"))
            .collect::<String>()
    );
    for ds in datasets {
        let keys = ds.generate(opts.keys, opts.seed);
        let workload = builder.insert_workload(&ds.name(), &keys, WriteRatio::Balanced);
        for &backend in &backends {
            for &shards in &shard_counts {
                let build =
                    || ShardedIndex::from_factory(Partitioner::range(shards), |_| backend());
                let name = super::sharded_label(&build());
                let mut rows = [
                    (String::from("direct"), String::new()),
                    (String::from("batched"), String::new()),
                    (String::from("session"), String::new()),
                ];
                let mut tails: Vec<(String, PhaseResult)> = Vec::new();
                for &threads in &thread_points {
                    let scenario = workload.clone().closed_loop(threads);
                    // Always the composite — even at 1 shard — so every row
                    // of the sweep measures the same structure and the
                    // shards=1 baseline includes the routing dispatch too.
                    let mut direct = build();
                    let phase = run_path(&scenario, &mut direct);
                    rows[0]
                        .1
                        .push_str(&format!(" {:>8.3}", phase.throughput_mops()));
                    if opts.verbose {
                        tails.push((format!("direct/{threads}T"), phase));
                    }

                    let mut batched = PipelineTarget::new(build(), threads, BATCH, 0);
                    let phase = run_path(&scenario, &mut batched);
                    rows[1]
                        .1
                        .push_str(&format!(" {:>8.3}", phase.throughput_mops()));
                    if opts.verbose {
                        tails.push((format!("batched/{threads}T"), phase));
                    }

                    let mut session = PipelineTarget::new(build(), threads, BATCH, INFLIGHT);
                    let phase = run_path(&scenario, &mut session);
                    rows[2]
                        .1
                        .push_str(&format!(" {:>8.3}", phase.throughput_mops()));
                    if opts.verbose {
                        tails.push((format!("session/{threads}T"), phase));
                    }
                }
                for (path, cells) in rows {
                    println!(
                        "{:<10} {:<22} {:>6} {:<8}{cells}",
                        ds.name(),
                        name,
                        shards,
                        path
                    );
                }
                for (label, phase) in &tails {
                    println!("    latency {label}:");
                    print_phase_latency("      ", phase);
                }
            }
        }
    }
}

/// Run the one-phase replay scenario against one target and return the
/// phase measurements, checking no operation was dropped on the way.
fn run_path<T: ServeTarget + ?Sized>(scenario: &Scenario, target: &mut T) -> PhaseResult {
    let mut result = Driver::new().run(scenario, target);
    let phase = result.phases.remove(0);
    assert_eq!(
        Span::Ops(phase.ops()),
        scenario.phases[0].span,
        "{}: target dropped operations",
        result.target
    );
    phase
}
