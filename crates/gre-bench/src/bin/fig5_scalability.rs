//! Figure 5: throughput of read-only / balanced / write-only workloads while
//! scaling the thread count on one socket.
//!
//! Runs through the scenario `Driver` (one-phase closed-loop replay per
//! workload) so `--verbose` can report per-kind latency tails next to the
//! throughput cells.
use gre_bench::report::print_phase_latency;
use gre_bench::runopts::thread_axis_note;
use gre_bench::{registry::concurrent_indexes, RunOpts};
use gre_datasets::Dataset;
use gre_workloads::driver::Driver;
use gre_workloads::scenario::{Pacing, Scenario};
use gre_workloads::{WorkloadBuilder, WriteRatio};

fn main() {
    let opts = RunOpts::from_env();
    let builder = WorkloadBuilder::new(opts.seed);
    let thread_points: Vec<usize> = [1usize, 2, 4, 8, 16, 24, 36, 48]
        .into_iter()
        .filter(|t| *t <= opts.threads.max(1) * 2)
        .collect();
    println!(
        "# Figure 5: scalability (Mop/s); hyper-threaded points are those beyond {} threads",
        opts.threads
    );
    println!("{}", thread_axis_note());
    for ds in Dataset::DRILLDOWN_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        for ratio in [
            WriteRatio::ReadOnly,
            WriteRatio::Balanced,
            WriteRatio::WriteOnly,
        ] {
            let workload = builder.insert_workload(&ds.name(), &keys, ratio);
            for entry in concurrent_indexes(true) {
                let mut row = format!("{:<10} {:<6} {:<10}", ds.name(), ratio.label(), entry.name);
                let mut index = entry.index;
                let mut tails = Vec::new();
                for &t in &thread_points {
                    let scenario =
                        Scenario::from_workload(&workload, Pacing::ClosedLoop { threads: t });
                    let result = Driver::new().run(&scenario, index.as_mut());
                    let phase = result.phases.into_iter().next().expect("one phase");
                    row.push_str(&format!(" {:>8.3}", phase.throughput_mops()));
                    if opts.verbose {
                        tails.push((t, phase));
                    }
                }
                println!("{row}");
                for (t, phase) in &tails {
                    println!("    latency @{t}T:");
                    print_phase_latency("      ", phase);
                }
            }
        }
    }
}
