//! Figure 6: scalability across sockets. The paper interleaves memory across
//! 1–4 NUMA sockets; this host-independent reproduction continues the thread
//! sweep past one socket's worth of cores (see "Substitutions" in
//! `docs/BENCHMARKS.md`) — the qualitative signal is each index's trend as
//! parallelism keeps growing.
use gre_bench::runopts::thread_axis_note;
use gre_bench::{registry::concurrent_indexes, RunOpts};
use gre_datasets::Dataset;
use gre_workloads::{run_concurrent, WorkloadBuilder, WriteRatio};

fn main() {
    let opts = RunOpts::from_env();
    let builder = WorkloadBuilder::new(opts.seed);
    let socket_equivalents: Vec<usize> = vec![
        2,
        opts.threads,
        opts.threads * 2,
        opts.threads * 3,
        opts.threads * 4,
    ];
    println!(
        "# Figure 6: socket-count scaling (thread counts {:?})",
        socket_equivalents
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
                for &t in &socket_equivalents {
                    let r = run_concurrent(index.as_mut(), &workload, t.max(1));
                    row.push_str(&format!(" {:>8.3}", r.throughput_mops()));
                }
                println!("{row}");
            }
        }
    }
}
