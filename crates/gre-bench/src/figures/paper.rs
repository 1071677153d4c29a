//! The paper's own tables and figures: Tables 1–3, Figures 1–16 and the
//! appendix's B–G; the figure table says what each one is. Figures that are
//! the same loop share it — the heatmaps (2, 4, 7, 14, 16) through
//! `crate::heatmap`, the tail latencies (10, 11), the thread-axis sweeps
//! (5, 6) and the write-only drill-downs (3, 8, Table 3) through the
//! routines below.

use crate::heatmap::{concurrent_heatmap, single_thread_heatmap, HeatmapMode};
use crate::registry::{concurrent_indexes, single_thread_indexes};
use crate::RunOpts;
use gre_core::{ConcurrentIndex, Index, RequestKind};
use gre_datasets::Dataset;
use gre_learned::{Alex, AlexConfig, AlexPlus, FinedexConfig, Lipp, LippConfig, XIndexConfig};
use gre_pla::{DataHardness, HardnessConfig, SynthCorner};
use gre_workloads::Driver;
use gre_workloads::YcsbVariant;
use gre_workloads::{KeyDist, Mix, Phase, Scenario};
use gre_workloads::{LatencySummary, PhaseResult, WorkloadBuilder, WriteRatio};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const MB: f64 = 1024.0 * 1024.0;

/// Replay a one-phase workload scenario in place on a single-threaded
/// index and return its phase.
fn in_place<I: Index<u64> + ?Sized>(scenario: &Scenario, index: &mut I) -> PhaseResult {
    Driver::new().run_in_place(scenario, index).phases.remove(0)
}

/// Print one line per request kind of `phase` that recorded samples —
/// `kind  n  p50  p99  p999  max` (latencies in µs) — so read and write
/// tails stay separable in verbose output.
fn print_phase_latency(indent: &str, phase: &PhaseResult) {
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

pub(super) fn table1_configs(_opts: &RunOpts) {
    let alex = AlexConfig::default();
    let lipp = LippConfig::default();
    let xindex = XIndexConfig::default();
    let finedex = FinedexConfig::default();
    println!("# Table 1: learned index configurations");
    println!(
        "ALEX / ALEX+      max node entries: {}  min/init/max density: {}/{}/{}",
        alex.max_node_entries, alex.min_density, alex.init_density, alex.max_density
    );
    println!(
        "ALEX-M (Fig 9)    init density: {}",
        AlexConfig::memory_matched().init_density
    );
    println!(
        "LIPP / LIPP+      density: {}  max node slots: {}  inserted/conflict ratio: {}/{}",
        lipp.density, lipp.max_node_slots, lipp.inserted_ratio, lipp.conflict_ratio
    );
    println!(
        "PGM-Index         error bound: {}",
        gre_learned::PGM_EPSILON
    );
    println!(
        "XIndex            error bound: {}  delta size: {}  group size: {}",
        xindex.error_bound, xindex.delta_size, xindex.group_size
    );
    println!(
        "FINEdex           error bound: {}  bin capacity: {}  group size: {}",
        finedex.error_bound, finedex.bin_capacity, finedex.group_size
    );
}

pub(super) fn table2_datasets(opts: &RunOpts) {
    println!("# Table 2: datasets (emulated; {} keys each)", opts.keys);
    println!(
        "{:<10} {:<45} {:>12} {:>12} {:>14}",
        "dataset", "description", "H(eps=32)", "H(eps=4096)", "1-line MSE"
    );
    for ds in Dataset::ALL_REAL {
        let h = ds.hardness(opts.keys, opts.seed, HardnessConfig::default());
        println!(
            "{:<10} {:<45} {:>12} {:>12} {:>14.3e}",
            ds.name(),
            ds.description(),
            h.local,
            h.global,
            h.single_line_mse
        );
    }
    // Figure 1: CDFs of planet and genome (16-point summaries).
    for ds in [Dataset::Planet, Dataset::Genome] {
        let keys = ds.generate(opts.keys, opts.seed);
        println!("\n# Figure 1: CDF of {}", ds.name());
        for p in 0..=16 {
            let idx = (p * (keys.len() - 1)) / 16;
            println!(
                "  {:>6.2}% of keys <= {}",
                100.0 * p as f64 / 16.0,
                keys[idx]
            );
        }
    }
}

pub(super) fn fig2_heatmap(opts: &RunOpts) {
    let hm = single_thread_heatmap(
        "Figure 2: single-threaded heatmap (best learned vs best traditional)",
        &Dataset::HEATMAP_DATASETS,
        opts,
        HeatmapMode::Inserts,
    );
    print!("{}", hm.render());
}

pub(super) fn fig4_heatmap_mt(opts: &RunOpts) {
    let hm = concurrent_heatmap(
        &format!("Figure 4: heatmap under {} threads", opts.threads),
        &Dataset::HEATMAP_DATASETS,
        opts,
        true,
    );
    print!("{}", hm.render());
}

pub(super) fn fig7_delete_heatmap(opts: &RunOpts) {
    let hm = single_thread_heatmap(
        "Figure 7: single-threaded deletion heatmap",
        &Dataset::HEATMAP_DATASETS,
        opts,
        HeatmapMode::Deletes,
    );
    print!("{}", hm.render());
}

pub(super) fn fig14_synthetic(opts: &RunOpts) {
    println!("# Figure 15: synthetic corner datasets");
    let datasets: Vec<Dataset> = SynthCorner::ALL
        .iter()
        .map(|c| Dataset::Synthetic(*c))
        .collect();
    for ds in &datasets {
        let keys = ds.generate(opts.keys, opts.seed);
        let h = DataHardness::compute_sampled(&keys, HardnessConfig::default(), 100_000);
        println!(
            "{:<20} H(eps=32) = {:<8} H(eps=4096) = {}",
            ds.name(),
            h.local,
            h.global
        );
    }
    let hm = single_thread_heatmap(
        "Figure 14: single-thread heatmap on synthetic datasets",
        &datasets,
        opts,
        HeatmapMode::Inserts,
    );
    print!("{}", hm.render());
}

pub(super) fn fig16_baseline_world(opts: &RunOpts) {
    let hm = concurrent_heatmap(
        &format!(
            "Figure 16: heatmap without ALEX+/LIPP+ ({} threads)",
            opts.threads
        ),
        &Dataset::HEATMAP_DATASETS,
        opts,
        false,
    );
    print!("{}", hm.render());
}

/// Figures 3 and 8 and Table 3 read different things off the same runs:
/// every single-threaded index `keep` admits executes the write-only
/// workload on each drill-down dataset, and `print_dataset` gets the
/// dataset's name with each index after its run.
fn write_only_drilldown(
    opts: &RunOpts,
    keep: fn(&str) -> bool,
    print_dataset: impl Fn(&str, &[Box<dyn Index<u64>>]),
) {
    let builder = WorkloadBuilder::new(opts.seed);
    for ds in Dataset::DRILLDOWN_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        let scenario = builder.insert_workload(&ds.name(), &keys, WriteRatio::WriteOnly);
        let runs: Vec<Box<dyn Index<u64>>> = single_thread_indexes()
            .into_iter()
            .filter(|index| keep(index.meta().name))
            .map(|mut index| {
                in_place(&scenario, index.as_mut());
                index
            })
            .collect();
        print_dataset(&ds.name(), &runs);
    }
}

/// Only ALEX and LIPP time their inserts, so only they have a row.
pub(super) fn fig3_breakdown(opts: &RunOpts) {
    println!("# Figure 3: insert time breakdown (write-only workload, ns per insert)");
    println!(
        "{:<10} {:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "dataset", "index", "lookup", "insert", "smo", "shift", "chain", "total"
    );
    write_only_drilldown(
        opts,
        |name| matches!(name, "ALEX" | "LIPP"),
        |ds, runs| {
            for index in runs {
                let b = index.stats().mean_insert_breakdown();
                println!(
                    "{:<10} {:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    ds,
                    index.meta().name,
                    b.lookup_ns,
                    b.insert_ns,
                    b.smo_ns,
                    b.shift_ns,
                    b.chain_ns,
                    b.total_ns()
                );
            }
        },
    );
}

pub(super) fn fig8_memory(opts: &RunOpts) {
    println!("# Figure 8: end-to-end index size (MB) after the write-only workload");
    print!("{:<10}", "dataset");
    for index in single_thread_indexes() {
        print!(" {:>12}", index.meta().name);
    }
    println!();
    write_only_drilldown(
        opts,
        |_| true,
        |ds, runs| {
            print!("{ds:<10}");
            for index in runs {
                print!(" {:>12.2}", index.memory_usage() as f64 / MB);
            }
            println!();
        },
    );
}

pub(super) fn table3_insert_stats(opts: &RunOpts) {
    println!("# Table 3: statistics per insert (write-only workload)");
    println!(
        "{:<10} {:<8} {:>16} {:>14} {:>14}",
        "dataset", "index", "nodes traversed", "keys shifted", "nodes created"
    );
    write_only_drilldown(
        opts,
        |name| matches!(name, "ALEX" | "LIPP"),
        |ds, runs| {
            for index in runs {
                let s = index.stats();
                println!(
                    "{:<10} {:<8} {:>16.2} {:>14.2} {:>14.2}",
                    ds,
                    index.meta().name,
                    s.avg_nodes_traversed_per_insert(),
                    s.avg_keys_shifted_per_insert(),
                    s.avg_nodes_created_per_insert()
                );
            }
        },
    );
}

/// Figures 5 and 6 are one sweep over different thread axes: read-only /
/// balanced / write-only throughput of every concurrent index at each
/// thread count, replayed closed-loop through the scenario `Driver` so
/// `--verbose` can report per-kind latency tails under the throughput row.
/// Only the thread counts the host's cores can run without oversubscribing
/// them are swept; each larger one prints as untestable (see
/// "Substitutions" in `docs/BENCHMARKS.md`).
fn thread_axis_sweep(opts: &RunOpts, header: &str, axis: impl IntoIterator<Item = usize>) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (axis, untestable): (Vec<usize>, Vec<usize>) = axis.into_iter().partition(|&n| n <= cores);
    if !axis.is_empty() {
        println!("{header} (thread counts {axis:?})");
        sweep(opts, &axis);
    }
    for n in untestable {
        println!("untestable: needs {n} cores, have {cores}");
    }
}

/// The sweep's rows: one per dataset, write ratio and concurrent index, with
/// one throughput column per thread count of `axis`.
fn sweep(opts: &RunOpts, axis: &[usize]) {
    let builder = WorkloadBuilder::new(opts.seed);
    for ds in Dataset::DRILLDOWN_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        for ratio in [
            WriteRatio::ReadOnly,
            WriteRatio::Balanced,
            WriteRatio::WriteOnly,
        ] {
            let workload = builder.insert_workload(&ds.name(), &keys, ratio);
            for mut index in concurrent_indexes(true) {
                let name = index.meta().name;
                let mut row = format!("{:<10} {:<6} {:<10}", ds.name(), ratio.label(), name);
                let mut tails = Vec::new();
                for &t in axis {
                    let scenario = workload.clone().closed_loop(t.max(1));
                    let phase = Driver::new()
                        .run(&scenario, index.as_mut())
                        .phases
                        .remove(0);
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

/// Figure 5: scalability over the thread counts up to `2t` of `--threads t`.
pub(super) fn fig5_scalability(opts: &RunOpts) {
    let axis = [1usize, 2, 4, 8, 16, 24, 36, 48]
        .into_iter()
        .filter(|t| *t <= opts.threads.max(1) * 2);
    thread_axis_sweep(opts, "# Figure 5: scalability, Mop/s", axis);
}

/// Figure 6: scalability across sockets. The paper interleaves memory across
/// 1–4 NUMA sockets; this reproduction sweeps the thread counts
/// `[2, t, 2t, 3t, 4t]` of `--threads t`.
pub(super) fn fig6_numa(opts: &RunOpts) {
    let t = opts.threads;
    thread_axis_sweep(
        opts,
        "# Figure 6: socket-count scaling",
        [2, t, t * 2, t * 3, t * 4],
    );
}

pub(super) fn fig9_alex_m(opts: &RunOpts) {
    let builder = WorkloadBuilder::new(opts.seed);
    println!("# Figure 9: ALEX-M (memory-matched) vs LIPP");
    println!(
        "{:<10} {:<6} {:>12} {:>12} {:>12} {:>12}",
        "dataset", "writes", "ALEX-M MB", "LIPP MB", "ALEX-M Mop/s", "LIPP Mop/s"
    );
    for ds in Dataset::DRILLDOWN_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        for ratio in WriteRatio::ALL {
            let scenario = builder.insert_workload(&ds.name(), &keys, ratio);
            let mut alex_m = Alex::<u64>::with_config(AlexConfig::memory_matched());
            let mut lipp = Lipp::<u64>::new();
            let ra = in_place(&scenario, &mut alex_m);
            let rl = in_place(&scenario, &mut lipp);
            println!(
                "{:<10} {:<6} {:>12.2} {:>12.2} {:>12.3} {:>12.3}",
                ds.name(),
                ratio.label(),
                alex_m.memory_usage() as f64 / MB,
                lipp.memory_usage() as f64 / MB,
                ra.throughput_mops(),
                rl.throughput_mops()
            );
        }
    }
}

/// Figures 10 and 11 are one table over different sides of the workload: the
/// 99.9th percentile and standard deviation of `side`'s latency under
/// `ratio`, for every index single-threaded and multi-threaded.
fn tail_latency(
    opts: &RunOpts,
    header: &str,
    ratio: WriteRatio,
    side: fn(&PhaseResult) -> LatencySummary,
) {
    let builder = WorkloadBuilder::new(opts.seed);
    println!("{header}");
    println!(
        "{:<10} {:<12} {:>9} {:>12} {:>10}",
        "dataset", "index", "threads", "p99.9 (ns)", "std (ns)"
    );
    for ds in Dataset::DRILLDOWN_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        let scenario = builder.insert_workload(&ds.name(), &keys, ratio);
        let row = |index: &str, threads: usize, phase: &PhaseResult| {
            let tail = side(phase);
            println!(
                "{:<10} {:<12} {:>9} {:>12} {:>10.0}",
                ds.name(),
                index,
                threads,
                tail.p999_ns,
                tail.std_ns
            );
        };
        for mut index in single_thread_indexes() {
            row(index.meta().name, 1, &in_place(&scenario, index.as_mut()));
        }
        let scenario = scenario.closed_loop(opts.threads);
        for mut index in concurrent_indexes(true) {
            let result = Driver::new().run(&scenario, index.as_mut());
            row(index.meta().name, opts.threads, &result.phases[0]);
        }
    }
}

pub(super) fn fig10_tail_lookup(opts: &RunOpts) {
    tail_latency(
        opts,
        "# Figure 10: lookup tail latency (read-only workload)",
        WriteRatio::ReadOnly,
        PhaseResult::read_summary,
    );
}

pub(super) fn fig11_tail_insert(opts: &RunOpts) {
    tail_latency(
        opts,
        "# Figure 11: insert tail latency (write-only workload)",
        WriteRatio::WriteOnly,
        PhaseResult::write_summary,
    );
}

/// Figure 12: throughput change when the data distribution shifts after
/// deployment (bulk load dataset X, run a balanced workload inserting
/// dataset Y rescaled into X's domain).
pub(super) fn fig12_shift(opts: &RunOpts) {
    let builder = WorkloadBuilder::new(opts.seed);
    let pairs = [
        (Dataset::Covid, Dataset::Osm),
        (Dataset::Osm, Dataset::Covid),
        (Dataset::Covid, Dataset::Genome),
        (Dataset::Genome, Dataset::Covid),
    ];
    println!("# Figure 12: throughput change (%) under distribution shift vs no shift");
    println!(
        "{:<22} {:<12} {:>14} {:>14} {:>10}",
        "shift", "index", "base Mop/s", "shift Mop/s", "change %"
    );
    for (x, y) in pairs {
        let keys_x = x.generate(opts.keys, opts.seed);
        let keys_y = y.generate(opts.keys, opts.seed + 1);
        let label = format!("{}->{}", x.name(), y.name());
        let baseline = builder.insert_workload(&x.name(), &keys_x, WriteRatio::Balanced);
        let shifted = builder.shift_workload(&label, &keys_x, &keys_y);
        // Two fresh instances of every index: one per run.
        for (mut base, mut fresh) in single_thread_indexes()
            .into_iter()
            .zip(single_thread_indexes())
        {
            let base_mops = in_place(&baseline, base.as_mut()).throughput_mops();
            let shift_mops = in_place(&shifted, fresh.as_mut()).throughput_mops();
            let change = if base_mops > 0.0 {
                (shift_mops - base_mops) / base_mops * 100.0
            } else {
                0.0
            };
            println!(
                "{:<22} {:<12} {:>14.3} {:>14.3} {:>10.1}",
                label,
                base.meta().name,
                base_mops,
                shift_mops,
                change
            );
        }
    }
}

pub(super) fn fig13_range(opts: &RunOpts) {
    let builder = WorkloadBuilder::new(opts.seed);
    let scan_sizes = [10usize, 100, 1_000, 10_000];
    println!("# Figure 13: range scan throughput (M keys/s)");
    print!("{:<10} {:<12}", "dataset", "index");
    for s in scan_sizes {
        print!(" {:>10}", s);
    }
    println!();
    for ds in Dataset::DRILLDOWN_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        for mut index in single_thread_indexes() {
            let meta = index.meta();
            if !meta.supports_range {
                continue;
            }
            let mut row = format!("{:<10} {:<12}", ds.name(), meta.name);
            for &s in &scan_sizes {
                let queries = (opts.keys / s.max(10)).clamp(20, 2_000);
                let scenario = builder.range_workload(&ds.name(), &keys, s, queries);
                let phase = in_place(&scenario, index.as_mut());
                row.push_str(&format!(" {:>10.2}", phase.scan_throughput_mkeys()));
            }
            println!("{row}");
        }
    }
}

/// Figure B (appendix): handling duplicate keys — inlining vs linked lists —
/// on a wiki-like dataset with duplicates, using ALEX+ as the base index.
///
/// Inlining stores every occurrence in the index (duplicates become adjacent
/// slots keyed by a composite of the key and a per-duplicate sequence
/// number); the linked-list variant stores one index entry per distinct key
/// and chains the remaining payloads in an out-of-place overflow list.
pub(super) fn figb_duplicates(opts: &RunOpts) {
    let keys = Dataset::Wiki.generate(opts.keys, opts.seed);
    println!(
        "# Figure B: duplicate handling on wiki ({} keys, duplicates included)",
        keys.len()
    );

    // Inline: composite key = (key << 8) | occurrence (wiki timestamps fit).
    let mut inline: AlexPlus<u64> = AlexPlus::new();
    ConcurrentIndex::bulk_load(&mut inline, &[]);
    let start = Instant::now();
    let mut occurrence: HashMap<u64, u8> = HashMap::new();
    for &k in &keys {
        let occ = occurrence.entry(k).or_insert(0);
        inline.insert((k << 8) | *occ as u64, k);
        *occ = occ.wrapping_add(1);
    }
    let inline_insert = start.elapsed();
    let start = Instant::now();
    let mut hits = 0usize;
    for &k in keys.iter().step_by(3) {
        if inline.get(k << 8).is_some() {
            hits += 1;
        }
    }
    let inline_lookup = start.elapsed();

    // Linked list: one entry per distinct key + overflow chains.
    let mut ll: AlexPlus<u64> = AlexPlus::new();
    ConcurrentIndex::bulk_load(&mut ll, &[]);
    let overflow: Mutex<HashMap<u64, Vec<u64>>> = Mutex::new(HashMap::new());
    let start = Instant::now();
    for &k in &keys {
        if !ll.insert(k, k) {
            overflow.lock().entry(k).or_default().push(k);
        }
    }
    let ll_insert = start.elapsed();
    let start = Instant::now();
    let mut ll_hits = 0usize;
    for &k in keys.iter().step_by(3) {
        if ll.get(k).is_some() {
            let guard = overflow.lock();
            ll_hits += 1 + guard.get(&k).map_or(0, Vec::len);
        }
    }
    let ll_lookup = start.elapsed();

    let mops = |n: usize, d: Duration| n as f64 / d.as_secs_f64() / 1e6;
    println!(
        "{:<22} {:>16} {:>16}",
        "variant", "insert Mop/s", "lookup Mop/s"
    );
    println!(
        "{:<22} {:>16.3} {:>16.3}",
        "ALEX+ (inline)",
        mops(keys.len(), inline_insert),
        mops(keys.len() / 3, inline_lookup)
    );
    println!(
        "{:<22} {:>16.3} {:>16.3}",
        "ALEX+-LL (linked list)",
        mops(keys.len(), ll_insert),
        mops(keys.len() / 3, ll_lookup)
    );
    let _ = (hits, ll_hits);
}

/// Figures C/D/E/F (appendix): validating the hardness metric — throughput of
/// ALEX and LIPP on the balanced workload plotted against local hardness
/// H(eps=32), global hardness H(eps=4096), and the single-regression MSE.
pub(super) fn figc_hardness_validation(opts: &RunOpts) {
    let builder = WorkloadBuilder::new(opts.seed);
    println!("# Figures C/D/E/F: hardness metrics vs balanced-workload throughput");
    println!(
        "{:<10} {:>12} {:>12} {:>14} {:>12} {:>12}",
        "dataset", "H(eps=32)", "H(eps=4096)", "1-line MSE", "ALEX Mop/s", "LIPP Mop/s"
    );
    for ds in Dataset::HEATMAP_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        let h = ds.hardness(opts.keys, opts.seed, HardnessConfig::default());
        let scenario = builder.insert_workload(&ds.name(), &keys, WriteRatio::Balanced);
        let ra = in_place(&scenario, &mut Alex::<u64>::new());
        let rl = in_place(&scenario, &mut Lipp::<u64>::new());
        println!(
            "{:<10} {:>12} {:>12} {:>14.3e} {:>12.3} {:>12.3}",
            ds.name(),
            h.local,
            h.global,
            h.single_line_mse,
            ra.throughput_mops(),
            rl.throughput_mops()
        );
    }
}

/// Figure G (appendix): YCSB A/B/C with Zipfian (0.99) request keys,
/// single-threaded and multi-threaded.
///
/// The multi-threaded sweep is expressed natively in the scenario engine —
/// YCSB *is* a one-phase scenario (a get/update `Mix` over
/// `KeyDist::Zipf { theta: 0.99 }`) — instead of pre-materializing the
/// request stream; the single-threaded rows replay the materialized
/// workload in place.
pub(super) fn figg_ycsb(opts: &RunOpts) {
    let builder = WorkloadBuilder::new(opts.seed);
    println!("# Figure G: YCSB throughput (Mop/s), Zipfian 0.99");
    println!(
        "{:<10} {:<8} {:<12} {:>9} {:>10}",
        "dataset", "ycsb", "index", "threads", "Mop/s"
    );
    for ds in Dataset::DRILLDOWN_DATASETS {
        let keys = ds.generate(opts.keys, opts.seed);
        for variant in [YcsbVariant::A, YcsbVariant::B, YcsbVariant::C] {
            let workload = builder.ycsb(&ds.name(), &keys, variant, opts.keys);
            for mut index in single_thread_indexes() {
                let r = in_place(&workload, index.as_mut());
                println!(
                    "{:<10} {:<8} {:<12} {:>9} {:>10.3}",
                    ds.name(),
                    variant.name(),
                    index.meta().name,
                    1,
                    r.throughput_mops()
                );
            }
            // The scenario mix of a YCSB variant: lookups plus in-place updates.
            let mix = match variant {
                YcsbVariant::A => Mix::ycsb_a(),
                YcsbVariant::B => Mix::ycsb_b(),
                YcsbVariant::C => Mix::read_only(),
            };
            let scenario = Scenario::new(
                &format!("{}/{}", ds.name(), variant.name()),
                opts.seed,
                &keys,
            )
            .phase(Phase::new(
                variant.name(),
                mix,
                KeyDist::Zipf { theta: 0.99 },
                opts.keys as u64,
                opts.threads,
            ));
            for mut index in concurrent_indexes(true) {
                let result = Driver::new().run(&scenario, index.as_mut());
                let phase = result.phases.into_iter().next().expect("one phase");
                println!(
                    "{:<10} {:<8} {:<12} {:>9} {:>10.3}",
                    ds.name(),
                    variant.name(),
                    index.meta().name,
                    opts.threads,
                    phase.throughput_mops()
                );
                if opts.verbose {
                    print_phase_latency("      ", &phase);
                }
            }
        }
    }
}
