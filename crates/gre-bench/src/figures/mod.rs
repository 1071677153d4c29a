//! The figure table: every table and figure this repo reproduces is one row
//! of [`FIGURES`], and the `gre-figs` binary runs the row its first argument
//! names. `paper` holds the paper's own tables and figures; the `figs_*`
//! modules drill the serving and observability tiers.

mod figs_observability;
mod figs_scenarios;
mod figs_shard_scalability;
mod paper;

use crate::RunOpts;
use gre_core::ConcurrentIndex;
use gre_shard::ShardedIndex;
use gre_telemetry::Telemetry;
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One runnable table or figure.
pub struct Figure {
    /// What `gre-figs` takes as its first argument.
    pub name: &'static str,
    /// One line on what the run prints.
    pub title: &'static str,
    pub run: fn(&RunOpts),
}

/// Every figure, in the paper's order, the serving-tier drills last.
pub static FIGURES: &[Figure] = &[
    Figure {
        name: "table1_configs",
        title: "Table 1: configurations of the evaluated learned indexes",
        run: paper::table1_configs,
    },
    Figure {
        name: "table2_datasets",
        title: "Table 2 + Figure 1: the datasets, their CDF shapes and hardness coordinates",
        run: paper::table2_datasets,
    },
    Figure {
        name: "fig2_heatmap",
        title: "Figure 2: single-threaded throughput heatmap over datasets x write ratios",
        run: paper::fig2_heatmap,
    },
    Figure {
        name: "fig3_breakdown",
        title:
            "Figure 3: time breakdown of ALEX and LIPP inserts (lookup, insert, smo, shift, chain)",
        run: paper::fig3_breakdown,
    },
    Figure {
        name: "table3_insert_stats",
        title: "Table 3: nodes traversed, keys shifted, nodes created per insert (ALEX, LIPP)",
        run: paper::table3_insert_stats,
    },
    Figure {
        name: "fig4_heatmap_mt",
        title: "Figure 4: throughput heatmap under multi-threaded execution",
        run: paper::fig4_heatmap_mt,
    },
    Figure {
        name: "fig5_scalability",
        title: "Figure 5: read-only / balanced / write-only throughput while scaling threads",
        run: paper::fig5_scalability,
    },
    Figure {
        name: "fig6_numa",
        title: "Figure 6: throughput while scaling past one socket's worth of threads",
        run: paper::fig6_numa,
    },
    Figure {
        name: "fig7_delete_heatmap",
        title: "Figure 7: single-threaded throughput heatmap under deletion workloads",
        run: paper::fig7_delete_heatmap,
    },
    Figure {
        name: "fig8_memory",
        title: "Figure 8: end-to-end memory space after the write-only workload",
        run: paper::fig8_memory,
    },
    Figure {
        name: "fig9_alex_m",
        title:
            "Figure 9: ALEX-M (fill factor lowered to LIPP's memory) vs LIPP across write ratios",
        run: paper::fig9_alex_m,
    },
    Figure {
        name: "fig10_tail_lookup",
        title: "Figure 10: p99.9 and standard deviation of lookup latency, 1 and T threads",
        run: paper::fig10_tail_lookup,
    },
    Figure {
        name: "fig11_tail_insert",
        title: "Figure 11: p99.9 and standard deviation of insert latency, 1 and T threads",
        run: paper::fig11_tail_insert,
    },
    Figure {
        name: "fig12_shift",
        title: "Figure 12: throughput change when the distribution shifts after deployment",
        run: paper::fig12_shift,
    },
    Figure {
        name: "fig13_range",
        title: "Figure 13: range-query throughput (M keys/s) for scan sizes 10 to 10,000",
        run: paper::fig13_range,
    },
    Figure {
        name: "fig14_synthetic",
        title: "Figures 14/15: synthetic hardness-driven datasets and their heatmap",
        run: paper::fig14_synthetic,
    },
    Figure {
        name: "fig16_baseline_world",
        title: "Figure 16: \"the world without this study\", Figure 4 without ALEX+ / LIPP+",
        run: paper::fig16_baseline_world,
    },
    Figure {
        name: "figb_duplicates",
        title: "Figure B: duplicate keys, inlined vs linked lists, on ALEX+",
        run: paper::figb_duplicates,
    },
    Figure {
        name: "figc_hardness_validation",
        title: "Figures C/D/E/F: hardness metrics vs balanced-workload throughput",
        run: paper::figc_hardness_validation,
    },
    Figure {
        name: "figg_ycsb",
        title: "Figure G: YCSB A/B/C with Zipfian request keys",
        run: paper::figg_ycsb,
    },
    Figure {
        name: "figs_shard_scalability",
        title: "Serving: sharded(backend, S) over shard count x thread count x path",
        run: figs_shard_scalability::run,
    },
    Figure {
        name: "figs_scenarios",
        title: "Serving: multi-phase scenario scripts, closed- and open-loop",
        run: figs_scenarios::run,
    },
    Figure {
        name: "figs_observability",
        title: "Observability: every telemetry surface on the shifting-hotspot scenario",
        run: figs_observability::run,
    },
];

/// The closed-loop script `figs_scenarios` and `figs_observability` serve:
/// three read-mostly phases of `phase_ops` operations whose hot window (5%
/// of the key space taking 90% of the accesses) drifts across the key
/// space, start fraction 0.05 → 0.45 → 0.85.
fn shifting_hotspot_scenario(seed: u64, keys: &[u64], phase_ops: u64, threads: usize) -> Scenario {
    let mut scenario = Scenario::new("shifting-hotspot", seed, keys);
    for start in [0.05, 0.45, 0.85] {
        scenario = scenario.phase(Phase::new(
            &format!("hot@{start}"),
            Mix::read_mostly(10),
            KeyDist::Hotspot {
                start,
                span: 0.05,
                hot_access: 0.9,
            },
            Span::Ops(phase_ops),
            Pacing::ClosedLoop { threads },
        ));
    }
    scenario
}

/// The header label of a sharded stack: the bare backend name at 1 shard,
/// `sharded(NAME,N)` otherwise.
fn sharded_label<B: ConcurrentIndex<u64>>(index: &ShardedIndex<u64, B>) -> String {
    let name = index.meta().name;
    match index.num_shards() {
        1 => name.to_string(),
        n => format!("sharded({name},{n})"),
    }
}

/// The "live dashboard" of `figs_observability`: a
/// thread that only ever reads the shared registry, concurrently with the
/// serving hot path. Every `window` until `stop` is set it samples each
/// shard's completed-op counter; joined, it returns the per-window deltas.
fn spawn_shard_monitor(
    telemetry: Arc<Telemetry>,
    stop: Arc<AtomicBool>,
    window: Duration,
) -> JoinHandle<Vec<Vec<u64>>> {
    std::thread::spawn(move || {
        let shards = telemetry.metrics().shard_count();
        let mut last = vec![0u64; shards];
        let mut series: Vec<Vec<u64>> = Vec::new();
        while !stop.load(Ordering::Acquire) {
            std::thread::sleep(window);
            let deltas: Vec<u64> = (0..shards)
                .map(|s| {
                    let total = telemetry.metrics().shard(s).ops_completed();
                    let d = total - last[s];
                    last[s] = total;
                    d
                })
                .collect();
            series.push(deltas);
        }
        series
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_unique_and_complete() {
        assert_eq!(FIGURES.len(), 23);
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(!f.name.is_empty() && !f.title.is_empty());
            assert!(
                FIGURES[..i].iter().all(|g| g.name != f.name),
                "duplicate row {}",
                f.name
            );
        }
    }

    #[test]
    fn sharded_labels_name_backend_shards_and_scheme() {
        use gre_learned::LippPlus;
        use gre_shard::Partitioner;
        let label = |p: Partitioner<u64>| {
            sharded_label(&ShardedIndex::from_factory(p, |_| LippPlus::<u64>::new()))
        };
        assert_eq!(label(Partitioner::range(4)), "sharded(LIPP+,4)");
        assert_eq!(label(Partitioner::range(1)), "LIPP+");
    }

    /// The `figs_*` rows need real time spans and stay release-mode CI
    /// smokes; every other row finishes at this size in a debug build.
    #[test]
    fn every_paper_row_runs() {
        let opts = RunOpts {
            keys: 1_000,
            threads: 2,
            quick: true,
            ..RunOpts::default()
        };
        for figure in FIGURES.iter().filter(|f| !f.name.starts_with("figs_")) {
            (figure.run)(&opts);
        }
    }
}
