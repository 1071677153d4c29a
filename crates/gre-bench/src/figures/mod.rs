//! The figure table: every table and figure this repo reproduces is one row
//! of [`FIGURES`], and the `gre-figs` binary runs the row its first argument
//! names. Each row's function lives in `paper`.

mod paper;

use crate::RunOpts;

/// One runnable table or figure.
pub struct Figure {
    /// What `gre-figs` takes as its first argument.
    pub name: &'static str,
    /// One line on what the run prints.
    pub title: &'static str,
    pub run: fn(&RunOpts),
}

/// Every figure, in the paper's order.
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
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_names_are_unique_and_complete() {
        assert_eq!(FIGURES.len(), 20);
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(!f.name.is_empty() && !f.title.is_empty());
            assert!(
                FIGURES[..i].iter().all(|g| g.name != f.name),
                "duplicate row {}",
                f.name
            );
        }
    }

    /// Every row finishes at this size in a debug build.
    #[test]
    fn every_paper_row_runs() {
        let opts = RunOpts {
            keys: 1_000,
            threads: 2,
            quick: true,
            ..RunOpts::default()
        };
        for figure in FIGURES {
            (figure.run)(&opts);
        }
    }
}
