//! The data-workload heatmap of Figures 2, 4, 7, 14 and 16.
//!
//! Each cell of the heatmap is one (dataset, write-ratio) combination; its
//! value is the throughput ratio between the best learned index and the best
//! traditional index (positive: a traditional index wins, negative: a learned
//! index wins — matching the paper's colour convention).

use crate::registry::{concurrent_indexes, single_thread_indexes};
use crate::runopts::RunOpts;
use gre_datasets::Dataset;
use gre_pla::{DataHardness, HardnessConfig};
use gre_workloads::{Driver, Scenario, WorkloadBuilder, WriteRatio};

/// One heatmap cell.
#[derive(Debug, Clone)]
pub(crate) struct HeatmapCell {
    dataset: String,
    write_ratio: String,
    hardness_local: usize,
    hardness_global: usize,
    best_learned: String,
    best_learned_mops: f64,
    best_traditional: String,
    best_traditional_mops: f64,
    /// `best_traditional / best_learned` if the traditional index wins
    /// (positive), `-(best_learned / best_traditional)` otherwise (negative),
    /// matching the red/blue convention of the paper.
    ratio: f64,
}

/// A full heatmap.
#[derive(Debug, Clone, Default)]
pub(crate) struct Heatmap {
    title: String,
    cells: Vec<HeatmapCell>,
}

impl Heatmap {
    /// Fraction of cells won by a learned index (Message 1: >80% single-core).
    pub(crate) fn learned_win_fraction(&self) -> f64 {
        if self.cells.is_empty() {
            return 0.0;
        }
        self.cells.iter().filter(|c| c.ratio < 0.0).count() as f64 / self.cells.len() as f64
    }

    /// Render as an aligned text table.
    pub(crate) fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.title));
        out.push_str(&format!(
            "{:<18} {:>6} {:>10} {:>10} {:>12} {:>10} {:>14} {:>10} {:>8}\n",
            "dataset",
            "writes",
            "H(eps=32)",
            "H(eps=4096)",
            "best-learned",
            "Mop/s",
            "best-trad",
            "Mop/s",
            "ratio"
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<18} {:>6} {:>10} {:>10} {:>12} {:>10.3} {:>14} {:>10.3} {:>8.2}\n",
                c.dataset,
                c.write_ratio,
                c.hardness_local,
                c.hardness_global,
                c.best_learned,
                c.best_learned_mops,
                c.best_traditional,
                c.best_traditional_mops,
                c.ratio
            ));
        }
        out.push_str(&format!(
            "learned indexes win {:.0}% of the data-workload space\n",
            self.learned_win_fraction() * 100.0
        ));
        out
    }
}

/// Which operation mix the heatmap varies (insert- or delete-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeatmapMode {
    Inserts,
    Deletes,
}

/// One contender's result in one cell: name, whether it is learned,
/// throughput in Mop/s.
type Contender = (&'static str, bool, f64);

/// Compute a single-threaded heatmap over `datasets` × the five write ratios.
pub(crate) fn single_thread_heatmap(
    title: &str,
    datasets: &[Dataset],
    opts: &RunOpts,
    mode: HeatmapMode,
) -> Heatmap {
    heatmap(title, datasets, opts, mode, |scenario| {
        single_thread_indexes()
            .into_iter()
            // Skip indexes that cannot run this workload.
            .filter(|index| mode == HeatmapMode::Inserts || index.meta().supports_delete)
            .map(|mut index| {
                let result = Driver::new().run_in_place(scenario, index.as_mut());
                let meta = index.meta();
                (meta.name, meta.learned, result.phases[0].throughput_mops())
            })
            .collect()
    })
}

/// Compute a multi-threaded heatmap with `opts.threads` worker threads.
pub(crate) fn concurrent_heatmap(
    title: &str,
    datasets: &[Dataset],
    opts: &RunOpts,
    include_parallelized: bool,
) -> Heatmap {
    heatmap(title, datasets, opts, HeatmapMode::Inserts, |scenario| {
        let scenario = scenario.clone().closed_loop(opts.threads);
        concurrent_indexes(include_parallelized)
            .into_iter()
            .map(|mut index| {
                let result = Driver::new().run(&scenario, index.as_mut());
                let meta = index.meta();
                (meta.name, meta.learned, result.phases[0].throughput_mops())
            })
            .collect()
    })
}

/// The cell loop both heatmaps share: per dataset its hardness, per write
/// ratio one workload scenario, and per cell the best learned and best
/// traditional of the contenders `run` measured on it.
fn heatmap(
    title: &str,
    datasets: &[Dataset],
    opts: &RunOpts,
    mode: HeatmapMode,
    run: impl Fn(&Scenario) -> Vec<Contender>,
) -> Heatmap {
    let builder = WorkloadBuilder::new(opts.seed);
    let mut cells = Vec::new();
    for dataset in datasets {
        let keys = dataset.generate(opts.keys, opts.seed);
        let mut dedup = keys.clone();
        dedup.dedup();
        let hardness = DataHardness::compute_sampled(&dedup, HardnessConfig::default(), 100_000);
        for ratio in WriteRatio::ALL {
            let scenario = match mode {
                HeatmapMode::Inserts => builder.insert_workload(&dataset.name(), &keys, ratio),
                HeatmapMode::Deletes => {
                    builder.delete_workload(&dataset.name(), &keys, ratio.write_fraction())
                }
            };
            let mut best = [("-", 0.0), ("-", 0.0)];
            for (name, learned, mops) in run(&scenario) {
                let slot = &mut best[usize::from(!learned)];
                if mops > slot.1 {
                    *slot = (name, mops);
                }
            }
            cells.push(make_cell(dataset, ratio, &hardness, best));
        }
    }
    Heatmap {
        title: title.to_string(),
        cells,
    }
}

fn make_cell(
    dataset: &Dataset,
    ratio: WriteRatio,
    hardness: &DataHardness,
    best: [(&str, f64); 2],
) -> HeatmapCell {
    let [(learned_name, learned_mops), (trad_name, trad_mops)] = best;
    let ratio_value = if learned_mops >= trad_mops {
        if trad_mops > 0.0 {
            -(learned_mops / trad_mops)
        } else {
            -f64::INFINITY
        }
    } else if learned_mops > 0.0 {
        trad_mops / learned_mops
    } else {
        f64::INFINITY
    };
    HeatmapCell {
        dataset: dataset.name(),
        write_ratio: ratio.label().to_string(),
        hardness_local: hardness.local,
        hardness_global: hardness.global,
        best_learned: learned_name.to_string(),
        best_learned_mops: learned_mops,
        best_traditional: trad_name.to_string(),
        best_traditional_mops: trad_mops,
        ratio: ratio_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_heatmap_runs_end_to_end() {
        let opts = RunOpts {
            keys: 3_000,
            threads: 2,
            seed: 1,
            quick: true,
            verbose: false,
        };
        let hm = single_thread_heatmap("test", &[Dataset::Covid], &opts, HeatmapMode::Inserts);
        assert_eq!(hm.cells.len(), WriteRatio::ALL.len());
        for c in &hm.cells {
            assert!(c.best_learned_mops > 0.0);
            assert!(c.best_traditional_mops > 0.0);
            assert!(c.ratio.is_finite());
        }
        let rendered = hm.render();
        assert!(rendered.contains("covid"));
        assert!((0.0..=1.0).contains(&hm.learned_win_fraction()));
    }

    #[test]
    fn tiny_concurrent_heatmap_runs() {
        let opts = RunOpts {
            keys: 2_000,
            threads: 2,
            seed: 1,
            quick: true,
            verbose: false,
        };
        let hm = concurrent_heatmap("test-mt", &[Dataset::Stack], &opts, true);
        assert_eq!(hm.cells.len(), 5);
        let hm_without = concurrent_heatmap("baseline", &[Dataset::Stack], &opts, false);
        assert_eq!(hm_without.cells.len(), 5);
    }
}
