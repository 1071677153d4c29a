//! # gre-bench
//!
//! The GRE benchmark harness: the index registries (two arrays of
//! constructors; each index names itself through `meta()`), the heatmap
//! machinery of Figures 2/4/7/14/16, and the figure table
//! ([`figures::FIGURES`]) the one `gre-figs` binary dispatches over — a row
//! per table/figure of the paper, named after it (`fig2_heatmap` …
//! `table3_insert_stats`).
//!
//! Performance is measured by the layer-tax ledger (`BENCHMARK.json` +
//! `benchmark/` at the repo root), not by this crate; where the code under
//! test departs from the paper's setup is listed under "Substitutions" in
//! `docs/BENCHMARKS.md`.

pub mod figures;
pub mod heatmap;
pub mod overhead;
pub mod registry;
pub mod report;
pub mod runopts;

pub use heatmap::{Heatmap, HeatmapCell};
pub use registry::{concurrent_indexes, single_thread_indexes};
pub use runopts::RunOpts;
