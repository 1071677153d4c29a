//! # gre-datasets
//!
//! Synthetic emulations of the datasets of Table 2.
//!
//! The paper benchmarks ten real datasets (plus four more "easy" ones that
//! are omitted from the heatmaps). The original data files are hundreds of
//! millions of keys downloaded from SOSD and other archives; this crate
//! substitutes *shape-faithful synthetic emulations*: each generator
//! reproduces the published CDF characteristics that matter to the paper's
//! analysis (local and global PLA hardness, duplicate structure, outliers)
//! so the relative hardness ordering of the datasets — and therefore which
//! index wins where — is preserved. The substitution is listed with the
//! others under "Substitutions" in `docs/BENCHMARKS.md`.
//!
//! ```
//! use gre_datasets::Dataset;
//!
//! let keys = Dataset::Covid.generate(10_000, 42);
//! assert_eq!(keys.len(), 10_000);
//! assert!(keys.windows(2).all(|w| w[0] < w[1]));
//! ```

mod registry;
mod shapes;

pub use registry::Dataset;
