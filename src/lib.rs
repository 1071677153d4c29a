//! Umbrella crate re-exporting the GRE-rs workspace.
pub use gre_core as core;
pub use gre_datasets as datasets;
pub use gre_learned as learned;
pub use gre_pla as pla;
pub use gre_shard as shard;
pub use gre_traditional as traditional;
pub use gre_workloads as workloads;
