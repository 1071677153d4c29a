//! # gre-learned
//!
//! From-scratch Rust implementations of the updatable learned indexes the
//! paper evaluates (§2, Table 1):
//!
//! * [`Alex`] — ALEX (gapped arrays, SMOs on a size budget and a density
//!   bound) and the ALEX-M memory-matched configuration of Figure 9.
//! * [`Lipp`] — LIPP (collision-driven chaining, unified nodes, per-node
//!   statistics and subtree rebuilds).
//! * [`DynamicPgm`] — the PGM-Index: an LSM of static PGMs.
//! * [`XIndex`] — XIndex (group models + per-group delta, two-phase merge).
//! * [`Finedex`] — FINEdex (per-record level bins).
//!
//!   Both are one private group index (`groups.rs`: routing, bulk-load
//!   chunking, main arrays with a linear model each, retraining, range walk)
//!   with a delta policy each.
//! * [`AlexPlus`] and [`LippPlus`] — the concurrent derivatives the paper
//!   contributes.
//!
//! Every concurrent index here — ALEX+, LIPP+, XIndex and FINEdex — is
//! `gre_core::Partitioned` over a single-threaded index (LIPP+ wraps it to
//! add its shared path statistics).

mod alex;
mod concurrent;
mod finedex;
mod groups;
mod lipp;
mod pgm;
mod xindex;

pub use alex::{Alex, AlexConfig};
pub use concurrent::{AlexPlus, LippPlus};
pub use finedex::{Finedex, FinedexConfig, FinedexGroups};
pub use lipp::{Lipp, LippConfig};
pub use pgm::{DynamicPgm, PGM_EPSILON};
pub use xindex::{XIndex, XIndexConfig, XIndexGroups};
