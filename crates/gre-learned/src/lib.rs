//! # gre-learned
//!
//! From-scratch Rust implementations of the updatable learned indexes the
//! paper evaluates (§2, Table 1):
//!
//! * [`alex`] — ALEX (gapped arrays, SMOs on a size budget and a density
//!   bound) and the ALEX-M memory-matched configuration of Figure 9.
//! * [`lipp`] — LIPP (collision-driven chaining, unified nodes, per-node
//!   statistics and subtree rebuilds).
//! * [`pgm`] — the static PGM-Index and its LSM-style dynamic variant.
//! * [`xindex`] — XIndex (group models + per-group delta, two-phase merge).
//! * [`finedex`] — FINEdex (per-record level bins).
//! * [`concurrent`] — ALEX+ and LIPP+, the concurrent derivatives the paper
//!   contributes, on `gre_core::Partitioned`.

pub mod alex;
pub mod concurrent;
pub mod finedex;
pub mod lipp;
pub mod pgm;
pub mod xindex;

pub use alex::{Alex, AlexConfig};
pub use concurrent::{AlexPlus, LippPlus};
pub use finedex::{Finedex, FinedexConfig};
pub use lipp::{Lipp, LippConfig};
pub use pgm::{DynamicPgm, StaticPgm};
pub use xindex::{XIndex, XIndexConfig};
