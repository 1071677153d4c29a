//! # gre-pla
//!
//! The data-hardness machinery of the paper (§3.2, §7, Appendix C/D):
//!
//! * [`LinearModel`] — linear models mapping keys to positions, and
//!   [`window_partition_point`], the last-mile search every learned index
//!   here runs around a model's prediction.
//! * [`optimal_pla`] — streaming ε-approximate piecewise linear approximation, the
//!   linear-time segmentation algorithm used both to *measure* hardness and
//!   by the PGM-Index to *build* its levels.
//! * [`DataHardness`] — the two-dimensional hardness metric
//!   `H_PLA(ε=32)` (local) / `H_PLA(ε=4096)` (global), plus the
//!   single-regression MSE alternative the appendix compares against.
//! * [`generate_corner`] — the synthetic hardness-driven data generator of §7
//!   (per-segment random linear models, corner datasets of Figure 15).

mod hardness;
mod model;
mod pla;
mod synth;

pub use hardness::{DataHardness, HardnessConfig};
pub use model::{window_partition_point, LinearModel};
pub use pla::{optimal_pla, optimal_pla_f64, PlaSegment};
pub use synth::{generate_corner, SynthCorner};
