//! Streaming ε-approximate piecewise linear approximation.
//!
//! Definition (ε-approximate, §3.2): a model `F` for an array `D = [k₁ … kₙ]`
//! with ranks `rᵢ` is ε-approximate iff `|F(kᵢ) − rᵢ| ≤ ε` for all `i`. The
//! PLA of `D` is the minimal sequence of segments such that each segment
//! admits an ε-approximate linear model. The number of segments is the data
//! hardness `H`.
//!
//! We use the classical on-line segmentation of O'Rourke (1981), also used by
//! the PGM-Index: while scanning keys in order, maintain the feasible cone of
//! slopes through the segment's origin that keeps every seen rank within ±ε;
//! when a new point empties the cone, close the segment and start a new one
//! at that point. The algorithm runs in `O(n)` time and `O(1)` working space
//! per segment and produces the minimum number of segments among all
//! partitions whose segments start at data points, which is the quantity the
//! paper uses as hardness.

use crate::model::LinearModel;
use gre_core::Key;

/// One segment of a piecewise linear approximation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaSegment {
    /// Index (rank) of the first key covered by this segment.
    pub start_rank: usize,
    /// Number of keys covered.
    pub len: usize,
    /// First key covered (model-space value).
    pub first_key: f64,
    /// The ε-approximate model for this segment, expressed over model-space
    /// keys and *global* ranks (i.e. `model.predict(key) ≈ rank`).
    pub model: LinearModel,
}

impl PlaSegment {
    /// Rank one past the last key covered.
    pub fn end_rank(&self) -> usize {
        self.start_rank + self.len
    }
}

/// Internal builder maintaining the feasible slope cone for one segment.
struct ConeBuilder {
    origin_x: f64,
    origin_y: f64,
    start_rank: usize,
    len: usize,
    slope_low: f64,
    slope_high: f64,
}

impl ConeBuilder {
    fn new(x: f64, rank: usize) -> Self {
        ConeBuilder {
            origin_x: x,
            origin_y: rank as f64,
            start_rank: rank,
            len: 1,
            slope_low: f64::NEG_INFINITY,
            slope_high: f64::INFINITY,
        }
    }

    /// Try to extend with the next point `(x, rank)`. Returns `false` if the
    /// feasible cone would become empty (the caller must start a new
    /// segment at this point).
    fn try_add(&mut self, x: f64, rank: usize, eps: f64) -> bool {
        let dx = x - self.origin_x;
        let dy = rank as f64 - self.origin_y;
        if dx <= 0.0 {
            // Duplicate key in model space: representable as long as the rank
            // difference stays within 2ε of something the cone can absorb at
            // dx = 0, which only holds when dy ≤ ε (a vertical jump cannot be
            // fit by any finite-slope line beyond the error bound).
            if dy.abs() <= eps {
                self.len += 1;
                return true;
            }
            return false;
        }
        let lo = (dy - eps) / dx;
        let hi = (dy + eps) / dx;
        let new_low = self.slope_low.max(lo);
        let new_high = self.slope_high.min(hi);
        if new_low > new_high {
            return false;
        }
        self.slope_low = new_low;
        self.slope_high = new_high;
        self.len += 1;
        true
    }

    fn finish(&self) -> PlaSegment {
        // Pick the midpoint of the final cone; any slope in the cone is
        // ε-approximate. For singleton segments fall back to slope 0.
        let slope = if self.slope_low.is_finite() && self.slope_high.is_finite() {
            0.5 * (self.slope_low + self.slope_high)
        } else if self.slope_high.is_finite() {
            self.slope_high
        } else if self.slope_low.is_finite() {
            self.slope_low
        } else {
            0.0
        };
        let intercept = self.origin_y - slope * self.origin_x;
        PlaSegment {
            start_rank: self.start_rank,
            len: self.len,
            first_key: self.origin_x,
            model: LinearModel::new(slope, intercept),
        }
    }
}

/// Compute the ε-approximate PLA of `keys` (which must be sorted ascending).
///
/// Returns the segment list; `segments.len()` is the hardness `H(ε)`.
pub fn optimal_pla<K: Key>(keys: &[K], eps: u64) -> Vec<PlaSegment> {
    optimal_pla_f64(keys.iter().map(|k| k.to_model_input()), eps as f64)
}

/// PLA over already-converted model-space key values.
pub fn optimal_pla_f64<I: IntoIterator<Item = f64>>(keys: I, eps: f64) -> Vec<PlaSegment> {
    let mut segments = Vec::new();
    let mut builder: Option<ConeBuilder> = None;
    for (rank, x) in keys.into_iter().enumerate() {
        match builder.as_mut() {
            None => builder = Some(ConeBuilder::new(x, rank)),
            Some(b) => {
                if !b.try_add(x, rank, eps) {
                    segments.push(b.finish());
                    builder = Some(ConeBuilder::new(x, rank));
                }
            }
        }
    }
    if let Some(b) = builder {
        segments.push(b.finish());
    }
    segments
}

/// Number of ε-approximate segments (the hardness value `H_PLA(ε)`).
pub(crate) fn segment_count<K: Key>(keys: &[K], eps: u64) -> usize {
    optimal_pla(keys, eps).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Verify that a segmentation is ε-approximate for the given keys.
    fn validate_pla<K: Key>(keys: &[K], segments: &[PlaSegment], eps: u64) -> bool {
        let eps = eps as f64;
        let mut covered = 0usize;
        for seg in segments {
            if seg.start_rank != covered {
                return false;
            }
            for rank in seg.start_rank..seg.end_rank() {
                let Some(k) = keys.get(rank) else {
                    return false;
                };
                let predicted = seg.model.predict(*k);
                // Allow a whisker of floating-point slack on top of ε.
                if (predicted - rank as f64).abs() > eps + 1e-6 {
                    return false;
                }
            }
            covered = seg.end_rank();
        }
        covered == keys.len()
    }

    fn ranks_within_eps(keys: &[u64], eps: u64) {
        let segs = optimal_pla(keys, eps);
        assert!(validate_pla(keys, &segs, eps), "PLA violates ε = {eps}");
    }

    #[test]
    fn linear_data_needs_one_segment() {
        let keys: Vec<u64> = (0..10_000).map(|i| i * 7 + 3).collect();
        let segs = optimal_pla(&keys, 8);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, keys.len());
        ranks_within_eps(&keys, 8);
    }

    #[test]
    fn piecewise_data_needs_multiple_segments() {
        // Two regimes with very different densities force at least 2 segments
        // at a tight epsilon.
        let mut keys: Vec<u64> = (0..5_000u64).collect();
        keys.extend((0..5_000u64).map(|i| 1_000_000 + i * 10_000));
        let tight = optimal_pla(&keys, 2);
        let loose = optimal_pla(&keys, 4096);
        assert!(tight.len() >= 2);
        assert!(loose.len() <= tight.len());
        ranks_within_eps(&keys, 2);
        ranks_within_eps(&keys, 4096);
    }

    #[test]
    fn hardness_decreases_with_epsilon() {
        // A bumpy quadratic-ish distribution.
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| i * 100 + (i % 37) * (i % 53))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        let h8 = segment_count(&sorted, 8);
        let h32 = segment_count(&sorted, 32);
        let h4096 = segment_count(&sorted, 4096);
        assert!(h8 >= h32);
        assert!(h32 >= h4096);
        assert!(h4096 >= 1);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u64> = vec![];
        assert!(optimal_pla(&empty, 32).is_empty());
        let one = vec![5u64];
        let segs = optimal_pla(&one, 32);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].len, 1);
        assert!(validate_pla(&one, &segs, 32));
        let two = vec![5u64, 1_000_000u64];
        let segs = optimal_pla(&two, 0);
        assert!(validate_pla(&two, &segs, 0));
    }

    #[test]
    fn duplicate_keys_are_absorbed_within_eps() {
        let mut keys = vec![10u64; 5];
        keys.extend([20u64; 5]);
        // With eps = 8 the 5 duplicates (rank spread 4) fit in one segment.
        let segs = optimal_pla(&keys, 8);
        assert!(validate_pla(&keys, &segs, 8));
        // With eps = 1 the duplicates force extra segments.
        let tight = optimal_pla(&keys, 1);
        assert!(tight.len() > segs.len());
    }

    #[test]
    fn segments_partition_the_input() {
        let keys: Vec<u64> = (0..3000u64).map(|i| i * i).collect();
        let segs = optimal_pla(&keys, 16);
        let total: usize = segs.iter().map(|s| s.len).sum();
        assert_eq!(total, keys.len());
        for w in segs.windows(2) {
            assert_eq!(w[0].end_rank(), w[1].start_rank);
            assert!(w[0].first_key <= w[1].first_key);
        }
    }
}
