//! Synthetic hardness-driven data generator (§7).
//!
//! The paper's generator samples keys from a set of random linear models:
//! for each segment a positive slope `m` and intercept `b` are drawn, and for
//! a rank `y` the key is sampled uniformly from
//! `[max((y − ε − b)/m, prev + 1), (y + ε − b)/m]`, generating keys
//! incrementally from rank 1 to rank N. Segments are generated recursively:
//! first global segments (with a large ε), then local segments inside each
//! global segment (with a small ε), so the resulting dataset lands at a
//! chosen coordinate of the (local, global) hardness plane. The corner
//! datasets of Figure 15 (`syn_ghard_leasy`, `syn_geasy_lhard`,
//! `syn_ghard_lhard`) are provided as named presets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Specification of a synthetic dataset in the hardness plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SyntheticSpec {
    /// Total number of keys to generate.
    num_keys: usize,
    /// Number of global segments (drives `H_PLA(ε=4096)`).
    global_segments: usize,
    /// Number of local segments inside each global segment
    /// (drives `H_PLA(ε=32)`).
    local_segments_per_global: usize,
    /// Error bound used when sampling keys inside a local segment.
    local_eps: u64,
    /// How violently the slope changes between global segments; larger
    /// values produce sharper CDF deflections (planet-like shapes).
    global_slope_spread: f64,
    /// RNG seed for reproducibility.
    seed: u64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            num_keys: 200_000,
            global_segments: 4,
            local_segments_per_global: 4,
            local_eps: 32,
            global_slope_spread: 100.0,
            seed: 42,
        }
    }
}

/// The "hard corner" presets of Figure 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthCorner {
    /// Globally hard, locally easy: many global segments, smooth inside each.
    GlobalHardLocalEasy,
    /// Globally easy, locally hard: a single global trend with many bumpy
    /// local segments.
    GlobalEasyLocalHard,
    /// Hard on both axes.
    GlobalHardLocalHard,
    /// Easy on both axes (a near-linear baseline).
    Easy,
}

impl SynthCorner {
    /// All corners in display order.
    pub const ALL: [SynthCorner; 4] = [
        SynthCorner::Easy,
        SynthCorner::GlobalHardLocalEasy,
        SynthCorner::GlobalEasyLocalHard,
        SynthCorner::GlobalHardLocalHard,
    ];

    /// Name used in the paper's Figure 14 heatmap labels.
    pub fn name(&self) -> &'static str {
        match self {
            SynthCorner::GlobalHardLocalEasy => "syn_ghard_leasy",
            SynthCorner::GlobalEasyLocalHard => "syn_geasy_lhard",
            SynthCorner::GlobalHardLocalHard => "syn_ghard_lhard",
            SynthCorner::Easy => "syn_easy",
        }
    }

    /// Build a spec positioned at this corner with `num_keys` keys.
    pub(crate) fn spec(&self, num_keys: usize, seed: u64) -> SyntheticSpec {
        match self {
            SynthCorner::Easy => SyntheticSpec {
                num_keys,
                global_segments: 1,
                local_segments_per_global: 1,
                local_eps: 32,
                global_slope_spread: 1.0,
                seed,
            },
            SynthCorner::GlobalHardLocalEasy => SyntheticSpec {
                num_keys,
                global_segments: 48,
                local_segments_per_global: 1,
                local_eps: 32,
                global_slope_spread: 5_000.0,
                seed,
            },
            SynthCorner::GlobalEasyLocalHard => SyntheticSpec {
                num_keys,
                global_segments: 1,
                local_segments_per_global: 512,
                local_eps: 8,
                global_slope_spread: 1.0,
                seed,
            },
            SynthCorner::GlobalHardLocalHard => SyntheticSpec {
                num_keys,
                global_segments: 48,
                local_segments_per_global: 64,
                local_eps: 8,
                global_slope_spread: 5_000.0,
                seed,
            },
        }
    }
}

/// Generate a sorted, deduplicated key array following `spec`.
///
/// The resulting array is strictly ascending (suitable for bulk load) and has
/// exactly `spec.num_keys` keys unless the key domain saturates (only
/// possible with absurd parameter choices), in which case generation stops at
/// the domain boundary.
pub(crate) fn generate(spec: &SyntheticSpec) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let globals = spec.global_segments.max(1);
    let locals = spec.local_segments_per_global.max(1);
    let keys_per_segment = (spec.num_keys / (globals * locals)).max(1);
    let eps = spec.local_eps.max(1) as f64;
    let spread = spec.global_slope_spread.max(1.0);

    let mut keys: Vec<u64> = Vec::with_capacity(spec.num_keys);
    let mut prev: f64 = 0.0;

    for _g in 0..globals {
        // Each global segment draws a key density (average gap between
        // consecutive keys, i.e. 1/slope of the CDF) that varies by up to
        // `spread` orders of the base gap between segments. Sharply differing
        // densities between global segments are what create the global
        // non-linearity of planet/osm-like CDFs.
        let global_gap = 1.0 + rng.gen::<f64>() * spread;
        for _l in 0..locals {
            // Local segments perturb the global density. With many local
            // segments and a small ε this yields locally bumpy data.
            let local_gap = (global_gap * (0.1 + rng.gen::<f64>() * 3.9)).max(1.0);
            // The segment follows key ≈ origin + local_gap * r with per-key
            // deviation bounded by ±ε·local_gap, the paper's
            // [(y−ε−b)/m, (y+ε−b)/m] sampling window.
            let origin = prev + local_gap;
            for r in 0..keys_per_segment {
                if keys.len() >= spec.num_keys {
                    break;
                }
                let center = origin + local_gap * r as f64;
                let lo = (center - eps * local_gap).max(prev + 1.0);
                let hi = (center + eps * local_gap).max(lo);
                let key = rng.gen_range(lo..=hi).min(u64::MAX as f64 - 1.0);
                prev = key.max(prev + 1.0);
                keys.push(prev as u64);
            }
            // Jump past the bounding box of the previous segment so the next
            // segment cannot be fitted by the same model (paper §7: increment
            // the first key of the next segment until it exits the previous
            // segment's convex-hull bounding box).
            prev += (eps * local_gap * 4.0).max(2.0);
        }
        // Larger jump between global segments.
        prev += global_gap * keys_per_segment as f64;
    }

    // Top up to the exact requested size with a linear tail if integer
    // division left a remainder.
    while keys.len() < spec.num_keys {
        prev += 7.0;
        keys.push(prev.min(u64::MAX as f64 - 1.0) as u64);
    }
    keys.truncate(spec.num_keys);
    keys
}

/// Generate a corner dataset (Figure 15).
pub fn generate_corner(corner: SynthCorner, num_keys: usize, seed: u64) -> Vec<u64> {
    generate(&corner.spec(num_keys, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardness::DataHardness;

    #[test]
    fn generated_keys_are_strictly_ascending() {
        let keys = generate(&SyntheticSpec {
            num_keys: 10_000,
            ..Default::default()
        });
        assert_eq!(keys.len(), 10_000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = SyntheticSpec {
            num_keys: 5_000,
            seed: 7,
            ..Default::default()
        };
        assert_eq!(generate(&spec), generate(&spec));
        let other = SyntheticSpec { seed: 8, ..spec };
        assert_ne!(generate(&spec), generate(&other));
    }

    #[test]
    fn corners_land_in_the_right_region_of_the_hardness_plane() {
        // The paper measures hardness at ε = 32 / 4096 on 200M-key datasets.
        // At unit-test scale (60k keys) the same *relative* geometry holds
        // when ε is scaled down proportionally to the per-segment key count.
        let n = 60_000;
        let cfg = crate::hardness::HardnessConfig {
            local_eps: 8,
            global_eps: 512,
        };
        let measure = |keys: &[u64]| DataHardness::compute(keys, cfg);
        let easy = measure(&generate_corner(SynthCorner::Easy, n, 1));
        let ghard = measure(&generate_corner(SynthCorner::GlobalHardLocalEasy, n, 1));
        let lhard = measure(&generate_corner(SynthCorner::GlobalEasyLocalHard, n, 1));
        let both = measure(&generate_corner(SynthCorner::GlobalHardLocalHard, n, 1));

        // Global-hard corners must have more global segments than the easy one.
        assert!(
            ghard.global > easy.global,
            "{} vs {}",
            ghard.global,
            easy.global
        );
        assert!(both.global > easy.global);
        // Local-hard corners must have more local segments than the easy one.
        assert!(
            lhard.local > easy.local,
            "{} vs {}",
            lhard.local,
            easy.local
        );
        assert!(both.local > easy.local);
        // The locally-hard corner should be harder locally than the
        // globally-hard-locally-easy corner.
        assert!(lhard.local > ghard.local);
    }

    #[test]
    fn corner_names_are_stable() {
        assert_eq!(SynthCorner::GlobalHardLocalHard.name(), "syn_ghard_lhard");
        assert_eq!(SynthCorner::ALL.len(), 4);
    }

    #[test]
    fn tiny_and_degenerate_specs_do_not_panic() {
        let keys = generate(&SyntheticSpec {
            num_keys: 3,
            global_segments: 10,
            local_segments_per_global: 10,
            ..Default::default()
        });
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));

        let keys = generate(&SyntheticSpec {
            num_keys: 100,
            global_segments: 0,
            local_segments_per_global: 0,
            local_eps: 0,
            ..Default::default()
        });
        assert_eq!(keys.len(), 100);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
