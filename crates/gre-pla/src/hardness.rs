//! The two-dimensional data-hardness metric (§3.2, Appendix D).
//!
//! For a sorted key array `D` and error bound ε, hardness `H` is the number
//! of segments of `D`'s ε-approximate PLA. The paper uses ε = 4096 to capture
//! *global* non-linearity (challenging index structure and SMO cost models)
//! and ε = 32 to capture *local* non-linearity (challenging the accuracy of
//! individual models), and additionally evaluates the mean-squared error of a
//! single regression line as an (inferior) alternative global metric.

use crate::model::LinearModel;
use crate::pla::segment_count;
use gre_core::Key;

/// Epsilon values defining the hardness plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardnessConfig {
    /// Small ε for local non-linearity (paper default 32).
    pub local_eps: u64,
    /// Large ε for global non-linearity (paper default 4096).
    pub global_eps: u64,
}

impl Default for HardnessConfig {
    fn default() -> Self {
        HardnessConfig {
            local_eps: 32,
            global_eps: 4096,
        }
    }
}

/// The hardness coordinates of a dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataHardness {
    /// `H_PLA(ε = local_eps)` — local non-linearity.
    pub local: usize,
    /// `H_PLA(ε = global_eps)` — global non-linearity.
    pub global: usize,
    /// MSE of a single least-squares line fit to the whole CDF
    /// (Appendix D's alternative metric, kept for the Fig E/F reproduction).
    pub single_line_mse: f64,
    /// The ε values used.
    pub config: HardnessConfig,
}

impl DataHardness {
    /// Compute hardness for a sorted (ascending) key array.
    pub fn compute<K: Key>(sorted_keys: &[K], config: HardnessConfig) -> Self {
        debug_assert!(sorted_keys.windows(2).all(|w| w[0] <= w[1]));
        let local = segment_count(sorted_keys, config.local_eps);
        let global = segment_count(sorted_keys, config.global_eps);
        let line = LinearModel::fit_keys(sorted_keys);
        let single_line_mse = line.mse_on_keys(sorted_keys);
        DataHardness {
            local,
            global,
            single_line_mse,
            config,
        }
    }

    /// Compute hardness with the paper's default ε values (32 / 4096).
    pub fn compute_default<K: Key>(sorted_keys: &[K]) -> Self {
        Self::compute(sorted_keys, HardnessConfig::default())
    }

    /// Compute hardness on a uniform sample of `sample` keys, which is what
    /// the harness does for large datasets (hardness is a density-shape
    /// property, so sub-sampling preserves the ordering between datasets
    /// while scaling the absolute segment counts down proportionally).
    pub fn compute_sampled<K: Key>(
        sorted_keys: &[K],
        config: HardnessConfig,
        sample: usize,
    ) -> Self {
        if sorted_keys.len() <= sample || sample == 0 {
            return Self::compute(sorted_keys, config);
        }
        let step = sorted_keys.len() as f64 / sample as f64;
        let sampled: Vec<K> = (0..sample)
            .map(|i| sorted_keys[(i as f64 * step) as usize])
            .collect();
        Self::compute(&sampled, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * 1000).collect()
    }

    /// A key set with high local bumpiness but globally linear shape
    /// (genome-like in the paper's terminology): dense runs of 100 keys
    /// separated by regular jumps, so individual models struggle while the
    /// overall CDF is a straight staircase.
    fn locally_bumpy_keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| (i / 100) * 1_000_000 + (i % 100)).collect()
    }

    /// A key set with a sharp global deflection (planet-like): dense region
    /// followed by a sparse region.
    fn globally_deflected_keys(n: u64) -> Vec<u64> {
        let half = n / 2;
        let mut keys: Vec<u64> = (0..half).collect();
        keys.extend((0..n - half).map(|i| 1_000_000_000 + i * 5_000_000));
        keys
    }

    #[test]
    fn linear_data_is_easy_on_both_axes() {
        let h = DataHardness::compute_default(&linear_keys(50_000));
        assert_eq!(h.local, 1);
        assert_eq!(h.global, 1);
        assert!(h.single_line_mse < 1e-6);
    }

    #[test]
    fn local_bumpiness_raises_local_hardness_more() {
        let easy = DataHardness::compute_default(&linear_keys(50_000));
        let bumpy = DataHardness::compute_default(&locally_bumpy_keys(50_000));
        assert!(bumpy.local > easy.local);
        // Bumps are local: the global axis stays much smaller than local.
        assert!(bumpy.global <= bumpy.local);
    }

    #[test]
    fn global_deflection_raises_global_hardness() {
        let easy = DataHardness::compute_default(&linear_keys(50_000));
        let hard = DataHardness::compute_default(&globally_deflected_keys(50_000));
        assert!(hard.global >= easy.global);
        assert!(hard.single_line_mse > easy.single_line_mse);
    }

    #[test]
    fn sampled_hardness_preserves_ordering() {
        let easy = linear_keys(200_000);
        let hard = globally_deflected_keys(200_000);
        let cfg = HardnessConfig::default();
        let he = DataHardness::compute_sampled(&easy, cfg, 20_000);
        let hh = DataHardness::compute_sampled(&hard, cfg, 20_000);
        assert!(hh.global >= he.global);
        // Sampling with a budget larger than the data falls back to exact.
        let exact = DataHardness::compute_sampled(&easy, cfg, 1_000_000);
        assert_eq!(exact.local, DataHardness::compute(&easy, cfg).local);
    }

    #[test]
    fn custom_epsilons_are_respected() {
        let keys = locally_bumpy_keys(20_000);
        let tight = DataHardness::compute(
            &keys,
            HardnessConfig {
                local_eps: 4,
                global_eps: 64,
            },
        );
        let loose = DataHardness::compute(
            &keys,
            HardnessConfig {
                local_eps: 64,
                global_eps: 8192,
            },
        );
        assert!(tight.local >= loose.local);
        assert!(tight.global >= loose.global);
        assert_eq!(tight.config.local_eps, 4);
    }
}
