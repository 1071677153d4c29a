//! Linear models mapping key space to position space.
//!
//! Every learned index in the study is built from linear models of the form
//! `position ≈ slope * key + intercept`. This module provides the shared
//! model type plus least-squares fitting used by ALEX, LIPP, XIndex and
//! FINEdex when (re)training node models.

use gre_core::Key;

/// A linear model `y = slope * x + intercept` over model-space inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    pub slope: f64,
    pub intercept: f64,
}

impl Default for LinearModel {
    fn default() -> Self {
        LinearModel {
            slope: 0.0,
            intercept: 0.0,
        }
    }
}

impl LinearModel {
    pub fn new(slope: f64, intercept: f64) -> Self {
        LinearModel { slope, intercept }
    }

    /// Predict a (real-valued) position for a key.
    #[inline]
    pub fn predict<K: Key>(&self, key: K) -> f64 {
        self.slope * key.to_model_input() + self.intercept
    }

    /// Predict a position clamped into `[0, upper)` and rounded down,
    /// which is how the learned indexes translate model output into slots.
    #[inline]
    pub fn predict_clamped<K: Key>(&self, key: K, upper: usize) -> usize {
        if upper == 0 {
            return 0;
        }
        let p = self.predict(key);
        if p <= 0.0 {
            0
        } else {
            (p as usize).min(upper - 1)
        }
    }

    /// Error-bounded last-mile search: the lower bound of `key` in the sorted
    /// `keys`, searched in the `±error_bound` window around the prediction
    /// and over the whole slice when the answer lies outside that window
    /// (after inserts skew the distribution, until the next retrain).
    pub fn lower_bound<K: Key>(&self, keys: &[K], key: K, error_bound: usize) -> usize {
        let pred = self.predict_clamped(key, keys.len());
        window_partition_point(
            keys,
            pred.saturating_sub(error_bound),
            pred + error_bound + 1,
            |k| *k < key,
        )
    }

    /// Fit by ordinary least squares over `(key, position)` pairs where the
    /// position of `keys[i]` is `i`. Returns a flat model for empty input and
    /// an exact two-point model for single-key input.
    pub fn fit_keys<K: Key>(keys: &[K]) -> Self {
        Self::fit_points(
            keys.iter()
                .enumerate()
                .map(|(i, k)| (k.to_model_input(), i as f64)),
        )
    }

    /// Fit by ordinary least squares over arbitrary `(x, y)` pairs.
    ///
    /// The x values are centred on their mean before fitting: keys are often
    /// large in magnitude but close together (e.g. 44-bit identifiers a few
    /// units apart), and the naive normal-equation denominator
    /// `n·Σx² − (Σx)²` cancels catastrophically in that regime, collapsing
    /// the fitted slope to zero.
    pub fn fit_points<I: IntoIterator<Item = (f64, f64)>>(points: I) -> Self {
        let pts: Vec<(f64, f64)> = points.into_iter().collect();
        let n = pts.len() as f64;
        if pts.is_empty() {
            return LinearModel::default();
        }
        if pts.len() == 1 {
            return LinearModel::new(0.0, pts[0].1);
        }
        let mean_x = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let mean_y = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let mut sxx = 0.0f64;
        let mut sxy = 0.0f64;
        for &(x, y) in &pts {
            let dx = x - mean_x;
            sxx += dx * dx;
            sxy += dx * (y - mean_y);
        }
        if sxx.abs() < f64::EPSILON || !sxx.is_finite() {
            // Degenerate (all keys equal): map everything to the mean rank.
            return LinearModel::new(0.0, mean_y);
        }
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        LinearModel::new(slope, intercept)
    }

    /// Fit a model that maps `keys[i]` to `i * expansion`, used when a
    /// learned index spreads entries over a gapped array larger than the
    /// number of keys (ALEX data nodes, LIPP nodes).
    pub fn fit_keys_with_expansion<K: Key>(keys: &[K], expansion: f64) -> Self {
        Self::fit_points(
            keys.iter()
                .enumerate()
                .map(|(i, k)| (k.to_model_input(), i as f64 * expansion)),
        )
    }

    /// Mean squared error of this model on `(key, rank)` pairs with ranks
    /// `0..keys.len()` (Appendix D's alternative hardness metric).
    pub(crate) fn mse_on_keys<K: Key>(&self, keys: &[K]) -> f64 {
        if keys.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0f64;
        for (i, k) in keys.iter().enumerate() {
            let err = self.predict(*k) - i as f64;
            acc += err * err;
        }
        acc / keys.len() as f64
    }
}

/// `slice.partition_point(pred)`, searched in the window `[lo, hi)` (clamped
/// to the slice) and over the whole slice only when the answer lies outside
/// it: the last-mile search of every learned model here, each caller picking
/// the window its error bound allows. `pred` must hold on a prefix of
/// `slice`.
pub fn window_partition_point<T>(
    slice: &[T],
    lo: usize,
    hi: usize,
    pred: impl Fn(&T) -> bool,
) -> usize {
    let hi = hi.min(slice.len());
    let lo = lo.min(hi);
    let pos = lo + slice[lo..hi].partition_point(&pred);
    if (pos == hi && hi < slice.len() && pred(&slice[hi]))
        || (pos == lo && lo > 0 && !pred(&slice[lo - 1]))
    {
        slice.partition_point(pred)
    } else {
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_perfectly_linear_keys() {
        // keys 10, 20, 30, ... map exactly to ranks 0, 1, 2 ...
        let keys: Vec<u64> = (1..=100).map(|i| i * 10).collect();
        let m = LinearModel::fit_keys(&keys);
        assert!((m.slope - 0.1).abs() < 1e-9, "slope = {}", m.slope);
        for (i, k) in keys.iter().enumerate() {
            assert!((m.predict(*k) - i as f64).abs() < 1e-6);
        }
        assert!(m.mse_on_keys(&keys) < 1e-9);
    }

    #[test]
    fn fit_empty_single_and_degenerate() {
        let empty: Vec<u64> = vec![];
        let m = LinearModel::fit_keys(&empty);
        assert_eq!(m.slope, 0.0);
        assert_eq!(m.mse_on_keys(&empty), 0.0);

        let single = vec![42u64];
        let m = LinearModel::fit_keys(&single);
        assert!((m.predict(42u64) - 0.0).abs() < 1e-9);

        // All-equal keys must not produce NaN.
        let equal = vec![7u64; 10];
        let m = LinearModel::fit_keys(&equal);
        assert!(m.slope.is_finite());
        assert!(m.intercept.is_finite());
    }

    #[test]
    fn predict_clamped_bounds() {
        let m = LinearModel::new(1.0, -5.0);
        assert_eq!(m.predict_clamped(0u64, 10), 0);
        assert_eq!(m.predict_clamped(100u64, 10), 9);
        assert_eq!(m.predict_clamped(7u64, 10), 2);
        assert_eq!(m.predict_clamped(7u64, 0), 0);
    }

    #[test]
    fn lower_bound_searches_the_window_then_the_whole_slice() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 4).collect();
        let fitted = LinearModel::fit_keys(&keys);
        // A model 500 slots off misses its 8-slot window below the clamp.
        let skewed = LinearModel::new(0.25, 500.0);
        for model in [fitted, skewed] {
            for key in [0u64, 1, 4, 1998, 2000, 3996, 3997, u64::MAX] {
                let expected = keys.partition_point(|k| *k < key);
                assert_eq!(
                    model.lower_bound(&keys, key, 8),
                    expected,
                    "{model:?} {key}"
                );
            }
        }
        assert_eq!(fitted.lower_bound(&[] as &[u64], 5, 8), 0);
    }

    #[test]
    fn window_partition_point_is_the_partition_point_for_any_window() {
        let keys: Vec<u64> = (0..100).map(|i| i * 2).collect();
        for key in [0u64, 1, 51, 150, 198, 199, 500] {
            let expected = keys.partition_point(|k| *k < key);
            for (lo, hi) in [(0, 0), (0, 100), (10, 20), (60, 90), (90, 500), (300, 400)] {
                assert_eq!(
                    window_partition_point(&keys, lo, hi, |k| *k < key),
                    expected,
                    "{key} in [{lo}, {hi})"
                );
            }
        }
    }

    #[test]
    fn expansion_fit_spreads_positions() {
        let keys: Vec<u64> = (0..50).map(|i| i * 3).collect();
        let m = LinearModel::fit_keys_with_expansion(&keys, 2.0);
        // Last key should land near 2 * 49 = 98.
        assert!((m.predict(147u64) - 98.0).abs() < 1e-6);
    }

    #[test]
    fn mse_grows_with_nonlinearity() {
        let linear: Vec<u64> = (0..1000).map(|i| i * 5).collect();
        let curved: Vec<u64> = (0..1000u64).map(|i| i * i).collect();
        let ml = LinearModel::fit_keys(&linear);
        let mc = LinearModel::fit_keys(&curved);
        assert!(ml.mse_on_keys(&linear) < mc.mse_on_keys(&curved));
    }
}
