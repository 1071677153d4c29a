//! CDF shape primitives used to emulate the real datasets.
//!
//! Each function produces a sorted array of `u64` keys with a particular
//! distribution shape. The shapes are combined by [`crate::registry`] to
//! emulate the datasets of Table 2.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal, Normal};

/// Finalize a raw key sample into a strictly ascending array of exactly `n`
/// keys: sort, deduplicate, and densify (fill gaps deterministically) if the
/// deduplication removed too many keys.
pub(crate) fn finalize(mut keys: Vec<u64>, n: usize) -> Vec<u64> {
    keys.sort_unstable();
    keys.dedup();
    // Refill: spread replacement keys between existing ones.
    let mut rng = StdRng::seed_from_u64(keys.len() as u64 ^ 0x9e37_79b9_7f4a_7c15);
    while keys.len() < n {
        let missing = n - keys.len();
        let mut extra = Vec::with_capacity(missing);
        for _ in 0..missing {
            let i = rng.gen_range(0..keys.len().max(1));
            let base = keys.get(i).copied().unwrap_or(0);
            let next = keys
                .get(i + 1)
                .copied()
                .unwrap_or(base.saturating_add(1 << 20));
            if next > base + 1 {
                extra.push(base + 1 + (rng.gen::<u64>() % (next - base - 1).max(1)));
            } else {
                extra.push(base.saturating_add(rng.gen_range(1..1_000_000)));
            }
        }
        keys.extend(extra);
        keys.sort_unstable();
        keys.dedup();
    }
    keys.truncate(n);
    keys
}

/// Keys uniformly distributed over a domain (covid / stack / wise-like:
/// the easy region of the hardness plane).
pub(crate) fn uniform(n: usize, domain: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw: Vec<u64> = (0..n * 11 / 10).map(|_| rng.gen_range(1..domain)).collect();
    finalize(raw, n)
}

/// Keys following a log-normal CDF (books-like sales popularity).
pub(crate) fn lognormal(n: usize, mu: f64, sigma: f64, scale: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = LogNormal::new(mu, sigma).expect("valid lognormal parameters");
    let raw: Vec<u64> = (0..n * 11 / 10)
        .map(|_| (dist.sample(&mut rng) * scale).min(u64::MAX as f64 / 2.0) as u64)
        .collect();
    finalize(raw, n)
}

/// A mixture of Gaussian clusters at different scales (osm-like: the
/// one-dimensional projection of spatial data produces many clusters of very
/// different densities, which is both globally and locally hard).
pub(crate) fn clustered(n: usize, clusters: usize, domain: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let clusters = clusters.max(1);
    let mut raw = Vec::with_capacity(n * 11 / 10);
    // Cluster centers are themselves non-uniform (power-law spaced) and the
    // per-cluster spread varies over four orders of magnitude.
    let centers: Vec<f64> = (0..clusters)
        .map(|_| (rng.gen::<f64>().powf(2.0)) * domain as f64)
        .collect();
    for i in 0..(n * 11 / 10) {
        let c = centers[i % clusters];
        let spread_exp = rng.gen_range(2.0..6.0);
        let spread = 10f64.powf(spread_exp);
        let normal = Normal::new(c, spread).expect("valid normal");
        let v = normal.sample(&mut rng).abs().min(u64::MAX as f64 / 2.0);
        raw.push(v as u64 + 1);
    }
    finalize(raw, n)
}

/// A dense region followed by a sparse region (planet-like sharp CDF
/// deflection, Figure 1a: dense keys below the knee, sparse keys above).
pub(crate) fn deflected(n: usize, knee_fraction: f64, density_ratio: u64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let dense_n = ((n as f64) * knee_fraction) as usize;
    let sparse_n = n - dense_n;
    let dense_domain = dense_n as u64 * 4;
    let mut raw: Vec<u64> = (0..dense_n * 11 / 10)
        .map(|_| rng.gen_range(1..dense_domain.max(2)))
        .collect();
    let sparse_start = dense_domain + 1;
    let sparse_step = density_ratio.max(2);
    raw.extend(
        (0..sparse_n * 11 / 10)
            .map(|_| sparse_start + rng.gen_range(0..sparse_n as u64 * sparse_step)),
    );
    finalize(raw, n)
}

/// Locally bumpy keys (genome-like): loci pairs form short dense runs with
/// irregular run lengths and irregular jumps between runs, which defeats
/// per-node models at small ε while the overall CDF still looks smooth.
pub(crate) fn bumpy_runs(n: usize, mean_run: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut raw = Vec::with_capacity(n * 11 / 10);
    let mut cursor: u64 = 1;
    while raw.len() < n * 11 / 10 {
        let run = rng.gen_range(1..=mean_run.max(2) * 2);
        let stride = rng.gen_range(1..=8u64);
        for i in 0..run {
            raw.push(cursor + i as u64 * stride);
        }
        cursor += run as u64 * stride + rng.gen_range(1_000..5_000_000);
    }
    finalize(raw, n)
}

/// Mostly-uniform keys with a handful of extreme outliers appended at the top
/// of the domain (fb-like up-sampled IDs: a few keys near 2^64 blow up the
/// MSE metric while PLA hardness only rises slightly — Appendix D).
pub(crate) fn with_outliers(n: usize, outliers: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let outliers = outliers.min(n.saturating_sub(1));
    let body_n = n - outliers;
    let body_domain: u64 = 1 << 40;
    let raw: Vec<u64> = (0..body_n * 11 / 10)
        .map(|_| {
            // The up-sampling in fb creates locally uneven density: mix two
            // granularities.
            if rng.gen_bool(0.5) {
                rng.gen_range(1..body_domain)
            } else {
                rng.gen_range(1..body_domain / 1024) * 1024
            }
        })
        .collect();
    let mut keys = finalize(raw, body_n);
    // Outliers sit near the very top of the 64-bit domain, far above the
    // body, which is exactly what inflates the single-line MSE for fb.
    for i in (0..outliers).rev() {
        keys.push(u64::MAX - 2 - (i as u64) * 1_000_003);
    }
    keys
}

/// Timestamps with duplicates (wiki-like edit timestamps). Returns a sorted
/// array of exactly `n` keys where roughly `dup_fraction` of positions repeat
/// the previous key. This is the only dataset shape with duplicate keys.
pub(crate) fn timestamps_with_duplicates(n: usize, dup_fraction: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::with_capacity(n);
    let mut t: u64 = 1_000_000_000;
    while keys.len() < n {
        t += rng.gen_range(1..120);
        keys.push(t);
        // A burst of edits in the same second produces duplicate timestamps.
        while keys.len() < n && rng.gen_bool(dup_fraction) {
            keys.push(t);
        }
    }
    keys
}

/// Near-contiguous identifiers with occasional gaps (libio / history /
/// stack-like auto-increment IDs with deletions).
pub(crate) fn auto_increment_with_gaps(
    n: usize,
    gap_probability: f64,
    max_gap: u64,
    seed: u64,
) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::with_capacity(n);
    let mut cursor: u64 = 1;
    for _ in 0..n {
        cursor += 1;
        if rng.gen_bool(gap_probability) {
            cursor += rng.gen_range(1..max_gap.max(2));
        }
        keys.push(cursor);
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_sorted_unique(keys: &[u64]) {
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "not strictly ascending"
        );
    }

    #[test]
    fn uniform_shape() {
        let keys = uniform(5_000, 1 << 40, 1);
        assert_eq!(keys.len(), 5_000);
        assert_sorted_unique(&keys);
    }

    #[test]
    fn lognormal_shape() {
        let keys = lognormal(5_000, 10.0, 2.0, 1e6, 1);
        assert_eq!(keys.len(), 5_000);
        assert_sorted_unique(&keys);
    }

    #[test]
    fn clustered_shape() {
        let keys = clustered(5_000, 50, 1 << 50, 1);
        assert_eq!(keys.len(), 5_000);
        assert_sorted_unique(&keys);
    }

    #[test]
    fn deflected_shape_has_knee() {
        let keys = deflected(10_000, 0.5, 1 << 20, 1);
        assert_eq!(keys.len(), 10_000);
        assert_sorted_unique(&keys);
        // The sparse half must cover a much wider key range than the dense half.
        let mid = keys[keys.len() / 2];
        let dense_span = mid - keys[0];
        let sparse_span = keys[keys.len() - 1] - mid;
        assert!(sparse_span > dense_span * 10);
    }

    #[test]
    fn bumpy_runs_shape() {
        let keys = bumpy_runs(5_000, 40, 1);
        assert_eq!(keys.len(), 5_000);
        assert_sorted_unique(&keys);
    }

    #[test]
    fn outliers_reach_top_of_domain() {
        let keys = with_outliers(5_000, 8, 1);
        assert_eq!(keys.len(), 5_000);
        assert_sorted_unique(&keys);
        assert!(*keys.last().unwrap() > u64::MAX / 2);
    }

    #[test]
    fn duplicates_present_in_wiki_shape() {
        let keys = timestamps_with_duplicates(5_000, 0.3, 1);
        assert_eq!(keys.len(), 5_000);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
        let dup_count = keys.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(dup_count > 100, "expected many duplicates, got {dup_count}");
    }

    #[test]
    fn auto_increment_is_dense() {
        let keys = auto_increment_with_gaps(5_000, 0.01, 100, 1);
        assert_eq!(keys.len(), 5_000);
        assert_sorted_unique(&keys);
        // Dense: total span within a small multiple of n.
        assert!(keys[keys.len() - 1] - keys[0] < 5_000 * 20);
    }

    #[test]
    fn finalize_tops_up_after_dedup() {
        let raw = vec![5u64; 100];
        let keys = finalize(raw, 50);
        assert_eq!(keys.len(), 50);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
