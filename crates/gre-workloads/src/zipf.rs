//! Zipfian request-key sampling for the YCSB workloads (Appendix E).
//!
//! YCSB's default request distribution is Zipfian with constant 0.99 over the
//! loaded keys. We wrap `rand_distr::Zipf` and add the scrambling step YCSB
//! applies so that popular keys are spread over the key space instead of
//! clustering at the smallest keys.

use rand::Rng;
use rand_distr::{Distribution, Zipf};

/// A Zipfian sampler over `n` items with exponent `theta`, returning
/// scrambled item ranks in `0..n`.
#[derive(Debug, Clone)]
pub(crate) struct ScrambledZipf {
    dist: Zipf<f64>,
    n: u64,
}

impl ScrambledZipf {
    /// Create a sampler over `n` items (`n >= 1`) with the given exponent.
    pub(crate) fn new(n: usize, theta: f64) -> Self {
        let n = n.max(1) as u64;
        ScrambledZipf {
            dist: Zipf::new(n, theta).expect("valid zipf parameters"),
            n,
        }
    }

    /// Sample a scrambled rank in `0..n`.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // Zipf samples in 1..=n with rank 1 most popular; FNV-style scramble
        // spreads the popular ranks across the key space (as YCSB does).
        let rank = self.dist.sample(rng) as u64 - 1;
        (fnv_hash(rank) % self.n) as usize
    }
}

#[inline]
fn fnv_hash(mut x: u64) -> u64 {
    // 64-bit FNV-1a over the 8 key bytes.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..8 {
        hash ^= x & 0xff;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        x >>= 8;
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_range() {
        let z = ScrambledZipf::new(1000, 0.99);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn distribution_is_skewed() {
        // With theta = 0.99 a handful of scrambled ranks should dominate.
        let n = 10_000;
        let z = ScrambledZipf::new(n, 0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u32; n];
        let samples = 200_000;
        for _ in 0..samples {
            counts[z.sample(&mut rng)] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_1pct: u32 = counts.iter().take(n / 100).sum();
        let share = top_1pct as f64 / samples as f64;
        assert!(
            share > 0.2,
            "top 1% of keys got only {share:.3} of requests"
        );
    }

    #[test]
    fn scrambling_spreads_hot_keys() {
        // The two most popular scrambled ranks should not be adjacent.
        let n = 100_000;
        let z = ScrambledZipf::new(n, 0.99);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u32; n];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let mut ranked: Vec<usize> = (0..n).collect();
        ranked.sort_unstable_by_key(|&i| std::cmp::Reverse(counts[i]));
        let a = ranked[0] as i64;
        let b = ranked[1] as i64;
        assert!((a - b).abs() > 1, "hot keys {a} and {b} are adjacent");
    }

    #[test]
    fn degenerate_sizes_do_not_panic() {
        let z = ScrambledZipf::new(0, 0.99);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(z.sample(&mut rng), 0);
        let z = ScrambledZipf::new(1, 0.5);
        assert_eq!(z.sample(&mut rng), 0);
    }
}
