//! Order statistics the ledger reports: medians, quartiles, percentiles and
//! the sub-interval throughput estimator.

/// A reported value with the quartiles and the number of the samples behind
/// it: the samples' median, or a single exact measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    /// A value measured once (a count, a size): no spread.
    pub fn exact(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            samples: 1,
        }
    }

    /// Median and quartiles of `values`.
    ///
    /// # Panics
    /// If `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            value: quantile_sorted(&sorted, 0.5),
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
            samples: sorted.len(),
        }
    }

    /// Interquartile range as a share of the value (0 when the value is 0).
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).value
}

/// Nearest-rank percentile `p` in `[0, 100]` of an ascending slice of
/// nanosecond samples: the smallest sample with at least `p` percent of the
/// samples at or below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Throughput of a closed-loop segment from the completion stamps of its
/// equal-sized blocks: the stamps are cut into `intervals` runs of equal
/// block count, each run's rate is `ops / elapsed`, and the first run is
/// dropped as warm-up. `stamps_ns` must be ascending and measured from the
/// segment's start. Empty when fewer than `2 * intervals` blocks completed
/// or fewer than two intervals were asked for: too little to read a rate
/// from.
pub fn interval_rates(stamps_ns: &[u64], ops_per_block: usize, intervals: usize) -> Vec<f64> {
    if intervals < 2 || stamps_ns.len() / intervals < 2 {
        return Vec::new();
    }
    let per = stamps_ns.len() / intervals;
    (1..intervals)
        .map(|i| {
            let start = stamps_ns[i * per - 1];
            let end = stamps_ns[(i + 1) * per - 1];
            let secs = (end - start).max(1) as f64 / 1e9;
            (per * ops_per_block) as f64 / secs
        })
        .collect()
}

/// Sub-interval rates of a segment replayed several times on fresh state:
/// position `i` takes the median of its replays. A stretch in which the
/// machine was slow hits a position in one replay; a stretch in which the
/// code is slow (a structure modification, a barrier, a hot shard) hits it in
/// all of them, so the first is dropped and the second kept. Empty if any
/// replay is.
pub fn replayed_rates(replays: &[Vec<f64>]) -> Vec<f64> {
    let positions = replays.iter().map(Vec::len).min().unwrap_or(0);
    (0..positions)
        .map(|i| median(&replays.iter().map(|r| r[i]).collect::<Vec<f64>>()))
        .collect()
}

/// Percentile `p` of each sub-interval: `latencies_ns` are in completion
/// order, cut into `intervals` equal runs (first dropped as warm-up).
pub fn interval_percentiles(latencies_ns: &[u64], p: f64, intervals: usize) -> Vec<f64> {
    let per = latencies_ns.len() / intervals;
    assert!(per >= 1, "segment too short for {intervals} sub-intervals");
    (1..intervals)
        .map(|i| {
            let mut run = latencies_ns[i * per..(i + 1) * per].to_vec();
            run.sort_unstable();
            percentile_sorted(&run, p) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_like_the_inclusive_method() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.q1, s.value, s.q3, s.samples), (2.0, 3.0, 4.0, 5));
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.value, s.q3), (1.75, 2.5, 3.25));
        assert!((s.spread() - 0.6).abs() < 1e-12);
        assert_eq!(Summary::exact(7.0).spread(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 99.9), 7);
    }

    #[test]
    fn interval_rates_drop_the_warm_up_and_use_equal_block_counts() {
        // 8 blocks of 10 ops: the first two take 1 s each (warm-up), the
        // rest 0.5 s each.
        let stamps: Vec<u64> = [1.0, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
            .iter()
            .map(|s| (s * 1e9) as u64)
            .collect();
        let rates = interval_rates(&stamps, 10, 4);
        assert_eq!(rates, vec![20.0, 20.0, 20.0]);
        // Too short to read a rate from: no rates, not a panic.
        assert!(interval_rates(&stamps, 10, 5).is_empty());
        assert!(interval_rates(&[], 10, 0).is_empty());
    }

    #[test]
    fn replayed_rates_keep_what_repeats_and_drop_what_does_not() {
        // Position 1 is slow in every replay (the code); position 2 in one
        // (the machine).
        let replays = vec![
            vec![10.0, 2.0, 10.0, 10.0],
            vec![10.0, 2.0, 1.0, 10.0],
            vec![10.0, 2.0, 10.0],
        ];
        assert_eq!(replayed_rates(&replays), vec![10.0, 2.0, 10.0]);
        assert!(replayed_rates(&[vec![1.0], vec![]]).is_empty());
        assert!(replayed_rates(&[]).is_empty());
    }

    #[test]
    fn interval_percentiles_are_taken_per_run() {
        let lat: Vec<u64> = (0..40).map(|i| if i < 10 { 1000 } else { i }).collect();
        let p = interval_percentiles(&lat, 100.0, 4);
        assert_eq!(p, vec![19.0, 29.0, 39.0]);
    }
}
