//! [`Partitioner`]: the one key-range router of the workspace.
//!
//! It cuts the key domain into contiguous ranges, called shards here
//! whichever layer owns them: the lock partitions of [`crate::Partitioned`]
//! and the backends of `gre_shard::ShardedIndex` both route through it. A
//! key routes with one binary search over the boundary table, and
//! `shard_of` is monotone in the key, which is what lets a load hand each
//! shard one contiguous slice and a range scan walk the shards in key order.
//!
//! There are two ways to cut. [`Partitioner::fit`] cuts a bulk load at the
//! exact quantiles of its sorted entries, so skewed key distributions still
//! spread evenly. [`Partitioner::cut`] takes the cut from shards that
//! already hold their keys (a durable store's recovered shards), so that
//! each key goes back to the shard whose log holds its history: a key's
//! history never leaves its shard. Boundaries are non-decreasing, so a
//! shard can be empty in the middle of the domain as well as at its end.

use crate::index::RangeSpec;
use crate::key::{Key, Payload};

/// Contiguous key ranges over a fixed number of shards.
#[derive(Debug, Clone)]
pub struct Partitioner<K> {
    /// `boundaries[i]` is the smallest key of shard `i + 1`; non-decreasing
    /// (two equal boundaries leave the shard between them empty) and at most
    /// `shards - 1` long (shorter when the trailing shards are empty).
    boundaries: Vec<K>,
    shards: usize,
}

impl<K: Key> Partitioner<K> {
    /// `shards` key ranges (at least one) with no fitted boundaries yet:
    /// every key routes to shard 0 until [`Partitioner::fit`] cuts the
    /// domain.
    pub fn range(shards: usize) -> Self {
        Partitioner {
            boundaries: Vec::new(),
            shards: shards.max(1),
        }
    }

    /// Number of shards this partitioner routes over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard `key` routes to. Always `< self.shards()`.
    #[inline]
    pub fn shard_of(&self, key: K) -> usize {
        self.boundaries.partition_point(|b| *b <= key)
    }

    /// Cut at the exact quantiles of `entries` (sorted by ascending key) so
    /// each shard owns an equal share of them, and return the entries split
    /// into one contiguous slice per shard, in shard order. Only call it
    /// while nothing is stored under the old cut, i.e. at bulk load.
    pub fn fit<'e>(&mut self, entries: &'e [(K, Payload)]) -> Vec<&'e [(K, Payload)]> {
        let n = self.shards;
        self.boundaries.clear();
        if entries.len() >= n && n > 1 {
            self.boundaries
                .extend((1..n).map(|s| entries[s * entries.len() / n].0));
            self.boundaries.dedup();
        }
        let mut rest = entries;
        (0..n)
            .map(|s| {
                let end = match self.boundaries.get(s) {
                    Some(&b) => rest.partition_point(|e| e.0 < b),
                    None => rest.len(),
                };
                let (head, tail) = rest.split_at(end);
                rest = tail;
                head
            })
            .collect()
    }

    /// Cut so that each shard routes exactly its own `parts[shard]` back to
    /// it: shard `i` starts at the smallest key of the first non-empty part
    /// at or after `i`, and trailing empty parts leave their shards empty.
    /// `parts` holds one sorted part per shard, in ascending and disjoint
    /// key order, as a durable store's recovered shards are.
    pub fn cut(&mut self, parts: &[Vec<(K, Payload)>]) {
        let mut next = None;
        self.boundaries = parts
            .iter()
            .skip(1)
            .rev()
            .filter_map(|part| {
                next = part.first().map(|e| e.0).or(next);
                next
            })
            .collect();
        self.boundaries.reverse();
    }

    /// Scan `spec` shard by shard in key order, starting at the shard of
    /// `spec.start`. `visit(shard, sub, out)` appends what `shard` holds of
    /// `sub`: the window from `spec.start` or the shard's smallest key,
    /// whichever is larger, with the count still wanted. The walk clips
    /// what a shard returns past `spec.end` (backends may honour only the
    /// count), and stops at that clip, at the first shard that starts past
    /// `spec.end`, or once `spec.count` entries are out. Returns the number
    /// of entries appended.
    pub fn scan(
        &self,
        spec: RangeSpec<K>,
        out: &mut Vec<(K, Payload)>,
        mut visit: impl FnMut(usize, RangeSpec<K>, &mut Vec<(K, Payload)>),
    ) -> usize {
        let before = out.len();
        for shard in self.shard_of(spec.start)..=self.boundaries.len() {
            let taken = out.len() - before;
            if taken >= spec.count {
                break;
            }
            let start = match shard.checked_sub(1).map(|i| self.boundaries[i]) {
                Some(lo) if spec.end.is_some_and(|end| lo > end) => break,
                Some(lo) => lo.max(spec.start),
                None => spec.start,
            };
            let sub = RangeSpec {
                start,
                count: spec.count - taken,
                end: spec.end,
            };
            visit(shard, sub, out);
            let returned = out.len();
            spec.clip(out);
            if out.len() < returned {
                break;
            }
        }
        out.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fitted(keys: &[u64], shards: usize) -> Partitioner<u64> {
        let entries: Vec<(u64, Payload)> = keys.iter().map(|&k| (k, k)).collect();
        let mut p = Partitioner::range(shards);
        p.fit(&entries);
        p
    }

    #[test]
    fn unfitted_range_routes_everything_to_shard_zero() {
        let p = Partitioner::<u64>::range(8);
        assert_eq!(p.shards(), 8);
        for k in [0u64, 1, 1 << 40, u64::MAX] {
            assert_eq!(p.shard_of(k), 0);
        }
    }

    #[test]
    fn range_boundaries_track_the_sampled_cdf() {
        // Uniform keys: quantile boundaries split the domain evenly.
        let keys: Vec<u64> = (0..10_000u64).collect();
        let p = fitted(&keys, 4);
        let mut counts = [0usize; 4];
        for &k in &keys {
            counts[p.shard_of(k)] += 1;
        }
        assert_eq!(counts, [2_500; 4], "exact quantiles split evenly");
    }

    #[test]
    fn range_boundaries_adapt_to_skew() {
        // 90% of keys in a narrow band: quantiles put most boundaries there.
        let mut keys: Vec<u64> = (0..9_000u64).map(|i| 1_000_000 + i).collect();
        keys.extend((0..1_000u64).map(|i| i * 1_000_000_000));
        keys.sort_unstable();
        let p = fitted(&keys, 8);
        let mut counts = vec![0usize; 8];
        for &k in &keys {
            counts[p.shard_of(k)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(
            max <= keys.len() / 4,
            "no shard should own more than ~2x its fair share: {counts:?}"
        );
    }

    #[test]
    fn range_shard_of_is_monotone_in_the_key() {
        let keys: Vec<u64> = (0..5_000u64).map(|i| i * 31).collect();
        let p = fitted(&keys, 7);
        let mut prev = 0usize;
        for &k in &keys {
            let s = p.shard_of(k);
            assert!(s >= prev, "range partitioning must preserve key order");
            assert!(s < 7);
            prev = s;
        }
    }

    #[test]
    fn degenerate_samples_leave_trailing_shards_empty() {
        // All-equal keys: boundaries collapse to at most one after dedup,
        // and every key still routes to a single valid shard.
        let p = fitted(&[42u64; 100], 4);
        assert!(p.shard_of(u64::MAX) <= 1);
        assert!(p.shard_of(42) < 4);
        // Fewer entries than shards: also degenerate, still routable.
        let p = fitted(&[1u64, 2], 8);
        for k in 0..10u64 {
            assert!(p.shard_of(k) < 8);
        }
    }

    #[test]
    fn fit_routes_by_the_new_cut() {
        let entries: Vec<(u64, Payload)> = (0..1_000u64).map(|k| (k, k)).collect();
        let mut p = Partitioner::range(4);
        assert_eq!(p.shard_of(900), 0);
        p.fit(&entries);
        assert_eq!(p.shard_of(900), 3);
        p.fit(&entries[..400]);
        assert_eq!(p.shard_of(900), 3);
        assert_eq!(p.shard_of(150), 1);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(Partitioner::<u64>::range(0).shards(), 1);
    }

    #[test]
    fn fitted_partitioner_starts_with_identity_targets() {
        // Slice `i` of the fit is exactly the entries shard `i` routes.
        let entries: Vec<(u64, Payload)> = (0..10_000u64).map(|k| (k * 3, k)).collect();
        let mut p = Partitioner::range(4);
        let slices = p.fit(&entries);
        assert_eq!(slices.len(), 4);
        assert_eq!(slices.iter().map(|s| s.len()).sum::<usize>(), entries.len());
        for (shard, slice) in slices.iter().enumerate() {
            assert_eq!(slice.len(), 2_500);
            assert!(slice.iter().all(|e| p.shard_of(e.0) == shard));
        }
        // Too few entries to cut: everything in shard 0, the rest empty.
        let slices = p.fit(&entries[..3]);
        assert_eq!(
            slices.iter().map(|s| s.len()).collect::<Vec<_>>(),
            [3, 0, 0, 0]
        );
    }

    #[test]
    fn scan_stops_at_the_first_shard_past_the_end() {
        // 4 shards of 250 keys each: 0..250, 250..500, 500..750, 750..1000.
        let keys: Vec<u64> = (0..1_000u64).collect();
        let p = fitted(&keys, 4);
        // A backend that honours `end`: nothing is clipped, so only the
        // boundary check keeps shards 2 and 3 from being visited.
        let mut visited = Vec::new();
        let mut out = Vec::new();
        let got = p.scan(
            RangeSpec::bounded(240, 260, 1_000),
            &mut out,
            |s, sub, out| {
                visited.push((s, sub.start, sub.count));
                out.extend(
                    keys.iter()
                        .filter(|&&k| sub.admits(k) && p.shard_of(k) == s)
                        .take(sub.count)
                        .map(|&k| (k, k)),
                );
            },
        );
        assert_eq!(got, 21);
        assert_eq!(out.first().unwrap().0, 240);
        assert_eq!(out.last().unwrap().0, 260);
        assert_eq!(visited, [(0, 240, 1_000), (1, 250, 990)]);
    }

    #[test]
    fn cut_routes_and_scans_over_empty_middle_and_trailing_shards() {
        let part =
            |keys: std::ops::Range<u64>| -> Vec<(u64, Payload)> { keys.map(|k| (k, k)).collect() };
        // Six shards: 1 and 4 emptied in the middle, 5 empty at the end.
        let parts = vec![
            part(0..10),
            Vec::new(),
            part(20..30),
            part(40..50),
            Vec::new(),
            Vec::new(),
        ];
        let mut p = Partitioner::range(6);
        p.cut(&parts);
        for (shard, keys) in parts.iter().enumerate() {
            assert!(keys.iter().all(|e| p.shard_of(e.0) == shard));
        }
        // The gaps below each non-empty shard route to the shard before it;
        // everything past the last non-empty shard routes to it.
        assert_eq!(p.shard_of(15), 0);
        assert_eq!(p.shard_of(35), 2);
        assert_eq!(p.shard_of(u64::MAX), 3);

        let mut visited = Vec::new();
        let mut out = Vec::new();
        let got = p.scan(RangeSpec::new(5, 1_000), &mut out, |s, sub, out| {
            visited.push(s);
            out.extend(parts[s].iter().filter(|e| e.0 >= sub.start).take(sub.count));
        });
        assert_eq!(got, 25);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(visited, [0, 1, 2, 3]);
        // A window that starts in the emptied shard's range.
        out.clear();
        p.scan(
            RangeSpec::bounded(12, 25, 1_000),
            &mut out,
            |s, sub, out| {
                out.extend(parts[s].iter().filter(|e| sub.admits(e.0)).take(sub.count));
            },
        );
        assert_eq!(out, part(20..26));
    }
}
