//! PGM-Index — static ε-bound piecewise geometric model index plus the
//! LSM-style dynamic variant (Ferragina & Vinciguerra, VLDB'20).
//!
//! The static PGM segments the sorted key array with the optimal ε-approximate
//! PLA (the same algorithm `gre-pla` exposes) and recursively indexes the
//! segments' first keys until a single segment remains. Lookups descend the
//! levels, each time searching only a `2ε + 1` window around the model
//! prediction. The dynamic PGM handles inserts with the logarithmic method
//! (LSM-style tree merge, §2.2): a sequence of static PGMs of doubling sizes,
//! merged on overflow; deletes insert tombstones (the paper notes its good
//! insert throughput comes from this LSM design rather than from learning).

use gre_core::{Index, IndexMeta, Key, Payload, RangeSpec};
use gre_pla::{optimal_pla, optimal_pla_f64, window_partition_point, PlaSegment};

/// Error bound of the PGM segments (Table 1: ε = 16).
pub const PGM_EPSILON: u64 = 16;

/// One fully static PGM over a sorted array of entries.
#[derive(Debug)]
pub(crate) struct StaticPgm<K> {
    entries: Vec<(K, Payload)>,
    /// Bottom-level segments over `entries`.
    segments: Vec<PlaSegment>,
    /// Upper levels: each level segments the first keys of the level below.
    upper_levels: Vec<Vec<PlaSegment>>,
    epsilon: u64,
}

impl<K: Key> StaticPgm<K> {
    /// Build from entries sorted by strictly ascending key.
    pub(crate) fn build(entries: Vec<(K, Payload)>, epsilon: u64) -> Self {
        let keys: Vec<K> = entries.iter().map(|e| e.0).collect();
        let segments = optimal_pla(&keys, epsilon);
        let mut upper_levels = Vec::new();
        let mut current: Vec<f64> = segments.iter().map(|s| s.first_key).collect();
        while current.len() > 1 {
            let level = optimal_pla_f64(current.iter().copied(), epsilon as f64);
            let next: Vec<f64> = level.iter().map(|s| s.first_key).collect();
            upper_levels.push(level);
            if next.len() == current.len() {
                break; // cannot compress further
            }
            current = next;
        }
        StaticPgm {
            entries,
            segments,
            upper_levels,
            epsilon,
        }
    }

    /// Find the bottom-level segment covering `key` by descending the levels.
    fn locate_segment(&self, key: K) -> usize {
        let x = key.to_model_input();
        if self.segments.is_empty() {
            return 0;
        }
        // Start from the top level and narrow down with ε-bounded searches.
        let mut idx = 0usize;
        for level in self.upper_levels.iter().rev() {
            idx = search_segments(level, x, idx, self.epsilon);
        }
        search_segments(&self.segments, x, idx, self.epsilon)
    }

    /// Rank of the first entry with key >= `key`.
    fn lower_bound(&self, key: K) -> usize {
        if self.entries.is_empty() {
            return 0;
        }
        let seg_idx = self.locate_segment(key);
        let seg = &self.segments[seg_idx];
        let predicted = seg.model.predict(key).round() as i64;
        let eps = self.epsilon as i64 + 2;
        let lo = (predicted - eps).max(seg.start_rank as i64) as usize;
        let hi = (predicted + eps + 1).min(seg.end_rank() as i64) as usize;
        window_partition_point(&self.entries, lo, hi, |e| e.0 < key)
    }

    pub(crate) fn get(&self, key: K) -> Option<Payload> {
        let pos = self.lower_bound(key);
        self.entries
            .get(pos)
            .and_then(|e| (e.0 == key).then_some(e.1))
    }

    /// Entries with key >= start, in order.
    pub(crate) fn entries_from(&self, start: K) -> &[(K, Payload)] {
        &self.entries[self.lower_bound(start)..]
    }

    pub(crate) fn memory(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity() * std::mem::size_of::<(K, Payload)>()
            + self.segments.capacity() * std::mem::size_of::<PlaSegment>()
            + self
                .upper_levels
                .iter()
                .map(|l| l.capacity() * std::mem::size_of::<PlaSegment>())
                .sum::<usize>()
    }
}

/// Find the segment of `segments` covering model-space key `x`, given a hint
/// from the level above, searching only an ε-bounded neighbourhood.
fn search_segments(segments: &[PlaSegment], x: f64, hint: usize, eps: u64) -> usize {
    if segments.is_empty() {
        return 0;
    }
    let radius = eps as usize + 2;
    window_partition_point(
        segments,
        hint.saturating_sub(radius),
        hint + radius + 1,
        |s| s.first_key <= x,
    )
    .saturating_sub(1)
}

/// A value or a tombstone in the dynamic PGM's levels.
const TOMBSTONE: Payload = Payload::MAX;

/// The dynamic PGM-Index (LSM of static PGMs).
#[derive(Debug)]
pub struct DynamicPgm<K> {
    /// Small unsorted-insert buffer, kept sorted for cheap merging.
    buffer: Vec<(K, Payload)>,
    /// Static levels; level `i` holds at most `buffer_capacity << i` entries.
    levels: Vec<Option<StaticPgm<K>>>,
    buffer_capacity: usize,
    len: usize,
}

impl<K: Key> Default for DynamicPgm<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Key> DynamicPgm<K> {
    pub fn new() -> Self {
        DynamicPgm {
            buffer: Vec::new(),
            levels: Vec::new(),
            buffer_capacity: 256,
            len: 0,
        }
    }

    /// Merge the buffer into the levels using the logarithmic method.
    fn flush_buffer(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        let mut carry: Vec<(K, Payload)> = std::mem::take(&mut self.buffer);
        carry.sort_by_key(|e| e.0);
        dedup_last_wins(&mut carry);
        let mut level = 0usize;
        loop {
            if level >= self.levels.len() {
                self.levels.push(None);
            }
            match self.levels[level].take() {
                None => {
                    // A level deep enough to hold the carry absorbs it.
                    if carry.len() <= self.buffer_capacity << level || level + 1 > self.levels.len()
                    {
                        self.levels[level] = Some(StaticPgm::build(carry, PGM_EPSILON));
                        break;
                    }
                    level += 1;
                }
                Some(existing) => {
                    carry = merge_entries(existing.entries, carry);
                    level += 1;
                }
            }
        }
    }

    fn lookup_raw(&self, key: K) -> Option<Payload> {
        // Newest first: buffer, then levels from shallow to deep.
        if let Some(e) = self.buffer.iter().rev().find(|e| e.0 == key) {
            return Some(e.1);
        }
        for level in self.levels.iter().flatten() {
            if let Some(v) = level.get(key) {
                return Some(v);
            }
        }
        None
    }
}

/// Keep the last occurrence of each key in a sorted run.
fn dedup_last_wins<K: Key>(entries: &mut Vec<(K, Payload)>) {
    let mut out: Vec<(K, Payload)> = Vec::with_capacity(entries.len());
    for &(k, v) in entries.iter() {
        if let Some(last) = out.last_mut() {
            if last.0 == k {
                last.1 = v;
                continue;
            }
        }
        out.push((k, v));
    }
    *entries = out;
}

/// Merge two sorted runs; `newer` wins on key collisions.
fn merge_entries<K: Key>(older: Vec<(K, Payload)>, newer: Vec<(K, Payload)>) -> Vec<(K, Payload)> {
    let mut out = Vec::with_capacity(older.len() + newer.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < older.len() && j < newer.len() {
        match older[i].0.cmp(&newer[j].0) {
            std::cmp::Ordering::Less => {
                out.push(older[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(newer[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(newer[j]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&older[i..]);
    out.extend_from_slice(&newer[j..]);
    out
}

impl<K: Key> Index<K> for DynamicPgm<K> {
    fn bulk_load(&mut self, entries: &[(K, Payload)]) {
        self.buffer.clear();
        self.levels.clear();
        self.len = entries.len();
        if entries.is_empty() {
            return;
        }
        // Bulk data goes straight into one big static level, placed at the
        // depth matching its size so future merges keep the logarithmic
        // structure.
        let level = StaticPgm::build(entries.to_vec(), PGM_EPSILON);
        let mut depth = 0usize;
        while (self.buffer_capacity << depth) < entries.len() {
            depth += 1;
        }
        self.levels = (0..=depth).map(|_| None).collect();
        self.levels[depth] = Some(level);
    }

    fn get(&self, key: K) -> Option<Payload> {
        match self.lookup_raw(key) {
            Some(TOMBSTONE) => None,
            other => other,
        }
    }

    fn insert(&mut self, key: K, value: Payload) -> bool {
        let existed = self.get(key).is_some();
        self.buffer.push((key, value));
        if !existed {
            self.len += 1;
        }
        if self.buffer.len() >= self.buffer_capacity {
            self.flush_buffer();
        }
        !existed
    }

    fn remove(&mut self, key: K) -> Option<Payload> {
        let existing = self.get(key);
        if existing.is_some() {
            self.buffer.push((key, TOMBSTONE));
            self.len -= 1;
            if self.buffer.len() >= self.buffer_capacity {
                self.flush_buffer();
            }
        }
        existing
    }

    fn range(&self, spec: RangeSpec<K>, out: &mut Vec<(K, Payload)>) -> usize {
        // K-way merge over the buffer and every level, newest wins, skipping
        // tombstones. Each source is a sorted slice consumed from the front:
        // a level lends its tail from the lower bound of `start`, nothing is
        // copied but the buffer entries the scan can reach.
        let before = out.len();
        // The unsorted buffer can hold several versions of the same key
        // (e.g. an insert followed by a tombstone); the stable sort keeps
        // them in arrival order, so the newest one survives the dedup.
        let mut buffered: Vec<(K, Payload)> = self
            .buffer
            .iter()
            .filter(|e| e.0 >= spec.start)
            .copied()
            .collect();
        buffered.sort_by_key(|e| e.0);
        dedup_last_wins(&mut buffered);
        let mut sources: Vec<&[(K, Payload)]> = vec![&buffered];
        sources.extend(
            self.levels
                .iter()
                .flatten()
                .map(|level| level.entries_from(spec.start)),
        );
        while out.len() - before < spec.count {
            // Pick the smallest key across sources; the earliest source
            // (newest data) wins ties.
            let Some(&(k, v)) = sources
                .iter()
                .filter_map(|src| src.first())
                .min_by_key(|e| e.0)
            else {
                break;
            };
            // Advance every source positioned at this key (older duplicates).
            for src in &mut sources {
                if src.first().is_some_and(|e| e.0 == k) {
                    *src = &src[1..];
                }
            }
            if v != TOMBSTONE {
                out.push((k, v));
            }
        }
        out.len() - before
    }

    fn len(&self) -> usize {
        self.len
    }

    fn memory_usage(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.buffer.capacity() * std::mem::size_of::<(K, Payload)>()
            + self
                .levels
                .iter()
                .flatten()
                .map(StaticPgm::memory)
                .sum::<usize>()
    }

    fn meta(&self) -> IndexMeta {
        IndexMeta {
            name: "PGM-Index",
            learned: true,
            concurrent: false,
            supports_delete: true,
            supports_range: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn entries(n: u64) -> Vec<(u64, Payload)> {
        (0..n).map(|i| (i * 7 + 1, i)).collect()
    }

    #[test]
    fn static_pgm_lookups_respect_epsilon_window() {
        let data = entries(50_000);
        let pgm = StaticPgm::build(data.clone(), 16);
        assert_eq!(pgm.entries.len(), 50_000);
        assert!(!pgm.segments.is_empty());
        for i in (0..50_000).step_by(331) {
            assert_eq!(pgm.get(i * 7 + 1), Some(i));
            assert_eq!(pgm.get(i * 7 + 2), None);
        }
    }

    #[test]
    fn static_pgm_on_hard_data() {
        // Clustered keys force many segments.
        let keys: Vec<u64> = (0..20_000u64)
            .map(|i| (i / 100) * 1_000_000 + (i % 100))
            .collect();
        let data: Vec<(u64, Payload)> = keys.iter().map(|&k| (k, k ^ 7)).collect();
        let pgm = StaticPgm::build(data, 16);
        assert!(pgm.segments.len() > 10);
        for &k in keys.iter().step_by(173) {
            assert_eq!(pgm.get(k), Some(k ^ 7));
        }
    }

    #[test]
    fn dynamic_bulk_load_and_lookup() {
        let mut pgm = DynamicPgm::new();
        pgm.bulk_load(&entries(20_000));
        assert_eq!(pgm.len(), 20_000);
        for i in (0..20_000).step_by(271) {
            assert_eq!(pgm.get(i * 7 + 1), Some(i));
        }
    }

    #[test]
    fn inserts_trigger_lsm_merges() {
        let mut pgm = DynamicPgm::new();
        for i in 0..10_000u64 {
            assert!(pgm.insert(i * 3, i));
        }
        assert_eq!(pgm.len(), 10_000);
        assert!(pgm.levels.iter().any(Option::is_some));
        for i in (0..10_000).step_by(97) {
            assert_eq!(pgm.get(i * 3), Some(i));
        }
        // Update in place.
        assert!(!pgm.insert(0, 999));
        assert_eq!(pgm.get(0), Some(999));
        assert_eq!(pgm.len(), 10_000);
    }

    #[test]
    fn deletes_use_tombstones() {
        let mut pgm = DynamicPgm::new();
        pgm.bulk_load(&entries(5_000));
        for i in 0..2_500u64 {
            assert_eq!(pgm.remove(i * 7 + 1), Some(i));
        }
        assert_eq!(pgm.len(), 2_500);
        for i in 0..2_500u64 {
            assert_eq!(pgm.get(i * 7 + 1), None);
        }
        for i in 2_500..5_000u64 {
            assert_eq!(pgm.get(i * 7 + 1), Some(i));
        }
        assert_eq!(pgm.remove(2), None);
        // Deleted keys can be reinserted.
        assert!(pgm.insert(8, 123));
        assert_eq!(pgm.get(8), Some(123));
    }

    #[test]
    fn range_skips_tombstones_and_merges_levels() {
        let mut pgm = DynamicPgm::new();
        pgm.bulk_load(&entries(2_000));
        // Delete every other key and insert some new ones in the buffer.
        for i in 0..1_000u64 {
            pgm.remove(i * 14 + 1);
        }
        for i in 0..50u64 {
            pgm.insert(i * 14 + 2, 1_000_000 + i);
        }
        let mut out = Vec::new();
        pgm.range(RangeSpec::new(0, 100), &mut out);
        assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(out.iter().all(|e| pgm.get(e.0) == Some(e.1)));
    }

    #[test]
    fn matches_model_under_random_ops() {
        let mut pgm = DynamicPgm::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut x: u64 = 0x1234567;
        for i in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = (x % 5_000) + 1;
            match x % 3 {
                0 => assert_eq!(
                    pgm.insert(key, i),
                    model.insert(key, i).is_none(),
                    "insert {key}"
                ),
                1 => assert_eq!(pgm.remove(key), model.remove(&key), "remove {key}"),
                _ => assert_eq!(pgm.get(key), model.get(&key).copied(), "get {key}"),
            }
        }
        assert_eq!(pgm.len(), model.len());
    }

    #[test]
    fn memory_is_compact() {
        let mut pgm = DynamicPgm::new();
        let mut alex = crate::alex::Alex::new();
        let data = entries(20_000);
        pgm.bulk_load(&data);
        alex.bulk_load(&data);
        // PGM is the most space-efficient learned index (Figure 8): no gaps,
        // models only.
        assert!(pgm.memory_usage() < alex.memory_usage());
    }

    #[test]
    fn empty_behaviour() {
        let mut pgm: DynamicPgm<u64> = DynamicPgm::new();
        assert!(pgm.is_empty());
        assert_eq!(pgm.get(1), None);
        assert_eq!(pgm.remove(1), None);
        pgm.bulk_load(&[]);
        assert!(pgm.is_empty());
        assert!(pgm.insert(1, 1));
        assert_eq!(pgm.get(1), Some(1));
        assert_eq!(pgm.meta().name, "PGM-Index");
    }
}
