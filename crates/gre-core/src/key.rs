//! Key and payload abstractions.
//!
//! The paper evaluates one-dimensional indexes on 8-byte unsigned integer keys
//! paired with 8-byte payloads (§3.2). Learned indexes additionally need to
//! train linear models on keys, so [`Key`] requires a lossless-enough mapping
//! to `f64` (`to_model_input`) used purely for model fitting; ordering always
//! uses the native integer comparison.

use std::fmt::Debug;
use std::hash::Hash;

/// A key type usable by every index in the suite.
///
/// Implementors must provide a total order consistent with `to_model_input`
/// (monotone: `a < b` implies `a.to_model_input() <= b.to_model_input()`).
pub trait Key: Copy + Ord + Eq + Hash + Debug + Send + Sync + 'static {
    /// The smallest representable key.
    const MIN: Self;
    /// The largest representable key.
    const MAX: Self;

    /// Map the key into model space (used to fit linear models).
    fn to_model_input(&self) -> f64;

    /// Map a model-space value back to the nearest representable key,
    /// clamping to the valid domain.
    fn from_model_input(v: f64) -> Self;

    /// Radix byte view used by trie-based indexes (big-endian so byte order
    /// matches key order).
    fn to_radix_bytes(&self) -> [u8; 8];

    /// The key's successor, saturating at `MAX`.
    fn successor(&self) -> Self;
}

impl Key for u64 {
    const MIN: Self = u64::MIN;
    const MAX: Self = u64::MAX;

    #[inline]
    fn to_model_input(&self) -> f64 {
        *self as f64
    }

    #[inline]
    fn from_model_input(v: f64) -> Self {
        if v <= 0.0 {
            0
        } else if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v as u64
        }
    }

    #[inline]
    fn to_radix_bytes(&self) -> [u8; 8] {
        self.to_be_bytes()
    }

    #[inline]
    fn successor(&self) -> Self {
        self.saturating_add(1)
    }
}

/// The 8-byte payload type used throughout the benchmark.
pub type Payload = u64;

/// A `(key, payload)` pair, the unit stored by every index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry<K> {
    pub key: K,
    pub value: Payload,
}

impl<K: Key> Entry<K> {
    /// Create a new entry.
    #[inline]
    pub fn new(key: K, value: Payload) -> Self {
        Entry { key, value }
    }
}

/// Check that a slice of entries is sorted by strictly ascending key
/// (the precondition for bulk loading most of the indexes).
pub fn is_strictly_sorted<K: Key>(entries: &[(K, Payload)]) -> bool {
    entries.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Check that a slice of entries is sorted by non-descending key (duplicates
/// allowed), the precondition for bulk loading duplicate-tolerant indexes.
pub fn is_sorted<K: Key>(entries: &[(K, Payload)]) -> bool {
    entries.windows(2).all(|w| w[0].0 <= w[1].0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_model_roundtrip_is_monotone() {
        let keys = [0u64, 1, 42, 1 << 20, 1 << 52, u64::MAX / 2];
        for w in keys.windows(2) {
            assert!(w[0].to_model_input() <= w[1].to_model_input());
        }
    }

    #[test]
    fn u64_from_model_input_clamps() {
        assert_eq!(u64::from_model_input(-5.0), 0);
        assert_eq!(u64::from_model_input(f64::MAX), u64::MAX);
        assert_eq!(u64::from_model_input(77.9), 77);
    }

    #[test]
    fn radix_bytes_preserve_order() {
        let a = 0x0102_0304_0506_0708u64;
        let b = 0x0102_0304_0506_0709u64;
        assert!(a.to_radix_bytes() < b.to_radix_bytes());
    }

    #[test]
    fn successor_saturates() {
        assert_eq!(u64::MAX.successor(), u64::MAX);
        assert_eq!(41u64.successor(), 42);
    }

    #[test]
    fn sortedness_checks() {
        let sorted: Vec<(u64, Payload)> = vec![(1, 0), (2, 0), (3, 0)];
        let dups: Vec<(u64, Payload)> = vec![(1, 0), (2, 0), (2, 1)];
        let unsorted: Vec<(u64, Payload)> = vec![(3, 0), (2, 0)];
        assert!(is_strictly_sorted(&sorted));
        assert!(!is_strictly_sorted(&dups));
        assert!(is_sorted(&dups));
        assert!(!is_sorted(&unsorted));
        assert!(is_strictly_sorted::<u64>(&[]));
    }

    #[test]
    fn entry_ordering_follows_key() {
        let a = Entry::new(1u64, 99);
        let b = Entry::new(2u64, 0);
        assert!(a < b);
    }
}
