//! Operation types.
//!
//! The operation vocabulary itself is the canonical typed request enum from
//! `gre-core` ([`gre_core::Request`]); this module pins it to the
//! benchmark's `u64` key type as [`Op`] and adds the paper's write-ratio
//! axis.

use gre_core::Payload;

/// A single request issued against an index: the canonical
/// [`Request`](gre_core::Request) over the benchmark's `u64` keys.
/// Range scans are expressed as `Op::Range(RangeSpec::new(start, count))`.
pub type Op = gre_core::Request<u64>;

/// The five write-ratio points of the paper's workload axis (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteRatio {
    /// Read-Only (0% writes): bulk load everything, lookups only.
    ReadOnly,
    /// Read-Intensive (20% writes).
    ReadIntensive,
    /// Balanced (50% writes).
    Balanced,
    /// Write-Heavy (80% writes).
    WriteHeavy,
    /// Write-Only (100% writes).
    WriteOnly,
}

impl WriteRatio {
    /// All five points, in heatmap row order.
    pub const ALL: [WriteRatio; 5] = [
        WriteRatio::ReadOnly,
        WriteRatio::ReadIntensive,
        WriteRatio::Balanced,
        WriteRatio::WriteHeavy,
        WriteRatio::WriteOnly,
    ];

    /// Fraction of write operations in the request stream.
    pub fn write_fraction(&self) -> f64 {
        match self {
            WriteRatio::ReadOnly => 0.0,
            WriteRatio::ReadIntensive => 0.2,
            WriteRatio::Balanced => 0.5,
            WriteRatio::WriteHeavy => 0.8,
            WriteRatio::WriteOnly => 1.0,
        }
    }

    /// Display label ("0%", "20%", …).
    pub fn label(&self) -> &'static str {
        match self {
            WriteRatio::ReadOnly => "0%",
            WriteRatio::ReadIntensive => "20%",
            WriteRatio::Balanced => "50%",
            WriteRatio::WriteHeavy => "80%",
            WriteRatio::WriteOnly => "100%",
        }
    }
}

/// The payload stored for a key in all generated workloads: a cheap,
/// deterministic function of the key so correctness checks can recompute it.
#[inline]
pub fn payload_for(key: u64) -> Payload {
    key ^ 0x5bd1_e995_9e37_79b9
}

#[cfg(test)]
mod tests {
    use super::*;

    use gre_core::{RangeSpec, RequestKind};

    #[test]
    fn op_kinds_and_write_classification() {
        assert_eq!(Op::Get(1).kind(), RequestKind::Get);
        assert_eq!(Op::Insert(1, 2).kind(), RequestKind::Insert);
        assert_eq!(Op::Update(1, 2).kind(), RequestKind::Update);
        assert_eq!(Op::Remove(1).kind(), RequestKind::Remove);
        assert_eq!(Op::Range(RangeSpec::new(1, 10)).kind(), RequestKind::Range);
        assert!(!Op::Get(1).is_write());
        assert!(!Op::Range(RangeSpec::new(1, 10)).is_write());
        assert!(Op::Insert(1, 2).is_write());
        assert!(Op::Update(1, 2).is_write());
        assert!(Op::Remove(1).is_write());
    }

    #[test]
    fn write_ratio_fractions_match_labels() {
        assert_eq!(WriteRatio::ALL.len(), 5);
        for wr in WriteRatio::ALL {
            let f = wr.write_fraction();
            assert!((0.0..=1.0).contains(&f));
        }
        assert_eq!(WriteRatio::Balanced.write_fraction(), 0.5);
        assert_eq!(WriteRatio::WriteOnly.label(), "100%");
    }

    #[test]
    fn payload_is_deterministic_and_key_dependent() {
        assert_eq!(payload_for(5), payload_for(5));
        assert_ne!(payload_for(5), payload_for(6));
    }
}
