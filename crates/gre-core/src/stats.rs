//! Per-operation statistics.
//!
//! Reproducing Figure 3 (insert-time breakdown into lookup / insert / SMO /
//! key shifting / node chaining) and Table 3 (nodes traversed, keys shifted,
//! nodes created per insert) requires the indexes themselves to account
//! where time and work go. ALEX and LIPP, the two indexes both tabulate,
//! embed an [`OpCounters`] and add to its fields where the work happens;
//! the other indexes keep no counters and report the default snapshot.

/// Phases of an insert operation, matching the stacked bars of Figure 3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InsertBreakdown {
    /// Pre-insertion key lookup (locating the slot), nanoseconds.
    pub lookup_ns: u64,
    /// Writing the entry itself, nanoseconds.
    pub insert_ns: u64,
    /// Structural modification operations (splits, resizes, retrains), ns.
    pub smo_ns: u64,
    /// Shifting existing keys to make room (ALEX-style collision handling), ns.
    pub shift_ns: u64,
    /// Creating and chaining new nodes (LIPP-style collision handling), ns.
    pub chain_ns: u64,
}

impl InsertBreakdown {
    /// Total insert latency.
    pub fn total_ns(&self) -> u64 {
        self.lookup_ns + self.insert_ns + self.smo_ns + self.shift_ns + self.chain_ns
    }

    /// Element-wise mean over `n` accumulated operations.
    pub fn mean(&self, n: u64) -> InsertBreakdown {
        if n == 0 {
            return *self;
        }
        InsertBreakdown {
            lookup_ns: self.lookup_ns / n,
            insert_ns: self.insert_ns / n,
            smo_ns: self.smo_ns / n,
            shift_ns: self.shift_ns / n,
            chain_ns: self.chain_ns / n,
        }
    }
}

/// Monotonically accumulated insert counters reported by `Index::stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounters {
    pub inserts: u64,
    /// Total nodes traversed by inserts.
    pub nodes_traversed: u64,
    /// Total keys shifted across all inserts.
    pub keys_shifted: u64,
    /// Total nodes created (chaining or SMO output).
    pub nodes_created: u64,
    /// Inserts that triggered at least one structural modification
    /// operation (plus, for ALEX, delete-driven repacks).
    pub smo_count: u64,
    /// Accumulated insert time breakdown (timed by ALEX and LIPP only).
    pub insert_breakdown: InsertBreakdown,
}

/// A point-in-time snapshot of an index's accumulated statistics, together
/// with the derived per-insert averages the paper tabulates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StatsSnapshot {
    pub counters: OpCounters,
}

impl StatsSnapshot {
    pub fn new(counters: OpCounters) -> Self {
        StatsSnapshot { counters }
    }

    /// Average nodes traversed per insert (Table 3 column 1).
    pub fn avg_nodes_traversed_per_insert(&self) -> f64 {
        ratio(self.counters.nodes_traversed, self.counters.inserts)
    }

    /// Average keys shifted per insert (Table 3, ALEX column).
    pub fn avg_keys_shifted_per_insert(&self) -> f64 {
        ratio(self.counters.keys_shifted, self.counters.inserts)
    }

    /// Average nodes created per insert (Table 3, LIPP column).
    pub fn avg_nodes_created_per_insert(&self) -> f64 {
        ratio(self.counters.nodes_created, self.counters.inserts)
    }

    /// Mean insert breakdown.
    pub fn mean_insert_breakdown(&self) -> InsertBreakdown {
        self.counters.insert_breakdown.mean(self.counters.inserts)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulate_and_mean() {
        let one = InsertBreakdown {
            lookup_ns: 100,
            insert_ns: 10,
            smo_ns: 20,
            shift_ns: 45,
            chain_ns: 0,
        };
        let total = InsertBreakdown {
            lookup_ns: 200,
            insert_ns: 20,
            smo_ns: 40,
            shift_ns: 90,
            chain_ns: 0,
        };
        assert_eq!(total.total_ns(), 350);
        let mean = total.mean(2);
        assert_eq!(mean, one);
        // mean over zero ops is the identity
        assert_eq!(total.mean(0), total);
    }

    #[test]
    fn snapshot_averages() {
        let c = OpCounters {
            inserts: 4,
            nodes_traversed: 8,
            keys_shifted: 40,
            nodes_created: 4,
            ..Default::default()
        };
        let snap = StatsSnapshot::new(c);
        assert!((snap.avg_nodes_traversed_per_insert() - 2.0).abs() < 1e-9);
        assert!((snap.avg_keys_shifted_per_insert() - 10.0).abs() < 1e-9);
        assert!((snap.avg_nodes_created_per_insert() - 1.0).abs() < 1e-9);
        // Empty snapshot yields zeros, not NaN.
        let empty = StatsSnapshot::default();
        assert_eq!(empty.avg_keys_shifted_per_insert(), 0.0);
    }
}
