//! Per-operation statistics.
//!
//! Reproducing Figure 3 (insert-time breakdown into lookup / insert / SMO /
//! statistics maintenance / key shifting / node chaining) and Table 3
//! (nodes traversed, keys shifted, nodes created per insert) requires the
//! indexes themselves to account where time and work go. Every index embeds
//! an [`OpCounters`] and folds one [`InsertStats`] into it per insert.

use std::time::Duration;

/// Phases of an insert operation, matching the stacked bars of Figure 3.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InsertBreakdown {
    /// Pre-insertion key lookup (locating the slot), nanoseconds.
    pub lookup_ns: u64,
    /// Writing the entry itself, nanoseconds.
    pub insert_ns: u64,
    /// Structural modification operations (splits, resizes, retrains), ns.
    pub smo_ns: u64,
    /// Statistics / metadata maintenance on the insertion path, ns.
    pub stat_ns: u64,
    /// Shifting existing keys to make room (ALEX-style collision handling), ns.
    pub shift_ns: u64,
    /// Creating and chaining new nodes (LIPP-style collision handling), ns.
    pub chain_ns: u64,
}

impl InsertBreakdown {
    /// Total time excluding the pre-insertion lookup ("remaining steps" in
    /// Figure 3 bottom).
    pub fn remaining_ns(&self) -> u64 {
        self.insert_ns + self.smo_ns + self.stat_ns + self.shift_ns + self.chain_ns
    }

    /// Total insert latency.
    pub fn total_ns(&self) -> u64 {
        self.lookup_ns + self.remaining_ns()
    }

    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &InsertBreakdown) {
        self.lookup_ns += other.lookup_ns;
        self.insert_ns += other.insert_ns;
        self.smo_ns += other.smo_ns;
        self.stat_ns += other.stat_ns;
        self.shift_ns += other.shift_ns;
        self.chain_ns += other.chain_ns;
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
            stat_ns: self.stat_ns / n,
            shift_ns: self.shift_ns / n,
            chain_ns: self.chain_ns / n,
        }
    }
}

/// Work counters for a single insert (Table 3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InsertStats {
    /// Nodes traversed to reach the target node.
    pub nodes_traversed: u64,
    /// Existing keys shifted to make room (ALEX-style write amplification).
    pub keys_shifted: u64,
    /// New nodes created (LIPP-style chaining).
    pub nodes_created: u64,
    /// Whether a structural modification operation was triggered.
    pub triggered_smo: bool,
    /// Time breakdown of this insert.
    pub breakdown: InsertBreakdown,
}

/// Monotonically accumulated counters reported by `Index::stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounters {
    pub lookups: u64,
    pub inserts: u64,
    pub removes: u64,
    pub range_scans: u64,
    /// Total nodes traversed across all operations.
    pub nodes_traversed: u64,
    /// Total keys shifted across all inserts.
    pub keys_shifted: u64,
    /// Total nodes created (chaining or SMO output).
    pub nodes_created: u64,
    /// Total structural modification operations.
    pub smo_count: u64,
    /// Total model retrains (learned indexes only).
    pub retrains: u64,
    /// Accumulated insert time breakdown.
    pub insert_breakdown: InsertBreakdown,
}

impl OpCounters {
    /// Record the effects of one insert.
    pub fn record_insert(&mut self, stats: &InsertStats) {
        self.inserts += 1;
        self.nodes_traversed += stats.nodes_traversed;
        self.keys_shifted += stats.keys_shifted;
        self.nodes_created += stats.nodes_created;
        if stats.triggered_smo {
            self.smo_count += 1;
        }
        self.insert_breakdown.accumulate(&stats.breakdown);
    }

    /// Record a lookup that traversed `nodes` nodes.
    pub fn record_lookup(&mut self, nodes: u64) {
        self.lookups += 1;
        self.nodes_traversed += nodes;
    }

    /// Record a delete.
    pub fn record_remove(&mut self, nodes: u64) {
        self.removes += 1;
        self.nodes_traversed += nodes;
    }

    /// Record a range scan.
    pub fn record_range(&mut self) {
        self.range_scans += 1;
    }

    /// Element-wise accumulation of another counter set, used by composite
    /// indexes (sharded / partitioned stores) to report merged statistics
    /// across their per-partition backends.
    pub fn merge(&mut self, other: &OpCounters) {
        self.lookups += other.lookups;
        self.inserts += other.inserts;
        self.removes += other.removes;
        self.range_scans += other.range_scans;
        self.nodes_traversed += other.nodes_traversed;
        self.keys_shifted += other.keys_shifted;
        self.nodes_created += other.nodes_created;
        self.smo_count += other.smo_count;
        self.retrains += other.retrains;
        self.insert_breakdown.accumulate(&other.insert_breakdown);
    }
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

/// A minimal scoped timer for filling [`InsertBreakdown`] fields without
/// cluttering index code. Timing calls are cheap (`Instant::now` twice) and
/// only taken on insert paths.
#[derive(Debug)]
pub struct PhaseTimer {
    start: std::time::Instant,
}

impl PhaseTimer {
    #[inline]
    pub fn start() -> Self {
        PhaseTimer {
            start: std::time::Instant::now(),
        }
    }

    /// Elapsed nanoseconds since `start`, saturating into `u64`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        duration_to_ns(self.start.elapsed())
    }

    /// Elapsed nanoseconds, and restart the timer for the next phase.
    #[inline]
    pub fn lap_ns(&mut self) -> u64 {
        let ns = self.elapsed_ns();
        self.start = std::time::Instant::now();
        ns
    }
}

#[inline]
pub fn duration_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulate_and_mean() {
        let mut total = InsertBreakdown::default();
        let one = InsertBreakdown {
            lookup_ns: 100,
            insert_ns: 10,
            smo_ns: 20,
            stat_ns: 5,
            shift_ns: 40,
            chain_ns: 0,
        };
        total.accumulate(&one);
        total.accumulate(&one);
        assert_eq!(total.lookup_ns, 200);
        assert_eq!(total.remaining_ns(), 150);
        assert_eq!(total.total_ns(), 350);
        let mean = total.mean(2);
        assert_eq!(mean, one);
        // mean over zero ops is the identity
        assert_eq!(total.mean(0), total);
    }

    #[test]
    fn counters_record_operations() {
        let mut c = OpCounters::default();
        c.record_lookup(3);
        c.record_remove(2);
        c.record_range();
        let ins = InsertStats {
            nodes_traversed: 2,
            keys_shifted: 8,
            nodes_created: 1,
            triggered_smo: true,
            breakdown: InsertBreakdown {
                lookup_ns: 50,
                ..Default::default()
            },
        };
        c.record_insert(&ins);
        assert_eq!(c.lookups, 1);
        assert_eq!(c.removes, 1);
        assert_eq!(c.range_scans, 1);
        assert_eq!(c.inserts, 1);
        assert_eq!(c.nodes_traversed, 7);
        assert_eq!(c.keys_shifted, 8);
        assert_eq!(c.nodes_created, 1);
        assert_eq!(c.smo_count, 1);
        assert_eq!(c.insert_breakdown.lookup_ns, 50);
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = OpCounters {
            lookups: 1,
            inserts: 2,
            removes: 3,
            range_scans: 4,
            nodes_traversed: 5,
            keys_shifted: 6,
            nodes_created: 7,
            smo_count: 8,
            retrains: 9,
            insert_breakdown: InsertBreakdown {
                lookup_ns: 10,
                ..Default::default()
            },
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.lookups, 2);
        assert_eq!(a.inserts, 4);
        assert_eq!(a.removes, 6);
        assert_eq!(a.range_scans, 8);
        assert_eq!(a.nodes_traversed, 10);
        assert_eq!(a.keys_shifted, 12);
        assert_eq!(a.nodes_created, 14);
        assert_eq!(a.smo_count, 16);
        assert_eq!(a.retrains, 18);
        assert_eq!(a.insert_breakdown.lookup_ns, 20);
    }

    #[test]
    fn snapshot_averages() {
        let mut c = OpCounters::default();
        for _ in 0..4 {
            c.record_insert(&InsertStats {
                nodes_traversed: 2,
                keys_shifted: 10,
                nodes_created: 1,
                ..Default::default()
            });
        }
        let snap = StatsSnapshot::new(c);
        assert!((snap.avg_nodes_traversed_per_insert() - 2.0).abs() < 1e-9);
        assert!((snap.avg_keys_shifted_per_insert() - 10.0).abs() < 1e-9);
        assert!((snap.avg_nodes_created_per_insert() - 1.0).abs() < 1e-9);
        // Empty snapshot yields zeros, not NaN.
        let empty = StatsSnapshot::default();
        assert_eq!(empty.avg_keys_shifted_per_insert(), 0.0);
    }

    #[test]
    fn phase_timer_monotone() {
        let mut t = PhaseTimer::start();
        let a = t.lap_ns();
        let b = t.elapsed_ns();
        // Both laps are valid durations; not asserting magnitudes to stay
        // robust on virtualized clocks.
        let _ = (a, b);
        assert!(duration_to_ns(Duration::from_nanos(5)) == 5);
    }
}
