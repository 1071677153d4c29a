//! The four workloads, their frozen sizing, and the pinned seeds.
//!
//! Segment lengths are **operation counts**, not durations: each is the
//! frozen seed-speed rate below times the segment's share of `--seconds`, so
//! both sides of a comparison replay exactly the same operations against
//! exactly the same state however fast they run. The rates were measured on
//! the 2-core seed box when the ledger was defined and are never re-tuned by
//! a change that claims a gain.

use crate::stack::Data;
use crate::tape::{KeyDist, Kind, Mix, Tape};

/// The seed results were developed against, and the one kept aside to
/// confirm a claim on inputs nobody tuned for.
pub const DEVELOPMENT_SEED: u64 = 42;
pub const HELD_OUT_SEED: u64 = 20_260_925;
/// Thread counts and segment shares assume this many cores.
pub const SIZED_FOR_CORES: usize = 2;

/// `--seconds` when not given, and what `BENCHMARK.json` runs with.
pub const RUN_SECONDS: u64 = 20;

/// Shares of `--seconds` the untraced run gives each closed-loop segment
/// (all its replays together); the open-loop segments take the rest.
pub const SHARE_DIRECT: f64 = 0.26;
pub const SHARE_BTREE: f64 = 0.18;
pub const SHARE_SERVED: f64 = 0.38;
/// A closed-loop segment is cut once it has taken this many times the
/// duration it has at seed speed (see `clients::closed_loop`).
pub const SLOWEST: f64 = 4.0;

/// Sub-intervals a closed-loop segment's throughput, and a paced segment's
/// latency percentile, are read from (one more is dropped as warm-up).
pub const RATE_INTERVALS: usize = 101;
pub const LATENCY_INTERVALS: usize = 101;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub data: Data,
    pub loaded: usize,
    pub mix: Mix,
    pub dist: KeyDist,
    pub range_len: usize,
    /// Whether the served stack group-commits to a write-ahead log.
    pub durable: bool,
    /// Seed-speed throughput (ops/s) of the closed-loop segments; sizes them.
    pub speed_direct: f64,
    pub speed_btree: f64,
    pub speed_served: f64,
    /// Frozen open-loop rates (ops/s), the four rungs of the rate ladder:
    /// about 1/4, 1/2, 2x and 3x the seed's served capacity. The second is
    /// the nominal rate of the paced segment.
    pub rungs: [f64; 4],
    /// A rung passes when its p99 from due time stays within this.
    pub p99_limit_us: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read_fit",
        why: "100% get, uniform, covid, 200k keys (fits L2): search and serving tax are the whole cost; write-path or WAL work must not move it",
        data: Data::Covid,
        loaded: 200_000,
        mix: Mix { get: 100, insert: 0, update: 0, range: 0 },
        dist: KeyDist::Uniform,
        range_len: 100,
        durable: false,
        speed_direct: 15_500_000.0,
        speed_btree: 10_300_000.0,
        speed_served: 7_200_000.0,
        rungs: [1_600_000.0, 3_200_000.0, 9_600_000.0, 12_800_000.0],
        p99_limit_us: 5_000.0,
    },
    Workload {
        name: "write_hard",
        why: "50% fresh insert / 50% get, uniform, osm (hard), 2M keys (beyond L2): SMOs and cache misses dominate, serving tax is a small share; a read win bought with write cost shows",
        data: Data::Osm,
        loaded: 2_000_000,
        mix: Mix { get: 50, insert: 50, update: 0, range: 0 },
        dist: KeyDist::Uniform,
        range_len: 100,
        durable: false,
        speed_direct: 150_000.0,
        speed_btree: 2_050_000.0,
        speed_served: 410_000.0,
        rungs: [80_000.0, 160_000.0, 640_000.0, 960_000.0],
        p99_limit_us: 5_000.0,
    },
    Workload {
        name: "durable_write",
        why: "50% insert / 50% update, uniform, covid, 200k keys, WAL on real files synced every group, then crash and recover: append+fsync dominate; the only workload with the durability tier on the path",
        data: Data::Covid,
        loaded: 200_000,
        mix: Mix { get: 0, insert: 50, update: 50, range: 0 },
        dist: KeyDist::Uniform,
        range_len: 100,
        durable: true,
        speed_direct: 2_600_000.0,
        speed_btree: 3_000_000.0,
        speed_served: 550_000.0,
        rungs: [125_000.0, 250_000.0, 1_000_000.0, 1_500_000.0],
        p99_limit_us: 20_000.0,
    },
    Workload {
        name: "scan_zipf",
        why: "20% range(100) / 70% get / 10% update, Zipf 0.99 by rank, books, 1M keys: ranges, cross-shard stitching and one hot shard whose FIFO saturates; a point-get win that costs scans or skew shows",
        data: Data::Books,
        loaded: 1_000_000,
        mix: Mix { get: 70, insert: 0, update: 10, range: 20 },
        dist: KeyDist::Zipf(0.99),
        range_len: 100,
        durable: false,
        speed_direct: 510_000.0,
        speed_btree: 4_200_000.0,
        speed_served: 870_000.0,
        rungs: [200_000.0, 400_000.0, 1_600_000.0, 2_400_000.0],
        p99_limit_us: 5_000.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Round an op count down to whole client blocks, keeping enough blocks for
/// the sub-interval estimator.
pub fn whole_blocks(ops: f64, min_blocks: usize) -> usize {
    let blocks = (ops as usize / crate::stack::BATCH_OPS).max(min_blocks);
    blocks * crate::stack::BATCH_OPS
}

impl Workload {
    /// The nominal open-loop rate (ops/s): about half the seed's capacity.
    pub fn paced_rate(&self) -> f64 {
        self.rungs[1]
    }

    /// The dataset: the loaded keys plus a pool of fresh insert keys large
    /// enough for a tape of `ops` operations.
    pub fn keys(&self, ops: usize, seed: u64) -> Vec<u64> {
        let pool = match self.mix.insert {
            0 => 0,
            _ => (ops as f64 * self.mix.share(Kind::Insert) * 1.02) as usize + 4096,
        };
        self.data.generate(self.loaded + pool, seed)
    }

    /// A tape of `ops` operations over [`Workload::keys`].
    pub fn tape(&self, keys: &[u64], ops: usize, seed: u64) -> Tape {
        Tape::generate(
            keys,
            self.loaded,
            self.mix,
            self.dist,
            self.range_len,
            ops,
            seed,
        )
    }
}
