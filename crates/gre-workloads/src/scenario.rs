//! Typed scenario descriptions: *what* traffic to offer, separated from
//! *how* it is executed (the [`driver`](crate::driver) module).
//!
//! A [`Scenario`] is a bulk-load set plus a script of named [`Phase`]s. Each
//! phase describes a request population — an operation [`Mix`] and a
//! [`KeyDist`] key-selection law, or a pre-materialized replay stream — an
//! op count, and the number of closed-loop clients that split it: each
//! client issues its next request as soon as the previous one completes.
//! Throughput is the measurement; a latency read this way is a *service
//! time*, blind to the queueing delay a stalled server would cause under a
//! fixed arrival rate (the coordinated-omission caveat).
//!
//! Operation generation is lazy: a phase materializes nothing. Each driver
//! thread pulls from its own [`OpStream`], seeded from
//! `(scenario seed, phase index, thread index)`, so the offered traffic is
//! reproducible and identical across serving targets regardless of timing —
//! the property the cross-target equivalence tests rely on.
//!
//! A two-phase script — a skewed read-only warm-up, then a uniform
//! read/insert mix:
//!
//! ```
//! use gre_workloads::{KeyDist, Mix, Phase, Scenario};
//!
//! let keys: Vec<u64> = (1..=10_000u64).map(|i| i * 16).collect();
//! let scenario = Scenario::new("warm-then-burst", 42, &keys)
//!     .phase(Phase::new(
//!         "warm",
//!         Mix::read_only(),
//!         KeyDist::Zipf { theta: 0.99 },
//!         100_000, // ops
//!         4,       // clients
//!     ))
//!     .phase(Phase::new(
//!         "burst",
//!         Mix::read_mostly(5), // 95% get / 5% insert
//!         KeyDist::Uniform,
//!         50_000,
//!         2,
//!     ));
//!
//! assert_eq!(scenario.phases.len(), 2);
//! // The bulk-load set is deduped, sorted, and paired with payloads.
//! assert_eq!(scenario.bulk.len(), 10_000);
//! ```

use crate::spec::{payload_for, Op};
use crate::zipf::ScrambledZipf;
use gre_core::{Payload, RangeSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Relative weights of the five operation kinds in a phase's request
/// stream, plus the scan length used by range operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    get: u32,
    insert: u32,
    update: u32,
    remove: u32,
    range: u32,
    /// Keys per range scan (when `range > 0`).
    scan_len: usize,
}

impl Mix {
    /// A mix with only the given get/insert/update/remove weights.
    pub const fn points(get: u32, insert: u32, update: u32, remove: u32) -> Mix {
        Mix {
            get,
            insert,
            update,
            remove,
            range: 0,
            scan_len: 0,
        }
    }

    /// 100% lookups.
    pub const fn read_only() -> Mix {
        Mix::points(1, 0, 0, 0)
    }

    /// Read-mostly: `write_pct`% inserts, the rest lookups.
    pub const fn read_mostly(write_pct: u32) -> Mix {
        Mix::points(100 - write_pct, write_pct, 0, 0)
    }

    /// Add range scans of `scan_len` keys with the given weight.
    pub const fn with_range(mut self, weight: u32, scan_len: usize) -> Mix {
        self.range = weight;
        self.scan_len = scan_len;
        self
    }

    /// Sum of all weights (0 means a degenerate all-get mix).
    fn total(&self) -> u32 {
        self.get + self.insert + self.update + self.remove + self.range
    }
}

/// Key-selection law of a phase, over the scenario's loaded key population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform over the loaded keys.
    Uniform,
    /// Zipfian (scrambled, YCSB-style) with exponent `theta`.
    Zipf { theta: f64 },
    /// A moving hotspot: with probability `hot_access` the request targets
    /// the hot window of `span` (fraction of the key population) starting at
    /// rank-fraction `start`; otherwise it falls back to uniform. Successive
    /// phases shift `start` to model a drifting working set.
    Hotspot {
        /// Start of the hot window as a fraction of the key population's
        /// rank space (`0.0 ..= 1.0`; windows wrap around).
        start: f64,
        /// Width of the hot window as a fraction of the key population.
        span: f64,
        /// Probability a request targets the hot window.
        hot_access: f64,
    },
}

/// Where a phase's operations come from.
#[derive(Debug, Clone)]
pub(crate) enum OpSource {
    /// Lazily generated from a mix and a key distribution (seeded,
    /// allocation-free, infinite).
    Synthetic { mix: Mix, dist: KeyDist },
    /// Replay of a pre-materialized op stream, split into contiguous
    /// per-thread chunks (the paper's workloads, built by
    /// [`WorkloadBuilder`](crate::WorkloadBuilder)).
    Replay(Arc<Vec<Op>>),
}

/// One named phase of a scenario.
#[derive(Debug, Clone)]
pub struct Phase {
    pub(crate) name: String,
    pub(crate) source: OpSource,
    /// Operations the phase runs, split across its clients.
    pub ops: u64,
    /// Closed-loop clients, one driver thread each.
    pub threads: usize,
}

impl Phase {
    /// A synthetic phase of `ops` operations over `threads` clients.
    pub fn new(name: &str, mix: Mix, dist: KeyDist, ops: u64, threads: usize) -> Phase {
        Phase {
            name: name.to_string(),
            source: OpSource::Synthetic { mix, dist },
            ops,
            threads,
        }
    }

    /// A replay phase covering the whole op stream once over `threads`
    /// clients.
    pub(crate) fn replay(name: &str, ops: Arc<Vec<Op>>, threads: usize) -> Phase {
        Phase {
            name: name.to_string(),
            ops: ops.len() as u64,
            source: OpSource::Replay(ops),
            threads,
        }
    }
}

/// A complete scenario: what to load, then a script of phases to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) name: String,
    pub(crate) seed: u64,
    /// Entries bulk-loaded before the first phase, sorted by key.
    pub bulk: Vec<(u64, Payload)>,
    pub phases: Vec<Phase>,
}

impl Scenario {
    /// Start a scenario loading `keys` (deduplicated, sorted, paired with
    /// the canonical deterministic payload).
    pub fn new(name: &str, seed: u64, keys: &[u64]) -> Scenario {
        let mut sorted: Vec<u64> = keys.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Scenario {
            name: name.to_string(),
            seed,
            bulk: sorted.into_iter().map(|k| (k, payload_for(k))).collect(),
            phases: Vec::new(),
        }
    }

    /// Append a phase (builder-style).
    pub fn phase(mut self, phase: Phase) -> Scenario {
        self.phases.push(phase);
        self
    }

    /// Run every phase with `threads` closed-loop clients (builder-style):
    /// how a replayed paper workload fans out over a thread count.
    pub fn closed_loop(mut self, threads: usize) -> Scenario {
        for phase in &mut self.phases {
            phase.threads = threads;
        }
        self
    }

    /// The loaded keys, in sorted order (the key population synthetic
    /// phases draw from).
    pub fn loaded_keys(&self) -> Vec<u64> {
        self.bulk.iter().map(|e| e.0).collect()
    }
}

/// A lazy per-thread operation stream. `None` marks exhaustion of a finite
/// (replay) stream; synthetic streams are infinite.
pub trait OpStream {
    fn next_op(&mut self) -> Option<Op>;
}

/// Seeded synthetic stream over a loaded key population: one per
/// `(phase, thread)`, allocation-free after construction.
struct SyntheticStream {
    keys: Arc<Vec<u64>>,
    rng: StdRng,
    mix: Mix,
    dist: KeyDist,
    zipf: Option<ScrambledZipf>,
    /// Key offset granularity for inserts: roughly the mean gap between
    /// loaded keys, so inserted keys interleave with the loaded population
    /// instead of clustering on it.
    insert_gap: u64,
}

impl SyntheticStream {
    fn new(keys: Arc<Vec<u64>>, mix: Mix, dist: KeyDist, seed: u64) -> SyntheticStream {
        let zipf = match dist {
            KeyDist::Zipf { theta } => Some(ScrambledZipf::new(keys.len().max(1), theta)),
            _ => None,
        };
        let insert_gap = match (keys.first(), keys.last()) {
            (Some(&lo), Some(&hi)) if keys.len() > 1 => ((hi - lo) / keys.len() as u64).max(1),
            _ => 1,
        };
        SyntheticStream {
            keys,
            rng: StdRng::seed_from_u64(seed),
            mix,
            dist,
            zipf,
            insert_gap,
        }
    }

    /// Sample a rank in the loaded key population per the distribution.
    #[inline]
    fn sample_rank(&mut self) -> usize {
        let n = self.keys.len();
        if n == 0 {
            return 0;
        }
        match self.dist {
            KeyDist::Uniform => self.rng.gen_range(0..n),
            KeyDist::Zipf { .. } => self
                .zipf
                .as_ref()
                .expect("zipf sampler initialized")
                .sample(&mut self.rng),
            KeyDist::Hotspot {
                start,
                span,
                hot_access,
            } => {
                if self.rng.gen_bool(hot_access.clamp(0.0, 1.0)) {
                    let hot_len = ((n as f64 * span) as usize).clamp(1, n);
                    let hot_start = (n as f64 * start.clamp(0.0, 1.0)) as usize;
                    (hot_start + self.rng.gen_range(0..hot_len)) % n
                } else {
                    self.rng.gen_range(0..n)
                }
            }
        }
    }

    #[inline]
    fn key_at(&self, rank: usize) -> u64 {
        if self.keys.is_empty() {
            0
        } else {
            self.keys[rank.min(self.keys.len() - 1)]
        }
    }
}

impl OpStream for SyntheticStream {
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        let total = self.mix.total();
        let pick = if total == 0 {
            0
        } else {
            self.rng.gen_range(0..total)
        };
        let rank = self.sample_rank();
        let base = self.key_at(rank);
        let mix = self.mix;
        let op = if pick < mix.get {
            Op::Get(base)
        } else if pick < mix.get + mix.insert {
            // Offset into the gap after the sampled key: new keys interleave
            // with the loaded population (re-inserting an existing key is a
            // benign upsert of the same canonical payload).
            let k = base.wrapping_add(self.rng.gen_range(1..=self.insert_gap));
            Op::Insert(k, payload_for(k))
        } else if pick < mix.get + mix.insert + mix.update {
            Op::Update(base, payload_for(base))
        } else if pick < mix.get + mix.insert + mix.update + mix.remove {
            Op::Remove(base)
        } else {
            Op::Range(RangeSpec::new(base, self.mix.scan_len.max(1)))
        };
        Some(op)
    }
}

/// Replay stream over one thread's contiguous chunk of a materialized op
/// vector.
struct ReplayStream {
    ops: Arc<Vec<Op>>,
    next: usize,
    end: usize,
}

impl ReplayStream {
    /// The stream for thread `thread` of `threads`: contiguous chunks whose
    /// lengths follow the same even split (`len/threads`, first `len %
    /// threads` threads one longer) the driver uses for per-client op
    /// budgets — the two MUST agree, or threads whose budget undercuts their chunk
    /// would silently drop the chunk's tail ops.
    fn chunk(ops: Arc<Vec<Op>>, thread: usize, threads: usize) -> ReplayStream {
        let threads = threads.max(1);
        let base = ops.len() / threads;
        let extra = ops.len() % threads;
        let next = thread * base + thread.min(extra);
        let end = next + base + usize::from(thread < extra);
        ReplayStream { ops, next, end }
    }
}

impl OpStream for ReplayStream {
    #[inline]
    fn next_op(&mut self) -> Option<Op> {
        if self.next >= self.end {
            return None;
        }
        let op = self.ops[self.next];
        self.next += 1;
        Some(op)
    }
}

/// Build the op stream for `(phase, thread)` of a scenario. Synthetic
/// streams are seeded from `(scenario seed, phase index, thread index)`, so
/// the offered traffic is identical for every serving target.
pub fn phase_stream(
    scenario: &Scenario,
    keys: &Arc<Vec<u64>>,
    phase_idx: usize,
    phase: &Phase,
    thread: usize,
    threads: usize,
) -> Box<dyn OpStream + Send> {
    match &phase.source {
        OpSource::Synthetic { mix, dist } => {
            let seed = scenario
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((phase_idx as u64) << 32)
                .wrapping_add(thread as u64);
            Box::new(SyntheticStream::new(Arc::clone(keys), *mix, *dist, seed))
        }
        OpSource::Replay(ops) => Box::new(ReplayStream::chunk(Arc::clone(ops), thread, threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gre_core::RequestKind;

    fn keyset(n: u64) -> Arc<Vec<u64>> {
        Arc::new((1..=n).map(|i| i * 64).collect())
    }

    #[test]
    fn mix_fractions_and_builders() {
        assert_eq!(Mix::read_only(), Mix::points(1, 0, 0, 0));
        assert_eq!(Mix::read_mostly(20), Mix::points(80, 20, 0, 0));
        let with_scans = Mix::read_only().with_range(1, 50);
        assert_eq!(with_scans.total(), 2);
        assert_eq!(with_scans.scan_len, 50);
    }

    #[test]
    fn synthetic_stream_is_deterministic_per_seed() {
        let keys = keyset(1_000);
        let mk = || {
            SyntheticStream::new(
                Arc::clone(&keys),
                Mix::points(1, 1, 0, 0),
                KeyDist::Uniform,
                7,
            )
        };
        let mut a = mk();
        let mut b = mk();
        for _ in 0..1_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = SyntheticStream::new(
            Arc::clone(&keys),
            Mix::points(1, 1, 0, 0),
            KeyDist::Uniform,
            8,
        );
        let same = (0..1_000).filter(|_| a.next_op() == c.next_op()).count();
        assert!(same < 1_000, "different seeds must diverge");
    }

    #[test]
    fn synthetic_stream_respects_the_mix() {
        let keys = keyset(1_000);
        let mix = Mix::points(60, 20, 10, 10).with_range(0, 0);
        let mut s = SyntheticStream::new(Arc::clone(&keys), mix, KeyDist::Uniform, 3);
        let mut counts = [0usize; 5];
        for _ in 0..20_000 {
            counts[s.next_op().unwrap().kind().index()] += 1;
        }
        let frac = |i: usize| counts[i] as f64 / 20_000.0;
        assert!((frac(RequestKind::Get.index()) - 0.6).abs() < 0.03);
        assert!((frac(RequestKind::Insert.index()) - 0.2).abs() < 0.03);
        assert!((frac(RequestKind::Update.index()) - 0.1).abs() < 0.02);
        assert!((frac(RequestKind::Remove.index()) - 0.1).abs() < 0.02);
        assert_eq!(counts[RequestKind::Range.index()], 0);
    }

    #[test]
    fn hotspot_concentrates_requests() {
        let keys = keyset(10_000);
        let dist = KeyDist::Hotspot {
            start: 0.25,
            span: 0.05,
            hot_access: 0.9,
        };
        let mut s = SyntheticStream::new(Arc::clone(&keys), Mix::read_only(), dist, 11);
        let lo = keys[2_500];
        let hi = keys[2_500 + 500];
        let mut in_window = 0usize;
        let total = 20_000;
        for _ in 0..total {
            if let Some(Op::Get(k)) = s.next_op() {
                if (lo..hi).contains(&k) {
                    in_window += 1;
                }
            }
        }
        let share = in_window as f64 / total as f64;
        // 90% targeted + ~5% of the uniform fallback ≈ 0.905.
        assert!(share > 0.8, "hot window got only {share:.3}");
    }

    #[test]
    fn inserts_generate_interleaving_fresh_keys() {
        let keys = keyset(1_000);
        let mut s = SyntheticStream::new(
            Arc::clone(&keys),
            Mix::points(0, 1, 0, 0),
            KeyDist::Uniform,
            5,
        );
        let lo = *keys.first().unwrap();
        let hi = *keys.last().unwrap();
        let mut fresh = 0usize;
        for _ in 0..1_000 {
            let Some(Op::Insert(k, v)) = s.next_op() else {
                panic!("write-only mix must insert")
            };
            assert_eq!(v, payload_for(k));
            assert!(k > lo && k <= hi + 64, "key {k} far outside domain");
            if keys.binary_search(&k).is_err() {
                fresh += 1;
            }
        }
        assert!(fresh > 900, "only {fresh}/1000 inserts were fresh keys");
    }

    #[test]
    fn replay_stream_chunks_cover_everything_once() {
        let ops: Arc<Vec<Op>> = Arc::new((0..103u64).map(Op::Get).collect());
        for threads in [1usize, 2, 3, 4, 7] {
            let mut seen = Vec::new();
            for t in 0..threads {
                let mut s = ReplayStream::chunk(Arc::clone(&ops), t, threads);
                while let Some(op) = s.next_op() {
                    seen.push(op);
                }
            }
            assert_eq!(seen.len(), ops.len(), "{threads} threads");
            assert_eq!(&seen, &*ops, "{threads} threads: order preserved");
        }
    }

    #[test]
    fn scenario_builder_and_workload_adapter() {
        let keys: Vec<u64> = (1..=100).map(|i| i * 3).collect();
        let s = Scenario::new("t", 1, &keys).phase(Phase::new(
            "p0",
            Mix::points(1, 1, 0, 0),
            KeyDist::Uniform,
            100,
            2,
        ));
        assert_eq!(s.bulk.len(), 100);
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.loaded_keys(), keys);

        let ops = Arc::new(vec![Op::Get(1), Op::Get(2), Op::Get(1)]);
        let s = Scenario::new("w", 0, &[1, 2])
            .phase(Phase::replay("w", ops, 1))
            .closed_loop(2);
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.phases[0].ops, 3);
        assert_eq!(s.phases[0].threads, 2);
        assert!(matches!(s.phases[0].source, OpSource::Replay(_)));
    }

    #[test]
    fn phase_stream_seeds_differ_by_thread_and_phase() {
        let keys: Vec<u64> = (1..=500).map(|i| i * 2).collect();
        let scenario = Scenario::new("t", 42, &keys);
        let pop = Arc::new(scenario.loaded_keys());
        let phase = Phase::new("p", Mix::points(1, 1, 0, 0), KeyDist::Uniform, 100, 2);
        let mut s00 = phase_stream(&scenario, &pop, 0, &phase, 0, 2);
        let mut s01 = phase_stream(&scenario, &pop, 0, &phase, 1, 2);
        let mut s10 = phase_stream(&scenario, &pop, 1, &phase, 0, 2);
        let a: Vec<_> = (0..50).map(|_| s00.next_op().unwrap()).collect();
        let b: Vec<_> = (0..50).map(|_| s01.next_op().unwrap()).collect();
        let c: Vec<_> = (0..50).map(|_| s10.next_op().unwrap()).collect();
        assert_ne!(a, b, "threads see different streams");
        assert_ne!(a, c, "phases see different streams");
        // And the same coordinates reproduce the same stream.
        let mut again = phase_stream(&scenario, &pop, 0, &phase, 0, 2);
        let a2: Vec<_> = (0..50).map(|_| again.next_op().unwrap()).collect();
        assert_eq!(a, a2);
    }
}
