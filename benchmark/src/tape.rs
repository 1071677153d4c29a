//! The load generator: a seeded random source, a Zipf sampler, and the
//! compact operation tape every segment of a workload replays.
//!
//! A tape is generated once per run from `(workload, seed)`; each segment
//! replays a prefix of it against a freshly loaded structure, so the state a
//! segment sees depends only on the seed and the prefix length — never on
//! how fast the machine ran. Every response is deterministic even with
//! concurrent clients: lookups, updates and scan starts target bulk-loaded
//! keys only, inserts take fresh keys exactly once, and both payloads are
//! functions of the key.

/// SplitMix64: tiny, seedable, and good enough to drive a load generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipfian ranks in `[0, n)` with exponent `theta` (Gray et al.'s
/// constant-time sampler, as YCSB uses). Rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0);
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64)
                .min(self.n - 1)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Get = 0,
    Insert = 1,
    Update = 2,
    Range = 3,
}

impl Kind {
    pub fn is_write(self) -> bool {
        matches!(self, Kind::Insert | Kind::Update)
    }
}

/// Operation mix in percent; the four shares sum to 100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    pub get: u8,
    pub insert: u8,
    pub update: u8,
    pub range: u8,
}

impl Mix {
    pub fn share(&self, kind: Kind) -> f64 {
        let pct = match kind {
            Kind::Get => self.get,
            Kind::Insert => self.insert,
            Kind::Update => self.update,
            Kind::Range => self.range,
        };
        pct as f64 / 100.0
    }
}

/// How request keys are drawn from the loaded keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    /// Zipf over key *rank*: the smallest keys are the hottest, so under
    /// range partitioning one shard takes most of the traffic.
    Zipf(f64),
}

/// Payload a key is loaded or inserted with.
pub fn insert_payload(key: u64) -> u64 {
    key.rotate_left(17) ^ 0xA5A5_A5A5_A5A5_A5A5
}

/// Payload every update of a key writes (differs from [`insert_payload`]).
pub fn update_payload(key: u64) -> u64 {
    !insert_payload(key)
}

/// Keys a scan start must leave to its right so every scan returns exactly
/// `range_len` entries.
const SCAN_TAIL: usize = 1024;

/// The generated inputs of one workload run.
#[derive(Debug, Clone)]
pub struct Tape {
    /// Bulk-loaded entries, ascending by key.
    pub loaded: Vec<(u64, u64)>,
    kinds: Vec<Kind>,
    keys: Vec<u64>,
    pub range_len: usize,
}

impl Tape {
    /// Split `keys` (ascending, unique) into `loaded` bulk keys and a pool of
    /// fresh insert keys, then draw `ops` operations.
    ///
    /// # Panics
    /// If the pool cannot cover the inserts `ops` operations draw, or fewer
    /// than `SCAN_TAIL + 2` keys are loaded.
    pub fn generate(
        keys: &[u64],
        loaded: usize,
        mix: Mix,
        dist: KeyDist,
        range_len: usize,
        ops: usize,
        seed: u64,
    ) -> Tape {
        assert_eq!(
            mix.get as u32 + mix.insert as u32 + mix.update as u32 + mix.range as u32,
            100
        );
        assert!(loaded > SCAN_TAIL + 1 && loaded <= keys.len());
        let mut rng = Rng::new(seed ^ 0x7A9E);
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        rng.shuffle(&mut order);
        let mut bulk: Vec<u64> = order[..loaded].iter().map(|&i| keys[i as usize]).collect();
        bulk.sort_unstable();
        let mut pool = order[loaded..].iter().map(|&i| keys[i as usize]);

        let zipf = match dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf(theta) => Some(Zipf::new(loaded as u64, theta)),
        };
        let mut kinds = Vec::with_capacity(ops);
        let mut op_keys = Vec::with_capacity(ops);
        for _ in 0..ops {
            let roll = rng.below(100) as u8;
            let kind = if roll < mix.get {
                Kind::Get
            } else if roll < mix.get + mix.insert {
                Kind::Insert
            } else if roll < mix.get + mix.insert + mix.update {
                Kind::Update
            } else {
                Kind::Range
            };
            let key = if kind == Kind::Insert {
                pool.next().expect("insert pool exhausted: tape too long")
            } else {
                let rank = match &zipf {
                    None => rng.below(loaded as u64),
                    Some(z) => z.sample(&mut rng),
                } as usize;
                bulk[if kind == Kind::Range {
                    rank.min(loaded - 1 - SCAN_TAIL)
                } else {
                    rank
                }]
            };
            kinds.push(kind);
            op_keys.push(key);
        }
        Tape {
            loaded: bulk.into_iter().map(|k| (k, insert_payload(k))).collect(),
            kinds,
            keys: op_keys,
            range_len,
        }
    }

    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    pub fn kind(&self, i: usize) -> Kind {
        self.kinds[i]
    }

    pub fn key(&self, i: usize) -> u64 {
        self.keys[i]
    }

    /// Inserts among the first `ops` operations (each a fresh key).
    pub fn inserts_in(&self, ops: usize) -> usize {
        self.kinds[..ops]
            .iter()
            .filter(|&&k| k == Kind::Insert)
            .count()
    }

    /// FNV-1a over the loaded keys and every operation: two runs with equal
    /// digests replayed identical inputs.
    pub fn digest(&self) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        eat(self.loaded.len() as u64);
        for &(k, _) in &self.loaded {
            eat(k);
        }
        eat(self.range_len as u64);
        for (&kind, &key) in self.kinds.iter().zip(&self.keys) {
            eat(kind as u64);
            eat(key);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| i * 3 + 1).collect()
    }

    const MIXED: Mix = Mix {
        get: 40,
        insert: 30,
        update: 20,
        range: 10,
    };

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let k = keys(20_000);
        let a = Tape::generate(&k, 5_000, MIXED, KeyDist::Zipf(0.99), 100, 10_000, 7);
        let b = Tape::generate(&k, 5_000, MIXED, KeyDist::Zipf(0.99), 100, 10_000, 7);
        let c = Tape::generate(&k, 5_000, MIXED, KeyDist::Zipf(0.99), 100, 10_000, 8);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn inserts_are_fresh_and_everything_else_targets_loaded_keys() {
        let k = keys(20_000);
        let t = Tape::generate(&k, 5_000, MIXED, KeyDist::Uniform, 100, 10_000, 1);
        let loaded: std::collections::BTreeSet<u64> = t.loaded.iter().map(|e| e.0).collect();
        let mut inserted = std::collections::BTreeSet::new();
        for i in 0..t.len() {
            match t.kind(i) {
                Kind::Insert => {
                    assert!(!loaded.contains(&t.key(i)));
                    assert!(inserted.insert(t.key(i)), "insert key reused");
                }
                Kind::Range => {
                    assert!(loaded.range(t.key(i)..).count() > SCAN_TAIL);
                }
                Kind::Get | Kind::Update => assert!(loaded.contains(&t.key(i))),
            }
        }
        assert_eq!(t.inserts_in(t.len()), inserted.len());
        let share = inserted.len() as f64 / t.len() as f64;
        assert!((share - 0.30).abs() < 0.02, "insert share {share}");
    }

    #[test]
    fn zipf_concentrates_on_the_lowest_ranks() {
        let z = Zipf::new(1_000_000, 0.99);
        let mut rng = Rng::new(3);
        let n = 100_000;
        let low = (0..n).filter(|_| z.sample(&mut rng) < 250_000).count();
        assert!(low as f64 / n as f64 > 0.85, "first quarter got {low}/{n}");
    }
}
