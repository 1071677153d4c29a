//! Command-line options shared by every per-figure binary.
//!
//! All binaries accept the same flags so the whole evaluation can be scaled
//! to the machine at hand:
//!
//! ```text
//! --keys N      number of keys per dataset        (default 200000)
//! --threads T   worker threads for concurrent runs (default: available cores)
//! --seed S      RNG seed                           (default 42)
//! --shards N    max shard count for sharded serving-layer sweeps (default 8)
//! --quick       shrink everything for a smoke run
//! --verbose     per-kind latency breakdowns (get/insert/update/remove/range)
//! ```

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub keys: usize,
    pub threads: usize,
    pub seed: u64,
    /// Upper bound of the shard-count axis in serving-layer sweeps
    /// (`figs_shard_scalability`); other binaries ignore it.
    pub shards: usize,
    pub quick: bool,
    /// Print per-`RequestKind` latency summaries next to the throughput
    /// rows (binaries with latency reporting honor this).
    pub verbose: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            keys: 200_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            seed: 42,
            shards: 8,
            quick: false,
            verbose: false,
        }
    }
}

impl RunOpts {
    /// Parse from an iterator of arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut opts = RunOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--keys" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.keys = v;
                    }
                }
                "--threads" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.threads = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.seed = v;
                    }
                }
                "--shards" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        opts.shards = v;
                    }
                }
                "--quick" => opts.quick = true,
                "--verbose" => opts.verbose = true,
                _ => {}
            }
        }
        if opts.quick {
            opts.keys = opts.keys.min(20_000);
        }
        opts.keys = opts.keys.max(1_000);
        opts.threads = opts.threads.max(1);
        opts.shards = opts.shards.max(1);
        opts
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }
}

/// The caveat `fig5_scalability` and `fig6_numa` print above their tables:
/// how many hardware threads the host has, and what the thread axis can
/// therefore show.
pub fn thread_axis_note() -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "# note: this host has {cpus} hardware thread(s); beyond that the thread axis \
         oversubscribes them, so read the columns as a shape check, not a NUMA/scaling result"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_and_flags() {
        let o = RunOpts::parse(s(&[]));
        assert_eq!(o.keys, 200_000);
        assert!(!o.quick);
        let o = RunOpts::parse(s(&["--keys", "50000", "--threads", "2", "--seed", "7"]));
        assert_eq!(o.keys, 50_000);
        assert_eq!(o.threads, 2);
        assert_eq!(o.seed, 7);
        assert_eq!(o.shards, 8, "default shard axis");
    }

    #[test]
    fn verbose_flag_parses() {
        assert!(!RunOpts::parse(s(&[])).verbose);
        assert!(RunOpts::parse(s(&["--verbose"])).verbose);
        assert!(RunOpts::parse(s(&["--quick", "--verbose"])).quick);
    }

    #[test]
    fn shards_flag_parses_and_clamps() {
        let o = RunOpts::parse(s(&["--shards", "16"]));
        assert_eq!(o.shards, 16);
        let o = RunOpts::parse(s(&["--shards", "0"]));
        assert_eq!(o.shards, 1);
        let o = RunOpts::parse(s(&["--shards", "junk"]));
        assert_eq!(o.shards, 8);
    }

    #[test]
    fn quick_caps_keys_and_bad_values_are_ignored() {
        let o = RunOpts::parse(s(&["--keys", "999999", "--quick"]));
        assert!(o.quick);
        assert_eq!(o.keys, 20_000);
        let o = RunOpts::parse(s(&["--keys", "nonsense", "--threads", "0"]));
        assert_eq!(o.keys, 200_000);
        assert_eq!(o.threads.max(1), o.threads);
    }
}
