//! Command-line options shared by every row of the figure table.
//!
//! Every figure accepts the same flags so the whole evaluation can be scaled
//! to the machine at hand:
//!
//! ```text
//! --keys N      number of keys per dataset        (default 200000)
//! --threads T   worker threads for concurrent runs (default: available cores)
//! --seed S      RNG seed                           (default 42)
//! --quick       shrink everything for a smoke run
//! --verbose     per-kind latency breakdowns (get/insert/update/remove/range)
//! ```

/// The flag list, appended to every parse error.
const FLAGS: &str = "flags: --keys N  --threads T  --seed S  --quick  --verbose";

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub keys: usize,
    pub threads: usize,
    pub seed: u64,
    pub quick: bool,
    /// Print per-`RequestKind` latency summaries next to the throughput
    /// rows (figures with latency reporting honor this).
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
            quick: false,
            verbose: false,
        }
    }
}

impl RunOpts {
    /// Parse from an iterator of arguments (without the program and figure
    /// names). An unknown flag, a missing value or an unparsable value is an
    /// error naming the offender; out-of-range values are clamped.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        fn value<T: std::str::FromStr>(
            flag: &str,
            it: &mut impl Iterator<Item = String>,
        ) -> Result<T, String> {
            let v = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value\n{FLAGS}"))?;
            v.parse()
                .map_err(|_| format!("{flag}: not a number: {v:?}\n{FLAGS}"))
        }

        let mut opts = RunOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--keys" => opts.keys = value(&arg, &mut it)?,
                "--threads" => opts.threads = value(&arg, &mut it)?,
                "--seed" => opts.seed = value(&arg, &mut it)?,
                "--quick" => opts.quick = true,
                "--verbose" => opts.verbose = true,
                _ => return Err(format!("unknown flag {arg:?}\n{FLAGS}")),
            }
        }
        if opts.quick {
            opts.keys = opts.keys.min(20_000);
        }
        opts.keys = opts.keys.max(1_000);
        opts.threads = opts.threads.max(1);
        Ok(opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<RunOpts, String> {
        RunOpts::parse(v.iter().map(|x| x.to_string()))
    }

    #[test]
    fn defaults_and_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.keys, 200_000);
        assert!(!o.quick);
        let o = parse(&["--keys", "50000", "--threads", "2", "--seed", "7"]).unwrap();
        assert_eq!(o.keys, 50_000);
        assert_eq!(o.threads, 2);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn verbose_flag_parses() {
        assert!(!parse(&[]).unwrap().verbose);
        assert!(parse(&["--verbose"]).unwrap().verbose);
        assert!(parse(&["--quick", "--verbose"]).unwrap().quick);
    }

    #[test]
    fn quick_caps_keys_and_bad_values_are_rejected() {
        let o = parse(&["--keys", "999999", "--quick"]).unwrap();
        assert!(o.quick);
        assert_eq!(o.keys, 20_000);
        let o = parse(&["--keys", "5", "--threads", "0"]).unwrap();
        assert_eq!((o.keys, o.threads), (1_000, 1));
        for (bad, names) in [
            (&["--keys", "nonsense"][..], "nonsense"),
            (&["--thraeds", "2"][..], "--thraeds"),
            (&["--seed"][..], "--seed"),
            (&["fig2_heatmap"][..], "fig2_heatmap"),
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains(names), "{bad:?}: {err}");
            assert!(err.contains("--verbose"), "error lists the flags: {err}");
        }
    }
}
