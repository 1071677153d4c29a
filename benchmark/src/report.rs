//! Metric names, `BENCHMARK.json`, the JSON report (write and read back), and
//! `compare`.

use crate::stack::BACKENDS;
use crate::stats::Summary;
use crate::workloads;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric the ledger defines.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the metric
    /// may worsen before a change is rejected.
    pub bound: Option<f64>,
    /// Whether `BENCHMARK.json` lists it. Its consumer reads every listed
    /// end-to-end metric from one run of every workload, so a listed one
    /// exists on all four workloads, is never 0, and repeats from one run to
    /// the next well within its bound. The others are gated by `compare`
    /// alone. Every per-layer metric is listed.
    pub listed: bool,
    pub layer: &'static str,
}

fn spec(name: &str, unit: &'static str, better: Better, layer: &'static str) -> Spec {
    Spec {
        name: name.to_string(),
        unit,
        better,
        bound: None,
        listed: true,
        layer,
    }
}

/// The end-to-end metrics of the untraced run, in report order.
/// (`failed_share`, whose bound is an absolute 0, is not in the list: every
/// report carries `attempted` and `failed`, and `compare` has a row for it.)
pub fn end_to_end() -> Vec<Spec> {
    use Better::*;
    [
        ("setup_s", "s", Lower, 0.25, true),
        ("direct_ops_s", "1/s", Higher, 0.25, true),
        ("direct_btree_ops_s", "1/s", Higher, 0.25, true),
        ("served_ops_s", "1/s", Higher, 0.25, true),
        ("paced_read_p50_us", "us", Lower, 0.25, false),
        ("paced_write_p50_us", "us", Lower, 0.25, false),
        ("max_rate_ok_ops_s", "1/s", Higher, 0.0, false),
        ("bytes_per_key", "B", Lower, 0.02, true),
        ("wal_bytes_per_op", "B", Lower, 0.02, false),
        ("recovery_s", "s", Lower, 0.10, false),
    ]
    .into_iter()
    .map(|(name, unit, better, bound, listed)| Spec {
        bound: Some(bound),
        listed,
        ..spec(name, unit, better, "end-to-end")
    })
    .collect()
}

/// The per-layer metrics of the traced run, in `BENCHMARK.json` order.
pub fn per_layer() -> Vec<Spec> {
    use Better::*;
    let mut v = vec![
        spec("datasets.generate_s", "s", Lower, "set-up"),
        spec("pla.hardness_segments", "count", Lower, "set-up"),
        spec("setup.bulk_load_s", "s", Lower, "set-up"),
        spec("gen.ns_per_op", "ns", Lower, "generator"),
        spec("gen.late_share", "share", Lower, "generator"),
        spec("gen.late_p99_us", "us", Lower, "generator"),
    ];
    for b in BACKENDS {
        for (m, unit) in [
            ("get_ns", "ns"),
            ("write_ns", "ns"),
            ("write_p999_ns", "ns"),
            ("range_ns_per_key", "ns"),
            ("bytes_per_key", "B"),
        ] {
            v.push(spec(&format!("index.{b}.{m}"), unit, Lower, "index"));
        }
    }
    for (name, unit, better, layer) in [
        ("index.alex.nodes_per_insert", "count", Lower, "index"),
        (
            "index.alex.keys_shifted_per_insert",
            "count",
            Lower,
            "index",
        ),
        ("index.alex.smo_per_kinsert", "count", Lower, "index"),
        ("index.alex.smo_ns_share", "share", Lower, "index"),
        ("partition.shard_of_ns", "ns", Lower, "sharded"),
        ("sharded.tax_ns_per_op", "ns", Lower, "sharded"),
        ("sharded.get_batch_ns_per_key", "ns", Lower, "sharded"),
        ("sharded.max_shard_share", "share", Lower, "sharded"),
        ("pipeline.tax_ns_per_op", "ns", Lower, "pipeline"),
        ("pipeline.submit_ns_per_batch", "ns", Lower, "pipeline"),
        ("pipeline.wait_ns_per_batch", "ns", Lower, "pipeline"),
        ("pipeline.route_ns", "ns", Lower, "pipeline"),
        ("pipeline.enqueue_ns", "ns", Lower, "pipeline"),
        ("pipeline.queue_wait_ns", "ns", Lower, "pipeline"),
        ("pipeline.execute_ns", "ns", Lower, "pipeline"),
        ("pipeline.respond_ns", "ns", Lower, "pipeline"),
        ("pipeline.sub_batches_per_batch", "count", Lower, "pipeline"),
        ("pipeline.batched_get_share", "share", Higher, "pipeline"),
        ("pipeline.rejected_share", "share", Lower, "pipeline"),
        ("pipeline.worker_busy_share", "share", Lower, "pipeline"),
        ("session.tax_ns_per_op", "ns", Lower, "session"),
        ("session.submit_block_ns_per_batch", "ns", Lower, "session"),
        ("session.window_mean", "count", Higher, "session"),
        ("telemetry.overhead_share", "share", Lower, "telemetry"),
        ("ladder.index_ns_per_op", "ns", Lower, "ladder"),
        ("ladder.served_ns_per_op", "ns", Lower, "ladder"),
        ("ladder.unattributed_ns_per_op", "ns", Lower, "ladder"),
        ("wal.append_ns_per_group", "ns", Lower, "durability"),
        ("wal.sync_ns_per_group", "ns", Lower, "durability"),
        ("wal.ops_per_group", "count", Higher, "durability"),
        ("wal.fsyncs_per_kop", "count", Lower, "durability"),
        ("wal.tax_ns_per_op", "ns", Lower, "durability"),
        ("wal.bytes_per_op", "B", Lower, "durability"),
        ("recovery.scan_ns_per_op", "ns", Lower, "durability"),
        ("recovery.replay_ns_per_op", "ns", Lower, "durability"),
        ("recovery.total_s", "s", Lower, "durability"),
        ("ship.poll_ns_per_op", "ns", Lower, "shipping"),
        ("ship.apply_ns_per_op", "ns", Lower, "shipping"),
        ("paced.p50_us", "us", Lower, "serving"),
        ("paced.p99_us", "us", Lower, "serving"),
        ("paced.read_p50_us", "us", Lower, "serving"),
        ("paced.read_p99_us", "us", Lower, "serving"),
        ("paced.write_p50_us", "us", Lower, "serving"),
        ("paced.write_p99_us", "us", Lower, "serving"),
        ("paced.p999_us", "us", Lower, "serving"),
        ("rate.rung1_p99_us", "us", Lower, "serving"),
        ("rate.rung2_p99_us", "us", Lower, "serving"),
        ("rate.rung3_p99_us", "us", Lower, "serving"),
        ("rate.rung4_p99_us", "us", Lower, "serving"),
        ("rate.max_ok_ops_s", "1/s", Higher, "serving"),
    ] {
        v.push(spec(name, unit, better, layer));
    }
    v
}

/// `BENCHMARK.json`, from the lists above and `workloads::WORKLOADS`: the
/// committed file is this function's output (`gre-ledger manifest`), and a
/// test holds it to that.
pub fn manifest() -> String {
    let rows = |items: Vec<String>| items.join(",\n    ");
    let workloads = workloads::WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let metric = |s: &Spec| {
        let bound = s
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            s.name,
            s.unit,
            s.better.as_str()
        )
    };
    let listed = |specs: Vec<Spec>| specs.iter().filter(|s| s.listed).map(metric).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        workloads::RUN_SECONDS,
        rows(workloads),
        rows(listed(end_to_end())),
        rows(listed(per_layer())),
    )
}

/// One measured metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: Summary,
}

/// Everything one workload's run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub name: String,
    pub tape_digest: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl WorkloadReport {
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Errors, refusals, wrong answers and lost acknowledged writes over
    /// everything attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Record a metric; its unit comes from the spec list.
    pub fn push(&mut self, specs: &[Spec], name: &str, value: Summary) {
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the spec list"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: spec.unit.to_string(),
            value,
        });
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// "run" (untraced, end-to-end) or "trace" (per-layer).
    pub mode: String,
    pub seed: u64,
    pub seconds: u64,
    pub repeats: u64,
    pub cores: u64,
    pub workloads: Vec<WorkloadReport>,
}

// ---------------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------------

/// The text of `"key": ...` on `line`: a string's contents, or a number's
/// digits. Reports are read back in the one-field-per-line, one-metric-per-
/// line shape `to_json` writes, and nothing the ledger writes needs escaping.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let label = format!("\"{key}\": ");
    let rest = &line[line.find(&label)? + label.len()..];
    match rest.strip_prefix('"') {
        Some(text) => text.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

fn number<T: std::str::FromStr>(line: &str, key: &str) -> Result<Option<T>, String> {
    field(line, key)
        .map(|v| v.parse().map_err(|_| format!("`{key}`: bad number {v}")))
        .transpose()
}

fn quote(s: &str) -> String {
    format!("\"{s}\"")
}

/// A float with all its digits, in a form every JSON reader accepts.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": 1,");
        let _ = writeln!(out, "  \"mode\": {},", quote(&self.mode));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"seconds\": {},", self.seconds);
        let _ = writeln!(out, "  \"repeats\": {},", self.repeats);
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let _ = writeln!(
            out,
            "  \"pinned\": {{\"development_seed\": {}, \"held_out_seed\": {}, \"sized_for_cores\": {}, \"sync_policy\": \"EveryGroup\"}},",
            workloads::DEVELOPMENT_SEED,
            workloads::HELD_OUT_SEED,
            workloads::SIZED_FOR_CORES
        );
        let _ = writeln!(out, "  \"workloads\": [");
        for (wi, w) in self.workloads.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"name\": {},", quote(&w.name));
            let _ = writeln!(out, "      \"tape_digest\": {},", quote(&w.tape_digest));
            let _ = writeln!(out, "      \"attempted\": {},", w.attempted);
            let _ = writeln!(out, "      \"failed\": {},", w.failed);
            let _ = writeln!(out, "      \"metrics\": [");
            for (mi, m) in w.metrics.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "        {{\"name\": {}, \"unit\": {}, \"value\": {}, \"q1\": {}, \"q3\": {}, \"samples\": {}}}{}",
                    quote(&m.name),
                    quote(&m.unit),
                    num(m.value.value),
                    num(m.value.q1),
                    num(m.value.q3),
                    m.value.samples,
                    if mi + 1 < w.metrics.len() { "," } else { "" }
                );
            }
            let _ = writeln!(out, "      ]");
            let _ = writeln!(
                out,
                "    }}{}",
                if wi + 1 < self.workloads.len() {
                    ","
                } else {
                    ""
                }
            );
        }
        let _ = writeln!(out, "  ],");
        // The ledger defines the instrument; it never claims a gain.
        let _ = writeln!(out, "  \"claim\": null");
        let _ = writeln!(out, "}}");
        out
    }

    pub fn from_json(text: &str) -> Result<Report, String> {
        let (mut mode, mut seed, mut seconds, mut repeats, mut cores) =
            (None, None, None, None, None);
        let mut workloads: Vec<WorkloadReport> = Vec::new();
        for line in text.lines() {
            let (name, unit) = (field(line, "name"), field(line, "unit"));
            if let (Some(name), None) = (name, unit) {
                workloads.push(WorkloadReport {
                    name: name.to_string(),
                    tape_digest: String::new(),
                    attempted: 0,
                    failed: 0,
                    metrics: Vec::new(),
                });
            } else if let Some(w) = workloads.last_mut() {
                if let (Some(name), Some(unit)) = (name, unit) {
                    let part = |key: &str| -> Result<f64, String> {
                        number(line, key)?.ok_or(format!("metric {name} has no `{key}`"))
                    };
                    w.metrics.push(Metric {
                        name: name.to_string(),
                        unit: unit.to_string(),
                        value: Summary {
                            value: part("value")?,
                            q1: part("q1")?,
                            q3: part("q3")?,
                            samples: number(line, "samples")?
                                .ok_or(format!("metric {name} has no `samples`"))?,
                        },
                    });
                }
                if let Some(digest) = field(line, "tape_digest") {
                    w.tape_digest = digest.to_string();
                }
                w.attempted = number(line, "attempted")?.unwrap_or(w.attempted);
                w.failed = number(line, "failed")?.unwrap_or(w.failed);
            } else {
                mode = field(line, "mode").map(str::to_string).or(mode);
                seed = number(line, "seed")?.or(seed);
                seconds = number(line, "seconds")?.or(seconds);
                repeats = number(line, "repeats")?.or(repeats);
                cores = number(line, "cores")?.or(cores);
            }
        }
        if workloads.iter().any(|w| w.tape_digest.is_empty()) {
            return Err("a workload has no `tape_digest`".into());
        }
        Ok(Report {
            mode: mode.ok_or("missing `mode`")?,
            seed: seed.ok_or("missing `seed`")?,
            seconds: seconds.ok_or("missing `seconds`")?,
            repeats: repeats.ok_or("missing `repeats`")?,
            cores: cores.ok_or("missing `cores`")?,
            workloads,
        })
    }

    /// The human-readable table `run` and `trace` print.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        for w in &self.workloads {
            let _ = writeln!(
                out,
                "\n== {}  (tape {}, attempted {}, failed {})",
                w.name, w.tape_digest, w.attempted, w.failed
            );
            let _ = writeln!(
                out,
                "{:<38} {:>16} {:<6} {:>16} {:>16} {:>8}",
                "metric", "value", "unit", "q1", "q3", "samples"
            );
            for m in &w.metrics {
                let _ = writeln!(
                    out,
                    "{:<38} {:>16.4} {:<6} {:>16.4} {:>16.4} {:>8}",
                    m.name, m.value.value, m.unit, m.value.q1, m.value.q3, m.value.samples
                );
            }
            let _ = writeln!(
                out,
                "{:<38} {:>16.6} {:<6}",
                "failed_share",
                w.failed_share(),
                "share"
            );
        }
        out
    }
}

/// Merge repeated runs of the same inputs: each metric becomes the median of
/// its per-run values, with their quartiles (run-to-run spread replaces
/// within-run spread).
pub fn merge_repeats(mut runs: Vec<WorkloadReport>) -> WorkloadReport {
    let mut merged = runs.remove(0);
    if runs.is_empty() {
        return merged;
    }
    for m in &mut merged.metrics {
        let mut values = vec![m.value.value];
        values.extend(
            runs.iter()
                .filter_map(|r| r.get(&m.name))
                .map(|x| x.value.value),
        );
        m.value = Summary::of(&values);
    }
    for r in &runs {
        assert_eq!(r.tape_digest, merged.tape_digest, "repeats replay one tape");
        merged.attempted += r.attempted;
        merged.failed += r.failed;
    }
    merged
}

// ---------------------------------------------------------------------------
// compare.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Either side's spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against parent `a`. `change` is signed so that positive means
/// worse, as a share of the parent's value.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> (f64, Verdict) {
    let change = match better {
        Better::Lower => (b.value - a.value) / a.value,
        Better::Higher => (a.value - b.value) / a.value,
    };
    let v = if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Regressed
    } else if change < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (change, v)
}

/// A value for the comparison table: whole numbers once it is in the
/// thousands, four decimals below.
fn digits(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// The comparison table and whether it holds a regression (a `Regressed`
/// row, or more failed operations than the parent).
pub fn compare(a: &Report, b: &Report) -> Result<(String, bool, bool), String> {
    if (a.mode.as_str(), a.seed, a.seconds) != (b.mode.as_str(), b.seed, b.seconds) {
        return Err(format!(
            "reports differ in mode/seed/seconds: {}/{}/{} vs {}/{}/{}",
            a.mode, a.seed, a.seconds, b.mode, b.seed, b.seconds
        ));
    }
    let specs = end_to_end();
    let mut out = String::new();
    let (mut regressed, mut unresolved) = (false, false);
    let _ = writeln!(
        out,
        "{:<14} {:<20} {:>14} {:>24} {:>14} {:>24} {:>8} {:>6}  verdict",
        "workload", "metric", "A value", "A q1..q3", "B value", "B q1..q3", "worse%", "bound%"
    );
    for wa in &a.workloads {
        let wb = b
            .workloads
            .iter()
            .find(|w| w.name == wa.name)
            .ok_or(format!("workload {} missing from B", wa.name))?;
        if wa.tape_digest != wb.tape_digest {
            return Err(format!(
                "{}: tape digests differ — not the same inputs",
                wa.name
            ));
        }
        for s in &specs {
            let (Some(ma), Some(mb)) = (wa.get(&s.name), wb.get(&s.name)) else {
                continue;
            };
            let bound = s.bound.expect("end-to-end metrics have bounds");
            let (change, v) = verdict(&ma.value, &mb.value, s.better, bound);
            regressed |= v == Verdict::Regressed;
            unresolved |= v == Verdict::Unresolved;
            let _ = writeln!(
                out,
                "{:<14} {:<20} {:>14} {:>24} {:>14} {:>24} {:>+8.2} {:>6.1}  {}",
                wa.name,
                s.name,
                digits(ma.value.value),
                format!("{}..{}", digits(ma.value.q1), digits(ma.value.q3)),
                digits(mb.value.value),
                format!("{}..{}", digits(mb.value.q1), digits(mb.value.q3)),
                change * 100.0,
                bound * 100.0,
                v.as_str()
            );
        }
        let share = WorkloadReport::failed_share;
        let worse = share(wb) > share(wa);
        regressed |= worse;
        let _ = writeln!(
            out,
            "{:<14} {:<20} {:>14.6} {:>24} {:>14.6} {:>24} {:>8} {:>6}  {}",
            wa.name,
            "failed_share",
            share(wa),
            "",
            share(wb),
            "",
            "",
            "0",
            if worse { "regressed" } else { "unchanged" }
        );
    }
    Ok((out, regressed, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            value,
            q1,
            q3,
            samples: 10,
        }
    }

    #[test]
    fn verdict_table() {
        let tight = |m: f64| s(m, m * 0.99, m * 1.01);
        // Higher is better, bound 10 %.
        let v = |a, b| verdict(&a, &b, Better::Higher, 0.10).1;
        assert_eq!(v(tight(100.0), tight(100.0)), Verdict::Unchanged);
        assert_eq!(v(tight(100.0), tight(95.0)), Verdict::Unchanged);
        assert_eq!(v(tight(100.0), tight(85.0)), Verdict::Regressed);
        assert_eq!(v(tight(100.0), tight(115.0)), Verdict::Improved);
        assert_eq!(v(s(100.0, 90.0, 110.0), tight(50.0)), Verdict::Unresolved);
        assert_eq!(v(tight(100.0), s(50.0, 40.0, 60.0)), Verdict::Unresolved);
        // Lower is better: the sign flips.
        let v = |a, b| verdict(&a, &b, Better::Lower, 0.10);
        assert_eq!(v(tight(100.0), tight(115.0)).1, Verdict::Regressed);
        assert_eq!(v(tight(100.0), tight(85.0)).1, Verdict::Improved);
        assert!((v(tight(100.0), tight(115.0)).0 - 0.15).abs() < 1e-12);
    }

    fn sample_report() -> Report {
        let specs = end_to_end();
        let mut w = WorkloadReport {
            name: "read_fit".into(),
            tape_digest: "00ff".into(),
            attempted: 1000,
            failed: 0,
            metrics: Vec::new(),
        };
        w.push(
            &specs,
            "served_ops_s",
            s(1234567.891, 1200000.5, 1300000.25),
        );
        w.push(&specs, "setup_s", Summary::exact(0.0123456789));
        Report {
            mode: "run".into(),
            seed: 42,
            seconds: 16,
            repeats: 1,
            cores: 2,
            workloads: vec![w],
        }
    }

    #[test]
    fn json_round_trips_every_digit() {
        let r = sample_report();
        let text = r.to_json();
        assert!(text.contains("\"claim\": null"));
        assert_eq!(Report::from_json(&text).unwrap(), r);
    }

    #[test]
    fn reader_rejects_reports_it_cannot_trust() {
        let text = sample_report().to_json();
        assert!(Report::from_json(&text.replace("\"seed\": 42", "\"seed\": x")).is_err());
        assert!(Report::from_json(&text.replace("  \"mode\": \"run\",\n", "")).is_err());
        assert!(Report::from_json(&text.replace("\"q1\": ", "\"q\": ")).is_err());
        assert!(Report::from_json("").is_err());
    }

    #[test]
    fn compare_flags_regressions_failures_and_mismatched_inputs() {
        let a = sample_report();
        let mut b = a.clone();
        let (_, regressed, unresolved) = compare(&a, &b).unwrap();
        assert!(!regressed && !unresolved);
        b.workloads[0].metrics[0].value = s(800000.0, 790000.0, 810000.0);
        let (table, regressed, _) = compare(&a, &b).unwrap();
        assert!(regressed && table.contains("regressed"));
        let mut c = a.clone();
        c.workloads[0].failed = 1;
        assert!(compare(&a, &c).unwrap().1, "more failures is a regression");
        let mut d = a.clone();
        d.workloads[0].tape_digest = "beef".into();
        assert!(compare(&a, &d).is_err());
    }

    #[test]
    fn merged_repeats_report_run_to_run_spread() {
        let specs = end_to_end();
        let run = |v: f64| {
            let mut w = WorkloadReport {
                name: "w".into(),
                tape_digest: "d".into(),
                attempted: 10,
                failed: 0,
                metrics: Vec::new(),
            };
            w.push(&specs, "served_ops_s", s(v, v * 0.5, v * 1.5));
            w
        };
        let m = merge_repeats(vec![run(100.0), run(102.0), run(98.0)]);
        let v = m.get("served_ops_s").unwrap().value;
        assert_eq!((v.value, v.q1, v.q3, v.samples), (100.0, 99.0, 101.0, 3));
        assert_eq!(m.attempted, 30);
    }

    #[test]
    fn benchmark_json_is_the_manifest() {
        assert_eq!(manifest(), include_str!("../../BENCHMARK.json"));
    }
}
