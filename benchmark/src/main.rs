//! The layer-tax ledger. See `README.md` for the metrics, the workloads and
//! how to read a report.
//!
//! ```text
//! gre-ledger run     [--workload W] [--seed S] [--seconds N] [--repeats R] [--quick] [--out F]
//! gre-ledger trace   (same flags: the traced run)
//! gre-ledger compare A.json B.json
//! gre-ledger manifest            (writes BENCHMARK.json: `manifest > ../BENCHMARK.json`)
//! ```
//!
//! `BENCHMARK.json`'s `command` ends in `run`, and its consumer appends
//! `--workload W --seed S --seconds N --trace 0|1`; `run --trace 1` is
//! `trace`, and that is the only use of the flag.

mod clients;
mod e2e;
mod ladder;
mod openloop;
mod report;
mod stack;
mod stats;
mod tape;
mod workloads;

use report::{Report, Spec, WorkloadReport};
use std::process::ExitCode;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    repeats: u64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(command: &str, rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workloads::DEVELOPMENT_SEED,
        seconds: workloads::RUN_SECONDS,
        repeats: 1,
        trace: command == "trace",
        out: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--repeats" => args.repeats = number(value()?)?.max(1),
            "--trace" if command == "run" => args.trace = number(value()?)? != 0,
            "--quick" => args.seconds = 1,
            "--out" => args.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// The machine-readable last line: every metric of the mode's list that
/// `BENCHMARK.json` lists, in list order. A per-layer metric that does not
/// apply to the workload (it is absent from the report) reads 0 here,
/// because the line's consumer wants every name on every workload.
fn result_line(w: &WorkloadReport, specs: &[Spec]) -> String {
    let metrics: Vec<String> = specs
        .iter()
        .filter(|s| s.listed)
        .map(|s| {
            let value = w.get(&s.name).map_or(0.0, |m| m.value.value);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                s.name, s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.failed == 0,
        w.attempted.max(1),
        w.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let selected: Vec<&workloads::Workload> = match &args.workload {
        Some(name) => vec![workloads::find(name).ok_or(format!("unknown workload {name}"))?],
        None => workloads::WORKLOADS.iter().collect(),
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores != workloads::SIZED_FOR_CORES {
        eprintln!(
            "note: sized for {} cores, running on {cores}",
            workloads::SIZED_FOR_CORES
        );
    }
    let mut report = Report {
        mode: if args.trace { "trace" } else { "run" }.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        repeats: args.repeats,
        cores: cores as u64,
        workloads: Vec::new(),
    };
    for w in selected {
        let runs: Vec<WorkloadReport> = (0..args.repeats)
            .map(|_| {
                if args.trace {
                    ladder::run(w, args.seed, args.seconds as f64)
                } else {
                    e2e::run(w, args.seed, args.seconds as f64)
                }
            })
            .collect();
        report.workloads.push(report::merge_repeats(runs));
    }
    print!("{}", report.to_table());
    if let Some(path) = &args.out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        println!("\nreport written to {path}");
    }
    let failed: u64 = report.workloads.iter().map(|w| w.failed).sum();
    if let [only] = report.workloads.as_slice() {
        let specs = if args.trace {
            report::per_layer()
        } else {
            report::end_to_end()
        };
        println!("{}", result_line(only, &specs));
    }
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failed} operations failed");
        ExitCode::FAILURE
    })
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare takes two report files".into());
    };
    let load = |p: &String| -> Result<Report, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"))?;
        Report::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, regressed, unresolved) = report::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    println!(
        "regressed: {}  unresolved: {}",
        if regressed { "yes" } else { "no" },
        if unresolved { "yes" } else { "no" }
    );
    // 1 = a regression; 2 = no regression, but some row could not be told.
    Ok(match (regressed, unresolved) {
        (true, _) => ExitCode::from(1),
        (false, true) => ExitCode::from(2),
        (false, false) => ExitCode::SUCCESS,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "run" || cmd == "trace" => {
            parse_args(cmd, rest).and_then(|args| run(&args))
        }
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        Some((cmd, [])) if cmd == "manifest" => {
            print!("{}", report::manifest());
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: gre-ledger run|trace [flags] | compare A.json B.json | manifest".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(64)
    })
}
