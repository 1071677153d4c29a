//! Latency-vs-offered-rate knee sweep: where does the serving path
//! saturate, and what does the latency curve look like on the way there?
//!
//! For each target — the bare batched pipeline and a 2-replica
//! [`ReplicatedTarget`] — the sweep first calibrates capacity with a short
//! closed-loop burst, then offers open-loop traffic at a ladder of
//! fractions of that capacity. Open-loop latency is measured from each
//! op's *intended* send time (coordinated-omission-safe), so as the
//! offered rate crosses capacity the per-interval p99 series explodes:
//! that inflection is the knee. A point is saturated when its achieved
//! rate falls below 90% of the offered rate; the knee estimate is the
//! first saturated rung of the ladder.
//!
//! Results (per-point achieved rate, merged and per-interval p99s, knee
//! estimates) land in `figs_knee.json`. `--quick` shrinks spans for a CI
//! smoke run.

use crate::registry::IndexBuilder;
use crate::RunOpts;
use gre_core::json::JsonWriter;
use gre_core::RequestKind;
use gre_datasets::Dataset;
use gre_durability::util::TempDir;
use gre_replica::ReplicatedTarget;
use gre_workloads::driver::{Driver, PhaseResult, ServeTarget};
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
use std::time::Duration;

const REPORT_OUT: &str = "figs_knee.json";
const SHARDS: usize = 4;
/// Offered-rate ladder, as fractions of the calibrated capacity.
const LADDER: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5];
/// A rung is saturated when achieved < this fraction of offered.
const SATURATION: f64 = 0.9;
/// Open-loop sender threads.
const SENDERS: usize = 4;

struct KneePoint {
    offered: f64,
    achieved: f64,
    p50_us: f64,
    p99_us: f64,
    max_us: f64,
    /// Per-interval p99 series, µs (0 for intervals with no completion).
    interval_p99_us: Vec<f64>,
    saturated: bool,
}

struct KneeCurve {
    target: &'static str,
    capacity_ops_s: f64,
    points: Vec<KneePoint>,
    /// First saturated offered rate, if the ladder reached saturation.
    knee_ops_s: Option<f64>,
}

pub fn run(opts: &RunOpts) {
    let keys = Dataset::Covid.generate(opts.keys, opts.seed);
    let span = if opts.quick {
        Duration::from_millis(250)
    } else {
        Duration::from_millis(1_500)
    };

    println!(
        "# Knee sweep: open-loop offered-rate ladder {LADDER:?} x capacity, \
         {}ms spans, {SENDERS} senders",
        span.as_millis()
    );

    let curves = vec![
        sweep("pipeline", opts, &keys, span),
        sweep("replicated", opts, &keys, span),
    ];

    for curve in &curves {
        match curve.knee_ops_s {
            Some(knee) => println!(
                "{}: capacity {:.0} ops/s, knee at {:.0} ops/s offered",
                curve.target, curve.capacity_ops_s, knee
            ),
            None => println!(
                "{}: capacity {:.0} ops/s, no saturation within the ladder",
                curve.target, curve.capacity_ops_s
            ),
        }
    }

    let json = report_json(opts, span, &curves);
    std::fs::write(REPORT_OUT, &json).expect("write knee report");
    println!("\nreport -> {REPORT_OUT} ({} bytes)", json.len());
}

/// Build a fresh serving target of the named flavor, bulk-loaded with
/// `keys`. A fresh instance per measurement keeps the rungs independent.
/// The target is returned before its WAL TempDir so it drops (joining
/// shipper threads) while the directory still exists.
fn build_target(target: &'static str, keys: &[u64]) -> (Box<dyn ServeTarget>, Option<TempDir>) {
    let spec = IndexBuilder::backend("alex+")
        .expect("alex+ registered")
        .shards(SHARDS);
    let bulk: Vec<(u64, u64)> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u64))
        .collect();
    match target {
        "pipeline" => {
            let mut t = gre_shard::PipelineTarget::new(spec.build_sharded(), 2, 256);
            t.load(&bulk);
            (Box::new(t), None)
        }
        "replicated" => {
            let tmp = TempDir::new("figs-knee");
            let factory_spec = IndexBuilder::backend("alex+")
                .expect("alex+ registered")
                .shards(SHARDS);
            let mut t =
                ReplicatedTarget::new(spec.build_sharded(), 2, 256, tmp.path(), move |_| {
                    factory_spec.build()
                })
                .with_replicas(2)
                .replica_workers(2);
            t.load(&bulk);
            (Box::new(t), Some(tmp))
        }
        other => unreachable!("unknown target {other}"),
    }
}

fn sweep(target: &'static str, opts: &RunOpts, keys: &[u64], span: Duration) -> KneeCurve {
    // Calibrate: a short closed-loop burst measures what the target can
    // actually deliver on this machine; the ladder is relative to that.
    let cal_ops: u64 = if opts.quick { 20_000 } else { 80_000 };
    let cal = Scenario::new("knee-calibrate", opts.seed, keys).phase(Phase::new(
        "calibrate",
        Mix::read_mostly(5),
        KeyDist::Uniform,
        Span::Ops(cal_ops),
        Pacing::ClosedLoop { threads: SENDERS },
    ));
    let capacity = {
        let (mut t, _tmp) = build_target(target, keys);
        let result = Driver::new().run(&cal, t.as_mut());
        result.phases[0].achieved_rate()
    };
    assert!(capacity > 0.0, "{target}: calibration measured a rate");
    println!("\n## {target} (calibrated capacity {capacity:.0} ops/s)");
    println!(
        "{:>14} {:>14} {:>10} {:>10} {:>14}",
        "offered/s", "achieved/s", "p50 us", "p99 us", "max intvl p99"
    );

    let mut points = Vec::new();
    for fraction in LADDER {
        let offered = capacity * fraction;
        let scenario = Scenario::new("knee", opts.seed, keys).phase(Phase::new(
            "paced",
            Mix::read_mostly(5),
            KeyDist::Uniform,
            Span::Time(span),
            Pacing::OpenLoop {
                rate_ops_s: offered,
            },
        ));
        let (mut t, _tmp) = build_target(target, keys);
        let result = Driver::new()
            .interval(Duration::from_millis(50))
            .open_loop_senders(SENDERS)
            .run(&scenario, t.as_mut());
        let point = knee_point(offered, &result.phases[0]);
        println!(
            "{:>14.0} {:>14.0} {:>10.1} {:>10.1} {:>14.1}{}",
            point.offered,
            point.achieved,
            point.p50_us,
            point.p99_us,
            point.interval_p99_us.iter().cloned().fold(0.0f64, f64::max),
            if point.saturated { "  SATURATED" } else { "" }
        );
        points.push(point);
    }

    // Structural sanity: every rung completed work, and the lightest rung
    // was comfortably delivered (it offers a quarter of measured capacity).
    assert!(
        points.iter().all(|p| p.achieved > 0.0),
        "{target}: rungs ran"
    );
    assert!(
        points[0].achieved > points[0].offered * 0.5,
        "{target}: the 0.25x rung is deliverable ({:.0} of {:.0} ops/s)",
        points[0].achieved,
        points[0].offered
    );

    let knee_ops_s = points.iter().find(|p| p.saturated).map(|p| p.offered);
    KneeCurve {
        target,
        capacity_ops_s: capacity,
        points,
        knee_ops_s,
    }
}

fn knee_point(offered: f64, phase: &PhaseResult) -> KneePoint {
    let hist = phase.latency.merged(&RequestKind::ALL);
    let achieved = phase.achieved_rate();
    KneePoint {
        offered,
        achieved,
        p50_us: hist.percentile(0.50) as f64 / 1e3,
        p99_us: hist.percentile(0.99) as f64 / 1e3,
        max_us: hist.max() as f64 / 1e3,
        interval_p99_us: phase
            .interval_percentiles(0.99)
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect(),
        saturated: achieved < offered * SATURATION,
    }
}

fn report_json(opts: &RunOpts, span: Duration, curves: &[KneeCurve]) -> String {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("schema").u64(1);
        w.key("quick").bool(opts.quick);
        w.key("seed").u64(opts.seed);
        w.key("span_ms").u64(span.as_millis() as u64);
        w.key("saturation_fraction").f64(SATURATION);
        w.key("targets").array(|w| {
            for curve in curves {
                w.object(|w| {
                    w.key("target").str(curve.target);
                    w.key("capacity_ops_s").f64(curve.capacity_ops_s);
                    w.key("knee_ops_s");
                    match curve.knee_ops_s {
                        Some(knee) => w.f64(knee),
                        None => w.null(),
                    };
                    w.key("points").array(|w| {
                        for p in &curve.points {
                            w.object(|w| {
                                w.key("offered_ops_s").f64(p.offered);
                                w.key("achieved_ops_s").f64(p.achieved);
                                w.key("p50_us").f64(p.p50_us);
                                w.key("p99_us").f64(p.p99_us);
                                w.key("max_us").f64(p.max_us);
                                w.key("saturated").bool(p.saturated);
                                w.key("interval_p99_us").array(|w| {
                                    for &v in &p.interval_p99_us {
                                        w.f64(v);
                                    }
                                });
                            });
                        }
                    });
                });
            }
        });
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_golden_bytes() {
        let opts = RunOpts::parse([String::from("--quick")]).expect("valid flags");
        let point = |offered: f64, achieved: f64| KneePoint {
            offered,
            achieved,
            p50_us: 1.5,
            p99_us: f64::NAN,
            max_us: 9.0,
            interval_p99_us: vec![0.0, 2.25],
            saturated: achieved < offered * SATURATION,
        };
        let curves = [
            KneeCurve {
                target: "pipe\"line",
                capacity_ops_s: 1000.0,
                points: vec![point(250.0, 250.0), point(1500.0, 1000.0)],
                knee_ops_s: Some(1500.0),
            },
            KneeCurve {
                target: "replicated",
                capacity_ops_s: f64::INFINITY,
                points: vec![],
                knee_ops_s: None,
            },
        ];
        const POINT: &str = r#""p50_us": 1.5, "p99_us": null, "max_us": 9, "saturated": "#;
        assert_eq!(
            report_json(&opts, Duration::from_millis(250), &curves),
            format!(
                r#"{{"schema": 1, "quick": true, "seed": 42, "span_ms": 250, "saturation_fraction": 0.9, "targets": [{{"target": "pipe\"line", "capacity_ops_s": 1000, "knee_ops_s": 1500, "points": [{{"offered_ops_s": 250, "achieved_ops_s": 250, {POINT}false, "interval_p99_us": [0, 2.25]}}, {{"offered_ops_s": 1500, "achieved_ops_s": 1000, {POINT}true, "interval_p99_us": [0, 2.25]}}]}}, {{"target": "replicated", "capacity_ops_s": null, "knee_ops_s": null, "points": []}}]}}"#
            )
        );
    }
}
