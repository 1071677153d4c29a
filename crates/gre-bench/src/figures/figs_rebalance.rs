//! Elastic rebalancing end to end: serve a scripted hotspot collapse through
//! an instrumented `PipelineTarget` with an [`ElasticController`] watching
//! the telemetry, and show the serving layer heal itself:
//!
//! * phase 1 (`uniform`) establishes the balanced-load baseline;
//! * phase 2 (`hotspot`) parks 90% of the traffic on one range shard — the
//!   per-interval series shows the collapse while the controller detects the
//!   sustained imbalance and splits the hot range live, migrating segments
//!   onto the cooler shards;
//! * phase 3 (`hotspot-steady`) keeps the same skewed distribution and
//!   measures the *post-split* steady state, which must recover to within
//!   25% of the uniform baseline (asserted);
//! * a `hash`-partitioned control runs the identical script with no
//!   controller: hash routing is skew-resistant by construction, which is
//!   exactly why the paper's range-sharded learned indexes need elasticity
//!   while hash sharding gives up range scans to get it for free.
//!
//! Serving is never *globally* paused (asserted two ways):
//!
//! * every settled interval of the steady phases (`uniform`,
//!   `hotspot-steady`) retires operations — the per-interval series has no
//!   holes outside the active-migration phase;
//! * a dedicated **prober thread** reads the store's minimum key in a tight
//!   loop through all three phases. A split freezes only the *upper* half
//!   `[mid, hi)` of a segment, so the global minimum key can never be inside
//!   a frozen window — the prober's completion gaps measure exactly how long
//!   serving *outside* the migrating range ever stalls, and the maximum gap
//!   must stay far below the migration pauses the driver threads see (their
//!   closed-loop batches mix hot keys in, so they legitimately park while
//!   the hot range is frozen).
//!
//! The per-interval series, topology changes, prober gaps, and counters are
//! exported to `figs_rebalance.json` (uploaded as a CI artifact). `--quick`
//! shrinks the spans for a CI smoke run.

use crate::report::interval_series;
use crate::RunOpts;
use gre_core::json::JsonWriter;
use gre_datasets::Dataset;
use gre_elastic::{ElasticController, ElasticPolicy};
use gre_learned::AlexPlus;
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
use gre_telemetry::CounterId;
use gre_workloads::driver::{Driver, PhaseResult, ScenarioResult};
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// JSON report consumed by CI as an artifact.
const REPORT_OUT: &str = "figs_rebalance.json";

/// The steady-state throughput floor relative to the uniform baseline.
const RECOVERY_FLOOR: f64 = 0.75;

/// Worst tolerated gap between consecutive prober completions. Sized to sit
/// far below a real migration pause (hundreds of ms while a segment's keys
/// transfer) but far above scheduler noise on a loaded CI box.
const MAX_PROBE_GAP: Duration = Duration::from_millis(250);

pub fn run(opts: &RunOpts) {
    let keys = Dataset::Covid.generate(opts.keys, opts.seed);
    // Exactly 4 shards with one worker each: the hot quarter is exactly one
    // shard, and that shard's FIFO queue serializes on its pinned worker —
    // the collapse the controller exists to heal.
    let shards = 4;
    let threads = opts.threads.clamp(2, 8);
    // Time-based phases: migration convergence is a wall-clock process (a
    // handful of splits separated by sustain+cooldown ticks, each pausing
    // the moved range while its keys transfer), so op-count phases would
    // make the steady-state phase start at an unpredictable point.
    let phase_time = |millis: u64| {
        Span::Time(Duration::from_millis(if opts.quick {
            millis / 4
        } else {
            millis
        }))
    };
    let interval = Duration::from_millis(if opts.quick { 20 } else { 50 });
    // The controller ticks much faster than the driver's reporting interval
    // so a sustained imbalance is detected within a few reporting rows.
    let controller_interval = Duration::from_millis(if opts.quick { 2 } else { 5 });

    // 90% of accesses land on the hot quarter of the keyspace — i.e. on
    // exactly one of the 4 range shards.
    let hotspot = KeyDist::Hotspot {
        start: 0.75,
        span: 0.25,
        hot_access: 0.9,
    };
    // Read-only: the figure isolates *routing* skew. A write mix would
    // degrade the learned backends over the run (model aging) and blur the
    // recovery comparison against the pre-shift baseline.
    let mix = Mix::read_only();
    let pacing = Pacing::ClosedLoop { threads };
    let scenario = |name: &str| {
        Scenario::new(name, opts.seed, &keys)
            .phase(Phase::new(
                "uniform",
                mix,
                KeyDist::Uniform,
                phase_time(1_000),
                pacing,
            ))
            // The collapse-and-react window: long enough for the controller
            // to detect, split a few times, and settle.
            .phase(Phase::new(
                "hotspot",
                mix,
                hotspot,
                phase_time(3_000),
                pacing,
            ))
            .phase(Phase::new(
                "hotspot-steady",
                mix,
                hotspot,
                phase_time(2_000),
                pacing,
            ))
    };

    // --- Range-sharded target with the elasticity controller attached. ---
    let index = ShardedIndex::from_factory(Partitioner::range(shards), |_| AlexPlus::<u64>::new());
    println!(
        "# Rebalance: {} + elastic controller",
        super::sharded_label(&index)
    );
    let elastic_scenario = scenario("hotspot-collapse");
    let mut target = PipelineTarget::new(index, shards, 256, 0).instrumented();
    // Pre-load so the pipeline exists before the driver starts; the
    // driver's own load() call then no-ops (loading is idempotent).
    use gre_workloads::driver::ServeTarget;
    target.load(&elastic_scenario.bulk);
    let pipeline = target.pipeline_handle().expect("loaded above");

    // Split whenever a shard sustains over 35% of the traffic (fair share
    // is 25%): the 90%-hot shard splits to 2x45%, both still qualify, and
    // splitting continues until the skew is spread to roughly fair shares.
    // Merging is effectively disabled — this figure is about splits, and the
    // ~2.5% background share of the cool shards sits near any useful merge
    // threshold.
    let policy = ElasticPolicy {
        hot_share: 0.35,
        hot_sustain: 2,
        cold_share: 0.001,
        cold_sustain: u32::MAX,
        cooldown: 2,
        min_ops_per_tick: 200,
        min_split_keys: 256,
    };
    let controller = Arc::new(ElasticController::new(pipeline, policy));
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let controller = Arc::clone(&controller);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || controller.run(&stop, controller_interval))
    };
    // A second observer samples the per-shard load so the figure can show
    // the hot shard's share collapsing back to fair after the splits.
    let monitor = super::spawn_shard_monitor(
        Arc::clone(target.telemetry().expect("instrumented")),
        Arc::clone(&stop),
        interval,
    );

    // The liveness prober: read the store's minimum key in a tight loop.
    // Splits freeze only the *upper* half `[mid, hi)` of a segment, so this
    // key is never inside a frozen window — any long gap between its
    // completions would mean serving paused globally.
    let prober = {
        let pipeline = target.pipeline_handle().expect("loaded above");
        let min_key = elastic_scenario.bulk.first().expect("non-empty bulk").0;
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut last = std::time::Instant::now();
            let mut max_gap = Duration::ZERO;
            let mut probes = 0u64;
            while !stop.load(Ordering::Acquire) {
                let responses = pipeline
                    .submit(gre_shard::OpBatch::new(vec![gre_core::ops::Request::Get(
                        min_key,
                    )]))
                    .wait();
                assert_eq!(responses.len(), 1, "the probe op must be answered");
                let now = std::time::Instant::now();
                max_gap = max_gap.max(now - last);
                last = now;
                probes += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            (probes, max_gap)
        })
    };

    let elastic = Driver::new()
        .interval(interval)
        .run(&elastic_scenario, &mut target);
    stop.store(true, Ordering::Release);
    watcher.join().expect("controller thread panicked");
    let shard_series = monitor.join().expect("monitor thread panicked");
    let (probes, max_probe_gap) = prober.join().expect("prober thread panicked");

    print_phases(&elastic);
    print_shard_shares(&shard_series);
    let changes = controller.changes();
    println!("\n## Topology changes ({})", changes.len());
    for c in &changes {
        println!(
            "  {:?} shard{}->shard{} keys={} pause={}us epoch={}",
            c.kind, c.from, c.to, c.keys_moved, c.pause_micros, c.epoch
        );
    }
    let snap = target.telemetry().expect("instrumented").snapshot();
    println!(
        "  counters: splits {}/{} merges {}/{} keys_migrated {} pause_us {}",
        snap.counter(CounterId::SplitsStarted),
        snap.counter(CounterId::SplitsCompleted),
        snap.counter(CounterId::MergesStarted),
        snap.counter(CounterId::MergesCompleted),
        snap.counter(CounterId::KeysMigrated),
        snap.counter(CounterId::MigrationPauseMicros),
    );

    // --- Hash-partitioned control: skew-resistant, no controller. ---
    let index = ShardedIndex::from_factory(Partitioner::hash(shards), |_| AlexPlus::<u64>::new());
    println!(
        "\n# Control: {} (no controller)",
        super::sharded_label(&index)
    );
    let mut hash_target = PipelineTarget::new(index, shards, 256, 0);
    let hash = Driver::new()
        .interval(interval)
        .run(&scenario("hotspot-collapse-hash"), &mut hash_target);
    print_phases(&hash);

    // --- Assertions: the acceptance properties of the figure. ---
    // (1) The controller reacted: at least one split committed.
    assert!(
        snap.counter(CounterId::SplitsCompleted) >= 1,
        "the sustained hotspot must trigger at least one live split"
    );
    // (2a) Steady-state serving has no holes: every settled interval of the
    // non-migrating phases retired operations (the final interval of a
    // phase may be a partial window, so it is exempt). The `hotspot` phase
    // is where migrations pause the hot range — the closed-loop driver
    // batches mix hot keys into every batch, so they park while it is
    // frozen; that phase's liveness is carried by the prober instead.
    for (run, phases) in [
        (&elastic, &["uniform", "hotspot-steady"][..]),
        (&hash, &["uniform", "hotspot", "hotspot-steady"][..]),
    ] {
        for name in phases {
            let phase = phase_named(run, name);
            let settled = &phase.intervals[..phase.intervals.len().saturating_sub(1)];
            assert!(
                settled.iter().all(|&ops| ops > 0),
                "{}/{}: an empty settled interval means serving paused: {:?}",
                run.scenario,
                phase.phase,
                phase.intervals
            );
        }
    }
    // (2b) Serving was never *globally* paused: the min-key prober — whose
    // key can never be inside a frozen split window — kept completing
    // throughout, with a worst gap far below the per-migration pauses.
    println!(
        "\n## Prober: {probes} min-key reads, max completion gap {:?} (budget {:?})",
        max_probe_gap, MAX_PROBE_GAP
    );
    assert!(probes > 0, "the prober must have run");
    assert!(
        max_probe_gap <= MAX_PROBE_GAP,
        "serving paused globally: the min-key prober stalled {max_probe_gap:?} \
         (budget {MAX_PROBE_GAP:?})"
    );
    // (3) Post-split steady state recovers to within 25% of the uniform
    // baseline.
    let baseline = median_interval_ops(phase_named(&elastic, "uniform"));
    let steady = median_interval_ops(phase_named(&elastic, "hotspot-steady"));
    let ratio = steady as f64 / baseline as f64;
    println!(
        "\n## Recovery: baseline {baseline} ops/interval, post-split steady {steady} \
         ({ratio:.2}x, floor {RECOVERY_FLOOR})"
    );
    assert!(
        ratio >= RECOVERY_FLOOR,
        "post-split steady state must recover to within 25% of the uniform baseline \
         (got {ratio:.2}x)"
    );

    let json = report_json(
        &elastic,
        &hash,
        &changes,
        baseline,
        steady,
        probes,
        max_probe_gap,
    );
    std::fs::write(REPORT_OUT, json).expect("write report");
    println!("  report -> {REPORT_OUT}");
}

fn phase_named<'a>(run: &'a ScenarioResult, name: &str) -> &'a PhaseResult {
    run.phase(name).expect("scripted phase exists")
}

/// Median completions per settled (non-final) interval of a phase — robust
/// against the ramp-in rows at a phase boundary and the partial last window.
fn median_interval_ops(phase: &PhaseResult) -> u64 {
    let mut settled: Vec<u64> = phase.intervals[..phase.intervals.len().saturating_sub(1)].to_vec();
    assert!(
        !settled.is_empty(),
        "phase {} too short for an interval series",
        phase.phase
    );
    settled.sort_unstable();
    settled[settled.len() / 2]
}

/// Print the sampled per-shard load series: each row is one monitor window
/// with the busiest shard's share of that window's completions.
fn print_shard_shares(series: &[Vec<u64>]) {
    println!("\n## Per-shard load (ops/window, monitor thread)");
    let active: Vec<&Vec<u64>> = series
        .iter()
        .filter(|d| d.iter().sum::<u64>() > 0)
        .collect();
    let cols = active.len().min(10);
    let stride = active.len().div_ceil(cols.max(1)).max(1);
    for (i, deltas) in active.iter().enumerate().step_by(stride) {
        let total: u64 = deltas.iter().sum();
        let max = *deltas.iter().max().expect("at least one shard");
        println!(
            "  t{i:<3} hot_share={:.2}  {}",
            max as f64 / total as f64,
            deltas
                .iter()
                .map(|d| format!("{d:>7}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
}

fn print_phases(run: &ScenarioResult) {
    println!("\n## {} on {}", run.scenario, run.target);
    for phase in &run.phases {
        println!(
            "{:<16} ops={:<8} {:.3} Mop/s  read p99 {:.1}us",
            phase.phase,
            phase.ops(),
            phase.throughput_mops(),
            phase.read_summary().p99_ns as f64 / 1e3,
        );
        println!("  throughput: {}", interval_series(phase, 8));
    }
}

/// Interval series per phase for both runs, the committed topology changes,
/// and the recovery verdict.
fn report_json(
    elastic: &ScenarioResult,
    hash: &ScenarioResult,
    changes: &[gre_elastic::BoundaryChange],
    baseline: u64,
    steady: u64,
    probes: u64,
    max_probe_gap: Duration,
) -> String {
    let series = |w: &mut JsonWriter, run: &ScenarioResult| {
        w.array(|w| {
            for p in &run.phases {
                w.object(|w| {
                    w.key("phase").str(&p.phase);
                    w.key("ops").u64(p.ops());
                    w.key("elapsed_ns").u64(p.elapsed_ns);
                    w.key("intervals").array(|w| {
                        for &ops in &p.intervals {
                            w.u64(ops);
                        }
                    });
                });
            }
        });
    };
    let mut w = JsonWriter::new();
    w.object(|w| {
        series(w.key("elastic"), elastic);
        series(w.key("hash"), hash);
        w.key("changes").array(|w| {
            for c in changes {
                w.object(|w| {
                    w.key("kind").str(&format!("{:?}", c.kind));
                    w.key("from").u64(c.from as u64);
                    w.key("to").u64(c.to as u64);
                    w.key("keys_moved").u64(c.keys_moved as u64);
                    w.key("pause_micros").u64(c.pause_micros);
                    w.key("epoch").u64(c.epoch);
                });
            }
        });
        w.key("baseline_ops_per_interval").u64(baseline);
        w.key("steady_ops_per_interval").u64(steady);
        w.key("probes").u64(probes);
        w.key("max_probe_gap_micros")
            .u64(max_probe_gap.as_micros() as u64);
        w.key("recovery_ratio").f64(steady as f64 / baseline as f64);
        w.key("recovery_floor").f64(RECOVERY_FLOOR);
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gre_core::{BoundaryChange, TopologyKind};
    use gre_workloads::driver::Tally;

    fn run(phase: &str, ops: u64, intervals: Vec<u64>) -> ScenarioResult {
        ScenarioResult {
            scenario: String::from("s"),
            target: String::from("t"),
            bulk_load_ns: 0,
            phases: vec![PhaseResult {
                phase: phase.to_string(),
                threads: 2,
                offered_rate: None,
                elapsed_ns: 1_000,
                tally: Tally {
                    ops,
                    ..Tally::default()
                },
                latency: Default::default(),
                intervals,
                interval_latency: Vec::new(),
                interval_ns: 500,
            }],
        }
    }

    /// A zero baseline used to print `recovery_ratio` as a bare `NaN`, and a
    /// phase name went out unescaped.
    #[test]
    fn report_json_golden_bytes() {
        let change = BoundaryChange {
            id: 1,
            kind: TopologyKind::Split,
            lo: None,
            hi: Some(9),
            from: 3,
            to: 0,
            keys_moved: 128,
            epoch: 2,
            pause_micros: 77,
        };
        let json = report_json(
            &run("hot\"spot", 30, vec![10, 20]),
            &run("uniform", 0, vec![]),
            &[change],
            0,
            0,
            5,
            Duration::from_micros(1_250),
        );
        assert_eq!(
            json,
            r#"{"elastic": [{"phase": "hot\"spot", "ops": 30, "elapsed_ns": 1000, "intervals": [10, 20]}], "hash": [{"phase": "uniform", "ops": 0, "elapsed_ns": 1000, "intervals": []}], "changes": [{"kind": "Split", "from": 3, "to": 0, "keys_moved": 128, "pause_micros": 77, "epoch": 2}], "baseline_ops_per_interval": 0, "steady_ops_per_interval": 0, "probes": 5, "max_probe_gap_micros": 1250, "recovery_ratio": null, "recovery_floor": 0.75}"#
        );
    }
}
