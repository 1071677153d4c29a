//! Scenario engine end to end: multi-phase workload scripts executed by the
//! typed `Scenario`/`Driver` API against the serving layer.
//!
//! Two scripts:
//!
//! * **shifting-hotspot** — three closed-loop phases whose hot key window
//!   drifts across the key space (start fraction 0.05 → 0.45 → 0.85) under
//!   a read-mostly mix, driven directly against the sharded composite. The
//!   per-phase throughput shows how the backend copes as the working set
//!   moves away from the regions it has adapted to.
//! * **read-mostly→write-burst** — two **open-loop** phases through
//!   pipelined `Session`s: a steady read-mostly phase at a fixed arrival
//!   rate, then a write-burst phase at a higher rate. Latency is measured
//!   from each op's *intended* send time (coordinated-omission-safe), so
//!   the burst's queueing delay is charged to the requests that suffered
//!   it. The run asserts the achieved rate lands within 10% of the
//!   offered rate — the open-loop pacing contract.
//!
//! `--quick` shrinks spans and rates for a CI smoke run; `--verbose` prints
//! per-kind latency breakdowns.

use crate::report::{interval_series, print_phase_latency};
use crate::RunOpts;
use gre_core::ops::RequestKind;
use gre_datasets::Dataset;
use gre_learned::AlexPlus;
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex};
use gre_workloads::driver::{Driver, PhaseResult, ScenarioResult};
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};

pub fn run(opts: &RunOpts) {
    let keys = Dataset::Covid.generate(opts.keys, opts.seed);
    let store = || {
        ShardedIndex::from_factory(Partitioner::range(opts.shards.min(8)), |_| {
            AlexPlus::<u64>::new()
        })
    };
    let index = store();
    println!(
        "# Scenario engine: phase scripts over {}",
        super::sharded_label(&index)
    );

    shifting_hotspot(opts, &keys, index);
    read_mostly_then_write_burst(opts, &keys, store());
}

/// Closed-loop script: the hot window drifts across the key space.
fn shifting_hotspot(opts: &RunOpts, keys: &[u64], mut index: ShardedIndex<u64, AlexPlus<u64>>) {
    let phase_ops = if opts.quick { 40_000 } else { 400_000 } as u64;
    let threads = opts.threads.clamp(1, 8);
    let scenario = super::shifting_hotspot_scenario(opts.seed, keys, phase_ops, threads);

    let result = Driver::new().run(&scenario, &mut index);
    print_scenario(opts, &result);
    let total: u64 = result.total_ops();
    assert_eq!(
        total,
        3 * phase_ops,
        "every phase must run its full op budget"
    );
}

/// Open-loop script through pipelined sessions: steady read-mostly, then a
/// write burst at a higher arrival rate.
fn read_mostly_then_write_burst(
    opts: &RunOpts,
    keys: &[u64],
    index: ShardedIndex<u64, AlexPlus<u64>>,
) {
    let (steady_rate, burst_rate) = if opts.quick {
        (20_000.0, 40_000.0)
    } else {
        (100_000.0, 200_000.0)
    };
    // ~1.5s of steady traffic, ~1s of burst.
    let steady_ops = (steady_rate * 1.5) as u64;
    let burst_ops = burst_rate as u64;
    let scenario = Scenario::new("read-mostly->write-burst", opts.seed, keys)
        .phase(Phase::new(
            "steady",
            Mix::read_mostly(5),
            KeyDist::Zipf { theta: 0.99 },
            Span::Ops(steady_ops),
            Pacing::OpenLoop {
                rate_ops_s: steady_rate,
            },
        ))
        .phase(Phase::new(
            "burst",
            Mix::read_mostly(80),
            KeyDist::Uniform,
            Span::Ops(burst_ops),
            Pacing::OpenLoop {
                rate_ops_s: burst_rate,
            },
        ));

    let mut target = PipelineTarget::new(index, opts.threads.clamp(1, 8), 64, 8);
    let result = Driver::new()
        .open_loop_senders(opts.threads.clamp(1, 4))
        .run(&scenario, &mut target);
    print_scenario(opts, &result);

    for phase in &result.phases {
        let offered = phase.offered_rate.expect("both phases are open-loop");
        let achieved = phase.achieved_rate();
        let deviation = (achieved - offered).abs() / offered;
        println!(
            "  {}: offered {:.0} ops/s, achieved {:.0} ops/s (deviation {:.1}%), \
             p99 from intended send: get={:.1}us insert={:.1}us",
            phase.phase,
            offered,
            achieved,
            deviation * 100.0,
            phase.kind_summary(RequestKind::Get).p99_ns as f64 / 1e3,
            phase.kind_summary(RequestKind::Insert).p99_ns as f64 / 1e3,
        );
        assert!(
            deviation < 0.10,
            "{}: achieved rate {achieved:.0} deviates more than 10% from the \
             offered {offered:.0} ops/s",
            phase.phase
        );
        // Open loop times every completed op from its intended send time.
        assert_eq!(phase.latency.total_count(), phase.ops());
    }
    println!(
        "  burst interval series: {}",
        interval_series(result.phase("burst").expect("burst phase ran"), 8)
    );
}

fn print_scenario(opts: &RunOpts, result: &ScenarioResult) {
    println!("\n## {} on {}", result.scenario, result.target);
    println!(
        "{:<22} {:>8} {:>10} {:>9} {:>12} {:>12}",
        "phase", "threads", "ops", "Mop/s", "read p99 us", "write p99 us"
    );
    for phase in &result.phases {
        print_phase_row(phase);
        if opts.verbose {
            print_phase_latency("      ", phase);
        }
    }
}

fn print_phase_row(phase: &PhaseResult) {
    println!(
        "{:<22} {:>8} {:>10} {:>9.3} {:>12.1} {:>12.1}",
        phase.phase,
        phase.threads,
        phase.ops(),
        phase.throughput_mops(),
        phase.read_summary().p99_ns as f64 / 1e3,
        phase.write_summary().p99_ns as f64 / 1e3,
    );
}
