//! The telemetry overhead probe behind `tests/telemetry_overhead.rs`.

use crate::RunOpts;
use gre_learned::AlexPlus;
use gre_shard::{Partitioner, PipelineTarget, ShardedIndex, DEFAULT_DRIVER_BATCH};
use gre_workloads::scenario::{KeyDist, Mix, Phase, Scenario};
use gre_workloads::Driver;

/// 1 in 8 closed-loop ops is timed from its intended send time: dense enough
/// for stable tails on `--quick` op counts, sparse enough that
/// `Instant::now()` stays out of the measured hot path.
const SAMPLE_STRIDE: usize = 8;

/// Range shards of the probed composite.
const SHARDS: usize = 4;

/// Throughput of the telemetry overhead probe's two runs.
#[derive(Debug, Clone, Copy)]
pub struct OverheadProbe {
    /// Read-only pipeline throughput without telemetry, Mop/s.
    pub base_mops: f64,
    /// Same cell with full telemetry (metrics + default trace sampling).
    pub instrumented_mops: f64,
}

impl OverheadProbe {
    /// Instrumented over base throughput: 1.0 means telemetry was free,
    /// 0.97 means a 3% overhead.
    pub fn ratio(&self) -> f64 {
        if self.base_mops > 0.0 {
            self.instrumented_mops / self.base_mops
        } else {
            0.0
        }
    }
}

/// Measure the telemetry overhead budget on a uniform read-only mix served
/// through the pipeline target: after one warm-up run, alternate `trials`
/// telemetry-off and telemetry-on runs of the same cell (ALEX+ over
/// `SHARDS` range shards, closed loop, `opts.keys` gapped keys and as many
/// ops) and keep each side's best throughput — back-to-back best-of runs
/// cancel most scheduler noise.
pub fn telemetry_overhead_probe(opts: &RunOpts, trials: usize) -> OverheadProbe {
    let keys: Vec<u64> = (1..=opts.keys as u64).map(|i| i * 16).collect();
    let workers = opts.threads.max(1);
    let scenario = Scenario::new("read_only", opts.seed, &keys).phase(Phase::new(
        "read_only",
        Mix::read_only(),
        KeyDist::Uniform,
        opts.keys as u64,
        workers,
    ));

    let run = |instrument: bool| -> f64 {
        let driver = Driver::new().sample_stride(SAMPLE_STRIDE);
        let index =
            ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| AlexPlus::<u64>::new());
        let mut target = PipelineTarget::new(index, workers, DEFAULT_DRIVER_BATCH, 0);
        if instrument {
            target = target.instrumented();
        }
        let result = driver.run(&scenario, &mut target);
        result.phases[0].throughput_mops()
    };

    let _ = run(false);
    let mut probe = OverheadProbe {
        base_mops: 0.0,
        instrumented_mops: 0.0,
    };
    for _ in 0..trials.max(1) {
        probe.base_mops = probe.base_mops.max(run(false));
        probe.instrumented_mops = probe.instrumented_mops.max(run(true));
    }
    probe
}
