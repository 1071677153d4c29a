//! The telemetry overhead probe behind `tests/telemetry_overhead.rs`.

use crate::RunOpts;
use gre_core::ConcurrentIndex;
use gre_learned::AlexPlus;
use gre_shard::{
    OpBatch, Partitioner, Session, ShardPipeline, ShardedIndex, DEFAULT_QUEUE_CAPACITY,
};
use gre_telemetry::Telemetry;
use gre_workloads::{phase_stream, KeyDist, Mix, Phase, Scenario};
use std::sync::Arc;
use std::time::Instant;

/// Range shards of the probed composite.
const SHARDS: usize = 4;

/// Ops per submitted batch.
const BATCH: usize = 1024;
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
/// through the pipeline: after one warm-up run, alternate `trials`
/// telemetry-off and telemetry-on runs of the same cell (ALEX+ over
/// `SHARDS` range shards, `opts.threads` workers and as many closed-loop
/// clients, each submitting `BATCH`-op batches through its own session and
/// waiting for each before the next, `opts.keys` gapped keys and as many
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
    let scenario = &scenario;
    let phase = &scenario.phases[0];
    let loaded = Arc::new(scenario.loaded_keys());
    let loaded = &loaded;

    let run = |instrument: bool| -> f64 {
        let mut index =
            ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| AlexPlus::<u64>::new());
        index.bulk_load(&scenario.bulk);
        let telemetry = instrument.then(|| Telemetry::shared(SHARDS, workers + 1));
        let pipeline = ShardPipeline::with_services(
            Arc::new(index),
            workers,
            DEFAULT_QUEUE_CAPACITY,
            telemetry,
            None,
        );
        let pipeline = &pipeline;
        let start = Instant::now();
        std::thread::scope(|scope| {
            for client in 0..workers {
                scope.spawn(move || {
                    let mut stream = phase_stream(scenario, loaded, 0, phase, client, workers);
                    let mut session = Session::with_max_inflight(pipeline, 1);
                    // The first `ops % workers` clients take one op more.
                    let extra = (client as u64) < phase.ops % workers as u64;
                    let mut left = phase.ops / workers as u64 + u64::from(extra);
                    while left > 0 {
                        let ops: Vec<_> = (0..left.min(BATCH as u64))
                            .map_while(|_| stream.next_op())
                            .collect();
                        left -= ops.len() as u64;
                        session.submit(OpBatch::new(ops));
                        session.recv();
                    }
                });
            }
        });
        phase.ops as f64 / start.elapsed().as_secs_f64() / 1e6
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
