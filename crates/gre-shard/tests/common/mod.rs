//! Serving a scenario through the pipeline the way its clients do: one
//! [`Session`] per client thread.

use gre_core::ConcurrentIndex;
use gre_shard::{OpBatch, Session, ShardPipeline};
use gre_workloads::scenario::{phase_stream, Phase, Scenario};
use gre_workloads::Tally;
use std::sync::Arc;

/// Client `client`'s share of `phase`'s op budget, as the `Driver` splits
/// it: an even share, the first `ops % clients` clients one op more.
pub fn client_budget(phase: &Phase, client: usize) -> u64 {
    let clients = phase.threads.max(1) as u64;
    phase.ops / clients + u64::from((client as u64) < phase.ops % clients)
}

/// Serve every phase of `scenario` through `pipeline`, in script order, and
/// return each phase's tally of the responses. Each of a phase's clients,
/// on its own thread, draws its [`client_budget`] from its seeded stream and
/// submits it in `batch`-op batches through one session holding at most
/// `window.max(1)` of them in flight, then drains the session. The caller
/// loads `scenario.bulk` into the store before it builds the pipeline.
pub fn serve_scenario<B: ConcurrentIndex<u64> + 'static>(
    pipeline: &ShardPipeline<B>,
    scenario: &Scenario,
    batch: usize,
    window: usize,
) -> Vec<Tally> {
    let keys = Arc::new(scenario.loaded_keys());
    let keys = &keys;
    let mut phases = Vec::with_capacity(scenario.phases.len());
    for (pi, phase) in scenario.phases.iter().enumerate() {
        let clients = phase.threads.max(1);
        let tally = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    scope.spawn(move || {
                        let mut stream = phase_stream(scenario, keys, pi, phase, t, clients);
                        let mut session = Session::with_max_inflight(pipeline, window.max(1));
                        let mut left = client_budget(phase, t);
                        while left > 0 {
                            let ops: Vec<_> = (0..left.min(batch.max(1) as u64))
                                .map_while(|_| stream.next_op())
                                .collect();
                            if ops.is_empty() {
                                break;
                            }
                            left -= ops.len() as u64;
                            session.submit(OpBatch::new(ops));
                        }
                        let mut tally = Tally::default();
                        for responses in session.drain() {
                            tally.merge(&Tally::of(&responses));
                        }
                        tally
                    })
                })
                .collect();
            let mut tally = Tally::default();
            for handle in handles {
                tally.merge(&handle.join().expect("client thread panicked"));
            }
            tally
        });
        phases.push(tally);
    }
    phases
}
