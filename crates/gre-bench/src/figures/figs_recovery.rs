//! Durability end to end: what group commit costs on the serving path, and
//! what crash recovery guarantees when the process dies mid-stream.
//!
//! Two parts:
//!
//! * **Group-commit cost probe** — the same seeded write-heavy scenario
//!   served three times through a `PipelineTarget`: WAL detached, WAL with
//!   `SyncPolicy::EveryGroup` (a barrier per group: whatever a shard had
//!   queued when its worker turned to it), and WAL with
//!   `SyncPolicy::EveryN(8)`. Reports throughput for each, the WAL
//!   append/fsync counts and the mean group size (logged writes per
//!   record), and then a timed full recovery whose rebuilt state is
//!   compared entry-for-entry against the live store.
//! * **Crash matrix** — for ALEX+ and B+treeOLC, a seeded write stream is
//!   killed at scripted failpoints (clean kill, crash during the sync
//!   barrier, a torn short-write, an append error, a crash between snapshot
//!   rename and WAL truncate). Each round tracks the accepted-op model (the
//!   non-error responses), recovers from disk, and asserts the rebuilt
//!   index equals the model exactly — no lost ack, no ghost op — reporting
//!   recovery time and replayed ops per cell.
//!
//! Results land in `figs_recovery_report.json` (CI uploads it as an
//! artifact). `--quick` shrinks the spans for a CI smoke run.

use crate::registry::IndexBuilder;
use crate::RunOpts;
use gre_core::json::JsonWriter;
use gre_core::{ConcurrentIndex, Payload, RangeSpec, Response};
use gre_datasets::Dataset;
use gre_durability::util::TempDir;
use gre_durability::{
    DurableLog, FailAction, FailpointRegistry, Recovery, SyncPolicy, Trigger, WalStats,
};
use gre_shard::{OpBatch, Partitioner, PipelineTarget, ShardPipeline};
use gre_workloads::driver::Driver;
use gre_workloads::scenario::{KeyDist, Mix, Pacing, Phase, Scenario, Span};
use gre_workloads::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const REPORT_OUT: &str = "figs_recovery_report.json";
const SHARDS: usize = 4;

pub fn run(opts: &RunOpts) {
    println!("# Durability: group-commit cost and fault-injected crash recovery");

    let cost = cost_probe(opts);
    let matrix = crash_matrix(opts);

    let json = report_json(opts, &cost, &matrix);
    std::fs::write(REPORT_OUT, &json).expect("write recovery report");
    println!("\nreport -> {REPORT_OUT} ({} bytes)", json.len());
}

// ---------------------------------------------------------------------------
// Part 1: group-commit throughput cost + timed whole-scenario recovery.
// ---------------------------------------------------------------------------

struct CostProbe {
    backend: String,
    base_mops: f64,
    every_group_mops: f64,
    every_n_mops: f64,
    wal: WalStats,
    /// Mean writes per WAL record (`writes / appends`), per policy row.
    every_group_ops_per_group: f64,
    every_n_ops_per_group: f64,
    recovery_ms: f64,
    replayed_ops: u64,
    recovered_entries: usize,
}

fn write_heavy_scenario(opts: &RunOpts, keys: &[u64], ops: u64) -> Scenario {
    Scenario::new("durability-cost", opts.seed, keys).phase(Phase::new(
        "write-heavy",
        Mix::points(2, 5, 2, 1),
        KeyDist::Uniform,
        Span::Ops(ops),
        Pacing::ClosedLoop {
            threads: opts.threads.clamp(1, 8),
        },
    ))
}

fn cost_probe(opts: &RunOpts) -> CostProbe {
    let keys = Dataset::Covid.generate(opts.keys, opts.seed);
    let spec = IndexBuilder::backend("alex+")
        .expect("alex+ registered")
        .shards(SHARDS);
    let phase_ops = if opts.quick { 40_000 } else { 200_000 } as u64;
    let threads = opts.threads.clamp(1, 8);
    let scenario = write_heavy_scenario(opts, &keys, phase_ops);

    println!(
        "\n## Group-commit cost ({}, {} threads, {} write-heavy ops)",
        spec.display_name(),
        threads,
        phase_ops
    );

    let run_plain = |label: &str| {
        let mut target = PipelineTarget::new(spec.build_sharded(), threads, 256, 0);
        let result = Driver::new().run(&scenario, &mut target);
        let p = &result.phases[0];
        assert_eq!(p.tally.errors, 0, "{label}: no refusals without faults");
        println!("  {label:<22} {:.3} Mop/s", p.throughput_mops());
        p.throughput_mops()
    };
    let base_mops = run_plain("wal detached");

    let run_durable = |label: &str, policy: SyncPolicy| {
        let tmp = TempDir::new("figs-recovery-cost");
        let mut target =
            PipelineTarget::new(spec.build_sharded(), threads, 256, 0).durable(tmp.path(), policy);
        let result = Driver::new().run(&scenario, &mut target);
        let p = &result.phases[0];
        assert_eq!(p.tally.errors, 0, "{label}: no refusals without faults");
        let log = Arc::clone(target.durability().expect("durable target is loaded"));
        let stats = log.stats();
        // The load's checkpoint emptied the log, so once the policy's
        // unsynced tail is flushed it holds exactly the run's writes.
        log.sync_all().expect("flush the run's tail");
        let writes = Recovery::recover(tmp.path())
            .expect("scan WAL dir")
            .replayed_ops();
        let ops_per_group = writes as f64 / stats.appends as f64;
        println!(
            "  {label:<22} {:.3} Mop/s  ({} appends, {} fsyncs, {ops_per_group:.1} ops/group)",
            p.throughput_mops(),
            stats.appends,
            stats.fsyncs
        );
        (p.throughput_mops(), stats, ops_per_group, tmp, target)
    };
    let (every_group_mops, wal, every_group_ops_per_group, tmp, target) =
        run_durable("wal sync=every-group", SyncPolicy::EveryGroup);
    let (every_n_mops, _, every_n_ops_per_group, _tmp_n, _target_n) =
        run_durable("wal sync=every-8", SyncPolicy::EveryN(8));

    // Timed recovery of the every-group run, checked entry-for-entry: the
    // state rebuilt purely from disk must equal the live store.
    let started = Instant::now();
    let rec = Recovery::recover(tmp.path()).expect("scan WAL dir");
    let mut rebuilt = spec.build();
    let replayed_ops = rec.replay_into(&mut *rebuilt);
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;

    let live = target.index();
    assert!(rec.is_clean(), "an uninjected run recovers clean");
    assert_eq!(rebuilt.len(), live.len(), "recovered size");
    let scan_all = |index: &dyn ConcurrentIndex<u64>| {
        let mut out: Vec<(u64, Payload)> = Vec::with_capacity(index.len());
        index.range(RangeSpec::new(0, index.len() + 1), &mut out);
        out
    };
    assert_eq!(
        scan_all(&*rebuilt),
        scan_all(live),
        "recovered entries must equal the live store exactly"
    );
    println!(
        "  recovery: {} groups, {replayed_ops} ops replayed over {} snapshot keys \
         in {recovery_ms:.1} ms — rebuilt store matches live exactly",
        rec.shards.iter().map(|s| s.groups.len()).sum::<usize>(),
        rec.shards
            .iter()
            .filter_map(|s| s.snapshot.as_ref().map(|sn| sn.entries.len()))
            .sum::<usize>(),
    );

    CostProbe {
        backend: spec.display_name(),
        base_mops,
        every_group_mops,
        every_n_mops,
        wal,
        every_group_ops_per_group,
        every_n_ops_per_group,
        recovery_ms,
        replayed_ops,
        recovered_entries: rebuilt.len(),
    }
}

// ---------------------------------------------------------------------------
// Part 2: the crash matrix.
// ---------------------------------------------------------------------------

struct CrashCell {
    backend: &'static str,
    scenario: &'static str,
    accepted: usize,
    refused: usize,
    replayed_ops: u64,
    recovery_ms: f64,
    equivalent: bool,
}

/// Apply `op` to the model iff it was accepted; panics if an accepted
/// response diverges from the model (single sequential submitter, so
/// accepted responses are deterministic).
fn apply_accepted(
    model: &mut BTreeMap<u64, Payload>,
    op: Op,
    resp: &Response<u64>,
    ctx: &str,
) -> bool {
    if resp.is_error() {
        return false;
    }
    let expected = match op {
        Op::Get(k) => Response::Get(model.get(&k).copied()),
        Op::Insert(k, v) => Response::Insert(model.insert(k, v).is_none()),
        Op::Update(k, v) => Response::Update(match model.get_mut(&k) {
            Some(slot) => {
                *slot = v;
                true
            }
            None => false,
        }),
        Op::Remove(k) => Response::Remove(model.remove(&k)),
        Op::Range(_) => unreachable!("crash stream has no ranges"),
    };
    assert_eq!(*resp, expected, "{ctx}: accepted response diverged");
    true
}

fn random_write_or_get(rng: &mut StdRng, domain: u64) -> Op {
    let key = rng.gen_range(0..domain);
    match rng.gen_range(0..8u32) {
        0..=1 => Op::Get(key),
        2..=4 => Op::Insert(key, rng.gen()),
        5..=6 => Op::Update(key, rng.gen()),
        _ => Op::Remove(key),
    }
}

/// A scripted failpoint: named point, when it fires, what it does.
type Script = (&'static str, Trigger, FailAction);

fn crash_matrix(opts: &RunOpts) -> Vec<CrashCell> {
    // (scenario label, scripted failpoint) — None = clean kill mid-stream.
    let scripts: [(&'static str, Option<Script>); 5] = [
        ("clean-kill", None),
        (
            "crash-on-sync",
            Some(("wal/0/sync", Trigger::OnHit(5), FailAction::Crash)),
        ),
        (
            "torn-short-write",
            Some((
                "wal/1/append",
                Trigger::OnHit(4),
                FailAction::ShortWrite { keep: 13 },
            )),
        ),
        (
            "error-on-append",
            Some(("wal/2/append", Trigger::OnHit(3), FailAction::Error)),
        ),
        (
            // OnHit(2): hit 1 is the bulk-load checkpoint; the crash lands on
            // the mid-stream checkpoint's truncate, after its snapshot has
            // already been renamed in.
            "checkpoint-race",
            Some(("wal/0/truncate", Trigger::OnHit(2), FailAction::Crash)),
        ),
    ];

    println!("\n## Crash matrix (kill at injected fault, recover, compare to accepted ops)");
    let mut cells = Vec::new();
    for backend in ["ALEX+", "B+treeOLC"] {
        for (label, script) in scripts {
            let cell = crash_cell(opts, backend, label, script);
            println!(
                "  {:<10} {:<17} accepted={:<5} refused={:<4} replayed={:<5} \
                 recovery={:.2} ms  {}",
                cell.backend,
                cell.scenario,
                cell.accepted,
                cell.refused,
                cell.replayed_ops,
                cell.recovery_ms,
                if cell.equivalent {
                    "EQUIVALENT"
                } else {
                    "DIVERGED"
                }
            );
            assert!(cell.equivalent, "{backend}/{label}: recovery must be exact");
            cells.push(cell);
        }
    }
    cells
}

fn crash_cell(
    opts: &RunOpts,
    backend: &'static str,
    label: &'static str,
    script: Option<Script>,
) -> CrashCell {
    let ctx = format!("{backend}/{label}");
    let spec = IndexBuilder::backend(backend)
        .expect("registered backend")
        .shards(SHARDS);
    let tmp = TempDir::new("figs-recovery-matrix");
    let rounds = if opts.quick { 30 } else { 80 };
    let batch = if opts.quick { 64 } else { 128 };
    let domain = 30_000u64;

    let mut idx = spec.build_sharded();
    let bulk: Vec<(u64, Payload)> = (0..3_000u64).map(|i| (i * 7, i)).collect();
    idx.bulk_load(&bulk);
    let mut model: BTreeMap<u64, Payload> = bulk.iter().copied().collect();

    let registry = FailpointRegistry::new();
    if let Some((point, trigger, action)) = script {
        registry.script(point, trigger, action);
    }
    let log = DurableLog::create_injected(
        tmp.path(),
        SHARDS,
        SyncPolicy::EveryGroup,
        Arc::clone(&registry),
    )
    .expect("create injected log");
    // The bulk load bypasses the pipeline: checkpoint it so recovery starts
    // from the loaded state.
    let partitioner = Partitioner::range(SHARDS);
    let shard_entries = |model: &BTreeMap<u64, Payload>, shard: usize| -> Vec<(u64, Payload)> {
        model
            .iter()
            .map(|(&k, &v)| (k, v))
            .filter(|&(k, _)| partitioner.shard_of(k) == shard)
            .collect()
    };
    for shard in 0..SHARDS {
        log.checkpoint(shard, &shard_entries(&model, shard))
            .expect("checkpoint bulk load");
    }

    let pipeline: ShardPipeline<Box<dyn ConcurrentIndex<u64>>> =
        ShardPipeline::with_services(Arc::new(idx), 2, 64, None, Some(log));
    let mut rng = StdRng::seed_from_u64(opts.seed ^ label.len() as u64);
    let (mut accepted, mut refused) = (0usize, 0usize);
    for round in 0..rounds {
        // The checkpoint-race cell runs a mid-stream checkpoint of shard 0
        // while it is quiesced (sequential submit-and-wait): the scripted
        // truncate crash fires *after* the snapshot has been renamed in, so
        // recovery must reconcile a fresh snapshot with an untruncated WAL.
        if label == "checkpoint-race" && round == rounds / 2 {
            let log = Arc::clone(pipeline.durability().expect("durable"));
            let _ = log.checkpoint(0, &shard_entries(&model, 0));
        }
        let ops: Vec<Op> = (0..batch)
            .map(|_| random_write_or_get(&mut rng, domain))
            .collect();
        let responses = pipeline.submit(OpBatch::new(ops.clone())).wait();
        for (&op, resp) in ops.iter().zip(&responses) {
            if apply_accepted(&mut model, op, resp, &ctx) {
                accepted += 1;
            } else {
                refused += 1;
            }
        }
    }
    if let Some((point, _, _)) = script {
        assert!(registry.fired(point), "{ctx}: scripted fault never fired");
    }
    let live = Arc::clone(pipeline.index());
    drop(pipeline); // the kill: workers join, surviving shards sync
    assert_eq!(
        live.len(),
        model.len(),
        "{ctx}: fail-stop keeps memory exact"
    );

    let started = Instant::now();
    let rec = Recovery::recover(tmp.path()).expect("scan WAL dir");
    let mut rebuilt = spec.build();
    let replayed_ops = rec.replay_into(&mut *rebuilt);
    let recovery_ms = started.elapsed().as_secs_f64() * 1e3;

    let equivalent =
        rebuilt.len() == model.len() && model.iter().all(|(&k, &v)| rebuilt.get(k) == Some(v));
    CrashCell {
        backend,
        scenario: label,
        accepted,
        refused,
        replayed_ops,
        recovery_ms,
        equivalent,
    }
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

fn report_json(opts: &RunOpts, cost: &CostProbe, matrix: &[CrashCell]) -> String {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("schema").u64(1);
        w.key("quick").bool(opts.quick);
        w.key("seed").u64(opts.seed);
        w.key("cost").object(|w| {
            w.key("backend").str(&cost.backend);
            w.key("base_mops").f64(cost.base_mops);
            w.key("every_group_mops").f64(cost.every_group_mops);
            w.key("every_n_mops").f64(cost.every_n_mops);
            w.key("wal_appends").u64(cost.wal.appends);
            w.key("wal_fsyncs").u64(cost.wal.fsyncs);
            w.key("every_group_ops_per_group")
                .f64(cost.every_group_ops_per_group);
            w.key("every_n_ops_per_group")
                .f64(cost.every_n_ops_per_group);
            w.key("recovery_ms").f64(cost.recovery_ms);
            w.key("replayed_ops").u64(cost.replayed_ops);
            w.key("recovered_entries")
                .u64(cost.recovered_entries as u64);
        });
        w.key("crash_matrix").array(|w| {
            for cell in matrix {
                w.object(|w| {
                    w.key("backend").str(cell.backend);
                    w.key("scenario").str(cell.scenario);
                    w.key("accepted").u64(cell.accepted as u64);
                    w.key("refused").u64(cell.refused as u64);
                    w.key("replayed_ops").u64(cell.replayed_ops);
                    w.key("recovery_ms").f64(cell.recovery_ms);
                    w.key("equivalent").bool(cell.equivalent);
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
        let opts =
            RunOpts::parse([String::from("--seed"), String::from("7")]).expect("valid flags");
        let cost = CostProbe {
            backend: String::from("sharded(\"ALEX+\",4)"),
            base_mops: 2.5,
            every_group_mops: 0.5,
            every_n_mops: f64::NAN,
            wal: WalStats {
                appends: 10,
                fsyncs: 4,
            },
            every_group_ops_per_group: 64.0,
            every_n_ops_per_group: 51.5,
            recovery_ms: 12.25,
            replayed_ops: 640,
            recovered_entries: 3000,
        };
        let matrix = [CrashCell {
            backend: "ALEX+",
            scenario: "clean-kill",
            accepted: 100,
            refused: 2,
            replayed_ops: 98,
            recovery_ms: 0.5,
            equivalent: true,
        }];
        assert_eq!(
            report_json(&opts, &cost, &matrix),
            r#"{"schema": 1, "quick": false, "seed": 7, "cost": {"backend": "sharded(\"ALEX+\",4)", "base_mops": 2.5, "every_group_mops": 0.5, "every_n_mops": null, "wal_appends": 10, "wal_fsyncs": 4, "every_group_ops_per_group": 64, "every_n_ops_per_group": 51.5, "recovery_ms": 12.25, "replayed_ops": 640, "recovered_entries": 3000}, "crash_matrix": [{"backend": "ALEX+", "scenario": "clean-kill", "accepted": 100, "refused": 2, "replayed_ops": 98, "recovery_ms": 0.5, "equivalent": true}]}"#
        );
    }
}
