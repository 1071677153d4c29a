//! Kill-and-recover model equivalence for the durable pipeline, over real
//! backends (ALEX+ and B+tree/p64) and a matrix of scripted crash points.
//!
//! Protocol under test (see `docs/DURABILITY.md`): every sub-batch's writes
//! are group-committed to the per-shard WAL *before* execution — one record
//! for whatever the shard had queued — and a group the log cannot accept
//! answers `IndexError::Shutdown`, every member of it, without executing.
//! So at any crash point the set of accepted (non-error) responses is
//! exactly the durable state: rebuilding an index purely from disk must
//! reproduce the model of accepted operations — no lost ack, no ghost op.

use gre_core::{ConcurrentIndex, IndexError, Payload, Response};
use gre_durability::util::TempDir;
use gre_durability::{
    DurableLog, FailAction, FailpointRegistry, Recovery, SyncPolicy, Trigger, WalError,
};
use gre_learned::AlexPlus;
use gre_shard::{
    OpBatch, Partitioner, Session, ShardPipeline, ShardedIndex, DEFAULT_QUEUE_CAPACITY,
};
use gre_traditional::btree_olc;
use gre_workloads::Op;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

type DynBackend = Box<dyn ConcurrentIndex<u64>>;
type BackendFactory = fn() -> DynBackend;

fn backends() -> Vec<(&'static str, BackendFactory)> {
    vec![
        ("ALEX+", || Box::new(AlexPlus::<u64>::new())),
        ("B+tree/p64", || Box::new(btree_olc::<u64>())),
    ]
}

const SHARDS: usize = 4;

/// A durable pipeline of two workers over a fresh composite, opened on the
/// log directory `dir`: a restart when `dir` holds a history, else `bulk`
/// loaded and checkpointed.
fn durable(
    factory: BackendFactory,
    dir: &Path,
    bulk: &[(u64, Payload)],
) -> std::io::Result<ShardPipeline<DynBackend>> {
    let mut idx = ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| factory());
    let log = idx.load_durable(bulk, dir, SyncPolicy::EveryGroup)?;
    Ok(ShardPipeline::with_services(
        Arc::new(idx),
        2,
        DEFAULT_QUEUE_CAPACITY,
        None,
        Some(log),
    ))
}

/// Apply `op` to the model iff the pipeline accepted it, asserting the live
/// response matched the model's prediction (one submitter and per-shard
/// FIFO, so accepted responses are deterministic).
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
        Op::Range(_) => unreachable!("write-and-get stream has no ranges"),
    };
    assert_eq!(*resp, expected, "{ctx}: accepted response diverges");
    true
}

fn random_write_or_get(rng: &mut StdRng) -> Op {
    let key = rng.gen_range(0..30_000u64);
    match rng.gen_range(0..8u32) {
        0..=1 => Op::Get(key),
        2..=4 => Op::Insert(key, rng.gen()),
        5..=6 => Op::Update(key, rng.gen()),
        _ => Op::Remove(key),
    }
}

/// Checkpoint `shard` of `idx` as `entries` (the whole store) has it.
fn checkpoint_shard(
    log: &DurableLog,
    idx: &ShardedIndex<u64, DynBackend>,
    entries: &[(u64, Payload)],
    shard: usize,
) -> Result<(), WalError> {
    let mine: Vec<(u64, Payload)> = entries
        .iter()
        .copied()
        .filter(|&(k, _)| idx.shard_of(k) == shard)
        .collect();
    log.checkpoint(shard, &mine)
}

/// Rebuild a single flat backend purely from the on-disk state (shards
/// partition the key space, so their union replays into one index), then
/// check it holds exactly the accepted-op model.
fn assert_disk_matches_model(
    dir: &std::path::Path,
    factory: BackendFactory,
    model: &BTreeMap<u64, Payload>,
    ctx: &str,
) {
    let rec = Recovery::recover(dir).unwrap();
    let mut rebuilt = factory();
    rec.replay_into(&mut *rebuilt);
    assert_eq!(rebuilt.len(), model.len(), "{ctx}: recovered size");
    for (&k, &v) in model {
        assert_eq!(rebuilt.get(k), Some(v), "{ctx}: key {k}");
    }
}

/// Batches a [`serve_pipelined`] client keeps in flight: deep enough that a
/// worker paying a barrier per group finds several sub-batches queued behind
/// it, so the groups the faults hit really are coalesced ones.
const WINDOW: usize = 8;

/// What one [`serve_pipelined`] stream came to.
#[derive(Default)]
struct Served {
    /// Ops answered `IndexError::Shutdown`.
    refused: usize,
    /// Per-shard sub-batches with at least one acknowledged write. Each is
    /// in exactly one WAL record, so more of these than records appended
    /// means some record carried more than one sub-batch.
    logged_sub_batches: u64,
}

/// Serve `batches` seeded 32-op batches through a [`Session`] holding
/// [`WINDOW`] of them in flight, applying every accepted response to `model`
/// in submission order (per-shard FIFO keeps that exact: same-key ops share
/// a shard, and a refused op never executed).
fn serve_pipelined(
    pipeline: &ShardPipeline<DynBackend>,
    rng: &mut StdRng,
    batches: usize,
    model: &mut BTreeMap<u64, Payload>,
    ctx: &str,
) -> Served {
    let sent: Vec<Vec<Op>> = (0..batches)
        .map(|_| (0..32).map(|_| random_write_or_get(rng)).collect())
        .collect();
    let mut session = Session::with_max_inflight(pipeline, WINDOW);
    for ops in &sent {
        session.submit(OpBatch::new(ops.clone()));
    }
    let partitioner = pipeline.index().partitioner();
    let mut served = Served::default();
    for (ops, responses) in sent.iter().zip(session.drain()) {
        let mut logged = [false; SHARDS];
        for (&op, resp) in ops.iter().zip(&responses) {
            if !apply_accepted(model, op, resp, ctx) {
                served.refused += 1;
            } else if let Op::Insert(k, _) | Op::Update(k, _) | Op::Remove(k) = op {
                logged[partitioner.shard_of(k)] = true;
            }
        }
        served.logged_sub_batches += logged.iter().filter(|&&l| l).count() as u64;
    }
    served
}

/// One full kill-and-recover round: bulk load + checkpoint, serve a seeded
/// write stream — pipelined, so groups coalesce — through a durable pipeline
/// whose WAL crashes at a scripted failpoint, "kill" the process (drop the
/// pipeline; the injected sink has already dropped whatever a real crash
/// would lose), then recover from disk and demand exact accepted-op
/// equivalence. Halfway through the stream, with the session drained,
/// shard 0 is checkpointed, so recovery also reconciles a mid-stream
/// snapshot (and a truncate failpoint lands between its rename and its WAL
/// truncate). Then the store restarts on the crashed directory, twice, and
/// each restart's writes must recover exactly too. Returns the number of
/// refused ops so callers can assert the crash actually bit.
fn crash_round(name: &str, factory: BackendFactory, script: (&str, Trigger, FailAction)) -> usize {
    let (point, trigger, action) = script;
    let ctx = format!("{name}/{point:?}");
    let tmp = TempDir::new("durable-pipeline");

    let mut idx = ShardedIndex::from_factory(Partitioner::range(SHARDS), |_| factory());
    let bulk: Vec<(u64, Payload)> = (0..3_000u64).map(|i| (i * 7, i)).collect();
    idx.bulk_load(&bulk);
    let mut model: BTreeMap<u64, Payload> = bulk.iter().copied().collect();

    let registry = FailpointRegistry::new();
    registry.script(point, trigger, action);
    let log = DurableLog::create_injected(
        tmp.path(),
        SHARDS,
        SyncPolicy::EveryGroup,
        Arc::clone(&registry),
    )
    .unwrap();
    // The bulk load bypasses the pipeline; checkpoint it per shard so
    // recovery starts from the loaded state.
    for shard in 0..SHARDS {
        checkpoint_shard(&log, &idx, &bulk, shard).unwrap();
    }

    let pipeline = ShardPipeline::with_services(Arc::new(idx), 2, 64, None, Some(Arc::clone(&log)));
    let mut rng = StdRng::seed_from_u64(0xC4A54u64 ^ point.len() as u64);
    let mut served = serve_pipelined(&pipeline, &mut rng, 20, &mut model, &ctx);
    let entries: Vec<(u64, Payload)> = model.iter().map(|(&k, &v)| (k, v)).collect();
    match checkpoint_shard(&log, pipeline.index(), &entries, 0) {
        Ok(()) => {}
        // A shard the fault already fail-stopped refuses the checkpoint…
        Err(WalError::Failed) if log.is_failed(0) => {}
        // …and a scripted truncate crash lands inside it.
        Err(WalError::Io(_)) if point == "wal/0/truncate" && registry.fired(point) => {}
        Err(e) => panic!("{ctx}: mid-stream checkpoint failed: {e}"),
    }
    let rest = serve_pipelined(&pipeline, &mut rng, 20, &mut model, &ctx);
    served.refused += rest.refused;
    served.logged_sub_batches += rest.logged_sub_batches;
    assert!(
        registry.fired(point),
        "{ctx}: the scripted failpoint never fired — the scenario is vacuous"
    );
    assert!(
        log.stats().appends < served.logged_sub_batches,
        "{ctx}: {} records for {} logged sub-batches — no group ever held more than one job, \
         so the fault never hit a coalesced group",
        log.stats().appends,
        served.logged_sub_batches
    );
    let live = Arc::clone(pipeline.index());
    drop(pipeline); // the "kill": workers join, survivor shards sync

    // The live in-memory state never ran ahead of the log (fail-stop)…
    assert_eq!(live.len(), model.len(), "{ctx}: live size");
    // …and the state rebuilt purely from disk is the accepted-op model.
    assert_disk_matches_model(tmp.path(), factory, &model, &ctx);

    // Recover-and-continue, twice, through the durable load's restart:
    // reload each shard of a fresh composite with its own
    // recovered state (under the cut those states imply, so no key leaves
    // the shard whose log holds its history), resume the log with torn
    // tails truncated and without a checkpoint, serve more writes, kill
    // again. Each next recovery must still be exact: crash damage does not
    // compound.
    for restart in 1..=2 {
        let ctx = format!("{ctx}/restart-{restart}");
        let pipeline = durable(factory, tmp.path(), &[]).unwrap();
        let resumed = serve_pipelined(&pipeline, &mut rng, 10, &mut model, &ctx);
        assert_eq!(
            resumed.refused, 0,
            "{ctx}: resumed log must accept every group"
        );
        drop(pipeline); // the "kill"
        assert_disk_matches_model(tmp.path(), factory, &model, &ctx);
    }
    served.refused
}

/// The crash matrix, elementwise: each scripted fault against each backend.
/// Sync crashes and append errors leave a clean (if shorter) log; short
/// writes leave a torn tail recovery must truncate. In every case the
/// crashed group was never acked, so equivalence stays exact.
#[test]
fn killed_mid_group_commit_recovers_to_accepted_state() {
    for (name, factory) in backends() {
        let refused = crash_round(
            name,
            factory,
            ("wal/0/sync", Trigger::OnHit(4), FailAction::Crash),
        );
        assert!(refused > 0, "{name}: a crashed shard must refuse later ops");
    }
}

#[test]
fn torn_write_at_injected_offset_recovers_to_accepted_state() {
    for (name, factory) in backends() {
        let refused = crash_round(
            name,
            factory,
            (
                "wal/1/append",
                Trigger::OnHit(3),
                FailAction::ShortWrite { keep: 9 },
            ),
        );
        assert!(refused > 0, "{name}: the torn shard must refuse later ops");
    }
}

#[test]
fn append_error_fail_stops_the_shard_and_recovers_exactly() {
    for (name, factory) in backends() {
        let refused = crash_round(
            name,
            factory,
            ("wal/2/append", Trigger::OnHit(2), FailAction::Error),
        );
        assert!(
            refused > 0,
            "{name}: the failed shard must refuse later ops"
        );
    }
}

/// A crash between the mid-stream checkpoint's snapshot rename and its WAL
/// truncate (hit 1 is the bulk-load checkpoint's truncate): recovery sees a
/// fresh snapshot beside a stale WAL and must skip the records it covers.
#[test]
fn checkpoint_racing_a_crash_recovers_to_accepted_state() {
    for (name, factory) in backends() {
        let refused = crash_round(
            name,
            factory,
            ("wal/0/truncate", Trigger::OnHit(2), FailAction::Crash),
        );
        assert!(
            refused > 0,
            "{name}: the crashed shard must refuse later ops"
        );
    }
}

#[test]
fn crash_at_byte_offset_recovers_to_accepted_state() {
    for (name, factory) in backends() {
        crash_round(
            name,
            factory,
            ("wal/3/append", Trigger::AtByte(600), FailAction::Crash),
        );
    }
}

/// A sink *error* (not a crash) on the barrier of a coalesced group: the
/// shard fail-stops with the group's bytes still buffered, so every member
/// must be refused, none may have executed, and none may recover — the same
/// exact equivalence as a crash, with the sink left usable.
#[test]
fn sync_error_on_a_coalesced_group_refuses_every_member() {
    for (name, factory) in backends() {
        let refused = crash_round(
            name,
            factory,
            ("wal/0/sync", Trigger::OnHit(3), FailAction::Error),
        );
        assert!(refused > 0, "{name}: the failed group must be refused");
    }
}

/// A restart that dies while it loads loses no acknowledged key. The keys
/// served here sit low, so a quantile cut over the restarted store would
/// move keys between shards; a restart that rewrote the shards' snapshots
/// under such a cut, one shard at a time, and died after the first one
/// (a directory squatting on shard 1's snapshot temp file) would leave
/// keys that no shard's history holds.
#[test]
fn a_restart_that_dies_while_loading_loses_no_key() {
    for (name, factory) in backends() {
        let tmp = TempDir::new("durable-restart-crash");
        let bulk: Vec<(u64, Payload)> = (0..4_000u64).map(|i| (i * 10, i)).collect();
        let pipeline = durable(factory, tmp.path(), &bulk).unwrap();
        let low: Vec<Op> = (0..3_000u64).map(|i| Op::Insert(i * 10 + 1, i)).collect();
        let responses = pipeline.submit(OpBatch::new(low)).wait();
        assert!(responses.iter().all(|r| !r.is_error()), "{name}");
        drop(pipeline);

        let squat = tmp.path().join("shard-1.snap.tmp");
        std::fs::create_dir(&squat).unwrap();
        let _ = durable(factory, tmp.path(), &[]);
        std::fs::remove_dir(&squat).unwrap();

        let mut rebuilt = factory();
        Recovery::recover(tmp.path())
            .unwrap()
            .replay_into(&mut *rebuilt);
        assert_eq!(rebuilt.len(), 7_000, "{name}: acknowledged keys lost");
    }
}

/// Shutdown landing on a backlog. A group is logged for everything the shard
/// had queued, then its members execute one by one — so `shutdown()` may
/// arrive when some members' writes are on disk but not yet in memory. Those
/// must still execute and be acknowledged (refusing them would resurrect
/// refused writes at recovery); only jobs no record covers are refused.
/// Checked as exact equivalence: the live store and the store rebuilt from
/// disk both equal the model of acknowledged ops, for shutdowns landing
/// behind bursts of 8 to 32 in-flight batches.
#[test]
fn shutdown_with_backlog_refuses_only_what_no_record_covers() {
    for (name, factory) in backends() {
        for burst in [8usize, 12, 16, 24, 32] {
            let ctx = format!("{name}/shutdown-behind-{burst}");
            let tmp = TempDir::new("durable-shutdown");
            let bulk: Vec<(u64, Payload)> = (0..3_000u64).map(|i| (i * 7, i)).collect();
            let pipeline = durable(factory, tmp.path(), &bulk).unwrap();
            let mut model: BTreeMap<u64, Payload> = bulk.iter().copied().collect();

            let mut rng = StdRng::seed_from_u64(0x5D0u64 + burst as u64);
            let mut batch =
                || -> Vec<Op> { (0..32).map(|_| random_write_or_get(&mut rng)).collect() };
            // One batch served to completion (something is acknowledged),
            // a burst left in flight, shutdown, then a few more (something
            // is refused: a shut-down pipeline refuses at the door).
            let sent: Vec<Vec<Op>> = (0..1 + burst + 4).map(|_| batch()).collect();
            let mut replies = vec![pipeline.submit(OpBatch::new(sent[0].clone())).wait()];
            let mut inflight = Vec::new();
            for ops in &sent[1..=burst] {
                inflight.push(pipeline.submit(OpBatch::new(ops.clone())));
            }
            pipeline.shutdown();
            for ops in &sent[1 + burst..] {
                inflight.push(pipeline.submit(OpBatch::new(ops.clone())));
            }
            replies.extend(inflight.into_iter().map(|handle| handle.wait()));

            let (mut accepted, mut refused) = (0usize, 0usize);
            for (ops, responses) in sent.iter().zip(&replies) {
                for (&op, resp) in ops.iter().zip(responses) {
                    if apply_accepted(&mut model, op, resp, &ctx) {
                        accepted += 1;
                    } else {
                        assert_eq!(*resp, Response::Error(IndexError::Shutdown), "{ctx}");
                        refused += 1;
                    }
                }
            }
            assert!(
                accepted >= 32 && refused >= 4 * 32,
                "{ctx}: both outcomes occur"
            );
            let live = Arc::clone(pipeline.index());
            drop(pipeline);
            assert_eq!(live.len(), model.len(), "{ctx}: live size");
            for (&k, &v) in &model {
                assert_eq!(live.get(k), Some(v), "{ctx}: live key {k}");
            }
            assert_disk_matches_model(tmp.path(), factory, &model, &ctx);
        }
    }
}
