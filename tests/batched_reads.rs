//! The batched reader of `gre_core::Partitioned` holds the read guard of
//! every partition its keys touch for the whole call. This test runs two
//! such readers against a point writer that write-locks whichever partition
//! its key falls in — on ALEX+ and B+tree/p64 — and fails (rather than
//! hangs) if they deadlock.
//!
//! Every payload a key is ever given carries the key in its high bits, so a
//! reader can tell a torn or misrouted answer from a stale one: a batched
//! answer must be `None` or a payload that key was given, and a bulk-loaded
//! key, which the writer updates but never removes, must always be found.

use gre::learned::{Alex, AlexConfig, AlexPlus};
use gre::traditional::btree_olc;
use gre_core::ConcurrentIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

type Backend = Box<dyn ConcurrentIndex<u64>>;

/// Bulk keys are `4 i + 1`, the writer's own keys `4 i + 3`, even keys miss.
const BULK: u64 = 8_000;
const KEY_SPACE: u64 = 4 * BULK + 4;
const BATCH: usize = 64;
const MIN_BATCHES: usize = 400;
const MIN_WRITES: usize = 2_000;
const DEADLINE: Duration = Duration::from_secs(60);

fn payload(key: u64, generation: u64) -> u64 {
    key << 8 | generation
}

/// Counts of finished rounds, which every thread polls to know when the
/// others have overlapped with it long enough, and the flag that stops them.
#[derive(Default)]
struct Progress {
    batches: AtomicUsize,
    writes: AtomicUsize,
    stop: AtomicBool,
}

impl Progress {
    fn overlapped(&self) -> bool {
        self.writes.load(Ordering::Relaxed) >= MIN_WRITES
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Stops every thread when the one holding it panics, so a failed
/// assertion surfaces as itself rather than as the others running on.
struct StopOnPanic<'a>(&'a Progress);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.stop.store(true, Ordering::Relaxed);
        }
    }
}

fn reader(index: &dyn ConcurrentIndex<u64>, progress: &Progress, seed: u64) {
    let _guard = StopOnPanic(progress);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = Vec::with_capacity(BATCH);
    let mut out = Vec::new();
    let mut done = 0;
    while !progress.stopped() && (done < MIN_BATCHES || !progress.overlapped()) {
        keys.clear();
        keys.extend((0..BATCH).map(|_| rng.gen_range(0..KEY_SPACE)));
        index.get_batch(&keys, &mut out);
        assert_eq!(out.len(), keys.len());
        for (&key, &answer) in keys.iter().zip(&out) {
            if let Some(value) = answer {
                assert_eq!(
                    value >> 8,
                    key,
                    "key {key} answered another key's payload {value}"
                );
            } else {
                let bulk = key % 4 == 1 && key < 4 * BULK;
                assert!(!bulk, "bulk key {key} went missing");
            }
        }
        done += 1;
        progress.batches.fetch_add(1, Ordering::Relaxed);
    }
}

/// Inserts and removes its own keys and updates bulk keys; returns what the
/// index must hold.
fn writer(index: &dyn ConcurrentIndex<u64>, progress: &Progress) -> BTreeMap<u64, u64> {
    let _guard = StopOnPanic(progress);
    let mut rng = StdRng::seed_from_u64(0xb47c_4ed0);
    let mut model: BTreeMap<u64, u64> = (0..BULK)
        .map(|i| 4 * i + 1)
        .map(|k| (k, payload(k, 0)))
        .collect();
    let mut generation = 0;
    while !progress.stopped() {
        generation = generation % 255 + 1;
        let i = rng.gen_range(0..BULK);
        match rng.gen_range(0..3u32) {
            0 => {
                let key = 4 * i + 3;
                let value = payload(key, generation);
                assert_eq!(index.insert(key, value), model.insert(key, value).is_none());
            }
            1 => {
                let key = 4 * i + 3;
                assert_eq!(index.remove(key), model.remove(&key));
            }
            _ => {
                let key = 4 * i + 1;
                let value = payload(key, generation);
                assert!(index.update(key, value), "bulk key {key} not updatable");
                model.insert(key, value);
            }
        }
        progress.writes.fetch_add(1, Ordering::Relaxed);
    }
    model
}

/// Two batched readers and one writer on `index`;
/// panics if they have not all finished within [`DEADLINE`].
fn run(name: &str, mut index: Backend) {
    let bulk: Vec<(u64, u64)> = (0..BULK)
        .map(|i| (4 * i + 1, payload(4 * i + 1, 0)))
        .collect();
    index.bulk_load(&bulk);
    let index: Arc<Backend> = Arc::new(index);
    let progress = Arc::new(Progress::default());
    let (done_tx, done_rx) = mpsc::channel::<()>();
    // Not scoped, so a deadlocked run leaves the watchdog free to fail the
    // test; the sender drops when the run returns or panics.
    let worker = thread::spawn({
        let index = Arc::clone(&index);
        let progress = Arc::clone(&progress);
        move || {
            let _done = done_tx;
            let (index, progress) = (&**index, &*progress);
            thread::scope(|s| {
                let readers: Vec<_> = (0..2u64)
                    .map(|seed| s.spawn(move || reader(index, progress, seed)))
                    .collect();
                let writer = s.spawn(|| writer(index, progress));
                for r in readers {
                    r.join().expect("reader");
                }
                progress.stop.store(true, Ordering::Relaxed);
                writer.join().expect("writer")
            })
        }
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(DEADLINE) {
        panic!(
            "{name}: readers and writer did not finish within {DEADLINE:?} \
             ({} batches, {} writes): deadlock?",
            progress.batches.load(Ordering::Relaxed),
            progress.writes.load(Ordering::Relaxed),
        );
    }
    let model = worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));

    // Quiescent now: one batch over every key must read the final state.
    let keys: Vec<u64> = (0..KEY_SPACE).collect();
    let mut out = Vec::new();
    index.get_batch(&keys, &mut out);
    let expected: Vec<Option<u64>> = keys.iter().map(|k| model.get(k).copied()).collect();
    assert!(
        out == expected,
        "{name}: final batched read differs from the model"
    );
    assert_eq!(index.len(), model.len(), "{name}: final length");
}

#[test]
fn batched_readers_survive_a_concurrent_writer_on_alex_plus() {
    // Small nodes, so the writer's inserts split nodes under the readers.
    run(
        "ALEX+",
        Box::new(AlexPlus::with_inner(|| {
            Alex::with_config(AlexConfig {
                max_node_entries: 64,
                ..Default::default()
            })
        })),
    );
}

#[test]
fn batched_readers_survive_a_concurrent_writer_on_btree_p64() {
    run("B+tree/p64", Box::new(btree_olc()));
}
