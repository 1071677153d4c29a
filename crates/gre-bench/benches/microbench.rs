//! Criterion micro-benchmarks backing the paper's figures: point lookups and
//! inserts on every index (Figures 2–5), in-place updates, bulk loading,
//! range scans (Figure 13), inserts into dense clusters (the gapped-array
//! shift path), batched against scalar lookups on the partition-lock adapter,
//! PLA hardness computation (§3.2), and the std `BTreeMap` as a floor under
//! the B+tree.
//!
//! Every insert row inserts fresh keys only: one timed iteration is
//! [`INSERTS`] of them, so ns/iter ÷ 1 000 is ns per insert (see
//! [`time_fresh_inserts`]).

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion};
use gre_bench::{single_thread_indexes, CONCURRENT, SINGLE_THREAD};
use gre_core::{ConcurrentIndex, Index, ModelIndex, RangeSpec};
use gre_datasets::Dataset;
use gre_learned::AlexPlus;
use gre_pla::{optimal_pla, DataHardness, HardnessConfig};
use std::cell::RefCell;
use std::hint::black_box;

const N: usize = 50_000;

fn dataset_entries(ds: Dataset) -> Vec<(u64, u64)> {
    sized_entries(ds, N)
}

fn sized_entries(ds: Dataset, n: usize) -> Vec<(u64, u64)> {
    ds.generate(n, 42).into_iter().map(|k| (k, k ^ 7)).collect()
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup");
    group.sample_size(10);
    for ds in [Dataset::Covid, Dataset::Osm] {
        let entries = dataset_entries(ds);
        for mut index in single_thread_indexes() {
            index.bulk_load(&entries);
            group.bench_with_input(
                BenchmarkId::new(index.meta().name, ds.name()),
                &entries,
                |b, entries| {
                    let mut i = 0usize;
                    b.iter(|| {
                        i = (i + 7919) % entries.len();
                        black_box(index.get(entries[i].0))
                    })
                },
            );
        }
    }
    group.finish();
}

/// Fresh keys per timed iteration of an insert row.
const INSERTS: usize = 1_000;

/// Time inserts of `fresh`'s keys, [`INSERTS`] per iteration, into an index
/// `build` returns loaded without them. When the fresh keys run out, `build`
/// makes a new index outside the timing, so no timed insert overwrites.
fn time_fresh_inserts<T>(
    b: &mut Bencher,
    fresh: &[(u64, u64)],
    build: impl Fn() -> T,
    insert: impl Fn(&mut T, u64, u64) -> bool,
) {
    // (index, next fresh key); starts exhausted so the first setup builds.
    let state = RefCell::new((None, fresh.len()));
    b.iter_batched(
        || {
            let mut state = state.borrow_mut();
            if state.1 + INSERTS > fresh.len() {
                *state = (Some(build()), 0);
            }
        },
        |()| {
            let (index, next) = &mut *state.borrow_mut();
            let index = index.as_mut().expect("built by the setup");
            for &(k, v) in &fresh[*next..*next + INSERTS] {
                black_box(insert(index, k, v));
            }
            *next += INSERTS;
        },
        criterion::BatchSize::SmallInput,
    )
}

type Entries = Vec<(u64, u64)>;

/// `entries` split for an insert row: the even positions to bulk-load, and
/// the odd ones in a seeded shuffle to insert, so every timed insert lands
/// between two loaded keys rather than past the loaded maximum.
fn interleaved(entries: &[(u64, u64)]) -> (Entries, Entries) {
    let bulk = entries.iter().copied().step_by(2).collect();
    let mut fresh: Entries = entries.iter().copied().skip(1).step_by(2).collect();
    let mut x = 42u64;
    for i in (1..fresh.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        fresh.swap(i, (x % (i as u64 + 1)) as usize);
    }
    (bulk, fresh)
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert");
    group.sample_size(10);
    for ds in [Dataset::Covid] {
        let (bulk, fresh) = interleaved(&dataset_entries(ds));
        for ctor in SINGLE_THREAD {
            let id = BenchmarkId::new(format!("{}/x{INSERTS}", ctor().meta().name), ds.name());
            group.bench_function(id, |b| {
                let build = || {
                    let mut index = ctor();
                    index.bulk_load(&bulk);
                    index
                };
                time_fresh_inserts(b, &fresh, build, |index, k, v| index.insert(k, v))
            });
        }
    }
    group.finish();
}

/// In-place updates of loaded keys on the partition-lock adapter, over an
/// index (8 MB of pairs) that outgrows L2 as served data does.
fn bench_update(c: &mut Criterion) {
    const KEYS: usize = 500_000;
    let mut group = c.benchmark_group("update");
    group.sample_size(10);
    for ds in [Dataset::Covid, Dataset::Osm] {
        let entries = sized_entries(ds, KEYS);
        let backends: [(&str, Box<dyn ConcurrentIndex<u64>>); 2] = [
            ("ALEX+", Box::new(AlexPlus::<u64>::new())),
            ("B+tree/p64", Box::new(gre_traditional::btree_olc::<u64>())),
        ];
        for (name, mut index) in backends {
            index.bulk_load(&entries);
            group.bench_function(BenchmarkId::new(name, ds.name()), |b| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 7919) % entries.len();
                    black_box(index.update(entries[i].0, i as u64))
                })
            });
        }
    }
    group.finish();
}

fn bench_bulk_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("bulk_load");
    group.sample_size(10);
    let entries = dataset_entries(Dataset::Books);
    for ctor in SINGLE_THREAD {
        group.bench_function(ctor().meta().name, |b| {
            b.iter_batched(
                || (),
                |_| {
                    let mut fresh = ctor();
                    fresh.bulk_load(black_box(&entries));
                    black_box(fresh.len())
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("range_scan_100");
    group.sample_size(10);
    let entries = dataset_entries(Dataset::Covid);
    for mut index in single_thread_indexes() {
        let meta = index.meta();
        if !meta.supports_range {
            continue;
        }
        index.bulk_load(&entries);
        // One fixed start per case, at the 1st / 50th / 99th percentile key:
        // a scan must cost the same wherever it starts, and a start that
        // strides over the key space would average a position-dependent
        // cost (a node walked from its first slot) into one flat number.
        for pct in [1, 50, 99] {
            let start = entries[entries.len() * pct / 100].0;
            group.bench_function(BenchmarkId::new(meta.name, format!("p{pct}")), |b| {
                let mut out = Vec::with_capacity(128);
                b.iter(|| {
                    out.clear();
                    black_box(index.range(RangeSpec::new(black_box(start), 100), &mut out))
                })
            });
        }
    }
    group.finish();
}

/// The shift path: `osm` keys come in tight clusters, so inserting every
/// other key between its bulk-loaded neighbours packs the slots around each
/// cluster solid and the next insert there has to move keys to reach a gap.
fn bench_insert_dense_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_dense_cluster");
    group.sample_size(10);
    let entries = dataset_entries(Dataset::Osm);
    let bulk: Vec<(u64, u64)> = entries.iter().copied().step_by(2).collect();
    let rest: Vec<(u64, u64)> = entries.iter().copied().skip(1).step_by(2).collect();
    for ctor in SINGLE_THREAD {
        group.bench_function(format!("{}/x{INSERTS}", ctor().meta().name), |b| {
            let build = || {
                let mut index = ctor();
                index.bulk_load(&bulk);
                index
            };
            time_fresh_inserts(b, &rest, build, |index, k, v| index.insert(k, v))
        });
    }
    group.finish();
}

fn bench_concurrent_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_single_thread_insert_path");
    group.sample_size(10);
    let (bulk, fresh) = interleaved(&dataset_entries(Dataset::Covid));
    for ctor in CONCURRENT {
        group.bench_function(format!("{}/x{INSERTS}", ctor().meta().name), |b| {
            let build = || {
                let mut index = ctor();
                index.bulk_load(&bulk);
                index
            };
            time_fresh_inserts(b, &fresh, build, |index, k, v| index.insert(k, v))
        });
    }
    group.finish();
}

/// One 64-key sub-batch, the size a shard worker hands its backend, through
/// `get_batch` and the same keys through scalar `get`, each timed per batch.
/// The keys are spread over the whole key space, so a batch touches most
/// partitions, and the index (8 MB of pairs) outgrows L2 as served data does.
fn bench_get_batch(c: &mut Criterion) {
    const KEYS: usize = 500_000;
    const BATCH: usize = 64;
    let mut group = c.benchmark_group("get_batch");
    group.sample_size(10);
    for ds in [Dataset::Covid, Dataset::Osm] {
        let entries = sized_entries(ds, KEYS);
        let batches: Vec<Vec<u64>> = (0..256)
            .map(|b| {
                (0..BATCH)
                    .map(|i| entries[(b * BATCH + i) * 7919 % entries.len()].0)
                    .collect()
            })
            .collect();
        let backends: [(&str, Box<dyn ConcurrentIndex<u64>>); 2] = [
            ("ALEX+", Box::new(AlexPlus::<u64>::new())),
            ("B+tree/p64", Box::new(gre_traditional::btree_olc::<u64>())),
        ];
        for (name, mut index) in backends {
            index.bulk_load(&entries);
            group.bench_function(
                BenchmarkId::new(format!("{name}/batch64"), ds.name()),
                |b| {
                    let mut out = Vec::with_capacity(BATCH);
                    let mut i = 0usize;
                    b.iter(|| {
                        i = (i + 1) % batches.len();
                        index.get_batch(black_box(&batches[i]), &mut out);
                        black_box(out.len())
                    })
                },
            );
            group.bench_function(
                BenchmarkId::new(format!("{name}/scalar64"), ds.name()),
                |b| {
                    let mut i = 0usize;
                    b.iter(|| {
                        i = (i + 1) % batches.len();
                        black_box(&batches[i])
                            .iter()
                            .filter(|&&k| index.get(k).is_some())
                            .count()
                    })
                },
            );
        }
    }
    group.finish();
}

/// `items` in a fixed scattered order (a stride coprime to the sizes used),
/// so consecutive operations land far apart in the key space while the
/// probe list itself is read sequentially.
fn scattered(items: &[(u64, u64)]) -> Vec<(u64, u64)> {
    (0..items.len())
        .map(|i| items[i * 7919 % items.len()])
        .collect()
}

/// The std `BTreeMap` (`gre_core::ModelIndex`) as a floor under the
/// B+tree, not a contender: a B+tree control that loses to it is not worth
/// beating. Inserts and gets on `osm` keys at 200 k (near cache-resident)
/// and 2 M (beyond L2). The inserts are the odd-ranked half of the keys in a
/// scattered order, into a tree bulk-loaded with the even half; gets probe
/// every key of a fully loaded tree in a scattered order.
fn bench_btree_floor(c: &mut Criterion) {
    type Ctor = fn() -> Box<dyn Index<u64>>;
    let rows: [(&str, Ctor); 2] = [
        ("B+tree", || {
            Box::new(gre_traditional::BPlusTree::<u64>::new())
        }),
        ("BTreeMap (floor)", || Box::new(ModelIndex::default())),
    ];
    let mut group = c.benchmark_group("btree_floor");
    group.sample_size(10);
    for n in [200_000, 2_000_000] {
        let entries = sized_entries(Dataset::Osm, n);
        let bulk: Vec<(u64, u64)> = entries.iter().copied().step_by(2).collect();
        let rest: Vec<(u64, u64)> = entries.iter().copied().skip(1).step_by(2).collect();
        let fresh = scattered(&rest);
        let probes = scattered(&entries);
        for (name, ctor) in rows {
            group.bench_function(
                BenchmarkId::new(format!("{name}/insert_x{INSERTS}"), n),
                |b| {
                    let build = || {
                        let mut tree = ctor();
                        tree.bulk_load(&bulk);
                        tree
                    };
                    time_fresh_inserts(b, &fresh, build, |tree, k, v| tree.insert(k, v))
                },
            );
            let mut tree = ctor();
            tree.bulk_load(&entries);
            group.bench_function(BenchmarkId::new(format!("{name}/get"), n), |b| {
                let mut i = 0usize;
                b.iter(|| {
                    i = if i + 1 == probes.len() { 0 } else { i + 1 };
                    black_box(tree.get(probes[i].0))
                })
            });
        }
    }
    group.finish();
}

fn bench_pla(c: &mut Criterion) {
    let mut group = c.benchmark_group("pla_hardness");
    group.sample_size(10);
    for ds in [Dataset::Covid, Dataset::Genome, Dataset::Osm] {
        let keys = ds.generate(N, 42);
        group.bench_function(format!("segments_eps32_{}", ds.name()), |b| {
            b.iter(|| black_box(optimal_pla(&keys, 32).len()))
        });
        group.bench_function(format!("hardness_{}", ds.name()), |b| {
            b.iter(|| black_box(DataHardness::compute(&keys, HardnessConfig::default()).local))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
        .sample_size(10);
    targets = bench_lookup,
        bench_insert,
        bench_update,
        bench_bulk_load,
        bench_range,
        bench_insert_dense_cluster,
        bench_concurrent_insert,
        bench_get_batch,
        bench_btree_floor,
        bench_pla
}
criterion_main!(benches);
