//! Criterion micro-benchmarks backing the paper's figures: point lookups and
//! inserts on every index (Figures 2–5), in-place updates, bulk loading,
//! range scans (Figure 13), inserts into dense clusters (the gapped-array
//! shift path), batched against scalar lookups on the partition-lock adapter,
//! and PLA hardness computation (§3.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gre_bench::registry::{concurrent_indexes, single_thread_indexes, SINGLE_THREAD};
use gre_core::{ConcurrentIndex, RangeSpec};
use gre_datasets::Dataset;
use gre_learned::AlexPlus;
use gre_pla::{optimal_pla, DataHardness, HardnessConfig};
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

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert");
    group.sample_size(10);
    for ds in [Dataset::Covid] {
        let entries = dataset_entries(ds);
        let (bulk, rest) = entries.split_at(entries.len() / 2);
        for mut index in single_thread_indexes() {
            index.bulk_load(bulk);
            group.bench_with_input(
                BenchmarkId::new(index.meta().name, ds.name()),
                rest,
                |b, rest| {
                    let mut i = 0usize;
                    b.iter(|| {
                        i = (i + 1) % rest.len();
                        black_box(index.insert(rest[i].0, rest[i].1))
                    })
                },
            );
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
    for mut index in single_thread_indexes() {
        index.bulk_load(&bulk);
        group.bench_function(index.meta().name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % rest.len();
                black_box(index.insert(rest[i].0, rest[i].1))
            })
        });
    }
    group.finish();
}

fn bench_concurrent_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("concurrent_single_thread_insert_path");
    group.sample_size(10);
    let entries = dataset_entries(Dataset::Covid);
    let (bulk, rest) = entries.split_at(entries.len() / 2);
    for mut index in concurrent_indexes(true) {
        index.bulk_load(bulk);
        group.bench_function(index.meta().name, |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % rest.len();
                black_box(index.insert(rest[i].0, rest[i].1))
            })
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
        bench_pla
}
criterion_main!(benches);
