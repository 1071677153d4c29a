//! Cross-crate integration tests: the full GRE pipeline (dataset → workload
//! scenario → driver → result) on every index, plus cross-index agreement and the
//! paper's qualitative relationships that must hold at any scale.

use gre::datasets::Dataset;
use gre::learned::{Alex, AlexPlus, DynamicPgm, Finedex, Lipp, LippPlus, XIndex};
use gre::traditional::{art_olc, btree_olc, Art, BPlusTree, Hot};
use gre::workloads::{Driver, WorkloadBuilder, WriteRatio};
use gre_bench::{concurrent_indexes, single_thread_indexes};
use gre_core::{ConcurrentIndex, Index};

const N: usize = 20_000;

#[test]
fn all_single_thread_indexes_agree_on_the_balanced_workload() {
    let keys = Dataset::Covid.generate(N, 7);
    let workload = WorkloadBuilder::new(7).insert_workload("covid", &keys, WriteRatio::Balanced);
    let mut lens = Vec::new();
    let mut probes: Vec<Vec<Option<u64>>> = Vec::new();
    let probe_keys: Vec<u64> = keys.iter().step_by(97).copied().collect();
    for mut index in single_thread_indexes() {
        let name = index.meta().name;
        eprintln!("running {name}");
        let result = Driver::new().run_in_place(&workload, index.as_mut());
        assert!(result.phases[0].throughput_mops() > 0.0, "{name}");
        lens.push((name, index.len()));
        probes.push(probe_keys.iter().map(|&k| index.get(k)).collect());
    }
    let expected_len = lens[0].1;
    for (name, len) in &lens {
        assert_eq!(*len, expected_len, "{name} disagrees on the final size");
    }
    for p in &probes {
        assert_eq!(p, &probes[0], "probe results disagree across indexes");
    }
}

#[test]
fn all_concurrent_indexes_agree_under_threads() {
    let keys = Dataset::Libio.generate(N, 9);
    let workload = WorkloadBuilder::new(9)
        .insert_workload("libio", &keys, WriteRatio::Balanced)
        .closed_loop(4);
    let mut lens = Vec::new();
    for mut index in concurrent_indexes(true) {
        let name = index.meta().name;
        let result = Driver::new().run(&workload, index.as_mut());
        assert!(result.phases[0].throughput_mops() > 0.0, "{name}");
        lens.push((name, index.len()));
    }
    let expected = lens[0].1;
    for (name, len) in &lens {
        assert_eq!(*len, expected, "{name} lost or duplicated keys");
    }
}

#[test]
fn deletion_workload_shrinks_every_delete_capable_index() {
    let keys = Dataset::Stack.generate(N, 3);
    let workload = WorkloadBuilder::new(3).delete_workload("stack", &keys, 0.5);
    for mut index in single_thread_indexes() {
        let meta = index.meta();
        if !meta.supports_delete {
            continue;
        }
        Driver::new().run_in_place(&workload, index.as_mut());
        assert_eq!(index.len(), keys.len() - keys.len() / 2, "{}", meta.name);
    }
}

#[test]
fn memory_ordering_matches_figure_8() {
    // End-to-end sizes after a write-only workload: PGM < ALEX < LIPP, and
    // HOT is the most compact traditional index (Message 9's supporting facts).
    let keys = Dataset::Covid.generate(N, 5);
    let workload = WorkloadBuilder::new(5).insert_workload("covid", &keys, WriteRatio::WriteOnly);
    let mem = |mut idx: Box<dyn Index<u64>>| -> usize {
        Driver::new().run_in_place(&workload, idx.as_mut());
        idx.memory_usage()
    };
    let pgm = mem(Box::new(DynamicPgm::<u64>::new()));
    let alex = mem(Box::new(Alex::<u64>::new()));
    let lipp = mem(Box::new(Lipp::<u64>::new()));
    let hot = mem(Box::new(Hot::<u64>::new()));
    let art = mem(Box::new(Art::<u64>::new()));
    let btree = mem(Box::new(BPlusTree::<u64>::new()));
    assert!(
        pgm < alex,
        "PGM ({pgm}) should be smaller than ALEX ({alex})"
    );
    assert!(
        alex < lipp,
        "ALEX ({alex}) should be smaller than LIPP ({lipp})"
    );
    assert!(
        hot < lipp,
        "HOT ({hot}) should be smaller than LIPP ({lipp})"
    );
    assert!(btree > 0 && art > 0);
}

#[test]
fn lipp_has_lower_write_amplification_than_alex() {
    // Message 5: LIPP's chaining creates at most one node per collision while
    // ALEX shifts many keys per insert on hard data.
    let keys = Dataset::Genome.generate(N, 11);
    let workload = WorkloadBuilder::new(11).insert_workload("genome", &keys, WriteRatio::WriteOnly);
    let mut alex = Alex::<u64>::new();
    let mut lipp = Lipp::<u64>::new();
    Driver::new().run_in_place(&workload, &mut alex);
    Driver::new().run_in_place(&workload, &mut lipp);
    let alex_shifts = alex.stats().avg_keys_shifted_per_insert();
    let lipp_nodes = lipp.stats().avg_nodes_created_per_insert();
    assert!(
        lipp_nodes <= 1.0,
        "LIPP creates at most one node per insert"
    );
    assert!(
        alex_shifts > lipp_nodes,
        "ALEX write amplification ({alex_shifts:.2} shifts) should exceed LIPP's ({lipp_nodes:.2} nodes)"
    );
}

#[test]
fn concurrent_learned_indexes_survive_mixed_churn() {
    let keys = Dataset::Wise.generate(N, 13);
    let entries: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k)).collect();
    let mut alex_plus = AlexPlus::<u64>::new();
    let mut lipp_plus = LippPlus::<u64>::new();
    let mut xindex = XIndex::<u64>::new();
    let mut finedex = Finedex::<u64>::new();
    let mut art = art_olc::<u64>();
    let mut btree = btree_olc::<u64>();
    ConcurrentIndex::bulk_load(&mut alex_plus, &entries);
    ConcurrentIndex::bulk_load(&mut lipp_plus, &entries);
    ConcurrentIndex::bulk_load(&mut xindex, &entries);
    ConcurrentIndex::bulk_load(&mut finedex, &entries);
    ConcurrentIndex::bulk_load(&mut art, &entries);
    ConcurrentIndex::bulk_load(&mut btree, &entries);
    let indexes: Vec<(&str, &dyn ConcurrentIndex<u64>)> = vec![
        ("ALEX+", &alex_plus),
        ("LIPP+", &lipp_plus),
        ("XIndex", &xindex),
        ("FINEdex", &finedex),
        ("ART/p64", &art),
        ("B+tree/p64", &btree),
    ];
    for (name, index) in indexes {
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        // Keys are spaced above the f64 ulp at this magnitude:
                        // like the original implementations, the learned
                        // indexes train double-precision models and cannot
                        // separate keys closer than ~2^11 near 2^63.
                        let key = u64::MAX / 2 + (t * 1_000_000 + i) * (1 << 16);
                        index.insert(key, i);
                        assert_eq!(index.get(key), Some(i), "{name}");
                        if i % 3 == 0 {
                            index.remove(key);
                        }
                    }
                });
            }
        });
        let expected = entries.len() + 4 * (2_000 - 2_000_usize.div_ceil(3));
        assert_eq!(index.len(), expected, "{name} lost updates");
    }
}
