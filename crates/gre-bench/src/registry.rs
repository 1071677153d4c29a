//! Index registries: every evaluated index behind a uniform constructor so
//! the figure table's rows can iterate over them.
//!
//! The contenders are two arrays of constructors, in the paper's
//! presentation order. An index reports its own name and whether it is
//! learned through `meta()`; the registry records nothing else about it.

use gre_core::{ConcurrentIndex, Index};
use gre_learned::{Alex, AlexPlus, DynamicPgm, Finedex, Lipp, LippPlus, XIndex};
use gre_traditional::{
    art_olc, btree_olc, hot_rowex, masstree_concurrent, wormhole_concurrent, Art, BPlusTree, Hot,
    Masstree, Wormhole,
};

/// A fresh single-threaded index.
type IndexCtor = fn() -> Box<dyn Index<u64>>;

/// A fresh concurrent index.
type ConcurrentCtor = fn() -> Box<dyn ConcurrentIndex<u64>>;

/// Constructors of every single-threaded index of the study (the Table 1
/// learned indexes plus STX B+-tree, ART and HOT, §3.1).
pub const SINGLE_THREAD: [IndexCtor; 8] = [
    || Box::new(Alex::<u64>::new()),
    || Box::new(Lipp::<u64>::new()),
    || Box::new(DynamicPgm::<u64>::new()),
    || Box::new(BPlusTree::<u64>::new()),
    || Box::new(Art::<u64>::new()),
    || Box::new(Hot::<u64>::new()),
    || Box::new(Masstree::<u64>::new()),
    || Box::new(Wormhole::<u64>::new()),
];

/// Constructors of every concurrent index (§4.2). ALEX+ and LIPP+ (the
/// parallelized derivatives this study contributes) lead so Figure 16's
/// "world without this study" can drop a prefix.
pub const CONCURRENT: [ConcurrentCtor; 9] = [
    || Box::new(AlexPlus::<u64>::new()),
    || Box::new(LippPlus::<u64>::new()),
    || Box::new(XIndex::<u64>::new()),
    || Box::new(Finedex::<u64>::new()),
    || Box::new(art_olc::<u64>()),
    || Box::new(btree_olc::<u64>()),
    || Box::new(hot_rowex::<u64>()),
    || Box::new(masstree_concurrent::<u64>()),
    || Box::new(wormhole_concurrent::<u64>()),
];

/// Fresh instances of every single-threaded index.
pub fn single_thread_indexes() -> Vec<Box<dyn Index<u64>>> {
    SINGLE_THREAD.iter().map(|ctor| ctor()).collect()
}

/// Fresh instances of every concurrent index. Set `include_parallelized` to
/// `false` to reproduce "the world without this study" (Figure 16), which
/// drops ALEX+ and LIPP+ and keeps only the natively concurrent indexes.
pub fn concurrent_indexes(include_parallelized: bool) -> Vec<Box<dyn ConcurrentIndex<u64>>> {
    let skip = if include_parallelized { 0 } else { 2 };
    CONCURRENT[skip..].iter().map(|ctor| ctor()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_cover_the_papers_index_set() {
        let single = single_thread_indexes();
        assert_eq!(single.len(), 8);
        assert!(single.iter().any(|i| i.meta().name == "ALEX"));
        assert!(single.iter().any(|i| i.meta().name == "ART"));
        assert_eq!(single.iter().filter(|i| i.meta().learned).count(), 3);

        let conc = concurrent_indexes(true);
        assert_eq!(conc.len(), 9);
        assert!(conc.iter().any(|i| i.meta().name == "ALEX+"));
        let without = concurrent_indexes(false);
        assert_eq!(without.len(), 7);
        assert!(!without.iter().any(|i| i.meta().name == "ALEX+"));
    }

    #[test]
    fn every_registered_index_supports_basic_ops() {
        let entries: Vec<(u64, u64)> = (0..1_000u64).map(|i| (i * 5 + 1, i)).collect();
        for mut index in single_thread_indexes() {
            let name = index.meta().name;
            index.bulk_load(&entries);
            assert_eq!(index.len(), 1_000, "{name}");
            assert_eq!(index.get(6), Some(1), "{name}");
            index.insert(2, 22);
            assert_eq!(index.get(2), Some(22), "{name}");
            assert!(index.memory_usage() > 0, "{name}");
        }
        for mut index in concurrent_indexes(true) {
            let name = index.meta().name;
            index.bulk_load(&entries);
            assert_eq!(index.len(), 1_000, "{name}");
            assert_eq!(index.get(6), Some(1), "{name}");
            index.insert(2, 22);
            assert_eq!(index.get(2), Some(22), "{name}");
            // update is now a required, atomic operation on every backend.
            assert!(index.update(2, 23), "{name}");
            assert_eq!(index.get(2), Some(23), "{name}");
            assert!(!index.update(3, 1), "{name}: absent key must miss");
            assert_eq!(index.get(3), None, "{name}: update must not insert");
        }
    }
}
