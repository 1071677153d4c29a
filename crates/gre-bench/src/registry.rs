//! Index registries: every evaluated index behind a uniform constructor so
//! the figure table's rows can iterate over them.
//!
//! Two layers:
//!
//! * The **typed builder** ([`IndexBuilder`]) is the one configuration
//!   surface for concurrent backends: `IndexBuilder::backend("alex+")?
//!   .shards(8).partitioner(Scheme::Hash).build()` resolves a backend by
//!   name and wraps it in the `gre-shard` serving layer.
//! * The **list registries** ([`single_thread_indexes`],
//!   [`concurrent_indexes`]) return fresh instances of whole index families
//!   for figure sweeps.

use gre_core::{ConcurrentIndex, Index};
use gre_learned::{Alex, AlexPlus, DynamicPgm, Finedex, Lipp, LippPlus, XIndex};
use gre_shard::{Partitioner, Scheme, ShardedIndex};
use gre_traditional::{
    art_olc, btree_olc, hot_rowex, masstree_concurrent, wormhole_concurrent, Art, BPlusTree, Hot,
    Masstree, Wormhole,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Whether an index is learned or traditional (heatmap colouring).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    Learned,
    Traditional,
}

/// A named single-threaded index instance.
pub struct SingleEntry {
    pub name: &'static str,
    pub kind: IndexKind,
    pub index: Box<dyn Index<u64>>,
}

/// A named concurrent index instance. The name is owned because sharded
/// variants carry computed names like `sharded(ALEX+,8)`.
pub struct ConcurrentEntry {
    pub name: String,
    pub kind: IndexKind,
    pub index: Box<dyn ConcurrentIndex<u64>>,
}

/// Canonical names of every concurrent backend, paired with its kind and in
/// the paper's presentation order. ALEX+ and LIPP+ (the parallelized
/// derivatives this study contributes) lead so Figure 16's "world without
/// this study" can drop a prefix.
pub const CONCURRENT_BACKENDS: [(&str, IndexKind); 9] = [
    ("ALEX+", IndexKind::Learned),
    ("LIPP+", IndexKind::Learned),
    ("XIndex", IndexKind::Learned),
    ("FINEdex", IndexKind::Learned),
    ("ART-OLC", IndexKind::Traditional),
    ("B+treeOLC", IndexKind::Traditional),
    ("HOT-ROWEX", IndexKind::Traditional),
    ("Masstree", IndexKind::Traditional),
    ("Wormhole", IndexKind::Traditional),
];

/// Fresh instances of every single-threaded index of the study
/// (the Table 1 learned indexes plus STX B+-tree, ART and HOT, §3.1).
pub fn single_thread_indexes() -> Vec<SingleEntry> {
    vec![
        SingleEntry {
            name: "ALEX",
            kind: IndexKind::Learned,
            index: Box::new(Alex::<u64>::new()),
        },
        SingleEntry {
            name: "LIPP",
            kind: IndexKind::Learned,
            index: Box::new(Lipp::<u64>::new()),
        },
        SingleEntry {
            name: "PGM-Index",
            kind: IndexKind::Learned,
            index: Box::new(DynamicPgm::<u64>::new()),
        },
        SingleEntry {
            name: "B+tree",
            kind: IndexKind::Traditional,
            index: Box::new(BPlusTree::<u64>::new()),
        },
        SingleEntry {
            name: "ART",
            kind: IndexKind::Traditional,
            index: Box::new(Art::<u64>::new()),
        },
        SingleEntry {
            name: "HOT",
            kind: IndexKind::Traditional,
            index: Box::new(Hot::<u64>::new()),
        },
        SingleEntry {
            name: "Masstree",
            kind: IndexKind::Traditional,
            index: Box::new(Masstree::<u64>::new()),
        },
        SingleEntry {
            name: "Wormhole",
            kind: IndexKind::Traditional,
            index: Box::new(Wormhole::<u64>::new()),
        },
    ]
}

/// Constructor of a boxed concurrent backend.
type BackendCtor = fn() -> Box<dyn ConcurrentIndex<u64>>;

/// The requested backend name did not resolve against the registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBackend(pub String);

impl fmt::Display for UnknownBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown index backend: {:?}", self.0)
    }
}

impl std::error::Error for UnknownBackend {}

/// Typed configuration surface for serving-layer indexes.
///
/// A builder resolves a backend family by name, then layers serving options
/// on top before constructing instances:
///
/// ```
/// use gre_bench::registry::IndexBuilder;
/// use gre_shard::Scheme;
///
/// # fn main() -> Result<(), gre_bench::registry::UnknownBackend> {
/// let index = IndexBuilder::backend("alex+")?
///     .shards(8)
///     .partitioner(Scheme::Hash)
///     .build();
/// assert_eq!(index.meta().name, "sharded(ALEX+,8,hash)");
/// # Ok(())
/// # }
/// ```
///
/// The builder is `Clone + Copy`-free but cheap; call
/// [`build`](IndexBuilder::build) repeatedly to mint fresh instances of the
/// same configuration.
#[derive(Debug, Clone)]
pub struct IndexBuilder {
    canonical: &'static str,
    kind: IndexKind,
    ctor: BackendCtor,
    shards: usize,
    scheme: Scheme,
}

impl IndexBuilder {
    /// Start a builder for the named backend (case-insensitive; `+`, `-`
    /// and spaces are cosmetic: `"alex+"`, `"ALEX+"` and `"alexplus"` all
    /// resolve to ALEX+).
    pub fn backend(name: &str) -> Result<IndexBuilder, UnknownBackend> {
        let canon: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || *c == '+')
            .collect::<String>()
            .to_ascii_lowercase();
        let (canonical, kind, ctor): (&'static str, IndexKind, BackendCtor) = match canon.as_str() {
            "alex+" | "alexplus" => ("ALEX+", IndexKind::Learned, || {
                Box::new(AlexPlus::<u64>::new())
            }),
            "lipp+" | "lippplus" => ("LIPP+", IndexKind::Learned, || {
                Box::new(LippPlus::<u64>::new())
            }),
            "xindex" => ("XIndex", IndexKind::Learned, || {
                Box::new(XIndex::<u64>::new())
            }),
            "finedex" => ("FINEdex", IndexKind::Learned, || {
                Box::new(Finedex::<u64>::new())
            }),
            "artolc" => ("ART-OLC", IndexKind::Traditional, || {
                Box::new(art_olc::<u64>())
            }),
            "b+treeolc" | "btreeolc" => ("B+treeOLC", IndexKind::Traditional, || {
                Box::new(btree_olc::<u64>())
            }),
            "hotrowex" => ("HOT-ROWEX", IndexKind::Traditional, || {
                Box::new(hot_rowex::<u64>())
            }),
            "masstree" => ("Masstree", IndexKind::Traditional, || {
                Box::new(masstree_concurrent::<u64>())
            }),
            "wormhole" => ("Wormhole", IndexKind::Traditional, || {
                Box::new(wormhole_concurrent::<u64>())
            }),
            _ => return Err(UnknownBackend(name.to_string())),
        };
        Ok(IndexBuilder {
            canonical,
            kind,
            ctor,
            shards: 1,
            scheme: Scheme::Range,
        })
    }

    /// Serve the backend behind `n` shards (clamped to at least 1; `1`
    /// means the bare backend from [`build`](IndexBuilder::build)).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Partitioning scheme for the sharded serving layer (default
    /// [`Scheme::Range`]).
    pub fn partitioner(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// The canonical backend name (`"ALEX+"`, `"B+treeOLC"`, …).
    pub fn backend_name(&self) -> &'static str {
        self.canonical
    }

    /// Whether the configured backend is learned or traditional.
    pub fn kind(&self) -> IndexKind {
        self.kind
    }

    /// Configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Configured partitioning scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The display name this configuration reports through `meta()`:
    /// the bare backend name for 1 shard, `sharded(NAME,N)` /
    /// `sharded(NAME,N,hash)` otherwise.
    pub fn display_name(&self) -> String {
        if self.shards <= 1 {
            self.canonical.to_string()
        } else {
            sharded_name(self.canonical, &self.scheme.partitioner::<u64>(self.shards))
        }
    }

    /// Build the configured index: the bare backend for `shards == 1`, the
    /// sharded composite otherwise.
    pub fn build(&self) -> Box<dyn ConcurrentIndex<u64>> {
        if self.shards <= 1 {
            (self.ctor)()
        } else {
            Box::new(self.build_sharded())
        }
    }

    /// Build the sharded composite regardless of shard count (a 1-shard
    /// composite still exercises the routing layer). Use this when the
    /// concrete [`ShardedIndex`] type is needed — e.g. to construct a
    /// `ShardPipeline` or `Session` on top.
    pub fn build_sharded(&self) -> ShardedIndex<u64, Box<dyn ConcurrentIndex<u64>>> {
        let partitioner = self.scheme.partitioner::<u64>(self.shards);
        let display = sharded_name(self.canonical, &partitioner);
        ShardedIndex::from_factory(partitioner, |_| (self.ctor)()).with_name(intern(display))
    }
}

/// The display name of a sharded composite, e.g. `sharded(ALEX+,8)`.
pub fn sharded_name(backend: &str, partitioner: &Partitioner<u64>) -> String {
    if partitioner.is_ordered() {
        format!("sharded({backend},{})", partitioner.shards())
    } else {
        format!(
            "sharded({backend},{},{})",
            partitioner.shards(),
            partitioner.scheme()
        )
    }
}

/// Intern a computed index name: `IndexMeta::name` is `&'static str` (every
/// figure formats it by value), so computed sharded names are leaked
/// once per distinct name and reused afterwards.
fn intern(name: String) -> &'static str {
    static INTERNED: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);
    let mut guard = INTERNED.lock().expect("intern table poisoned");
    let table = guard.get_or_insert_with(HashMap::new);
    if let Some(&s) = table.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    table.insert(name, leaked);
    leaked
}

/// Fresh instances of every concurrent index (§4.2). Set `include_parallelized`
/// to `false` to reproduce "the world without this study" (Figure 16), which
/// drops ALEX+ and LIPP+ and keeps only the natively concurrent indexes.
pub fn concurrent_indexes(include_parallelized: bool) -> Vec<ConcurrentEntry> {
    CONCURRENT_BACKENDS
        .iter()
        .skip(if include_parallelized { 0 } else { 2 })
        .map(|&(name, kind)| ConcurrentEntry {
            name: name.to_string(),
            kind,
            index: IndexBuilder::backend(name)
                .expect("registry name resolves")
                .build(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_cover_the_papers_index_set() {
        let single = single_thread_indexes();
        assert_eq!(single.len(), 8);
        assert!(single.iter().any(|e| e.name == "ALEX"));
        assert!(single.iter().any(|e| e.name == "ART"));
        let learned = single
            .iter()
            .filter(|e| e.kind == IndexKind::Learned)
            .count();
        assert_eq!(learned, 3);

        let conc = concurrent_indexes(true);
        assert_eq!(conc.len(), 9);
        assert!(conc.iter().any(|e| e.name == "ALEX+"));
        let without = concurrent_indexes(false);
        assert_eq!(without.len(), 7);
        assert!(!without.iter().any(|e| e.name == "ALEX+"));
    }

    #[test]
    fn every_registered_index_supports_basic_ops() {
        let entries: Vec<(u64, u64)> = (0..1_000u64).map(|i| (i * 5 + 1, i)).collect();
        for mut e in single_thread_indexes() {
            e.index.bulk_load(&entries);
            assert_eq!(e.index.len(), 1_000, "{}", e.name);
            assert_eq!(e.index.get(6), Some(1), "{}", e.name);
            e.index.insert(2, 22);
            assert_eq!(e.index.get(2), Some(22), "{}", e.name);
            assert!(e.index.memory_usage() > 0, "{}", e.name);
        }
        for mut e in concurrent_indexes(true) {
            e.index.bulk_load(&entries);
            assert_eq!(e.index.len(), 1_000, "{}", e.name);
            assert_eq!(e.index.get(6), Some(1), "{}", e.name);
            e.index.insert(2, 22);
            assert_eq!(e.index.get(2), Some(22), "{}", e.name);
            // update is now a required, atomic operation on every backend.
            assert!(e.index.update(2, 23), "{}", e.name);
            assert_eq!(e.index.get(2), Some(23), "{}", e.name);
            assert!(!e.index.update(3, 1), "{}: absent key must miss", e.name);
            assert_eq!(e.index.get(3), None, "{}: update must not insert", e.name);
        }
    }

    #[test]
    fn builder_resolves_names_case_and_punctuation_insensitively() {
        for spec in ["alex+", "ALEX+", "AlexPlus", "alex plus"] {
            let b = IndexBuilder::backend(spec).unwrap_or_else(|_| panic!("{spec} must resolve"));
            assert_eq!(b.backend_name(), "ALEX+");
            assert_eq!(b.build().meta().name, "ALEX+");
        }
        assert_eq!(
            IndexBuilder::backend("b+tree-olc").unwrap().backend_name(),
            "B+treeOLC"
        );
        assert_eq!(
            IndexBuilder::backend("hot-rowex").unwrap().backend_name(),
            "HOT-ROWEX"
        );
        let err = IndexBuilder::backend("no-such-index").unwrap_err();
        assert!(err.to_string().contains("no-such-index"));
        assert!(IndexBuilder::backend("").is_err());
    }

    #[test]
    fn builder_composes_shards_and_scheme() {
        let b = IndexBuilder::backend("lipp+").unwrap().shards(4);
        assert_eq!(b.shard_count(), 4);
        assert_eq!(b.scheme(), Scheme::Range);
        assert_eq!(b.display_name(), "sharded(LIPP+,4)");
        assert_eq!(b.build().meta().name, "sharded(LIPP+,4)");
        assert!(b.build().meta().concurrent);

        let b = IndexBuilder::backend("xindex")
            .unwrap()
            .shards(2)
            .partitioner(Scheme::Hash);
        assert_eq!(b.display_name(), "sharded(XIndex,2,hash)");
        assert_eq!(b.build().meta().name, "sharded(XIndex,2,hash)");

        // shards <= 1 builds the bare backend…
        let b = IndexBuilder::backend("lipp+").unwrap().shards(1);
        assert_eq!(b.build().meta().name, "LIPP+");
        assert_eq!(b.shards(0).shard_count(), 1);
        // …but build_sharded still yields the routing composite.
        let composite = IndexBuilder::backend("lipp+").unwrap().build_sharded();
        assert_eq!(composite.num_shards(), 1);
        assert_eq!(composite.meta().name, "sharded(LIPP+,1)");
    }

    #[test]
    fn interned_names_are_stable() {
        let builder = IndexBuilder::backend("alex+").unwrap().shards(2);
        let a = builder.build().meta().name;
        let b = builder.build().meta().name;
        assert!(
            std::ptr::eq(a, b),
            "same name must intern to one allocation"
        );
    }
}
