//! The canonical typed request/response vocabulary of the serving stack.
//!
//! Every layer that moves operations around — workload generators, the
//! batched shard pipeline, client sessions — speaks in terms of [`Request`]
//! and answers with [`Response`]. Each request variant has exactly one
//! response shape (`Get -> Option<Payload>`, `Insert -> bool`, …), so a
//! client that submitted a batch can read *its own* outcomes instead of the
//! merged counters the old fire-and-forget surface returned.
//!
//! Capability gating lives here too: executing a `Remove` against a backend
//! whose [`IndexMeta::supports_delete`] is false yields
//! [`Response::Error`]\([`IndexError::Unsupported`]\) instead of a silent
//! no-op, so misconfigured deployments fail loudly at the first request.

use crate::index::{ConcurrentIndex, Index, IndexMeta, RangeSpec};
use crate::key::{Key, Payload};
use std::fmt;

/// A single typed request against an index.
///
/// `Request<u64>` is re-exported by `gre-workloads` as `Op`, making this the
/// one operation vocabulary from workload generation down to shard workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<K> {
    /// Point lookup of a key. Answered by [`Response::Get`].
    Get(K),
    /// Insert a key with a payload (upsert). Answered by [`Response::Insert`]
    /// with `true` iff the key was newly created.
    Insert(K, Payload),
    /// Update the payload of an (expected-present) key in place. Answered by
    /// [`Response::Update`] with `true` iff the key was present.
    Update(K, Payload),
    /// Delete a key. Answered by [`Response::Remove`] with the evicted
    /// payload.
    Remove(K),
    /// Range scan per [`RangeSpec`]. Answered by [`Response::Range`] with the
    /// matching entries in ascending key order.
    Range(RangeSpec<K>),
}

/// Operation kinds, used for per-kind latency sampling and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    Get,
    Insert,
    Update,
    Remove,
    Range,
}

impl RequestKind {
    /// All kinds, in reporting order.
    pub const ALL: [RequestKind; 5] = [
        RequestKind::Get,
        RequestKind::Insert,
        RequestKind::Update,
        RequestKind::Remove,
        RequestKind::Range,
    ];

    /// Number of kinds (the length of [`RequestKind::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index of this kind in [`RequestKind::ALL`], for kind-indexed
    /// tables like [`crate::latency::KindLatency`].
    #[inline]
    pub fn index(self) -> usize {
        match self {
            RequestKind::Get => 0,
            RequestKind::Insert => 1,
            RequestKind::Update => 2,
            RequestKind::Remove => 3,
            RequestKind::Range => 4,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RequestKind::Get => "get",
            RequestKind::Insert => "insert",
            RequestKind::Update => "update",
            RequestKind::Remove => "remove",
            RequestKind::Range => "range",
        }
    }

    /// Whether operations of this kind mutate the index.
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(
            self,
            RequestKind::Insert | RequestKind::Update | RequestKind::Remove
        )
    }
}

impl<K: Key> Request<K> {
    /// The kind of this request.
    pub fn kind(&self) -> RequestKind {
        match self {
            Request::Get(_) => RequestKind::Get,
            Request::Insert(_, _) => RequestKind::Insert,
            Request::Update(_, _) => RequestKind::Update,
            Request::Remove(_) => RequestKind::Remove,
            Request::Range(_) => RequestKind::Range,
        }
    }

    /// Whether the request mutates the index.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::Insert(_, _) | Request::Update(_, _) | Request::Remove(_)
        )
    }

    /// The key this request is routed by in a partitioned store: the target
    /// key for point operations, the scan start key for ranges (the executor
    /// continues a scan that crosses into neighbouring shards).
    #[inline]
    pub fn route_key(&self) -> K {
        match *self {
            Request::Get(k)
            | Request::Insert(k, _)
            | Request::Update(k, _)
            | Request::Remove(k) => k,
            Request::Range(spec) => spec.start,
        }
    }

    /// Execute against a concurrent index, gating on `meta`'s capability
    /// flags. Pass a cached [`IndexMeta`] when executing many requests:
    /// `meta()` may itself take locks on composite indexes.
    ///
    /// Range responses are clipped to the spec's key window here, so the
    /// optional inclusive end bound holds even over backends whose `range`
    /// treats [`RangeSpec::end`] as advisory and only honors the count. A
    /// range answer of up to 4 096 entries is allocated once, at its bound,
    /// and never grows while the scan fills it.
    pub fn execute<I: ConcurrentIndex<K> + ?Sized>(
        self,
        index: &I,
        meta: &IndexMeta,
    ) -> Response<K> {
        match self {
            Request::Get(k) => Response::Get(index.get(k)),
            Request::Insert(k, v) => Response::Insert(index.insert(k, v)),
            Request::Update(k, v) => Response::Update(index.update(k, v)),
            Request::Remove(k) => {
                if meta.supports_delete {
                    Response::Remove(index.remove(k))
                } else {
                    Response::Error(IndexError::Unsupported("remove"))
                }
            }
            Request::Range(spec) => range_response(spec, meta, |out| {
                index.range(spec, out);
            }),
        }
    }

    /// Execute against a single-threaded index (same gating and range
    /// clipping as [`Request::execute`]).
    pub fn execute_mut<I: Index<K> + ?Sized>(self, index: &mut I, meta: &IndexMeta) -> Response<K> {
        match self {
            Request::Get(k) => Response::Get(index.get(k)),
            Request::Insert(k, v) => Response::Insert(index.insert(k, v)),
            Request::Update(k, v) => Response::Update(index.update(k, v)),
            Request::Remove(k) => {
                if meta.supports_delete {
                    Response::Remove(index.remove(k))
                } else {
                    Response::Error(IndexError::Unsupported("remove"))
                }
            }
            Request::Range(spec) => range_response(spec, meta, |out| {
                index.range(spec, out);
            }),
        }
    }
}

/// The largest [`RangeSpec::count`] whose answer [`Request::execute`] and
/// [`Request::execute_mut`] allocate at its full bound before the scan. A
/// larger count, such as `usize::MAX` for "the whole key window", bounds
/// nothing worth reserving, so its answer grows from empty as it fills.
const PRESIZED_RANGE_MAX: usize = 4096;

/// Gate a range request on `meta`, let `scan` fill an answer sized once at
/// the spec's bound, and clip the answer to the spec's key window.
fn range_response<K: Key>(
    spec: RangeSpec<K>,
    meta: &IndexMeta,
    scan: impl FnOnce(&mut Vec<(K, Payload)>),
) -> Response<K> {
    if !meta.supports_range {
        return Response::Error(IndexError::Unsupported("range"));
    }
    let bound = if spec.count <= PRESIZED_RANGE_MAX {
        spec.count
    } else {
        0
    };
    let mut out = Vec::with_capacity(bound);
    scan(&mut out);
    spec.clip(&mut out);
    Response::Range(out)
}

/// The typed outcome of one executed [`Request`]. Variants correspond
/// one-to-one with request variants, plus [`Response::Error`] for requests a
/// backend cannot serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response<K> {
    /// Payload of the looked-up key, if present.
    Get(Option<Payload>),
    /// `true` iff the insert created a new key (vs. updating in place).
    Insert(bool),
    /// `true` iff the updated key was present.
    Update(bool),
    /// Payload of the removed key, if it was present.
    Remove(Option<Payload>),
    /// Entries returned by a range scan, in ascending key order.
    Range(Vec<(K, Payload)>),
    /// The request could not be served (e.g. a delete against a backend
    /// without delete support).
    Error(IndexError),
}

impl<K> Response<K> {
    /// Whether this response reports an execution error.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error(_))
    }
}

/// Errors surfaced per operation through [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// The backend does not implement this operation (its [`IndexMeta`]
    /// capability flag is off). The payload names the operation.
    Unsupported(&'static str),
    /// The serving layer is shutting down (or its durability tier has
    /// fail-stopped): the operation was **not** executed and never will be.
    /// This is a terminal per-op answer — submitters can distinguish a
    /// drained-without-executing batch from a completed one.
    Shutdown,
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Unsupported(op) => write!(f, "operation not supported by backend: {op}"),
            IndexError::Shutdown => write!(f, "serving layer shut down before execution"),
        }
    }
}

impl std::error::Error for IndexError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::MutexIndex;
    use std::collections::BTreeMap;

    #[derive(Default)]
    struct MapIndex {
        map: BTreeMap<u64, Payload>,
        supports_delete: bool,
        supports_range: bool,
    }

    impl Index<u64> for MapIndex {
        fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
            self.map = entries.iter().copied().collect();
        }
        fn get(&self, key: u64) -> Option<Payload> {
            self.map.get(&key).copied()
        }
        fn insert(&mut self, key: u64, value: Payload) -> bool {
            self.map.insert(key, value).is_none()
        }
        fn remove(&mut self, key: u64) -> Option<Payload> {
            self.map.remove(&key)
        }
        fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
            let before = out.len();
            out.extend(
                self.map
                    .range(spec.start..)
                    .take_while(|(k, _)| spec.end.map_or(true, |e| **k <= e))
                    .take(spec.count)
                    .map(|(k, v)| (*k, *v)),
            );
            out.len() - before
        }
        fn len(&self) -> usize {
            self.map.len()
        }
        fn memory_usage(&self) -> usize {
            self.map.len() * 48
        }
        fn meta(&self) -> IndexMeta {
            IndexMeta {
                name: "map",
                learned: false,
                concurrent: false,
                supports_delete: self.supports_delete,
                supports_range: self.supports_range,
            }
        }
    }

    fn capable() -> MapIndex {
        MapIndex {
            supports_delete: true,
            supports_range: true,
            ..Default::default()
        }
    }

    #[test]
    fn request_kinds_and_routing() {
        assert_eq!(Request::<u64>::Get(7).kind(), RequestKind::Get);
        assert_eq!(Request::<u64>::Insert(8, 1).kind(), RequestKind::Insert);
        assert_eq!(Request::<u64>::Update(9, 1).kind(), RequestKind::Update);
        assert_eq!(Request::<u64>::Remove(10).kind(), RequestKind::Remove);
        assert_eq!(
            Request::<u64>::Range(RangeSpec::new(11, 5)).kind(),
            RequestKind::Range
        );
        assert_eq!(Request::<u64>::Get(7).route_key(), 7);
        assert_eq!(Request::<u64>::Range(RangeSpec::new(11, 5)).route_key(), 11);
        assert!(Request::<u64>::Insert(1, 1).is_write());
        assert!(Request::<u64>::Update(1, 1).is_write());
        assert!(Request::<u64>::Remove(1).is_write());
        assert!(!Request::<u64>::Get(1).is_write());
        assert!(!Request::<u64>::Range(RangeSpec::new(1, 1)).is_write());
    }

    #[test]
    fn execute_mut_returns_typed_outcomes() {
        let mut idx = capable();
        idx.bulk_load(&[(1, 10), (5, 50)]);
        let meta = idx.meta();
        assert_eq!(
            Request::Get(1).execute_mut(&mut idx, &meta),
            Response::Get(Some(10))
        );
        assert_eq!(
            Request::Get(2).execute_mut(&mut idx, &meta),
            Response::Get(None)
        );
        assert_eq!(
            Request::Insert(2, 20).execute_mut(&mut idx, &meta),
            Response::Insert(true)
        );
        assert_eq!(
            Request::Insert(2, 21).execute_mut(&mut idx, &meta),
            Response::Insert(false)
        );
        assert_eq!(
            Request::Update(2, 22).execute_mut(&mut idx, &meta),
            Response::Update(true)
        );
        assert_eq!(
            Request::Update(99, 0).execute_mut(&mut idx, &meta),
            Response::Update(false)
        );
        assert_eq!(
            Request::Remove(2).execute_mut(&mut idx, &meta),
            Response::Remove(Some(22))
        );
        assert_eq!(
            Request::Range(RangeSpec::new(0, 10)).execute_mut(&mut idx, &meta),
            Response::Range(vec![(1, 10), (5, 50)])
        );
    }

    #[test]
    fn unsupported_operations_fail_loudly() {
        let mut idx = MapIndex::default(); // no delete, no range
        idx.bulk_load(&[(1, 10)]);
        let meta = idx.meta();
        let r = Request::Remove(1).execute_mut(&mut idx, &meta);
        assert_eq!(r, Response::Error(IndexError::Unsupported("remove")));
        assert!(r.is_error());
        let r = Request::Range(RangeSpec::new(0, 5)).execute_mut(&mut idx, &meta);
        assert_eq!(r, Response::Error(IndexError::Unsupported("range")));
        // The gated key is still present: the request was rejected, not
        // silently half-applied.
        assert_eq!(idx.get(1), Some(10));
    }

    #[test]
    fn execute_works_through_concurrent_adapters() {
        let mut wrapped = MutexIndex::new(capable(), "map-mutex");
        ConcurrentIndex::bulk_load(&mut wrapped, &[(1, 10), (2, 20)]);
        let meta = ConcurrentIndex::meta(&wrapped);
        assert_eq!(
            Request::Get(2).execute(&wrapped, &meta),
            Response::Get(Some(20))
        );
        assert_eq!(
            Request::Update(2, 21).execute(&wrapped, &meta),
            Response::Update(true)
        );
        assert_eq!(
            Request::Remove(1).execute(&wrapped, &meta),
            Response::Remove(Some(10))
        );
        assert_eq!(
            Request::Range(RangeSpec::bounded(0, 10, 100)).execute(&wrapped, &meta),
            Response::Range(vec![(2, 21)])
        );
    }

    #[test]
    fn execute_clips_bounded_ranges_over_end_ignorant_backends() {
        /// A backend that honors only the count limit — like most index
        /// implementations — leaving the end bound to the executor.
        struct CountOnlyIndex(MapIndex);
        impl Index<u64> for CountOnlyIndex {
            fn bulk_load(&mut self, entries: &[(u64, Payload)]) {
                self.0.bulk_load(entries);
            }
            fn get(&self, key: u64) -> Option<Payload> {
                self.0.get(key)
            }
            fn insert(&mut self, key: u64, value: Payload) -> bool {
                self.0.insert(key, value)
            }
            fn remove(&mut self, key: u64) -> Option<Payload> {
                self.0.remove(key)
            }
            fn range(&self, spec: RangeSpec<u64>, out: &mut Vec<(u64, Payload)>) -> usize {
                // Deliberately ignore spec.end.
                self.0.range(RangeSpec::new(spec.start, spec.count), out)
            }
            fn len(&self) -> usize {
                self.0.len()
            }
            fn memory_usage(&self) -> usize {
                self.0.memory_usage()
            }
            fn meta(&self) -> IndexMeta {
                self.0.meta()
            }
        }

        let mut idx = CountOnlyIndex(capable());
        idx.bulk_load(&[(1, 10), (3, 30), (5, 50), (7, 70)]);
        let meta = idx.meta();
        // The raw backend overshoots the window…
        let mut raw = Vec::new();
        idx.range(RangeSpec::bounded(2, 5, 10), &mut raw);
        assert_eq!(raw, vec![(3, 30), (5, 50), (7, 70)]);
        // …but the typed execution path clips it to the contract.
        assert_eq!(
            Request::Range(RangeSpec::bounded(2, 5, 10)).execute_mut(&mut idx, &meta),
            Response::Range(vec![(3, 30), (5, 50)])
        );
    }

    #[test]
    fn range_answers_are_allocated_once_at_their_bound() {
        let entries: Vec<(u64, Payload)> = (0..1_000u64).map(|k| (k * 3, k)).collect();
        let mut idx = capable();
        idx.bulk_load(&entries);
        let meta = idx.meta();
        let mut wrapped = MutexIndex::new(capable(), "map-mutex");
        ConcurrentIndex::bulk_load(&mut wrapped, &entries);
        // A full answer, and one the key space cuts short: both were
        // allocated at the bound and never grew.
        for (start, len) in [(30, 100), (2_949, 17)] {
            let spec = RangeSpec::new(start, 100);
            for response in [
                Request::Range(spec).execute_mut(&mut idx, &meta),
                Request::Range(spec).execute(&wrapped, &meta),
            ] {
                let Response::Range(out) = response else {
                    panic!("a range answers Response::Range");
                };
                assert_eq!(out.len(), len);
                assert_eq!(out.capacity(), 100);
                assert_eq!(out[0], (start, start / 3));
            }
        }
    }

    #[test]
    fn an_unbounded_count_answers_its_window_without_reserving_it() {
        let entries: Vec<(u64, Payload)> = (0..1_000u64).map(|k| (k * 3, k)).collect();
        let mut idx = capable();
        idx.bulk_load(&entries);
        let meta = idx.meta();
        let mut wrapped = MutexIndex::new(capable(), "map-mutex");
        ConcurrentIndex::bulk_load(&mut wrapped, &entries);
        let spec = RangeSpec::bounded(10, 40, usize::MAX);
        let expected: Vec<(u64, Payload)> = (4..=13u64).map(|k| (k * 3, k)).collect();
        for response in [
            Request::Range(spec).execute_mut(&mut idx, &meta),
            Request::Range(spec).execute(&wrapped, &meta),
        ] {
            let Response::Range(out) = response else {
                panic!("a range answers Response::Range");
            };
            assert_eq!(out, expected);
            assert!(out.capacity() < PRESIZED_RANGE_MAX, "{}", out.capacity());
        }
    }

    #[test]
    fn response_accessors() {
        assert!(!Response::<u64>::Get(Some(5)).is_error());
        let e = IndexError::Unsupported("range");
        assert!(e.to_string().contains("range"));
    }
}
