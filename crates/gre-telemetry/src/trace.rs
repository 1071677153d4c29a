//! `TraceRing`: a fixed-capacity, lock-free ring buffer of operation spans.
//!
//! The serving path records one span per *sampled* operation (see
//! [`Sampler`]), covering submit → route → enqueue → execute → respond.
//! Writers claim slots with one `fetch_add` on a monotone head counter;
//! each slot carries a seqlock-style sequence word so readers detect and
//! discard torn reads instead of blocking writers. Slot payloads are stored
//! as plain atomic words (no `unsafe`), so a torn read is merely stale data,
//! never undefined behaviour.
//!
//! Capacity is rounded up to a power of two so slot selection is a mask.
//! When the ring wraps, the newest spans overwrite the oldest — exactly the
//! "recent window" semantics a flight recorder wants. [`TraceRing::recent`]
//! returns the currently-consistent spans.

use gre_core::ops::RequestKind;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One sampled operation's lifecycle timestamps (nanoseconds since the
/// owning [`Telemetry`](crate::Telemetry) epoch) plus identity fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global sample ticket of the traced op (monotone across the run).
    pub op_id: u64,
    /// Request kind of the traced op.
    pub kind: RequestKind,
    /// Shard the op was routed to.
    pub shard: u32,
    /// Operations in the shard-local sub-batch that carried this op.
    pub batch_ops: u32,
    /// Batch handed to `submit`/`try_submit`.
    pub submit_ns: u64,
    /// Batch split into shard-local sub-batches.
    pub route_ns: u64,
    /// Sub-batch enqueued on the shard queue.
    pub enqueue_ns: u64,
    /// Worker dequeued the sub-batch and began executing.
    pub execute_ns: u64,
    /// Sub-batch execution finished.
    pub complete_ns: u64,
    /// Responses written back and waiters notified.
    pub respond_ns: u64,
}

impl Default for SpanRecord {
    fn default() -> Self {
        SpanRecord {
            op_id: 0,
            kind: RequestKind::Get,
            shard: 0,
            batch_ops: 0,
            submit_ns: 0,
            route_ns: 0,
            enqueue_ns: 0,
            execute_ns: 0,
            complete_ns: 0,
            respond_ns: 0,
        }
    }
}

/// Words per encoded span: id word + packed identity word + 6 timestamps.
const SPAN_WORDS: usize = 8;

impl SpanRecord {
    fn encode(&self) -> [u64; SPAN_WORDS] {
        let packed = (self.kind.index() as u64) << 48
            | (self.shard as u64 & 0xFFFF) << 32
            | self.batch_ops as u64;
        [
            self.op_id,
            packed,
            self.submit_ns,
            self.route_ns,
            self.enqueue_ns,
            self.execute_ns,
            self.complete_ns,
            self.respond_ns,
        ]
    }

    fn decode(w: [u64; SPAN_WORDS]) -> SpanRecord {
        let kind_idx = ((w[1] >> 48) & 0xFF) as usize;
        SpanRecord {
            op_id: w[0],
            kind: RequestKind::ALL[kind_idx.min(RequestKind::COUNT - 1)],
            shard: ((w[1] >> 32) & 0xFFFF) as u32,
            batch_ops: (w[1] & 0xFFFF_FFFF) as u32,
            submit_ns: w[2],
            route_ns: w[3],
            enqueue_ns: w[4],
            execute_ns: w[5],
            complete_ns: w[6],
            respond_ns: w[7],
        }
    }
}

/// One ring slot: a seqlock sequence word guarding an atomically-stored
/// span payload. Odd sequence = a writer is mid-update.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SPAN_WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: Default::default(),
        }
    }
}

/// Fixed-capacity lock-free span ring (see module docs).
pub struct TraceRing {
    slots: Box<[Slot]>,
    mask: u64,
    head: AtomicU64,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.recorded())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl TraceRing {
    /// A ring holding the most recent `capacity` spans (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(2).next_power_of_two();
        TraceRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans recorded so far (including any already overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Spans dropped because their slot was owned by a concurrent writer
    /// (only possible when writers lap the ring).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Record one span. Lock-free: a writer that finds its slot mid-write
    /// (a lapping writer still inside it) drops the span instead of
    /// spinning.
    pub fn record(&self, span: SpanRecord) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (cell, w) in slot.words.iter().zip(span.encode()) {
            cell.store(w, Ordering::Relaxed);
        }
        slot.seq.store(seq + 2, Ordering::Release);
    }

    /// Collect the currently-consistent spans, oldest first (by submit
    /// timestamp). Torn slots (concurrently being rewritten) are skipped.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let head = self.head.load(Ordering::Acquire);
        let live = (head.min(self.slots.len() as u64)) as usize;
        let mut out = Vec::with_capacity(live);
        for slot in self.slots.iter().take(live) {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 & 1 == 1 {
                continue;
            }
            let mut words = [0u64; SPAN_WORDS];
            for (w, cell) in words.iter_mut().zip(slot.words.iter()) {
                *w = cell.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue; // torn: a writer got in between
            }
            out.push(SpanRecord::decode(words));
        }
        out.sort_by_key(|s| (s.submit_ns, s.op_id));
        out
    }
}

/// Deterministic 1-in-N sampler shared by all submitters.
///
/// Each submit claims a contiguous range of global op ids with one relaxed
/// `fetch_add`; the claim reports which offset inside the batch (if any)
/// falls on a sampling point. Op id 0 is always sampled, so short runs
/// still produce at least one span.
#[derive(Debug)]
pub struct Sampler {
    one_in: u64,
    next_id: AtomicU64,
}

impl Sampler {
    /// Sample one in `one_in` operations (clamped to at least 1 = all).
    pub fn new(one_in: u64) -> Sampler {
        Sampler {
            one_in: one_in.max(1),
            next_id: AtomicU64::new(0),
        }
    }

    /// The configured sampling period.
    pub fn one_in(&self) -> u64 {
        self.one_in
    }

    /// Claim `n` op ids; if one of them is a sampling point, return
    /// `(op_id, offset_in_batch)` of the first such op.
    #[inline]
    pub fn claim(&self, n: u64) -> Option<(u64, usize)> {
        if n == 0 {
            return None;
        }
        let start = self.next_id.fetch_add(n, Ordering::Relaxed);
        let first = start.next_multiple_of(self.one_in);
        (first < start + n).then(|| (first, (first - start) as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn span(op_id: u64, shard: u32, base_ns: u64) -> SpanRecord {
        SpanRecord {
            op_id,
            kind: RequestKind::ALL[(op_id % 5) as usize],
            shard,
            batch_ops: 17,
            submit_ns: base_ns,
            route_ns: base_ns + 1,
            enqueue_ns: base_ns + 2,
            execute_ns: base_ns + 10,
            complete_ns: base_ns + 50,
            respond_ns: base_ns + 55,
        }
    }

    #[test]
    fn encode_decode_roundtrips() {
        for id in 0..10 {
            let s = span(id, (id % 3) as u32, id * 1000);
            assert_eq!(SpanRecord::decode(s.encode()), s);
        }
    }

    #[test]
    fn ring_stores_and_returns_spans_in_order() {
        let ring = TraceRing::new(16);
        assert_eq!(ring.capacity(), 16);
        for i in 0..5 {
            ring.record(span(i, 0, (5 - i) * 100)); // reverse time order
        }
        let got = ring.recent();
        assert_eq!(got.len(), 5);
        // Sorted by submit timestamp, not insertion order.
        assert!(got.windows(2).all(|w| w[0].submit_ns <= w[1].submit_ns));
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_capacity_rounds_up_to_power_of_two() {
        assert_eq!(TraceRing::new(0).capacity(), 2);
        assert_eq!(TraceRing::new(5).capacity(), 8);
        assert_eq!(TraceRing::new(64).capacity(), 64);
    }

    #[test]
    fn wraparound_keeps_only_the_newest_spans() {
        let ring = TraceRing::new(8);
        for i in 0..100 {
            ring.record(span(i, 0, i * 10));
        }
        let got = ring.recent();
        assert_eq!(got.len(), 8, "full ring holds exactly capacity spans");
        // The survivors are the last 8 written.
        let ids: Vec<u64> = got.iter().map(|s| s.op_id).collect();
        assert_eq!(ids, (92..100).collect::<Vec<u64>>());
        assert_eq!(ring.recorded(), 100);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_spans() {
        let ring = Arc::new(TraceRing::new(64));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        let id = t * 10_000 + i;
                        ring.record(span(id, t as u32, id));
                    }
                })
            })
            .collect();
        // Concurrent reader: every span it sees must be internally
        // consistent (timestamps strictly laddered the way `span` builds
        // them), proving torn reads are filtered out.
        let reader = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    for s in ring.recent() {
                        assert_eq!(s.route_ns, s.submit_ns + 1, "torn span {s:?}");
                        assert_eq!(s.respond_ns, s.submit_ns + 55, "torn span {s:?}");
                        assert_eq!(s.batch_ops, 17);
                    }
                    std::thread::yield_now();
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        // Everything was either recorded or counted as dropped.
        assert_eq!(ring.recorded(), 40_000);
        let final_spans = ring.recent();
        assert!(!final_spans.is_empty());
        assert!(final_spans.len() <= 64);
    }

    #[test]
    fn sampler_picks_every_nth_op() {
        let s = Sampler::new(10);
        // First claim starts at id 0, which is always a sampling point.
        assert_eq!(s.claim(4), Some((0, 0)));
        // ids 4..8: no multiple of 10.
        assert_eq!(s.claim(4), None);
        // ids 8..16: 10 is at offset 2.
        assert_eq!(s.claim(8), Some((10, 2)));
        assert_eq!(s.claim(0), None);
        // A huge claim samples its first in-range point.
        assert_eq!(s.claim(100), Some((20, 4)));
    }

    #[test]
    fn sampler_one_in_one_samples_everything() {
        let s = Sampler::new(0); // clamped to 1
        assert_eq!(s.one_in(), 1);
        for i in 0..5 {
            assert_eq!(s.claim(1), Some((i, 0)));
        }
    }
}
