//! Per-shard splitting of generated operation streams.
//!
//! A partitioned serving layer (see the `gre-shard` crate) executes a batch
//! of operations as per-shard sub-batches on a worker pool. The splitting
//! itself is a property of the *op stream*, not of any particular index, so
//! it lives here next to the generators: given a routing function
//! `key -> shard`, [`split_indexed_ops_by_shard`] buckets a request stream
//! into one sub-stream per shard while preserving the original relative
//! order of the operations inside each bucket (the per-shard FIFO the
//! pipeline relies on), and carries each operation's position in the
//! original stream, which is what lets the pipeline fill per-op result slots
//! in submission order.

use crate::spec::Op;

/// Split a request stream into `shards` per-shard sub-streams using `route`
/// (a `key -> shard` map applied to [`Op::route_key`]; out-of-range results
/// are clamped to the last shard, and zero shards is treated as one). Each
/// bucketed operation carries its index in `ops`, and within a bucket the
/// operations keep the relative order they had in `ops`, so executing every
/// sub-stream FIFO preserves per-key program order.
pub fn split_indexed_ops_by_shard<F>(ops: &[Op], shards: usize, route: F) -> Vec<Vec<(usize, Op)>>
where
    F: Fn(u64) -> usize,
{
    let shards = shards.max(1);
    // Pre-size each bucket at the uniform share to avoid repeated regrowth
    // on large streams without overcommitting on skewed ones.
    let hint = ops.len() / shards;
    let mut buckets: Vec<Vec<(usize, Op)>> =
        (0..shards).map(|_| Vec::with_capacity(hint)).collect();
    for (i, op) in ops.iter().enumerate() {
        let s = route(op.route_key()).min(shards - 1);
        buckets[s].push((i, *op));
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use gre_core::RangeSpec;

    #[test]
    fn route_key_covers_every_op() {
        assert_eq!(Op::Get(7).route_key(), 7);
        assert_eq!(Op::Insert(8, 1).route_key(), 8);
        assert_eq!(Op::Update(9, 1).route_key(), 9);
        assert_eq!(Op::Remove(10).route_key(), 10);
        assert_eq!(Op::Range(RangeSpec::new(11, 100)).route_key(), 11);
    }

    #[test]
    fn split_clamps_out_of_range_routes() {
        let ops = vec![Op::Get(1), Op::Get(2)];
        let buckets = split_indexed_ops_by_shard(&ops, 2, |_| 99);
        assert_eq!(buckets[1], [(0, ops[0]), (1, ops[1])]);
        // Zero shards is treated as one.
        let buckets = split_indexed_ops_by_shard(&ops, 0, |_| 0);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].len(), 2);
    }

    #[test]
    fn indexed_split_carries_submission_positions() {
        let ops: Vec<Op> = (0..50u64).map(|i| Op::Insert(i, i)).collect();
        let buckets = split_indexed_ops_by_shard(&ops, 3, |k| (k % 3) as usize);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), ops.len());
        let mut seen = vec![false; ops.len()];
        for (s, bucket) in buckets.iter().enumerate() {
            for &(i, op) in bucket {
                // The carried index points at the original op.
                assert_eq!(ops[i], op);
                assert_eq!(op.route_key() % 3, s as u64);
                seen[i] = true;
            }
            // Indices inside a bucket keep submission order.
            assert!(bucket.windows(2).all(|w| w[0].0 < w[1].0));
        }
        assert!(
            seen.iter().all(|&s| s),
            "every op lands in exactly one bucket"
        );
    }
}
