//! Best-effort software prefetch, the workspace's one `unsafe` block for it.
//!
//! A node search whose lines miss in cache pays one memory latency per
//! *dependent* load. Requesting every line a search may touch before the
//! search starts lets those misses overlap, so the search pays roughly one
//! latency instead of one per probe.

/// Bytes per cache line assumed by [`prefetch_slice`].
const CACHE_LINE: usize = 64;

/// Best-effort read prefetch of the cache line holding `*ptr`. No-op on
/// architectures without an exposed prefetch intrinsic.
#[inline(always)]
pub fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch never faults, even on invalid addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Prefetch every cache line `items` spans, each line once.
#[inline(always)]
pub fn prefetch_slice<T>(items: &[T]) {
    for line in line_starts(items) {
        prefetch_read(line);
    }
}

/// The start of each cache line the bytes of `items` touch, in order.
#[inline(always)]
fn line_starts<T>(items: &[T]) -> impl Iterator<Item = *const u8> {
    let range = items.as_ptr_range();
    let (start, end) = (range.start as usize, range.end as usize);
    let first = start & !(CACHE_LINE - 1);
    // An empty slice touches no line, even when it starts mid-line.
    let end = if items.is_empty() { first } else { end };
    let base = range.start.cast::<u8>();
    (first..end)
        .step_by(CACHE_LINE)
        .map(move |line| base.wrapping_offset(line as isize - start as isize))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_a_no_op_on_any_slice() {
        let data: Vec<u64> = (0..1_000).collect();
        prefetch_slice(&data);
        prefetch_slice(&data[3..4]);
        prefetch_slice(&data[..0]);
        prefetch_slice::<u64>(&[]);
        prefetch_read(data.as_ptr().wrapping_add(5_000));
        assert_eq!(data.iter().sum::<u64>(), 999 * 1_000 / 2);
    }

    #[test]
    fn slice_prefetch_visits_each_spanned_line_once() {
        #[repr(align(64))]
        struct Lines([u64; 32]);
        let block = Lines([0; 32]);
        let count = |items: &[u64]| line_starts(items).count();
        assert_eq!(count(&block.0), 4);
        assert_eq!(count(&block.0[..8]), 1);
        assert_eq!(count(&block.0[7..9]), 2);
        assert_eq!(count(&block.0[3..3]), 0);
        let starts: Vec<usize> = line_starts(&block.0[7..17]).map(|p| p as usize).collect();
        let base = block.0.as_ptr() as usize;
        assert_eq!(starts, vec![base, base + 64, base + 128]);
    }
}
