//! Deterministic work sharding for the parallel searches.
//!
//! Every parallel loop in the workspace (exhaustive mapping shards,
//! multi-start annealing restarts, fault-sweep points) runs through
//! [`map_ordered`]: it splits `0..n` into contiguous shards, lets each
//! `std::thread::scope` worker fill its own disjoint result slots, and
//! returns the results **in index order**. The caller then reduces them
//! in that order with a `(value, first-index)` tie-break. Because the
//! serial path enumerates the same space in the same order and keeps the
//! first strict minimum, the parallel result is bit-identical to the
//! serial one at every thread count.

use std::ops::Range;

/// Resolves a requested worker count: `0` means "use the machine"
/// (`std::thread::available_parallelism`), anything else is taken
/// literally. Always returns at least 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Splits `0..total` into at most `shards` contiguous, non-empty,
/// covering ranges (fewer when `total < shards`). The first
/// `total % shards` ranges are one element longer, so shard sizes differ
/// by at most one.
pub fn shard_ranges(total: u64, shards: usize) -> Vec<Range<u64>> {
    if total == 0 {
        return Vec::new();
    }
    let shards = (shards.max(1) as u64).min(total);
    let base = total / shards;
    let extra = total % shards;
    let mut ranges = Vec::with_capacity(shards as usize);
    let mut start = 0;
    for shard in 0..shards {
        let len = base + u64::from(shard < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Computes `f(0), f(1), …, f(n - 1)` on up to `threads` scoped workers
/// (0 = use the machine, see [`resolve_threads`]) and returns the results
/// in index order. Each worker takes one contiguous range from
/// [`shard_ranges`] and fills that range's slots, so every index is
/// computed exactly once. With one thread, or at most one index, `f`
/// runs inline and no thread is spawned.
///
/// # Panics
///
/// Propagates a panic of any `f` call.
pub fn map_ordered<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = resolve_threads(threads);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut rest = slots.as_mut_slice();
        for range in shard_ranges(n as u64, threads) {
            let (chunk, tail) = rest.split_at_mut((range.end - range.start) as usize);
            rest = tail;
            let f = &f;
            scope.spawn(move || {
                for (slot, index) in chunk.iter_mut().zip(range) {
                    *slot = Some(f(index as usize));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every worker fills its slots"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_uses_the_machine() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn shards_cover_exactly_without_overlap() {
        for total in [1u64, 2, 7, 64, 1000] {
            for shards in [1usize, 2, 3, 4, 7, 100] {
                let ranges = shard_ranges(total, shards);
                assert!(ranges.len() <= shards && !ranges.is_empty());
                let mut expected = 0;
                for range in &ranges {
                    assert_eq!(range.start, expected, "contiguous");
                    assert!(range.end > range.start, "non-empty");
                    expected = range.end;
                }
                assert_eq!(expected, total, "covering");
                let sizes: Vec<u64> = ranges.iter().map(|r| r.end - r.start).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn empty_space_yields_no_shards() {
        assert!(shard_ranges(0, 4).is_empty());
    }

    #[test]
    fn map_ordered_computes_each_index_once_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for n in [0usize, 1, 7, 64] {
            for threads in [0, 1, 2, 3, n + 2] {
                let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let results = map_ordered(n, threads, |index| {
                    calls[index].fetch_add(1, Ordering::Relaxed);
                    index * 3
                });
                let expected: Vec<usize> = (0..n).map(|index| index * 3).collect();
                assert_eq!(results, expected, "n {n}, threads {threads}");
                for (index, count) in calls.iter().enumerate() {
                    assert_eq!(count.load(Ordering::Relaxed), 1, "index {index} of {n}");
                }
            }
        }
    }
}
