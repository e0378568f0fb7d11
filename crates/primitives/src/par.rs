//! Thread-parallel map with an in-order fold.
//!
//! The paper's three measurement loops — zone scans, the §4.1 walk over
//! short-link IDs and the §4.2 endpoint sweeps — are each a pure
//! per-item kernel keyed by item identity, folded in item order.
//! [`map_fold`] runs such a kernel on scoped worker threads for
//! [`Backend::map_fold`](crate::Backend::map_fold) and folds the outputs
//! back in index order, so the result is bit-identical to the sequential
//! loop for any worker count. The fold may stop the run early by
//! returning `ControlFlow::Break`, as the walk does at its dead-run stop.
//!
//! ## Round-robin, in blocks
//!
//! Workers take items round-robin (worker `w` of `n` maps items
//! `w, w + n, w + 2n, …`) rather than contiguous chunks. Expensive items
//! cluster: a zone's artifact domains sit at the front of its scan order
//! and every Chrome load of one costs far more than a clean page, so a
//! contiguous split hands nearly all of the work to the first worker.
//! Round-robin spreads any such front evenly. The range is processed in
//! blocks of `BLOCK_PER_WORKER` items per worker, so the outputs held
//! for the in-order fold stay bounded however long the range is, and a
//! stop wastes at most the rest of one block.

use std::ops::{ControlFlow, Range};

/// Items each worker maps per block. Blocks much smaller than this spend
/// their time on spawn overhead; larger ones only hold more outputs for
/// the fold.
const BLOCK_PER_WORKER: u64 = 4_096;

/// Maps every index of `range` through `kernel` on `workers` threads
/// (0 runs as 1) and folds the outputs into `acc` in index order, until
/// `fold` breaks. One worker runs on the calling thread; more take the
/// items of each block round-robin on scoped threads, and a break
/// discards the rest of its block.
pub(crate) fn map_fold<T: Send, A>(
    workers: usize,
    range: Range<u64>,
    kernel: impl Fn(u64) -> T + Sync,
    mut acc: A,
    mut fold: impl FnMut(&mut A, T) -> ControlFlow<()>,
) -> A {
    if workers <= 1 {
        for i in range {
            if fold(&mut acc, kernel(i)).is_break() {
                break;
            }
        }
        return acc;
    }
    let workers = workers as u64;
    let mut start = range.start;
    while start < range.end {
        let end = start
            .saturating_add(BLOCK_PER_WORKER * workers)
            .min(range.end);
        let parts: Vec<Vec<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let kernel = &kernel;
                    s.spawn(move || {
                        (start + w..end)
                            .step_by(workers as usize)
                            .map(kernel)
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
        for i in 0..end - start {
            let out = parts[(i % workers) as usize]
                .next()
                .expect("every worker maps its round-robin share");
            if fold(&mut acc, out).is_break() {
                return acc;
            }
        }
        start = end;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;

    fn squares(backend: Backend, range: Range<u64>) -> (u64, Vec<u64>) {
        backend.map_fold(
            range,
            |i| (i, i * i),
            (0u64, Vec::new()),
            |acc, (i, sq)| {
                acc.0 += sq;
                acc.1.push(i);
                ControlFlow::Continue(())
            },
        )
    }

    #[test]
    fn folds_in_index_order_for_any_width() {
        let sequential = squares(Backend::Sequential, 3..104);
        assert_eq!(sequential.1, (3..104).collect::<Vec<_>>());
        for workers in [1, 2, 3, 7, 16, 32] {
            let run = squares(Backend::Sharded(workers), 3..104);
            assert_eq!(run, sequential, "workers={workers}");
        }
    }

    #[test]
    fn ranges_longer_than_a_block_fold_in_order() {
        let len = BLOCK_PER_WORKER * 3 + 17;
        let run = squares(Backend::Sharded(2), 0..len);
        assert_eq!(run.1, (0..len).collect::<Vec<_>>());
        assert_eq!(run, squares(Backend::Sequential, 0..len));
    }

    #[test]
    fn break_stops_the_fold_at_the_same_item_for_any_width() {
        let stop = BLOCK_PER_WORKER * 2 + 5;
        for backend in [
            Backend::Sequential,
            Backend::Sharded(2),
            Backend::Sharded(3),
        ] {
            let folded = backend.map_fold(
                0..u64::MAX,
                |i| i,
                Vec::new(),
                |acc, i| {
                    acc.push(i);
                    if i == stop {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(folded, (0..=stop).collect::<Vec<_>>(), "{backend}");
        }
    }

    #[test]
    fn empty_ranges_fold_nothing() {
        assert_eq!(squares(Backend::Sharded(4), 5..5), (0, Vec::new()));
    }

    #[test]
    fn zero_workers_run_as_one() {
        // One worker maps every item on the calling thread.
        let caller = std::thread::current().id();
        let threads = Backend::Sharded(0).map_fold(
            0..BLOCK_PER_WORKER + 3,
            |_| std::thread::current().id(),
            Vec::new(),
            |acc, id| {
                acc.push(id);
                ControlFlow::Continue(())
            },
        );
        assert!(threads.iter().all(|&id| id == caller));
        assert_eq!(
            squares(Backend::Sharded(0), 3..104),
            squares(Backend::Sequential, 3..104)
        );
    }
}
