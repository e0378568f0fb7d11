//! Thread-parallel map with an in-order fold.
//!
//! The paper's three measurement loops — zone scans, the §4.1 walk over
//! short-link IDs and the §4.2 endpoint sweeps — are each a pure
//! per-item kernel keyed by item identity, folded in item order.
//! [`ParallelExecutor::map_fold`] runs such a kernel on scoped worker
//! threads and folds the outputs back in index order, so the result is
//! bit-identical to the sequential loop for any worker count. The fold
//! may stop the run early by returning `ControlFlow::Break`, as the
//! walk does at its dead-run stop.
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

/// Maps index ranges across a fixed number of worker threads.
#[derive(Clone, Copy, Debug)]
pub struct ParallelExecutor {
    workers: usize,
}

impl ParallelExecutor {
    /// Executor with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> ParallelExecutor {
        ParallelExecutor {
            workers: workers.max(1),
        }
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Maps every index of `range` through `kernel` and folds the outputs
    /// into `acc` in index order, until `fold` breaks. One worker runs on
    /// the calling thread; more take the items of each block round-robin
    /// on scoped threads, and a break discards the rest of its block.
    pub fn map_fold<T: Send, A>(
        &self,
        range: Range<u64>,
        kernel: impl Fn(u64) -> T + Sync,
        mut acc: A,
        mut fold: impl FnMut(&mut A, T) -> ControlFlow<()>,
    ) -> A {
        if self.workers == 1 {
            for i in range {
                if fold(&mut acc, kernel(i)).is_break() {
                    break;
                }
            }
            return acc;
        }
        let workers = self.workers as u64;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(workers: usize, range: Range<u64>) -> (u64, Vec<u64>) {
        ParallelExecutor::new(workers).map_fold(
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
        let sequential = squares(1, 3..104);
        for workers in [1, 2, 3, 7, 16, 32] {
            let run = squares(workers, 3..104);
            assert_eq!(run, sequential, "workers={workers}");
            assert_eq!(run.1, (3..104).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ranges_longer_than_a_block_fold_in_order() {
        let len = BLOCK_PER_WORKER * 3 + 17;
        let run = squares(2, 0..len);
        assert_eq!(run.1, (0..len).collect::<Vec<_>>());
        assert_eq!(run, squares(1, 0..len));
    }

    #[test]
    fn break_stops_the_fold_at_the_same_item_for_any_width() {
        let stop = BLOCK_PER_WORKER * 2 + 5;
        for workers in [1, 2, 3] {
            let folded = ParallelExecutor::new(workers).map_fold(
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
            assert_eq!(folded, (0..=stop).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn empty_ranges_fold_nothing() {
        assert_eq!(squares(4, 5..5), (0, Vec::new()));
    }

    #[test]
    fn executor_clamps_zero_workers() {
        assert_eq!(ParallelExecutor::new(0).workers(), 1);
    }
}
