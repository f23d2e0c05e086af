//! A scoped-thread job pool for the experiment harnesses.
//!
//! The (workflow × algorithm × seed) cells of every figure harness are
//! independent simulations — exactly the "granular sub-problem" shape POP
//! exploits — so they fan out across cores with plain `std::thread::scope`:
//! no external dependencies, no long-lived pool state. This is the only
//! in-process parallelism in the workspace; the allocator, the engine and
//! `tora serve` are serial (DESIGN.md §5h).
//!
//! Work distribution is a chunked atomic queue: each worker claims a small
//! contiguous chunk of indices at a time (amortizing the atomic traffic)
//! and writes results into the slot matching the item's index, so the
//! output order is deterministic and independent of scheduling.
//!
//! The worker count is [`std::thread::available_parallelism`], which on
//! Linux already honours the affinity mask and the cgroup CPU quota, capped
//! at the job count. Results are index-ordered, so the count changes only
//! wall-clock time.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers to use for `jobs` items: the available parallelism,
/// never more than the job count, never less than one.
pub(crate) fn thread_count(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(jobs.max(1))
}

/// Map `f` over `items` on a scoped thread pool sized by `thread_count`,
/// returning results in item order regardless of which worker computed
/// what.
pub fn run_parallel<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_parallel_on(items, thread_count(items.len()), f)
}

/// [`run_parallel`] with an explicit worker count (`threads = 1` is the
/// sequential reference run the identity tests compare against).
///
/// The chunk size grows with the queue so workers touch the shared counter
/// O(threads) times, not O(items); with one worker (or one item) the loop
/// degenerates to a plain sequential map over the same code path.
pub(crate) fn run_parallel_on<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    // Small chunks keep the tail balanced even when item costs vary wildly
    // (a 5000-task Exhaustive cell vs a 600-task Whole Machine cell).
    let chunk = (n / (threads * 4)).max(1);
    let next = AtomicUsize::new(0);
    let results = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<R>>>());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                // Compute outside the lock; store under it.
                let batch: Vec<(usize, R)> = (start..end).map(|i| (i, f(&items[i]))).collect();
                let mut slots = results.lock().expect("no poisoned results");
                for (i, r) in batch {
                    slots[i] = Some(r);
                }
            });
        }
    });
    results
        .into_inner()
        .expect("no poisoned results")
        .into_iter()
        .map(|r| r.expect("all items computed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = run_parallel(&items, |&i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_parallel(&empty, |&x| x).is_empty());
        assert_eq!(run_parallel(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_costs_still_complete() {
        // Wildly imbalanced items must all be computed exactly once.
        let items: Vec<u64> = (0..64).collect();
        let out = run_parallel(&items, |&i| {
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 64);
        for (idx, (i, _)) in out.iter().enumerate() {
            assert_eq!(*i, idx as u64);
        }
    }

    #[test]
    fn thread_count_never_exceeds_jobs() {
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(2) <= 2);
        assert!(thread_count(0) >= 1);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<usize> = (0..100).collect();
        let want: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 4, 200] {
            assert_eq!(run_parallel_on(&items, threads, |&i| i * 3), want);
        }
    }
}
