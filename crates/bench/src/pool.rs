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
//! The worker count is detected with one precedence:
//!
//! 1. **`TORA_THREADS`** — explicit operator override (≥ 1);
//! 2. **cgroup CPU quota** — inside a container the kernel caps runnable
//!    CPUs at `quota / period`, regardless of how many cores the host
//!    advertises. Both cgroup v2 (`cpu.max`) and v1
//!    (`cpu.cfs_quota_us` / `cpu.cfs_period_us`) are parsed;
//! 3. **[`std::thread::available_parallelism`]** — the hardware answer.
//!
//! The detected count is *capped* by the quota, never raised: claiming 32
//! threads on a half-core container is how a benchmark reports a parallel
//! "speedup" of 0.97×. Callers that must not depend on detection (tests
//! comparing worker counts) pass an explicit count to [`run_parallel_on`]
//! instead of mutating the environment mid-process.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Parse a cgroup v2 `cpu.max` line (`"<quota> <period>"` or `"max ..."`)
/// into a usable thread cap. `None` means unlimited or unparseable.
fn parse_cpu_max(line: &str) -> Option<usize> {
    let mut parts = line.split_whitespace();
    let quota: f64 = parts.next()?.parse().ok()?; // "max" fails the parse ⇒ unlimited
    let period: f64 = parts.next().and_then(|p| p.parse().ok()).unwrap_or(1e5);
    quota_threads(quota, period)
}

/// Parse cgroup v1 `cpu.cfs_quota_us` / `cpu.cfs_period_us` contents.
/// A quota of `-1` means unlimited.
fn parse_cfs(quota: &str, period: &str) -> Option<usize> {
    let quota: f64 = quota.trim().parse().ok()?;
    if quota < 0.0 {
        return None;
    }
    let period: f64 = period.trim().parse().ok().filter(|p| *p > 0.0)?;
    quota_threads(quota, period)
}

/// `ceil(quota / period)`, floored at one thread.
fn quota_threads(quota: f64, period: f64) -> Option<usize> {
    if !(quota > 0.0 && period > 0.0) {
        return None;
    }
    Some(((quota / period).ceil() as usize).max(1))
}

/// The container CPU quota as a thread count, if one is imposed.
///
/// Reads cgroup v2 first (`/sys/fs/cgroup/cpu.max`), then v1
/// (`/sys/fs/cgroup/cpu/cpu.cfs_{quota,period}_us`). `None` outside a
/// quota-limited cgroup (or on non-Linux systems).
fn cgroup_quota() -> Option<usize> {
    if let Ok(line) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        if let Some(n) = parse_cpu_max(&line) {
            return Some(n);
        }
    }
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").ok()?;
    let period = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us").ok()?;
    parse_cfs(&quota, &period)
}

/// The `TORA_THREADS` override when set (≥ 1), otherwise the available
/// parallelism capped by the cgroup CPU quota.
fn detected_threads() -> usize {
    if let Some(n) = std::env::var("TORA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
    {
        return n;
    }
    let hardware = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    match cgroup_quota() {
        Some(quota) => hardware.min(quota),
        None => hardware,
    }
}

/// Number of workers to use for `jobs` items: the detected thread count,
/// never more than the job count, never less than one.
pub fn thread_count(jobs: usize) -> usize {
    detected_threads().min(jobs.max(1))
}

/// Map `f` over `items` on a scoped thread pool sized by
/// [`thread_count`], returning results in item order regardless of which
/// worker computed what.
pub fn run_parallel<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    run_parallel_on(items, thread_count(items.len()), f)
}

/// [`run_parallel`] with an explicit worker count — the harness-facing
/// entry point for sequential-vs-parallel comparisons (`threads = 1` is
/// the reference run; no environment mutation involved).
///
/// The chunk size grows with the queue so workers touch the shared counter
/// O(threads) times, not O(items); with one worker (or one item) the loop
/// degenerates to a plain sequential map over the same code path.
pub fn run_parallel_on<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
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
    fn cpu_max_parsing() {
        // v2 syntax: "<quota> <period>" with "max" meaning unlimited.
        assert_eq!(parse_cpu_max("max 100000"), None);
        assert_eq!(parse_cpu_max("100000 100000"), Some(1));
        assert_eq!(parse_cpu_max("150000 100000"), Some(2)); // 1.5 CPUs → 2
        assert_eq!(parse_cpu_max("400000 100000"), Some(4));
        assert_eq!(parse_cpu_max("50000 100000"), Some(1)); // half a CPU → 1
        assert_eq!(parse_cpu_max(""), None);
        assert_eq!(parse_cpu_max("garbage"), None);
    }

    #[test]
    fn cfs_parsing() {
        // v1 syntax: quota -1 means unlimited.
        assert_eq!(parse_cfs("-1", "100000"), None);
        assert_eq!(parse_cfs("200000", "100000"), Some(2));
        assert_eq!(parse_cfs("100000\n", "100000\n"), Some(1));
        assert_eq!(parse_cfs("100000", "0"), None);
        assert_eq!(parse_cfs("x", "100000"), None);
    }

    #[test]
    fn thread_count_never_exceeds_jobs() {
        assert!(detected_threads() >= 1);
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
