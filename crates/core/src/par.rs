//! Honest thread detection and a deterministic scoped parallel map.
//!
//! Everything parallel in the workspace sizes itself through this module, so
//! the worker count is decided in exactly one place, with one precedence:
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
//! comparing thread counts, a daemon's `--threads`) pass an explicit count
//! instead, and [`resolve`] maps `0` to [`detected_threads`].
//!
//! [`par_map_mut`] is the execution half: a scoped-thread map over mutable
//! items (the allocator's category shards) that preserves item order in its
//! results and degenerates to a plain serial loop at `threads == 1`, so the
//! parallel and serial paths are the same code.

use std::num::NonZeroUsize;

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
pub fn cgroup_quota() -> Option<usize> {
    if let Ok(line) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        if let Some(n) = parse_cpu_max(&line) {
            return Some(n);
        }
    }
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").ok()?;
    let period = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us").ok()?;
    parse_cfs(&quota, &period)
}

/// The number of worker threads this process should use: the
/// `TORA_THREADS` override when set (≥ 1), otherwise the available
/// parallelism capped by the cgroup CPU quota.
pub fn detected_threads() -> usize {
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

/// Resolve an explicit thread-count request: `0` means "auto"
/// ([`detected_threads`]); any other value is taken as-is.
pub fn resolve(requested: usize) -> usize {
    if requested == 0 {
        detected_threads()
    } else {
        requested
    }
}

/// Worker threads to use for `jobs` independent items: the detected count,
/// never more than the job count, never less than one.
pub fn thread_count(jobs: usize) -> usize {
    detected_threads().min(jobs.max(1))
}

/// Map `f` over `items` on up to `threads` scoped worker threads, returning
/// results in item order.
///
/// Items are split into contiguous balanced chunks, one worker per chunk,
/// and each worker's results are concatenated in chunk order — so the
/// output order (and therefore anything merged from it) is independent of
/// scheduling. With `threads <= 1` (or one item) this is a plain serial
/// `map` over the very same closure: the serial reference path and the
/// parallel path cannot drift apart.
pub fn par_map_mut<T, R, F>(items: &mut [T], threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter_mut().map(&f).collect();
    }
    let workers = threads.min(n);
    let base = n / workers;
    let rem = n % workers;
    let mut chunks: Vec<&mut [T]> = Vec::with_capacity(workers);
    let mut rest = items;
    for w in 0..workers {
        let len = base + usize::from(w < rem);
        let (head, tail) = rest.split_at_mut(len);
        chunks.push(head);
        rest = tail;
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                let f = &f;
                scope.spawn(move || chunk.iter_mut().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map_mut worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn resolve_and_bounds() {
        assert!(detected_threads() >= 1);
        assert_eq!(resolve(3), 3);
        assert!(resolve(0) >= 1);
        assert_eq!(thread_count(1), 1);
        assert!(thread_count(0) >= 1);
        assert!(thread_count(2) <= 2);
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let want: Vec<u64> = items.iter().map(|i| i * 7 + 1).collect();
        for threads in [1, 2, 3, 4, 16, 200] {
            let mut mine = items.clone();
            let got = par_map_mut(&mut mine, threads, |i| *i * 7 + 1);
            assert_eq!(got, want, "threads={threads}");
        }
        let mut empty: Vec<u64> = Vec::new();
        assert!(par_map_mut(&mut empty, 4, |i| *i).is_empty());
    }

    #[test]
    fn par_map_mutations_land_in_every_item() {
        let mut items: Vec<u64> = vec![0; 41];
        par_map_mut(&mut items, 4, |i| *i += 1);
        assert!(items.iter().all(|&i| i == 1));
    }
}
