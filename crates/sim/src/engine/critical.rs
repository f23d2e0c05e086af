//! Incremental critical-path tracking for structured workloads.
//!
//! The tracker grows with the task list — [`CriticalPath::push`] runs once
//! per task at intake, so the longest-chain DP never needs the full
//! workflow at once and pays O(edges) overall. Predecessor links are
//! kept so the realized chain can be walked backwards at summary time;
//! `dependents` can't serve that role because dispatch `mem::take`s it
//! during dependency resolution. Each completion also records the task's
//! memory waste, so the on/off-path split needs no per-task outcome rows.
//!
//! Ties in the DP break toward the smallest dependency id (strict `>`), the
//! same rule as `tora_workloads::dag::longest_path`, so the engine and the
//! workload-side helper agree on which chain is *the* critical path.

use tora_metrics::CriticalPathStats;

/// Sentinel predecessor: the task starts a chain.
const NO_PRED: u64 = u64::MAX;

pub(super) struct CriticalPath {
    /// Longest-chain length (summed nominal durations) ending at each task.
    dist: Vec<f64>,
    /// The dependency realizing `dist`, or [`NO_PRED`].
    pred: Vec<u64>,
    /// Tasks on the chain realizing `dist`.
    hops: Vec<u32>,
    /// Completion time in sim seconds; `NaN` until the task completes.
    finish: Vec<f64>,
    /// `(task, memory waste in MB·s)` of each completed task, in
    /// completion order.
    waste: Vec<(usize, f64)>,
}

impl CriticalPath {
    pub(super) fn new() -> Self {
        CriticalPath {
            dist: Vec::new(),
            pred: Vec::new(),
            hops: Vec::new(),
            finish: Vec::new(),
            waste: Vec::new(),
        }
    }

    /// Account the next task (ids are sequential; deps reference earlier
    /// tasks, which the engine already asserts).
    pub(super) fn push(&mut self, duration_s: f64, deps: &[u64]) {
        let mut best = 0.0f64;
        let mut best_pred = NO_PRED;
        let mut best_hops = 0u32;
        for &d in deps {
            if self.dist[d as usize] > best {
                best = self.dist[d as usize];
                best_pred = d;
                best_hops = self.hops[d as usize];
            }
        }
        self.dist.push(best + duration_s);
        self.pred.push(best_pred);
        self.hops.push(best_hops + 1);
        self.finish.push(f64::NAN);
    }

    /// Record a task's completion time and its memory waste.
    pub(super) fn record_finish(&mut self, task_idx: usize, now_s: f64, waste_mb_s: f64) {
        self.finish[task_idx] = now_s;
        self.waste.push((task_idx, waste_mb_s));
    }

    /// Summarize the run: walk the chain realizing the global longest path
    /// and split completed-task memory waste by membership.
    pub(super) fn summarize(&self, makespan_s: f64) -> CriticalPathStats {
        if self.dist.is_empty() {
            return CriticalPathStats {
                longest_path_s: 0.0,
                longest_path_tasks: 0,
                realized_s: makespan_s,
                inflation: 0.0,
                on_path_waste_mb_s: 0.0,
                off_path_waste_mb_s: 0.0,
            };
        }
        let mut sink = 0usize;
        for i in 1..self.dist.len() {
            if self.dist[i] > self.dist[sink] {
                sink = i;
            }
        }
        let mut on_path = vec![false; self.dist.len()];
        let mut cur = sink as u64;
        loop {
            on_path[cur as usize] = true;
            let p = self.pred[cur as usize];
            if p == NO_PRED {
                break;
            }
            cur = p;
        }
        // Waste splits over *completed* tasks only (the §II-C per-task
        // waste is defined against a successful final run); dead-lettered
        // work is already attributed by the fault report.
        let (mut on, mut off) = (0.0f64, 0.0f64);
        for &(task_idx, waste) in &self.waste {
            if on_path[task_idx] {
                on += waste;
            } else {
                off += waste;
            }
        }
        let longest = self.dist[sink];
        let realized = if self.finish[sink].is_nan() {
            makespan_s
        } else {
            self.finish[sink]
        };
        CriticalPathStats {
            longest_path_s: longest,
            longest_path_tasks: self.hops[sink],
            realized_s: realized,
            inflation: if longest > 0.0 {
                realized / longest
            } else {
                0.0
            },
            on_path_waste_mb_s: on,
            off_path_waste_mb_s: off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_tracks_the_longest_chain_incrementally() {
        let mut cp = CriticalPath::new();
        cp.push(5.0, &[]); // 0: chain 5
        cp.push(2.0, &[]); // 1: chain 2
        cp.push(4.0, &[0, 1]); // 2: 0 -> 2, chain 9
        cp.push(10.0, &[1]); // 3: 1 -> 3, chain 12
        cp.push(1.0, &[2, 3]); // 4: 3 -> 4, chain 13
        let stats = cp.summarize(20.0);
        assert!((stats.longest_path_s - 13.0).abs() < 1e-12);
        assert_eq!(stats.longest_path_tasks, 3); // 1 -> 3 -> 4
        assert!(
            (stats.realized_s - 20.0).abs() < 1e-12,
            "NaN finish falls back"
        );
    }

    #[test]
    fn realized_time_comes_from_the_sink_finish() {
        let mut cp = CriticalPath::new();
        cp.push(3.0, &[]);
        cp.push(4.0, &[0]);
        cp.record_finish(0, 6.0, 0.0);
        cp.record_finish(1, 14.0, 0.0);
        let stats = cp.summarize(99.0);
        assert!((stats.longest_path_s - 7.0).abs() < 1e-12);
        assert!((stats.realized_s - 14.0).abs() < 1e-12);
        assert!((stats.inflation - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ties_break_toward_the_smallest_dependency() {
        let mut cp = CriticalPath::new();
        cp.push(5.0, &[]);
        cp.push(5.0, &[]);
        cp.push(1.0, &[0, 1]);
        // Both chains are length 5; the tie must pick task 0.
        assert_eq!(cp.pred[2], 0);
    }
}
