//! Run summaries: convergence analysis and distributional statistics.
//!
//! §VII hypothesizes that the bucketing algorithms "perform well and quickly
//! converge to a steady state on workflows of around 4,500 tasks". This
//! module makes that claim measurable:
//!
//! * [`rolling_awe`] — AWE over a sliding window of completed tasks, the
//!   trajectory a converging allocator flattens out;
//! * [`steady_state_onset`] — the first task index after which the rolling
//!   AWE stays inside a band around its final value;
//! * [`attempts_histogram`] — how many tasks needed 1, 2, 3… attempts.

use crate::awe::WorkflowMetrics;
use crate::outcome::TaskOutcome;
use tora_alloc::resources::ResourceKind;

/// Outcomes sorted by task id (completion order differs under concurrency;
/// convergence is defined over the submission order, which is what the
/// allocator's significance weighting follows).
fn by_task_id(metrics: &WorkflowMetrics) -> Vec<&TaskOutcome> {
    let mut outcomes: Vec<&TaskOutcome> = metrics.outcomes().iter().collect();
    outcomes.sort_by_key(|o| o.task);
    outcomes
}

/// AWE of one dimension over a sliding window of `window` tasks (by task
/// id). Returns `(last task id in window, awe)` pairs, one per window step
/// of `window / 4` tasks (overlapping windows smooth the trajectory).
pub fn rolling_awe(
    metrics: &WorkflowMetrics,
    kind: ResourceKind,
    window: usize,
) -> Vec<(u64, f64)> {
    let outcomes = by_task_id(metrics);
    if outcomes.is_empty() || window == 0 {
        return Vec::new();
    }
    let window = window.min(outcomes.len());
    let step = (window / 4).max(1);
    let mut points = Vec::new();
    let mut start = 0;
    loop {
        let end = (start + window).min(outcomes.len());
        let slice = &outcomes[start..end];
        let consumption: f64 = slice.iter().map(|o| o.consumption(kind)).sum();
        let allocation: f64 = slice.iter().map(|o| o.total_allocation(kind)).sum();
        if allocation > 0.0 {
            points.push((slice[slice.len() - 1].task.0, consumption / allocation));
        }
        if end == outcomes.len() {
            break;
        }
        start += step;
    }
    points
}

/// First task id after which the rolling AWE stays within `band` (absolute)
/// of its final value — the steady-state onset. `None` when the trajectory
/// never settles (or the run is too short to tell).
pub fn steady_state_onset(
    metrics: &WorkflowMetrics,
    kind: ResourceKind,
    window: usize,
    band: f64,
) -> Option<u64> {
    let trajectory = rolling_awe(metrics, kind, window);
    let &(_, last) = trajectory.last()?;
    let mut onset = None;
    for &(task, awe) in &trajectory {
        if (awe - last).abs() <= band {
            onset.get_or_insert(task);
        } else {
            onset = None;
        }
    }
    onset
}

/// Histogram of attempts-per-task: index 0 counts single-attempt tasks,
/// index 1 counts one-retry tasks, and so on.
pub fn attempts_histogram(metrics: &WorkflowMetrics) -> Vec<usize> {
    let mut hist = Vec::new();
    for o in metrics.outcomes() {
        let idx = o.attempts.len() - 1;
        if hist.len() <= idx {
            hist.resize(idx + 1, 0);
        }
        hist[idx] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::AttemptOutcome;
    use tora_alloc::resources::ResourceVector;
    use tora_alloc::task::{CategoryId, TaskId};

    fn outcome(task: u64, peak_mem: f64, alloc_mem: f64, retries: usize) -> TaskOutcome {
        let peak = ResourceVector::new(1.0, peak_mem, 10.0);
        let alloc = ResourceVector::new(1.0, alloc_mem, 10.0);
        let mut attempts = vec![AttemptOutcome::failure(alloc.scale(0.5), 2.0); retries];
        attempts.push(AttemptOutcome::success(alloc, 10.0));
        TaskOutcome {
            task: TaskId(task),
            category: CategoryId(0),
            peak,
            duration_s: 10.0,
            attempts,
        }
    }

    #[test]
    fn rolling_awe_improves_as_allocations_tighten() {
        // Early tasks over-allocated 4×, later tasks perfectly allocated.
        let m: WorkflowMetrics = (0..100)
            .map(|i| {
                let alloc = if i < 50 { 400.0 } else { 100.0 };
                outcome(i, 100.0, alloc, 0)
            })
            .collect();
        let points = rolling_awe(&m, ResourceKind::MemoryMb, 20);
        assert!(points.len() > 3);
        let first = points.first().unwrap().1;
        let last = points.last().unwrap().1;
        assert!(first < 0.3, "early AWE {first}");
        assert!(last > 0.9, "late AWE {last}");
        // Points are ordered by task id.
        assert!(points.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn steady_state_onset_detects_the_transition() {
        let m: WorkflowMetrics = (0..200)
            .map(|i| {
                let alloc = if i < 60 { 800.0 } else { 110.0 };
                outcome(i, 100.0, alloc, 0)
            })
            .collect();
        let onset = steady_state_onset(&m, ResourceKind::MemoryMb, 20, 0.05).unwrap();
        assert!(
            (60..120).contains(&onset),
            "onset {onset} should follow the task-60 transition"
        );
        // A flat run converges immediately.
        let flat: WorkflowMetrics = (0..100).map(|i| outcome(i, 100.0, 110.0, 0)).collect();
        let onset = steady_state_onset(&flat, ResourceKind::MemoryMb, 20, 0.05).unwrap();
        assert!(onset < 30, "flat run onset {onset}");
    }

    #[test]
    fn attempts_histogram_counts_retries() {
        let m: WorkflowMetrics = vec![
            outcome(0, 100.0, 200.0, 0),
            outcome(1, 100.0, 200.0, 0),
            outcome(2, 100.0, 200.0, 1),
            outcome(3, 100.0, 200.0, 3),
        ]
        .into_iter()
        .collect();
        let hist = attempts_histogram(&m);
        assert_eq!(hist, vec![2, 1, 0, 1]);
        assert!(attempts_histogram(&WorkflowMetrics::new()).is_empty());
    }
}
