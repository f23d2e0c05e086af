//! Run summaries: convergence analysis and distributional statistics.
//!
//! §VII hypothesizes that the bucketing algorithms "perform well and quickly
//! converge to a steady state on workflows of around 4,500 tasks". This
//! module makes that claim measurable:
//!
//! * [`rolling_awe`] — AWE over a sliding window of completed tasks, the
//!   trajectory a converging allocator flattens out;
//! * [`steady_state_onset`] — the first task index after which the rolling
//!   AWE stays inside a band around its final value.
//!
//! Both read per-task rows: the outcomes a run kept by building its metrics
//! with [`crate::WorkflowMetrics::with_rows`].

use crate::outcome::TaskOutcome;
use tora_alloc::resources::ResourceKind;

/// AWE of one dimension over a sliding window of `window` tasks (by task
/// id). Returns `(last task id in window, awe)` pairs, one per window step
/// of `window / 4` tasks (overlapping windows smooth the trajectory).
/// Windows follow task ids, not `outcomes`' completion order: convergence
/// is defined over the submission order, which is what the allocator's
/// significance weighting follows.
pub fn rolling_awe(outcomes: &[TaskOutcome], kind: ResourceKind, window: usize) -> Vec<(u64, f64)> {
    let mut outcomes: Vec<&TaskOutcome> = outcomes.iter().collect();
    outcomes.sort_by_key(|o| o.task);
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
    outcomes: &[TaskOutcome],
    kind: ResourceKind,
    window: usize,
    band: f64,
) -> Option<u64> {
    let trajectory = rolling_awe(outcomes, kind, window);
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
        let m: Vec<TaskOutcome> = (0..100)
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
        let m: Vec<TaskOutcome> = (0..200)
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
        let flat: Vec<TaskOutcome> = (0..100).map(|i| outcome(i, 100.0, 110.0, 0)).collect();
        let onset = steady_state_onset(&flat, ResourceKind::MemoryMb, 20, 0.05).unwrap();
        assert!(onset < 30, "flat run onset {onset}");
    }
}
