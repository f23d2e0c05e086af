//! Per-task execution outcomes: the raw material of every §II-C metric.
//!
//! A task may take several attempts: zero or more *failed allocations*
//! (killed for over-consuming some dimension) followed by one successful
//! run. Each attempt records the allocation it held and the time it was
//! charged for; the waste definitions of §II-C fall out directly:
//!
//! * **Internal fragmentation** `t · (a − c)` — the successful attempt's
//!   over-allocation, integrated over its duration.
//! * **Failed allocation** `Σ aᵢ · tᵢ` — everything a failed attempt held,
//!   for as long as it held it.

use serde::{Deserialize, Serialize};
use tora_alloc::resources::{ResourceKind, ResourceVector};
use tora_alloc::task::{CategoryId, TaskId};

pub use tora_alloc::trace::DeadLetterCause;

const KINDS: usize = ResourceKind::ALL.len();

/// The per-dimension terms [`crate::WorkflowMetrics`] sums, `[term][kind]`,
/// with the terms indexed by the constants below.
pub(crate) type Terms = [[f64; KINDS]; 6];
pub(crate) const CONSUMPTION: usize = 0;
pub(crate) const ALLOCATION: usize = 1;
pub(crate) const INTERNAL_FRAGMENTATION: usize = 2;
pub(crate) const FAILED_ALLOCATION: usize = 3;
pub(crate) const ALLOCATION_INDUCED: usize = 4;
pub(crate) const FAULT_INDUCED: usize = 5;

/// Why an attempt ended the way it did. Separates *allocation-induced*
/// endings (the §II-B kill for over-consumption) from *fault-induced* ones
/// (the environment failed the attempt), which is what lets the waste
/// attribution split retry waste by blame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum AttemptCause {
    /// Ran to completion under its allocation.
    #[default]
    Completed,
    /// Completed, but straggled: held its allocation for longer than the
    /// task's true duration (the overhang is fault-induced drag waste).
    StragglerCompleted,
    /// Killed for over-consuming a dimension (§II-B assumption 4).
    ResourceExhausted,
    /// Lost when its worker crashed (abrupt departure, record lost).
    WorkerCrash,
    /// Hung past the straggler timeout and was killed.
    StragglerTimeout,
}

impl AttemptCause {
    /// Whether the environment, not the allocation, is to blame.
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            AttemptCause::StragglerCompleted
                | AttemptCause::WorkerCrash
                | AttemptCause::StragglerTimeout
        )
    }

    /// Stable report label.
    pub fn label(self) -> &'static str {
        match self {
            AttemptCause::Completed => "completed",
            AttemptCause::StragglerCompleted => "straggler-completed",
            AttemptCause::ResourceExhausted => "resource-exhausted",
            AttemptCause::WorkerCrash => "worker-crash",
            AttemptCause::StragglerTimeout => "straggler-timeout",
        }
    }
}

/// One attempt of one task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttemptOutcome {
    /// The allocation the attempt held.
    pub allocation: ResourceVector,
    /// Seconds the attempt occupied its allocation (full duration for a
    /// success; time-to-kill for a failure).
    pub charged_time_s: f64,
    /// Whether the attempt completed successfully.
    pub success: bool,
    /// Why the attempt ended.
    #[serde(default)]
    pub cause: AttemptCause,
    /// Nominal task-seconds of finished work this (failed) attempt banked
    /// via checkpoint/restart and handed to the retry. Zero everywhere
    /// unless the engine ran with `checkpointed_fraction > 0`; always zero
    /// on a successful attempt.
    #[serde(default)]
    pub salvaged_s: f64,
}

impl AttemptOutcome {
    /// A successful attempt.
    pub fn success(allocation: ResourceVector, charged_time_s: f64) -> Self {
        AttemptOutcome {
            allocation,
            charged_time_s,
            success: true,
            cause: AttemptCause::Completed,
            salvaged_s: 0.0,
        }
    }

    /// A successful attempt that straggled: completed, but occupied its
    /// allocation for `charged_time_s` seconds — longer than the task's
    /// true duration.
    pub fn success_straggled(allocation: ResourceVector, charged_time_s: f64) -> Self {
        AttemptOutcome {
            allocation,
            charged_time_s,
            success: true,
            cause: AttemptCause::StragglerCompleted,
            salvaged_s: 0.0,
        }
    }

    /// A failed (killed) attempt.
    pub fn failure(allocation: ResourceVector, charged_time_s: f64) -> Self {
        AttemptOutcome {
            allocation,
            charged_time_s,
            success: false,
            cause: AttemptCause::ResourceExhausted,
            salvaged_s: 0.0,
        }
    }

    /// A failed attempt with an explicit cause (crash, straggler timeout).
    pub fn failure_with_cause(
        allocation: ResourceVector,
        charged_time_s: f64,
        cause: AttemptCause,
    ) -> Self {
        debug_assert!(!matches!(
            cause,
            AttemptCause::Completed | AttemptCause::StragglerCompleted
        ));
        AttemptOutcome {
            allocation,
            charged_time_s,
            success: false,
            cause,
            salvaged_s: 0.0,
        }
    }
}

/// The full execution history of one task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskOutcome {
    /// The task.
    pub task: TaskId,
    /// Its category.
    pub category: CategoryId,
    /// Measured peak consumption of the successful run.
    pub peak: ResourceVector,
    /// Duration of the successful run, seconds.
    pub duration_s: f64,
    /// Attempts in order; the last must be the (single) success.
    pub attempts: Vec<AttemptOutcome>,
}

impl TaskOutcome {
    /// Validate structural invariants: at least one attempt, exactly one
    /// success and it is last, non-negative times, and the successful
    /// allocation dominates the peak.
    pub fn check(&self) -> Result<(), String> {
        let Some(last) = self.attempts.last() else {
            return Err(format!("{}: no attempts", self.task));
        };
        if !last.success {
            return Err(format!("{}: last attempt is not a success", self.task));
        }
        let successes = self.attempts.iter().filter(|a| a.success).count();
        if successes != 1 {
            return Err(format!("{}: {successes} successful attempts", self.task));
        }
        if self.attempts.iter().any(|a| a.charged_time_s < 0.0) {
            return Err(format!("{}: negative charged time", self.task));
        }
        if !last.allocation.dominates(&self.peak) {
            return Err(format!(
                "{}: successful allocation {} does not cover peak {}",
                self.task, last.allocation, self.peak
            ));
        }
        for a in &self.attempts {
            let completing = matches!(
                a.cause,
                AttemptCause::Completed | AttemptCause::StragglerCompleted
            );
            if a.success != completing {
                return Err(format!(
                    "{}: attempt success={} contradicts cause {}",
                    self.task,
                    a.success,
                    a.cause.label()
                ));
            }
            if a.salvaged_s < 0.0 {
                return Err(format!("{}: negative salvaged work", self.task));
            }
            if a.success && a.salvaged_s != 0.0 {
                return Err(format!(
                    "{}: successful attempt claims salvaged work",
                    self.task
                ));
            }
        }
        if self.salvaged_s() > self.duration_s + 1e-9 {
            return Err(format!(
                "{}: salvaged {} s exceeds duration {} s",
                self.task,
                self.salvaged_s(),
                self.duration_s
            ));
        }
        Ok(())
    }

    /// Total checkpoint-salvaged work over the failed attempts, nominal
    /// task-seconds. Zero unless the run checkpointed.
    pub fn salvaged_s(&self) -> f64 {
        self.attempts.iter().map(|a| a.salvaged_s).sum()
    }

    /// The successful attempt.
    fn final_attempt(&self) -> &AttemptOutcome {
        self.attempts.last().expect("outcome with no attempts")
    }

    /// Every dimension's terms, from the methods below. The blame split
    /// charges the allocator with `IF + FA` less the fault-failed share,
    /// and the environment with that share plus the straggler drag.
    pub(crate) fn terms(&self) -> Terms {
        let mut t = [[0.0; KINDS]; 6];
        for kind in ResourceKind::ALL {
            let k = kind as usize;
            let internal = self.internal_fragmentation(kind);
            let failed = self.failed_allocation_waste(kind);
            let fault_failed = self.fault_failed_waste(kind);
            t[CONSUMPTION][k] = self.consumption(kind);
            t[ALLOCATION][k] = self.total_allocation(kind);
            t[INTERNAL_FRAGMENTATION][k] = internal;
            t[FAILED_ALLOCATION][k] = failed;
            t[ALLOCATION_INDUCED][k] = internal + failed - fault_failed;
            t[FAULT_INDUCED][k] = fault_failed + self.straggler_drag(kind);
        }
        t
    }

    /// Useful consumption `C(T) = c · t` of one dimension.
    pub fn consumption(&self, kind: ResourceKind) -> f64 {
        self.peak[kind] * self.duration_s
    }

    /// Total allocation `A(T) = a·t + Σ aᵢ·tᵢ` of one dimension.
    pub fn total_allocation(&self, kind: ResourceKind) -> f64 {
        self.attempts
            .iter()
            .map(|a| a.allocation[kind] * a.charged_time_s)
            .sum()
    }

    /// Internal fragmentation `t · (a − c)` of one dimension. Under
    /// checkpoint/restart the successful attempt only runs the *remaining*
    /// duration (`t − Σ salvaged`), so the over-allocation is integrated
    /// over that shorter span; with no salvage this is exactly the §II-C
    /// definition.
    pub fn internal_fragmentation(&self, kind: ResourceKind) -> f64 {
        let last = self.final_attempt();
        (last.allocation[kind] - self.peak[kind]) * (self.duration_s - self.salvaged_s())
    }

    /// Failed-allocation waste `Σ aᵢ·tᵢ` of one dimension. A checkpointed
    /// attempt's banked work was *not* wasted: the salvaged share, priced
    /// at the task's true consumption rate, is credited back, so only the
    /// genuinely lost remainder counts.
    pub fn failed_allocation_waste(&self, kind: ResourceKind) -> f64 {
        self.attempts
            .iter()
            .filter(|a| !a.success)
            .map(|a| a.allocation[kind] * a.charged_time_s - self.peak[kind] * a.salvaged_s)
            .sum()
    }

    /// Total waste of one dimension (§II-C `ResourceWaste(T)`).
    pub fn waste(&self, kind: ResourceKind) -> f64 {
        self.internal_fragmentation(kind) + self.failed_allocation_waste(kind)
    }

    /// Straggler drag of one dimension: allocation the successful attempt
    /// held *beyond* the task's true duration. Zero for non-straggled runs.
    /// With drag, the accounting identity reads
    /// `A = C + IF + FA + drag` — drag is fault-induced waste the §II-C
    /// split does not see.
    pub fn straggler_drag(&self, kind: ResourceKind) -> f64 {
        let last = self.final_attempt();
        last.allocation[kind]
            * (last.charged_time_s - (self.duration_s - self.salvaged_s())).max(0.0)
    }

    /// Failed-allocation waste of one dimension restricted to attempts the
    /// environment failed (crashes, straggler timeouts) — the retry waste
    /// the allocator is *not* to blame for. Checkpoint salvage is credited
    /// here the same way as in [`TaskOutcome::failed_allocation_waste`]
    /// (every salvaged attempt is a crash, hence fault-caused).
    pub fn fault_failed_waste(&self, kind: ResourceKind) -> f64 {
        self.attempts
            .iter()
            .filter(|a| !a.success && a.cause.is_fault())
            .map(|a| a.allocation[kind] * a.charged_time_s - self.peak[kind] * a.salvaged_s)
            .sum()
    }
}

/// The terminal state of a task that will never complete: the engine gave
/// up on it, recording why and what its attempts cost. The counterpart of
/// [`TaskOutcome`] — every submitted task ends as exactly one of the two,
/// which is the conservation identity `submitted = completed +
/// dead-lettered` a chaos run checks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeadLetter {
    /// The task.
    pub task: TaskId,
    /// Its category.
    pub category: CategoryId,
    /// Why it was abandoned.
    pub cause: DeadLetterCause,
    /// Every attempt it burned before being abandoned (possibly none — a
    /// task dead-lettered before it ever dispatched).
    pub attempts: Vec<AttemptOutcome>,
}

impl DeadLetter {
    /// Validate structural invariants: no successful attempts (a success
    /// would have completed the task), non-negative charged times.
    pub fn check(&self) -> Result<(), String> {
        if let Some(a) = self.attempts.iter().find(|a| a.success) {
            return Err(format!(
                "{}: dead-lettered task has a successful attempt ({})",
                self.task,
                a.cause.label()
            ));
        }
        if self.attempts.iter().any(|a| a.charged_time_s < 0.0) {
            return Err(format!("{}: negative charged time", self.task));
        }
        Ok(())
    }

    /// Total allocation the abandoned attempts held — all of it waste.
    pub fn total_allocation(&self, kind: ResourceKind) -> f64 {
        self.attempts
            .iter()
            .map(|a| a.allocation[kind] * a.charged_time_s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with_retry() -> TaskOutcome {
        // Peak 300 MB over 10 s. First attempt: 100 MB killed at 4 s.
        // Second attempt: 400 MB, success.
        TaskOutcome {
            task: TaskId(0),
            category: CategoryId(0),
            peak: ResourceVector::new(1.0, 300.0, 50.0),
            duration_s: 10.0,
            attempts: vec![
                AttemptOutcome::failure(ResourceVector::new(1.0, 100.0, 1024.0), 4.0),
                AttemptOutcome::success(ResourceVector::new(1.0, 400.0, 1024.0), 10.0),
            ],
        }
    }

    #[test]
    fn waste_identity_holds() {
        // A(T) = C(T) + IF + FA for the dimension, when the success is
        // charged its full duration.
        let o = outcome_with_retry();
        o.check().unwrap();
        for kind in ResourceKind::STANDARD {
            let lhs = o.total_allocation(kind);
            let rhs = o.consumption(kind)
                + o.internal_fragmentation(kind)
                + o.failed_allocation_waste(kind);
            assert!((lhs - rhs).abs() < 1e-9, "{kind}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn hand_computed_memory_waste() {
        let o = outcome_with_retry();
        let k = ResourceKind::MemoryMb;
        assert_eq!(o.consumption(k), 3000.0); // 300 × 10
        assert_eq!(o.failed_allocation_waste(k), 400.0); // 100 × 4
        assert_eq!(o.internal_fragmentation(k), 1000.0); // (400−300) × 10
        assert_eq!(o.waste(k), 1400.0);
        assert_eq!(o.total_allocation(k), 4400.0); // 400 + 4000
    }

    #[test]
    fn perfect_allocation_has_zero_waste() {
        let peak = ResourceVector::new(2.0, 512.0, 306.0);
        let o = TaskOutcome {
            task: TaskId(1),
            category: CategoryId(0),
            peak,
            duration_s: 7.0,
            attempts: vec![AttemptOutcome::success(peak, 7.0)],
        };
        o.check().unwrap();
        for kind in ResourceKind::STANDARD {
            assert_eq!(o.waste(kind), 0.0, "{kind}");
            assert_eq!(o.total_allocation(kind), o.consumption(kind), "{kind}");
        }
    }

    #[test]
    fn salvage_identity_holds() {
        // A crashed attempt banked 3 s of its work; the retry ran the
        // remaining 7 s. A = C + IF + FA + drag still balances, with the
        // salvaged share credited out of the failed-allocation waste.
        let mut crashed = AttemptOutcome::failure_with_cause(
            ResourceVector::new(1.0, 400.0, 1024.0),
            3.0,
            AttemptCause::WorkerCrash,
        );
        crashed.salvaged_s = 3.0;
        let o = TaskOutcome {
            task: TaskId(7),
            category: CategoryId(0),
            peak: ResourceVector::new(1.0, 300.0, 50.0),
            duration_s: 10.0,
            attempts: vec![
                crashed,
                AttemptOutcome::success(ResourceVector::new(1.0, 400.0, 1024.0), 7.0),
            ],
        };
        o.check().unwrap();
        assert_eq!(o.salvaged_s(), 3.0);
        for kind in ResourceKind::STANDARD {
            let lhs = o.total_allocation(kind);
            let rhs = o.consumption(kind)
                + o.internal_fragmentation(kind)
                + o.failed_allocation_waste(kind)
                + o.straggler_drag(kind);
            assert!((lhs - rhs).abs() < 1e-9, "{kind}: {lhs} vs {rhs}");
        }
        // Memory by hand: FA = 400×3 − 300×3 = 300; IF = (400−300)×7 = 700.
        let k = ResourceKind::MemoryMb;
        assert_eq!(o.failed_allocation_waste(k), 300.0);
        assert_eq!(o.internal_fragmentation(k), 700.0);
        assert_eq!(o.straggler_drag(k), 0.0);
        assert_eq!(o.fault_failed_waste(k), 300.0);
    }

    #[test]
    fn check_rejects_bad_salvage() {
        let peak = ResourceVector::new(1.0, 100.0, 10.0);
        let alloc = ResourceVector::new(1.0, 128.0, 16.0);
        let mut success_with_salvage = AttemptOutcome::success(alloc, 5.0);
        success_with_salvage.salvaged_s = 1.0;
        let o = TaskOutcome {
            task: TaskId(8),
            category: CategoryId(0),
            peak,
            duration_s: 5.0,
            attempts: vec![success_with_salvage],
        };
        assert!(o.check().is_err(), "success must not claim salvage");
        let mut over_salvaged = AttemptOutcome::failure(alloc, 2.0);
        over_salvaged.salvaged_s = 50.0; // more than the whole task
        let o = TaskOutcome {
            attempts: vec![over_salvaged, AttemptOutcome::success(alloc, 5.0)],
            ..o
        };
        assert!(o.check().is_err(), "salvage cannot exceed the duration");
    }

    #[test]
    fn replayable_covers_exactly_the_shortage_causes() {
        use DeadLetterCause::*;
        for (cause, want) in [
            (AttemptsExhausted, false),
            (DispatchRetriesExhausted, true),
            (Unplaceable, true),
            (Infeasible, false),
            (DependencyDeadLettered, false),
            (Stalled, false),
        ] {
            assert_eq!(cause.replayable(), want, "{}", cause.label());
        }
    }

    #[test]
    fn check_rejects_malformed_outcomes() {
        let peak = ResourceVector::new(1.0, 100.0, 10.0);
        let good = AttemptOutcome::success(ResourceVector::new(1.0, 128.0, 16.0), 5.0);

        let empty = TaskOutcome {
            task: TaskId(2),
            category: CategoryId(0),
            peak,
            duration_s: 5.0,
            attempts: vec![],
        };
        assert!(empty.check().is_err());

        let failure_last = TaskOutcome {
            attempts: vec![good, AttemptOutcome::failure(peak, 1.0)],
            ..empty.clone()
        };
        assert!(failure_last.check().is_err());

        let double_success = TaskOutcome {
            attempts: vec![good, good],
            ..empty.clone()
        };
        assert!(double_success.check().is_err());

        let under_allocated = TaskOutcome {
            attempts: vec![AttemptOutcome::success(
                ResourceVector::new(1.0, 50.0, 16.0),
                5.0,
            )],
            ..empty
        };
        assert!(under_allocated.check().is_err());
    }
}
